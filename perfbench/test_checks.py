"""The benchmark's output checks bite, and its seed is honoured.

Each check is fed a small hand-made history that satisfies every
check, then a doctored copy with one fault in it, and must name that
fault. Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

from types import SimpleNamespace

import checks
from run import summarize
from workloads import Op, Round, SiteHistory, fastraft_wan_churn

from repro.scenarios.spec import Event


def write(session: str, sequence: int, key: str, due: float,
          acked: float | None) -> Op:
    op = Op("write", session, "n0", key, due, token=f"{session}#{sequence}")
    op.record = SimpleNamespace(committed_at=acked, sequence=sequence,
                                attempts=1, request_id=op.token)
    return op


def read(key: str, due: float, done: float, value: str) -> Op:
    op = Op("read", "r", "n0", key, due)
    op.record = SimpleNamespace(committed_at=done, sequence=0, attempts=1,
                                result=value, request_id=f"r{due}")
    return op


def history(tokens: list[str], ops: list[Op]) -> SiteHistory:
    keys = {op.token: op.key for op in ops if op.kind == "write"}
    image: dict[str, str] = {}
    for token in tokens:
        image[keys[token]] = image.get(keys[token], "") + ";" + token
    return SiteHistory(None, None, [(0.0, ";" + t) for t in tokens], image)


FLAP = Event("partition", at=5.0, args=((("n0",), ("n1",)),))


def clean_round() -> Round:
    ops = [write("a", 1, "k", 1.0, 1.1), write("b", 1, "j", 1.0, 1.2),
           write("a", 2, "k", 2.0, 2.1),
           read("k", 3.0, 3.0, ";a#1;a#2"), read("j", 0.5, 0.6, "")]
    order = ["a#1", "b#1", "a#2"]
    return Round(workload="test", ops=ops,
                 histories={"n0": history(order, ops),
                            "n1": history(order[:2], ops)},
                 window=(0.0, 10.0), e2e_done=lambda op: op.acked_at,
                 declared=[FLAP], fired=[(5.0, FLAP, [])],
                 caught_up={"n1": True})


def failing_checks(round_: Round) -> set[str]:
    return {problem.split(":")[0] for problem in checks.violations(round_)}


def test_clean_history_passes():
    assert checks.violations(clean_round()) == []


def test_duplicated_apply_fails():
    round_ = clean_round()
    round_.histories["n1"] = history(["a#1", "a#1", "b#1"], round_.ops)
    assert "check_applies_once" in failing_checks(round_)


def test_unknown_apply_fails():
    round_ = clean_round()
    round_.histories["n1"].applied.append((0.0, ";ghost#1"))
    assert "check_applies_once" in failing_checks(round_)


def test_dropped_acknowledged_write_fails():
    round_ = clean_round()
    for site in ("n0", "n1"):
        round_.histories[site] = history(["a#1", "a#2"], round_.ops)
    assert "check_acknowledged_durable" in failing_checks(round_)


def test_reordered_session_fails():
    round_ = clean_round()
    for site in ("n0", "n1"):
        round_.histories[site] = history(["a#2", "b#1", "a#1"], round_.ops)
    assert "check_session_order" in failing_checks(round_)


def test_diverging_site_fails():
    round_ = clean_round()
    round_.histories["n1"] = history(["b#1", "a#1"], round_.ops)
    assert "check_prefixes" in failing_checks(round_)


def test_image_that_differs_from_its_replay_fails():
    round_ = clean_round()
    round_.histories["n1"].image["k"] = ";a#2"
    assert "check_images" in failing_checks(round_)


def test_restored_image_of_no_prefix_fails():
    round_ = clean_round()
    round_.histories["n1"] = SiteHistory(
        {"j": ";b#1"}, None, [(0.0, ";a#2")], {"j": ";b#1", "k": ";a#2"})
    assert "check_prefixes" in failing_checks(round_)
    round_.histories["n1"] = SiteHistory(
        {"k": ";a#1"}, None, [(0.0, ";b#1")], {"k": ";a#1", "j": ";b#1"})
    assert checks.violations(round_) == []


def test_stale_read_fails():
    round_ = clean_round()
    round_.ops[3].record.result = ";a#1"
    assert "check_reads" in failing_checks(round_)


def test_read_of_a_later_write_fails():
    round_ = clean_round()
    round_.ops[4].record.result = ";b#1"
    assert "check_reads" in failing_checks(round_)


def test_unfired_flap_fails():
    round_ = clean_round()
    round_.fired = []
    assert "check_faults" in failing_checks(round_)


def test_churned_site_left_behind_fails():
    round_ = clean_round()
    round_.caught_up = {"n1": False}
    assert "check_faults" in failing_checks(round_)


def sim_metrics(seed: int) -> dict:
    round_ = fastraft_wan_churn(seed)
    assert checks.violations(round_) == []
    summary = summarize(round_)
    return {key: summary[key] for key in
            ("latencies", "completed", "attempted", "failed", "events")}


def test_seed_is_honoured():
    first = sim_metrics(1)
    assert sim_metrics(1) == first
    assert sim_metrics(2) != first
