"""Output checks, made apart from the program.

Every check reads a :class:`~workloads.Round` -- what the generator
issued, what each site's state machine applied, what each client was
told -- and compares it against the benchmark's own replay or against a
property the protocol must have. Each returns a list of violations
(empty: the check passed).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

from workloads import Op, Round, tokens_in


def _writes(round_: Round) -> dict[str, Op]:
    return {op.token: op for op in round_.ops if op.kind == "write"}


def _replay(base: dict | None, tokens: list[str],
            writes: dict[str, Op]) -> dict:
    """Plain-dict replay of append commands onto a restored image."""
    image = dict(base or {})
    for token in tokens:
        key = writes[token].key
        image[key] = str(image.get(key, "")) + ";" + token
    return image


def _sequence(round_: Round, site: str) -> list[str]:
    """Tokens applied at ``site`` since its last restore."""
    return [value[1:] for _, value in round_.histories[site].applied]


def _longest(round_: Round) -> list[str]:
    """The longest complete applied sequence of any site."""
    full = [h.sequence() for h in round_.histories.values()]
    return max((seq for seq in full if seq is not None), key=len,
               default=[])


def check_applies_once(round_: Round) -> list[str]:
    """No write applies twice at a site; nothing applies that the
    generator did not submit."""
    writes = _writes(round_)
    problems = []
    for site, history in round_.histories.items():
        sequence = history.sequence()
        if sequence is None:
            sequence = [t for v in history.base.values()
                        for t in tokens_in(v)] + _sequence(round_, site)
        seen = set()
        for token in sequence:
            if token not in writes:
                problems.append(f"{site} applied unknown write {token!r}")
            elif token in seen:
                problems.append(f"{site} applied {token!r} twice")
            seen.add(token)
    return problems


def check_session_order(round_: Round) -> list[str]:
    """Each session's writes apply in the order the session issued them."""
    writes = _writes(round_)
    problems = []
    for site, history in round_.histories.items():
        last: dict[str, int] = {}
        for token in history.sequence() or _sequence(round_, site):
            op = writes.get(token)
            if op is None:
                continue
            seq = op.record.sequence
            if seq <= last.get(op.session, 0):
                problems.append(f"{site} applied {token!r} (sequence {seq}) "
                                f"after sequence {last[op.session]}")
            last[op.session] = max(seq, last.get(op.session, 0))
    return problems


def check_prefixes(round_: Round) -> list[str]:
    """Every site's applied sequence is a prefix of the longest one. A
    site restored from an image this run did not capture must hold the
    image of some prefix, and apply what follows it."""
    writes = _writes(round_)
    longest = _longest(round_)
    problems = []
    for site, history in round_.histories.items():
        sequence = history.sequence()
        if sequence is None:
            start = sum(len(tokens_in(v)) for v in history.base.values())
            if _replay(None, longest[:start], writes) != history.base:
                problems.append(f"{site} restored an image that is no "
                                f"prefix of the longest history")
                continue
            sequence = longest[:start] + _sequence(round_, site)
        if longest[:len(sequence)] != sequence:
            problems.append(f"{site} applied a sequence that is not a "
                            f"prefix of the longest one")
    return problems


def check_images(round_: Round) -> list[str]:
    """Each site's KV image equals a plain-dict replay of what it
    recorded, in its own applied order; a restored image equals the
    replay of the sequence that produced it."""
    writes = _writes(round_)
    problems = []
    for site, history in round_.histories.items():
        try:
            expected = _replay(history.base, _sequence(round_, site), writes)
            base = (_replay(None, history.base_sequence, writes)
                    if history.base_sequence is not None else history.base)
        except KeyError as err:
            problems.append(f"{site} cannot be replayed: unknown {err}")
            continue
        if expected != history.image:
            problems.append(f"{site} image differs from its replay")
        if base != history.base:
            problems.append(f"{site} restored an image that differs from "
                            f"the replay of its sequence")
    return problems


def check_acknowledged_durable(round_: Round) -> list[str]:
    """Every write complete end to end is in the longest applied
    history (for the flat engines that is every acknowledged write)."""
    applied = set(_longest(round_))
    return [f"acknowledged write {op.token!r} was never applied"
            for op in round_.ops
            if op.kind == "write" and round_.e2e_done(op) is not None
            and op.token not in applied]


def check_reads(round_: Round) -> list[str]:
    """A lease read returns every write to its key acknowledged by the
    time the read was due, and no write submitted after it completed.

    A read's value must be a prefix of its key's applied order; with
    positions in that order, both conditions are bisections over the
    key's writes sorted by acknowledgement and by submission time.
    """
    order: dict[str, list[str]] = {}
    writes = _writes(round_)
    for token in _longest(round_):
        order.setdefault(writes[token].key, []).append(token)
    position = {token: i for tokens in order.values()
                for i, token in enumerate(tokens)}
    never = len(position) + 1
    by_ack: dict[str, tuple[list[float], list[int]]] = {}
    by_due: dict[str, tuple[list[float], list[int]]] = {}
    for key in {op.key for op in writes.values()}:
        ops = [op for op in writes.values() if op.key == key]
        acked = sorted((op.acked_at, position.get(op.token, never))
                       for op in ops if op.acked_at is not None)
        highest, prefix_max = -1, []
        for _, pos in acked:
            highest = max(highest, pos)
            prefix_max.append(highest)
        by_ack[key] = ([t for t, _ in acked], prefix_max)
        due = sorted((op.due, position.get(op.token, never)) for op in ops)
        lowest, suffix_min = never, []
        for _, pos in reversed(due):
            lowest = min(lowest, pos)
            suffix_min.append(lowest)
        by_due[key] = ([t for t, _ in due], suffix_min[::-1])
    problems = []
    for op in round_.ops:
        if op.kind != "read" or op.acked_at is None:
            continue
        seen = tokens_in(op.record.result)
        if seen != order.get(op.key, [])[:len(seen)]:
            problems.append(f"read of {op.key} due {op.due:.6f} returned "
                            f"a value that is no prefix of its history")
            continue
        times, prefix_max = by_ack.get(op.key, ([], []))
        i = bisect_right(times, op.due)
        if i and prefix_max[i - 1] >= len(seen):
            problems.append(f"read of {op.key} due {op.due:.6f} missed a "
                            f"write acknowledged by then")
        times, suffix_min = by_due.get(op.key, ([], []))
        j = bisect_right(times, op.acked_at)
        if j < len(times) and suffix_min[j] < len(seen):
            problems.append(f"read of {op.key} due {op.due:.6f} returned a "
                            f"write submitted after the read completed")
    return problems


def check_faults(round_: Round) -> list[str]:
    """Every declared fault event fired, and the churned sites ended
    caught up."""
    missing = Counter(round_.declared) - Counter(
        event for _, event, _ in round_.fired)
    problems = [f"declared event never fired: {event}"
                for event in missing.elements()]
    problems += [f"{site} did not catch up"
                 for site, caught_up in round_.caught_up.items()
                 if not caught_up]
    return problems


CHECKS = (check_applies_once, check_session_order, check_prefixes,
          check_images, check_acknowledged_durable, check_reads,
          check_faults)


def violations(round_: Round) -> list[str]:
    found = []
    for check in CHECKS:
        found += [f"{check.__name__}: {p}" for p in check(round_)]
    return found
