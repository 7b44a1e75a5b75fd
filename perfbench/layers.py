"""Per-layer metrics of a traced round.

Counts the program already keeps are read from outside: ``NetworkStats``,
``StableStore.write_count``, the engines' snapshot counters and the
servers' ``session_duplicates``. Elections, leaderless time and the
fast-track share come from the program's ``TraceRecorder``, which only
the traced round enables. Span counts and self time come from
:mod:`tracing`.
"""

from __future__ import annotations

from tracing import LAYERS
from workloads import quantile


def record_batches() -> list[tuple[float, str, tuple[str, ...]]]:
    """Log (sim time, cluster, entry ids) of every batch a C-Raft leader
    takes from its ``Batcher``."""
    from repro.craft.batching import Batcher
    taken: list[tuple[float, str, tuple[str, ...]]] = []
    take = Batcher.take_batch

    def take_batch(self, now):
        payload = take(self, now)
        taken.append((now, self.cluster,
                      tuple(e.entry_id for e in payload.entries)))
        return payload

    Batcher.take_batch = take_batch
    return taken


def _engines(system):
    for server in system.servers.values():
        for name in ("engine", "local_engine", "global_engine"):
            engine = getattr(server, name, None)
            if engine is not None:
                yield engine


def _store_names(system):
    for name, server in system.servers.items():
        yield name
        if hasattr(server, "global_engine"):
            yield f"{name}::global"


def _leaderless_ms(trace, start: float, end: float) -> float:
    """Sim milliseconds of the window in which some consensus group
    (a scope of a protocol) had no leader, summed over groups."""
    leaders: dict[tuple[str, str], set[str]] = {}
    since: dict[tuple[str, str], float] = {}
    total = 0.0
    for event in trace:
        category = event.category
        if not (category.endswith(".role.leader")
                or category.endswith(".role.follower")
                or category.endswith(".role.candidate")):
            continue
        group = (category.rsplit(".role.", 1)[0],
                 event.payload.get("scope", ""))
        current = leaders.setdefault(group, set())
        was_empty = not current
        if category.endswith(".role.leader"):
            current.add(event.node)
        else:
            current.discard(event.node)
        t = min(max(event.time, start), end)
        if was_empty and current and group in since:
            total += t - since.pop(group)
        elif not was_empty and not current:
            since[group] = t
    for group, t in since.items():
        total += end - t
    return total * 1e3


def _fast_share(trace) -> float:
    fast = classic = 0
    last: dict[tuple[str, str], int] = {}
    for event in trace:
        category = event.category
        key = (event.node, category.rsplit(".", 1)[0])
        index = event.payload.get("index", 0)
        if category.endswith(".fast_commit"):
            fast += 1
        elif category.endswith(".classic_commit"):
            if key in last:
                classic += max(0, index - last[key])
        else:
            continue
        last[key] = max(index, last.get(key, 0))
    return fast / (fast + classic) if fast + classic else 0.0


def per_layer(round_, tracer, batches) -> dict:
    system = round_.system
    start, end = round_.window
    window_ops = max(1, sum(1 for op in round_.ops
                            if start <= op.due < end))
    all_ops = max(1, len(round_.ops))
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")

    stats = system.network.stats
    trace = list(system.trace)
    metrics["sim.events_per_op"] = (round_.events / window_ops, "count")
    metrics["sim.timers_scheduled"] = (tracer.timers_scheduled, "count")
    metrics["net.sent_per_op"] = (stats.sent / all_ops, "count")
    metrics["net.dropped_per_op"] = (stats.dropped / all_ops, "count")
    metrics["net.blocked"] = (stats.blocked, "count")
    metrics["consensus.append_entries_per_op"] = (
        tracer.handled["AppendEntries"] / all_ops, "count")
    metrics["consensus.elections"] = (
        sum(1 for e in trace if e.category.endswith(".role.candidate")
            and start <= e.time < end), "count")
    metrics["consensus.unavailable_ms"] = (
        _leaderless_ms(trace, start, end), "ms")
    metrics["fastraft.fast_commit_share"] = (_fast_share(trace), "ratio")

    writes = {op.token: op for op in round_.ops if op.kind == "write"}
    by_request = {op.record.request_id: op for op in writes.values()}
    craft = round_.workload == "craft_mesh_ramp"
    acks, waits, globals_ = [], [], []
    if craft:
        acks = [op.acked_at - op.due for op in writes.values()
                if op.acked_at is not None]
        for taken_at, _, ids in batches:
            for entry_id in ids:
                op = by_request.get(entry_id)
                if op is None or op.acked_at is None:
                    continue
                waits.append(taken_at - op.acked_at)
                if op.applied_at is not None:
                    globals_.append(op.applied_at - taken_at)
    metrics["craft.ack_p50_ms"] = (quantile(acks, 0.50) * 1e3, "ms")
    metrics["craft.ack_p99_ms"] = (quantile(acks, 0.99) * 1e3, "ms")
    metrics["craft.batch_wait_p99_ms"] = (quantile(waits, 0.99) * 1e3, "ms")
    metrics["craft.global_p99_ms"] = (quantile(globals_, 0.99) * 1e3, "ms")
    metrics["craft.entries_per_batch"] = (
        sum(len(ids) for _, _, ids in batches) / len(batches)
        if batches else 0.0, "count")
    metrics["craft.unapplied_at_end"] = (0, "count")

    ops = round_.ops
    reads = [op.acked_at - op.due for op in ops
             if op.kind == "read" and op.acked_at is not None]
    metrics["smr.attempts_per_op"] = (
        sum(op.record.attempts for op in ops) / max(1, len(ops)), "count")
    metrics["smr.duplicates_suppressed"] = (
        sum(s.session_duplicates for s in system.servers.values()), "count")
    metrics["smr.read_p99_ms"] = (quantile(reads, 0.99) * 1e3, "ms")

    engines = list(_engines(system))
    metrics["snapshot.captures"] = (
        sum(e.snapshots_taken for e in engines), "count")
    metrics["snapshot.installs"] = (
        sum(e.snapshots_installed for e in engines), "count")
    metrics["snapshot.chunks_sent"] = (
        sum(e.snapshot_chunks_sent for e in engines), "count")
    writes_total = sum(system.fabric.store_for(name).write_count
                       for name in _store_names(system))
    metrics["storage.writes_per_op"] = (writes_total / all_ops, "count")
    return metrics
