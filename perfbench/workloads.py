"""The benchmark's three workloads.

Each workload builds its system through the public builders, generates
its load from its own seeded generator, arms its fault schedule through
the scenario runner's ``arm_timed_events``, and returns a :class:`Round`:
everything the output checks and the metrics need, in simulated time,
plus the host (CPU) time of each phase.

Open-loop load never drops or defers an arrival: every arrival is
scheduled up front at its due time and takes an idle session from a
fleet sized well beyond the busy count; an arrival that finds no idle
session raises :class:`LoadError` and fails the run.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.consensus.timing import TimingConfig
from repro.experiments.heavy_traffic import (HeavyTrafficConfig,
                                             heavy_traffic_spec)
from repro.fastraft.server import FastRaftServer
from repro.harness.builder import build_cluster, build_from_spec
from repro.net.latency import UniformLatency
from repro.net.loss import BernoulliLoss
from repro.raft.server import RaftServer
from repro.scenarios.runner import RunContext, arm_timed_events
from repro.scenarios.spec import Event, EventSchedule
from repro.smr.kv import KVCommand, KVStateMachine
from repro.snapshot import CompactionPolicy

#: Clients retry until their request completes: under fast-track
#: collisions some writes need 10+ attempts, and a cap would fail a
#: seed-dependent handful of them.
MAX_ATTEMPTS = None


class LoadError(RuntimeError):
    """The generator could not issue an arrival on time."""


# ----------------------------------------------------------------------
# What a round leaves behind
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One client operation, as the generator issued it."""

    kind: str                 # "write" or "read"
    session: str
    site: str                 # site the session is attached to
    key: str
    due: float                # open loop: schedule time; closed: submit
    token: str = ""           # writes: the unique value appended to key
    record: object = None     # the client's RequestRecord
    #: C-Raft writes: sim time of the global apply at ``site``.
    applied_at: float | None = None

    @property
    def acked_at(self) -> float | None:
        return self.record.committed_at if self.record is not None else None


@dataclass
class SiteHistory:
    """What one site's (global, for C-Raft) state machine saw: the image
    it was last restored from and the tokens that image holds, in order
    (None: the image came from elsewhere), the tokens applied since, in
    order, and its final image."""

    base: dict | None
    base_sequence: list[str] | None
    applied: list[tuple[float, str]]
    image: dict

    def sequence(self) -> list[str] | None:
        """Every token this site's state holds, in apply order."""
        if self.base is not None and self.base_sequence is None:
            return None
        return (self.base_sequence or []) + [v[1:] for _, v in self.applied]


@dataclass
class Round:
    workload: str
    ops: list[Op]
    histories: dict[str, SiteHistory]
    window: tuple[float, float]
    #: Completion time of an op end to end (None: never completed).
    e2e_done: Callable[[Op], float | None]
    declared: list = field(default_factory=list)
    fired: list = field(default_factory=list)
    #: Sites that must end caught up with the most advanced site, and
    #: whether they did.
    caught_up: dict[str, bool] = field(default_factory=dict)
    events: int = 0               # SimLoop events over window + drain
    host: dict[str, float] = field(default_factory=dict)
    system: object = None


class Phases:
    """Host CPU time per phase, marked in order."""

    def __init__(self) -> None:
        self.marks: dict[str, float] = {}
        self._last = time.process_time()

    def mark(self, name: str) -> None:
        now = time.process_time()
        self.marks[name] = now - self._last
        self._last = now


# ----------------------------------------------------------------------
# State machine that records its applies (benchmark-side observation)
# ----------------------------------------------------------------------
def _fingerprint(image: dict) -> tuple[int, int]:
    return len(image), sum(len(str(v)) for v in image.values())


class Clock:
    """Late-bound sim clock (machines are built before the loop is
    reachable from here), plus where every snapshot image the machines
    captured came from."""

    def __init__(self) -> None:
        self.loop = None
        #: id(image) -> (fingerprint, base sequence, applied list, its
        #: length at capture). Applied lists are only ever appended to,
        #: so a reference and a length pin the captured sequence without
        #: copying it; the images themselves are not kept alive, and the
        #: fingerprint tells a reused id apart (a collision would still
        #: fail ``check_images``, never pass a wrong image).
        self.images: dict[int, tuple] = {}


class RecordingKV(KVStateMachine):
    """The stock KV machine, also logging (sim time, value) per apply,
    and on a snapshot restore the image and -- when this run captured
    that image -- the token sequence behind it."""

    def __init__(self, clock: Clock) -> None:
        super().__init__()
        self._clock = clock
        self.base: dict | None = None
        self.base_sequence: list[str] | None = None
        self.applied: list[tuple[float, str]] = []

    def apply(self, command):
        self.applied.append((self._clock.loop.now(), command["value"]))
        return super().apply(command)

    def snapshot(self):
        image = super().snapshot()
        if self.base is None or self.base_sequence is not None:
            self._clock.images[id(image)] = (
                _fingerprint(image), self.base_sequence or [], self.applied,
                len(self.applied))
        return image

    def restore(self, state) -> None:
        super().restore(state)
        fingerprint, base, applied, n = self._clock.images.get(
            id(state), (None, None, None, 0))
        self.base = dict(state)
        self.base_sequence = (
            base + [v[1:] for _, v in applied[:n]]
            if fingerprint == _fingerprint(state) else None)
        self.applied = []

    def history(self) -> SiteHistory:
        return SiteHistory(self.base, self.base_sequence,
                           list(self.applied), dict(self._data))


def token_of(value: str) -> str:
    return value[1:]


def tokens_in(value) -> list[str]:
    """The tokens a key's value holds (writes append ``";" + token``)."""
    return value.split(";")[1:] if value else []


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class Fleet:
    """Session clients; an arrival takes an idle one at random."""

    def __init__(self, system, sites: list[str], size: int, prefix: str,
                 rng: random.Random) -> None:
        self._rng = rng
        self.clients = [
            system.add_client(site=sites[i % len(sites)],
                              name=f"{prefix}{i}", max_attempts=MAX_ATTEMPTS,
                              session=True)
            for i in range(size)]
        self._idle = list(range(size))

    def write(self, ops: list[Op], key: str, due: float) -> None:
        if not self._idle:
            raise LoadError(f"no idle session at t={due:.3f}: fleet of "
                            f"{len(self.clients)} is too small")
        index = self._idle.pop(self._rng.randrange(len(self._idle)))
        client = self.clients[index]
        op = Op("write", client.name, client.site, key, due,
                token=f"{client.name}#{len(ops)}")
        ops.append(op)
        op.record = client.submit(
            KVCommand.append(key, ";" + op.token),
            on_done=lambda _record: self._idle.append(index))


def schedule_open_loop(loop, rng: random.Random, start: float,
                       steps: list[tuple[float, float]],
                       arrive: Callable[[float], None]) -> None:
    """Schedule ``rate * length`` arrivals per ``(rate, length)`` step.

    A fixed count per step with uniform times is a Poisson process
    conditioned on its count, so every seed attempts the same number of
    operations.
    """
    t0 = start
    for rate, length in steps:
        n = round(rate * length)
        for t in sorted(t0 + rng.random() * length for _ in range(n)):
            loop.call_at(t, arrive, t)
        t0 += length


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def arm(system, events: list[Event]) -> RunContext:
    """Arm a declared schedule the way scenario drives do; the returned
    context's ``fired`` list records what actually fired."""
    schedule = EventSchedule(events=tuple(events))
    ctx = RunContext(system, _ScheduleOnly(schedule))
    arm_timed_events(ctx)
    return ctx


@dataclass(frozen=True)
class _ScheduleOnly:
    schedule: EventSchedule


# ----------------------------------------------------------------------
# craft_mesh_ramp
# ----------------------------------------------------------------------
#: Offered rates (req/s) of the ladder, all below the ~20 req/s the
#: global tier applies with one batch in flight per cluster; the probe
#: offers heavy_traffic quick's 150.
LADDER = (4.0, 8.0, 12.0, 16.0)
LADDER_STEP = 12.0            # sim seconds per ladder rate
CRAFT_WARMUP = (20.0, 3.0)    # (rate, sim seconds) before the window
CRAFT_FLEET = 300
#: The measured ramp changes two knobs of heavy_traffic's adaptive
#: policy, each to keep a seed-dependent fault out of the e2e metrics:
#: an age flush, so no partial batch strands (F2), and one batch in
#: flight per cluster, so the global tier cannot apply a cluster's
#: batches out of their local order (F3). The fixed-seed probe below
#: keeps heavy_traffic's policy unchanged and counts what those faults
#: cost.
CRAFT_MAX_AGE = 0.5
CRAFT_DRAIN_CAP = 240.0


def _craft_spec(measured: bool):
    spec = heavy_traffic_spec(HeavyTrafficConfig.quick())
    batch = spec.batch
    if measured:
        batch = dataclasses.replace(batch, max_age=CRAFT_MAX_AGE,
                                    max_outstanding=1, outstanding_ceiling=1)
    return spec, batch


def _craft_system(seed: int, measured: bool, phases: Phases | None,
                  trace: bool = False):
    spec, batch = _craft_spec(measured)
    clock = Clock()
    spec = dataclasses.replace(spec, batch=batch, trace=trace,
                               state_machine=lambda: RecordingKV(clock),
                               schedule=EventSchedule())
    system = build_from_spec(spec, seed)
    clock.loop = system.loop
    if phases:
        phases.mark("build")
    system.start_all()
    system.run_until_local_leaders(timeout=spec.leader_timeout)
    system.run_until_global_ready(timeout=120.0)
    if phases:
        phases.mark("elect")
    return system


def _craft_apply_tracker(system, ops_by_token: dict[str, Op]):
    """Marks writes applied at their origin; returns a poll function
    giving how many writes are still unapplied there."""
    cursors = {name: 0 for name in system.servers}

    def poll() -> int:
        for name, server in system.servers.items():
            applied = server.global_state_machine.applied
            for t, value in applied[cursors[name]:]:
                op = ops_by_token.get(token_of(value))
                if op is not None and op.site == name \
                        and op.applied_at is None:
                    op.applied_at = t
            cursors[name] = len(applied)
        return sum(1 for op in ops_by_token.values() if op.applied_at is None)

    return poll


def craft_mesh_ramp(seed: int, trace: bool = False) -> Round:
    phases = Phases()
    rng = random.Random(seed)
    system = _craft_system(seed, True, phases, trace)
    loop = system.loop
    sites = list(system.servers)
    fleet = Fleet(system, sites, CRAFT_FLEET, "s", rng)
    ops: list[Op] = []
    keys = [f"k{i}" for i in range(64)]

    def arrive(due: float) -> None:
        fleet.write(ops, keys[rng.randrange(len(keys))], due)

    rate, length = CRAFT_WARMUP
    schedule_open_loop(loop, rng, loop.now(), [(rate, length)], arrive)
    system.run_for(length)
    phases.mark("warmup")

    start = loop.now()
    schedule_open_loop(loop, rng, start,
                       [(rate, LADDER_STEP) for rate in LADDER], arrive)
    end = start + LADDER_STEP * len(LADDER)
    ev0 = loop.events_processed
    system.run_for(end - start)
    by_token = {op.token: op for op in ops}
    poll = _craft_apply_tracker(system, by_token)
    system.run_until(lambda: poll() == 0, CRAFT_DRAIN_CAP, step=1.0)
    events = loop.events_processed - ev0
    phases.mark("run")
    poll()
    return Round(
        workload="craft_mesh_ramp", ops=ops,
        histories={n: s.global_state_machine.history()
                   for n, s in system.servers.items()},
        window=(start, end), e2e_done=lambda op: op.applied_at,
        events=events, host=phases.marks, system=system)


#: The fault probe: heavy_traffic's own seed and batch policy, with its
#: flapping uplink armed, so what it fails is the same on every run.
PROBE_SEED = HeavyTrafficConfig().seed
PROBE_LOAD = ((150.0, 2.0),)
PROBE_DRAIN = 12.0
PROBE_FLAPS = (0.5, 1.5, 3.0, 3)    # first outage, outage, stable, cycles


def craft_probe() -> Round:
    """The fixed-seed probe round. A write completes end to end when its
    origin site applies it from the global log in its session's order;
    one left unapplied after the drain (F1, F2) or applied after a later
    write of its own session (F3) fails."""
    rng = random.Random(PROBE_SEED)
    system = _craft_system(PROBE_SEED, False, None)
    loop = system.loop
    sites = list(system.servers)
    fleet = Fleet(system, sites, CRAFT_FLEET, "p", rng)
    ops: list[Op] = []
    start = loop.now()
    schedule_open_loop(
        loop, rng, start, list(PROBE_LOAD),
        lambda due: fleet.write(ops, f"k{rng.randrange(64)}", due))
    end = start + sum(length for _, length in PROBE_LOAD)
    topology = system.topology
    cut = tuple(topology.nodes_in_cluster(topology.clusters[-1]))
    first, outage, stable, cycles = PROBE_FLAPS
    flaps = EventSchedule.flapping_link(
        (tuple(n for n in sites if n not in cut), cut),
        first_outage=start + first, outage=outage, stable=stable,
        cycles=cycles)
    ctx = arm(system, list(flaps.events))
    system.run_for(end - start + PROBE_DRAIN)
    by_token = {op.token: op for op in ops}
    for name, server in system.servers.items():
        newest: dict[str, int] = {}
        for t, value in server.global_state_machine.applied:
            op = by_token[token_of(value)]
            if op.site != name:
                continue
            sequence = op.record.sequence
            if sequence > newest.get(op.session, 0):
                op.applied_at = t
                newest[op.session] = sequence
    return Round(
        workload="craft_probe", ops=ops,
        histories={n: s.global_state_machine.history()
                   for n, s in system.servers.items()},
        window=(start, end), e2e_done=lambda op: op.applied_at,
        declared=list(flaps.events), fired=list(ctx.fired), system=system)


# ----------------------------------------------------------------------
# raft_lan_rw
# ----------------------------------------------------------------------
RAFT_SITES = 5
RAFT_CLIENTS = 10             # closed-loop sessions, 2 per site
RAFT_READ_SHARE = 0.5
RAFT_KEYS = 32
RAFT_WARMUP = 0.3
RAFT_WINDOW = 0.6
RAFT_DRAIN_CAP = 30.0


def raft_lan_rw(seed: int, trace: bool = False) -> Round:
    phases = Phases()
    rng = random.Random(seed)
    clock = Clock()
    system = build_cluster(
        RaftServer, n_sites=RAFT_SITES, seed=seed,
        timing=TimingConfig(lease_duration=0.5, eager_append=True),
        trace_enabled=trace,
        state_machine_factory=lambda: RecordingKV(clock),
        compaction=CompactionPolicy(threshold=256, retain=32))
    clock.loop = system.loop
    loop = system.loop
    phases.mark("build")
    system.start_all()
    system.run_until_leader()
    phases.mark("elect")
    sites = list(system.servers)
    clients = [system.add_client(site=sites[i % len(sites)], name=f"c{i}",
                                 max_attempts=MAX_ATTEMPTS, session=True)
               for i in range(RAFT_CLIENTS)]
    ops: list[Op] = []
    state = {"open": True}

    def next_op(client) -> None:
        if not state["open"]:
            return
        key = f"k{rng.randrange(RAFT_KEYS)}"
        now = loop.now()
        if rng.random() < RAFT_READ_SHARE:
            op = Op("read", client.name, client.site, key, now)
            ops.append(op)
            op.record = client.read(key, on_done=lambda _r: next_op(client))
        else:
            op = Op("write", client.name, client.site, key, now,
                    token=f"{client.name}#{len(ops)}")
            ops.append(op)
            op.record = client.submit(KVCommand.append(key, ";" + op.token),
                                      on_done=lambda _r: next_op(client))

    for client in clients:
        next_op(client)
    system.run_for(RAFT_WARMUP)
    phases.mark("warmup")
    start = loop.now()
    end = start + RAFT_WINDOW
    ev0 = loop.events_processed
    system.run_for(end - start)
    state["open"] = False
    system.run_until(lambda: all(not c.pending_count for c in clients),
                     RAFT_DRAIN_CAP, step=0.05)
    events = loop.events_processed - ev0
    phases.mark("run")
    return Round(
        workload="raft_lan_rw", ops=ops,
        histories={n: s.state_machine.history()
                   for n, s in system.servers.items()},
        window=(start, end), e2e_done=lambda op: op.acked_at,
        events=events, host=phases.marks, system=system)


# ----------------------------------------------------------------------
# fastraft_wan_churn
# ----------------------------------------------------------------------
FAST_SITES = 5
FAST_LATENCY = (0.020, 0.045)
FAST_LOSS = 0.02
FAST_PROPOSER_RATE = 10.0     # req/s at each of three proposer sites
FAST_FLEET = 60               # sessions per proposer site
FAST_WARMUP = 2.0
FAST_WINDOW = 36.0
#: Missed heartbeat replies before the leader evicts a member: twice
#: the default, so a churn cycle's absence stays below it (an evicted
#: follower that returns does not always rejoin; see README).
FAST_MEMBER_TIMEOUT_BEATS = 10
#: Election timeout (sim seconds): ten heartbeats and more, so a
#: follower does not stand for election because 2% loss dropped three
#: heartbeats in a row. The leader is never faulted, so it keeps the
#: term of the first election (a leader change under this load can
#: leave two sites with different entries committed at one index on
#: some seeds; see README).
FAST_ELECTION_TIMEOUT = (1.0, 2.0)
#: Churn cycle of one follower: it crashes for ``away`` sim seconds and
#: recovers from stable storage, ``back`` seconds apart, and catches up
#: through AppendEntries. (A silent leave and return in its place loses
#: acknowledged writes; see README.) Compaction stays off: with it, a
#: retried write whose first copy the leader has compacted away can
#: wedge the commit index for good on some seeds (README).
FAST_CHURN = (0.6, 3.4, 6)    # (away, back, cycles)
FAST_DRAIN_CAP = 60.0


def fastraft_wan_churn(seed: int, trace: bool = False) -> Round:
    phases = Phases()
    rng = random.Random(seed)
    clock = Clock()
    system = build_cluster(
        FastRaftServer, n_sites=FAST_SITES, seed=seed,
        timing=TimingConfig(member_timeout_beats=FAST_MEMBER_TIMEOUT_BEATS,
                            election_timeout_min=FAST_ELECTION_TIMEOUT[0],
                            election_timeout_max=FAST_ELECTION_TIMEOUT[1]),
        latency=UniformLatency(*FAST_LATENCY), loss=BernoulliLoss(FAST_LOSS),
        trace_enabled=trace,
        state_machine_factory=lambda: RecordingKV(clock))
    clock.loop = system.loop
    loop = system.loop
    phases.mark("build")
    system.start_all()
    leader = system.run_until_leader(timeout=30.0)
    phases.mark("elect")
    followers = sorted(n for n in system.servers if n != leader)
    churned, proposers = followers[-1], followers[:3]
    fleets = [Fleet(system, [site], FAST_FLEET, f"{site}.s", rng)
              for site in proposers]
    ops: list[Op] = []

    def arrival(fleet):
        return lambda due: fleet.write(ops, f"k{rng.randrange(32)}", due)

    start = loop.now() + FAST_WARMUP
    end = start + FAST_WINDOW
    for fleet in fleets:
        schedule_open_loop(loop, rng, loop.now(),
                           [(FAST_PROPOSER_RATE, end - loop.now())],
                           arrival(fleet))
    away, back, cycles = FAST_CHURN
    events, t = [], start + 1.0
    for _ in range(cycles):
        events.append(Event("crash", target=churned, at=t))
        t += away
        events.append(Event("recover", target=churned, at=t))
        t += back
    ctx = arm(system, events)
    system.run_for(FAST_WARMUP)
    phases.mark("warmup")
    ev0 = loop.events_processed
    system.run_for(end - start)
    writers = [c for fleet in fleets for c in fleet.clients]

    def settled() -> bool:
        if any(c.pending_count for c in writers):
            return False
        commits = [s.engine.commit_index for s in system.servers.values()]
        return min(commits) == max(commits)

    system.run_until(settled, FAST_DRAIN_CAP, step=0.1)
    events_run = loop.events_processed - ev0
    phases.mark("run")
    commits = {n: s.engine.commit_index for n, s in system.servers.items()}
    return Round(
        workload="fastraft_wan_churn", ops=ops,
        histories={n: s.state_machine.history()
                   for n, s in system.servers.items()},
        window=(start, end), e2e_done=lambda op: op.acked_at,
        declared=events, fired=list(ctx.fired),
        caught_up={churned: commits[churned] == max(commits.values())},
        events=events_run, host=phases.marks, system=system)


WORKLOADS = {
    "craft_mesh_ramp": craft_mesh_ramp,
    "raft_lan_rw": raft_lan_rw,
    "fastraft_wan_churn": fastraft_wan_churn,
}
