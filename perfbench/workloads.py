"""The three benchmark workloads, driven through the public API only.

Each workload turns the seed into its inputs in :meth:`setup` (plan mix,
client order, preemption offsets, arrival times, base-table seeds) and
records the uninterrupted solo output of every plan it will run. A
*round* then replays the same fixed, deterministic work from fresh
state: a new database and an empty image root. Every round of a run
must produce the same outputs, virtual clock and image bytes, so a run
may repeat rounds until its time is up and still be checked exactly.

All load comes from this one process, with no extra threads; durable
commits are serial (``commit_workers=0``) and fsync stays on.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

from repro import (
    Database,
    ImageStore,
    QueryScheduler,
    QueryService,
    QuerySession,
    QueryStatus,
    SchedulerConfig,
    ServeConfig,
    SuspendSpec,
)
from repro.engine.plan import (
    FilterSpec,
    HashGroupAggSpec,
    MergeJoinSpec,
    NLJSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
)
from repro.fold import build_side_fingerprint, scan_tables
from repro.fold.fingerprint import iter_specs
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect
from repro.serve.http import ServeApp
from repro.workloads.plans import serve_catalog

from layers import Recorder, image_own_bytes
from speed import SpeedProbe


def digest(rows) -> str:
    """Order-sensitive digest of a query's output rows."""
    doc = json.dumps([list(r) for r in rows], separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def solo_digest(db: Database, plan, name: str) -> tuple[str, float]:
    """Digest and virtual runtime of an uninterrupted run of ``plan``."""
    session = QuerySession(db, plan, name=f"solo-{name}")
    start = session.query_now
    result = session.execute()
    if result.status is not QueryStatus.COMPLETED:
        raise RuntimeError(f"solo run of {name} did not complete")
    return digest(result.rows), session.query_now - start


@dataclass(frozen=True)
class Stamp:
    """Wall and process CPU seconds, read together.

    The difference of two stamps is the elapsed wall time and the CPU
    time this process used in between. CPU time leaves out the time the
    host had the process's virtual CPU descheduled (steal time).
    """

    wall: float = 0.0
    cpu: float = 0.0

    @classmethod
    def now(cls) -> "Stamp":
        return cls(time.perf_counter(), time.process_time())

    def __add__(self, other: "Stamp") -> "Stamp":
        return Stamp(self.wall + other.wall, self.cpu + other.cpu)

    def __sub__(self, other: "Stamp") -> "Stamp":
        return Stamp(self.wall - other.wall, self.cpu - other.cpu)


@dataclass
class RoundResult:
    """What one round measured and checked."""

    #: Wall and CPU seconds of the round's work, checks excluded.
    elapsed: Stamp = Stamp()
    #: Latencies (wall and CPU seconds), by operation kind.
    latencies: dict = field(default_factory=dict)
    #: Units of work completed (requests, low-priority queries, queries).
    completed: int = 0
    #: Units the per-layer figures are normalised by.
    units: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    vclock: float = 0.0
    suspends: int = 0
    image_bytes: int = 0
    #: Digest over every checked output of the round, in order.
    outputs: str = ""
    #: Deterministic counters of the round (storage, scheduler, fold).
    counters: dict = field(default_factory=dict)
    #: Environment facts only a round can observe.
    env: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.elapsed.wall

    def add_latency(self, kind: str, elapsed: Stamp) -> None:
        self.latencies.setdefault(kind, []).append(elapsed)

    @property
    def image_bytes_per_suspend(self) -> float:
        return self.image_bytes / self.suspends if self.suspends else 0.0


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _storage_counters(db: Database) -> dict:
    counters = db.disk.counters
    return {
        "storage.pages_read": counters.pages_read,
        "storage.pages_written": counters.pages_written,
    }


class Workload:
    """Common shape: seeded inputs, solo references, fixed rounds."""

    name = ""
    #: What per-layer figures are normalised by.
    unit = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.params = self.SIZES[size]
        self.probe = SpeedProbe()

    def probe_if_due(self) -> Stamp:
        """Sample the host speed probe when one is due, between two
        operations of a round; returns the time it took, which the
        round leaves out like its checks."""
        if not self.probe.due():
            return Stamp()
        start = Stamp.now()
        self.probe.sample()
        return Stamp.now() - start

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small durable suspend/load/resume cycle, untimed, so lazy
        imports (the MILP solver, the codec) are loaded before timing."""
        root = _fresh_dir(os.path.join(self.workdir, "warm-up"))
        db = _preempt_db(1, 2_000)
        plan = _preempt_plans(2_000)["hashagg"]
        _, solo_time = solo_digest(db, plan, "warm-up")
        store = ImageStore(root)
        session = QuerySession(db, plan)
        half = session.query_now + solo_time / 2
        session.execute(suspend_when=lambda rt: rt.lane.now >= half)
        session.suspend(SuspendSpec(persist_to=store, image_id="warm"))
        QuerySession.resume(db, store.load("warm")).execute()
        shutil.rmtree(root, ignore_errors=True)

    def run_round(
        self, recorder: Optional[Recorder], index: int
    ) -> RoundResult:  # pragma: no cover - abstract
        raise NotImplementedError


# ----------------------------------------------------------------------
# serve-wide: token serving with many outstanding tokens
# ----------------------------------------------------------------------
class ServeWide(Workload):
    """A closed loop of N clients, each with one session in flight.

    Every client begins a session, continues it with the returned token
    until it is done, then begins its next one. Requests go through
    ``ServeApp.handle`` with JSON bodies, so each one pays the
    transport's parse and serialise work without a socket.
    """

    name = "serve-wide"
    unit = "request"
    SIZES = {
        "full": {"clients": 200, "requests": 500, "scale": 16, "quantum": 32},
        "tiny": {"clients": 6, "requests": 24, "scale": 64, "quantum": 16},
    }
    #: One redeemed token in this many is replayed (expecting a 409).
    REPLAY_EVERY = 10

    def setup(self) -> None:
        p = self.params
        rng = random.Random(f"serve-wide/{self.seed}")
        self.factory, self.catalog = serve_catalog(scale=p["scale"], seed=1)
        names = sorted(self.catalog)
        # Equal shares of the catalog: each block of len(names) sessions
        # is a seeded permutation of it. A round begins at most one
        # session per client plus one per request.
        count = p["clients"] + p["requests"]
        self.session_plans = []
        while len(self.session_plans) < count:
            block = list(names)
            rng.shuffle(block)
            self.session_plans.extend(block)
        self.client_order = list(range(p["clients"]))
        rng.shuffle(self.client_order)
        self.replay_offset = rng.randrange(self.REPLAY_EVERY)
        db = self.factory()
        self.solo = {
            name: solo_digest(db, self.catalog[name], name)[0]
            for name in names
        }

    def run_round(self, recorder, index):
        p = self.params
        result = RoundResult()
        root = _fresh_dir(os.path.join(self.workdir, f"serve-{index}"))
        service = QueryService(
            self.factory(),
            ServeConfig(
                quantum_rows=p["quantum"],
                suspend=SuspendSpec(persist_to=root),
            ),
        )
        if service.image_store.commit_workers > 1:
            raise RuntimeError("image commits must stay serial")
        app = ServeApp(service, self.catalog)
        next_plan = iter(self.session_plans)
        sessions: dict[str, dict] = {}
        queue: deque = deque()
        session_count = 0

        def begin_body(client: int) -> tuple[str, dict]:
            nonlocal session_count
            plan = next(next_plan)
            name = f"c{client}-{session_count}"
            session_count += 1
            sessions[name] = {"plan": plan, "rows": []}
            return name, {"query": plan, "as": name}

        for client in self.client_order:
            name, body = begin_body(client)
            queue.append((client, name, "/queries", body))
        outputs = hashlib.sha256()
        outstanding: list[int] = []
        redeemed = 0
        checks = Stamp()
        start = Stamp.now()
        for i in range(p["requests"]):
            client, name, path, body = queue.popleft()
            if recorder is not None:
                recorder.op = f"req{i}"
                span = recorder.begin("serve.app")
            t0 = Stamp.now()
            raw = json.dumps(body).encode("utf-8")
            status, payload = app.handle("POST", path, json.loads(raw))
            reply = json.loads(json.dumps(payload))
            t1 = Stamp.now()
            if recorder is not None:
                recorder.end(span)
            result.add_latency("request", t1 - t0)
            result.attempted += 1
            session = sessions[name]
            if status != 200:
                result.failures.append(f"{name}: HTTP {status} {reply}")
                done = True
            else:
                session["rows"].extend(reply["rows"])
                done = reply["status"] == "done"
                if not done:
                    result.suspends += 1
                    result.image_bytes += image_own_bytes(
                        os.path.join(root, reply["image_id"])
                    )
            if path == "/continue" and status == 200:
                redeemed += 1
                if redeemed % self.REPLAY_EVERY == self.replay_offset:
                    # A replay is a check, not a timed request.
                    if recorder is not None:
                        recorder.enabled = False
                    again, _ = app.handle("POST", path, json.loads(raw))
                    if recorder is not None:
                        recorder.enabled = True
                    result.attempted += 1
                    if again != 409:
                        result.failures.append(
                            f"{name}: replayed token gave HTTP {again}"
                        )
            if done:
                if status == 200:
                    got = digest(session["rows"])
                    outputs.update(got.encode("ascii"))
                    if got != self.solo[session["plan"]]:
                        result.failures.append(
                            f"{name}: output differs from solo run"
                        )
                del sessions[name]
                new_name, new_body = begin_body(client)
                queue.append((client, new_name, "/queries", new_body))
            else:
                queue.append(
                    (client, name, "/continue", {"token": reply["token"]})
                )
            if i >= p["clients"]:
                outstanding.append(
                    sum(1 for _, _, path_, _ in queue if path_ == "/continue")
                )
            checks += Stamp.now() - t1
            checks += self.probe_if_due()
        result.elapsed = Stamp.now() - start - checks
        result.completed = result.units = p["requests"]
        result.vclock = service.db.now
        result.counters = _storage_counters(service.db)
        outputs.update(repr(result.vclock).encode("ascii"))
        result.outputs = outputs.hexdigest()
        result.env = {
            "pinned_chains_steady": (
                median(outstanding) if outstanding else 0
            ),
            "commit_workers": service.image_store.commit_workers,
        }
        shutil.rmtree(root, ignore_errors=True)
        return result


# ----------------------------------------------------------------------
# preempt-deep: the paper's preemption of large-state queries
# ----------------------------------------------------------------------
def _preempt_db(seed: int, rows: int) -> Database:
    db = Database()
    db.create_table(
        "facts", BASE_SCHEMA, generate_uniform_table(rows, seed=seed)
    )
    db.create_table(
        "dims", BASE_SCHEMA, generate_uniform_table(rows // 200, seed=seed + 1)
    )
    db.create_table(
        "hot", BASE_SCHEMA, generate_uniform_table(rows // 20, seed=seed + 2)
    )
    groups = rows // 8
    db.create_table(
        "grp",
        BASE_SCHEMA,
        [
            (i % groups, u, payload)
            for i, (_, u, payload) in enumerate(
                generate_uniform_table(rows, seed=seed + 3)
            )
        ],
    )
    return db


def _preempt_plans(rows: int) -> dict:
    """The durable-image recipe families, at a large size."""
    buffer = max(8, rows // 10)
    return {
        "sorted-join": NLJSpec(
            outer=SortSpec(
                FilterSpec(ScanSpec("facts"), UniformSelect(1, 0.8)),
                key_columns=(0,),
                buffer_tuples=buffer,
                label="sort",
            ),
            inner=ScanSpec("dims"),
            condition=EquiJoinCondition(0, 0, modulus=500),
            buffer_tuples=buffer,
            label="nlj",
        ),
        "hashjoin": SimpleHashJoinSpec(
            build=FilterSpec(ScanSpec("facts"), UniformSelect(1, 0.6)),
            probe=ScanSpec("dims"),
            condition=EquiJoinCondition(0, 0, modulus=500),
            num_partitions=4,
            label="hj",
        ),
        "hashagg": HashGroupAggSpec(
            ScanSpec("grp"),
            group_columns=(0,),
            agg_func="sum",
            agg_column=2,
            num_partitions=4,
            label="hagg",
        ),
        "smj": MergeJoinSpec(
            left=SortSpec(
                FilterSpec(ScanSpec("facts"), UniformSelect(1, 0.7)),
                key_columns=(0,),
                buffer_tuples=buffer,
                label="sort_l",
            ),
            right=SortSpec(
                ScanSpec("dims"), key_columns=(0,), buffer_tuples=buffer,
                label="sort_r",
            ),
            condition=EquiJoinCondition(0, 0),
            label="mj",
        ),
    }


def _hp_plan(selectivity: float):
    return SortSpec(
        FilterSpec(ScanSpec("hot"), UniformSelect(1, selectivity)),
        key_columns=(0,),
        buffer_tuples=100_000,
        label="hp_sort",
    )


class PreemptDeep(Workload):
    """Long low-priority queries, each preempted several times.

    A preemption is a durable LP suspend under a finite budget (a delta
    image from the second suspend on), a short high-priority query, and
    ``ImageStore.load`` + ``QuerySession.resume`` in the same process.
    Preemption points are seeded fractions of each query's solo virtual
    runtime: blocking operators (hash aggregation, the sorts) emit no
    rows while their state builds up, so row offsets could not reach
    them.
    """

    name = "preempt-deep"
    unit = "suspend"
    SIZES = {
        "full": {"rows": 12_000, "preemptions": 8},
        "tiny": {"rows": 800, "preemptions": 2},
    }
    #: Suspend budget as a share of the query's solo virtual runtime.
    BUDGET_SHARE = 0.25
    HP_SELECTIVITIES = (0.3, 0.4, 0.5, 0.6)
    #: Base tables are the same for every seed; only the schedule varies.
    DATA_SEED = 1

    def setup(self) -> None:
        p = self.params
        rng = random.Random(f"preempt-deep/{self.seed}")
        self.plans = _preempt_plans(p["rows"])
        self.order = sorted(self.plans)
        rng.shuffle(self.order)
        # One preemption in each of P equal slices of the solo runtime,
        # at a seeded point inside the slice: every seed samples the
        # whole run, so its state sizes average out alike.
        slices = p["preemptions"]
        self.fractions = {
            name: [(k + rng.uniform(0.1, 0.9)) / slices for k in range(slices)]
            for name in self.order
        }
        self.hp_selectivity = {}
        for name in self.order:
            picks = []
            while len(picks) < slices:
                block = list(self.HP_SELECTIVITIES)
                rng.shuffle(block)
                picks.extend(block)
            self.hp_selectivity[name] = picks[:slices]
        db = _preempt_db(self.DATA_SEED, p["rows"])
        self.solo = {}
        self.solo_time = {}
        for name in self.order:
            self.solo[name], self.solo_time[name] = solo_digest(
                db, self.plans[name], name
            )
        for s in self.HP_SELECTIVITIES:
            self.solo[("hp", s)] = solo_digest(db, _hp_plan(s), f"hp{s}")[0]

    def run_round(self, recorder, index):
        result = RoundResult()
        root = _fresh_dir(os.path.join(self.workdir, f"preempt-{index}"))
        db = _preempt_db(self.DATA_SEED, self.params["rows"])
        store = ImageStore(root)
        outputs = hashlib.sha256()
        checks = Stamp()
        start = Stamp.now()
        for name in self.order:
            checks += self._run_query(
                name, db, store, result, recorder, outputs
            )
        result.elapsed = Stamp.now() - start - checks
        result.units = result.suspends
        result.vclock = db.now
        result.counters = _storage_counters(db)
        outputs.update(repr(result.vclock).encode("ascii"))
        result.outputs = outputs.hexdigest()
        result.env = {"commit_workers": store.commit_workers}
        shutil.rmtree(root, ignore_errors=True)
        return result

    def _run_query(self, name, db, store, result, recorder, outputs):
        """Run one low-priority query with its preemptions; returns the
        time spent on checks."""
        checks = Stamp()
        plan = self.plans[name]
        budget = self.BUDGET_SHARE * self.solo_time[name]
        session = QuerySession(db, plan, name=name)
        begin_lane = session.query_now
        rows: list = []
        tip = None
        result.attempted += 1
        for k, fraction in enumerate(self.fractions[name]):
            target = begin_lane + fraction * self.solo_time[name]
            step = session.execute(
                suspend_when=lambda rt, t=target: rt.lane.now >= t
            )
            rows.extend(step.rows)
            if step.status is QueryStatus.COMPLETED:
                break
            op = f"{name}-s{k}"
            if recorder is not None:
                recorder.op = op
            result.attempted += 2
            spec = SuspendSpec(
                budget=budget,
                persist_to=store,
                image_id=op,
                base_image_id=tip,
            )
            t0 = Stamp.now()
            try:
                session.suspend(spec)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                result.failures.append(f"{op}: suspend raised {exc!r}")
                return checks
            t1 = Stamp.now()
            result.add_latency("suspend", t1 - t0)
            tip = session.last_image.image_id
            result.suspends += 1
            result.image_bytes += image_own_bytes(session.last_image.path)
            checks += Stamp.now() - t1

            selectivity = self.hp_selectivity[name][k]
            hp = QuerySession(
                db, _hp_plan(selectivity), priority=10, name=f"hp-{op}"
            )
            hp_rows = hp.execute().rows
            t1 = Stamp.now()
            result.attempted += 1
            if digest(hp_rows) != self.solo[("hp", selectivity)]:
                result.failures.append(f"hp-{op}: output differs from solo")
            checks += Stamp.now() - t1
            checks += self.probe_if_due()

            t0 = Stamp.now()
            try:
                sq = store.load(tip)
                session = QuerySession.resume(db, sq, name=name)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                result.failures.append(f"{op}: resume raised {exc!r}")
                return checks
            result.add_latency("resume", Stamp.now() - t0)
        if recorder is not None:
            recorder.op = f"{name}-end"
        rows.extend(session.execute().rows)
        if tip is not None:
            store.delete_chain(tip)
        t1 = Stamp.now()
        got = digest(rows)
        outputs.update(got.encode("ascii"))
        if got != self.solo[name]:
            result.failures.append(f"{name}: output differs from solo run")
        else:
            result.completed += 1
        return checks + (Stamp.now() - t1)


# ----------------------------------------------------------------------
# sched-fold: folded scheduling under memory pressure
# ----------------------------------------------------------------------
class _MeasuredStore(ImageStore):
    """Image store that adds up the bytes of every committed image."""

    committed_bytes = 0
    commits = 0

    def save_many(self, requests, tracer=None):
        infos = super().save_many(requests, tracer=tracer)
        for info in infos:
            self.committed_bytes += image_own_bytes(info.path)
        self.commits += len(infos)
        return infos


def _shareable(plan) -> set:
    """The tables a plan scans and the hash-join build sides it builds:
    what folding can share with another live query."""
    keys = {("scan", table) for table in scan_tables(plan)}
    for node in iter_specs(plan):
        build = build_side_fingerprint(node)
        if build is not None:
            keys.add(("build", build))
    return keys


def _shared_share(records, now: float) -> float:
    """Share of queries that, while live (arrival to completion on the
    virtual clock), shared a scan or a build side with another."""
    live = [
        (
            r.stats.arrival_time,
            r.stats.completed_at if r.stats.completed_at is not None else now,
            _shareable(r.arrival.plan),
        )
        for r in records
    ]
    shared = sum(
        1
        for i, (start, end, keys) in enumerate(live)
        if any(
            j != i and start < end2 and start2 < end and keys & keys2
            for j, (start2, end2, keys2) in enumerate(live)
        )
    )
    return shared / len(live)


#: Query kinds of the arrival trace: (kind, priority, shares work).
#: Six of every eight queries read a table, or build a hash table, that
#: other queries of the trace also use; the other two each read a
#: private table no other query touches.
SCHED_MIX = (
    ("nlj", 0),
    ("nlj", 0),
    ("hashjoin", 0),
    ("hashjoin", 0),
    ("hot-sort", 10),
    ("hashagg", 5),
    ("private", 5),
    ("private", 5),
)


class SchedFold(Workload):
    """One ``QueryScheduler.run`` over a seeded mixed-priority trace."""

    name = "sched-fold"
    unit = "query"
    SIZES = {
        "full": {"queries": 32, "scale": 4, "budget": 3000, "span": 1500.0},
        "tiny": {"queries": 16, "scale": 32, "budget": 100, "span": 20.0},
    }
    #: Filter selectivities, assigned by a query's position in the mix.
    VARIANTS = (0.2, 0.3, 0.4)
    DATA_SEED = 1

    def _db(self) -> Database:
        scale = self.params["scale"]
        db = Database()
        db.create_table(
            "facts",
            BASE_SCHEMA,
            generate_uniform_table(20_000 // scale, seed=self.DATA_SEED),
        )
        db.create_table(
            "dims",
            BASE_SCHEMA,
            generate_uniform_table(2_000 // scale, seed=self.DATA_SEED + 1),
        )
        db.create_table(
            "hot",
            BASE_SCHEMA,
            generate_uniform_table(800 // scale, seed=self.DATA_SEED + 2),
        )
        for table in self.private_tables:
            db.create_table(
                table,
                BASE_SCHEMA,
                generate_uniform_table(
                    2_000 // scale, seed=self.DATA_SEED + 10 + int(table[1:])
                ),
            )
        return db

    def _plan(self, kind: str, variant: float, table: Optional[str]):
        buffer = max(8, 1_000 // self.params["scale"])
        if kind == "nlj":
            return NLJSpec(
                outer=FilterSpec(ScanSpec("facts"), UniformSelect(1, variant)),
                inner=ScanSpec("dims"),
                condition=EquiJoinCondition(0, 0, modulus=500),
                buffer_tuples=buffer,
            )
        if kind == "hashjoin":
            return SimpleHashJoinSpec(
                build=ScanSpec("dims"),
                probe=FilterSpec(ScanSpec("facts"), UniformSelect(1, variant)),
                condition=EquiJoinCondition(0, 0, modulus=500),
                num_partitions=4,
            )
        if kind == "hot-sort":
            return SortSpec(
                FilterSpec(ScanSpec("hot"), UniformSelect(1, variant)),
                key_columns=(0,),
                buffer_tuples=buffer,
            )
        if kind == "hashagg":
            return HashGroupAggSpec(
                FilterSpec(ScanSpec("facts"), UniformSelect(1, variant)),
                group_columns=(1,),
                agg_func="sum",
                agg_column=2,
                num_partitions=4,
            )
        return SortSpec(
            FilterSpec(ScanSpec(table), UniformSelect(1, variant)),
            key_columns=(0,),
            buffer_tuples=buffer,
        )

    def setup(self) -> None:
        p = self.params
        rng = random.Random(f"sched-fold/{self.seed}")
        # The mix repeated in a fixed interleaving, rotated by a seeded
        # offset; arrival i falls at a seeded point of the i-th of n
        # equal slices of the arrival span. Every seed thus sees the
        # same kinds of overlap, so its totals stay comparable.
        offset = rng.randrange(len(SCHED_MIX))
        kinds = [
            ((offset + i) % len(SCHED_MIX),
             SCHED_MIX[(offset + i) % len(SCHED_MIX)])
            for i in range(p["queries"])
        ]
        self.private_tables = [
            f"p{i}" for i, (_, (kind, _)) in enumerate(kinds)
            if kind == "private"
        ]
        slot = p["span"] / len(kinds)
        self.arrivals = []
        for i, (position, (kind, priority)) in enumerate(kinds):
            variant = self.VARIANTS[position % len(self.VARIANTS)]
            table = f"p{i}" if kind == "private" else None
            self.arrivals.append(
                (
                    f"q{i}-{kind}",
                    (kind, variant, table),
                    (i + rng.random()) * slot,
                    priority,
                )
            )
        db = self._db()
        self.solo = {}
        for _, key, _, _ in self.arrivals:
            if key not in self.solo:
                self.solo[key] = solo_digest(db, self._plan(*key), str(key))[0]

    def run_round(self, recorder, index):
        p = self.params
        result = RoundResult()
        root = _fresh_dir(os.path.join(self.workdir, f"sched-{index}"))
        store = _MeasuredStore(root)
        db = self._db()
        scheduler = QueryScheduler(
            db,
            SchedulerConfig(
                memory_budget=p["budget"],
                quantum_rows=64,
                fold=True,
                suspend=SuspendSpec(persist_to=store, delta=True),
            ),
        )
        for name, key, arrival, priority in self.arrivals:
            scheduler.submit(name, self._plan(*key), arrival, priority)
        if recorder is not None:
            recorder.op = "trace"
        start = Stamp.now()
        stats = scheduler.run()
        result.elapsed = Stamp.now() - start
        result.add_latency("trace", result.elapsed)
        outputs = hashlib.sha256()
        for record, (name, key, _, _) in zip(
            scheduler.records, self.arrivals
        ):
            result.attempted += 1
            got = digest(record.rows)
            outputs.update(got.encode("ascii"))
            if record.stats.completed_at is None:
                result.failures.append(f"{name}: never completed")
            elif got != self.solo[key]:
                result.failures.append(f"{name}: output differs from solo")
            else:
                result.completed += 1
        result.units = len(self.arrivals)
        result.vclock = db.now
        if not store.commits:
            result.failures.append("the memory budget forced no suspend")
        result.suspends = store.commits
        result.image_bytes = store.committed_bytes
        if stats.durable_spills != store.commits:
            result.failures.append(
                f"{stats.durable_spills} durable spills but "
                f"{store.commits} commits were counted"
            )
        fold = scheduler.fold_manager.stats
        result.counters = {
            **_storage_counters(db),
            "service.suspends": stats.suspends,
            "service.resumes": stats.resumes,
            "service.discarded_resumes": stats.discarded_resumes,
            "fold.pages_absorbed": fold.pages_absorbed,
            "fold.pages_shared": fold.pages_shared,
            "fold.refetches": fold.refetches,
            "fold.build_hits": fold.build_hits,
        }
        outputs.update(repr(result.vclock).encode("ascii"))
        result.outputs = outputs.hexdigest()
        result.env = {
            "shared_query_share": _shared_share(scheduler.records, db.now),
            "commit_workers": store.commit_workers,
        }
        shutil.rmtree(root, ignore_errors=True)
        return result


WORKLOADS = {w.name: w for w in (ServeWide, PreemptDeep, SchedFold)}
