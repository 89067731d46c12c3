"""Golden equivalence for the block NLJ's join probe.

The fixture ``fixtures/nlj_probe_golden.json`` was recorded from the
pairwise-scan NLJ (every inner row compared against every buffered outer
row). Each case runs a hand-built join through execute/suspend/resume and
records what the paper's cost model and the image format can observe:

- an outputs digest (row values *and* Python types, so ``1`` vs ``1.0``
  and ``0.0`` vs ``-0.0`` are told apart);
- ``repr`` of the global and lane virtual clocks;
- per-operator ``work`` and ``tuples_emitted``;
- the live checkpoint list (``op_id``, ``seq``, ``work_at``,
  ``emitted_at``, ``created_at``);
- a digest over every stop point (after each ``execute`` call): the NLJ
  control state, ``memory_in_use()``, clocks and per-operator counters;
- for suspend cases, the length and SHA-256 of the codec-v2 bytes of the
  ``SuspendedQuery`` record (never the image manifest, whose
  ``created_at`` varies between runs), a digest of each dumped payload, and the same records for the resumed
  run.

Any change to the NLJ's join loop must leave every case identical. To
re-record (only from a build whose NLJ behaviour is known good)::

    PYTHONPATH=src python tests/engine/test_nlj_probe_golden.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys

import pytest

import repro.core.checkpoint as checkpoint_module
from repro import Database, QuerySession, SuspendSpec
from repro.core.lifecycle import QueryStatus
from repro.durability.codec2 import (
    decode_suspended_query,
    encode_suspended_query,
)
from repro.engine.config import EngineConfig
from repro.engine.plan import FilterSpec, NLJSpec, ScanSpec, SortSpec
from repro.relational.expressions import ColumnCompare, EquiJoinCondition
from repro.relational.schema import Schema

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "fixtures",
    "nlj_probe_golden.json",
)

SCHEMA = Schema.of(["k", "v"], bytes_per_tuple=200)
#: Small pages so scans interleave page reads with join output.
TUPLES_PER_PAGE = 4

NAN = float("nan")


def _rows(keys) -> list[tuple]:
    return [(k, i) for i, k in enumerate(keys)]


#: name -> (outer keys, inner keys, modulus, sortable)
DATASETS = {
    "dups": (
        [1, 2, 2, 3, 1, 1, 5, 2, 7, 3, 2, 9],
        [2, 1, 2, 4, 3, 2, 1, 8, 2, 3],
        0,
        True,
    ),
    "negmod": (
        [-7, -3, 0, 2, 5, -12, 8, -1, 4, 13, -5, 6],
        [3, -2, 0, -10, 7, 1, -4, 12, -6, 5],
        5,
        True,
    ),
    "negmodulus": (
        [-7, -3, 0, 2, 5, -12, 8, -1, 4, 13, -5, 6],
        [3, -2, 0, -10, 7, 1, -4, 12, -6, 5],
        -4,
        True,
    ),
    "numeq": (
        [1, 1.0, 0, 0.0, -0.0, 2, 2.5, 3.0, 1, -0.0],
        [1.0, -0.0, 1, 0, 2.0, 2.5, 4, 0.0, 3],
        0,
        True,
    ),
    "floatmod": (
        [-0.0, 0.0, 2.5, -2.5, 3, 6.0, 1.5, -1.5, 4.5],
        [0.0, 1.5, -0.0, 3.0, 0.5, 6, -3],
        3,
        True,
    ),
    "nan": (
        [NAN, 1.0, float("nan"), 2.0, NAN, 1.0, 3.0],
        [NAN, 1.0, float("nan"), 2.0, 3.0, NAN],
        0,
        False,
    ),
    "nanmod": (
        [NAN, 1.0, 4.0, float("nan"), 7.0],
        [NAN, 1.0, float("nan"), 4.0, 2.0],
        3,
        False,
    ),
    "str": (
        ["a", "b", "a", "", "c", "ab", "b", "a"],
        ["b", "a", "", "d", "a", "ab", "c"],
        0,
        True,
    ),
    "mixed": (
        [1, "1", 1.0, "a", 2, "2", 2.0],
        ["1", 1, "a", 2.0, "2", 3],
        0,
        False,
    ),
    "empty_inner": ([1, 2, 3, 4, 5, 6, 7], [], 0, True),
    "empty_outer": ([], [1, 2, 3], 0, True),
}


def make_db(dataset: str) -> Database:
    outer, inner, _, _ = DATASETS[dataset]
    db = Database()
    db.create_table("L", SCHEMA, _rows(outer), tuples_per_page=TUPLES_PER_PAGE)
    db.create_table("R", SCHEMA, _rows(inner), tuples_per_page=TUPLES_PER_PAGE)
    return db


def make_plan(dataset: str, buffer_tuples: int, shape: str) -> NLJSpec:
    _, _, modulus, _ = DATASETS[dataset]
    outer = ScanSpec("L", label="scan_L")
    inner = ScanSpec("R", label="scan_R")
    if shape == "filter":
        # A filter between the buffer and its scan (v >= 1 drops one row).
        outer = FilterSpec(outer, ColumnCompare(1, ">=", 1), label="filter")
    elif shape == "sort":
        inner = SortSpec(inner, key_columns=(0,), buffer_tuples=3, label="sort_R")
    return NLJSpec(
        outer=outer,
        inner=inner,
        condition=EquiJoinCondition(0, 0, modulus=modulus),
        buffer_tuples=buffer_tuples,
        label="nlj",
    )


# ----------------------------------------------------------------------
# Observation
# ----------------------------------------------------------------------
def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _typed(value):
    """Value plus its type name, so equal-comparing keys stay distinct."""
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return (type(value).__name__, repr(value))


def _outputs(rows: list) -> dict:
    return {"count": len(rows), "sha": _sha(repr([_typed(r) for r in rows]))}


def _ops(session: QuerySession) -> dict:
    return {
        f"{op_id}:{op.name}": [repr(op.work), op.tuples_emitted]
        for op_id, op in sorted(session.runtime.ops.items())
    }


def _checkpoints(session: QuerySession) -> list:
    graph = session.runtime.graph
    out = []
    for op_id in sorted(session.runtime.ops):
        for c in sorted(graph.checkpoints_of(op_id), key=lambda c: c.seq):
            out.append(
                [c.op_id, c.seq, repr(c.work_at), c.emitted_at, repr(c.created_at)]
            )
    return out


def _stop_snapshot(session: QuerySession) -> str:
    nlj = session.op_named("nlj")
    return repr(
        (
            _typed(tuple(sorted(nlj.control_state().items()))),
            session.memory_in_use(),
            repr(session.db.now),
            repr(session.query_now),
            _ops(session),
        )
    )


class _Recorder:
    def __init__(self, session: QuerySession):
        self.session = session
        self.rows: list = []
        self.stops = hashlib.sha256()

    def execute(self, **kwargs):
        result = self.session.execute(**kwargs)
        self.rows.extend(result.rows)
        if self.session.status is not QueryStatus.SUSPEND_PENDING:
            # A fired suspend leaves the NLJ mid-step; its state is
            # observed through the image instead.
            self.stops.update(_stop_snapshot(self.session).encode())
        return result

    def drain(self, quantum: int, row_path: bool) -> None:
        kwargs = {"max_rows": quantum}
        while self.session.status is QueryStatus.RUNNING:
            if row_path:
                # An armed (never-firing) trigger routes every batch
                # through the per-row path.
                kwargs["suspend_when"] = lambda rt: False
            self.execute(**kwargs)

    def record(self) -> dict:
        s = self.session
        return {
            "outputs": _outputs(self.rows),
            "clock": repr(s.db.now),
            "lane": repr(s.query_now),
            "ops": _ops(s),
            "checkpoints": _checkpoints(s),
            "stops": self.stops.hexdigest(),
        }


def _dumps(db: Database, sq) -> dict:
    out = {}
    for op_id in sorted(sq.entries):
        handle = sq.entries[op_id].dump_handle
        if handle is not None:
            payload = db.state_store.peek(handle)
            out[handle.key] = [handle.pages, _sha(repr(_typed_rows(payload)))]
    return out


def _typed_rows(payload):
    if isinstance(payload, list):
        return [_typed(r) if isinstance(r, tuple) else repr(r) for r in payload]
    return repr(payload)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _trigger(kind: str):
    if kind == "emit3":
        # Mid-pass, right after the NLJ's third output.
        return lambda rt: rt.op_named("nlj").tuples_emitted >= 3
    if kind == "inner5":
        # Mid-pass, inside the NLJ's pull of an inner row.
        return lambda rt: rt.op_named("scan_R").tuples_emitted >= 5
    if kind == "boundary":
        # At a pass boundary: the first outer pull of the second pass.
        def at_boundary(rt):
            nlj = rt.op_named("nlj")
            return nlj.passes >= 1 and nlj.phase == "fill"

        return at_boundary
    raise ValueError(kind)


def _case_ids() -> list[str]:
    ids = []
    for dataset in DATASETS:
        for buf in (1, 3, 1000):
            for quantum in (1, 2, 5, 64):
                ids.append(f"run/{dataset}/b{buf}/batch/q{quantum}")
            for quantum in (1, 64):
                ids.append(f"run/{dataset}/b{buf}/row/q{quantum}")
            for stop in ("batch7", "emit3", "inner5", "boundary"):
                for strategy in ("all_dump", "all_goback", "lp"):
                    ids.append(f"suspend/{dataset}/b{buf}/{stop}/{strategy}")
    for dataset in ("dups", "numeq", "str"):
        for shape in ("filter", "sort"):
            if shape == "sort" and not DATASETS[dataset][3]:
                continue
            ids.append(f"run/{dataset}/b3/batch/q5/{shape}")
            for strategy in ("all_dump", "all_goback", "lp"):
                ids.append(f"suspend/{dataset}/b3/emit3/{strategy}/{shape}")
                ids.append(f"suspend/{dataset}/b3/boundary/{strategy}/{shape}")
    for strategy in ("all_goback", "lp"):
        # Without proactive checkpoints a GoBack rolls forward over
        # whole skipped passes.
        ids.append(f"suspend/dups/b3/boundary/{strategy}/plain/noproactive")
        ids.append(f"suspend/dups/b3/batch7/{strategy}/plain/noproactive")
    return ids


def run_case(case_id: str) -> dict:
    checkpoint_module._ckpt_ids = itertools.count(1)
    checkpoint_module._contract_ids = itertools.count(1)
    parts = case_id.split("/")
    kind, dataset, buf = parts[0], parts[1], int(parts[2][1:])
    shape = "plain"
    config = EngineConfig()
    db = make_db(dataset)
    if kind == "run":
        path, quantum = parts[3], int(parts[4][1:])
        if len(parts) > 5:
            shape = parts[5]
        session = QuerySession(db, make_plan(dataset, buf, shape), config=config)
        rec = _Recorder(session)
        rec.drain(quantum, row_path=path == "row")
        return rec.record()

    stop, strategy = parts[3], parts[4]
    if len(parts) > 5:
        shape = parts[5]
    if len(parts) > 6 and parts[6] == "noproactive":
        config = EngineConfig(proactive_checkpointing=False)
    plan = make_plan(dataset, buf, shape)
    session = QuerySession(db, plan, config=config)
    rec = _Recorder(session)
    if stop.startswith("batch"):
        rec.execute(max_rows=int(stop[5:]))
    else:
        rec.execute(suspend_when=_trigger(stop))
    out = {"before": rec.record()}
    if session.status is QueryStatus.COMPLETED:
        out["completed"] = True
        return out
    sq = session.suspend(SuspendSpec(strategy=strategy))
    data = encode_suspended_query(sq)
    out["image"] = {"len": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    out["dumps"] = _dumps(db, sq)
    out["after_suspend"] = {
        "clock": repr(db.now),
        "memory": session.memory_in_use(),
    }
    # The bytes must round-trip; dump handles in a decoded record name
    # another store, so the resume itself starts from the live record.
    assert encode_suspended_query(decode_suspended_query(data)) == data
    resumed = QuerySession.resume(db, sq, config=config)
    rest = _Recorder(resumed)
    rest.drain(4, row_path=False)
    out["resumed"] = rest.record()
    return out


CASE_IDS = _case_ids()


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASE_IDS)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_matches_golden(golden, case_id):
    assert run_case(case_id) == golden[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        # One case per line keeps fixture diffs reviewable.
        compact = {"sort_keys": True, "separators": (",", ":")}
        lines = [
            f"{json.dumps(c)}:{json.dumps(run_case(c), **compact)}"
            for c in CASE_IDS
        ]
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(CASE_IDS)} cases to {FIXTURE}")
