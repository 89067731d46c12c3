"""Block-based nested loop join (the paper's running example).

Each outer-loop iteration fills a large in-memory *outer buffer* from the
outer (left) child, then rewinds the inner (right) child and joins every
inner tuple against the buffer. The buffer is the heap state; the control
state is the fill count, the buffer cursor, and the current inner tuple
(Section 2).

Checkpoint/contract behaviour (Sections 3 and 4):

- minimal-heap-state points occur each time the buffer is discarded at the
  end of a pass; the operator checkpoints proactively there (payload is
  empty — an NLJ checkpoint "happens to contain no information",
  Example 5);
- the outer child is a *heap child*: a GoBack regenerates the buffer by
  re-pulling from the checkpoint's outer contract;
- the inner child is a *stream child*: its position at a contract point is
  captured by a nested contract, and restored directly on resume so the
  joins already performed before the target cursor are *skipped*
  (Section 3.3's skipping discussion uses exactly this operator).

Join probe. At a pass's first inner probe the operator builds a hash
index from each buffered row's left key to the ascending buffer positions
holding it. The row and batch paths share one probe: look up the inner
row's right key, then bisect for the first position at or after the
cursor.

- Comparisons are off the virtual clock: a pass costs the inner tuples
  consumed plus the rows output. The probe is a wall-clock-only change —
  rows, their order, the cursor and inner tuple at every stop point, and
  every charge are those of a scan of the whole buffer.
- Keys join when they are ``==``. For the engine's int, float and str
  keys, ``==`` keys hash equally and a dict hit also requires ``==``,
  so a lookup finds exactly the ``==`` matches (``1`` joins ``1.0``).
  NaN is ``==`` to nothing, itself included, but a dict would match a
  NaN object to itself by identity: NaN keys are never indexed, so a NaN
  probe finds nothing.
- The index is derived state, never heap state. It is absent from
  ``heap_pages()``, checkpoints, dumps and images, and is dropped
  whenever the buffer is discarded or replaced.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Optional, Sequence

from repro.common.errors import ContractError
from repro.core.suspended_query import OpSuspendEntry
from repro.engine.base import Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import (
    EquiJoinCondition,
    compile_left_key,
    compile_right_key,
)
from repro.storage.disk import add_each

PHASE_FILL = "fill"
PHASE_JOIN = "join"
PHASE_DONE = "done"

_NO_POSITIONS: tuple[int, ...] = ()


class BlockNLJ(Operator):
    """Block nested-loop join with a tuple-count-bounded outer buffer."""

    STATEFUL = True

    def __init__(
        self,
        op_id: int,
        name: str,
        outer: Operator,
        inner: Operator,
        runtime: Runtime,
        condition: EquiJoinCondition,
        buffer_tuples: int,
    ):
        if buffer_tuples <= 0:
            raise ValueError("buffer_tuples must be positive")
        if not inner.REWINDABLE:
            raise ContractError(
                f"block NLJ inner child {inner.name} must be rewindable"
            )
        super().__init__(
            op_id, name, [outer, inner], runtime, outer.schema.concat(inner.schema)
        )
        self.condition = condition
        self.buffer_tuples = buffer_tuples
        self.buffer: list[Row] = []
        self.phase = PHASE_FILL
        self.cursor = 0
        self.inner_row: Optional[Row] = None
        self.outer_exhausted = False
        #: Completed join passes; lets a GoBack that restores an older
        #: checkpoint skip whole intervening passes during roll-forward.
        self.passes = 0
        #: Per-pass join index: left key -> ascending buffer positions.
        #: Built at the pass's first probe; None until then.
        self._index: Optional[dict] = None
        self._right_key = compile_right_key(condition)

    @property
    def outer(self) -> Operator:
        return self.children[0]

    @property
    def inner(self) -> Operator:
        return self.children[1]

    def stream_children(self) -> list[Operator]:
        return [self.inner]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def buffer_fill(self) -> int:
        """Tuples currently in the outer buffer (suspend-trigger hook)."""
        return len(self.buffer)

    def _next(self) -> Optional[Row]:
        while True:
            if self.phase == PHASE_DONE:
                return None
            if self.phase == PHASE_FILL:
                self._start_pass()
                if self.phase == PHASE_DONE:
                    return None
            row = self._join_step()
            if row is not None:
                return row
            self._end_pass()

    def _start_pass(self) -> None:
        """Fill the buffer (row-exact outer pulls) and rewind the inner
        child; with nothing left to buffer the join is done."""
        self._fill_buffer()
        if not self.buffer:
            self.phase = PHASE_DONE
            return
        self.inner.rewind()
        self.inner_row = None
        self.cursor = 0
        self.phase = PHASE_JOIN

    def _end_pass(self) -> None:
        """Pass complete: discard the buffer. This is the minimal-heap-state
        point, checkpointed unless the outer child is exhausted."""
        self._set_buffer([])
        self.cursor = 0
        self.inner_row = None
        self.passes += 1
        if self.outer_exhausted:
            self.phase = PHASE_DONE
            return
        self.make_checkpoint()
        self.phase = PHASE_FILL

    def _set_buffer(self, rows: list) -> None:
        """Replace the outer buffer, dropping the index derived from it."""
        self.buffer = rows
        self._index = None

    def _next_batch_fast(self, max_rows: int) -> list:
        """Vectorized inner loop: one index probe per inner row, its matches
        emitted as a slice, and same-constant CPU charges folded between
        inner pulls.

        Inner pulls (which may read pages) flush the pending CPU run
        first, keeping the charge order across I/O events identical to
        the row path. A pass boundary ends a non-empty batch with the
        state of the last emitted row persisted — the remaining probe and
        the exhausted inner pull are chargeless and side-effect-free, so
        the next call replays them and fires the end-of-pass checkpoint at
        the row path's exact instant.
        """
        if self._pending_rows:
            return super()._next_batch_fast(max_rows)
        disk = self.rt.disk
        c = disk.cost_model.cpu_tuple_cost
        charge_each = disk.charge_cpu_tuples_each
        probe = self._probe
        out: list = []
        extend = out.extend
        need = max_rows
        crun = 0
        while need > 0:
            if self.phase == PHASE_DONE:
                break
            if self.phase == PHASE_FILL:
                if crun:
                    charge_each(crun)
                    self.work = add_each(self.work, c, crun)
                    crun = 0
                self._start_pass()
                if self.phase == PHASE_DONE:
                    break
            buffer = self.buffer
            nbuf = len(buffer)
            inner_next = self.inner.next
            inner_row = self.inner_row
            cursor = self.cursor
            last_cursor = cursor
            last_inner = inner_row
            pass_done = False
            while True:
                if inner_row is None:
                    if crun:
                        charge_each(crun)
                        self.work = add_each(self.work, c, crun)
                        crun = 0
                    nxt = inner_next()
                    if nxt is None:
                        pass_done = True
                        break
                    crun += 1  # the row path's inner-consume charge
                    inner_row = nxt
                    cursor = 0
                positions, i = probe(inner_row, cursor)
                end = min(len(positions), i + need)
                if i < end:
                    extend([buffer[p] + inner_row for p in positions[i:end]])
                    emitted = end - i
                    self.tuples_emitted += emitted
                    crun += emitted  # the wrapper charges
                    need -= emitted
                    cursor = positions[end - 1] + 1
                    last_cursor = cursor
                    last_inner = inner_row
                    if need == 0:
                        break
                cursor = nbuf
                inner_row = None
            if pass_done and out:
                # Rows were produced this batch (necessarily from this
                # pass: any earlier boundary ended the batch); persist the
                # post-last-emit state and let the next call replay the
                # chargeless tail and run the boundary transition.
                self.inner_row = last_inner
                self.cursor = last_cursor
                break
            self.inner_row = inner_row
            self.cursor = cursor
            if pass_done:
                # The row path's end-of-pass transition (crun is zero: it
                # was flushed before the exhausted inner pull).
                self._end_pass()
                continue
            break  # need == 0
        if crun:
            charge_each(crun)
            self.work = add_each(self.work, c, crun)
        return out

    def _fill_buffer(self) -> None:
        while len(self.buffer) < self.buffer_tuples and not self.outer_exhausted:
            row = self.outer.next()
            if row is None:
                self.outer_exhausted = True
                break
            self.buffer.append(row)
            self.charge_cpu(1)

    def _join_step(self) -> Optional[Row]:
        """Produce the next join output of the current pass, or None when
        the pass is exhausted (leaving phase untouched)."""
        while True:
            if self.inner_row is None:
                inner = self.inner.next()
                if inner is None:
                    return None  # pass exhausted
                self.charge_cpu(1)
                self.inner_row = inner
                self.cursor = 0
            positions, i = self._probe(self.inner_row, self.cursor)
            if i < len(positions):
                p = positions[i]
                self.cursor = p + 1
                return self.buffer[p] + self.inner_row
            self.cursor = len(self.buffer)
            self.inner_row = None

    def _probe(self, inner_row: Row, cursor: int) -> tuple[Sequence[int], int]:
        """The ascending buffer positions whose rows join ``inner_row``,
        and the index in that list of the first position >= ``cursor``."""
        index = self._index
        if index is None:
            index = self._index = self._build_index()
        positions = index.get(self._right_key(inner_row), _NO_POSITIONS)
        return positions, (bisect_left(positions, cursor) if cursor else 0)

    def _build_index(self) -> dict:
        left_key = compile_left_key(self.condition)
        index: dict = {}
        for pos, row in enumerate(self.buffer):
            key = left_key(row)
            if key != key:
                continue  # NaN: never == to anything, so it never joins
            positions = index.get(key)
            if positions is None:
                index[key] = [pos]
            else:
                positions.append(pos)
        return index

    def _do_close(self) -> None:
        self._index = None

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        return len(self.buffer)

    def heap_pages(self) -> int:
        per_page = self.outer.schema.tuples_per_page(
            self.rt.disk.cost_model.page_bytes
        )
        return math.ceil(len(self.buffer) / per_page) if self.buffer else 0

    def control_state(self) -> dict:
        return {
            "phase": self.phase,
            "fill": len(self.buffer),
            "cursor": self.cursor,
            "inner_row": self.inner_row,
            "outer_exhausted": self.outer_exhausted,
            "passes": self.passes,
        }

    def _checkpoint_payload(self) -> dict:
        # At minimal-heap-state points the buffer is empty and the phase
        # is implicitly the start of a fill; only the pass count needs to
        # be remembered (Example 5: NLJ checkpoints "happen to contain no
        # information" — the pass count is our bookkeeping for skipping
        # whole passes when rolling forward from older checkpoints).
        return {"passes": self.passes}

    def _heap_state_payload(self):
        return list(self.buffer)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore_control(self, control: dict) -> None:
        self.phase = control["phase"]
        self.cursor = control["cursor"]
        self.inner_row = control["inner_row"]
        self.outer_exhausted = control["outer_exhausted"]
        self.passes = control["passes"]

    def _resume_from_dump(self, entry: OpSuspendEntry, payload, ctx) -> None:
        rows = payload or []
        target = entry.target_control
        current = entry.current_control or target
        if target["phase"] == PHASE_JOIN:
            # Contract signed while joining the current pass: the buffer
            # has not changed since, and resume replays the join from the
            # contract's cursor and inner tuple.
            self._set_buffer(list(rows[: target["fill"]]))
            self._restore_control(target)
            self.outer_exhausted = current["outer_exhausted"]
        else:
            # Contract signed while filling (no output produced at that
            # point): keep the full dumped buffer, let the fill complete
            # from the outer child's current position, and replay the
            # whole pass's join output.
            self._set_buffer(list(rows))
            self.phase = PHASE_FILL
            self.cursor = 0
            self.inner_row = None
            self.outer_exhausted = current["outer_exhausted"]

    def _resume_goback(self, entry: OpSuspendEntry, ctx: ResumeContext) -> None:
        """Refill the buffer from the (already repositioned) outer child,
        then jump straight to the target cursor and inner tuple — skipping
        every join already produced before the target."""
        target = entry.target_control
        ckpt = entry.ckpt_payload or {}
        if ckpt.get("__full_state__"):
            # Post-resume full-state checkpoint: restore its heap and
            # control, then keep rolling forward to the target below.
            self._set_buffer(list(ckpt["heap"] or []))
            self._restore_control(ckpt["control"])
        else:
            self._set_buffer([])
            self.outer_exhausted = False
            self.passes = ckpt.get("passes", 0)
        # Skip whole passes between the checkpoint and the target (only
        # possible when the fulfilling checkpoint predates the current
        # pass, e.g. with proactive checkpointing disabled): their outer
        # tuples are re-consumed and discarded, and their join output is
        # skipped entirely (Section 3.3).
        while self.passes < target["passes"]:
            skipped = 0
            while skipped < self.buffer_tuples:
                row = self.outer.next()
                if row is None:
                    raise ContractError(
                        f"{self.name}: outer child exhausted while "
                        f"skipping pass {self.passes + 1} during GoBack"
                    )
                skipped += 1
                self.charge_cpu(1)
            self.passes += 1
        while len(self.buffer) < target["fill"]:
            row = self.outer.next()
            if row is None:
                raise ContractError(
                    f"{self.name}: outer child exhausted while refilling "
                    f"{target['fill']} tuples during GoBack resume"
                )
            self.buffer.append(row)
            self.charge_cpu(1)
        self._restore_control(target)
