"""Span recording around the public calls into each layer (traced runs).

Nothing under ``src/`` knows about this module: :func:`install` wraps
the public callables listed in :data:`SPANS` and :data:`COUNTS` in
place, for the length of one traced round, and :func:`uninstall` puts
the originals back. Untraced rounds therefore run the unmodified
program.

A span is ``[name, start, end, parent, op]``: the layer name, two
``perf_counter`` readings, the index of the enclosing span (or -1) and
the id of the request, suspend or query it belongs to. Spans live in
memory until the run ends. All durable commits in the benchmark are
serial (``commit_workers=0``), so every span opens and closes on the
main thread and a plain stack gives each span its parent.

A layer's self time is its span's duration minus the time covered by
its direct children; summed over a round, self times plus the
unattributed remainder equal the round's wall time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

import repro.core.lifecycle as lifecycle
import repro.durability.codec2 as codec2
import repro.durability.store as store_module
from repro.core.lifecycle import QuerySession
from repro.durability.store import ImageStore
from repro.fold.manager import FoldManager
from repro.serve.tokens import TokenManager
from repro.service.scheduler import QueryScheduler

#: (owner, attribute, span name): calls timed as spans.
SPANS = (
    (QuerySession, "execute", "engine.execute"),
    (QuerySession, "suspend", "core.suspend"),
    (QuerySession, "resume", "core.resume"),
    (lifecycle, "choose_suspend_plan", "core.optimizer"),
    (ImageStore, "save", "durability.commit"),
    (ImageStore, "save_many", "durability.commit"),
    (codec2, "encode_to_stream", "durability.encode"),
    (ImageStore, "load", "durability.load"),
    (codec2, "decode_bytes", "durability.decode"),
    (codec2, "decode_suspended_query", "durability.decode"),
    (os, "fsync", "durability.fsync"),
    (ImageStore, "delete_chain", "durability.gc"),
    (ImageStore, "delete", "durability.gc"),
    (ImageStore, "pin", "durability.pins"),
    (ImageStore, "unpin", "durability.pins"),
    (TokenManager, "redeem", "serve.redeem"),
    (TokenManager, "issue", "serve.issue"),
    (QueryScheduler, "run", "service.sched"),
    (FoldManager, "admit", "fold.admit"),
)

#: (owner, attribute, counter name): calls only counted, not timed.
COUNTS = (
    (store_module, "atomic_write", "durability.files_written"),
    (store_module, "atomic_write_stream", "durability.files_written"),
    (ImageStore, "manifest", "durability.manifest_reads"),
    (ImageStore, "info", "durability.manifest_reads"),
)


def image_own_bytes(path: str) -> int:
    """Bytes of an image's own files, manifest excluded.

    The manifest carries a wall-clock ``created_at``, so its length
    varies between runs; every other file is byte-deterministic. Files
    a delta only references live in their owner's directory and are not
    counted here.
    """
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if name != "MANIFEST.json"
    )


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        #: Off while the benchmark runs its own checks through the API.
        self.enabled = True
        #: Id of the request, suspend or query now being served.
        self.op = ""
        #: Own bytes and reused bytes of every committed image.
        self.image_bytes = 0
        self.reused_bytes = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def note_images(self, infos) -> None:
        if not isinstance(infos, list):
            infos = [infos]
        for info in infos:
            self.image_bytes += image_own_bytes(info.path)
            self.reused_bytes += info.reused_bytes

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += end - start - covered
        return dict(totals)

    def top_level_seconds(self) -> float:
        return sum(e - s for _, s, e, parent, _ in self.spans if parent < 0)

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, op)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _count_rows(recorder: Recorder, result) -> None:
    recorder.counts["engine.rows"] += len(result.rows)


#: What a span records from its call's result, by span name.
AFTER = {
    "engine.execute": _count_rows,
    "durability.commit": Recorder.note_images,
}


def _span_wrapper(recorder: Recorder, name: str, fn):
    after = AFTER.get(name)

    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, result)
        return result

    return functools.wraps(fn)(wrapper)


def _count_wrapper(recorder: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        if recorder.enabled:
            recorder.counts[name] += 1
        return fn(*args, **kwargs)

    return functools.wraps(fn)(wrapper)


def install(recorder: Recorder) -> list:
    """Wrap every listed callable; returns what :func:`uninstall` needs."""
    saved = []
    for table, make in ((SPANS, _span_wrapper), (COUNTS, _count_wrapper)):
        for owner, attr, name in table:
            # The raw attribute, so a classmethod is re-wrapped as one.
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(recorder, name, raw.__func__))
            else:
                wrapped = make(recorder, name, raw)
            setattr(owner, attr, wrapped)
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)
