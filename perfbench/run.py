"""Wall-clock benchmark for suspend/resume: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-wide --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics on the unmodified program.
``--trace 1`` alternates untraced rounds with rounds whose calls into
each layer are wrapped in spans (see ``layers.py``) and reports the
per-layer metrics, the share of wall time no span covers and the
tracing overhead. Both modes check every output against its solo run
and every round's virtual clock and image bytes against the first
round and, for seeds in ``reference.json``, against the recorded
reference. The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when a check failed and
2 when the program under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Where runs keep image roots, spans and result files (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Seed kept out of development; later claims must also hold on it.
HELD_OUT_SEED = 7919
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5

#: The latency kind of each workload's primary operation.
PRIMARY = {
    "serve-wide": "request",
    "preempt-deep": "suspend",
    "sched-fold": "trace",
}

#: Per-layer times reported as milliseconds of self time per unit.
LAYER_TIMES = (
    "engine.execute",
    "core.suspend",
    "core.optimizer",
    "core.resume",
    "durability.commit",
    "durability.encode",
    "durability.load",
    "durability.decode",
    "durability.gc",
    "durability.pins",
    "serve.redeem",
    "serve.issue",
    "serve.app",
    "service.sched",
    "fold.admit",
)
#: Deterministic round counters reported per unit.
ROUND_COUNTERS = (
    "storage.pages_read",
    "storage.pages_written",
    "service.suspends",
    "service.resumes",
    "service.discarded_resumes",
    "fold.pages_absorbed",
    "fold.pages_shared",
    "fold.refetches",
    "fold.build_hits",
)
#: Per-layer figures normalised per committed image, not per unit.
PER_COMMIT = (
    "durability.fsync_count",
    "durability.fsync_ms",
    "durability.files_written",
)


def percentile(samples: list, q: int) -> float:
    """The q-th percentile (inclusive method) of at least two samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path``, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def cpu_ticks() -> tuple[int, int]:
    """Steal and total ticks of all CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment(workdir: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "image_root_fs": filesystem_type(workdir),
        "fsync": "on",
    }


def load_reference(workload: str, seed: int, size: str):
    if size != "full" or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_rounds(rounds: list, reference) -> list:
    """Failures: a round's checks, cross-round drift, reference drift."""
    failures = []
    first = rounds[0]
    for k, r in enumerate(rounds):
        failures.extend(f"round {k}: {msg}" for msg in r.failures)
        for field in ("vclock", "image_bytes", "suspends", "outputs",
                      "counters"):
            if getattr(r, field) != getattr(first, field):
                failures.append(f"round {k}: {field} differs from round 0")
    if reference is not None:
        got = round_reference(first)
        for key, want in reference.items():
            if got[key] != want:
                failures.append(
                    f"{key} {got[key]!r} differs from reference {want!r}"
                )
    return failures


def round_reference(r) -> dict:
    """The per-seed values ``reference.json`` records for a round."""
    return {
        "vclock_total": r.vclock,
        "image_bytes_per_suspend": r.image_bytes_per_suspend,
        "outputs": r.outputs,
    }


def end_to_end(workload, rounds, setup_s) -> tuple[dict, list]:
    """JSON metrics plus the human-readable lines of an untraced run.

    The JSON timings are process CPU time in units of the run's host
    speed probe (``speed.py``): on a shared virtual machine the wall
    time of the same work also carries the time the host kept the
    virtual CPU descheduled and other tenants' disk queue, and its CPU
    time moves with their load, by more than any bound the JSON may
    carry. The wall-clock latencies (request, suspend, resume, trace)
    and the raw CPU times are printed beside them.
    """
    kind = PRIMARY[workload.name]
    stamps = [x for r in rounds for x in r.latencies.get(kind, [])]
    samples = [x.wall for x in stamps]
    cpu_samples = [x.cpu for x in stamps]
    wall = sum(r.wall for r in rounds)
    cpu = sum(r.elapsed.cpu for r in rounds)
    completed = sum(r.completed for r in rounds)
    first = rounds[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unit_s = workload.probe.unit_s
    metrics = {
        "setup_s": (setup_s, "s"),
        "cpu_ref.p50": (percentile(cpu_samples, 50) / unit_s, "ref"),
        "throughput_per_ref": (completed * unit_s / cpu, "1/ref"),
        "vclock_total": (first.vclock, "vtime"),
        "image_bytes_per_suspend": (first.image_bytes_per_suspend, "B"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    n = f"n={len(samples)}"
    lines = []
    if workload.name == "serve-wide":
        lines += [
            ("req_ms.p50", 1000 * percentile(samples, 50), "ms", n),
            ("req_ms.p99", 1000 * percentile(samples, 99), "ms", n),
            ("req_per_s", completed / wall, "1/s", ""),
        ]
    elif workload.name == "preempt-deep":
        resumes = [
            x.wall for r in rounds for x in r.latencies.get("resume", [])
        ]
        m = f"n={len(resumes)}"
        lines += [
            ("suspend_ms.p50", 1000 * percentile(samples, 50), "ms", n),
            ("suspend_ms.p90", 1000 * percentile(samples, 90), "ms", n),
            ("resume_ms.p50", 1000 * percentile(resumes, 50), "ms", m),
            ("resume_ms.p90", 1000 * percentile(resumes, 90), "ms", m),
            ("queries_per_s", completed / wall, "1/s", "low priority"),
        ]
    else:
        lines += [
            ("queries_per_s", completed / wall, "1/s", ""),
            ("trace_ms.p50", 1000 * percentile(samples, 50), "ms", n),
        ]
    lines += [
        ("cpu_ms.p50", 1000 * percentile(cpu_samples, 50), "ms", n),
        ("throughput_per_cpu_s", completed / cpu, "1/s", ""),
        ("ref_task_ms", 1000 * unit_s, "ms",
         f"median of {len(workload.probe.samples)}"),
        ("cpu_ref.p50", *metrics["cpu_ref.p50"], "cpu_ms.p50 / ref_task_ms"),
        ("throughput_per_ref", *metrics["throughput_per_ref"],
         "throughput_per_cpu_s * ref_task_ms"),
        ("vclock_total", first.vclock, "vtime", ""),
        ("peak_rss_mb", rss_mb, "MiB", ""),
        ("setup_s", setup_s, "s", f"CPU time, median of {SETUP_REPEATS}"),
    ]
    if workload.name != "sched-fold":
        lines.insert(
            -3,
            ("image_bytes_per_suspend", first.image_bytes_per_suspend, "B",
             f"suspends={first.suspends}/round"),
        )
    return metrics, lines


def per_layer(traced, untraced, recorder) -> dict:
    """JSON metrics of a traced run, normalised per workload unit."""
    units = sum(r.units for r in traced)
    suspends = sum(r.suspends for r in traced)
    wall = sum(r.wall for r in traced)
    self_s = recorder.self_times()
    counts = recorder.counts
    spans = recorder.span_counts()

    def per(value, base):
        return value / base if base else 0.0

    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_ms"] = (
            per(1000 * self_s.get(name, 0.0), units), "ms"
        )
    metrics["engine.rows_per_s"] = (
        per(counts["engine.rows"], self_s.get("engine.execute", 0.0)), "1/s"
    )
    metrics["core.optimizer_calls"] = (
        per(spans["core.optimizer"], units), "count"
    )
    metrics["durability.fsync_count"] = (
        per(spans["durability.fsync"], suspends), "count"
    )
    metrics["durability.fsync_ms"] = (
        per(1000 * self_s.get("durability.fsync", 0.0), suspends), "ms"
    )
    metrics["durability.files_written"] = (
        per(counts["durability.files_written"], suspends), "count"
    )
    metrics["durability.manifest_reads"] = (
        per(counts["durability.manifest_reads"], units), "count"
    )
    metrics["durability.delta_ratio"] = (
        per(
            recorder.image_bytes,
            recorder.image_bytes + recorder.reused_bytes,
        ),
        "ratio",
    )
    totals = {
        name: sum(r.counters.get(name, 0) for r in traced)
        for name in ROUND_COUNTERS
    }
    for name in ROUND_COUNTERS:
        metrics[name] = (per(totals[name], units), "count")
    metrics["fold.refetch_ratio"] = (
        per(totals["fold.refetches"], totals["fold.pages_shared"]), "ratio"
    )
    metrics["trace.unattributed_frac"] = (
        1.0 - per(recorder.top_level_seconds(), wall), "ratio"
    )
    plain = statistics.median(r.wall for r in untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.wall for r in traced) / plain - 1.0, "ratio"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: the benchmark's own tests (no reference check)",
    )
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program under src/: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        # An installed copy elsewhere is not the checkout's program.
        print(f"error: no program under {src}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(have: {', '.join(WORKLOADS)})"
        )
    # CPU seconds of the main thread since the process started:
    # interpreter start-up and the imports of the benchmark and the
    # program (not the spin of the thread pools numpy starts).
    import_s = time.thread_time()
    workdir = os.path.join(
        OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, layers, WORKLOADS, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, layers, workloads, import_s, workdir) -> int:
    # Set-up is timed in CPU seconds, like the rounds: its wall time on
    # a shared host moves by a fifth between sets of runs.
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.thread_time()
        workload = workloads[args.workload](args.seed, args.size, workdir)
        workload.setup()
        workload.warm_up()
        setups.append(time.thread_time() - t0)
    setup_s = import_s + statistics.median(setups)

    untraced, traced = [], []
    recorder = layers.Recorder()
    os.sync()
    ticks = cpu_ticks()
    workload.probe.sample()
    start = time.perf_counter()
    index = 0
    while True:
        tracing = bool(args.trace) and index % 2 == 1
        if tracing:
            saved = layers.install(recorder)
            try:
                traced.append(workload.run_round(recorder, index))
            finally:
                layers.uninstall(saved)
        else:
            untraced.append(workload.run_round(None, index))
        index += 1
        # Free the round's garbage before the next one starts, so peak
        # RSS does not depend on how many rounds fitted in the run, and
        # flush the deleted image root so its writeback does not land
        # in the next round's fsyncs.
        gc.collect()
        os.sync()
        workload.probe.sample()
        # Stop when one more round would overshoot --seconds by more
        # than stopping now falls short of it.
        elapsed = time.perf_counter() - start
        enough = elapsed + 0.5 * elapsed / index >= args.seconds
        if enough and (traced or not args.trace):
            break
    rounds = untraced + traced
    steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))

    reference = load_reference(args.workload, args.seed, args.size)
    failures = check_rounds(rounds, reference)
    attempted = sum(r.attempted for r in rounds)
    env = environment(workdir)
    env.update(rounds[0].env)
    env.update(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        held_out_seed=HELD_OUT_SEED,
        rounds=len(rounds),
        traced_rounds=len(traced),
        # Share of CPU time the host kept this machine's virtual CPUs
        # descheduled while the rounds ran: what wall times carry and
        # CPU times do not.
        host_steal_share=round(steal / total, 4) if total else 0.0,
        reference="checked" if reference is not None else "not recorded",
    )
    if env["image_root_fs"] == "tmpfs":
        print("warning: image root is on tmpfs; fsync costs nothing there",
              file=sys.stderr)

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"outputs {rounds[0].outputs} vclock {rounds[0].vclock!r}")
    print("round wall_s " + " ".join(f"{r.wall:.3f}" for r in rounds))
    print("round cpu_s " + " ".join(f"{r.elapsed.cpu:.3f}" for r in rounds))
    for msg in failures:
        print(f"FAILED {msg}")
    failed_frac = len(failures) / attempted

    if args.trace:
        metrics = per_layer(traced, untraced, recorder)
        spans_path = os.path.join(
            OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.jsonl"
        )
        recorder.write(spans_path)
        print(f"spans {len(recorder.spans)} written to "
              f"{os.path.relpath(spans_path, ROOT)}")
        for name, (value, unit) in metrics.items():
            if name in PER_COMMIT:
                base = "per committed image"
            elif unit in ("ms", "count"):
                base = f"per {workload.unit}"
            else:
                base = ""
            print(f"{name:32s} {value:14.6f} {unit:6s} {base}")
    else:
        metrics, lines = end_to_end(workload, rounds, setup_s)
        lines.append(("failed_frac", failed_frac, "ratio",
                      f"{len(failures)}/{attempted}"))
        for name, value, unit, note in lines:
            print(f"{name:28s} {value:14.4f} {unit:6s} {note}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    result_path = os.path.join(
        OUT_DIR,
        "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, **result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
