"""Record ``reference.json``: per-seed outputs, virtual clock, image bytes.

Usage (from the repository root)::

    python3 perfbench/record_reference.py [--seeds 0-15,7919]

Runs one full-size round of every workload per seed on the current
program and writes what ``run.py`` later requires each round to repeat.
Only a change that says why outputs, virtual clocks or image bytes
move may re-record it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=f"0-15,{run.HELD_OUT_SEED}")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from workloads import WORKLOADS

    workdir = os.path.join(run.OUT_DIR, "record-reference")
    reference: dict = {}
    try:
        for name, cls in WORKLOADS.items():
            reference[name] = {}
            for seed in parse_seeds(args.seeds):
                workload = cls(seed, "full", workdir)
                workload.setup()
                result = workload.run_round(None, 0)
                if result.failures:
                    print(f"{name} seed {seed}: {result.failures}")
                    return 1
                reference[name][str(seed)] = run.round_reference(result)
                print(f"{name} seed {seed}: {reference[name][str(seed)]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
