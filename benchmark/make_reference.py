#!/usr/bin/env python3
"""Regenerate benchmark/reference.json from the current program.

    python3 benchmark/make_reference.py

Stores the probe encoding and, for run seeds 0..10, each workload's held-out
mean AP. Run it only when a change is meant to alter encodings or training
results, and say so in that change: the stored values are what the
benchmark's output checks compare against.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(11)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from fvlayer import pipeline

    from checks import PROBE, REFERENCE_PATH
    from gen import probe_inputs
    from workloads import WORKLOADS

    features, checkpoint = probe_inputs(**PROBE)
    probe = pipeline.checkpoint_encode(checkpoint, features)
    reference = {"probe": PROBE, "probe_encoding": [float(v) for v in probe],
                 "heldout_map": {}}
    for workload in WORKLOADS.values():
        if workload.same_model_as:
            continue
        maps = reference["heldout_map"][workload.name] = {}
        for seed in SEEDS:
            work = run.WORK_ROOT / f"reference-{workload.name}-s{seed}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                paths = run.prepare_inputs(workload, seed, work)
                result = run.run_iteration(workload, seed, paths, workers=1)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            maps[str(seed)] = result["heldout_map"]
            print(f"{workload.name} seed {seed}: heldout_map {result['heldout_map']:.6f}",
                  flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
