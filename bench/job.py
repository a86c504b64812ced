"""One benchmark job in a fresh interpreter.

    python3 bench/job.py --workload NAME --seed N --mode plain|setup|trace|peak \
        --dir WORKDIR --result RESULT.json --spawned-at MONOTONIC [--smoke]

Set-up (imports and generated inputs) runs first; ``setup_s`` is measured
from ``--spawned-at``, the parent's monotonic clock just before it started
this process.  The job is then timed, its outputs are checked, and one JSON
record is written to ``--result``.  ``plain`` mode installs only a counter on
the solver's entry point; ``setup`` stops once set-up is done; ``trace``
records spans; ``peak`` runs the tracemalloc pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_shlab():
    sys.path.insert(0, str(ROOT / "src"))
    import shlab

    if Path(shlab.__file__).resolve().parent != ROOT / "src" / "shlab":
        raise ImportError(f"shlab imported from {shlab.__file__}, not from {ROOT / 'src'}")
    import shlab.cli  # noqa: F401  (the job's import cost belongs to set-up)


def _count_cell_steps(counts: list[int]) -> None:
    """Record nx * ny * steps of every solver run (two calls per simulate)."""
    import functools

    from shlab import cli, diagnostics

    for module in (cli, diagnostics):
        fn = module.simulate

        @functools.wraps(fn)
        def counted(scenario, _fn=fn):
            traj = _fn(scenario)
            counts.append(scenario.grid.nx * scenario.grid.ny * traj.n_steps)
            return traj

        module.simulate = counted


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "setup", "trace", "peak"), required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    _import_shlab()
    import tracing
    import workloads

    size = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    ctx = workloads.setup(args.workload, args.seed, Path(args.dir), size)
    cell_steps: list[int] = []
    tracer = tracker = None
    if args.mode == "plain":
        _count_cell_steps(cell_steps)
    elif args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    else:
        tracker = tracing.PeakTracker()
        tracker.install()
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps({"mode": "setup", "setup_s": setup_s}))
        return 0

    t0 = time.perf_counter()
    exit_code = workloads.run(ctx)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracker is not None:
        tracker.stop()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "exit_code": exit_code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cell_steps": sum(cell_steps),
        "solver_runs": len(cell_steps),
    }
    if exit_code == 0:
        refs = None
        if args.seed == workloads.DEFAULT_SEED and not args.smoke:
            refs = json.loads((HERE / "references.json").read_text())[args.workload]
        record["gate"] = workloads.check(ctx, refs)
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        record["spans"] = len(tracer.name)
        with open(Path(args.result).with_suffix(".spans.json"), "w") as fh:
            json.dump(tracer.spans(), fh)
    if tracker is not None:
        record["layers"] = tracing.peak_metrics(tracker)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
