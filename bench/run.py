"""shlab benchmark: four pinned jobs timed end to end and per module.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

Workloads (see ``workloads.py`` for why each was chosen): ``simulate-256``,
``workbench-32``, ``analysis-128`` and ``wsu-32x128``.

Load model: a closed loop with a single client.  Jobs run one at a time, each
in a fresh interpreter (``job.py``), until ``--seconds`` is used up; at least
three plain jobs run, each followed by two set-up-only probes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s``, the job from the call into the CLI or the analysis sequence until
it returns; ``setup_s``, process start until the job can begin (interpreter,
imports, generated inputs and, for analysis-128, the stored run), over the
plain jobs and the probes; and ``peak_rss_mb``.  Each is a median.  With
``--trace 1`` one tracemalloc job runs first, then plain and traced jobs
alternate, and the last line reports the per-layer metrics (medians over the
traced jobs) and the tracing overhead.  A job whose process or CLI exits
non-zero, or whose outputs fail the correctness gate, counts as failed;
``attempted`` counts every process started, set-up probes included.

``--smoke`` runs every workload once per mode at a reduced size and checks
that every metric named in BENCHMARK.json and every gate check is emitted.

Everything is written under ``.bench_work/`` in the checkout; the last run's
full record goes to ``.bench_work/last-<workload>-trace<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60
MIN_PLAIN_JOBS = 3
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 2  # extra set-up-only processes per plain job, for a steadier setup_s
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _log(msg: str) -> None:
    print(msg, flush=True)


def _read_cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    """CPU, cache, interpreter, numpy and BLAS-thread record of this run."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _read_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: str(BLAS_THREADS) for v in BLAS_VARS},
    }


def _bytes_text(n: int) -> str:
    return f"{n / 1024**2:.2f} MiB" if n >= 1024**2 else f"{n / 1024:.1f} KiB"


class Runner:
    """Spawns the jobs of one run, one at a time, and keeps their records."""

    def __init__(self, workload: str, seed: int, smoke: bool, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.run_dir = run_dir
        self.records: list[dict] = []
        self.env = dict(os.environ)
        self.env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
        self.env["PYTHONHASHSEED"] = "0"

    def warm(self) -> None:
        """Untimed import so that bytecode caches exist before the first timed job."""
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import shlab.cli",
             str(ROOT / "src")],
            env=self.env, check=True, timeout=JOB_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def job(self, mode: str) -> dict:
        index = len(self.records)
        job_dir = self.run_dir / f"job{index:03d}"
        result = self.run_dir / f"job{index:03d}.json"
        cmd = [sys.executable, str(HERE / "job.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--dir", str(job_dir),
               "--result", str(result)] + (["--smoke"] if self.smoke else [])
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(started)], env=self.env, cwd=ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=JOB_TIMEOUT_S,
            )
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            returncode, stderr = -1, f"job timed out after {JOB_TIMEOUT_S} s"
        elapsed = time.monotonic() - started
        if returncode == 0 and not result.exists():
            returncode, stderr = -1, "job wrote no result"
        record = {"mode": mode, "elapsed_s": elapsed, "returncode": returncode}
        if returncode == 0:
            record.update(json.loads(result.read_text()))
        else:
            sys.stderr.write(f"bench: {self.workload} job {index} ({mode}) failed:\n{stderr[-2000:]}\n")
        record["failed"] = _job_failed(record)
        shutil.rmtree(job_dir, ignore_errors=True)
        self.records.append(record)
        if record["failed"]:
            bad = [c["name"] for c in record.get("gate", []) if c["status"] == "FAIL"]
            _log(f"job {index} {mode}: FAILED {','.join(bad)}")
        elif mode == "setup":
            _log(f"job {index} setup: setup {record['setup_s']:.4f} s")
        else:
            _log(f"job {index} {mode}: setup {record['setup_s']:.4f} s, wall {record['wall_s']:.4f} s, "
                 f"rss {record['peak_rss_mb']:.1f} MiB, gate ok")
        return record

    def loop(self, deadline: float, modes: tuple[str, ...], min_rounds: int) -> None:
        """Run rounds of ``modes`` until the next round would end after ``deadline``
        (a ``time.monotonic`` value), and at least ``min_rounds`` rounds."""
        rounds = 0
        durations: list[float] = []
        while True:
            left = deadline - time.monotonic()
            if rounds >= min_rounds and left < statistics.median(durations):
                break
            round_start = time.monotonic()
            for mode in modes:
                self.job(mode)
            durations.append(time.monotonic() - round_start)
            rounds += 1

    def of(self, mode: str) -> list[dict]:
        """Records of the jobs of ``mode`` that ran to completion, whether or
        not their outputs passed the gate."""
        return [r for r in self.records
                if r["mode"] == mode and r["returncode"] == 0 and r.get("exit_code", 0) == 0]


def _job_failed(record: dict) -> bool:
    """A job fails if its process or the CLI exits non-zero, or its gate fails."""
    if record["returncode"] != 0 or record.get("exit_code", 0) != 0:
        return True
    if record["mode"] == "setup":
        return False
    gate = record.get("gate")
    return not gate or any(c["status"] == "FAIL" for c in gate)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (float("nan"), float("nan"))
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(runner: Runner) -> dict[str, float]:
    plain = runner.of("plain")
    out = {}
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        values = [r[key] for r in plain + (runner.of("setup") if key == "setup_s" else [])]
        q1, q3 = _quartiles(values)
        out[key] = _median(values)
        _log(f"metric {key} = {out[key]:.6g} {UNITS[key]} "
             f"(median of {len(values)} jobs, q1 {q1:.6g}, q3 {q3:.6g})")
    rates = [r["cell_steps"] / r["wall_s"] for r in plain if r["cell_steps"]]
    if rates:
        _log(f"metric cell_steps_per_s = {_median(rates):.6g} 1/s "
             f"(median of {len(rates)} jobs; {plain[0]['cell_steps']} cell-steps in "
             f"{plain[0]['solver_runs']} solver runs per job)")
    return out


def per_layer(runner: Runner, names: list[str]) -> dict[str, float]:
    traced = runner.of("trace")
    out = {}
    for name in names:
        source = runner.of("peak") if name.endswith(".peak_temp_mb") else traced
        values = [r["layers"][name] for r in source if name in r.get("layers", {})]
        if values:
            out[name] = _median(values)
    overhead = _median([r["wall_s"] for r in traced]) - _median(
        [r["wall_s"] for r in runner.of("plain")]
    )
    out["trace.overhead_s"] = overhead
    spans = _median([r["spans"] for r in traced])
    _log(f"tracing overhead = {overhead:.4f} s per job ({spans:.0f} spans per traced job)")
    return out


def run_workload(args, spec: dict, smoke: bool) -> tuple[dict, list[str]]:
    """One run of one workload.  Returns the result line and the problems found."""
    sizes = workloads.SMOKE if smoke else workloads.FULL
    size = sizes[args.workload]
    env = environment()
    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    _log(f"bench: workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
         f"trace {args.trace}{', smoke size' if smoke else ''}")
    _log(f"why: {workloads.WHY[args.workload]}")
    caches = ", ".join(f"{k} {v}" for k, v in env["caches"].items())
    _log(f"env: {env['cpu_model']}, nproc {env['nproc']}, {caches}; python {env['python']}, "
         f"numpy {env['numpy']}, blas {env['blas']}, "
         + ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items()))
    computed = workloads.computed_bytes(args.workload, size)
    _log("computed bytes (from array shapes, not measured; no bandwidth claim): "
         + ", ".join(f"{k} {_bytes_text(v)}" for k, v in computed.items()))

    runner = Runner(args.workload, args.seed, smoke, run_dir)
    runner.warm()
    deadline = time.monotonic() + args.seconds
    if smoke:
        for mode in ("plain", "setup", "trace", "peak"):
            runner.job(mode)
    elif args.trace:
        runner.job("peak")
        runner.loop(deadline, ("plain", "trace"), MIN_TRACED_PAIRS)
    else:
        runner.loop(deadline, ("plain",) + ("setup",) * SETUP_PROBES, MIN_PLAIN_JOBS)

    failed = sum(r["failed"] for r in runner.records)
    gated = [r for r in runner.records if r.get("gate")]
    for check in (gated[-1]["gate"] if gated else []):
        _log("gate " + " ".join(f"{k}={v}" for k, v in check.items()))
    if args.trace or smoke:
        metrics = per_layer(runner, [m["name"] for m in spec["per_layer"]])
        wanted = spec["per_layer"]
        for m in wanted:
            if m["name"] in metrics:
                _log(f"layer {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    else:
        metrics = end_to_end(runner)
        wanted = spec["end_to_end"]
    problems = [f"metric {m['name']} missing" for m in wanted
                if m["name"] not in metrics or metrics[m["name"]] != metrics[m["name"]]]
    if smoke:
        e2e = end_to_end(runner)
        problems += [f"metric {m['name']} missing" for m in spec["end_to_end"] if m["name"] not in e2e]
        gate_names = {c["name"] for c in runner.records[0].get("gate") or []}
        problems += [f"gate checks differ in the {r['mode']} job" for r in runner.records
                     if r["mode"] != "setup" and {c["name"] for c in r.get("gate") or []} != gate_names]
        problems += ["no gate checks"] if not gate_names else []
        problems += [f"{r['mode']} job failed" for r in runner.records if r["failed"]]
    result = {
        "correct": failed == 0,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    record = {"args": vars(args), "env": env, "computed_bytes": computed,
              "jobs": runner.records, "result": result}
    (WORK / f"last-{args.workload}-trace{int(bool(args.trace))}.json").write_text(
        json.dumps(record, indent=1)
    )
    for spans in sorted(run_dir.glob("*.spans.json"))[-1:]:
        shutil.move(str(spans), WORK / f"spans-{args.workload}.json")
    shutil.rmtree(run_dir, ignore_errors=True)
    return result, problems


def main() -> int:
    ap = argparse.ArgumentParser(description="shlab benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.FULL))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "shlab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no shlab sources under {ROOT / 'src'}; nothing to measure\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    WORK.mkdir(exist_ok=True)

    if args.smoke:
        problems = []
        for name in workloads.FULL:
            args.workload = name
            _, found = run_workload(args, spec, smoke=True)
            problems += [f"{name}: {p}" for p in found]
        for p in problems:
            sys.stderr.write(f"bench smoke: {p}\n")
        _log(json.dumps({"smoke": "ok" if not problems else "FAIL", "problems": problems}))
        return 1 if problems else 0

    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result, problems = run_workload(args, spec, smoke=False)
    for p in problems:
        sys.stderr.write(f"bench: {p}\n")
    if problems:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
