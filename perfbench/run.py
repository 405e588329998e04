"""Run one benchmark workload against the ``repro`` package in ``src/``.

    python3 perfbench/run.py --workload offline_cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``offline_cold`` / ``offline_warm`` -- the corpus -> Table 3 -> Fig. 18
  -> VoD pipeline from empty roots / over filled roots (``offline.py``);
* ``serve_pipelined`` -- one batched engine core under a full window
  of pipelined ticks (``serving.py``).

Every input derives from ``--seed``. The run measures for ``--seconds``,
checks every output, prints a human-readable report, a ``header:`` line
(git sha, source digest, nproc, versions, BLAS pin, calibration loop at
start and end), and as its last line one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline_cold", "offline_warm", "serve_pipelined")
#: One process per core: the program's pools and the serve connections.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Where passes keep their cache and corpus roots (inside the checkout).
WORKDIR = ROOT / ".perfbench-work"


def calibration_s(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: host speed, for the header."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None if done.returncode == 0 else None


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def manifest_metrics(spec: dict, result, trace: int) -> dict:
    """The result's metrics: every one ``BENCHMARK.json`` lists, in its order.

    End-to-end metrics (``--trace 0``) are all measured by every workload;
    one missing, or in another unit, fails the run. A traced run reports
    every per-layer metric: a layer this workload never calls reads 0,
    and the report names it.
    """
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result.layers if trace else result.e2e
    chosen = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            if trace:
                chosen[name] = (0.0, unit)
            elif result.correct:
                result.fail(f"{name} was not measured")
            continue
        value, got_unit = measured[name]
        if got_unit != unit:
            result.fail(f"{name} measured in {got_unit}, BENCHMARK.json says {unit}")
        chosen[name] = (value, unit)
    idle = [
        name
        for name, (value, unit) in chosen.items()
        if trace and value == 0 and (unit in ("s", "ms", "1/s") or name not in measured)
    ]
    if idle:
        result.lines.append("not run in this workload (reported as 0): " + ", ".join(idle))
    return chosen


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    for var in BLAS_PIN:
        os.environ[var] = "1"
    workers = len(os.sched_getaffinity(0))
    os.environ["REPRO_BENCH_WORKERS"] = str(workers)
    sys.path.insert(0, str(ROOT / "src"))
    calibration_start = calibration_s()

    t_import = time.perf_counter()
    import numpy as np

    from repro.simulate.cache import code_version_token

    from report import Result

    if args.workload == "serve_pipelined":
        import serving as workload
    else:
        import offline as workload
    import_s = time.perf_counter() - t_import

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = SimpleNamespace(
        workers=workers,
        import_s=import_s,
        workdir=WORKDIR,
        bounds={m["name"]: m["bound"] for m in spec["end_to_end"]},
    )
    try:
        if args.workload == "serve_pipelined":
            result = workload.run_workload(args, env)
        else:
            result = workload.run_workload(args.workload.split("_")[1], args, env)
    except Exception as exc:  # the program failed: report it as a failed run
        traceback.print_exc()
        result = Result()
        result.fail(f"{args.workload} raised {type(exc).__name__}: {exc}")

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_digest": code_version_token()[:16],
        "nproc": workers,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
        **result.header,
        "calibration_start_s": round(calibration_start, 6),
        "calibration_end_s": round(calibration_s(), 6),
        "process_s": round(time.perf_counter() - _T_PROCESS, 3),
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    chosen = manifest_metrics(spec, result, args.trace)
    for line in result.lines:
        print(line)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print("header: " + json.dumps(header, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
