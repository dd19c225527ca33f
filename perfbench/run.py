"""Run the srlb benchmark and print every metric with its unit.

    python3 perfbench/run.py --workload slab_sweep_d2 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from any directory; the library is imported from `src/` next to this
directory.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones (and writes the spans to the run's directory under
`perfbench/results/`).  `--workload all` runs every workload, each in a
fresh process.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

Exit codes: 0 every check passed; 1 a check failed, or an instance was
refused before it was generated; 2 the library could not be imported.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 900


def print_report(report: dict) -> None:
    prov, result = report["provenance"], report["result"]
    print(f"# workload={prov['workload']} seed={prov['seed']} seconds={prov['seconds']}"
          f" git={prov['git_revision']} src={prov['source_sha256'][:12]}"
          f" python={prov['python']} numpy={prov['numpy']} nproc={prov['nproc']}"
          f" load={prov['load']!r} trace_file={prov['trace_file']}")
    for inst in prov["instances"]:
        est = inst["estimate"]
        print("# instance " + " ".join(f"{k}={inst[k]}" for k in ("d", "s", "t", "n", "A", "B", "m"))
              + f" n*m={est['n_times_m']} pairs={est['pairs']} pair_bytes={est['pair_bytes']}")
    print("# samples " + " ".join(f"{k}={v}" for k, v in report["samples"].items()))
    print(f"# setup wall_s {report['setup_wall_s']}")
    print(f"# pass wall_s {report['pass_wall_s']}")
    units = report["units"]
    for name, value in report["metrics"].items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    ff = report["failed_frac"]
    print(f"{'failed_frac':48s} {ff['value']:>16.6g} ratio"
          f" ({ff['failed']} failed of {ff['attempted']} attempted)")
    if report["fit_slope"] is not None:
        print(f"# fitted slope {report['fit_slope']:.6f}")
    print("# counts " + json.dumps(report["counts"], sort_keys=True))
    for message in report["failures"]:
        print(f"# FAILED {message}")
    if report["error"]:
        print(f"# ERROR {report['error']}")
    print(json.dumps(result))


def run_all(args: argparse.Namespace, names: list) -> int:
    """Each workload in a fresh process, so peak RSS is the workload's own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        print(child.stdout, end="")
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    if not (SRC / "srlb" / "__init__.py").is_file():
        print(f"error: the srlb sources are not at {SRC}", file=sys.stderr)
        return 2
    # One thread: the harness is a closed loop with one client, and numpy
    # must not spread its kernels over the machine's cores behind it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, list(harness.WORKLOADS))

    seconds = args.seconds if args.seconds is not None else harness.benchmark_spec()["run_seconds"]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    report = harness.execute(harness.WORKLOADS[args.workload], args.seed, seconds,
                             bool(args.trace), HERE / "results" / run_id)
    print_report(report)
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
