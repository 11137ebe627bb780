"""Run one socialgcn benchmark workload, or all of them.

From the root of a socialgcn checkout:

    python3 perfbench/run.py --workload train-avg --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. `--workload all` runs
each workload in a fresh process and prints their results in turn. The
exit code is non-zero when any output check failed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREADS = "1"  # one thread per process: steadier timings on a small shared machine


def prepare():
    """Pin BLAS threads and import socialgcn from this checkout's `src/`."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "socialgcn" / "__init__.py").is_file():
        sys.exit(f"run.py: no socialgcn package under {SRC}; run from a socialgcn checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import socialgcn

    if Path(socialgcn.__file__).resolve().parent != (SRC / "socialgcn").resolve():
        sys.exit(f"run.py: imported socialgcn from {socialgcn.__file__}, not from {SRC}")


def run_all(argv, names):
    """Run every workload in its own process; returns the exit code."""
    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    i = argv.index("--workload")
    for name in names:
        child = argv[:i] + ["--workload", name] + argv[i + 2 :]
        print(f"## workload {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__))] + child, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = code or proc.returncode or 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return code


def main(argv):
    prepare()
    import bench

    if "--workload" in argv and argv[argv.index("--workload") + 1 :][:1] == ["all"]:
        return run_all(argv, list(bench.WORKLOADS))
    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
