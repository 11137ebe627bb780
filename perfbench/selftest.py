"""Self-test of the benchmark on a tiny workload.

From the root of a socialgcn checkout:

    python3 perfbench/selftest.py

It checks that
- untraced and traced runs print every metric BENCHMARK.json names, with
  its unit, and pass their output checks;
- two runs of one seed report the same trained-parameter sha256;
- a deliberately wrong predict answer counts as a failed op and makes the
  run exit non-zero;
- a directory holding only BENCHMARK.json and the benchmark's files makes
  run.py exit non-zero without printing a result.
Exits non-zero if any check fails.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

run.prepare()

import bench  # noqa: E402  (needs the paths run.prepare sets)

ROOT = run.HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"tiny": replace(bench.WORKLOADS["train-avg"], users=60, items=50)}
ARGS = ["--workload", "tiny", "--seed", "3", "--seconds", "1"]


def run_tiny(trace, client=bench.cli_client):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = bench.main(ARGS + ["--trace", str(trace)], workloads=TINY, client=client)
    lines = out.getvalue().splitlines()
    env = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
    return code, json.loads(lines[-1]), env


def wrong_predict(argv):
    """cli_client whose first predict answer has its first and last lines swapped."""
    code, out = bench.cli_client(argv)
    if argv[0] == "predict" and not wrong_predict.done:
        wrong_predict.done = True
        lines = out.splitlines()
        lines[0], lines[-1] = lines[-1], lines[0]
        out = "\n".join(lines) + "\n"
    return code, out


wrong_predict.done = False


def check_result(trace, section):
    code, result, env = run_tiny(trace)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert got == want, f"metrics differ from BENCHMARK.json {section}: {sorted(set(got) ^ set(want))}"
    assert code == 0 and result["correct"] and result["failed"] == 0, result
    return env


def main():
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, None))
        except Exception as exc:  # report every check, whatever broke
            checks.append((name, exc))

    envs = []
    check("untraced run reports every end_to_end metric", lambda: envs.append(check_result(0, "end_to_end")))
    check("traced run reports every per_layer metric", lambda: envs.append(check_result(1, "per_layer")))

    def same_params():
        code, result, env = run_tiny(0)
        assert code == 0 and env["params_sha256"] == envs[0]["params_sha256"], (env, envs)

    check("same seed gives the same trained parameters", same_params)

    def wrong_answer_fails():
        code, result, _ = run_tiny(0, client=wrong_predict)
        assert wrong_predict.done and result["failed"] == 1 and not result["correct"] and code != 0, result

    check("a wrong predict answer is a failed op", wrong_answer_fails)

    def bare_directory_fails():
        bare = bench.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py"] + ARGS + ["--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)

    check("without the sources run.py fails and prints no result", bare_directory_fails)

    for name, exc in checks:
        print(f"{'PASS' if exc is None else 'FAIL'} {name}" + ("" if exc is None else f": {exc}"))
    return 0 if all(exc is None for _, exc in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
