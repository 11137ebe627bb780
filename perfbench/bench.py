"""socialgcn benchmark: one workload, one seed, one process.

Every workload runs rounds of the same user session on its own synthetic
data until the time budget is spent. A round is a set-up (generate, split,
write the TSV files and the config a `socialgcn` user points the CLI at),
one `training.train` epoch with a checkpoint write as `socialgcn train`
does, then `socialgcn evaluate` and `socialgcn predict` requests from a
single closed-loop client through `cli.main` in this process.

Workloads differ in data size and aggregator, so each one stresses
other layers; see README.md for why each was chosen and which
layer moves which metric.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from socialgcn import checkpoint, cli, data, model, training

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    users: int
    items: int
    aggregator: str


WORKLOADS = {
    "train-avg": Workload(users=300, items=450, aggregator="average"),
    "train-max": Workload(users=200, items=600, aggregator="max"),
}
PREDICTS = 3  # predict requests per round, after the round's evaluate request

TOP_N = 10
# Candidate negatives per held-out edge in each epoch's validation (200 by
# default). With 20, val_ndcg10 varies less from seed to seed: over twenty
# seeds of 300 x 400 users x items, its spread (IQR / median) fell from
# 0.21-0.27 to 0.07.
VAL_NEGATIVES = 20
EVAL_ARGS = ["--repetitions", "1", "--negatives", "1000"]
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_epoch_s": "s",
    "val_ndcg10": "ratio",
    "eval_rep_s": "s",
    "predict_ms": "ms",
    "peak_rss_mb": "MB",
}


class Mismatch(Exception):
    """A program output that fails the benchmark's correctness checks."""


def cli_client(argv):
    """Run one `socialgcn` command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def params_sha256(params):
    h = hashlib.sha256()
    for name, arr in params.items():
        h.update(f"{name}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


class Session:
    """One client's session against one workload's data in `workdir`."""

    def __init__(self, workload, seed, workdir, client=cli_client, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.client = client
        self.tracer = tracer
        self.hypers = model.HyperParams(D=16, L=16, K=2, aggregator=workload.aggregator)
        self.config = str(self.workdir / "run.cfg")
        self.ckpt = str(self.workdir / "checkpoint.bin")
        self.users = np.random.default_rng([seed, 2]).integers(workload.users, size=1024)
        self.samples = {kind: [] for kind in ("setup", "train", "epoch", "evaluate", "predict")}
        self.plan = []
        self.attempted = 0
        self.failures = []
        self.param_sha256 = None
        self.val_ndcg10 = None
        self.eval_output = None
        self.reference = None
        self.bundle = None

    def _setup(self):
        """Generate, split and write the dataset and the CLI config."""
        t0 = time.perf_counter()
        self.workdir.mkdir(parents=True, exist_ok=True)
        spec = data.SyntheticSpec(users=self.workload.users, items=self.workload.items, seed=self.seed)
        bundle = data.generate_synthetic(spec)
        edges = bundle.train.edges() + bundle.validation.edges() + bundle.test.edges()
        raw = data.InteractionMatrix.from_edges(edges, bundle.num_users, bundle.num_items)
        files = {name: str(self.workdir / f"{name}.tsv") for name in ("interactions", "social", "user_features", "item_features")}
        data.save_interactions(raw, files["interactions"])
        data.save_social(bundle.social, files["social"])
        data.save_features(bundle.user_features, files["user_features"])
        data.save_features(bundle.item_features, files["item_features"])
        lines = [f"{name}={path}" for name, path in files.items()] + [
            "mode=features",
            f"dim={self.hypers.D}",
            f"latent={self.hypers.L}",
            f"k={self.hypers.K}",
            f"aggregator={self.hypers.aggregator}",
            f"seed={self.seed}",
            f"output_dir={self.workdir / 'out'}",
        ]
        Path(self.config).write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.bundle = bundle
        return time.perf_counter() - t0

    def run(self, seconds=None, plan=None):
        """Run rounds of ops for `seconds`, or replay a recorded plan of op kinds.

        A round is one set-up, one training op, one evaluate request, then
        PREDICTS predict requests; a new round starts only if one more is expected
        to fit. Repeating the set-up every round spreads its samples over the
        run like those of the other ops.
        """
        if plan is not None:
            for kind in plan:
                self._op(kind)
            return
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self._op("setup")
            self._op("train")
            self._op("evaluate")
            for _ in range(PREDICTS):
                self._op("predict")
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break

    def _op(self, kind):
        """Run one op and record the wall time of its program calls.

        The op's own checks run outside that time. Any error counts the op
        as failed, and the session goes on.
        """
        if self.tracer is not None:
            self.tracer.op = kind
        self.plan.append(kind)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            took = getattr(self, f"_{kind}")()
        except Exception as exc:  # a failed op is counted, not fatal
            took = time.perf_counter() - t0
            self.failures.append(f"{kind}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
        self.samples[kind].append(took)

    def _train(self):
        t0 = time.perf_counter()
        config = training.TrainConfig(max_epochs=1, seed=self.seed, val_negatives=VAL_NEGATIVES)
        params, log = training.train(self.bundle, self.hypers, config)
        checkpoint.save_checkpoint(self.ckpt, self.hypers, params, self.bundle.fingerprint())
        took = time.perf_counter() - t0
        for rec in log:
            self.samples["epoch"].append(rec["wall_time"])
            if not math.isfinite(rec["loss"]):
                raise Mismatch(f"non-finite training loss {rec['loss']} at epoch {rec['epoch']}")
            for key in ("val_hr10", "val_ndcg10"):
                if not 0.0 <= rec[key] <= 1.0:
                    raise Mismatch(f"{key}={rec[key]} outside [0, 1] at epoch {rec['epoch']}")
        digest = params_sha256(params)
        if self.param_sha256 is None:
            self.param_sha256 = digest
            with self._untraced():
                U, V, _ = model.forward_all(params, self.hypers, self.bundle)
            self.reference = (U, V)
        elif digest != self.param_sha256:
            raise Mismatch("trained parameters differ between identical training runs")
        self.val_ndcg10 = log[-1]["val_ndcg10"]
        return took

    def _evaluate(self):
        t0 = time.perf_counter()
        code, out = self.client(["evaluate", "--config", self.config, "--checkpoint", self.ckpt, *EVAL_ARGS])
        took = time.perf_counter() - t0
        if code != 0:
            raise Mismatch(f"evaluate exited {code}")
        rows = [line.split("\t") for line in out.splitlines()]
        values = [float(v) for row in rows if row[0] in ("HR", "NDCG") for v in row[1:]]
        if len(values) != 6 or not all(0.0 <= v <= 1.0 for v in values):
            raise Mismatch(f"evaluate metrics missing or outside [0, 1]: {out!r}")
        if self.eval_output is None:
            self.eval_output = out
        elif out != self.eval_output:
            raise Mismatch("evaluate output changed between identical requests")
        return took

    def _predict(self):
        user = int(self.users[len(self.samples["predict"]) % len(self.users)])
        argv = ["predict", "--config", self.config, "--checkpoint", self.ckpt, "--user", str(user), "--top-n", str(TOP_N)]
        t0 = time.perf_counter()
        code, out = self.client(argv)
        took = time.perf_counter() - t0
        if code != 0:
            raise Mismatch(f"predict for user {user} exited {code}")
        self.check_predict(user, out)
        return took

    def check_predict(self, user, out):
        """Compare a predict answer with a top-N recomputed from forward_all.

        Training positives are excluded and ties go to the lower item id;
        printed scores must match the recomputed ones to 1e-9.
        """
        U, V = self.reference
        scores = V @ U[user]
        seen = set(self.bundle.train.positives_by_user[user])
        unseen = np.array([i for i in range(len(scores)) if i not in seen], dtype=int)
        order = np.lexsort((unseen, -scores[unseen]))[:TOP_N]
        expected = [(int(unseen[t]), float(scores[unseen[t]])) for t in order]
        got = [(int(item), float(score)) for item, score in (line.split("\t") for line in out.splitlines())]
        if len(got) != len(expected) or len({item for item, _ in got}) != len(got):
            raise Mismatch(f"user {user}: expected {len(expected)} distinct items, got {got}")
        for (item, score), (want_item, want_score) in zip(got, expected):
            valid = 0 <= item < len(scores) and item not in seen
            if not valid or not _close(score, scores[item]) or not (item == want_item or _close(score, want_score)):
                raise Mismatch(f"user {user}: got {got}, expected {expected}")

    @contextlib.contextmanager
    def _untraced(self):
        """Keep the benchmark's own checking work out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True


# ---------------------------------------------------------------------------
# provenance and cross-run determinism


def _git_sha():
    """HEAD of the checkout, or "unknown" outside a git work tree.

    The ceiling stops git from finding a repository above the checkout.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload, seed, trace):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),  # pinned by run.py
    }


def check_same_params(key, digest):
    """Record `digest` for `key` and say whether an earlier run agreed.

    The store lives in the checkout. Its keys hold the workload, the seed,
    the source digest and the numerical environment (NumPy, SciPy, BLAS
    threads, machine), so only runs of the same code, inputs and libraries
    compare.
    """
    store = OUT / "param_sha256.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if known.setdefault(key, digest) != digest:
        return False
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return True


# ---------------------------------------------------------------------------
# runs


def _fastest(values):
    # The fastest sample, not the mean or median. On a small shared VM the CPU
    # runs up to ~1.7x slower for tens of seconds at a time while other
    # tenants are busy (a fixed 17 ms loop read 17 to 25 ms, predicts of one
    # run 0.23 to 0.43 s). Means and medians follow how much of a run fell in
    # slow periods; the fastest of many short samples, spread over the whole
    # run, is the program's own cost whenever the run has one fast stretch as
    # long as an op. This is why the workloads keep every op short.
    return min(values) if values else float("nan")


def measure(workload, seed, seconds, workdir, client):
    """Untraced run: every end-to-end metric as (value, unit, samples)."""
    session = Session(workload, seed, workdir, client)
    session.run(seconds)
    s = session.samples
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (_fastest(s["setup"]), len(s["setup"])),
        "train_epoch_s": (_fastest(s["epoch"]), len(s["epoch"])),
        "val_ndcg10": (session.val_ndcg10 if session.val_ndcg10 is not None else float("nan"), 1),
        "eval_rep_s": (_fastest(s["evaluate"]), len(s["evaluate"])),
        "predict_ms": (1000.0 * _fastest(s["predict"]), len(s["predict"])),
        "peak_rss_mb": (rss_mb, 1),
    }
    metrics = {name: (value, END_TO_END_UNITS[name], n) for name, (value, n) in values.items()}
    return session, metrics


def measure_traced(workload, seed, seconds, workdir, client, trace_path):
    """Traced run: the session runs untraced for half the budget, then its
    plan is replayed traced; per-layer metrics come from the replay and the
    difference in wall time is the tracing overhead."""
    plain = Session(workload, seed, Path(workdir) / "untraced", client)
    t0 = time.perf_counter()
    plain.run(seconds / 2.0)
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Session(workload, seed, Path(workdir) / "traced", client, tracer)
        t0 = time.perf_counter()
        traced.run(plan=plain.plan)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.dump(trace_path)

    op_counts = Counter(traced.plan)
    metrics = {name: (value, unit, len(traced.plan)) for name, (value, unit) in tracer.per_layer(op_counts).items()}
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", 1)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%", 1)
    if plain.param_sha256 != traced.param_sha256:
        traced.failures.append("trained parameters differ between untraced and traced sessions")
    for name in tracer.missing:
        print(f"# not traced (function or result changed): {name}")
    return plain, traced, metrics


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="Run one socialgcn benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, workloads=WORKLOADS, client=cli_client):
    args = parse_args(argv, workloads)
    workload = workloads[args.workload]
    env = environment(args.workload, args.seed, args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = OUT / "results" / f"{tag}-spans.json"
            plain, traced, metrics = measure_traced(workload, args.seed, args.seconds, workdir, client, trace_path)
            sessions = [plain, traced]
        else:
            session, metrics = measure(workload, args.seed, args.seconds, workdir, client)
            sessions = [session]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.attempted for s in sessions)
    failures = [f for s in sessions for f in s.failures]
    env["params_sha256"] = sessions[0].param_sha256
    if env["params_sha256"] is not None:
        attempted += 1
        numerics = " ".join(f"{k}={env[k]}" for k in ("numpy", "scipy", "openblas_threads", "machine"))
        key = f"{args.workload} {workload} seed={args.seed} src={env['src_sha256']} {numerics}"
        if not check_same_params(key, env["params_sha256"]):
            failures.append("trained parameters differ from an earlier run of this seed, source and environment")
    env["ops"] = dict(Counter(sessions[-1].plan))

    record = {
        "environment": env,
        "failures": failures,
        "metrics": {k: list(v) for k, v in metrics.items()},
        "samples": [s.samples for s in sessions],
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("# " + json.dumps(env, sort_keys=True))
    for failure in failures:
        print(f"# FAILED {failure}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit:<6} n={n}")
    print(f"ops attempted {attempted}, failed {len(failures)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1
