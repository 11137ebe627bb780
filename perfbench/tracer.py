"""In-memory span tracer that times socialgcn's layers from outside.

`Tracer.install` replaces module-level functions of the package with timing
wrappers, so nothing under `src/` changes; `uninstall` puts the originals
back. Every span records its name, the kind of benchmark op it ran under
("setup", "train", "evaluate" or "predict"), its parent span and its start
and end. Spans stay in memory until `dump` writes them out at the end.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _pairs(result, args):
    samples, skipped = result
    return {"pairs": len(samples), "skipped_users": skipped}


def _tasks(result, args):
    return {"tasks": len(result), "candidates": sum(len(t.candidates) for t in result)}


def _file_bytes(result, args):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, attribute path, counter or None)
TARGETS = {
    "data.generate_synthetic": ("data", "generate_synthetic", None),
    "data.split": ("data", "split", None),
    "data.load_interactions": ("data", "load_interactions", None),
    "data.load_social": ("data", "load_social", None),
    "data.load_features": ("data", "load_features", None),
    "data.fingerprint": ("data", "DatasetBundle.fingerprint", None),
    "model.aggregate_all": ("model", "aggregate_all", None),
    "model.forward_all": ("model", "forward_all", None),
    "model.history_mean_matrix": ("model", "history_mean_matrix", None),
    "model.mean_adjacency": ("model", "mean_adjacency", None),
    "training.train": ("training", "train", None),
    "training.sample_pairs": ("training", "sample_pairs", _pairs),
    "training.adam_step": ("training", "adam_step", None),
    "evaluation.evaluate": ("evaluation", "evaluate", None),
    "evaluation.build_tasks": ("evaluation", "build_tasks", _tasks),
    "evaluation.rank_candidates": ("evaluation", "rank_candidates", None),
    "checkpoint.load_checkpoint": ("checkpoint", "load_checkpoint", _file_bytes),
    "checkpoint.save_checkpoint": ("checkpoint", "save_checkpoint", _file_bytes),
    "cli.build_bundle": ("cli", "build_bundle", None),
    "cli.predict": ("cli", "cmd_predict", None),
}

# per-layer metric -> (span name, statistic, unit)
# statistic: "time" (inclusive seconds), "self" (seconds minus child spans),
# "calls" (span count) or "count:<key>" (a counter recorded by the span; a
# bare module name sums the counter over that module's spans).
PER_LAYER = {
    "training.sample_pairs_s": ("training.sample_pairs", "time", "s"),
    "training.pairs": ("training.sample_pairs", "count:pairs", "count"),
    "training.adam_step_s": ("training.adam_step", "time", "s"),
    "training.train_self_s": ("training.train", "self", "s"),
    "training.skipped_users": ("training.sample_pairs", "count:skipped_users", "count"),
    "model.aggregate_all_s": ("model.aggregate_all", "time", "s"),
    "model.aggregate_all_calls": ("model.aggregate_all", "calls", "count"),
    "model.forward_all_s": ("model.forward_all", "time", "s"),
    "model.forward_all_calls": ("model.forward_all", "calls", "count"),
    "model.history_mean_matrix_s": ("model.history_mean_matrix", "time", "s"),
    "model.history_mean_matrix_calls": ("model.history_mean_matrix", "calls", "count"),
    "model.mean_adjacency_s": ("model.mean_adjacency", "time", "s"),
    "model.mean_adjacency_calls": ("model.mean_adjacency", "calls", "count"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "time", "s"),
    "evaluation.build_tasks_s": ("evaluation.build_tasks", "time", "s"),
    "evaluation.rank_candidates_s": ("evaluation.rank_candidates", "time", "s"),
    "evaluation.tasks": ("evaluation.build_tasks", "count:tasks", "count"),
    "evaluation.candidates": ("evaluation.build_tasks", "count:candidates", "count"),
    "data.generate_synthetic_s": ("data.generate_synthetic", "time", "s"),
    "data.split_s": ("data.split", "time", "s"),
    "cli.build_bundle_s": ("cli.build_bundle", "time", "s"),
    "data.load_interactions_s": ("data.load_interactions", "time", "s"),
    "data.load_social_s": ("data.load_social", "time", "s"),
    "data.load_features_s": ("data.load_features", "time", "s"),
    "data.fingerprint_s": ("data.fingerprint", "time", "s"),
    "checkpoint.load_checkpoint_s": ("checkpoint.load_checkpoint", "time", "s"),
    "checkpoint.save_checkpoint_s": ("checkpoint.save_checkpoint", "time", "s"),
    "checkpoint.bytes": ("checkpoint", "count:bytes", "bytes"),
    "cli.predict_self_s": ("cli.predict", "self", "s"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op, parent index, start, end]
        self.counts = defaultdict(float)  # (op, span name, counter key) -> total
        self.op = "setup"
        self.active = True
        self.missing = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, self.op, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counted = counter(result, args)
                except (TypeError, ValueError, IndexError, AttributeError, OSError):
                    counted = {}  # the function changed shape: lose the count, not the call
                    if f"{name} counter" not in self.missing:
                        self.missing.append(f"{name} counter")
                for key, value in counted.items():
                    self.counts[(self.op, name, key)] += value
            return result

        return traced

    def install(self):
        """Wrap every TARGETS function in place, including re-exported aliases."""
        package = [m for n, m in sys.modules.items() if n == "socialgcn" or n.startswith("socialgcn.")]
        for name, (module, path, counter) in TARGETS.items():
            owner = sys.modules.get(f"socialgcn.{module}")
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path.split(".")[-1], None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original, counter)
            for target in [owner] + package:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapped)
                        self._patched.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def per_layer(self, op_counts):
        """Per-layer metrics for one op of each kind.

        Each span total is divided by the number of ops of the kind it ran
        under, then summed over kinds: the figure is the layer's cost in one
        setup plus one training epoch plus one evaluate plus one predict.
        """
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)  # (span, statistic, op) -> total over the run
        for index, (name, op, parent, start, end) in enumerate(self.spans):
            totals[(name, "time", op)] += end - start
            totals[(name, "self", op)] += end - start - child[index]
            totals[(name, "calls", op)] += 1
        for (op, name, key), value in self.counts.items():
            for span in (name, name.split(".")[0]):
                totals[(span, f"count:{key}", op)] += value
        stats = defaultdict(float)
        for (span, stat, op), total in totals.items():
            stats[(span, stat)] += total / op_counts[op]
        return {metric: (stats[(span, stat)], unit) for metric, (span, stat, unit) in PER_LAYER.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "op", "parent", "start", "end"], "spans": self.spans}, fh)
