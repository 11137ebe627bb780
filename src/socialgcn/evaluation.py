"""Top-N ranking evaluation (HR@N, NDCG@N) and the ablation runner.

Protocol: for each user with test positives, rank the positives against a
sample of unrated items (unrated in every split), repeat with fresh samples
and average. HR is recall-style: hits divided by the user's positive count.
Ties are broken by ascending item id so reports are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as M


class EvaluationError(Exception):
    pass


@dataclass
class EvalConfig:
    n_values: list[int] = field(default_factory=lambda: [5, 10, 15])
    num_negatives: int = 1000
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 1:
            raise EvaluationError("repetitions must be >= 1")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise EvaluationError("n_values must be positive")


@dataclass
class RankingTask:
    user: int
    positives: list[int]
    candidates: list[int]


@dataclass
class MetricReport:
    n_values: list[int]
    repetitions: int
    seed: int
    per_rep: dict  # (metric, N) -> list of per-repetition means over users
    hr_convention: str = "recall: hits / |user test positives|, averaged over users"

    def mean(self, metric, n):
        return float(np.mean(self.per_rep[(metric, n)]))

    def to_table(self):
        lines = ["metric\t" + "\t".join(f"N={n}" for n in self.n_values)]
        for metric in ("hr", "ndcg"):
            row = [metric.upper()] + [f"{self.mean(metric, n):.6f}" for n in self.n_values]
            lines.append("\t".join(row))
        return "\n".join(lines)


def build_tasks(bundle, num_negatives=1000, repetition_seed=0, split="test"):
    """One ranking task per user with at least one positive in `split`.

    Sampled candidates are uniform without replacement over the items the
    user rated in no split; if fewer than num_negatives exist, all are used.
    """
    target = getattr(bundle, split)
    rng = np.random.default_rng(repetition_seed)
    tasks = []
    n_items = bundle.num_items
    for a in range(bundle.num_users):
        positives = target.positives_by_user[a]
        if not positives:
            continue
        unrated = unrated_items(n_items, bundle.all_positive_items(a))
        if len(unrated) > num_negatives:
            sampled = rng.choice(unrated, size=num_negatives, replace=False)
        else:
            sampled = unrated
        tasks.append(
            RankingTask(user=a, positives=list(positives), candidates=list(positives) + sampled.tolist())
        )
    return tasks


def unrated_items(num_items, rated):
    """Ascending ids in range(num_items) that are not in `rated`."""
    mask = np.ones(num_items, dtype=bool)
    mask[list(rated)] = False
    return np.flatnonzero(mask)


def rank_candidates(candidates, scores):
    """Sort candidates by descending score, ties broken by ascending item id."""
    candidates = np.asarray(candidates)
    return candidates[np.lexsort((candidates, -np.asarray(scores)))].tolist()


def hit_ratio_at_n(ranked, positives, n):
    """|top-N intersect positives| / |positives|."""
    positives = set(positives)
    if not positives:
        raise EvaluationError("hit_ratio_at_n needs a non-empty positive set")
    hits = sum(1 for item in ranked[:n] if item in positives)
    return hits / len(positives)


def ndcg_at_n(ranked, positives, n):
    """Binary-gain DCG@N with 1/log2(rank+1) discounts, over the ideal DCG."""
    positives = set(positives)
    if not positives:
        raise EvaluationError("ndcg_at_n needs a non-empty positive set")
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, item in enumerate(ranked[:n], start=1)
        if item in positives
    )
    ideal = sum(1.0 / math.log2(rank + 1) for rank in range(1, min(len(positives), n) + 1))
    return dcg / ideal


def evaluate_tasks(tasks, scorer, n_values):
    """Mean metrics over tasks given scorer(task) -> candidate score array."""
    sums = {(m, n): 0.0 for m in ("hr", "ndcg") for n in n_values}
    for task in tasks:
        ranked = rank_candidates(task.candidates, scorer(task))
        for n in n_values:
            sums[("hr", n)] += hit_ratio_at_n(ranked, task.positives, n)
            sums[("ndcg", n)] += ndcg_at_n(ranked, task.positives, n)
    count = max(len(tasks), 1)
    return {key: value / count for key, value in sums.items()}


def evaluate(params, hypers, bundle, config, split="test"):
    """Run the sampled-candidate protocol `repetitions` times and average."""
    target = getattr(bundle, split)
    if target.num_edges == 0:
        raise EvaluationError(f"{split} split is empty")
    U, V, _ = M.forward_all(params, hypers, bundle)

    def scorer(task):
        return V[np.asarray(task.candidates, dtype=int)] @ U[task.user]

    per_rep = {(m, n): [] for m in ("hr", "ndcg") for n in config.n_values}
    for rep in range(config.repetitions):
        tasks = build_tasks(
            bundle, config.num_negatives, repetition_seed=[config.seed, rep], split=split
        )
        means = evaluate_tasks(tasks, scorer, config.n_values)
        for key, value in means.items():
            per_rep[key].append(value)
    return MetricReport(
        n_values=list(config.n_values),
        repetitions=config.repetitions,
        seed=config.seed,
        per_rep=per_rep,
    )


# ---------------------------------------------------------------------------
# ablation


ABLATION_VARIANTS = ("full", "k1", "featureless_k2", "featureless_k1", "p0")


def variant_hypers(base, name):
    """Hyperparameters for one named ablation variant of `base`."""
    if name == "full":
        return base
    if name == "k1":
        return replace(base, K=1)
    if name == "featureless_k2":
        return replace(base, feature_mode=M.FEATURELESS, L=base.D, K=2)
    if name == "featureless_k1":
        return replace(base, feature_mode=M.FEATURELESS, L=base.D, K=1)
    if name == "p0":
        return replace(base, pin_user_base=True)
    raise EvaluationError(
        f"unknown ablation variant {name!r}; valid: {', '.join(ABLATION_VARIANTS)}"
    )


def relative_change_percent(value, baseline):
    return 100.0 * (value - baseline) / baseline


def format_relative_change(value, baseline):
    """Signed percent change; 'n/a' when the baseline is 0."""
    if baseline == 0:
        return "n/a"
    return f"{relative_change_percent(value, baseline):+.2f}%"


@dataclass
class AblationRow:
    name: str
    hr: float
    ndcg: float
    hr_change: str
    ndcg_change: str


def run_ablation(bundle, base_hypers, train_config, eval_config, variants):
    """Train and evaluate each variant from the same seed and candidates.

    Percentage changes are relative to the "full" row when present,
    otherwise to the first listed variant.
    """
    from . import training

    if 10 not in eval_config.n_values:
        eval_config = replace(eval_config, n_values=sorted(set(eval_config.n_values) | {10}))
    results = []
    for name in variants:
        hv = variant_hypers(base_hypers, name)
        params, _ = training.train(bundle, hv, train_config)
        report = evaluate(params, hv, bundle, eval_config)
        results.append((name, report.mean("hr", 10), report.mean("ndcg", 10)))

    base_name = "full" if any(n == "full" for n, _, _ in results) else results[0][0]
    base_hr = next(hr for n, hr, _ in results if n == base_name)
    base_ndcg = next(nd for n, _, nd in results if n == base_name)
    rows = []
    for name, hr, ndcg in results:
        rows.append(
            AblationRow(
                name=name,
                hr=hr,
                ndcg=ndcg,
                hr_change=format_relative_change(hr, base_hr),
                ndcg_change=format_relative_change(ndcg, base_ndcg),
            )
        )
    return rows


def ablation_table(rows):
    lines = ["variant\tHR@10\tImprove.\tNDCG@10\tImprove."]
    for r in rows:
        lines.append(f"{r.name}\t{r.hr:.6f}\t{r.hr_change}\t{r.ndcg:.6f}\t{r.ndcg_change}")
    return "\n".join(lines)
