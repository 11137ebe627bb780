"""Top-N ranking evaluation (HR@N, NDCG@N) and the ablation runner.

Protocol: for each user with test positives, rank the positives against a
sample of unrated items (unrated in every split), repeat with fresh samples
and average. HR is recall-style: hits divided by the user's positive count.
Ties are broken by ascending item id so reports are reproducible.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import model as M
from .bounds import check, setting


class EvaluationError(Exception):
    pass


@dataclass
class EvalConfig:
    n_values: list[int] = field(default_factory=lambda: [5, 10, 15])
    num_negatives: int = setting(1000, within=">= 1")
    repetitions: int = setting(10, within=">= 1")
    seed: int = setting(0, within=">= 0")

    def __post_init__(self):
        check(EvalConfig, vars(self), EvaluationError)
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise EvaluationError("n_values must be positive")
        if len(set(self.n_values)) < len(self.n_values):
            raise EvaluationError("n_values must list distinct cutoffs")


@dataclass
class RankingTask:
    """One user's held-out positives and the candidates they are ranked among.

    build_tasks makes both int64 arrays, the positives ascending and the
    candidates the positives followed by the sampled unrated items.
    """

    user: int
    positives: np.ndarray
    candidates: np.ndarray


@dataclass
class MetricReport:
    n_values: list[int]
    repetitions: int
    seed: int
    per_rep: dict  # (metric, N) -> list of per-repetition means over users
    hr_convention: ClassVar[str] = "recall: hits / |user test positives|, averaged over users"

    def mean(self, metric, n):
        return float(np.mean(self.per_rep[(metric, n)]))

    def to_table(self):
        lines = ["metric\t" + "\t".join(f"N={n}" for n in self.n_values)]
        for metric in ("hr", "ndcg"):
            row = [metric.upper()] + [f"{self.mean(metric, n):.6f}" for n in self.n_values]
            lines.append("\t".join(row))
        return "\n".join(lines)


def build_tasks(bundle, num_negatives, repetition_seed=0, split="test"):
    """One ranking task per user with at least one positive in `split`, in user order.

    Sampled candidates are uniform without replacement over the items the
    user rated in no split; if fewer than num_negatives exist, all are used.
    The Generator draws once per user that needs sampling, in user order.
    """
    rated_ptr, rated_items = bundle.rated
    target = getattr(bundle, split)
    pos_ptr = target.indptr.tolist()
    unrated = np.ones(bundle.num_items, dtype=bool)  # cleared at one user's rated items at a time
    rng = np.random.default_rng(repetition_seed)
    tasks = []
    for a in np.flatnonzero(np.diff(target.indptr)).tolist():
        rated = rated_items[rated_ptr[a] : rated_ptr[a + 1]]
        unrated[rated] = False
        sampled = unrated.nonzero()[0]
        unrated[rated] = True
        if len(sampled) > num_negatives:
            sampled = rng.choice(sampled, size=num_negatives, replace=False)
        positives = target.indices[pos_ptr[a] : pos_ptr[a + 1]]
        tasks.append(RankingTask(a, positives, np.concatenate((positives, sampled))))
    return tasks


def unrated_items(num_items, rated):
    """Ascending ids in range(num_items) that are not in `rated`, an int array or a list of ints."""
    mask = np.ones(num_items, dtype=bool)
    mask[np.asarray(rated, dtype=np.int64)] = False
    return np.flatnonzero(mask)


# Positive x candidate comparisons per block of tasks in evaluate_tasks; this
# bounds its padded blocks and comparison temporaries to about a megabyte.
_BLOCK_PAIRS = 1 << 15
_INT64 = np.iinfo(np.int64)


def order_keys(scores):
    """int64 keys that give the candidate order of evaluate and predict.

    A candidate ranks above another when its key is higher, or when the keys
    are equal and its id is lower. Higher keys are higher scores, -0.0 ties
    with 0.0, and NaN ranks below -inf.
    """
    scores = np.asarray(scores, dtype=np.float64)
    bits = (scores + 0.0).view(np.int64)
    keys = (bits >> 63) & _INT64.max  # flips the magnitude bits of negative scores only
    keys ^= bits
    keys[np.isnan(scores)] = _INT64.min
    return keys


def _blocks(counts, width):
    """Bounds of consecutive runs of tasks with about _BLOCK_PAIRS positive x candidate pairs each."""
    cost = counts * width
    block = (np.cumsum(cost) - cost) // _BLOCK_PAIRS
    bounds = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(counts)]
    return list(itertools.pairwise(bounds))


def _rank_block(tasks, scorer, counts):
    """Rank of every positive of `tasks`, task by task, each with counts[t] positives.

    A positive's rank is how many of its task's candidates beat it: a higher
    key, or an equal key and a lower id. Positive j of task t is its
    candidate j.
    """
    sizes = np.fromiter(map(len, (t.candidates for t in tasks)), dtype=np.int64, count=len(tasks))
    slots = np.arange(sizes.max()) < sizes[:, None]
    keys = np.full(slots.shape, _INT64.min)  # padding never beats a candidate
    ids = np.full(slots.shape, _INT64.max)
    keys[slots] = order_keys(np.concatenate([scorer(t) for t in tasks]))
    ids[slots] = np.concatenate([t.candidates for t in tasks])
    rows, col = np.nonzero(np.arange(counts.max()) < counts[:, None])
    row_keys = keys[rows]
    own = keys[rows, col][:, None]
    ranks = np.count_nonzero(row_keys > own, axis=1)
    tied = np.flatnonzero(np.count_nonzero(row_keys >= own, axis=1) > ranks + 1)
    pos = ids[rows[tied], col[tied]][:, None]
    ranks[tied] += np.count_nonzero((row_keys[tied] == own[tied]) & (ids[rows[tied]] < pos), axis=1)
    return ranks


def evaluate_tasks(tasks, scorer, n_values):
    """Mean metrics over tasks given scorer(task) -> candidate score array.

    Each task is laid out as build_tasks makes it: its positives are
    distinct, ascending and non-empty, they come first among its
    candidates, and the sampled candidates after them are distinct and no
    positive. Every positive is ranked by how many candidates beat it in
    the order of order_keys: a higher key, or an equal key and a lower id.
    Ranking runs in blocks of tasks; the cutoffs then read one rank table
    of all tasks. DCG sums run in rank order and the means over tasks in
    task order, each from 0.0, so the results equal the scalar HR@N and
    NDCG@N of that order, task by task (`hit_ratio_at_n` and `ndcg_at_n` in
    tests/oracle.py).
    """
    sums = {(m, n): 0.0 for m in ("hr", "ndcg") for n in n_values}
    if not tasks:
        return sums
    counts = np.fromiter(map(len, (t.positives for t in tasks)), dtype=np.int64, count=len(tasks))
    width = max(map(len, (t.candidates for t in tasks)))
    ranks = np.concatenate([_rank_block(tasks[a:b], scorer, counts[a:b]) for a, b in _blocks(counts, width)])
    table = np.full((len(tasks), counts.max()), _INT64.max)
    table[np.arange(counts.max()) < counts[:, None]] = ranks
    table.sort(axis=1)
    # a hit ranks below its task's candidate count, and ideal reads at most the positive count
    depth = min(max(n_values), max(width, counts.max()))
    discount = np.array([1.0 / math.log2(rank + 1) for rank in range(1, depth + 1)])
    ideal = np.array(list(itertools.accumulate(discount.tolist(), initial=0.0)))  # DCG of m hits on top
    for n in n_values:
        hit = table < n
        dcg = np.zeros(len(tasks))
        for gains in np.where(hit, discount.take(table, mode="clip"), 0.0).T:
            dcg += gains
        per_task = {
            ("hr", n): np.count_nonzero(hit, axis=1) / counts,
            ("ndcg", n): dcg / ideal[np.minimum(counts, n)],
        }
        for key, values in per_task.items():
            for value in values.tolist():
                sums[key] += value
    return {key: value / len(tasks) for key, value in sums.items()}


def evaluate(params, hypers, bundle, config, split="test", task_cache=None):
    """Run the sampled-candidate protocol `repetitions` times and average.

    `task_cache`, a list, keeps each repetition's tasks across calls with
    one bundle, config and split: a repetition not in it yet is built and
    appended, and later calls reuse it. A model.NonFiniteError when the
    forward gives an inf or a NaN, or scores that could overflow.
    """
    target = getattr(bundle, split)
    if target.num_edges == 0:
        raise EvaluationError(f"{split} split is empty")
    U, V, _ = M.finite_forward(params, hypers, bundle)

    def scorer(task):
        return V.take(task.candidates, axis=0) @ U[task.user]

    per_rep = {(m, n): [] for m in ("hr", "ndcg") for n in config.n_values}
    tasks = [] if task_cache is None else task_cache
    for rep in range(config.repetitions):
        if rep == len(tasks):
            tasks.append(build_tasks(bundle, config.num_negatives, repetition_seed=[config.seed, rep], split=split))
        means = evaluate_tasks(tasks[rep], scorer, config.n_values)
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


_VARIANTS = {
    "full": lambda hy: hy,
    "k1": lambda hy: replace(hy, K=1),
    "featureless_k2": lambda hy: replace(hy, feature_mode=M.FEATURELESS, L=hy.D, K=2),
    "featureless_k1": lambda hy: replace(hy, feature_mode=M.FEATURELESS, L=hy.D, K=1),
    "p0": lambda hy: replace(hy, pin_user_base=True),
}
ABLATION_VARIANTS = tuple(_VARIANTS)


def check_variants(variants):
    """Raise an EvaluationError unless `variants` lists distinct known variant names, at least one."""
    if not variants:
        raise EvaluationError("variants must list at least one ablation variant")
    if len(set(variants)) < len(variants):
        raise EvaluationError(f"variants must list distinct variants, got {list(variants)}")
    for name in variants:
        if name not in _VARIANTS:
            raise EvaluationError(f"unknown ablation variant {name!r}; valid: {', '.join(ABLATION_VARIANTS)}")


def variant_hypers(base, name):
    """Hyperparameters for one named ablation variant of `base`."""
    check_variants([name])
    return _VARIANTS[name](base)


def format_relative_change(value, baseline):
    """Signed percent change; 'n/a' when the baseline is 0."""
    if baseline == 0:
        return "n/a"
    return f"{100.0 * (value - baseline) / baseline:+.2f}%"


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

    check_variants(variants)
    if 10 not in eval_config.n_values:
        eval_config = replace(eval_config, n_values=sorted(set(eval_config.n_values) | {10}))
    results = []
    for name in variants:
        hv = variant_hypers(base_hypers, name)
        params, _ = training.train(bundle, hv, train_config)
        report = evaluate(params, hv, bundle, eval_config)
        results.append((name, report.mean("hr", 10), report.mean("ndcg", 10)))

    _, base_hr, base_ndcg = next((r for r in results if r[0] == "full"), results[0])
    return [
        AblationRow(name, hr, ndcg, format_relative_change(hr, base_hr), format_relative_change(ndcg, base_ndcg))
        for name, hr, ndcg in results
    ]


def ablation_table(rows):
    lines = ["variant\tHR@10\tImprove.\tNDCG@10\tImprove."]
    for r in rows:
        lines.append(f"{r.name}\t{r.hr:.6f}\t{r.hr_change}\t{r.ndcg:.6f}\t{r.ndcg_change}")
    return "\n".join(lines)
