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


# Positive x candidate comparisons per block of tasks in evaluate_tasks; this
# bounds its padded blocks and comparison temporaries to about a megabyte.
_BLOCK_PAIRS = 1 << 15
_INT64 = np.iinfo(np.int64)


def _order_keys(scores):
    """int64 keys that order candidates as rank_candidates does by score.

    Higher keys are higher scores, -0.0 ties with 0.0, and NaN comes after
    -inf, where the sort of the negated scores puts it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    bits = (scores + 0.0).view(np.int64)
    keys = np.where(bits < 0, bits ^ np.int64(_INT64.max), bits)
    keys[np.isnan(scores)] = _INT64.min
    return keys


def _blocks(tasks):
    """Consecutive runs of tasks with about _BLOCK_PAIRS positive x candidate pairs each."""
    width = max(len(t.candidates) for t in tasks)
    cost = np.fromiter(map(len, (t.positives for t in tasks)), dtype=np.int64, count=len(tasks)) * width
    block = (np.cumsum(cost) - cost) // _BLOCK_PAIRS
    bounds = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(tasks)]
    return [tasks[start:stop] for start, stop in itertools.pairwise(bounds)]


def _ids(rows):
    """Every id of `rows` (int arrays or lists) in one int64 array, row after row."""
    return np.concatenate([np.asarray(row, dtype=np.int64) for row in rows])


def _rank_table(tasks, scorer):
    """Ranks of each task's distinct positives, one row per task, ascending.

    A positive's rank is how many of its task's candidates beat it. The
    padding of a row, and a positive that is not a candidate, hold int64
    max, which no cutoff reaches. Also returns each task's positive count.
    """
    sizes = np.fromiter(map(len, (t.candidates for t in tasks)), dtype=np.int64, count=len(tasks))
    slots = np.arange(max(sizes.max(), 1)) < sizes[:, None]
    keys = np.full(slots.shape, _INT64.min)  # padding never beats a candidate
    ids = np.full(slots.shape, _INT64.max)
    keys[slots] = _order_keys(np.concatenate([scorer(t) for t in tasks]))
    ids[slots] = _ids(t.candidates for t in tasks)
    lengths = np.fromiter(map(len, (t.positives for t in tasks)), dtype=np.int64, count=len(tasks))
    rows = np.repeat(np.arange(len(tasks)), lengths)
    pos = _ids(t.positives for t in tasks)
    order = np.lexsort((pos, rows))
    rows, pos = rows[order], pos[order]
    distinct = np.ones(len(pos), dtype=bool)
    distinct[1:] = (rows[1:] != rows[:-1]) | (pos[1:] != pos[:-1])
    rows, pos = rows[distinct], pos[distinct, None]
    counts = np.bincount(rows, minlength=len(tasks))
    row_ids, row_keys = ids[rows], keys[rows]
    match = row_ids == pos
    own = np.take_along_axis(row_keys, match.argmax(axis=1)[:, None], axis=1)
    ranks = np.count_nonzero((row_keys > own) | ((row_keys == own) & (row_ids < pos)), axis=1)
    ranks[~match.any(axis=1)] = _INT64.max
    table = np.full((len(tasks), counts.max()), _INT64.max)
    table[rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)] = ranks
    table.sort(axis=1)
    return table, counts


def evaluate_tasks(tasks, scorer, n_values):
    """Mean metrics over tasks given scorer(task) -> candidate score array.

    Candidates are distinct ids. Every positive is ranked at once by how
    many candidates beat it: a higher score, or an equal score and a lower
    id, the order of rank_candidates. DCG sums run in rank order and the
    means over tasks in task order, each from 0.0, so the results equal
    hit_ratio_at_n and ndcg_at_n over rank_candidates, task by task.
    """
    sums = {(m, n): 0.0 for m in ("hr", "ndcg") for n in n_values}
    if not all(map(len, (t.positives for t in tasks))):
        raise EvaluationError("every ranking task needs a non-empty positive set")
    discount = np.array([1.0 / math.log2(rank + 1) for rank in range(1, max(n_values) + 1)])
    ideal = np.array(list(itertools.accumulate(discount.tolist(), initial=0.0)))  # DCG of m hits on top
    for block in _blocks(tasks) if tasks else []:
        table, counts = _rank_table(block, scorer)
        for n in n_values:
            hit = table < n
            dcg = np.zeros(len(block))
            for gains in np.where(hit, discount.take(table, mode="clip"), 0.0).T:
                dcg += gains
            per_task = {
                ("hr", n): np.count_nonzero(hit, axis=1) / counts,
                ("ndcg", n): dcg / ideal[np.minimum(counts, n)],
            }
            for key, values in per_task.items():
                for value in values.tolist():
                    sums[key] += value
    count = max(len(tasks), 1)
    return {key: value / count for key, value in sums.items()}


def evaluate(params, hypers, bundle, config, split="test"):
    """Run the sampled-candidate protocol `repetitions` times and average."""
    target = getattr(bundle, split)
    if target.num_edges == 0:
        raise EvaluationError(f"{split} split is empty")
    U, V, _ = M.forward_all(params, hypers, bundle)

    def scorer(task):
        return V.take(task.candidates, axis=0) @ U[task.user]

    per_rep = {(m, n): [] for m in ("hr", "ndcg") for n in config.n_values}
    for rep in range(config.repetitions):
        tasks = build_tasks(bundle, config.num_negatives, repetition_seed=[config.seed, rep], split=split)
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
