import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle as O
from socialgcn import data as D
from socialgcn import evaluation as E
from socialgcn import model as M
from socialgcn import training as T


def brute_force_metrics(candidates, scores, positives, n):
    """From-definition HR/NDCG: fully sort, then recompute both metrics."""
    ranked = [c for _, c in sorted(zip(scores, candidates), key=lambda t: (-t[0], t[1]))]
    top = ranked[:n]
    hits = [c for c in top if c in positives]
    hr = len(hits) / len(positives)
    dcg = 0.0
    for rank, c in enumerate(top, start=1):
        if c in positives:
            dcg += 1.0 / math.log2(rank + 1)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(positives), n) + 1))
    return hr, dcg / idcg


class TestHitRatio:
    def test_single_positive_inside_top(self):
        ranked = list(range(20))
        assert E.hit_ratio_at_n(ranked, {2}, 10) == 1.0

    def test_single_positive_outside_top(self):
        ranked = list(range(20))
        assert E.hit_ratio_at_n(ranked, {10}, 10) == 0.0

    def test_half_of_two_positives(self):
        ranked = list(range(20))
        assert E.hit_ratio_at_n(ranked, {3, 11}, 5) == 0.5

    def test_empty_positives_rejected(self):
        with pytest.raises(E.EvaluationError):
            E.hit_ratio_at_n([1, 2], set(), 5)


class TestNdcg:
    def test_rank_one_is_ideal(self):
        assert E.ndcg_at_n([7, 1, 2], {7}, 10) == 1.0

    def test_rank_two_closed_form(self):
        assert E.ndcg_at_n([1, 7, 2], {7}, 10) == pytest.approx(
            0.6309297535714574, rel=1e-12
        )

    def test_two_positives_on_top(self):
        assert E.ndcg_at_n([4, 9, 1, 2], {4, 9}, 2) == 1.0

    def test_hr_monotone_in_n(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ranked = list(rng.permutation(15))
            positives = set(rng.choice(15, size=4, replace=False).tolist())
            hr_prev = 0.0
            for n in range(1, 16):
                hr = E.hit_ratio_at_n(ranked, positives, n)
                assert hr >= hr_prev - 1e-12
                hr_prev = hr

    def test_ndcg_monotone_in_n_single_positive(self):
        # with one positive the ideal DCG is 1 for every N, so NDCG@N is
        # non-decreasing; with several positives the normalizer grows with
        # N and the ratio may legitimately dip
        rng = np.random.default_rng(1)
        for _ in range(20):
            ranked = list(rng.permutation(15))
            positives = {int(rng.integers(15))}
            prev = 0.0
            for n in range(1, 16):
                nd = E.ndcg_at_n(ranked, positives, n)
                assert nd >= prev - 1e-12
                prev = nd


class TestBruteForceOracle:
    def test_small_instances_match_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(200)        :
            n_cand = int(rng.integers(2, 13))
            candidates = list(rng.choice(100, size=n_cand, replace=False))
            scores = rng.normal(size=n_cand)
            n_pos = int(rng.integers(1, n_cand))
            positives = set(int(c) for c in rng.choice(candidates, size=n_pos, replace=False))
            n = int(rng.integers(1, n_cand + 2))
            ranked = E.rank_candidates(candidates, scores)
            hr_bf, ndcg_bf = brute_force_metrics(candidates, scores, positives, n)
            assert E.hit_ratio_at_n(ranked, positives, n) == hr_bf
            assert E.ndcg_at_n(ranked, positives, n) == pytest.approx(ndcg_bf, abs=1e-12)


class TestRankCandidates:
    def test_matches_sorted_with_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n_cand = int(rng.integers(1, 40))
            candidates = [int(c) for c in rng.choice(500, size=n_cand, replace=False)]
            scores = rng.integers(-2, 3, size=n_cand) * 0.5  # many exact ties
            want = sorted(range(n_cand), key=lambda t: (-scores[t], candidates[t]))
            assert E.rank_candidates(candidates, scores) == [candidates[t] for t in want]


class TestBuildTasks:
    def bundle(self):
        return D.generate_synthetic(D.SyntheticSpec(users=20, items=50, seed=2))

    def test_no_task_without_test_positive(self):
        b = self.bundle()
        tasks = E.build_tasks(b, num_negatives=10, repetition_seed=0)
        users_with_pos = {a for a in range(b.num_users) if b.test.positives_by_user[a]}
        assert {t.user for t in tasks} == users_with_pos

    def test_exhaustion_uses_all_unrated(self):
        b = self.bundle()
        tasks = E.build_tasks(b, num_negatives=10_000, repetition_seed=0)
        for t in tasks:
            rated = O.all_positive_items(b, t.user)
            assert len(t.candidates) == len(t.positives) + (b.num_items - len(rated))

    def test_candidates_unrated_in_every_split(self):
        b = self.bundle()
        tasks = E.build_tasks(b, num_negatives=20, repetition_seed=3)
        for t in tasks:
            rated = O.all_positive_items(b, t.user)
            sampled = set(t.candidates.tolist()) - set(t.positives.tolist())
            assert not (sampled & rated)
            for p in t.positives:
                assert np.count_nonzero(t.candidates == p) == 1

    def test_deterministic(self):
        b = self.bundle()
        t1 = E.build_tasks(b, num_negatives=20, repetition_seed=9)
        t2 = E.build_tasks(b, num_negatives=20, repetition_seed=9)
        listed = lambda tasks: [(t.user, t.candidates.tolist()) for t in tasks]
        assert listed(t1) == listed(t2)

    def test_train_then_evaluate_build_each_operator_once(self, monkeypatch):
        b = self.bundle()
        assert b.validation.num_edges > 0
        built = []  # (attribute, id of the object it was built for)
        for cls, name in ((D._Table, "row_mean"), (D._Table, "row_mean_t"), (D.DatasetBundle, "rated")):

            def counted(obj, build=vars(cls)[name].func, name=name):
                built.append((name, id(obj)))
                return build(obj)

            prop = functools.cached_property(counted)
            prop.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, prop)
        hy = M.HyperParams(D=3, L=2, K=1)
        params, log = T.train(b, hy, T.TrainConfig(max_epochs=2, batch_size=64, seed=0, val_negatives=10))
        config = E.EvalConfig(n_values=[5], num_negatives=10, repetitions=3)
        report = E.evaluate(params, hy, b, config)
        assert len(log) == 2
        assert sorted(built) == sorted(
            [(name, id(table)) for name in ("row_mean", "row_mean_t") for table in (b.train, b.social)]
            + [("rated", id(b))]
        )
        fresh = self.bundle()
        assert E.evaluate(params, hy, fresh, config).per_rep == report.per_rep
        listed = lambda tasks: [(t.user, t.positives.tobytes(), t.candidates.tobytes()) for t in tasks]
        for split in ("validation", "test"):
            assert listed(E.build_tasks(b, 20, 9, split)) == listed(E.build_tasks(fresh, 20, 9, split))


SPLITS = ("train", "validation", "test")


@st.composite
def split_bundles(draw):
    """Bundles where each user rates no item, some items or every item, each
    rated item in one or more splits."""
    n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(1, 20))
    edges = {name: [] for name in SPLITS}
    for a in range(n_users):
        rated = draw(st.sampled_from([[], list(range(n_items)), None]))
        if rated is None:
            rated = draw(st.lists(st.integers(0, n_items - 1), unique=True))
        for i in rated:
            for name in draw(st.sets(st.sampled_from(SPLITS), min_size=1)):
                edges[name].append((a, i))
    return D.DatasetBundle(*(D.InteractionMatrix.from_edges(edges[n], n_users, n_items) for n in SPLITS))


class TestBuildTasksMatchesListReference:
    @settings(max_examples=300, deadline=None)
    @given(
        bundle=split_bundles(),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        split=st.sampled_from(SPLITS),
    )
    def test_equal_tasks_and_generator_state(self, bundle, data, seed, split):
        # one below, at or one above some user's count of unrated items
        unrated = [bundle.num_items - len(O.all_positive_items(bundle, a)) for a in range(bundle.num_users)]
        num_negatives = max(0, data.draw(st.sampled_from(unrated)) + data.draw(st.integers(-1, 1)))
        made = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        with mock.patch.object(np.random, "default_rng", recording_rng):
            got = E.build_tasks(bundle, num_negatives, seed, split)
            want = O.build_tasks(bundle, num_negatives, seed, split)
        assert [(t.user, t.positives.tolist(), t.candidates.tolist()) for t in got] == [
            (t.user, t.positives, t.candidates) for t in want
        ]
        assert all(t.positives.dtype == t.candidates.dtype == np.int64 for t in got)
        assert made[0].bit_generator.state == made[1].bit_generator.state


class TestEvaluate:
    def test_perfect_scorer_reaches_one(self):
        b = D.generate_synthetic(D.SyntheticSpec(users=15, items=30, seed=4))
        tasks = E.build_tasks(b, num_negatives=20, repetition_seed=0)
        tasks = [t for t in tasks if len(t.positives) <= 5]

        def perfect(task):
            pos = set(task.positives)
            return np.array([1.0 if c in pos else 0.0 for c in task.candidates])

        means = E.evaluate_tasks(tasks, perfect, [5, 10])
        assert means[("hr", 10)] == 1.0
        assert means[("ndcg", 10)] == 1.0

    def test_candidate_order_does_not_matter(self):
        b = D.generate_synthetic(D.SyntheticSpec(users=12, items=25, seed=5))
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, 12, 25, 8, 8, seed=0)
        U, V, _ = M.forward_all(params, hy, b)
        tasks = E.build_tasks(b, num_negatives=15, repetition_seed=1)
        scorer = lambda t: V[np.asarray(t.candidates)] @ U[t.user]
        base = E.evaluate_tasks(tasks, scorer, [10])
        for t in tasks:
            t.candidates = t.candidates[::-1]
        flipped = E.evaluate_tasks(tasks, scorer, [10])
        assert base == flipped

    def test_repetition_seeding_contract(self):
        b = D.generate_synthetic(D.SyntheticSpec(users=15, items=30, seed=6))
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, 15, 30, 8, 8, seed=1)
        r1 = E.evaluate(params, hy, b, E.EvalConfig(n_values=[10], num_negatives=10,
                                                    repetitions=1, seed=5))
        r10 = E.evaluate(params, hy, b, E.EvalConfig(n_values=[10], num_negatives=10,
                                                     repetitions=4, seed=5))
        assert r1.per_rep[("hr", 10)][0] == r10.per_rep[("hr", 10)][0]
        assert r1.per_rep[("ndcg", 10)][0] == r10.per_rep[("ndcg", 10)][0]

    def test_empty_test_split_rejected(self):
        b = D.generate_synthetic(D.SyntheticSpec(users=15, items=30, seed=7))
        empty = D.InteractionMatrix.from_edges([], b.num_users, b.num_items)
        bad = D.DatasetBundle(b.train, b.validation, empty, b.social,
                              b.user_features, b.item_features)
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, 15, 30, 8, 8, seed=2)
        with pytest.raises(E.EvaluationError, match="empty"):
            E.evaluate(params, hy, bad, E.EvalConfig())

    def test_random_scores_hr_near_uniform_expectation(self):
        # 1 positive vs 200 negatives: E[HR@10] = 10/201
        rng = np.random.default_rng(8)
        n_tasks = 800
        hits = 0
        for _ in range(n_tasks):
            candidates = list(range(201))
            scores = rng.normal(size=201)
            ranked = E.rank_candidates(candidates, scores)
            hits += E.hit_ratio_at_n(ranked, {0}, 10)
        p = 10 / 201
        sigma = math.sqrt(p * (1 - p) / n_tasks)
        assert abs(hits / n_tasks - p) < 3 * sigma


class TestAblation:
    def test_relative_change_formatting(self):
        assert E.format_relative_change(0.1573, 0.1621) == "-2.96%"
        assert E.format_relative_change(0.2, 0.2) == "+0.00%"

    def test_zero_baseline_is_not_applicable(self):
        assert E.format_relative_change(0.1, 0.0) == "n/a"
        assert E.format_relative_change(0.0, 0.0) == "n/a"

    def test_unknown_variant_lists_valid_names(self):
        with pytest.raises(E.EvaluationError, match="full"):
            E.variant_hypers(M.HyperParams(D=4, L=3), "bogus")

    def test_variant_hypers(self):
        base = M.HyperParams(D=4, L=3, K=2)
        assert E.variant_hypers(base, "k1").K == 1
        fl = E.variant_hypers(base, "featureless_k2")
        assert fl.feature_mode == M.FEATURELESS and fl.L == 4 and fl.K == 2
        assert E.variant_hypers(base, "p0").pin_user_base

    def test_p0_has_fewer_trainable_parameters(self):
        base = M.HyperParams(D=4, L=3, K=2)
        full = M.init_params(base, 20, 15, 8, 8, seed=0)
        pinned = M.init_params(E.variant_hypers(base, "p0"), 20, 15, 8, 8, seed=0)
        assert full.trainable_mask().sum() - pinned.trainable_mask().sum() == 20 * 3
        assert np.array_equal(pinned["P"], np.zeros((20, 3)))

    def test_full_only_run_has_zero_delta(self):
        bundle = D.generate_synthetic(D.SyntheticSpec(users=20, items=18, seed=9))
        hy = M.HyperParams(D=3, L=2, K=1)
        tc = T.TrainConfig(max_epochs=2, batch_size=64, seed=0, val_negatives=10)
        ec = E.EvalConfig(n_values=[10], num_negatives=10, repetitions=1, seed=0)
        rows = E.run_ablation(bundle, hy, tc, ec, ["full"])
        assert len(rows) == 1
        assert rows[0].hr_change == "+0.00%" and rows[0].ndcg_change == "+0.00%"


@st.composite
def ranking_tasks(draw):
    """Tasks with distinct candidates, heavily tied scores, and positives that may
    repeat, miss the candidates or cover them all; plus score tables by id."""
    tasks, scores = [], {}
    for user in range(draw(st.integers(0, 7))):
        candidates = draw(st.lists(st.integers(0, 60), unique=True, max_size=25))
        choices = [st.lists(st.integers(0, 60), min_size=1, max_size=4)]
        if candidates:
            choices += [st.just(list(candidates)), st.lists(st.sampled_from(candidates), min_size=1)]
        positives = draw(st.one_of(choices))
        tied = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, math.inf, -math.inf, math.nan])
        values = draw(st.lists(tied | st.floats(-3, 3), min_size=len(candidates), max_size=len(candidates)))
        scores[user] = dict(zip(candidates, values))
        tasks.append(E.RankingTask(user, positives, candidates))
    return tasks, scores


class TestBatchedEvaluateTasks:
    @staticmethod
    def hexes(means):
        return [(key, value.hex()) for key, value in means.items()]

    @settings(max_examples=300, deadline=None)
    @given(
        drawn=ranking_tasks(),
        n_values=st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True),
        reverse=st.booleans(),
    )
    def test_bit_identical_to_per_task_reference(self, drawn, n_values, reverse):
        tasks, scores = drawn
        if reverse:
            for t in tasks:
                t.candidates = t.candidates[::-1]

        def scorer(task):
            return np.array([scores[task.user][c] for c in task.candidates])

        assert self.hexes(E.evaluate_tasks(tasks, scorer, n_values)) == self.hexes(
            O.evaluate_tasks(tasks, scorer, n_values)
        )

    def test_blocks_of_a_full_evaluation_match_reference(self):
        b = D.generate_synthetic(D.SyntheticSpec(users=150, items=300, seed=3))
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, 150, 300, 8, 8, seed=0)
        U, V, _ = M.forward_all(params, hy, b)
        tasks = E.build_tasks(b, num_negatives=1000, repetition_seed=2)
        assert len(E._blocks(tasks)) > 1
        scorer = lambda t: V[np.asarray(t.candidates)] @ U[t.user]
        n_values = [1, 5, 10, 400]
        assert self.hexes(E.evaluate_tasks(tasks, scorer, n_values)) == self.hexes(
            O.evaluate_tasks(tasks, scorer, n_values)
        )
