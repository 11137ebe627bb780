import dataclasses
import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialgcn import data as D
from socialgcn import evaluation as E
from socialgcn import model as M
from socialgcn import training as T

import oracle as O

LN2 = 0.6931471805599453

finite = st.floats(min_value=-30, max_value=30, allow_nan=False)


def tiny_bundle(users=6, items=5, seed=0):
    return D.generate_synthetic(D.SyntheticSpec(users=users, items=items, seed=seed))


def pairs(*triples):
    """T.Pairs from (user, pos_item, neg_item) triples."""
    users, pos, neg = (np.array(column, dtype=np.int64) for column in zip(*triples))
    return T.Pairs(users, pos, neg)


def triples(samples):
    return list(zip(samples.users, samples.pos, samples.neg))


class TestSamplePairs:
    def test_five_negatives_per_positive(self):
        train = D.InteractionMatrix.from_edges([(0, 0)], 1, 20)
        bundle_train = train
        samples, skipped = T.sample_pairs(bundle_train, 5, rng_seed=0)
        assert len(samples) == 5 and skipped == 0
        for a, i, j in triples(samples):
            assert (a, i) == (0, 0)
            assert j != 0

    def test_negatives_are_unobserved(self):
        bundle = tiny_bundle(seed=2)
        samples, _ = T.sample_pairs(bundle.train, 5, rng_seed=1)
        for a, i, j in triples(samples):
            assert j not in bundle.train.positives_by_user[a]
            assert i in bundle.train.positives_by_user[a]

    def test_saturated_user_skipped_with_count(self):
        train = D.InteractionMatrix.from_edges([(0, i) for i in range(3)] + [(1, 0)], 2, 3)
        samples, skipped = T.sample_pairs(train, 5, rng_seed=0)
        assert skipped == 1
        assert all(a == 1 for a in samples.users)

    def test_epoch_changes_negatives_but_reproducibly(self):
        train = D.InteractionMatrix.from_edges([(0, 0)], 1, 1000)
        e0a, _ = T.sample_pairs(train, 5, rng_seed=7, epoch=0)
        e0b, _ = T.sample_pairs(train, 5, rng_seed=7, epoch=0)
        e1, _ = T.sample_pairs(train, 5, rng_seed=7, epoch=1)
        assert e0a.neg.tolist() == e0b.neg.tolist()
        assert e0a.neg.tolist() != e1.neg.tolist()

    def test_block_draws_equal_scalar_draws(self):
        for n in (7, 400, 2000, 123457):
            blocks = np.random.default_rng([n, 1])
            scalars = np.random.default_rng([n, 1])
            for size in (1, 3, 17, 5, 64, 2):
                drawn = blocks.integers(n, size=size)
                assert drawn.tolist() == [int(scalars.integers(n)) for _ in range(size)]
            # one 2^16 block, cut at odd offsets, is the stream of successive smaller blocks
            whole = np.random.default_rng([n, 2]).integers(n, size=1 << 16)
            pieces = np.random.default_rng([n, 2])
            start = 0
            for size in itertools.cycle((1, 3, 17, 5, 1001, 7, 4093)):
                size = min(size, len(whole) - start)
                assert np.array_equal(whole[start : start + size], pieces.integers(n, size=size))
                start += size
                if start == len(whole):
                    break

    @staticmethod
    def assert_matches_oracle(train, k, seed, epoch):
        samples, skipped = T.sample_pairs(train, k, seed, epoch)
        want, want_skipped = O.sample_pairs(train, k, seed, epoch)
        assert skipped == want_skipped
        expected = np.array(want, dtype=np.int64).reshape(-1, 3)
        got = np.stack([samples.users, samples.pos, samples.neg], axis=1)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        return skipped

    def oracle_cases(self):
        rng = np.random.default_rng(11)
        for case in range(12):
            n_users, n_items = int(rng.integers(4, 12)), int(rng.integers(2, 30))
            rows = [[] for _ in range(n_users)]  # user 0 stays empty
            rows[1] = list(range(n_items))  # saturated: skipped
            rows[2] = [i for i in range(n_items) if i != case % n_items]  # one unrated item
            for a in range(3, n_users):
                rows[a] = sorted(rng.choice(n_items, size=int(rng.integers(0, n_items)), replace=False))
            edges = [(a, int(i)) for a, row in enumerate(rows) for i in row]
            train = D.InteractionMatrix.from_edges(edges, n_users, n_items)
            for seed, epoch, k in ((case, 0, 5), (case + 100, 3, 1), (case, 1, 4)):
                yield train, k, seed, epoch

    def test_matches_scalar_oracle(self):
        for case in self.oracle_cases():
            assert self.assert_matches_oracle(*case) >= 1

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_matches_scalar_oracle_across_refills(self, chunk, monkeypatch):
        # buffers this short make nearly every round straddle a refill
        monkeypatch.setattr(T, "_CHUNK", chunk)
        for case in self.oracle_cases():
            assert self.assert_matches_oracle(*case) >= 1

    def test_matches_scalar_oracle_past_one_chunk(self):
        train = D.generate_synthetic(D.SyntheticSpec(users=300, items=450, seed=0)).train
        assert train.num_edges * 5 > T._CHUNK  # about 27.9k draws for about 27k negatives
        self.assert_matches_oracle(train, 5, 0, 2)


class TestPairLoss:
    def test_equal_scores_ln2(self):
        assert O.bpr_pair_loss(1.3, 1.3) == pytest.approx(LN2, rel=1e-12)

    def test_large_positive_margin(self):
        # softplus(-20), frozen from a 40-digit mpmath evaluation
        assert O.bpr_pair_loss(20.0, 0.0) == pytest.approx(2.061153620314381e-09, rel=1e-9)

    def test_large_negative_margin(self):
        assert O.bpr_pair_loss(0.0, 20.0) == pytest.approx(20.000000002061154, rel=1e-12)

    @given(finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_positive_and_decreasing(self, a, b):
        assert O.bpr_pair_loss(a, b) > 0.0
        assert O.bpr_pair_loss(a + 1.0, b) < O.bpr_pair_loss(a, b)

    @given(finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry_bound(self, a, b):
        both = O.bpr_pair_loss(a, b) + O.bpr_pair_loss(b, a)
        assert both >= 2 * LN2 - 1e-12

    def test_antisymmetry_equality_iff_equal(self):
        assert O.bpr_pair_loss(2.0, 2.0) * 2 == pytest.approx(2 * LN2, rel=1e-12)
        assert O.bpr_pair_loss(2.0, 2.1) + O.bpr_pair_loss(2.1, 2.0) > 2 * LN2 + 1e-6


class TestBatchLoss:
    def test_zero_params_give_ln2(self):
        bundle = tiny_bundle(seed=3)
        hy = M.HyperParams(D=3, L=3, K=1, feature_mode=M.FEATURELESS)
        params = M.init_params(hy, bundle.num_users, bundle.num_items, seed=0)
        for name, _ in params.items():
            params[name] = np.zeros_like(params[name])
        samples, _ = T.sample_pairs(bundle.train, 2, rng_seed=0)
        assert O.batch_loss(params, hy, bundle, samples, 0.0) == pytest.approx(LN2, rel=1e-12)

    def test_empty_batch_is_reg_only(self):
        bundle = tiny_bundle(seed=3)
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, bundle.num_users, bundle.num_items, 8, 8, seed=1)
        lam = 0.01
        expected = lam * (np.sum(params["P"] ** 2) + np.sum(params["Q"] ** 2))
        assert O.batch_loss(params, hy, bundle, [], lam) == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_recompute(self):
        bundle = tiny_bundle(seed=4)
        hy = M.HyperParams(D=3, L=2, K=2)
        params = M.init_params(hy, bundle.num_users, bundle.num_items, 8, 8, seed=2)
        samples, _ = T.sample_pairs(bundle.train, 2, rng_seed=3)
        batch = samples[:7]
        lam = 0.001
        # from-scratch recomputation via the per-entity forward operations
        V = np.stack(
            [
                O.item_embedding(params, hy, params["Q"][i], bundle.item_features.vectors[i])
                for i in range(bundle.num_items)
            ]
        )
        h0 = np.stack(
            [
                O.user_base_embedding(
                    params, hy, bundle.user_features.vectors[a], params["P"][a]
                )
                for a in range(bundle.num_users)
            ]
        )
        state = M.diffuse(params, hy, bundle.social, h0)
        total = 0.0
        for a, i, j in triples(batch):
            u = O.user_embedding(state, a, bundle.train.positives_by_user[a], V)
            m = O.predict(u, V[i]) - O.predict(u, V[j])
            total += math.log(1.0 + math.exp(-m))
        expected = total / len(batch) + lam * (
            np.sum(params["P"] ** 2) + np.sum(params["Q"] ** 2)
        )
        assert O.batch_loss(params, hy, bundle, batch, lam) == pytest.approx(expected, rel=1e-10)


class TestGradients:
    def test_dead_units_zero_gradient(self):
        bundle = tiny_bundle(seed=5)
        hy = M.HyperParams(D=3, L=3, K=1, feature_mode=M.FEATURELESS, use_bias=False)
        params = M.init_params(hy, bundle.num_users, bundle.num_items, seed=4)
        params[M.layer_weight_name(0)] = np.zeros((3, 6))
        samples, _ = T.sample_pairs(bundle.train, 1, rng_seed=0)
        grads = O.compute_gradients(params, hy, bundle, samples[:4])
        # all h^1 = ReLU(0) = 0 and ReLU'(0) = 0, so W^0 gets no gradient
        assert np.array_equal(grads[M.layer_weight_name(0)], np.zeros((3, 6)))

    def test_finite_difference_tiny_instance(self):
        # 3 users, 2 items, D=2, K=1, single pair
        rng = np.random.default_rng(60)
        train = D.InteractionMatrix.from_edges([(0, 0), (1, 1), (2, 0)], 3, 2)
        empty = D.InteractionMatrix.from_edges([], 3, 2)
        bundle = D.DatasetBundle(
            train=train,
            validation=empty,
            test=empty,
            social=D.SocialGraph.from_edges([(0, 1), (1, 2)], 3),
            user_features=D.FeatureTable(2, rng.normal(size=(3, 2))),
            item_features=D.FeatureTable(2, rng.normal(size=(2, 2))),
        )
        hy = M.HyperParams(D=2, L=2, K=1)
        params = M.init_params(hy, 3, 2, 2, 2, seed=5)
        rep = O.finite_difference_check(
            params, hy, bundle, pairs((0, 0, 1)), lambda_reg=1e-4
        )
        assert rep.passed, f"max rel err {rep.max_rel_err} ({rep.worst_tensor})"
        assert rep.max_rel_err < 1e-4

    def test_untouched_item_gradient_is_regularizer_only(self):
        bundle = tiny_bundle(users=5, items=8, seed=7)
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, 5, 8, 8, 8, seed=6)
        lam = 0.01
        batch = pairs((0, bundle.train.positives_by_user[0][0],
                       next(j for j in range(8) if j not in bundle.train.positives_by_user[0])))
        touched = {int(batch.pos[0]), int(batch.neg[0])}
        touched.update(bundle.train.positives_by_user[0])
        grads = O.compute_gradients(params, hy, bundle, batch, lambda_reg=lam)
        for i in range(8):
            if i in touched:
                continue
            np.testing.assert_allclose(grads["Q"][i], 2 * lam * params["Q"][i], rtol=1e-12)

    def test_regularization_scope_zero_batch(self):
        # empty compute graph: theta2 grads exactly 0, P/Q grads = 2 lambda P/Q
        bundle = tiny_bundle(seed=8)
        hy = M.HyperParams(D=3, L=2, K=2)
        params = M.init_params(hy, bundle.num_users, bundle.num_items, 8, 8, seed=7)
        lam = 0.005
        grads = O.compute_gradients(params, hy, bundle, [], lambda_reg=lam)
        np.testing.assert_allclose(grads["P"], 2 * lam * params["P"], rtol=1e-12)
        np.testing.assert_allclose(grads["Q"], 2 * lam * params["Q"], rtol=1e-12)
        for name in ("F", "W0", M.layer_weight_name(0), M.layer_weight_name(1)):
            assert np.array_equal(grads[name], np.zeros_like(grads[name]))

    def test_max_tie_sends_column_gradient_to_lowest_followee(self):
        # user 0 follows 1 and 2, whose column-0 values tie for the maximum;
        # finite differences cannot see a tie, so pin the argmax convention
        train = D.InteractionMatrix.from_edges([(0, 0)], 3, 2)
        empty = D.InteractionMatrix.from_edges([], 3, 2)
        bundle = D.DatasetBundle(
            train=train,
            validation=empty,
            test=empty,
            social=D.SocialGraph.from_edges([(0, 1), (0, 2)], 3),
        )
        hy = M.HyperParams(D=2, L=2, K=1, feature_mode=M.FEATURELESS,
                           aggregator=M.AGG_MAX, use_bias=False)
        params = M.ModelParams({
            "P": np.array([[0.2, 0.4], [0.5, 0.3], [0.5, 0.7]]),
            "Q": np.array([[1.0, 0.5], [0.2, 0.1]]),
            M.layer_weight_name(0): np.full((2, 4), 0.5),
        })
        batch = pairs((0, 0, 1))
        tied = O.compute_gradients(params, hy, bundle, batch)
        assert tied["P"][1, 0] != 0.0
        assert tied["P"][2, 0] == 0.0
        # column 1 has a unique winner, user 2
        assert tied["P"][1, 1] == 0.0 and tied["P"][2, 1] != 0.0
        # breaking the tie in user 1's favour leaves every gradient unchanged
        params["P"][2, 0] = 0.4
        untied = O.compute_gradients(params, hy, bundle, batch)
        for name, _ in params.items():
            assert np.array_equal(tied[name], untied[name])

    def test_gradient_sweep_configurations(self):
        # K in {0,1,2}, both modes, both aggregators, users with empty ego
        # nets and empty histories (synthetic bundles always contain some
        # empty validation-only users after splitting at this scale); each
        # also with P pinned, whose gradient must be exactly +0.0
        case = 0
        for K in (0, 1, 2):
            for mode in (M.FEATURES, M.FEATURELESS):
                for agg in (M.AGG_AVERAGE, M.AGG_MAX):
                    case += 1
                    bundle = tiny_bundle(users=5, items=4, seed=20 + case)
                    L = 3 if mode == M.FEATURELESS else 2
                    samples, _ = T.sample_pairs(bundle.train, 2, rng_seed=case)
                    for pin in (False, True):
                        hy = M.HyperParams(D=3, L=L, K=K, feature_mode=mode, aggregator=agg, pin_user_base=pin)
                        params = M.init_params(hy, 5, 4, 8, 8, seed=case)
                        rep = O.finite_difference_check(
                            params, hy, bundle, samples[:6], lambda_reg=1e-4, seed=case
                        )
                        assert rep.passed, (K, mode, agg, pin, rep.max_rel_err, rep.worst_tensor)
                        if pin:
                            gP = O.compute_gradients(params, hy, bundle, samples[:6], lambda_reg=1e-4)["P"]
                            assert gP.tobytes() == bytes(gP.nbytes)


class TestFiniteDifferenceHarness:
    def test_quadratic_self_test(self):
        arrays = {"a": np.array([1.0, -2.0, 3.0]), "b": np.array([[0.5, 1.5]])}
        params = M.ModelParams(arrays)

        def loss_fn(p):
            return float(np.sum(p["a"] ** 2) + 3.0 * np.sum(p["b"] ** 2))

        def grad_fn(p):
            g = p.zeros_like()
            g["a"] = 2.0 * p["a"]
            g["b"] = 6.0 * p["b"]
            return g

        rep = O.finite_difference_check(
            params, None, None, [], loss_fn=loss_fn, grad_fn=grad_fn, tol=1e-9
        )
        assert rep.passed and rep.max_rel_err < 1e-9

    def test_zero_tolerance_always_fails(self):
        params = M.ModelParams({"a": np.array([1.0])})
        rep = O.finite_difference_check(
            params,
            None,
            None,
            [],
            loss_fn=lambda p: float(np.sum(p["a"] ** 2)),
            grad_fn=lambda p: M.ModelParams({"a": 2.0 * p["a"]}),
            tol=0.0,
        )
        assert not rep.passed


class TestAdam:
    def make(self):
        params = M.ModelParams({"w": np.array([1.0, -2.0])})
        return params, T.AdamState.init(params)

    def test_zero_gradient_keeps_params(self):
        params, adam = self.make()
        before = params["w"].copy()
        for _ in range(5):
            T.adam_step(params, adam, M.ModelParams({"w": np.zeros(2)}), lr=0.1)
        assert np.array_equal(params["w"], before)
        assert adam.step == 5

    @pytest.mark.parametrize("step", [T.adam_step, O.adam_step], ids=["flat", "per-tensor"])
    def test_zero_tensor_with_zero_gradient_stays_positive_zero(self, step):
        # how a pinned P stays +0.0: its moments stay 0, so each step subtracts +0.0
        params = M.ModelParams({"P": np.zeros(3), "w": np.array([1.0, -2.0])})
        adam = T.AdamState.init(params)
        for _ in range(5):
            step(params, adam, M.ModelParams({"P": np.zeros(3), "w": np.array([0.3, -0.7])}), 0.1)
        assert params["P"].tobytes() == bytes(24)
        assert adam.m["P"].tobytes() == adam.v["P"].tobytes() == bytes(24)
        assert not np.array_equal(params["w"], [1.0, -2.0])

    def test_constant_gradient_step_size_approaches_lr(self):
        # with a constant gradient Adam's bias-corrected step tends to lr
        params, adam = self.make()
        g = M.ModelParams({"w": np.array([0.37, 0.37])})
        lr = 0.01
        prev = params["w"].copy()
        for _ in range(1000):
            prev = params["w"].copy()
            T.adam_step(params, adam, g, lr)
        step = np.abs(params["w"] - prev)
        np.testing.assert_allclose(step, lr, rtol=1e-3)

    def test_bitwise_determinism(self):
        runs = []
        for _ in range(2):
            params, adam = self.make()
            rng = np.random.default_rng(9)
            for _ in range(50):
                T.adam_step(params, adam, M.ModelParams({"w": rng.normal(size=2)}), 0.05)
            runs.append(params["w"].copy())
        assert np.array_equal(runs[0], runs[1])

    LAYOUTS = {
        "features-bias": dict(use_bias=True),
        "featureless-no-bias": dict(feature_mode=M.FEATURELESS, L=3, use_bias=False),
        "pinned-P": dict(pin_user_base=True),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_per_tensor_reference_bytes(self, layout):
        hy = M.HyperParams(**{"D": 3, "L": 2, "K": 2, **self.LAYOUTS[layout]})
        runs = []
        for step in (T.adam_step, O.adam_step):
            params = M.init_params(hy, 7, 5, 4, 3, seed=1)
            adam = T.AdamState.init(params)
            rng = np.random.default_rng(11)
            for _ in range(50):
                grads = params.zeros_like()
                n = len(grads.flat)
                # magnitudes over ten decades, so rounding differences would show
                grads.flat[:] = rng.normal(size=n) * 10.0 ** rng.integers(-6, 4, size=n)
                step(params, adam, grads, 0.01)
            runs.append([params.flat.tobytes(), adam.m.flat.tobytes(), adam.v.flat.tobytes()])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("pin,nan_in,named", [
        (False, ("Wk0", "F"), "F"),
    ])
    def test_non_finite_result_names_first_trainable_tensor(self, pin, nan_in, named):
        hy = M.HyperParams(D=3, L=2, K=1, pin_user_base=pin)
        for step in (T.adam_step, O.adam_step):
            params = M.init_params(hy, 7, 5, 4, 3, seed=1)
            grads = params.zeros_like()
            for name in nan_in:
                grads[name][...] = np.nan
            with pytest.raises(T.DivergenceError, match=f"^non-finite values in {named} after Adam step 1$"):
                step(params, T.AdamState.init(params), grads, 0.01)


    @pytest.mark.parametrize("step", [T.adam_step, O.adam_step], ids=["flat", "per-tensor"])
    def test_moment_overflow_names_first_trainable_tensor(self, step):
        # (1 - b2) * g * g overflows v to inf for g = 1e200; the step is then 0
        # and w stays finite, so only the moment check sees it
        params = M.ModelParams({"w": np.array([1.0, 2.0]), "x": np.zeros(1)})
        grads = M.ModelParams({"w": np.array([1e200, 1e-3]), "x": [1e200]})
        with pytest.raises(T.DivergenceError, match=r"^non-finite Adam moments in w after Adam step 1$"):
            with np.errstate(over="ignore"):  # as train runs it
                step(params, T.AdamState.init(params), grads, 0.01)
        assert np.isfinite(params.flat).all()


class TestStepOwnership:
    """A batch step writes only its own arrays: the parameters only through Adam, never the gradients."""

    CASES = {
        "features-average": dict(),
        "features-max": dict(aggregator=M.AGG_MAX),
        "featureless-average-k0": dict(feature_mode=M.FEATURELESS, L=3, K=0),
        "featureless-max": dict(feature_mode=M.FEATURELESS, L=3, aggregator=M.AGG_MAX),
        "pinned-P": dict(pin_user_base=True),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_step_writes_only_what_it_owns(self, case):
        hy = M.HyperParams(**{"D": 3, "L": 2, "K": 2, **self.CASES[case]})
        bundle = tiny_bundle(users=12, items=9, seed=3)
        params = M.init_params(hy, 12, 9, 8, 8, seed=4)
        samples, _ = T.sample_pairs(bundle.train, 2, rng_seed=5)
        before = params.flat.tobytes()
        _, grads = T._loss_and_gradients(params, hy, bundle, samples[:16], 1e-3, params.zeros_like())
        assert params.flat.tobytes() == before
        if not hy.with_features:
            assert M.forward_all(params, hy, bundle)[1] is params["Q"]
        grad_bytes = grads.flat.tobytes()
        T.adam_step(params, T.AdamState.init(params), grads, 0.01)
        assert grads.flat.tobytes() == grad_bytes
        assert params.flat.tobytes() != before

    @pytest.mark.parametrize("case", CASES)
    def test_reused_workspace_leaves_no_residue(self, case):
        hy = M.HyperParams(**{"D": 3, "L": 2, "K": 2, **self.CASES[case]})
        bundle = tiny_bundle(users=12, items=9, seed=3)
        params = M.init_params(hy, 12, 9, 8, 8, seed=4)
        adam = T.AdamState.init(params)
        samples, _ = T.sample_pairs(bundle.train, 2, rng_seed=5)
        work = params.zeros_like()
        work.flat.fill(np.nan)  # what an earlier run might have left
        # a full batch, a short one, then an empty one, with an Adam step after each
        for batch in (samples[:16], samples[16:19], samples[:0]):
            loss, grads = T._loss_and_gradients(params, hy, bundle, batch, 1e-3, work)
            fresh_loss, fresh = T._loss_and_gradients(params, hy, bundle, batch, 1e-3, params.zeros_like())
            assert grads is work
            assert repr(loss) == repr(fresh_loss) and grads.flat.tobytes() == fresh.flat.tobytes()
            grad_bytes = grads.flat.tobytes()
            T.adam_step(params, adam, grads, 0.01)
            assert grads.flat.tobytes() == grad_bytes


class TestTrain:
    def train_config(self, **kw):
        defaults = dict(max_epochs=5, batch_size=128, seed=0, val_negatives=30,
                        learning_rate=0.01)
        defaults.update(kw)
        return T.TrainConfig(**defaults)

    def test_loss_decreases_on_synthetic(self):
        bundle = D.generate_synthetic(
            D.SyntheticSpec(users=50, items=40, homophily=0.9, seed=42)
        )
        hy = M.HyperParams(D=4, L=3, K=2)
        _, log = T.train(bundle, hy, self.train_config(max_epochs=40))
        assert log[-1]["loss"] < log[0]["loss"]
        # seeded regression anchors for this exact configuration
        assert log[0]["loss"] == pytest.approx(0.597632995396444, abs=1e-9)
        assert log[-1]["loss"] == pytest.approx(0.2576533909913447, abs=1e-9)

    def test_same_seed_identical_logs(self):
        bundle = tiny_bundle(users=15, items=12, seed=30)
        hy = M.HyperParams(D=3, L=2, K=1)
        cfg = self.train_config(max_epochs=3)
        p1, log1 = T.train(bundle, hy, cfg)
        p2, log2 = T.train(bundle, hy, cfg)
        strip = lambda log: [
            {k: v for k, v in r.items() if k != "wall_time"} for r in log
        ]
        assert strip(log1) == strip(log2)
        for name, _ in p1.items():
            assert np.array_equal(p1[name], p2[name])

    def test_validation_tasks_built_once_per_run(self):
        # the validation tasks depend only on the bundle and the seed, so every epoch ranks one build
        bundle = tiny_bundle(users=15, items=12, seed=30)
        with mock.patch.object(E, "build_tasks", wraps=E.build_tasks) as spy:
            _, log = T.train(bundle, M.HyperParams(D=3, L=2, K=1), self.train_config(max_epochs=3))
        assert len(log) == 3
        spy.assert_called_once_with(bundle, 30, repetition_seed=[0, 0], split="validation")

    PINNED_SETUPS = {
        "average": dict(aggregator="average"),
        "max": dict(aggregator="max"),
        "no-bias": dict(use_bias=False),
        "featureless": dict(feature_mode="featureless", L=4),
        "k0": dict(K=0),
    }

    @pytest.mark.parametrize("setup,digest", [
        ("average", "eb2780fe911506ab9b1257027141fcc7a92705913a09c2f301da9f94b57b607c"),
        ("max", "0c53174467c5e767b8e7ba31cf4ca6db1431f7a1299ae9d68a107c53c6c5cdbd"),
        ("no-bias", "b33a008761f6e20165ee56400727ec0bcbc7d5c14881ee63e293e25e807af8d0"),
        ("featureless", "1cb9d2c389815631a0a306aa36f23006be29bcebb6772e026cd5073c668299c8"),
        ("k0", "c959d37907a6f2b53cfc5ccbdf5c3252167c0cf7ff57214935e09489691baddd"),
    ])
    def test_trained_parameters_are_pinned(self, setup, digest):
        # frozen digests: any bit drift in sampling, forward, backward or Adam changes them;
        # the setups cover both aggregators, no bias, featureless and no diffusion layer
        bundle = D.generate_synthetic(D.SyntheticSpec(users=40, items=30, seed=9))
        hy = M.HyperParams(**{"D": 4, "L": 3, "K": 2, **self.PINNED_SETUPS[setup]})
        params, _ = T.train(bundle, hy, self.train_config(max_epochs=1))
        h = hashlib.sha256()
        for name, _ in params.items():
            h.update(name.encode())
            h.update(params[name].astype("<f8").tobytes())
        assert h.hexdigest() == digest

    def test_max_trained_parameters_over_mixed_degrees_are_pinned(self):
        # out-degrees 0, 1, 2-3, 4-7, 8-15, 16-31 and >= 64, so the max
        # aggregator's followee lists span many lengths; frozen like the above
        base = D.generate_synthetic(D.SyntheticSpec(users=80, items=30, seed=9))
        degrees = [0, 1, 2, 3, 4, 7, 9, 20, 64, 79] * 8
        social = O.social_with_degrees(degrees, np.random.default_rng(16))
        bundle = dataclasses.replace(base, social=social)
        hy = M.HyperParams(D=4, L=3, K=2, aggregator="max")
        params, _ = T.train(bundle, hy, self.train_config(max_epochs=1))
        h = hashlib.sha256()
        for name, value in params.items():
            h.update(name.encode())
            h.update(value.astype("<f8").tobytes())
        assert h.hexdigest() == "9de8ad998d4cfda9560f3f24bd493e37117337a2e8dd4df736b03d0ad69fbb41"

    def test_zero_epochs_returns_init(self):
        bundle = tiny_bundle(users=10, items=8, seed=31)
        hy = M.HyperParams(D=3, L=2, K=1)
        params, log = T.train(bundle, hy, self.train_config(max_epochs=0))
        expected = M.init_params(hy, 10, 8, 8, 8, seed=0)
        assert log == []
        for name, _ in params.items():
            assert np.array_equal(params[name], expected[name])

    def test_trained_parameters_without_validation_are_pinned(self):
        # an empty validation split returns the last epoch's parameters; frozen like the above
        base = D.generate_synthetic(D.SyntheticSpec(users=40, items=30, seed=9))
        empty = D.InteractionMatrix.from_edges([], base.num_users, base.num_items)
        bundle = dataclasses.replace(base, validation=empty)
        params, log = T.train(bundle, M.HyperParams(D=4, L=3, K=2), self.train_config(max_epochs=2))
        assert [math.isnan(rec["val_ndcg10"]) for rec in log] == [True, True]
        h = hashlib.sha256()
        for name, value in params.items():
            h.update(name.encode())
            h.update(value.astype("<f8").tobytes())
        assert h.hexdigest() == "0d285be995891027e1aad043f750e7618ed1a7922b0e4585d9ee9fcbf6df54d4"

    @pytest.mark.parametrize("with_validation", [True, False], ids=["validation", "no-validation"])
    def test_last_step_divergence_is_reported_at_its_epoch(self, with_validation):
        # one batch per epoch: the first epoch's loss and gradient are finite, and its one Adam
        # step leaves finite parameters whose forward overflows
        bundle = tiny_bundle(users=15, items=12, seed=30)
        if not with_validation:
            empty = D.InteractionMatrix.from_edges([], bundle.num_users, bundle.num_items)
            bundle = dataclasses.replace(bundle, validation=empty)
        cfg = self.train_config(max_epochs=1, batch_size=100000, learning_rate=1e300)
        with pytest.raises(T.DivergenceError, match="^non-finite embeddings at epoch 0$"):
            T.train(bundle, M.HyperParams(D=3, L=2, K=1), cfg)

    def test_empty_training_data_rejected(self):
        bundle = tiny_bundle(users=10, items=8, seed=32)
        empty = D.InteractionMatrix.from_edges([], bundle.num_users, bundle.num_items)
        bad = D.DatasetBundle(
            train=empty,
            validation=bundle.validation,
            test=bundle.test,
            social=bundle.social,
            user_features=bundle.user_features,
            item_features=bundle.item_features,
        )
        with pytest.raises(T.TrainingError, match="empty"):
            T.train(bad, M.HyperParams(D=3, L=2, K=1), self.train_config())

    def test_config_validation(self):
        with pytest.raises(T.TrainingError):
            T.TrainConfig(learning_rate=-1.0)
        with pytest.raises(T.TrainingError):
            T.TrainConfig(lambda_reg=-0.1)
        for value in (math.nan, math.inf):
            with pytest.raises(T.TrainingError, match="learning_rate must be finite"):
                T.TrainConfig(learning_rate=value)
            with pytest.raises(T.TrainingError, match="lambda_reg must be finite"):
                T.TrainConfig(lambda_reg=value)

    @pytest.mark.parametrize("value", [0, -2])
    def test_nonpositive_val_negatives_rejected(self, value):
        # 0 would rank every validation positive against nothing, so HR would read 1
        with pytest.raises(T.TrainingError, match=f"val_negatives must be >= 1, got {value}"):
            T.TrainConfig(val_negatives=value)
