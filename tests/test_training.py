import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialgcn import data as D
from socialgcn import model as M
from socialgcn import training as T

import oracle as O

LN2 = 0.6931471805599453

finite = st.floats(min_value=-30, max_value=30, allow_nan=False)


def tiny_bundle(users=6, items=5, seed=0):
    return D.generate_synthetic(D.SyntheticSpec(users=users, items=items, seed=seed))


class TestSamplePairs:
    def test_five_negatives_per_positive(self):
        train = D.InteractionMatrix.from_edges([(0, 0)], 1, 20)
        bundle_train = train
        samples, skipped = T.sample_pairs(bundle_train, 5, rng_seed=0)
        assert len(samples) == 5 and skipped == 0
        for s in samples:
            assert (s.user, s.pos_item) == (0, 0)
            assert s.neg_item != 0

    def test_negatives_are_unobserved(self):
        bundle = tiny_bundle(seed=2)
        samples, _ = T.sample_pairs(bundle.train, 5, rng_seed=1)
        for s in samples:
            assert not bundle.train.has(s.user, s.neg_item)
            assert bundle.train.has(s.user, s.pos_item)

    def test_saturated_user_skipped_with_count(self):
        train = D.InteractionMatrix.from_edges([(0, i) for i in range(3)] + [(1, 0)], 2, 3)
        samples, skipped = T.sample_pairs(train, 5, rng_seed=0)
        assert skipped == 1
        assert all(s.user == 1 for s in samples)

    def test_epoch_changes_negatives_but_reproducibly(self):
        train = D.InteractionMatrix.from_edges([(0, 0)], 1, 1000)
        e0a, _ = T.sample_pairs(train, 5, rng_seed=7, epoch=0)
        e0b, _ = T.sample_pairs(train, 5, rng_seed=7, epoch=0)
        e1, _ = T.sample_pairs(train, 5, rng_seed=7, epoch=1)
        assert [s.neg_item for s in e0a] == [s.neg_item for s in e0b]
        assert [s.neg_item for s in e0a] != [s.neg_item for s in e1]


class TestPairLoss:
    def test_equal_scores_ln2(self):
        assert T.bpr_pair_loss(1.3, 1.3) == pytest.approx(LN2, rel=1e-12)

    def test_large_positive_margin(self):
        # softplus(-20), frozen from a 40-digit mpmath evaluation
        assert T.bpr_pair_loss(20.0, 0.0) == pytest.approx(2.061153620314381e-09, rel=1e-9)

    def test_large_negative_margin(self):
        assert T.bpr_pair_loss(0.0, 20.0) == pytest.approx(20.000000002061154, rel=1e-12)

    @given(finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_positive_and_decreasing(self, a, b):
        assert T.bpr_pair_loss(a, b) > 0.0
        assert T.bpr_pair_loss(a + 1.0, b) < T.bpr_pair_loss(a, b)

    @given(finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry_bound(self, a, b):
        both = T.bpr_pair_loss(a, b) + T.bpr_pair_loss(b, a)
        assert both >= 2 * LN2 - 1e-12

    def test_antisymmetry_equality_iff_equal(self):
        assert T.bpr_pair_loss(2.0, 2.0) * 2 == pytest.approx(2 * LN2, rel=1e-12)
        assert T.bpr_pair_loss(2.0, 2.1) + T.bpr_pair_loss(2.1, 2.0) > 2 * LN2 + 1e-6


class TestBatchLoss:
    def test_zero_params_give_ln2(self):
        bundle = tiny_bundle(seed=3)
        hy = M.HyperParams(D=3, L=3, K=1, feature_mode=M.FEATURELESS)
        params = M.init_params(hy, bundle.num_users, bundle.num_items, seed=0)
        for name in params.names():
            params[name] = np.zeros_like(params[name])
        samples, _ = T.sample_pairs(bundle.train, 2, rng_seed=0)
        assert T.batch_loss(params, hy, bundle, samples, 0.0) == pytest.approx(LN2, rel=1e-12)

    def test_empty_batch_is_reg_only(self):
        bundle = tiny_bundle(seed=3)
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, bundle.num_users, bundle.num_items, 8, 8, seed=1)
        lam = 0.01
        expected = lam * (np.sum(params["P"] ** 2) + np.sum(params["Q"] ** 2))
        assert T.batch_loss(params, hy, bundle, [], lam) == pytest.approx(expected, rel=1e-12)

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
        for s in batch:
            u = O.user_embedding(state, s.user, bundle.train.positives_by_user[s.user], V)
            m = O.predict(u, V[s.pos_item]) - O.predict(u, V[s.neg_item])
            total += math.log(1.0 + math.exp(-m))
        expected = total / len(batch) + lam * (
            np.sum(params["P"] ** 2) + np.sum(params["Q"] ** 2)
        )
        assert T.batch_loss(params, hy, bundle, batch, lam) == pytest.approx(expected, rel=1e-10)


class TestGradients:
    def test_dead_units_zero_gradient(self):
        bundle = tiny_bundle(seed=5)
        hy = M.HyperParams(D=3, L=3, K=1, feature_mode=M.FEATURELESS, use_bias=False)
        params = M.init_params(hy, bundle.num_users, bundle.num_items, seed=4)
        params[M.layer_weight_name(0)] = np.zeros((3, 6))
        samples, _ = T.sample_pairs(bundle.train, 1, rng_seed=0)
        grads = T.compute_gradients(params, hy, bundle, samples[:4])
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
        rep = T.finite_difference_check(
            params, hy, bundle, [T.PairwiseSample(0, 0, 1)], lambda_reg=1e-4
        )
        assert rep.passed, f"max rel err {rep.max_rel_err} ({rep.worst_tensor})"
        assert rep.max_rel_err < 1e-4

    def test_untouched_item_gradient_is_regularizer_only(self):
        bundle = tiny_bundle(users=5, items=8, seed=7)
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, 5, 8, 8, 8, seed=6)
        lam = 0.01
        batch = [T.PairwiseSample(0, bundle.train.positives_by_user[0][0],
                                  next(j for j in range(8)
                                       if not bundle.train.has(0, j)))]
        touched = {batch[0].pos_item, batch[0].neg_item}
        touched.update(bundle.train.positives_by_user[0])
        grads = T.compute_gradients(params, hy, bundle, batch, lambda_reg=lam)
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
        grads = T.compute_gradients(params, hy, bundle, [], lambda_reg=lam)
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
        batch = [T.PairwiseSample(0, 0, 1)]
        tied = T.compute_gradients(params, hy, bundle, batch)
        assert tied["P"][1, 0] != 0.0
        assert tied["P"][2, 0] == 0.0
        # column 1 has a unique winner, user 2
        assert tied["P"][1, 1] == 0.0 and tied["P"][2, 1] != 0.0
        # breaking the tie in user 1's favour leaves every gradient unchanged
        params["P"][2, 0] = 0.4
        untied = T.compute_gradients(params, hy, bundle, batch)
        for name in params.names():
            assert np.array_equal(tied[name], untied[name])

    def test_gradient_sweep_configurations(self):
        # K in {0,1,2}, both modes, both aggregators, users with empty ego
        # nets and empty histories (synthetic bundles always contain some
        # empty validation-only users after splitting at this scale)
        case = 0
        for K in (0, 1, 2):
            for mode in (M.FEATURES, M.FEATURELESS):
                for agg in (M.AGG_AVERAGE, M.AGG_MAX):
                    case += 1
                    bundle = tiny_bundle(users=5, items=4, seed=20 + case)
                    L = 3 if mode == M.FEATURELESS else 2
                    hy = M.HyperParams(D=3, L=L, K=K, feature_mode=mode, aggregator=agg)
                    params = M.init_params(hy, 5, 4, 8, 8, seed=case)
                    samples, _ = T.sample_pairs(bundle.train, 2, rng_seed=case)
                    rep = T.finite_difference_check(
                        params, hy, bundle, samples[:6], lambda_reg=1e-4, seed=case
                    )
                    assert rep.passed, (K, mode, agg, rep.max_rel_err, rep.worst_tensor)


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

        rep = T.finite_difference_check(
            params, None, None, [], loss_fn=loss_fn, grad_fn=grad_fn, tol=1e-9
        )
        assert rep.passed and rep.max_rel_err < 1e-9

    def test_zero_tolerance_always_fails(self):
        params = M.ModelParams({"a": np.array([1.0])})
        rep = T.finite_difference_check(
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

    def test_frozen_tensor_not_updated(self):
        params = M.ModelParams({"w": np.zeros(2)}, frozen={"w"})
        adam = T.AdamState.init(params)
        T.adam_step(params, adam, M.ModelParams({"w": np.ones(2)}), 0.1)
        assert np.array_equal(params["w"], np.zeros(2))


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
        for name in p1.names():
            assert np.array_equal(p1[name], p2[name])

    def test_zero_epochs_returns_init(self):
        bundle = tiny_bundle(users=10, items=8, seed=31)
        hy = M.HyperParams(D=3, L=2, K=1)
        params, log = T.train(bundle, hy, self.train_config(max_epochs=0))
        expected = M.init_params(hy, 10, 8, 8, 8, seed=0)
        assert log == []
        for name in params.names():
            assert np.array_equal(params[name], expected[name])

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
