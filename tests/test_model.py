from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialgcn import data as D
from socialgcn import model as M

import oracle as O


def matvec_oracle(W, z, b):
    """Naive dense mat-vec plus bias, written independently of the model."""
    out = []
    for r in range(W.shape[0]):
        acc = b[r]
        for c in range(W.shape[1]):
            acc += W[r][c] * z[c]
        out.append(max(acc, 0.0))
    return np.array(out)


def feature_hypers(D_=3, L=2, K=1, **kw):
    return M.HyperParams(D=D_, L=L, K=K, feature_mode=M.FEATURES, **kw)


def featureless_hypers(D_=3, K=1, **kw):
    return M.HyperParams(D=D_, L=D_, K=K, feature_mode=M.FEATURELESS, **kw)


def passthrough_params(D_, K):
    """W^k = [I | 0]: each layer copies the aggregated neighbor vector."""
    arrays = {"P": np.zeros((1, D_)), "Q": np.zeros((1, D_))}
    for k in range(K):
        arrays[M.layer_weight_name(k)] = np.concatenate(
            [np.eye(D_), np.zeros((D_, D_))], axis=1
        )
        arrays[M.layer_bias_name(k)] = np.zeros(D_)
    return M.ModelParams(arrays)


class TestModelParams:
    def test_views_share_one_flat_vector(self):
        a, b = np.arange(6.0).reshape(2, 3), np.array([7.0, 8.0])
        params = M.ModelParams({"a": a, "b": b}, frozen={"b"})
        assert np.array_equal(params.flat, np.concatenate([a.ravel(), b]))
        params["b"] = np.array([-1.0, -2.0])
        params["a"][1, 2] = 9.0
        assert params.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 9.0, -1.0, -2.0]
        assert params.trainable_mask().tolist() == [True] * 6 + [False] * 2
        for other in (params.copy(), params.zeros_like()):
            assert other.names() == ["a", "b"] and other.frozen == {"b"}
            other.flat[:] = 5.0
            assert np.array_equal(other["a"], np.full((2, 3), 5.0))
        assert params.flat[0] == 0.0

    def test_wrong_shape_assignment_names_tensor_and_shapes(self):
        # writing into the view would broadcast a (8,) value over every row
        params = M.ModelParams({"Wk0": np.ones((4, 8))})
        with pytest.raises(M.ModelError, match=r"^tensor 'Wk0' has shape \(4, 8\), cannot assign shape \(8,\)$"):
            params["Wk0"] = np.zeros(8)
        assert np.array_equal(params["Wk0"], np.ones((4, 8)))

    @pytest.mark.parametrize("hypers", [
        feature_hypers(K=2),
        featureless_hypers(K=2, use_bias=False),
        feature_hypers(K=2, pin_user_base=True),
    ], ids=["features", "featureless", "pin_user_base"])
    def test_param_shapes_are_init_params_layout(self, hypers):
        params = M.init_params(hypers, 7, 5, 4, 3, seed=1)
        shapes = M.param_shapes(hypers, 7, 5, 4, 3)
        assert list(shapes.items()) == [(name, params[name].shape) for name in params.names()]


class TestItemEmbedding:
    def test_identity_like_relu(self):
        hy = feature_hypers(D_=3, L=2)
        params = M.ModelParams({"F": np.eye(3), "bF": np.zeros(3)})
        v = O.item_embedding(params, hy, q_i=[1.0, -2.0], y_i=[3.0])
        assert np.array_equal(v, [1.0, 0.0, 3.0])

    def test_featureless_identity_bit_exact(self):
        hy = featureless_hypers(D_=2)
        q = np.array([0.5, -0.5])
        v = O.item_embedding(M.ModelParams({}), hy, q_i=q)
        assert np.array_equal(v, q)

    def test_random_matches_matvec_oracle(self):
        rng = np.random.default_rng(0)
        hy = feature_hypers(D_=4, L=3)
        F = rng.normal(size=(4, 3 + 2))
        b = rng.normal(size=4)
        params = M.ModelParams({"F": F, "bF": b})
        q, y = rng.normal(size=3), rng.normal(size=2)
        v = O.item_embedding(params, hy, q, y)
        expected = matvec_oracle(F, np.concatenate([q, y]), b)
        np.testing.assert_allclose(v, expected, rtol=1e-12)

    def test_shape_mismatch(self):
        hy = feature_hypers(D_=3, L=2)
        params = M.ModelParams({"F": np.eye(3), "bF": np.zeros(3)})
        with pytest.raises(M.ModelError):
            O.item_embedding(params, hy, q_i=[1.0, 2.0, 3.0], y_i=[1.0])


class TestUserBaseEmbedding:
    def test_zero_weights_annihilate(self):
        hy = feature_hypers(D_=2, L=2)
        params = M.ModelParams({"W0": np.zeros((2, 4)), "b0": np.zeros(2)})
        h0 = O.user_base_embedding(params, hy, x_a=[1.0, 2.0], p_a=[3.0, 4.0])
        assert np.array_equal(h0, [0.0, 0.0])

    def test_featureless_identity(self):
        hy = featureless_hypers(D_=3)
        p = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(O.user_base_embedding(M.ModelParams({}), hy, p_a=p), p)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(1)
        hy = feature_hypers(D_=3, L=2)
        W0 = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        params = M.ModelParams({"W0": W0, "b0": b})
        x, p = rng.normal(size=2), rng.normal(size=2)
        h0 = O.user_base_embedding(params, hy, x, p)
        np.testing.assert_allclose(h0, matvec_oracle(W0, np.concatenate([x, p]), b), rtol=1e-12)


class TestAggregation:
    def test_average(self):
        layer = np.array([[1.0, 1.0], [3.0, 3.0]])
        assert np.array_equal(O.aggregate_neighbors(layer, [0, 1], "average"), [2.0, 2.0])

    def test_max(self):
        layer = np.array([[1.0, 4.0], [3.0, 2.0]])
        assert np.array_equal(O.aggregate_neighbors(layer, [0, 1], "max"), [3.0, 4.0])

    def test_empty_neighborhood_is_zero(self):
        layer = np.ones((3, 2))
        assert np.array_equal(O.aggregate_neighbors(layer, [], "average"), [0.0, 0.0])

    @given(st.permutations(list(range(5))))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, perm):
        layer = np.random.default_rng(3).normal(size=(5, 4))
        for agg in ("average", "max"):
            base = O.aggregate_neighbors(layer, list(range(5)), agg)
            np.testing.assert_allclose(O.aggregate_neighbors(layer, perm, agg), base, rtol=1e-12)

    def test_max_matches_per_user_loop(self):
        # integer-valued layers force column ties; users 0 and n-1 have no
        # followees, and the zeros of the ReLU cases tie as well
        rng = np.random.default_rng(5)
        for case in range(40):
            n, d = int(rng.integers(2, 25)), int(rng.integers(1, 5))
            edges = [(a, b) for a in range(1, n - 1) for b in range(n) if a != b and rng.random() < 0.3]
            social = D.SocialGraph.from_edges(edges, n)
            layer = rng.integers(-2, 3, size=(n, d)).astype(float)
            if case % 3 == 1:
                layer = M.relu(layer)
            elif case % 3 == 2:
                layer = rng.normal(size=(n, d))
            if case % 4 == 3:  # argmax's winner for a column holding NaN is its first NaN
                layer[rng.random((n, d)) < 0.3] = np.nan
            out, winners = M.aggregate_all(layer, social, M.AGG_MAX)
            want_out, want_winners = O.aggregate_max(layer, social)
            assert out.tobytes() == want_out.tobytes()
            assert winners.dtype == want_winners.dtype
            assert np.array_equal(winners, want_winners)

    def test_average_bounded_by_neighbor_range(self):
        rng = np.random.default_rng(4)
        layer = rng.normal(size=(6, 3))
        nbrs = [1, 3, 4]
        out = O.aggregate_neighbors(layer, nbrs, "average")
        assert np.all(out >= layer[nbrs].min(axis=0) - 1e-12)
        assert np.all(out <= layer[nbrs].max(axis=0) + 1e-12)


class TestConvolveAndDiffuse:
    def test_zero_weights(self):
        params = passthrough_params(2, 1)
        params[M.layer_weight_name(0)] = np.zeros((2, 4))
        out = O.convolve_layer(params, 0, [1.0, 2.0], [3.0, 4.0])
        assert np.array_equal(out, [0.0, 0.0])

    def test_passthrough_block(self):
        params = passthrough_params(2, 1)
        h_agg = np.array([0.5, 2.0])
        out = O.convolve_layer(params, 0, h_agg, [9.0, 9.0])
        assert np.array_equal(out, h_agg)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        params = M.ModelParams({M.layer_weight_name(0): W, M.layer_bias_name(0): b})
        ha, ho = rng.normal(size=3), rng.normal(size=3)
        out = O.convolve_layer(params, 0, ha, ho)
        np.testing.assert_allclose(out, matvec_oracle(W, np.concatenate([ha, ho]), b), rtol=1e-12)

    def test_k0_no_diffusion(self):
        hy = featureless_hypers(D_=2, K=0)
        social = D.SocialGraph.from_edges([(0, 1)], 2)
        h0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        state = M.diffuse(M.ModelParams({}), hy, social, h0)
        assert len(state.layers) == 1
        assert np.array_equal(state.final, h0)

    def test_single_edge_propagation(self):
        hy = featureless_hypers(D_=2, K=1)
        social = D.SocialGraph.from_edges([(0, 1)], 2)
        h0 = np.array([[0.1, 0.2], [0.7, 0.9]])
        state = M.diffuse(passthrough_params(2, 1), hy, social, h0)
        np.testing.assert_allclose(state.final[0], h0[1], rtol=1e-12)

    def test_two_hop_chain(self):
        # a->b->c with pass-through weights: after 2 layers a holds c's h0
        hy = featureless_hypers(D_=2, K=2)
        social = D.SocialGraph.from_edges([(0, 1), (1, 2)], 3)
        h0 = np.array([[0.1, 0.1], [0.4, 0.5], [0.8, 0.6]])
        state = M.diffuse(passthrough_params(2, 2), hy, social, h0)
        np.testing.assert_allclose(state.final[0], h0[2], rtol=1e-12)


class TestUserEmbeddingAndPredict:
    def test_empty_history(self):
        state = M.DiffusionState([np.array([[1.0, 1.0]])], [], [])
        u = O.user_embedding(state, 0, [], np.zeros((0, 2)))
        assert np.array_equal(u, [1.0, 1.0])

    def test_mean_plus_diffusion(self):
        state = M.DiffusionState([np.array([[1.0, 1.0]])], [], [])
        items = np.array([[0.0, 2.0], [2.0, 0.0]])
        u = O.user_embedding(state, 0, [0, 1], items)
        assert np.array_equal(u, [2.0, 2.0])

    def test_full_forward_matches_scratch_recompute(self):
        bundle = D.generate_synthetic(D.SyntheticSpec(users=8, items=6, seed=6))
        hy = feature_hypers(D_=3, L=2, K=2)
        params = M.init_params(hy, 8, 6, 8, 8, seed=7)
        U, V, state = M.forward_all(params, hy, bundle)
        # independent per-entity recomputation using the scalar operations
        for i in range(6):
            vi = O.item_embedding(params, hy, params["Q"][i], bundle.item_features.vectors[i])
            np.testing.assert_allclose(V[i], vi, rtol=1e-12)
        for a in range(8):
            h = O.user_base_embedding(
                params, hy, bundle.user_features.vectors[a], params["P"][a]
            )
            np.testing.assert_allclose(state.layers[0][a], h, rtol=1e-12)
        for k in range(hy.K):
            for a in range(8):
                agg = O.aggregate_neighbors(
                    state.layers[k], bundle.social.followees_by_user[a], hy.aggregator
                )
                hk = O.convolve_layer(params, k, agg, state.layers[k][a])
                np.testing.assert_allclose(state.layers[k + 1][a], hk, rtol=1e-12, atol=1e-15)
        for a in range(8):
            ua = O.user_embedding(state, a, bundle.train.positives_by_user[a], V)
            np.testing.assert_allclose(U[a], ua, rtol=1e-12, atol=1e-15)

    def test_forward_needs_a_social_graph(self):
        bundle = D.generate_synthetic(D.SyntheticSpec(users=8, items=6, seed=6))
        hy = feature_hypers(D_=3, L=2, K=1)
        params = M.init_params(hy, 8, 6, 8, 8, seed=7)
        with pytest.raises(M.ModelError, match="no social graph"):
            M.forward_all(params, hy, replace(bundle, social=None))

    def test_predict_examples(self):
        assert O.predict([1.0, 0.0], [0.5, 2.0]) == 0.5
        assert O.predict(np.ones(3), np.zeros(3)) == 0.0

    def test_predict_matches_naive_sum(self):
        rng = np.random.default_rng(8)
        u, v = rng.normal(size=64), rng.normal(size=64)
        naive = sum(float(u[t]) * float(v[t]) for t in range(64))
        assert abs(O.predict(u, v) - naive) <= 1e-12 * abs(naive)

    def test_predict_shape_mismatch(self):
        with pytest.raises(M.ModelError):
            O.predict([1.0], [1.0, 2.0])


class TestScoreAllItems:
    @pytest.fixture()
    def setup(self):
        bundle = D.generate_synthetic(D.SyntheticSpec(users=10, items=12, seed=9))
        hy = feature_hypers(D_=4, L=3, K=1)
        params = M.init_params(hy, 10, 12, 8, 8, seed=3)
        return bundle, hy, params

    def test_empty_candidates(self, setup):
        bundle, hy, params = setup
        assert O.score_all_items(params, hy, bundle, 0, []) == []

    def test_single_matches_predict(self, setup):
        bundle, hy, params = setup
        U, V, _ = M.forward_all(params, hy, bundle)
        [(item, score)] = O.score_all_items(params, hy, bundle, 2, [5])
        assert item == 5
        assert score == pytest.approx(O.predict(U[2], V[5]), rel=1e-12)

    def test_permutation_stable(self, setup):
        bundle, hy, params = setup
        cands = list(range(12))
        fwd = dict(O.score_all_items(params, hy, bundle, 1, cands))
        rev = dict(O.score_all_items(params, hy, bundle, 1, cands[::-1]))
        assert fwd == rev
        U, V, _ = M.forward_all(params, hy, bundle)
        for i in cands:
            assert fwd[i] == pytest.approx(O.predict(U[1], V[i]), rel=1e-12)

    def test_unknown_ids(self, setup):
        bundle, hy, params = setup
        with pytest.raises(M.ModelError):
            O.score_all_items(params, hy, bundle, 99, [0])
        with pytest.raises(M.ModelError):
            O.score_all_items(params, hy, bundle, 0, [99])


class TestInvariants:
    def test_nonnegativity_in_feature_mode(self):
        bundle = D.generate_synthetic(D.SyntheticSpec(users=15, items=10, seed=10))
        hy = feature_hypers(D_=4, L=3, K=2)
        params = M.init_params(hy, 15, 10, 8, 8, seed=11)
        U, V, state = M.forward_all(params, hy, bundle)
        assert np.all(V >= 0)
        for layer in state.layers:
            assert np.all(layer >= 0)
        scores = U @ V.T
        assert np.all(scores >= 0)

    def test_featureless_degeneracy_bit_exact(self):
        bundle = D.generate_synthetic(D.SyntheticSpec(users=12, items=9, seed=12))
        hy = featureless_hypers(D_=4, K=1)
        params = M.init_params(hy, 12, 9, seed=13)
        V = M.all_item_embeddings(params, hy)
        H0 = M.all_user_base_embeddings(params, hy)
        assert V is params["Q"]
        assert H0 is params["P"]

    def test_locality_one_sided(self):
        # perturbing h0_b may change h^K_a only when b is within K follow hops
        rng = np.random.default_rng(14)
        for trial in range(10):
            n = int(rng.integers(4, 12))
            edges = {
                (int(a), int(b)) for a, b in rng.integers(0, n, size=(2 * n, 2)) if a != b
            }
            social = D.SocialGraph.from_edges(sorted(edges), n)
            K = int(rng.integers(1, 3))
            hy = featureless_hypers(D_=3, K=K)
            params = M.init_params(hy, n, 3, seed=trial)
            for k in range(K):
                params[M.layer_weight_name(k)] = rng.normal(size=(3, 6))
            h0 = rng.normal(size=(n, 3))
            base = M.diffuse(params, hy, social, h0).final
            for b in range(n):
                h0p = h0.copy()
                h0p[b] += 0.37
                pert = M.diffuse(params, hy, social, h0p).final
                changed = {a for a in range(n) if not np.array_equal(base[a], pert[a])}
                reach = khop_reachable(social, K)
                for a in changed:
                    assert b in reach[a]

    def test_forward_determinism(self):
        bundle = D.generate_synthetic(D.SyntheticSpec(users=20, items=15, seed=15))
        hy = feature_hypers(D_=4, L=3, K=2)
        params = M.init_params(hy, 20, 15, 8, 8, seed=16)
        U1, V1, _ = M.forward_all(params, hy, bundle)
        U2, V2, _ = M.forward_all(params, hy, bundle)
        assert np.array_equal(U1, U2) and np.array_equal(V1, V2)


def khop_reachable(social, K):
    """BFS over follow edges: reach[a] = users within K hops of a (incl. a)."""
    reach = []
    for a in range(social.num_users):
        seen = {a}
        frontier = {a}
        for _ in range(K):
            nxt = set()
            for u in frontier:
                nxt.update(social.followees_by_user[u])
            frontier = nxt - seen
            seen |= nxt
        reach.append(seen)
    return reach
