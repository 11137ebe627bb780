"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion is also asserted, so a plain pytest run fails loudly.
"""

import itertools
import math
import time

import numpy as np

from socialgcn import cli
from socialgcn import data as D
from socialgcn import evaluation as E
from socialgcn import model as M
from socialgcn import training as T


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def random_bundle(rng, num_users=6, num_items=5, user_dim=2, item_dim=2):
    """Tiny random dataset with a rating-less user (0) and a friendless user (1)."""
    edges = set()
    for a in range(2, num_users):
        for i in rng.choice(num_items, size=2, replace=False):
            edges.add((a, int(i)))
    edges.add((1, 0))
    train = D.InteractionMatrix.from_edges(sorted(edges), num_users, num_items)
    empty = D.InteractionMatrix.from_edges([], num_users, num_items)
    social = {(int(a), int(b)) for a, b in rng.integers(0, num_users, size=(8, 2)) if a != b}
    social = {(a, b) for a, b in social if a != 1}  # keep user 1's ego net empty
    social.add((0, 2))
    graph = D.SocialGraph.from_edges(sorted(social), num_users)
    uf = D.FeatureTable(dim=user_dim, vectors=rng.normal(size=(num_users, user_dim)))
    itf = D.FeatureTable(dim=item_dim, vectors=rng.normal(size=(num_items, item_dim)))
    return D.DatasetBundle(train, empty, empty, graph, uf, itf)


def test_gradient_suite():
    """Analytic gradients match central finite differences on >= 20 configs."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    configs = 0
    for K, mode, agg in itertools.product(
        (0, 1, 2), (M.FEATURES, M.FEATURELESS), (M.AGG_AVERAGE, M.AGG_MAX)
    ):
        for seed in (0, 1):
            bundle = random_bundle(rng)
            L = 3 if mode == M.FEATURELESS else 2
            hy = M.HyperParams(D=3, L=L, K=K, feature_mode=mode, aggregator=agg)
            params = M.init_params(
                hy, bundle.num_users, bundle.num_items,
                bundle.user_features.dim, bundle.item_features.dim, seed=seed,
            )
            batch, _ = T.sample_pairs(bundle.train, 2, seed)
            fd = T.finite_difference_check(
                params, hy, bundle, batch, tol=1e-4, lambda_reg=1e-3,
                max_coords=300, seed=seed,
            )
            worst = max(worst, fd.max_rel_err)
            assert fd.passed, f"K={K} mode={mode} agg={agg} err={fd.max_rel_err}"
            configs += 1
    elapsed = time.perf_counter() - start
    report(
        "gradient suite",
        configs >= 20 and worst < 1e-4 and elapsed < 60,
        f"{configs} configs, max rel err {worst:.3e}, {elapsed:.1f}s",
    )


def brute_force_metrics(candidates, scores, positives, n):
    ranked = [c for _, c in sorted(zip(scores, candidates), key=lambda t: (-t[0], t[1]))]
    hits = sum(1 for c in ranked[:n] if c in positives)
    hr = hits / len(positives)
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, c in enumerate(ranked[:n], start=1)
        if c in positives
    )
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(positives), n) + 1))
    return hr, dcg / idcg


def test_metric_oracle_suite():
    """HR/NDCG match a from-definition oracle on 500 tiny instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(500):
        n_cand = int(rng.integers(2, 13))
        candidates = [int(c) for c in rng.choice(200, size=n_cand, replace=False)]
        scores = rng.normal(size=n_cand)
        n_pos = int(rng.integers(1, n_cand))
        positives = set(int(c) for c in rng.choice(candidates, size=n_pos, replace=False))
        n = int(rng.integers(1, n_cand + 2))
        ranked = E.rank_candidates(candidates, scores)
        hr_bf, ndcg_bf = brute_force_metrics(candidates, scores, positives, n)
        assert E.hit_ratio_at_n(ranked, positives, n) == hr_bf
        assert abs(E.ndcg_at_n(ranked, positives, n) - ndcg_bf) < 1e-12
    elapsed = time.perf_counter() - start
    report("metric oracle suite", elapsed < 5, f"500 instances exact, {elapsed:.2f}s")


def test_random_ranker_calibration():
    """Uniform scores with 1 positive in 1001 candidates give HR@10 near 10/1001."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    n_tasks = 2000
    candidates = list(range(1001))
    hits = 0.0
    for _ in range(n_tasks):
        scores = rng.random(size=1001)
        ranked = E.rank_candidates(candidates, scores)
        hits += E.hit_ratio_at_n(ranked, {0}, 10)
    p = 10 / 1001
    sigma = math.sqrt(p * (1 - p) / n_tasks)
    mean = hits / n_tasks
    elapsed = time.perf_counter() - start
    report(
        "random-ranker calibration",
        abs(mean - p) < 3 * sigma and elapsed < 30,
        f"mean {mean:.5f} vs {p:.5f} (3 sigma {3 * sigma:.5f}), {elapsed:.1f}s",
    )


def khop_influence(social, source, k):
    """Users whose layer-k vector can depend on the source's layer-0 vector."""
    reached = {source}
    for _ in range(k):
        reached |= {
            a for a in range(social.num_users)
            if set(social.followees_by_user[a]) & reached
        }
    return reached


def test_diffusion_locality():
    """Perturbing one user's layer-0 vector changes exactly the k-hop followers."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.integers(4, 31))
        K = int(rng.integers(1, 4))
        edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(2 * n, 2)) if a != b}
        social = D.SocialGraph.from_edges(sorted(edges), n)
        hy = M.HyperParams(D=4, L=4, K=K, feature_mode=M.FEATURELESS)
        params = M.init_params(hy, n, 3, seed=trial)
        # strictly positive weights and inputs keep every ReLU active, so a
        # positive bump propagates exactly along follow paths
        for k in range(K):
            params[M.layer_weight_name(k)][:] = rng.uniform(0.1, 0.4, size=(4, 8))
        h0 = rng.uniform(0.1, 1.0, size=(n, 4))
        base = M.diffuse(params, hy, social, h0).final
        source = int(rng.integers(n))
        bumped = h0.copy()
        bumped[source] += 0.5
        out = M.diffuse(params, hy, social, bumped).final
        changed = {a for a in range(n) if not np.array_equal(base[a], out[a])}
        expected = khop_influence(social, source, K)
        assert changed == expected, f"trial {trial}: {changed} != {expected}"
    elapsed = time.perf_counter() - start
    report("diffusion locality", elapsed < 10, f"50 graphs exact, {elapsed:.1f}s")


def test_degenerate_identities():
    """Featureless embeddings are the raw latents; K=0 skips diffusion."""
    rng = np.random.default_rng(4)
    bundle = random_bundle(rng)
    hy = M.HyperParams(D=3, L=3, K=0, feature_mode=M.FEATURELESS)
    params = M.init_params(hy, bundle.num_users, bundle.num_items, seed=0)
    v_ok = M.all_item_embeddings(params, hy) is params["Q"]
    h0_ok = M.all_user_base_embeddings(params, hy) is params["P"]
    U, V, state = M.forward_all(params, hy, bundle)
    hist = bundle.train.row_mean
    k0_ok = np.array_equal(U, params["P"] + hist @ V)
    report(
        "degenerate identities",
        v_ok and h0_ok and k0_ok,
        "v_i=q_i and h0_a=p_a bit-exact; K=0 gives u_a = h0_a + history mean",
    )


def test_overfit_check():
    """500 epochs on a 10x10 dataset memorize nearly every training pair."""
    start = time.perf_counter()
    bundle = D.generate_synthetic(D.SyntheticSpec(users=10, items=10, density=0.6, seed=0))
    hy = M.HyperParams(D=8, L=6, K=2)
    params = M.init_params(
        hy, bundle.num_users, bundle.num_items,
        bundle.user_features.dim, bundle.item_features.dim, seed=0,
    )
    adam = T.AdamState.init(params)
    for epoch in range(500):
        batch, _ = T.sample_pairs(bundle.train, 5, 0, epoch=epoch)
        grads = T.compute_gradients(params, hy, bundle, batch, lambda_reg=1e-4)
        T.adam_step(params, adam, grads, 0.01)
    U, V, _ = M.forward_all(params, hy, bundle)
    scores = U @ V.T
    good = total = 0
    per_user_hr = []
    for a in range(bundle.num_users):
        pos = bundle.train.positives_by_user[a]
        if not pos:
            continue
        unobserved = [i for i in range(bundle.num_items) if i not in set(pos)]
        for p in pos:
            for q in unobserved:
                total += 1
                good += scores[a, p] > scores[a, q]
        top = sorted(range(bundle.num_items), key=lambda i: (-scores[a, i], i))[:10]
        per_user_hr.append(sum(1 for p in pos if p in top) / len(pos))
    margin_frac = good / total
    hr10 = float(np.mean(per_user_hr))
    elapsed = time.perf_counter() - start
    report(
        "overfit check",
        margin_frac >= 0.95 and hr10 >= 0.95 and elapsed < 120,
        f"positive margins {margin_frac:.3f}, train HR@10 {hr10:.3f}, {elapsed:.1f}s",
    )


def test_end_to_end_determinism(tmp_path):
    """Two identical train commands write byte-identical checkpoint and log."""
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(
            "synthetic=true\nsynth_users=30\nsynth_items=25\ndim=4\nlatent=3\n"
            "k=1\nmax_epochs=3\nbatch_size=64\nseed=7\nval_negatives=20\n"
            f"output_dir={out}\n",
            encoding="utf-8",
        )
        assert cli.main(["train", "--config", str(cfg)]) == 0
        outputs.append(
            ((out / "checkpoint.bin").read_bytes(), (out / "train.log").read_bytes())
        )
    report(
        "end-to-end determinism",
        outputs[0] == outputs[1],
        "checkpoint and log byte-identical across reruns",
    )


def test_ablation_delta_arithmetic():
    """0.1621 -> 0.1573 is reported as -2.96%."""
    got = E.format_relative_change(0.1573, 0.1621)
    report("ablation delta arithmetic", got == "-2.96%", f"got {got}")


# Frozen regression values: NDCG@10 on the homophily=0.9 synthetic bundle
# (500 users, 400 items, seed 0), D=8, L=8, 30 epochs, lr 0.01, single worker.
REGRESSION_ANCHORS = {
    "full": 0.03810214141593615,
    "k1": 0.037911917315840094,
    "featureless_k2": 0.03779635266617656,
}


def test_regression_anchors():
    """Seeded end-to-end NDCG@10 values stay within 1e-6 of frozen anchors."""
    bundle = D.generate_synthetic(
        D.SyntheticSpec(users=500, items=400, homophily=0.9, seed=0)
    )
    hy = M.HyperParams(D=8, L=8, K=2)
    tc = T.TrainConfig(max_epochs=30, learning_rate=0.01, batch_size=512,
                       seed=0, val_negatives=100)
    ec = E.EvalConfig(n_values=[10], num_negatives=1000, repetitions=3, seed=0)
    got = {}
    for variant in REGRESSION_ANCHORS:
        vh = E.variant_hypers(hy, variant)
        params, _ = T.train(bundle, vh, tc)
        got[variant] = E.evaluate(params, vh, bundle, ec).mean("ndcg", 10)
    ok = all(abs(got[v] - REGRESSION_ANCHORS[v]) <= 1e-6 for v in REGRESSION_ANCHORS)
    trend = "holds" if got["full"] >= got["k1"] else "does not hold"
    report(
        "regression anchors",
        ok,
        "NDCG@10 " + ", ".join(f"{v}={got[v]:.6f}" for v in got)
        + f"; qualitative trend full >= k1 {trend} (reported, not asserted)",
    )
