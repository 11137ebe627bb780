import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle as O
from socialgcn import data as D


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoadInteractions:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "r.tsv", "0\t0\n0\t1\n1\t0\n")
        m = D.load_interactions(path)
        assert m.num_users == 2 and m.num_items == 2
        assert list(m.positives_by_user) == [[0, 1], [0]]
        assert m.positives_by_user[-1] == [0]
        with pytest.raises(IndexError):
            m.positives_by_user[2]
        assert np.bincount(m.indices, minlength=m.num_items).tolist() == [2, 1]

    def test_dedup(self, tmp_path):
        path = write(tmp_path, "r.tsv", "0\t0\n0\t0\n")
        m = D.load_interactions(path)
        assert m.num_edges == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "r.tsv", "a\t3\n")
        with pytest.raises(D.DataError, match=":1"):
            D.load_interactions(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "r.tsv", "")
        with pytest.raises(D.DataError, match="empty"):
            D.load_interactions(path)

    def test_header_declares_dims(self, tmp_path):
        path = write(tmp_path, "r.tsv", "users=5 items=7\n0\t0\n")
        m = D.load_interactions(path)
        assert m.num_users == 5 and m.num_items == 7

    def test_id_overflow_vs_header(self, tmp_path):
        path = write(tmp_path, "r.tsv", "users=2 items=2\n3\t0\n")
        with pytest.raises(D.DataError, match="out of range"):
            D.load_interactions(path)

    def test_comments_ignored(self, tmp_path):
        path = write(tmp_path, "r.tsv", "# hi\n0\t0\n")
        assert D.load_interactions(path).num_edges == 1

    @pytest.mark.parametrize(
        "line,message",
        [("9\t1", "user id 9 out of range [0, 5)"), ("1\t7", "item id 7 out of range [0, 5)")],
    )
    def test_id_past_header_names_line(self, tmp_path, line, message):
        path = write(tmp_path, "r.tsv", f"users=5 items=5\n0\t1\n{line}\n")
        with pytest.raises(D.DataError, match=re.escape(f"r.tsv:3: {message}")):
            D.load_interactions(path)


class TestLoadSocial:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "s.tsv", "0\t1\n0\t2\n")
        g = D.load_social(path)
        assert list(D.Rows(g)) == [[1, 2], [], []]

    def test_self_loop(self, tmp_path):
        path = write(tmp_path, "s.tsv", "3\t3\n")
        with pytest.raises(D.DataError, match="self-loop"):
            D.load_social(path)

    @pytest.mark.parametrize("line", ["9\t1", "1\t7", "-1\t2"])
    def test_id_past_header_names_line(self, tmp_path, line):
        path = write(tmp_path, "s.tsv", f"users=5\n0\t1\n{line}\n")
        a, b = line.split("\t")
        message = f"s.tsv:3: social edge ({a},{b}) out of range [0, 5)"
        with pytest.raises(D.DataError, match=re.escape(message)):
            D.load_social(path)

    @pytest.mark.parametrize("line", ["-1\t2", "2\t-1"])
    def test_negative_id_without_header_names_line(self, tmp_path, line):
        path = write(tmp_path, "s.tsv", f"0\t1\n{line}\n")
        with pytest.raises(D.DataError, match=re.escape(f"s.tsv:2: negative id in {line!r}")):
            D.load_social(path)

    def test_empty_with_header(self, tmp_path):
        path = write(tmp_path, "s.tsv", "users=4\n")
        g = D.load_social(path)
        assert g.num_users == 4
        assert all(not s for s in D.Rows(g))


class TestLoadFeatures:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "f.tsv", "0\t1.0,2.0,3.0\n1\t4.0,5.0,6.0\n")
        t = D.load_features(path, 2)
        assert t.dim == 3
        assert np.array_equal(t.vectors, [[1, 2, 3], [4, 5, 6]])

    def test_missing_entity(self, tmp_path):
        path = write(tmp_path, "f.tsv", "0\t1.0,2.0\n")
        with pytest.raises(D.DataError, match="entity 1"):
            D.load_features(path, 2)

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path, "f.tsv", "0\t1.0,NaN\n")
        with pytest.raises(D.DataError, match="non-finite"):
            D.load_features(path, 1)

    def test_inconsistent_dim(self, tmp_path):
        path = write(tmp_path, "f.tsv", "0\t1.0,2.0\n1\t3.0\n")
        with pytest.raises(D.DataError, match="dim"):
            D.load_features(path, 2)


class TestRoundTrips:
    def test_interactions(self, tmp_path):
        m = D.InteractionMatrix.from_edges([(0, 1), (2, 0), (1, 1)], 4, 3)
        D.save_interactions(m, tmp_path / "r.tsv")
        assert D.load_interactions(tmp_path / "r.tsv") == m

    def test_social(self, tmp_path):
        g = D.SocialGraph.from_edges([(0, 1), (1, 0), (2, 1)], 5)
        D.save_social(g, tmp_path / "s.tsv")
        assert D.load_social(tmp_path / "s.tsv") == g

    def test_features_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = D.FeatureTable(dim=4, vectors=rng.normal(size=(6, 4)))
        D.save_features(t, tmp_path / "f.tsv")
        assert D.load_features(tmp_path / "f.tsv", 6) == t

    def test_features_write_repr(self, tmp_path):
        vectors = np.array([[-0.0, 5e-324, 1e300], [-2.5e-310, 0.1, 1 / 3]])
        D.save_features(D.FeatureTable(dim=3, vectors=vectors), tmp_path / "f.tsv")
        assert (tmp_path / "f.tsv").read_text() == (
            "0\t-0.0,5e-324,1e+300\n1\t-2.5e-310,0.1,0.3333333333333333\n"
        )
        assert D.load_features(tmp_path / "f.tsv", 2).vectors.tobytes() == vectors.tobytes()


class TestPreprocessFilter:
    def test_low_rating_user_removed(self):
        inter = D.InteractionMatrix.from_edges(
            [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)], 3, 2
        )
        social = D.SocialGraph.from_edges(
            [(0, 1), (0, 2), (1, 0), (2, 0), (1, 2), (2, 1)], 3
        )
        # user 0 has 1 rating and 4 incident links -> removed
        out, soc, umap, imap = D.preprocess_filter(inter, social)
        assert 0 not in umap and 1 in umap and 2 in umap

    def test_cascade_to_fixed_point(self):
        # hand-traced: item 2 is rated once -> dropped; user 2 then has a
        # single rating -> dropped on the next pass; users 0,1 survive.
        inter = D.InteractionMatrix.from_edges(
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2)], 3, 3
        )
        social = D.SocialGraph.from_edges([(0, 1), (1, 0), (0, 2), (2, 0)], 3)
        out, soc, umap, imap = D.preprocess_filter(inter, social)
        assert umap == {0: 0, 1: 1}
        assert imap == {0: 0, 1: 1}
        assert sorted(out.edges()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert sorted(soc.edges()) == [(0, 1), (1, 0)]

    def test_minimums_hold_on_random_instance(self):
        rng = np.random.default_rng(11)
        edges = {(int(a), int(i)) for a, i in rng.integers(0, 15, size=(80, 2))}
        social = {(int(a), int(b)) for a, b in rng.integers(0, 15, size=(40, 2)) if a != b}
        inter = D.InteractionMatrix.from_edges(sorted(edges), 15, 15)
        soc = D.SocialGraph.from_edges(sorted(social), 15)
        out, sg, _, _ = D.preprocess_filter(inter, soc, 2, 2, 2)
        links = [0] * out.num_users
        for a, b in sg.edges():
            links[a] += 1
            links[b] += 1
        for a in range(out.num_users):
            assert len(out.positives_by_user[a]) >= 2
            assert links[a] >= 2
        assert (np.bincount(out.indices, minlength=out.num_items) >= 2).all()

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 7)), max_size=60),
        follows=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
        minimums=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    def test_matches_set_reference(self, edges, follows, minimums):
        inter = D.InteractionMatrix.from_edges(edges, 10, 8)
        social = D.SocialGraph.from_edges([(a, b) for a, b in follows if a != b], 10)
        assert outcome(D.preprocess_filter, inter, social, *minimums) == (
            outcome(O.preprocess_filter, inter, social, *minimums)
        )

    def test_everything_filtered_reported(self):
        inter = D.InteractionMatrix.from_edges([(0, 0)], 2, 1)
        soc = D.SocialGraph.from_edges([(0, 1)], 2)
        with pytest.raises(D.DataError, match="removed every"):
            D.preprocess_filter(inter, soc)


class TestSplit:
    def make(self, n_edges):
        return D.InteractionMatrix.from_edges(
            [(k % 10, k // 10) for k in range(n_edges)], 10, (n_edges + 9) // 10
        )

    def test_floor_sizes(self):
        b = D.split(self.make(100), D.SplitConfig(seed=7))
        assert b.test.num_edges == 10
        assert b.validation.num_edges == 9
        assert b.train.num_edges == 81

    def test_deterministic(self):
        m = self.make(60)
        b1 = D.split(m, D.SplitConfig(seed=5))
        b2 = D.split(m, D.SplitConfig(seed=5))
        assert b1.train == b2.train and b1.test == b2.test and b1.validation == b2.validation

    def test_partition_property(self):
        m = self.make(57)
        b = D.split(m, D.SplitConfig(seed=3))
        tr, va, te = set(b.train.edges()), set(b.validation.edges()), set(b.test.edges())
        assert tr | va | te == set(m.edges())
        assert not (tr & va) and not (tr & te) and not (va & te)

    def test_empty_test_errors(self):
        with pytest.raises(D.DataError, match="empty test"):
            D.split(self.make(5), D.SplitConfig(test_fraction=0.10, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(D.DataError):
            D.SplitConfig(test_fraction=1.5)


class TestSynthetic:
    def test_deterministic_bytes(self):
        spec = D.SyntheticSpec(users=40, items=30, seed=9)
        b1 = D.generate_synthetic(spec)
        b2 = D.generate_synthetic(spec)
        assert b1.fingerprint() == b2.fingerprint()

    @pytest.mark.parametrize(
        "spec",
        [
            D.SyntheticSpec(users=60, items=30, homophily=1.0, seed=2),
            # a cluster with fewer than 4 other users: each follows all of them
            D.SyntheticSpec(users=5, items=2, dim_user=1, homophily=1.0),
        ],
    )
    def test_homophily_one_all_intra(self, spec):
        rng = np.random.default_rng(spec.seed)
        C = min(spec.clusters, spec.users, spec.items)
        clusters = rng.integers(0, C, size=spec.users)
        _, social, _, _ = D.synthetic_tables(spec)
        for a, b in social.edges():
            assert clusters[a] == clusters[b]
        mates = np.bincount(clusters)[clusters] - 1
        assert (np.diff(social.indptr) == np.minimum(mates, min(5, spec.users - 1))).all()

    def test_homophily_zero_intra_fraction(self):
        spec = D.SyntheticSpec(users=500, items=50, homophily=0.0, seed=4)
        rng = np.random.default_rng(spec.seed)
        C = min(spec.clusters, spec.users, spec.items)
        clusters = rng.integers(0, C, size=spec.users)
        _, social, _, _ = D.synthetic_tables(spec)
        edges = social.edges()
        intra = sum(1 for a, b in edges if clusters[a] == clusters[b]) / len(edges)
        assert abs(intra - 1.0 / C) < 0.05

    def test_bundle_invariants(self):
        b = D.generate_synthetic(D.SyntheticSpec(users=25, items=20, seed=1))
        assert b.social is not None and b.user_features is not None
        assert b.train.num_users == b.test.num_users == b.validation.num_users
        tr, va, te = set(b.train.edges()), set(b.validation.edges()), set(b.test.edges())
        assert not (tr & va) and not (tr & te) and not (va & te)

    def test_degenerate_spec(self):
        with pytest.raises(D.DataError):
            D.SyntheticSpec(users=0, items=5)

    @pytest.mark.parametrize(
        "spec,fingerprint",
        [
            # the two perfbench workloads
            (D.SyntheticSpec(users=300, items=450, seed=0),
             "d5add22c0b1644d54883db0f7e774b2cd7e8e8ef70fdd4f56a0219c0cb84c669"),
            (D.SyntheticSpec(users=200, items=600, seed=0),
             "e1d74b64c20fdf9dd2aac9fbe15578ae200b62c3dd49cf2e1cd1f40720ea119e"),
            (D.SyntheticSpec(users=40, items=30, homophily=0.0, seed=9),
             "ee2bf3efc9b513e4510f151553b3f7bd5b1410036d08173e65b108fd33ced724"),
            (D.SyntheticSpec(users=40, items=30, homophily=1.0, seed=9),
             "38cedc6cf1f46aded1270b889166ee115d0a1ce848392c2e8f9b011dd68130d0"),
            # user clusters of sizes [4, 2, 1, 2, 3]: one user is alone in theirs
            (D.SyntheticSpec(users=12, items=30, seed=0),
             "73a5380260535fb2ddb2475462df33580b7aacbfa62e12e735ee2a43d36ecb5c"),
            (D.SyntheticSpec(users=40, items=30, clusters=1, seed=9),
             "9a0a865c8267ba2d1cd423df76d9ea6067e850f321ba44f4ca880bb7691ee218"),
            # 27 of 30 items per user: the weighted draws take several rounds
            (D.SyntheticSpec(users=40, items=30, density=0.9, seed=9),
             "01ca60a985a5699b08beae3a5dbf3f3710b66b626f6deb3e5ad0960fa765b011"),
            (D.SyntheticSpec(users=1, items=200, seed=9),
             "d929c24403495f7f81c6ff7aa259b1afbb0ed1847f35450190488ee6fa3f7509"),
        ],
    )
    def test_fingerprint_is_pinned(self, spec, fingerprint):
        assert D.generate_synthetic(spec).fingerprint() == fingerprint

    @settings(max_examples=150, deadline=None)
    @given(
        users=st.integers(1, 60),
        items=st.integers(1, 60),
        clusters=st.integers(1, 8),
        homophily=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        density=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**32),
    )
    def test_matches_reference(self, users, items, clusters, homophily, density, dims, seed):
        spec = D.SyntheticSpec(users=users, items=items, dim_user=dims[0], dim_item=dims[1],
                               homophily=homophily, density=density, seed=seed, clusters=clusters)
        inter, social, uf, itf = D.synthetic_tables(spec)
        inter0, social0, uf0, itf0 = O.synthetic_tables(spec)
        assert inter == inter0 and social == social0
        assert uf.vectors.tobytes() == uf0.vectors.tobytes()
        assert itf.vectors.tobytes() == itf0.vectors.tobytes()

    @pytest.mark.parametrize("per_block", [1, 3, 64])
    @pytest.mark.parametrize("spec", [
        D.SyntheticSpec(users=130, items=40, seed=7),
        D.SyntheticSpec(users=40, items=30, homophily=1.0, seed=9),
        # user clusters of sizes [4, 2, 1, 2, 3]: one user is alone in theirs
        D.SyntheticSpec(users=12, items=30, seed=0),
    ], ids=["130-users", "homophily-1", "lone-user"])
    def test_matches_reference_across_follow_blocks(self, spec, per_block):
        # a block of per_block users' follow cdfs; 64 leaves a short last block at 130 users
        with mock.patch.object(D, "_FOLLOW_BLOCK_CELLS", per_block * spec.users):
            inter, social, uf, itf = D.synthetic_tables(spec)
        inter0, social0, uf0, itf0 = O.synthetic_tables(spec)
        assert inter == inter0 and social == social0
        assert uf.vectors.tobytes() == uf0.vectors.tobytes()
        assert itf.vectors.tobytes() == itf0.vectors.tobytes()


class TestWeightedDraw:
    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.integers(1, 50).flatmap(lambda n: hnp.arrays(
            np.float64, n,
            elements=st.just(0.0) | st.integers(-60, 10).map(lambda k: 2.0**k) | st.floats(1e-3, 1.0),
        )),
        data=st.data(),
        seed=st.integers(0, 2**32),
        with_cdf=st.booleans(),
    )
    def test_draws_what_choice_draws(self, weights, data, seed, with_cdf):
        nonzero = np.count_nonzero(weights)
        assume(nonzero > 0)
        p = weights / weights.sum()
        size = data.draw(st.integers(0, nonzero))
        cdf = None
        if with_cdf:
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
        before = p.copy()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = D._weighted_draw(ours, p, size, cdf)
        assert got == theirs.choice(len(p), size, replace=False, p=p).tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert p.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# bulk loaders, array constructors, split and fingerprint against the
# line-by-line and list-based references in tests/oracle.py

NOISE = ["", "   ", "# comment", "  # indented comment", "\t"]


def render_id(draw, value):
    """An id as int() reads it: plain, signed, zero-padded or with spaces."""
    form = draw(st.sampled_from(["{}", "+{}", "00{}", " {}", "{} "]))
    return form.format(value) if value >= 0 else str(value)


@st.composite
def edge_lines(draw, social):
    """Data lines of a valid edge file, header (if any) first, with duplicate edges."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    if social:
        pairs = [(a, b) for a, b in pairs if a != b]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []  # duplicates
    lines = [
        draw(st.sampled_from(["", " ", "\t"])) + render_id(draw, a) + "\t" + render_id(draw, b)
        for a, b in pairs
    ]
    extra = draw(st.integers(0, 2))
    headers = [None, f"users={n + extra}"]
    if not social:
        headers += [f"users={n + extra} items={n}", f" items={n}   users={n} "]
    header = draw(st.sampled_from(headers))
    return ([header] if header else []) + lines


@st.composite
def feature_lines(draw):
    """Data lines of a valid feature file, and its entity count."""
    count, dim = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    ids = list(range(count)) + draw(st.lists(st.sampled_from([-2, count, count + 3]), unique=True))
    ids = draw(st.permutations(ids))
    value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    lines = []
    for ent in ids:
        vector = draw(st.lists(value, min_size=dim, max_size=dim))
        values = [draw(st.sampled_from(["{!r}", " {!r} "])).format(v) for v in vector]
        lines.append(render_id(draw, ent) + "\t" + ",".join(values))
    return lines, count


def file_text(draw, lines):
    """Lines joined with LF or CRLF, with comments and blank lines among them."""
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(NOISE), max_size=2)) + [line]
    out += draw(st.lists(st.sampled_from(NOISE), max_size=2))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + draw(st.sampled_from(["", "\n"]))


def corrupt(draw, lines, kind):
    """`lines` with one line broken (or, for a header, made too small)."""
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    first, _, rest = line.partition("\t")
    options = {
        "no tab": line.replace("\t", " "),
        "extra field": line + "\t1",
        "bad id": "x" + line,
        "fractional id": first + ".5\t" + rest,
        "negative id": "-4\t" + rest,
        "large id": "1000\t" + rest,
    }
    if kind == "social":
        options["self-loop"] = rest + "\t" + rest
    if kind != "features":  # two faults on one line: the first in check order names it
        options.update({
            "negative and past 64 bits": f"-4\t{2**63}",
            "negative self-loop": "-4\t-4",
            "past 64 bits and negative": f"{2**63}\t-4",
        })
    if kind == "features":
        options.update({
            "bad value": line + "x",
            "non-finite": first + "\t" + ",".join(["nan"] + rest.split(",")[1:]),
            "wider": line + ",1.5",
            "duplicate": lines[(k + 1) % len(lines)].partition("\t")[0] + "\t" + rest,
            "empty values": first + "\t",
        })
    if kind == "interactions" and line.strip().startswith(("users", "items")):
        options = {"small header": "users=1 items=1"}
    broken = draw(st.sampled_from(sorted(options.values())))
    return lines[:k] + [broken] + lines[k + 1 :]


def outcome(call, *args):
    """call(*args) in comparable form, or the message of its DataError."""
    try:
        result = call(*args)
    except D.DataError as exc:
        return f"DataError: {exc}"
    if isinstance(result, D.FeatureTable):
        return result.dim, result.vectors.shape, result.vectors.tobytes()
    return result


LOADERS = {
    "interactions": (D.load_interactions, O.load_interactions),
    "social": (D.load_social, O.load_social),
    "features": (D.load_features, O.load_features),
}


class TestBulkLoadersMatchLineByLine:
    examples = settings(max_examples=150, deadline=None)

    def check(self, directory, kind, text, *args):
        path = directory / f"{kind}.tsv"
        path.write_bytes(text.encode("utf-8"))
        new, old = LOADERS[kind]
        expected = outcome(old, str(path), *args)
        assert outcome(new, str(path), *args) == expected
        return expected

    @examples
    @given(data=st.data(), kind=st.sampled_from(sorted(LOADERS)))
    def test_valid_files(self, tmp_path_factory, data, kind):
        directory = tmp_path_factory.mktemp("valid")
        if kind == "features":
            lines, count = data.draw(feature_lines())
            result = self.check(directory, kind, file_text(data.draw, lines), count)
        else:
            lines = data.draw(edge_lines(kind == "social"))
            result = self.check(directory, kind, file_text(data.draw, lines))
        assert lines == [] or not isinstance(result, str)

    @examples
    @given(data=st.data(), kind=st.sampled_from(sorted(LOADERS)))
    def test_one_corrupt_line_gives_the_same_message(self, tmp_path_factory, data, kind):
        directory = tmp_path_factory.mktemp("corrupt")
        if kind == "features":
            lines, count = data.draw(feature_lines())
            lines = corrupt(data.draw, lines, kind)
            self.check(directory, kind, file_text(data.draw, lines), count)
        else:
            lines = data.draw(edge_lines(kind == "social"))
            assume(lines)
            lines = corrupt(data.draw, lines, kind)
            self.check(directory, kind, file_text(data.draw, lines))

    @pytest.mark.parametrize("kind", ["interactions", "social"])
    def test_id_beyond_int64_names_line(self, tmp_path, kind):
        path = write(tmp_path, "big.tsv", f"users=3 items=3\n0\t1\n{2**63}\t1\n")
        with pytest.raises(D.DataError, match=r"big.tsv:3: id out of range in "):
            LOADERS[kind][0](path)

    @pytest.mark.parametrize("kind, header, row", [
        ("interactions", f"users={2**64} items=3", f"{2**63}\t1"),
        ("interactions", f"users=3 items={2**63}", f"1\t{2**63}"),
        ("social", f"users={2**64}", f"{2**63}\t1"),
        ("social", f"users={2**63}", f"1\t{2**63}"),
    ])
    def test_id_beyond_int64_under_a_count_beyond_it_names_line(self, tmp_path, kind, header, row):
        path = write(tmp_path, "big.tsv", f"{header}\n0\t1\n{row}\n")
        with pytest.raises(D.DataError, match=re.escape(f"big.tsv:3: id out of range in {row!r}")):
            LOADERS[kind][0](path)

    @pytest.mark.parametrize("header", ["users=3 users=9", "items=4 items=2"])
    @pytest.mark.parametrize("kind", ["interactions", "social"])
    def test_header_that_repeats_a_key_is_an_edge_line(self, tmp_path, kind, header):
        fields = "user<TAB>item" if kind == "interactions" else "follower<TAB>followee"
        path = write(tmp_path, "e.tsv", f"{header}\n0\t1\n")
        with pytest.raises(D.DataError, match=re.escape(f"e.tsv:1: expected '{fields}', got {header!r}")):
            LOADERS[kind][0](path)

    # rows where NumPy's integer reader and int() part ways, or where only
    # one of them accepts the id
    TRAP_ROWS = [
        "5\u01fe\t1",  # NumPy reads 512
        "5\x1f\t1",  # NumPy strips U+001F as whitespace
        "5\t\x1f1",
        "\u0663\t1",  # int() reads the Arabic-Indic digit as 3
        "1_0\t2",  # int() reads 10
        f"{2**63}\t1",
        f"1\t{-(2**63) - 1}",
        "+5\t2",
        " 5\t2",
        "5 \t 2",
        "05\t2",
    ]

    @pytest.mark.parametrize("header", ["", "users=12 items=12\n"], ids=["no-header", "header"])
    @pytest.mark.parametrize("row", TRAP_ROWS)
    @pytest.mark.parametrize("kind", ["interactions", "social"])
    def test_trap_rows_parse_as_line_by_line(self, tmp_path, kind, row, header):
        self.check(tmp_path, kind, f"{header}0\t1\n{row}\n2\t3\n")

    # feature rows where NumPy's readers and int() or float() part ways,
    # or where only one of them accepts the row
    FEATURE_TRAP_ROWS = [
        "1\t1.5\x1f,2",  # NumPy strips U+001F as whitespace
        "1\t\u0661.\u0665,2",  # float() reads the Arabic-Indic digits as 1.5
        "1\t1_0.5,2",  # float() reads 10.5
        "1\t 1.5 ,2",
        "1\t+.5,5.",
        "1\t-0.0,2",
        "1\t1e400,2",
        "1\tnan,2",
        "1\t0x1p3,2",
        "1,2\t3",  # with its TAB made a comma, NumPy reads id 1 and values [2, 3]
        "5\u01fe\t1,2",  # NumPy reads 512
        f"1\t1,2\n{2**63}\t1,2",  # an entity past int64, which no count reaches
    ]

    @pytest.mark.parametrize("row", FEATURE_TRAP_ROWS)
    def test_feature_trap_rows_parse_as_line_by_line(self, tmp_path, row):
        self.check(tmp_path, "features", f"0\t0.5,1.5\n{row}\n2\t2.5,3.5\n", 3)

    NON_ASCII_COMMENTS = "# caf\u00e9 \u2615\nusers=4 items=4\n0\t1\n  # \u01fe\x1f\n2\t3\n"

    @pytest.mark.parametrize("kind", ["interactions", "social"])
    def test_non_ascii_comments_parse_as_line_by_line(self, tmp_path, kind):
        assert not isinstance(self.check(tmp_path, kind, self.NON_ASCII_COMMENTS), str)

    # valid files with untidy lines: non-ASCII comments, a line of spaces, a
    # TAB at either end of a line, spaces around fields, empty lines
    UNTIDY_FILES = [
        ("interactions", NON_ASCII_COMMENTS),
        ("interactions", "users=4 items=4\n  \n\t0\t1\n2\t3\t\n"),
        ("interactions", "users=4 items=4\n0\t1 \n\n 2\t3\n"),
        ("social", NON_ASCII_COMMENTS),
        ("social", "users=4\n\t0\t1\n   \n2\t3\n"),
        ("social", "users=4\n0\t1\n\n\n 2\t3 \n"),
        ("features", "# caf\u00e9\n1\t1.5,-2\n  # \u01fe\x1f\n0\t0.25,1e-3\n"),
        ("features", "\t1\t1.5,-2\n  \n0\t0.25,1e-3\t\n"),
        ("features", "1\t 1.5,-2\n\n0 \t0.25,1e-3 \n\n"),
    ]

    @pytest.mark.parametrize("kind,text", UNTIDY_FILES)
    def test_untidy_files_parse_as_line_by_line(self, tmp_path, kind, text):
        assert not isinstance(self.check(tmp_path, kind, text, *([2] if kind == "features" else [])), str)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_undecodable_file_is_data_error(self, tmp_path, kind):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"0\t1\n\xff\xfe\t2\n")
        with pytest.raises(D.DataError, match="cannot read"):
            LOADERS[kind][0](str(path), *([2] if kind == "features" else []))


class TestArrayConstructors:
    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)), max_size=25),
        users=st.none() | st.integers(0, 9),
        items=st.none() | st.integers(0, 9),
    )
    def test_from_edges_matches_reference(self, edges, users, items):
        inter = outcome(D.InteractionMatrix.from_edges, edges, users, items)
        social = outcome(D.SocialGraph.from_edges, edges, users)
        assert inter == outcome(O.interactions_from_edges, edges, users, items)
        assert social == outcome(O.social_from_edges, edges, users)
        for table in (inter, social):
            if isinstance(table, str):
                continue
            indptr, indices = table.indptr, table.indices
            assert indptr.dtype == indices.dtype == np.int64
            assert not indptr.flags.writeable and not indices.flags.writeable
            assert len(indptr) == table.num_users + 1
            assert indptr[0] == 0 and indptr[-1] == len(indices)
            assert (np.diff(indptr) >= 0).all()
            for start, stop in itertools.pairwise(indptr.tolist()):
                assert (np.diff(indices[start:stop]) > 0).all()

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2, 0)],
        [(0, 1, 2)],
        [(0, 1, 2), (2, 0, 1)],
        [(0, 1, 2), (1,)],
    ], ids=["one-triple", "only-triple", "two-triples", "long-and-short"])
    def test_from_edges_rejects_an_item_that_is_not_a_pair(self, edges):
        for make in (D.InteractionMatrix.from_edges, D.SocialGraph.from_edges):
            with pytest.raises(ValueError):
                make(edges, 3)

    def test_from_edges_takes_a_generator_of_pairs(self):
        edges = [(2, 0), (0, 1), (2, 1), (0, 1)]
        assert D.InteractionMatrix.from_edges(iter(edges), 3, 2) == D.InteractionMatrix.from_edges(edges, 3, 2)
        assert D.SocialGraph.from_edges((e for e in edges), 3) == D.SocialGraph.from_edges(edges, 3)

    @pytest.mark.parametrize("make, message", [
        (lambda: D.InteractionMatrix.from_arrays([0], [1], 2**62, 2), f"table of {2**62} x 2 is too large to index"),
        (lambda: D.SocialGraph.from_arrays([0], [1], 2**32), f"table of {2**32} x {2**32} is too large to index"),
        # NumPy refuses 2**63 bytes before it allocates anything
        (lambda: D.InteractionMatrix.from_arrays([0], [0], 2**60, 1), f"table of {2**60} rows does not fit in memory"),
    ])
    def test_counts_too_large_for_a_table_are_data_errors(self, make, message):
        with pytest.raises(D.DataError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("make", [
        lambda edges: D.InteractionMatrix.from_edges(edges, 3, 4),
        lambda edges: D.SocialGraph.from_edges(edges, 3),
    ], ids=["interactions", "social"])
    def test_equality_ignores_built_operators(self, make):
        edges = [(0, 1), (0, 2), (2, 1)]
        built, fresh = make(edges), make(edges)
        dense = built.row_mean.toarray()
        assert np.array_equal(dense[:, :3], [[0, 0.5, 0.5], [0, 0, 0], [0, 1, 0]]) and not dense[:, 3:].any()
        assert np.array_equal(built.row_mean_t.toarray(), dense.T)
        assert built == fresh and fresh == built
        assert built != make([(0, 1), (0, 2), (2, 0)])
        assert make([(0, 1), (0, 2), (2, 0)]) != built

    @settings(max_examples=100, deadline=None)
    @given(
        degrees=st.lists(st.integers(0, 3) | st.integers(4, 70), min_size=1, max_size=90),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_followee_bands_hold_each_row_once_in_order(self, degrees, seed):
        degrees += [0] * (max(degrees) + 1 - len(degrees))  # enough users to follow
        social = O.social_with_degrees(degrees, np.random.default_rng(seed))
        followees, degree, seen = D.Rows(social), np.diff(social.indptr), []
        for rows, ids in social.followee_bands:
            assert rows.dtype == ids.dtype == np.int64
            assert ids.shape == (degree[rows].max(), len(rows))
            assert len(set(np.frexp(degree[rows])[1].tolist())) == 1  # one power-of-two band
            for column, a in enumerate(rows.tolist()):
                assert ids[: degree[a], column].tolist() == followees[a]
                assert (ids[degree[a] :, column] == followees[a][0]).all()
            seen += rows.tolist()
        assert sorted(seen) == np.flatnonzero(degree).tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 14)), min_size=1, max_size=60),
        seed=st.integers(0, 2**32 - 1),
        test_fraction=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_split_and_fingerprint_match_reference(self, edges, seed, test_fraction):
        inter = D.InteractionMatrix.from_edges(edges, 12, 15)
        config = D.SplitConfig(test_fraction, 0.2, seed)
        got = outcome(D.split, inter, config)
        want = outcome(O.split, inter, config)
        assert got == want
        if not isinstance(got, str):
            social = D.SocialGraph.from_edges([(a, b) for a, b in edges if a != b and b < 12], 12)
            bundle = D.DatasetBundle(got.train, got.validation, got.test, social)
            assert bundle.fingerprint() == O.fingerprint(bundle)

    def test_fingerprint_of_synthetic_bundle_is_unchanged(self):
        bundle = D.generate_synthetic(D.SyntheticSpec(users=40, items=30, seed=9))
        assert bundle.fingerprint() == O.fingerprint(bundle)
        assert bundle.fingerprint() == (
            "0d8ed9afbbc672289d9d4eb90eae7a92a4fd49fe3b5631b3f9438d2f55c333ba"
        )


@st.composite
def datasets(draw):
    """(users, items, split edge lists, social edges, feature matrices or None) of a small dataset."""
    users, items = draw(st.integers(2, 7)), draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, users - 1), st.integers(0, items - 1))
    edges = draw(st.lists(pairs, min_size=1, max_size=20, unique=True))
    where = draw(st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges)))
    splits = [[e for e, k in zip(edges, where) if k == s] for s in range(3)]
    follows = st.tuples(st.integers(0, users - 1), st.integers(0, users - 1)).filter(lambda e: e[0] != e[1])
    social = draw(st.lists(follows, max_size=12, unique=True))
    values = st.floats(-1e6, 1e6)
    features = [
        draw(st.none() | st.integers(1, 3).flatmap(lambda dim: hnp.arrays(np.float64, (rows, dim), elements=values)))
        for rows in (users, items)
    ]
    return users, items, splits, social, features


def bundle_of(
    users, items, splits, social, features, make=D.InteractionMatrix.from_edges, follow=D.SocialGraph.from_edges
):
    tables = [make(edges, users, items) for edges in splits]
    uf, itf = (None if f is None else D.FeatureTable(f.shape[1], f) for f in features)
    return D.DatasetBundle(*tables, follow(social, users), uf, itf)


class TestFingerprint:
    @settings(max_examples=150, deadline=None)
    @given(dataset=datasets(), data=st.data())
    def test_each_change_of_the_data_changes_it(self, dataset, data):
        users, items, splits, social, features = dataset
        base = bundle_of(*dataset).fingerprint()
        changed = {}

        source = data.draw(st.sampled_from([s for s in range(3) if splits[s]]))
        target = data.draw(st.sampled_from([s for s in range(3) if s != source]))
        moved = [list(edges) for edges in splits]
        moved[target].append(moved[source].pop(data.draw(st.integers(0, len(splits[source]) - 1))))
        changed["move an edge between splits"] = (users, items, moved, social, features)

        absent = [(a, b) for a in range(users) for b in range(users) if a != b and (a, b) not in social]
        if absent:
            added = social + [data.draw(st.sampled_from(absent))]
            changed["add a social edge"] = (users, items, splits, added, features)
        if social:
            removed = list(social)
            removed.pop(data.draw(st.integers(0, len(social) - 1)))
            changed["remove a social edge"] = (users, items, splits, removed, features)

        changed["one more user"] = (users + 1, items, splits, social, features)
        changed["one more item"] = (users, items + 1, splits, social, features)

        present = [k for k, f in enumerate(features) if f is not None]
        if present:
            k = data.draw(st.sampled_from(present))
            flipped = list(features)
            flipped[k] = features[k].copy()
            row = data.draw(st.integers(0, len(flipped[k]) - 1))
            col = data.draw(st.integers(0, flipped[k].shape[1] - 1))
            bit = data.draw(st.sampled_from([*range(52), 63]))  # a mantissa or the sign bit: the value stays finite
            flipped[k].view(np.uint64)[row, col] ^= np.uint64(1 << bit)
            changed["flip a feature bit"] = (users, items, splits, social, flipped)
            dropped = list(features)
            dropped[k] = None
            changed["drop a feature table"] = (users, items, splits, social, dropped)

        for what, other in changed.items():
            assert bundle_of(*other).fingerprint() != base, what

    @settings(max_examples=100, deadline=None)
    @given(dataset=datasets(), dtype=st.sampled_from([np.int32, np.int64]))
    def test_equal_for_edges_and_arrays(self, dataset, dtype):
        def arrays(edges, *counts):
            ids = np.array(edges, dtype=dtype).reshape(-1, 2)
            return ids[:, 0], ids[:, 1], *counts

        from_arrays = bundle_of(
            *dataset,
            make=lambda edges, *counts: D.InteractionMatrix.from_arrays(*arrays(edges, *counts)),
            follow=lambda edges, *counts: D.SocialGraph.from_arrays(*arrays(edges, *counts)),
        )
        bundle = bundle_of(*dataset)
        assert from_arrays.fingerprint() == bundle.fingerprint() == O.fingerprint(bundle)
