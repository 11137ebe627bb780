import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
        assert m.positives_by_user == [[0, 1], [0]]
        assert m.positives_by_item == [[0, 1], [0]]

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


class TestLoadSocial:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "s.tsv", "0\t1\n0\t2\n")
        g = D.load_social(path)
        assert g.followees_by_user == [[1, 2], [], []]

    def test_self_loop(self, tmp_path):
        path = write(tmp_path, "s.tsv", "3\t3\n")
        with pytest.raises(D.DataError, match="self-loop"):
            D.load_social(path)

    def test_empty_with_header(self, tmp_path):
        path = write(tmp_path, "s.tsv", "users=4\n")
        g = D.load_social(path)
        assert g.num_users == 4
        assert all(not s for s in g.followees_by_user)


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
        for i in range(out.num_items):
            assert len(out.positives_by_item[i]) >= 2

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

    def test_homophily_one_all_intra(self):
        spec = D.SyntheticSpec(users=60, items=30, homophily=1.0, seed=2)
        rng = np.random.default_rng(spec.seed)
        C = min(spec.clusters, spec.users, spec.items)
        clusters = rng.integers(0, C, size=spec.users)
        _, social, _, _ = D.synthetic_tables(spec)
        for a, b in social.edges():
            assert clusters[a] == clusters[b]

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
        assert outcome(D.InteractionMatrix.from_edges, edges, users, items) == (
            outcome(O.interactions_from_edges, edges, users, items)
        )
        assert outcome(D.SocialGraph.from_edges, edges, users) == (
            outcome(O.social_from_edges, edges, users)
        )

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
            "8a97b1b4ee4ef922f706a4b5388224f63a1b93e54efcf5228f9c268f10f40f67"
        )
