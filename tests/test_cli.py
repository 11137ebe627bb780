import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle as O
from socialgcn import cli
from socialgcn import data as D
from socialgcn import evaluation as E
from socialgcn import model as M
from socialgcn import training as T
from socialgcn.bounds import RANGES
from socialgcn.checkpoint import (
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def write_config(tmp_path, name="cfg.txt", **overrides):
    base = {
        "synthetic": "true",
        "synth_users": 30,
        "synth_items": 25,
        "dim": 4,
        "latent": 3,
        "k": 1,
        "max_epochs": 2,
        "batch_size": 64,
        "seed": 5,
        "val_negatives": 20,
        "eval_negatives": 20,
        "repetitions": 2,
        "n": "5,10",
        "output_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()), encoding="utf-8")
    return str(path)


class TestConfig:
    def test_reads_every_written_value(self, tmp_path):
        path = write_config(tmp_path, use_bias="no", learning_rate="0.25", variants="full, k1,")
        assert cli.parse_config(path) == replace(
            cli.RunConfig(),
            synthetic=True,
            synth_users=30,
            synth_items=25,
            dim=4,
            latent=3,
            k=1,
            max_epochs=2,
            batch_size=64,
            seed=5,
            val_negatives=20,
            eval_negatives=20,
            repetitions=2,
            n=[5, 10],
            output_dir=str(tmp_path / "out"),
            use_bias=False,
            learning_rate=0.25,
            variants=["full", "k1"],
        )

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("nonsense=1\n")
        with pytest.raises(cli.ConfigError, match="nonsense"):
            cli.parse_config(str(p))

    def test_undecodable_config_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe")
        assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}: ")

    def test_missing_social_is_config_error(self, tmp_path):
        path = write_config(tmp_path, synthetic="false", interactions="r.tsv")
        cfg = cli.parse_config(path)
        with pytest.raises(cli.ConfigError, match="social"):
            cfg.validate()

    def test_filter_with_features_exits_2_before_reading_files(self, tmp_path, capsys):
        files = {name: tmp_path / f"{name}.tsv" for name in ("interactions", "social", "user_features", "item_features")}
        files["interactions"].write_text("".join(f"{a}\t{i}\n" for a in range(4) for i in range(4)), encoding="utf-8")
        files["social"].write_text("0\t1\n1\t2\n2\t0\n", encoding="utf-8")  # user 3 has no links
        for name in ("user_features", "item_features"):
            files[name].write_text("0\t1.0\n", encoding="utf-8")  # no vector for entity 1
        cfg = write_config(tmp_path, synthetic="false", filter="true", mode="features", **files)
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: filter=true with mode=features is unsupported")
        featureless = cli.parse_config(write_config(
            tmp_path, synthetic="false", filter="true", mode="featureless", latent=4,
            min_ratings=1, min_links=1, min_item_degree=1, **files,
        ))
        featureless.validate()
        assert cli.build_bundle(featureless).num_users == 3

    def test_filter_with_synthetic_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, filter="true", min_ratings=1000)
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: filter=true does not apply to synthetic=true data\n"
        assert not os.path.exists(tmp_path / "out")

    def test_featureless_requires_matching_dims(self, tmp_path):
        path = write_config(tmp_path, mode="featureless", dim=4, latent=3)
        with pytest.raises(cli.ConfigError, match="latent"):
            cli.parse_config(path).validate()

    def test_repeated_key_exits_2_naming_both_lines(self, tmp_path, capsys):
        once = write_config(tmp_path)
        lines = Path(once).read_text(encoding="utf-8").splitlines()
        line = lines.index("seed=5") + 1
        lines[line - 1 : line] = ["seed=1", "seed=2"]
        path = tmp_path / "twice.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["train", "--config", str(path), "--seed", "3"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: {path}:{line + 1}: config key 'seed' given twice (first on line {line})\n"
        assert captured.out == "" and not (tmp_path / "out").exists()
        # a flag still overrides the file's one value of a key
        assert cli._load_config(cli.build_parser().parse_args(["train", "--config", once, "--seed", "3"])).seed == 3

    def test_unknown_variant_is_config_error(self, tmp_path):
        path = write_config(tmp_path, variants="full,bogus")
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.parse_config(path).validate()

    @pytest.mark.parametrize(
        "key,value,named",
        [("aggregator", "bogus", "aggregator"), ("k", "-1", "k"), ("n", "0", "n"), ("n", "5,0", "n")],
    )
    def test_bad_model_or_cutoff_is_config_error(self, tmp_path, capsys, key, value, named):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(cli.ConfigError, match=f"^{named} "):
            cli.parse_config(path).validate()
        assert cli.main(["train", "--config", path]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("use_bias", "maybe"), ("dim", "1.5"), ("learning_rate", "abc"), ("n", "5,x")],
    )
    def test_unparsable_value_exits_2_naming_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: bad value for {key!r}: {value!r}\n"

    @pytest.mark.parametrize(
        "key,value",
        [
            ("dim", "0"),
            ("latent", "0"),
            ("negatives", "0"),
            ("batch_size", "0"),
            ("learning_rate", "-1"),
            ("lambda_reg", "-0.5"),
            ("max_epochs", "-1"),
            ("patience", "0"),
            ("val_negatives", "-3"),
            ("eval_negatives", "-1"),
            ("repetitions", "0"),
            ("test_fraction", "1.5"),
            ("validation_fraction", "0"),
            ("synth_users", "0"),
            ("synth_items", "0"),
            ("synth_dim_user", "-1"),
            ("synth_dim_item", "0"),
            ("synth_clusters", "0"),
            ("synth_density", "1"),
            ("synth_homophily", "1.5"),
            ("min_ratings", "-1"),
            ("min_links", "-1"),
            ("min_item_degree", "-1"),
        ],
    )
    def test_out_of_range_number_exits_2_naming_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key} must be ")

    def test_synthetic_split_uses_config_fractions(self, tmp_path):
        default = cli.build_bundle(cli.parse_config(write_config(tmp_path)))
        wider = cli.build_bundle(cli.parse_config(write_config(tmp_path, test_fraction=0.3)))
        edges = default.train.num_edges + default.validation.num_edges + default.test.num_edges
        assert default.test.num_edges == math.floor(0.1 * edges)
        assert wider.test.num_edges == math.floor(0.3 * edges)
        spec = D.SyntheticSpec(users=30, items=25, seed=5)
        assert default.fingerprint() == D.generate_synthetic(spec).fingerprint()


def malformed_line(draw):
    """(text, key, message start) of one or more config lines, joined by newlines, that parse_config or validate rejects.

    The message names `key`; with `key` None it follows the file and the number of the text's last line.
    """
    text = st.text(alphabet=TEXT, min_size=1).filter(lambda t: t.strip() and not t.strip().startswith("#"))
    kinds = ["no-equals", "unknown-key", "unparsable", "out-of-range", "empty-list", "repeated-n", "repeated-variants",
             "repeated-key"]
    kind = draw(st.sampled_from(kinds))
    if kind == "no-equals":
        return draw(text.filter(lambda t: "=" not in t)), None, "expected key=value"
    if kind == "unknown-key":
        key = draw(text.filter(lambda t: "=" not in t and t.strip() not in RUN_FIELDS))
        return f"{key}=1", None, f"unknown config key {key.strip()!r}"
    if kind == "unparsable":
        key = draw(st.sampled_from([k for k, f in RUN_FIELDS.items() if f.type != "str"]))
        value = draw(st.text(alphabet=TEXT).map(str.strip).filter(lambda v: not parses(RUN_FIELDS[key].type, v)))
        return f"{key}={value}", key, f"bad value for {key!r}: {value!r}"
    if kind == "empty-list":
        key = draw(st.sampled_from(["n", "variants"]))
        return f"{key}={draw(st.sampled_from(['', ' ', ',', ' , ']))}", key, f"{key} must list "
    if kind == "repeated-n":
        cutoffs = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
        cutoffs.insert(draw(st.integers(0, len(cutoffs))), draw(st.sampled_from(cutoffs)))
        return f"n={','.join(map(str, cutoffs))}", "n", "n must list distinct cutoffs"
    if kind == "repeated-variants":
        variants = draw(st.lists(st.sampled_from(E.ABLATION_VARIANTS), min_size=1, max_size=4))
        variants.insert(draw(st.integers(0, len(variants))), draw(st.sampled_from(variants)))
        return f"variants={','.join(variants)}", "variants", f"variants must list distinct variants, got {variants}"
    if kind == "repeated-key":
        key = draw(st.sampled_from(sorted(RUN_FIELDS)))
        default = getattr(cli.RunConfig(), key)
        value = ",".join(map(str, default)) if isinstance(default, list) else default
        again = draw(st.text(alphabet=TEXT))
        return f"{key}={value}\n{key}={again}", None, f"config key {key!r} given twice (first on line "
    key = draw(st.sampled_from([k for k, f in RUN_FIELDS.items() if f.metadata.get("within") or f.metadata.get("choices")]))
    f = RUN_FIELDS[key]
    if f.metadata["choices"]:
        value = draw(st.text(alphabet=TEXT).map(str.strip).filter(lambda v: v not in f.metadata["choices"]))
    else:
        numbers = st.floats() if f.type == "float" else st.integers()
        value = draw(numbers.filter(lambda v: not RANGES[f.metadata["within"]](v)))
    return f"{key}={value}", key, f"{key} must be "


TEXT = st.characters(codec="ascii", exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e")
RUN_FIELDS = {f.name: f for f in fields(cli.RunConfig)}


def parses(ftype, raw):
    try:
        cli._PARSERS[ftype](raw)
    except (ValueError, KeyError):
        return False
    return True


LIBRARY_CONFIGS = (M.HyperParams, T.TrainConfig, E.EvalConfig, D.SplitConfig, D.SyntheticSpec)


class TestBuild:
    def test_each_library_field_is_fed_by_one_setting(self):
        feeds = [f.metadata["feeds"] for f in RUN_FIELDS.values() if "feeds" in f.metadata]
        assert len(feeds) == len(set(feeds)), "two settings feed one library field"
        assert {owner for owner, _ in feeds} <= set(LIBRARY_CONFIGS)
        for cls in LIBRARY_CONFIGS:
            for f in fields(cls):
                fed = [name for name, r in RUN_FIELDS.items() if r.metadata.get("feeds") == (cls, f.name)]
                assert fed or f.name in RUN_FIELDS, f"no setting feeds {cls.__name__}.{f.name}"

    def test_each_setting_reaches_its_field(self, tmp_path):
        path = write_config(
            tmp_path, mode="featureless", latent=4, aggregator="max", use_bias="false", pin_user_base="true",
            synth_dim_user=3, synth_dim_item=2, synth_homophily=0.5, synth_density=0.2, synth_clusters=4,
            test_fraction=0.2, validation_fraction=0.3, learning_rate=0.5, negatives=7, lambda_reg=0.25,
            patience=6, eval_negatives=11,
        )
        cfg = cli.parse_config(path)
        assert cfg.build(M.HyperParams) == M.HyperParams(
            D=4, L=4, K=1, feature_mode="featureless", aggregator="max", use_bias=False, pin_user_base=True
        )
        assert cfg.build(T.TrainConfig) == T.TrainConfig(
            learning_rate=0.5, batch_size=64, negatives_per_positive=7, lambda_reg=0.25, max_epochs=2,
            early_stop_patience=6, seed=5, val_negatives=20,
        )
        assert cfg.build(E.EvalConfig) == E.EvalConfig(n_values=[5, 10], num_negatives=11, repetitions=2, seed=5)
        assert cfg.build(D.SplitConfig) == D.SplitConfig(test_fraction=0.2, validation_fraction_of_train=0.3, seed=5)
        assert cfg.build(D.SyntheticSpec) == D.SyntheticSpec(
            users=30, items=25, dim_user=3, dim_item=2, homophily=0.5, density=0.2, seed=5, clusters=4
        )


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_malformed_config_exits_2_naming_key_or_line(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("cfg")
        lines = Path(write_config(root)).read_text(encoding="utf-8").splitlines()
        bad, key, message = malformed_line(data.draw)
        bad = bad.split("\n")
        # the base line of the key that the bad lines set goes, so that only they set it
        lines = [l for l in lines if l.partition("=")[0] != bad[0].partition("=")[0].strip()]
        at = data.draw(st.integers(0, len(lines)))
        lines[at:at] = bad
        path = root / "bad.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG
        named = message if key else f"{path}:{at + len(bad)}: {message}"
        assert err.getvalue().startswith(f"config error: {named}")
        assert not (root / "out").exists()


class TestCheckpoint:
    def make(self):
        hy = M.HyperParams(D=3, L=2, K=1)
        params = M.init_params(hy, 5, 4, 2, 2, seed=0)
        return hy, params

    def test_save_load_save_byte_identical(self, tmp_path):
        hy, params = self.make()
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(p1, hy, params, "fp", ["line"], {"seed": 0})
        ckpt = load_checkpoint(p1)
        save_checkpoint(p2, ckpt.hypers, ckpt.params, ckpt.fingerprint, ckpt.log_tail, ckpt.meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_restores_tensors(self, tmp_path):
        hy, params = self.make()
        path = tmp_path / "c.bin"
        save_checkpoint(path, hy, params, "fp")
        ckpt = load_checkpoint(path)
        assert ckpt.hypers == hy
        for name, _ in params.items():
            assert np.array_equal(ckpt.params[name], params[name])

    def test_truncated_payload_names_block(self, tmp_path):
        hy, params = self.make()
        path = tmp_path / "d.bin"
        save_checkpoint(path, hy, params, "fp")
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        with pytest.raises(CheckpointError, match="truncated payload for block"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [99, 1])
    def test_version_mismatch_fails_closed(self, tmp_path, capsys, version):
        hy, params = self.make()
        path = tmp_path / "e.bin"
        save_checkpoint(path, hy, params, "fp")
        raw = bytearray(path.read_bytes())
        raw[8] = version  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        message = f"{path}: unsupported checkpoint version {version} (want {VERSION})"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)
        argv = ["predict", "--config", write_config(tmp_path), "--checkpoint", str(path), "--user", "0"]
        assert cli.main(argv) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"

    def rewrite_header(self, path, edit):
        """Re-pack a saved checkpoint after edit(header) changes its JSON header."""
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 12)
        header = json.loads(raw[20 : 20 + hlen])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:12] + struct.pack("<Q", len(new)) + new + raw[20 + hlen :])

    @pytest.mark.parametrize("key", ["blocks", "fingerprint", "hyperparams"])
    def test_missing_header_entry_names_it(self, tmp_path, key):
        hy, params = self.make()
        path = tmp_path / "g.bin"
        save_checkpoint(path, hy, params, "fp")
        self.rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)

    def test_unknown_hyperparam_names_it(self, tmp_path):
        hy, params = self.make()
        path = tmp_path / "h.bin"
        save_checkpoint(path, hy, params, "fp")
        self.rewrite_header(path, lambda h: h["hyperparams"].update(depth=3))
        with pytest.raises(CheckpointError, match="depth"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda b: b.pop("name"), "block 0 has no string 'name'"),
            (lambda b: b.pop("shape"), "block 'P' has no valid 'shape'"),
            (lambda b: b.update(shape=[-5, 2]), "block 'P' has no valid 'shape'"),
            (lambda b: b.pop("nbytes"), "block 'P' has nbytes None"),
            (lambda b: b.update(nbytes=b["nbytes"] - 8), "block 'P' has nbytes"),
            (lambda b: b.update(dtype="<f4"), "block 'P' has dtype '<f4'"),
        ],
        ids=["no-name", "no-shape", "negative-shape", "no-nbytes", "wrong-nbytes", "dtype"],
    )
    def test_bad_block_entry_names_block(self, tmp_path, edit, message):
        hy, params = self.make()
        path = tmp_path / "i.bin"
        save_checkpoint(path, hy, params, "fp")
        self.rewrite_header(path, lambda h: edit(h["blocks"][0]))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "entry,value",
        [
            ("D", 4.5),
            ("K", True),
            ("L", 0),
            ("use_bias", "yes"),
        ],
    )
    def test_bad_frozen_or_hyperparam_names_it(self, tmp_path, entry, value):
        hy, params = self.make()
        path = tmp_path / "j.bin"
        save_checkpoint(path, hy, params, "fp")
        self.rewrite_header(path, lambda h: h["hyperparams"].update({entry: value}))
        with pytest.raises(CheckpointError, match=f"'{entry}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("pin", [False, True])
    def test_frozen_entry_written_from_pin_user_base(self, tmp_path, pin):
        hy = M.HyperParams(D=3, L=2, K=1, pin_user_base=pin)
        path = tmp_path / "m.bin"
        save_checkpoint(path, hy, M.init_params(hy, 5, 4, 2, 2, seed=0), "fp")
        seen = []
        self.rewrite_header(path, lambda h: seen.append(h["frozen"]))
        assert seen == [["P"] if pin else []]

    @pytest.mark.parametrize("value", [5, [["x"]], "P", ["nope"]], ids=["int", "nested", "string", "unknown-name"])
    def test_frozen_entry_is_not_read(self, tmp_path, value):
        # the entry is kept for the file's bytes; a pinned P is a constant of the model
        hy, params = self.make()
        path = tmp_path / "n.bin"
        save_checkpoint(path, hy, params, "fp")
        self.rewrite_header(path, lambda h: h.update(frozen=value))
        ckpt = load_checkpoint(path)
        assert ckpt.hypers == hy
        assert ckpt.params.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize("fill", [1.0, -0.0], ids=["one", "negative-zero"])
    def test_pinned_p_that_is_not_positive_zero_fails_closed(self, tmp_path, capsys, fill):
        cfg = write_config(tmp_path, pin_user_base="true", max_epochs=1)
        assert cli.main(["train", "--config", cfg]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        saved = load_checkpoint(ckpt)  # as trained, P is all +0.0 and loads
        assert saved.hypers.pin_user_base
        saved.params["P"] = np.full(saved.params["P"].shape, fill)
        save_checkpoint(ckpt, saved.hypers, saved.params, saved.fingerprint)
        message = f"{ckpt}: block 'P' is not all +0.0, but pin_user_base pins it there"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(ckpt)
        capsys.readouterr()
        for command in (["evaluate", "--output-dir", str(tmp_path / "eval")], ["predict", "--user", "0"]):
            assert cli.main(command + ["--config", cfg, "--checkpoint", ckpt]) == cli.EXIT_DATA
            assert capsys.readouterr() == ("", f"data error: {message}\n")
        assert not (tmp_path / "eval").exists()

    def test_repeated_block_names_it(self, tmp_path):
        hy, params = self.make()
        path = tmp_path / "k.bin"
        save_checkpoint(path, hy, params, "fp")
        self.rewrite_header(path, lambda h: h["blocks"][1].update(name=h["blocks"][0]["name"]))
        with pytest.raises(CheckpointError, match="block 'P' appears twice"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
HEADER_KEYS = ["hyperparams", "fingerprint", "log_tail", "meta", "frozen", "blocks"]
HYPER_KEYS = ["D", "L", "K", "feature_mode", "aggregator", "use_bias", "pin_user_base"]


@st.composite
def saved_checkpoints(draw):
    """The bytes of a saved checkpoint for random hyperparameters and sizes."""
    D = draw(st.integers(1, 3))
    featureless = draw(st.booleans())
    hy = M.HyperParams(
        D=D,
        L=D if featureless else draw(st.integers(1, 3)),
        K=draw(st.integers(0, 2)),
        feature_mode=M.FEATURELESS if featureless else M.FEATURES,
        aggregator=draw(st.sampled_from([M.AGG_AVERAGE, M.AGG_MAX])),
        use_bias=draw(st.booleans()),
        pin_user_base=draw(st.booleans()),
    )
    params = M.init_params(hy, draw(st.integers(0, 4)), draw(st.integers(0, 4)), 2, 2, seed=0)
    return hy, params


class TestCheckpointFuzz:
    """Every corruption of a saved checkpoint loads cleanly or raises CheckpointError."""

    @staticmethod
    def load_or_checkpoint_error(path, raw):
        path.write_bytes(raw)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    @staticmethod
    def header_end(raw):
        return 20 + struct.unpack_from("<Q", raw, 12)[0]

    @settings(max_examples=400, deadline=None)
    @given(saved=saved_checkpoints(), data=st.data())
    def test_corruption_fails_closed(self, tmp_path_factory, saved, data):
        path = tmp_path_factory.mktemp("fuzz") / "c.bin"
        save_checkpoint(path, *saved, "fp", ["line"], {"seed": 0})
        raw = path.read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "flip", "substitute"]))
        if kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "flip":
            at = data.draw(st.integers(0, self.header_end(raw) - 1))
            raw = raw[:at] + bytes([raw[at] ^ (1 << data.draw(st.integers(0, 7)))]) + raw[at + 1 :]
        else:
            header = json.loads(raw[20 : self.header_end(raw)])
            key = data.draw(st.sampled_from(HEADER_KEYS + HYPER_KEYS))
            (header if key in HEADER_KEYS else header["hyperparams"])[key] = data.draw(JSON)
            new = json.dumps(header).encode("utf-8")
            raw = raw[:12] + struct.pack("<Q", len(new)) + new + raw[self.header_end(raw) :]
        self.load_or_checkpoint_error(path, raw)

    def test_every_truncation_and_header_bit_flip_fails_closed(self, tmp_path):
        hy = M.HyperParams(D=2, L=2, K=1, pin_user_base=True)
        path = tmp_path / "c.bin"
        save_checkpoint(path, hy, M.init_params(hy, 3, 2, 2, 2, seed=0), "fp", ["line"], {"seed": 0})
        raw = path.read_bytes()
        for size in range(len(raw)):
            self.load_or_checkpoint_error(path, raw[:size])
        for at in range(self.header_end(raw)):
            for bit in range(8):
                flipped = raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1 :]
                self.load_or_checkpoint_error(path, flipped)


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.bin").exists()
        log = (out / "train.log").read_text().splitlines()
        data_lines = [l for l in log if l and not l.startswith(("#", "epoch"))]
        assert len(data_lines) == 2  # one record per epoch

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = write_config(tmp_path, name="c1.txt", output_dir=str(tmp_path / "o1"))
        cfg2 = write_config(tmp_path, name="c2.txt", output_dir=str(tmp_path / "o2"))
        assert cli.main(["train", "--config", cfg1]) == 0
        assert cli.main(["train", "--config", cfg2]) == 0
        assert (tmp_path / "o1/checkpoint.bin").read_bytes() == (
            tmp_path / "o2/checkpoint.bin"
        ).read_bytes()
        assert (tmp_path / "o1/train.log").read_text() == (tmp_path / "o2/train.log").read_text()

    def test_divergence_exits_4(self, tmp_path, capsys):
        # overflow warnings must not escape: the finite checks report the divergence
        cfg = write_config(tmp_path, learning_rate="1e300", output_dir=str(tmp_path / "none"))
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric divergence: non-finite loss at epoch 0\n"
        assert not (tmp_path / "none").exists()

    def test_divergence_in_the_last_step_exits_4(self, tmp_path, capsys):
        # one batch per epoch: the loss and gradient are finite, and only the validation forward overflows
        cfg = write_config(tmp_path, batch_size=100000, max_epochs=1, learning_rate="1e300",
                           output_dir=str(tmp_path / "none"))
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric divergence: non-finite embeddings at epoch 0\n"
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("scale, gives", [
        (1e300, "non-finite embeddings"),  # every value finite, but their products overflow
        (1e70, "embeddings too large to score"),  # the embeddings stay finite, but their dot products overflow
    ], ids=["embeddings", "scores"])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--output-dir", "{out}"],
        ["predict", "--user", "0"],
    ], ids=["evaluate", "predict"])
    def test_checkpoint_whose_forward_overflows_exits_4(self, tmp_path, capsys, command, scale, gives):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", cfg]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        saved = load_checkpoint(ckpt)
        saved.params.flat *= scale
        save_checkpoint(ckpt, saved.hypers, saved.params, saved.fingerprint)
        capsys.readouterr()
        out = tmp_path / "eval"
        argv = [arg.format(out=out) for arg in command] + ["--config", cfg, "--checkpoint", ckpt]
        assert cli.main(argv) == cli.EXIT_NUMERIC
        assert capsys.readouterr() == ("", f"numeric divergence: checkpoint {ckpt} gives {gives}\n")
        assert not out.exists()

    def test_validation_whose_scores_overflow_exits_4(self, tmp_path, capsys):
        # featureless with K = 0, one Adam step of about 1e160 leaves finite embeddings
        # whose dot products overflow in the epoch's validation
        cfg = write_config(tmp_path, mode="featureless", dim=3, latent=3, k=0, batch_size=100000,
                           max_epochs=1, learning_rate="1e160", output_dir=str(tmp_path / "none"))
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric divergence: embeddings too large to score at epoch 0\n"
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("name, header, fault", [
        ("interactions", "users=3 users=9", ":1: expected 'user<TAB>item', got 'users=3 users=9'"),
        ("interactions", "items=4 items=2", ":1: expected 'user<TAB>item', got 'items=4 items=2'"),
        ("social", "users=3 users=9", ":1: expected 'follower<TAB>followee', got 'users=3 users=9'"),
        ("social", "items=4 items=2", ":1: expected 'follower<TAB>followee', got 'items=4 items=2'"),
        ("interactions", "users=99999999999999999999", ": table of 99999999999999999999 x 4 is too large to index"),
        ("interactions", "users=10 items=4000000000000000000",
         ": table of 10 x 4000000000000000000 is too large to index"),
        ("interactions", "users=3000000000000", ": table of 3000000000000 rows does not fit in memory"),
    ])
    def test_bad_header_exits_3_naming_the_file(self, tmp_path, capsys, monkeypatch, name, header, fault):
        zeros = np.zeros

        def no_memory(shape, *args, **kwargs):  # stands in for the allocation, which must not run for real
            if shape > 10**6:
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", no_memory)
        paths = {key: tmp_path / f"{key}.tsv" for key in ("interactions", "social")}
        paths["interactions"].write_text("0\t1\n1\t2\n2\t3\n", encoding="utf-8")
        paths["social"].write_text("0\t1\n1\t2\n2\t0\n", encoding="utf-8")
        paths[name].write_text(f"{header}\n" + paths[name].read_text(encoding="utf-8"), encoding="utf-8")
        cfg = write_config(tmp_path, synthetic="false", mode="featureless", dim=3,
                           output_dir=str(tmp_path / "none"), **{key: str(p) for key, p in paths.items()})
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_DATA
        assert capsys.readouterr() == ("", f"data error: {paths[name]}{fault}\n")
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("overrides, shape, dtype", [
        (dict(dim=10**12), "(1000000000000, 11)", "float64"),
        (dict(mode="featureless", latent=10**12, dim=10**12), "(30, 1000000000000)", "float64"),
        (dict(synth_dim_user=10**11), "(5, 100000000000)", "float64"),
        (dict(negatives=10**12), "(73000000000000,)", "int64"),
        (dict(synth_users=10**9), "(1000000000,)", "int64"),
    ], ids=["dim", "featureless-dim", "synth_dim_user", "negatives", "synth_users"])
    def test_out_of_memory_exits_1_in_one_line(self, tmp_path, overrides, shape, dtype):
        # each setting asks NumPy for more than the child's 2 GiB address-space cap, and
        # none of them starts a thread or a process
        cfg = write_config(tmp_path, **overrides)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
        done = subprocess.run(
            [sys.executable, "-m", "socialgcn.cli", "train", "--config", cfg],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        numpy_message = rf"Unable to allocate [^\n]+ for an array with shape {re.escape(shape)} and data type {dtype}"
        assert re.fullmatch(rf"error: out of memory in train: {numpy_message}\n", done.stderr), done.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [dict(dim=10**18), dict(negatives=10**17)], ids=["dim", "negatives"])
    def test_array_past_index_range_exits_1_in_one_line(self, tmp_path, overrides):
        # NumPy raises ValueError, not MemoryError, for an array of more bytes than it can index
        cfg = write_config(tmp_path, **overrides)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
        done = subprocess.run(
            [sys.executable, "-m", "socialgcn.cli", "train", "--config", cfg],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr == (
            "error: out of memory in train: array is too big; "
            "`arr.size * arr.dtype.itemsize` is larger than the maximum possible size.\n"
        )
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_without_a_message_ends_at_the_command(self, capsys, monkeypatch):
        def no_memory(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_train", no_memory)
        assert cli.main(["train"]) == 1
        assert capsys.readouterr() == ("", "error: out of memory in train\n")

    def test_other_value_error_is_raised(self, monkeypatch):
        def bug(args):
            raise ValueError("array is too small")

        monkeypatch.setattr(cli, "cmd_train", bug)
        with pytest.raises(ValueError, match="array is too small"):
            cli.main(["train"])

    def test_config_error_exit_code_and_no_outputs(self, tmp_path):
        cfg = write_config(tmp_path, synthetic="false", interactions="r.tsv",
                           output_dir=str(tmp_path / "none"))
        assert cli.main(["train", "--config", cfg]) == cli.EXIT_CONFIG
        assert not (tmp_path / "none").exists()


class TestEvaluateCommand:
    def test_evaluate_after_train(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", cfg]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        assert cli.main(["evaluate", "--config", cfg, "--checkpoint", ckpt]) == 0
        table = capsys.readouterr().out
        assert "HR" in table and "NDCG" in table
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "metrics.tsv").exists()

    def test_n_flag_controls_cutoffs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        capsys.readouterr()
        cli.main(["evaluate", "--config", cfg, "--checkpoint", ckpt, "--n", "5,10,15"])
        out = capsys.readouterr().out
        header = next(l for l in out.splitlines() if l.startswith("metric"))
        assert header.split("\t")[1:] == ["N=5", "N=10", "N=15"]

    def test_repeated_cutoffs_exit_2_writing_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        capsys.readouterr()
        argv = ["evaluate", "--config", cfg, "--checkpoint", ckpt, "--n", "10,10,5"]
        assert cli.main(argv + ["--output-dir", str(tmp_path / "eval")]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "config error: n must list distinct cutoffs, got [10, 10, 5]\n"
        assert captured.out == ""
        assert not (tmp_path / "eval").exists()

    def test_huge_cutoff_reads_as_every_candidate(self, tmp_path):
        # 25 items bound every candidate list, so N = 10**12 must read as N = 25. The child
        # runs under a 2 GiB address-space cap, so work sized by N fails fast instead of
        # filling the machine's memory.
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", cfg]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        argv = ["evaluate", "--config", cfg, "--checkpoint", ckpt, "--n", "5,25,1000000000000"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
        done = subprocess.run(
            [sys.executable, "-m", "socialgcn.cli", *argv],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        table = [line.split("\t") for line in done.stdout.splitlines()]
        assert table[0] == ["metric", "N=5", "N=25", "N=1000000000000"]
        assert all(row[2] == row[3] for row in table[1:])
        values = {}
        for line in (tmp_path / "out" / "metrics.tsv").read_text().splitlines()[1:]:
            metric, n, rep, value = line.split("\t")
            values.setdefault(n, []).append((metric, rep, value))
        assert values["1000000000000"] == values["25"]

    def test_fingerprint_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        other = write_config(tmp_path, name="other.txt", seed=6)
        assert cli.main(["evaluate", "--config", other, "--checkpoint", ckpt]) == cli.EXIT_DATA
        assert (
            cli.main(["evaluate", "--config", other, "--checkpoint", ckpt, "--allow-mismatch"])
            == 0
        )

    def test_checkpoint_for_other_user_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_users=40)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        other = write_config(tmp_path, name="other.txt", synth_users=50)
        capsys.readouterr()
        argv = ["evaluate", "--config", other, "--checkpoint", ckpt, "--allow-mismatch"]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "checkpoint block 'P' has 40 rows, dataset has 50 users" in capsys.readouterr().err

    def test_hashes_dataset_once(self, tmp_path, monkeypatch):
        # once on a snapshot miss; a hit reads the fingerprint the snapshot stores
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        os.remove(ckpt + ".data")
        calls = []
        fingerprint = D.DatasetBundle.fingerprint
        monkeypatch.setattr(D.DatasetBundle, "fingerprint", lambda b: calls.append(1) or fingerprint(b))
        for want in (1, 0):
            calls.clear()
            assert cli.main(["evaluate", "--config", cfg, "--checkpoint", ckpt]) == 0
            assert len(calls) == want
            assert f"# dataset fingerprint: {fingerprint(cli.build_bundle(cli.parse_config(cfg)))}" in (
                (tmp_path / "out" / "report.txt").read_text().splitlines()
            )

    def test_corrupt_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = tmp_path / "out" / "checkpoint.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:-20])
        assert cli.main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt)]) == cli.EXIT_DATA


class TestPredictCommand:
    def test_top_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        assert cli.main(["predict", "--config", cfg, "--checkpoint", ckpt,
                         "--user", "1", "--top-n", "5"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
        assert len(lines) == 5
        scores = [float(l.split("\t")[1]) for l in lines]
        assert scores == sorted(scores, reverse=True)

    def test_top_zero_empty(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        capsys.readouterr()
        assert cli.main(["predict", "--config", cfg, "--checkpoint", ckpt,
                         "--user", "0", "--top-n", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_excludes_training_positives(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        capsys.readouterr()
        cli.main(["predict", "--config", cfg, "--checkpoint", ckpt,
                  "--user", "2", "--top-n", "1000"])
        items = {int(l.split("\t")[0]) for l in capsys.readouterr().out.splitlines() if "\t" in l}
        bundle = cli.build_bundle(cli.parse_config(cfg))
        assert not (items & set(bundle.train.positives_by_user[2]))

    def test_checkpoint_for_other_user_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_users=40)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        other = write_config(tmp_path, name="other.txt", synth_users=50)
        capsys.readouterr()
        argv = ["predict", "--config", other, "--checkpoint", ckpt, "--user", "0"]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "checkpoint block 'P' has 40 rows, dataset has 50 users" in capsys.readouterr().err

    def test_tied_scores_rank_by_item_id(self, tmp_path, capsys):
        # integer item vectors on a 2-dim featureless model tie many scores
        cfg = write_config(tmp_path, mode="featureless", dim=2, latent=2, k=0)
        bundle = cli.build_bundle(cli.parse_config(cfg))
        hy = M.HyperParams(D=2, L=2, K=0, feature_mode=M.FEATURELESS)
        rng = np.random.default_rng(0)
        params = M.ModelParams({
            "P": rng.integers(-2, 3, size=(bundle.num_users, 2)).astype(float),
            "Q": rng.integers(-1, 2, size=(bundle.num_items, 2)).astype(float),
        })
        ckpt = str(tmp_path / "tied.bin")
        save_checkpoint(ckpt, hy, params, bundle.fingerprint())
        capsys.readouterr()
        assert cli.main(["predict", "--config", cfg, "--checkpoint", ckpt,
                         "--user", "3", "--top-n", "1000"]) == 0
        out = capsys.readouterr().out
        U, V, _ = M.forward_all(params, hy, bundle)
        seen = set(bundle.train.positives_by_user[3])
        items = [i for i in range(bundle.num_items) if i not in seen]
        scores = V[np.asarray(items)] @ U[3]
        order = sorted(range(len(items)), key=lambda t: (-scores[t], items[t]))
        assert out == "".join(f"{items[t]}\t{scores[t]:.12g}\n" for t in order)
        printed = [l.split("\t")[1] for l in out.splitlines()]
        assert len(set(printed)) < len(printed) / 2  # the order rests on ties

    def test_duplicated_item_rows_rank_as_the_reference(self, tmp_path, capsys):
        # items in groups of three share one row of Q, and some groups are rows of
        # 0.0 or -0.0, so scores tie exactly, among them zeros of both signs
        cfg = write_config(tmp_path, mode="featureless", dim=2, latent=2, k=0)
        bundle = cli.build_bundle(cli.parse_config(cfg))
        hy = M.HyperParams(D=2, L=2, K=0, feature_mode=M.FEATURELESS)
        rng = np.random.default_rng(1)
        rows = rng.normal(size=((bundle.num_items + 2) // 3, 2))
        rows[::3] = 0.0
        rows[1::3] = -0.0
        params = M.ModelParams({
            "P": rng.normal(size=(bundle.num_users, 2)),
            "Q": np.repeat(rows, 3, axis=0)[: bundle.num_items],
        })
        ckpt = str(tmp_path / "dup.bin")
        save_checkpoint(ckpt, hy, params, bundle.fingerprint())
        capsys.readouterr()
        assert cli.main(["predict", "--config", cfg, "--checkpoint", ckpt,
                         "--user", "3", "--top-n", "1000"]) == 0
        out = capsys.readouterr().out
        U, V, _ = M.forward_all(params, hy, bundle)
        items = E.unrated_items(bundle.num_items, bundle.train.positives_by_user[3])
        scores = V[items] @ U[3]
        score_of = dict(zip(items.tolist(), scores.tolist()))
        assert out == "".join(f"{i}\t{score_of[i]:.12g}\n" for i in O.rank_candidates(items, scores))
        assert np.count_nonzero(scores == 0.0) > 1 and len(set(scores.tolist())) < len(scores) / 2

    def test_negative_top_n_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        capsys.readouterr()
        assert cli.main(["predict", "--config", cfg, "--checkpoint", ckpt,
                         "--user", "0", "--top-n", "-3"]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: --top-n must be >= 0, got -3\n")

    def test_fingerprint_mismatch_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        other = write_config(tmp_path, name="other.txt", seed=6)
        capsys.readouterr()
        assert cli.main(["predict", "--config", other, "--checkpoint", ckpt, "--user", "0"]) == cli.EXIT_DATA
        assert capsys.readouterr() == ("", "data error: dataset fingerprint does not match checkpoint\n")

    def test_unknown_user(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        assert cli.main(["predict", "--config", cfg, "--checkpoint", ckpt,
                         "--user", "999"]) == cli.EXIT_DATA


class TestSynthCommand:
    def test_round_trip_and_stats(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert cli.main(["synth", "--users", "20", "--items", "15", "--seed", "3",
                         "--out", str(out)]) == 0
        stats = capsys.readouterr().out
        inter = D.load_interactions(out / "interactions.tsv")
        social = D.load_social(out / "social.tsv")
        uf = D.load_features(out / "user_features.tsv", 20)
        itf = D.load_features(out / "item_features.tsv", 15)
        spec = D.SyntheticSpec(users=20, items=15, seed=3)
        inter0, social0, uf0, itf0 = D.synthetic_tables(spec)
        assert inter == inter0 and social == social0 and uf == uf0 and itf == itf0
        density = inter.num_edges / (20 * 15)
        assert f"{100 * density:.3f}%" in stats

    def test_seed_reuse_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["synth", "--users", "10", "--items", "8", "--seed", "1",
                      "--out", str(out)])
        for name in ("interactions.tsv", "social.tsv", "user_features.tsv",
                     "item_features.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_files_are_pinned(self, tmp_path):
        out = tmp_path / "synth"
        cli.main(["synth", "--users", "20", "--items", "15", "--seed", "3", "--out", str(out)])
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == {
            "interactions.tsv": "774058c938e879093ffe03d234e27cb215bf96b9f611a41c528a3490589e4096",
            "social.tsv": "390aff0e64b7cba0a02ce3563519b5742b84a2292aed0b4cde39d500e044fe9b",
            "user_features.tsv": "3adf28cf6bae19389120ba098253738f3d0bcd479dab6075001a8bbf655ce36d",
            "item_features.tsv": "92393b08da0c9d9dbdc9485315f37f36f9122ac74ff53cb755aa0803dc776acf",
        }

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--users", "0"),
            ("--items", "0"),
            ("--dim-user", "-1"),
            ("--dim-item", "0"),
            ("--clusters", "0"),
            ("--density", "0"),
            ("--density", "1"),
            ("--homophily", "-0.5"),
            ("--seed", "-1"),
        ],
    )
    def test_out_of_range_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        out = tmp_path / "synth"
        assert cli.main(["synth", flag, value, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {flag} must be ")
        assert not out.exists()


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "synth"])
def test_unusable_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, under_file):
    monkeypatch.setattr(T, "train", lambda *args: pytest.fail("trained before checking the output path"))
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    out = str(afile / "sub" if under_file else afile)
    cfg = write_config(tmp_path)
    argv = {
        "train": ["train", "--config", cfg, "--output-dir", out],
        "evaluate": ["evaluate", "--config", cfg, "--checkpoint", "missing.bin", "--output-dir", out],
        "ablate": ["ablate", "--config", cfg, "--output-dir", out],
        "synth": ["synth", "--out", out],
    }[command]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: cannot write {out}: {afile} is not a directory\n")


@pytest.mark.parametrize(
    "command,source",
    [(c, s) for c in ("train", "evaluate", "ablate") for s in ("config", "flag")] + [("synth", "flag")],
)
def test_empty_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, source):
    monkeypatch.setattr(T, "train", lambda *args: pytest.fail("trained before checking the output path"))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if source == "config":
        cfg, extra = write_config(tmp_path, output_dir=""), []
    else:
        cfg, extra = write_config(tmp_path), ["--output-dir", ""]
    argv = {
        "train": ["train", "--config", cfg, *extra],
        "evaluate": ["evaluate", "--config", cfg, "--checkpoint", "missing.bin", *extra],
        "ablate": ["ablate", "--config", cfg, *extra],
        "synth": ["synth", "--out", ""],
    }[command]
    assert cli.main(argv) == cli.EXIT_CONFIG
    name = "--out" if command == "synth" else "output_dir"
    assert capsys.readouterr() == ("", f"config error: {name} must not be empty\n")
    assert list(work.iterdir()) == []


def values(*choices):
    return st.sampled_from(choices)


# Values for each flag, mostly valid, with sizes capped so that a run takes milliseconds.
FLAG_VALUES = {
    "--seed": values("0", "1", "5", "-1"),
    "--k": values("0", "1", "2", "-1"),
    "--dim": values("3", "4", "0", "x"),
    "--mode": values("features", "features", "featureless", "bogus"),
    "--n": values("5,10", "1", "10", "0", "x"),
    "--negatives": values("5", "20", "0"),
    "--repetitions": values("1", "2", "0"),
    "--user": values("0", "3", "11", "12", "-1"),
    "--top-n": values("0", "3", "10", "-1"),
    "--users": values("1", "2", "5", "20", "0"),
    "--items": values("1", "2", "5", "20", "-1"),
    "--dim-user": values("1", "3", "0"),
    "--dim-item": values("1", "3", "0"),
    "--clusters": values("1", "3", "0"),
    "--homophily": values("0", "0.5", "1", "1.5", "nan"),
    "--density": values("0.2", "0.9", "0", "1", "nan"),
}
COMMON = ["--seed", "--k", "--dim", "--mode", "--output-dir"]
EVAL = ["--n", "--negatives", "--repetitions", "--allow-mismatch"]
# Each command's required flags, then its optional ones.
COMMAND_FLAGS = {
    "train": (["--config"], COMMON),
    "evaluate": (["--config", "--checkpoint"], COMMON + EVAL),
    "predict": (["--config", "--checkpoint", "--user"], COMMON + ["--top-n"]),
    "ablate": (["--config"], COMMON + EVAL),
    "synth": (["--out"], ["--users", "--items", "--dim-user", "--dim-item", "--homophily", "--density", "--clusters", "--seed"]),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Paths the argv fuzz picks from, usable ones first: configs, a trained checkpoint and output paths."""
    root = tmp_path_factory.mktemp("argv")
    small = dict(synth_users=12, synth_items=10, max_epochs=1, val_negatives=5, eval_negatives=5, repetitions=1)
    model = write_config(root, name="model.cfg", output_dir=str(root / "model"), **small)
    assert cli.main(["train", "--config", model]) == 0
    (root / "afile").write_text("seed=x\n", encoding="utf-8")
    return {
        "--config": [write_config(root, name="run.cfg", **small), str(root / "afile"), str(root / "missing.cfg")],
        "--checkpoint": [str(root / "model" / "checkpoint.bin"), str(root / "afile"), str(root / "missing.bin")],
        "--output-dir": [str(root / "out"), str(root / "afile"), str(root / "afile" / "sub"), ""],
        "--out": [str(root / "synth"), str(root / "afile"), ""],
    }


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_argv_exits_with_a_documented_code(self, fuzz_files, data):
        command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)))
        required, optional = COMMAND_FLAGS[command]
        flags = required + data.draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))
        argv = [command]
        for flag in flags:
            argv.append(flag)
            if flag in fuzz_files:
                paths = fuzz_files[flag]
                argv.append(data.draw(st.sampled_from(paths[:1] * 4 + paths)))
            elif flag != "--allow-mismatch":
                argv.append(data.draw(FLAG_VALUES[flag]))
        if data.draw(st.integers(0, 9)) == 0:
            argv.append(data.draw(values("--bogus", "extra", "--seed")))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        event(f"{command} exit {code}")
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC)


class TestParser:
    def test_one_parser_serves_every_call(self, monkeypatch, capsys):
        seen = []
        for command in ("predict", "evaluate"):
            monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(vars(args)) or 0)
        common = {"config": None, "seed": None, "k": None, "dim": None, "mode": None, "output_dir": None}
        assert cli.main(["predict", "--checkpoint", "a.bin", "--user", "3", "--k", "1"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--checkpoint", "a.bin", "--user", "x"])
        assert exc.value.code == 2 and "--user: invalid int value: 'x'" in capsys.readouterr().err
        assert cli.main(["evaluate", "--checkpoint", "b.bin", "--n", "5"]) == 0
        assert seen == [
            {**common, "command": "predict", "k": 1, "checkpoint": "a.bin", "user": 3, "top_n": 10},
            {**common, "command": "evaluate", "checkpoint": "b.bin", "n": "5", "eval_negatives": None,
             "repetitions": None, "allow_mismatch": False},
        ]
        assert cli.build_parser() is cli.build_parser()


def test_import_leaves_scipy_special_unloaded():
    # evaluate, predict and synth never train, so a fresh process need not load scipy.special
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, socialgcn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestAblateCommand:
    def test_full_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variants="full", max_epochs=1, repetitions=1)
        assert cli.main(["ablate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "+0.00%" in out
        assert (tmp_path / "out" / "ablation.tsv").exists()

    def test_repeated_variants_exit_2_writing_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variants="full,full,k1")
        with mock.patch.object(T, "train", side_effect=AssertionError("trained")):
            assert cli.main(["ablate", "--config", cfg]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "config error: variants must list distinct variants, got ['full', 'full', 'k1']\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_empty_variants_exits_2_writing_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variants="")
        assert cli.main(["ablate", "--config", cfg]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "config error: variants must list at least one ablation variant\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
