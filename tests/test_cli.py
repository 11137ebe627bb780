import json
import math
import os
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialgcn import cli
from socialgcn import data as D
from socialgcn import model as M
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
        for name in params.names():
            assert np.array_equal(ckpt.params[name], params[name])

    def test_truncated_payload_names_block(self, tmp_path):
        hy, params = self.make()
        path = tmp_path / "d.bin"
        save_checkpoint(path, hy, params, "fp")
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        with pytest.raises(CheckpointError, match="truncated payload for block"):
            load_checkpoint(path)

    def test_version_mismatch_fails_closed(self, tmp_path):
        hy, params = self.make()
        path = tmp_path / "e.bin"
        save_checkpoint(path, hy, params, "fp")
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

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
            ("frozen", 5),
            ("frozen", [["x"]]),
            ("frozen", "P"),
            ("frozen", ["nope"]),
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
        if entry == "frozen":
            self.rewrite_header(path, lambda h: h.update(frozen=value))
        else:
            self.rewrite_header(path, lambda h: h["hyperparams"].update({entry: value}))
        with pytest.raises(CheckpointError, match=f"'{entry}'"):
            load_checkpoint(path)

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
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        calls = []
        fingerprint = D.DatasetBundle.fingerprint
        monkeypatch.setattr(D.DatasetBundle, "fingerprint", lambda b: calls.append(1) or fingerprint(b))
        assert cli.main(["evaluate", "--config", cfg, "--checkpoint", ckpt]) == 0
        assert len(calls) == 1
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

    def test_negative_top_n_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", cfg])
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        capsys.readouterr()
        assert cli.main(["predict", "--config", cfg, "--checkpoint", ckpt,
                         "--user", "0", "--top-n", "-3"]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: --top-n must be >= 0, got -3\n")

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
            {**common, "command": "evaluate", "checkpoint": "b.bin", "n": "5", "negatives": None,
             "repetitions": None, "allow_mismatch": False},
        ]
        assert cli.build_parser() is cli.build_parser()


class TestAblateCommand:
    def test_full_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variants="full", max_epochs=1, repetitions=1)
        assert cli.main(["ablate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "+0.00%" in out
        assert (tmp_path / "out" / "ablation.tsv").exists()
