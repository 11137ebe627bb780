"""The dataset snapshot beside a checkpoint: exact against the parse path, and fail-closed."""
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialgcn import checkpoint as C
from socialgcn import cli
from socialgcn import data as D

INPUTS = ("interactions", "social", "user_features", "item_features")


def write_inputs(tmp_path, users=40, items=30, seed=3):
    """Synthetic TSV files as `socialgcn synth` writes them; returns {input name: path}."""
    inter, social, uf, itf = D.synthetic_tables(D.SyntheticSpec(users=users, items=items, seed=seed))
    paths = {name: str(tmp_path / f"{name}.tsv") for name in INPUTS}
    D.save_interactions(inter, paths["interactions"])
    D.save_social(social, paths["social"])
    D.save_features(uf, paths["user_features"])
    D.save_features(itf, paths["item_features"])
    return paths


def untidy(paths):
    """Rewrite the files at `paths` as a hand-edited dataset might read, with the same data; returns `paths`.

    CRLF line ends, '#' comments with non-ASCII text, blank lines, padded
    fields, ids written as '+7' and '007', header keys in reverse order.
    """
    for path in paths.values():
        lines = ["# caf\u00e9 \u2615 \u0663", ""]
        for k, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
            if "=" in line:
                line = " ".join(reversed(line.split()))
            else:
                ent, values = line.split("\t")
                ent = (ent, f"+{ent}", f"00{ent}")[k % 3]
                line = f"{ent} \t  {values}" if k % 2 else f" {ent}\t{values} "
            lines += [line] + (["", "  # \u01fe"] if k % 5 == 0 else [])
        Path(path).write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
    return paths


# the ways a config describes its data
SOURCES = {
    "features": lambda paths: {**paths, "mode": "features", "dim": 4, "latent": 3},
    "features-untidy": lambda paths: {**untidy(paths), "mode": "features", "dim": 4, "latent": 3},
    "featureless-filter": lambda paths: {
        "interactions": paths["interactions"],
        "social": paths["social"],
        "mode": "featureless",
        "filter": "true",
        "dim": 3,
        "latent": 3,
    },
    "synthetic": lambda paths: {"synthetic": "true", "synth_users": 30, "synth_items": 25, "dim": 4, "latent": 3},
}


def write_config(tmp_path, source):
    values = {
        **SOURCES[source](write_inputs(tmp_path)),
        "k": 1,
        "max_epochs": 1,
        "batch_size": 64,
        "seed": 5,
        "val_negatives": 20,
        "eval_negatives": 20,
        "repetitions": 2,
        "n": "5,10",
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def trained(tmp_path, source="features"):
    """(config path, checkpoint path) after `socialgcn train`, which saves the snapshot."""
    cfg = write_config(tmp_path, source)
    assert cli.main(["train", "--config", cfg]) == 0
    ckpt = str(tmp_path / "out" / "checkpoint.bin")
    assert os.path.isfile(ckpt + ".data")
    return cfg, ckpt


def outputs(capsys, cfg, ckpt, miss=False):
    """Exit codes, predict stdout, report.txt and metrics.tsv of one predict and one evaluate request.

    With `miss`, each request starts with no snapshot.
    """
    capsys.readouterr()
    codes = []
    for argv in (["predict", "--user", "4", "--top-n", "12"], ["evaluate"]):
        if miss:
            os.remove(ckpt + ".data")
        codes.append(cli.main([*argv, "--config", cfg, "--checkpoint", ckpt]))
        if argv[0] == "predict":
            predicted = capsys.readouterr().out
    files = [(Path(ckpt).parent / name).read_bytes() for name in ("report.txt", "metrics.tsv")]
    return codes, predicted, files


def without_header_entry(raw, name):
    """A container's bytes with entry `name` taken out of its JSON header."""
    (length,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20 : 20 + length])
    del header[name]
    packed = json.dumps(header).encode("utf-8")
    return raw[:12] + struct.pack("<Q", len(packed)) + packed + raw[20 + length :]


def bits(table):
    return None if table is None else (table.dim, table.vectors.tobytes())


class TestExactAgainstParse:
    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_snapshot_bundle_equals_build_bundle(self, tmp_path, source):
        cfg_path, ckpt = trained(tmp_path, source)
        cfg = cli.parse_config(cfg_path)
        bundle, fingerprint = C.load_snapshot(ckpt + ".data", cli._dataset_key(cfg))
        want = cli.build_bundle(cfg)
        for name in ("train", "validation", "test", "social"):
            assert getattr(bundle, name) == getattr(want, name), name
        for name in ("user_features", "item_features"):
            assert bits(getattr(bundle, name)) == bits(getattr(want, name)), name
        assert (bundle.user_features is None) == (source == "featureless-filter")
        assert fingerprint == want.fingerprint()

    def test_untidy_files_hold_the_tidy_dataset(self, tmp_path):
        fingerprints = set()
        for source in ("features", "features-untidy"):
            (tmp_path / source).mkdir()
            fingerprints.add(cli.build_bundle(cli.parse_config(write_config(tmp_path / source, source))).fingerprint())
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_outputs_equal_on_hit_and_miss(self, tmp_path, capsys, source, monkeypatch):
        cfg, ckpt = trained(tmp_path, source)
        parses = []
        build_bundle = cli.build_bundle
        monkeypatch.setattr(cli, "build_bundle", lambda c: parses.append(1) or build_bundle(c))
        hit = outputs(capsys, cfg, ckpt)
        assert parses == []
        miss = outputs(capsys, cfg, ckpt, miss=True)
        assert parses == [1, 1]
        assert hit == miss
        assert hit[0] == [0, 0] and hit[1].count("\n") == 12


class TestFailClosed:
    def test_changed_input_is_never_answered_from_the_snapshot(self, tmp_path, capsys):
        cfg, ckpt = trained(tmp_path)
        snapshot = Path(ckpt + ".data").read_bytes()
        paths = {name: tmp_path / f"{name}.tsv" for name in INPUTS}
        originals = {name: path.read_bytes() for name, path in paths.items()}
        build_bundle = cli.build_bundle
        argv = ["predict", "--config", cfg, "--checkpoint", ckpt, "--user", "1"]

        @settings(max_examples=120, deadline=None)
        @given(data=st.data())
        def check(data):
            name = data.draw(st.sampled_from(INPUTS))
            raw = bytearray(originals[name])
            at = data.draw(st.integers(0, len(raw) - 1))
            raw[at] ^= 1 << data.draw(st.integers(0, 7))
            paths[name].write_bytes(bytes(raw))
            Path(ckpt + ".data").write_bytes(snapshot)  # each example starts from the original inputs' snapshot
            parses = []
            cli.build_bundle = lambda c: parses.append(1) or build_bundle(c)
            try:
                code = cli.main(argv)
            finally:
                cli.build_bundle = build_bundle
                paths[name].write_bytes(originals[name])
            capsys.readouterr()
            assert code == cli.EXIT_DATA or parses == [1]

        check()

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda raw: raw[:-9], "truncated payload for block"),
            (lambda raw: raw[:5], "bad magic bytes, not a dataset snapshot"),
            (lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]), "fails its sha256 check"),
            (lambda raw: raw[:-200] + bytes([raw[-200] ^ 0x80]) + raw[-199:], "fails its sha256 check"),
            (lambda raw: b"NOTADATA" + raw[8:], "bad magic bytes, not a dataset snapshot"),
            (lambda raw: raw[:8] + struct.pack("<I", 99) + raw[12:], "unsupported dataset snapshot version 99"),
            (lambda raw: raw[:8] + struct.pack("<I", 1) + raw[12:], "unsupported dataset snapshot version 1 (want 2)"),
            (lambda raw: without_header_entry(raw, "num_users"), "header has no 'num_users' entry"),
        ],
        ids=[
            "truncated", "cut-in-magic", "flipped-last-byte", "flipped-payload-byte", "magic", "version",
            "version-1", "no-num-users",
        ],
    )
    def test_corrupt_snapshot_exits_3_naming_it(self, tmp_path, capsys, corrupt, message):
        cfg, ckpt = trained(tmp_path)
        path = ckpt + ".data"
        Path(path).write_bytes(corrupt(Path(path).read_bytes()))
        capsys.readouterr()
        for command in (["predict", "--user", "0"], ["evaluate"]):
            assert cli.main([*command, "--config", cfg, "--checkpoint", ckpt]) == cli.EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {path}: ") and message in err, err

    def test_mismatching_request_leaves_the_snapshot(self, tmp_path, capsys, monkeypatch):
        cfg, ckpt = trained(tmp_path)  # seed=5
        digest = hashlib.sha256(Path(ckpt + ".data").read_bytes()).hexdigest()
        argv = ["predict", "--config", cfg, "--checkpoint", ckpt, "--user", "1"]
        assert cli.main([*argv, "--seed", "6"]) == cli.EXIT_DATA
        assert "fingerprint does not match" in capsys.readouterr().err
        assert hashlib.sha256(Path(ckpt + ".data").read_bytes()).hexdigest() == digest
        parses = []
        build_bundle = cli.build_bundle
        monkeypatch.setattr(cli, "build_bundle", lambda c: parses.append(1) or build_bundle(c))
        assert cli.main(argv) == 0
        assert parses == []

    @pytest.mark.parametrize(
        "counts,edit,message",
        [
            ((-1, 15), lambda blocks: None, "bad user or item count -1, 15"),
            ((20, 15), lambda blocks: blocks.pop("social.indptr"), "blocks of table 'social' are not 20 rows"),
            ((20, 15), lambda blocks: blocks.update({"test.indices": blocks["test.indices"] + 15}), "table 'test'"),
            ((20, 14), lambda blocks: None, "blocks of table 'train' are not 20 rows of ids in [0, 14)"),
            ((20, 15), lambda blocks: blocks.update({"user_features": blocks["user_features"][1:]}), "want (20, *)"),
            (
                (20, 15),
                lambda blocks: blocks.update({"item_features": np.full_like(blocks["item_features"], np.inf)}),
                "block 'item_features': non-finite feature value",
            ),
        ],
        ids=["count", "missing-block", "id-out-of-range", "fewer-items", "feature-rows", "non-finite"],
    )
    def test_blocks_that_make_no_bundle_are_named(self, tmp_path, counts, edit, message):
        # a snapshot whose stored fingerprint is the digest of its blocks, but whose blocks are no dataset
        blocks = D.generate_synthetic(D.SyntheticSpec(users=20, items=15, seed=1)).blocks()
        edit(blocks)
        path = str(tmp_path / "s.data")
        header = {"key": "k", "num_users": counts[0], "num_items": counts[1], "fingerprint": D.digest(*counts, blocks)}
        C._write_container(path, C.SNAPSHOT_MAGIC, header, list(blocks.items()))
        with pytest.raises(C.CheckpointError) as raised:
            C.load_snapshot(path, "k")
        assert str(raised.value).startswith(f"{path}: ") and message in str(raised.value)

    def test_unwritable_snapshot_still_answers(self, tmp_path, capsys, monkeypatch):
        cfg, ckpt = trained(tmp_path)
        want = outputs(capsys, cfg, ckpt)
        os.remove(ckpt + ".data")

        def read_only_directory(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(C.tempfile, "mkstemp", read_only_directory)
        capsys.readouterr()
        argv = ["predict", "--config", cfg, "--checkpoint", ckpt, "--user", "4", "--top-n", "12"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want[1]
        assert not os.path.exists(ckpt + ".data")

    def test_directory_in_the_snapshot_path_still_answers(self, tmp_path, capsys):
        cfg, ckpt = trained(tmp_path)
        want = outputs(capsys, cfg, ckpt)
        os.remove(ckpt + ".data")
        os.mkdir(ckpt + ".data")
        assert outputs(capsys, cfg, ckpt) == want
