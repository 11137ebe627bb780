"""Golden end-to-end outputs: one fixed command-line session per setup, pinned byte for byte.

Each session runs in process through `cli.main`: `synth`, `train`,
`evaluate` on a snapshot hit, `evaluate` after the snapshot is deleted, two
`predict`s, and `ablate` with the variants full, k1 and p0. The test pins
the sha256 of every file a step writes or rewrites, and of every step's
stdout with the session's directory replaced by "<out>". A change that
alters any of these bytes on purpose re-freezes the pins and states why.
"""
import contextlib
import hashlib
import io
import os

import pytest

from socialgcn import cli

COMMON = {
    "max_epochs": 3,
    "batch_size": 64,
    "learning_rate": 0.01,
    "val_negatives": 20,
    "eval_negatives": 20,
    "repetitions": 2,
    "n": "5,10",
    "variants": "full,k1,p0",
}

# name: (synth flags, config keys beside COMMON, flags given to every later command)
SETUPS = {
    "synthetic-features-average": (
        ["--users", "60", "--items", "50", "--seed", "4"],
        {"synthetic": "true", "synth_users": 60, "synth_items": 50, "seed": 4,
         "mode": "features", "dim": 8, "latent": 6, "k": 2, "aggregator": "average"},
        [],
    ),
    "files-featureless-max-pinned-filtered": (
        ["--users", "60", "--items", "50", "--homophily", "0.5", "--density", "0.08", "--seed", "7"],
        {"interactions": "{data}/interactions.tsv", "social": "{data}/social.tsv",
         "mode": "featureless", "dim": 8, "latent": 8, "aggregator": "max",
         "pin_user_base": "true", "filter": "true", "seed": 1},
        ["--seed", "3"],
    ),
    "files-features-k1": (
        ["--users", "50", "--seed", "2", "--dim-user", "4", "--dim-item", "6"],
        {"interactions": "{data}/interactions.tsv", "social": "{data}/social.tsv",
         "user_features": "{data}/user_features.tsv", "item_features": "{data}/item_features.tsv",
         "mode": "features", "dim": 8, "latent": 5},
        ["--k", "1"],
    ),
}


def _hashes(root):
    """{path relative to root: sha256} of every file under root."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def session(tmp_path, setup):
    """{"<step> <file>" or "<step> stdout": sha256} of one setup's session."""
    synth_flags, keys, flags = SETUPS[setup]
    root = tmp_path / "run"
    data = root / "data"
    cfg = tmp_path / "run.cfg"
    values = {**COMMON, **keys}
    cfg.write_text("".join(f"{k}={str(v).format(data=data)}\n" for k, v in values.items()), encoding="utf-8")
    ckpt = str(root / "train" / "checkpoint.bin")
    steps = [
        ("synth", ["synth", *synth_flags, "--out", str(data)]),
        ("train", ["train", *flags, "--output-dir", str(root / "train")]),
        ("evaluate-hit", ["evaluate", *flags, "--checkpoint", ckpt, "--output-dir", str(root / "eval-hit"),
                          "--n", "5,10,15", "--negatives", "15"]),
        ("evaluate-miss", ["evaluate", *flags, "--checkpoint", ckpt, "--output-dir", str(root / "eval-miss"),
                           "--repetitions", "1"]),
        ("predict-0", ["predict", *flags, "--checkpoint", ckpt, "--user", "0"]),
        ("predict-7", ["predict", *flags, "--checkpoint", ckpt, "--user", "7", "--top-n", "4"]),
        ("ablate", ["ablate", *flags, "--output-dir", str(root / "ablate")]),
    ]
    pins, before = {}, {}
    for step, argv in steps:
        if step == "evaluate-miss":
            os.remove(ckpt + ".data")
            del before[os.path.join("train", "checkpoint.bin.data")]
        if argv[0] != "synth":
            argv = [argv[0], "--config", str(cfg), *argv[1:]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == cli.EXIT_OK, step
        text = out.getvalue().replace(str(root), "<out>")
        pins[f"{step} stdout"] = hashlib.sha256(text.encode()).hexdigest()
        after = _hashes(root)
        for name, digest in sorted(after.items()):
            if before.get(name) != digest:
                pins[f"{step} {name}"] = digest
        before = after
    return pins


PINS = {
    "files-featureless-max-pinned-filtered": {
        "synth stdout": "65bddc89c69cafe0eed77cf87ab8b9d6a8aafd5a3402877d223606a7fea4ee73",
        "synth data/interactions.tsv": "24891efad91ef7fee189b3d133cdb3ac09ea22735ad103cb0d0b067345f8bab0",
        "synth data/item_features.tsv": "d59706a7e49f49b752c8fb8f06907d2e6e7b61cfbd3b73ec8e06ab46c98c745d",
        "synth data/social.tsv": "937fc8e02007f154c8f2af68d98d265a3aea0ec15e00d76f0c0b950828430ac9",
        "synth data/user_features.tsv": "aa0ba8ffdd270e816f0b2f6e9e90d93ef18ce23cf8abae54379b00ed997b5986",
        "train stdout": "c7efadf8e0bb97659fc46280c9e6b5f742504dd1cf84354df4f3d6e6405c6b31",
        "train train/checkpoint.bin": "da14935229e5ea7a3a57e0c739e37217942f4624694799333c39b2a0b9f4d75a",
        "train train/checkpoint.bin.data": "eee89f4b114ea3f1699fff653a315a0e2dccb0bdf36658857048c1a778bece3d",
        "train train/train.log": "c6789bdcfca2a9cf8fe16ed93c317e69c5e085b1e114c76f47f887d6863f17e2",
        "evaluate-hit stdout": "714ff577182f6b5cb097a6fb40a08fd49d8d0fb9191e5517deb0db588474f4a5",
        "evaluate-hit eval-hit/metrics.tsv": "62d41c0e024b98fea8b30e637ab5dc4615286addf4f9b4825af0df5e59072ad7",
        "evaluate-hit eval-hit/report.txt": "e414f37ce3813535826574586447dcc3cd5b6d9969b26518ec7d74be8740d4f4",
        "evaluate-miss stdout": "93394e2d21bf1770b4bd89c068a6998d6f12f350e6fe7a89b8911a87106515c9",
        "evaluate-miss eval-miss/metrics.tsv": "98a1059c01188c56b2a2f4c96885b9cfb8a5009d833b34a9ae2197596f19b917",
        "evaluate-miss eval-miss/report.txt": "22fcfa41adc0b6fd6cc7b4d6ae25c81978da893b6868a8288ac4021a2272fe54",
        "evaluate-miss train/checkpoint.bin.data": "eee89f4b114ea3f1699fff653a315a0e2dccb0bdf36658857048c1a778bece3d",
        "predict-0 stdout": "1174fc3a22d9bd47ccf78f82122b43dfe28e10a1356ec016f9c9a36222d917d9",
        "predict-7 stdout": "fbcd64bb6f475da67114080f52905d40bdfccbe3129f93e40d76a952a909d4be",
        "ablate stdout": "5096d94b2ecf645dce2f9bbeba06ae53990d9bb24db01091fcc60d4e0e563e1a",
        "ablate ablate/ablation.tsv": "5096d94b2ecf645dce2f9bbeba06ae53990d9bb24db01091fcc60d4e0e563e1a",
    },
    "files-features-k1": {
        "synth stdout": "1710ca2be52749567c2351f5e6ccfde85f3f6bd21e816a37afa4ebc28a2175cd",
        "synth data/interactions.tsv": "4aacc7cb2bb5a9bb876faa189e5c8babdf17ea47496ee33c648d6b75fe901286",
        "synth data/item_features.tsv": "9b2e10f4bb4ac6a79a45d03c206923a717f2c53294d15a1a2ac92a9c148df84e",
        "synth data/social.tsv": "3d442e2b1d3d277eff0c3950f262c45d632d0f45d1a05fb45f372b396520d7e6",
        "synth data/user_features.tsv": "76ad3289cdd92de6492d8032498f1c644e0cfc69d84d7e3317c4c0aa51ad829f",
        "train stdout": "c7efadf8e0bb97659fc46280c9e6b5f742504dd1cf84354df4f3d6e6405c6b31",
        "train train/checkpoint.bin": "b715d96a55ba3d72fd1dacb023f04eea83832787b01c851428fc9dd30a221679",
        "train train/checkpoint.bin.data": "80487da7a576aacba58e2c52a8fbdfae4b992164423f8e4c54d1531b34e28ad8",
        "train train/train.log": "e602f2dee89c26583f44f192348d0763004ce1a706acfb12827d36b07c2a50ec",
        "evaluate-hit stdout": "87ef0a8428b5831af8b12ec6794c9d97c9ab3572aee3c2738fb5793843ea03bd",
        "evaluate-hit eval-hit/metrics.tsv": "3f5e1db65a3a624257ea576df2bc52abb3f49b2cf6fad42e50eeb4f20d9ed63c",
        "evaluate-hit eval-hit/report.txt": "5f5548900712fa2c14d5ce8aabd104045dedf9df38cf45531743e6875bf75ad7",
        "evaluate-miss stdout": "1adeafda043b6333d80a55855c7da413943d69e618eba114cbdb3a757f03ea22",
        "evaluate-miss eval-miss/metrics.tsv": "398b3db440b32adde655cca08c890dc30eee1684a148d6e96716cfe8fdfbfb3f",
        "evaluate-miss eval-miss/report.txt": "cfab201fcd4d37051c4b6f2e257f1644ebdadd207ba2c6885e297dfd85bdb1d1",
        "evaluate-miss train/checkpoint.bin.data": "80487da7a576aacba58e2c52a8fbdfae4b992164423f8e4c54d1531b34e28ad8",
        "predict-0 stdout": "ea65c82e1562ac21c246218c9f29b6bce078c91bb4eca82fe04c70890659bd9b",
        "predict-7 stdout": "c9d40bda2367a02211191684dc44bc77cd623a1886faf8e1126785c1c831339b",
        "ablate stdout": "e1d6807532e23dd03dfd32371547dbeab99874c154eed073f8512f69107bb88e",
        "ablate ablate/ablation.tsv": "e1d6807532e23dd03dfd32371547dbeab99874c154eed073f8512f69107bb88e",
    },
    "synthetic-features-average": {
        "synth stdout": "f08ad2086052f1d5aa0ffa8f38800d4510d2964e13a97f3fb5959a939ba7fa1c",
        "synth data/interactions.tsv": "2674c56a251674c33ab168dad21882a347f392e67311be53c9f3e0c865f3ec88",
        "synth data/item_features.tsv": "f32dfc730a82a9b313dd7276ceb33fd22d2e20040a90fb48b54d717ebdcd00b0",
        "synth data/social.tsv": "0da959f5f23f88a0c7f5378d5e3828ce91b0ef53494338cfacdb043345ae0d2b",
        "synth data/user_features.tsv": "f32e467a08c50011b320eafab87a556f8fe21e474ae3187a313576608ccb518c",
        "train stdout": "c7efadf8e0bb97659fc46280c9e6b5f742504dd1cf84354df4f3d6e6405c6b31",
        "train train/checkpoint.bin": "aa3e13248fc0f858782162b559abbd01a33b38ce14aafc356138741538aa74bc",
        "train train/checkpoint.bin.data": "622f029d054098aa866e20c9fd0a4e96fe04adf3f2f7b0d8c5bac3cb00b8486d",
        "train train/train.log": "81bd869f3ed762c24b48ef7d1cdcbd0f3a64f1f9e99000f9ea6d93ecd1e02555",
        "evaluate-hit stdout": "f52f5465ce6fc3e01d4cd82e1cacf75c31079bbe03e32f741b733cddf677bb0a",
        "evaluate-hit eval-hit/metrics.tsv": "c414003f5038f6bcdafd1c38035b919c58025f582a1d70697055570af40da7d9",
        "evaluate-hit eval-hit/report.txt": "603efbaf02995b6545bbbdbe1a6196887d519e6df93035c21f5a3e645a38809d",
        "evaluate-miss stdout": "7d82e910699a21af62373d473cf591bd7c488aa97fc977e9f4264385f8ee82e8",
        "evaluate-miss eval-miss/metrics.tsv": "6b1ac2a744137a773988ad722db90945103183b0446b08bb9a0185641f0d4ff1",
        "evaluate-miss eval-miss/report.txt": "536064f78272a40a77245f33f663c9b7e4e9e637cdcc04c3a8e6573e5bc1b87a",
        "evaluate-miss train/checkpoint.bin.data": "622f029d054098aa866e20c9fd0a4e96fe04adf3f2f7b0d8c5bac3cb00b8486d",
        "predict-0 stdout": "5a01327b22d2fcaa5d4c5d6ce839baacf5b741e10a921bfaca11922a8ba54d94",
        "predict-7 stdout": "422ed068e79763e830813058f499cc4006218382f6b286bf9fb3d43a0ca79d72",
        "ablate stdout": "117219909480710cbd22a054001733a1eaec483f4ce6f89cc6af2b402145c898",
        "ablate ablate/ablation.tsv": "117219909480710cbd22a054001733a1eaec483f4ce6f89cc6af2b402145c898",
    },
}


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_session_outputs_are_pinned(tmp_path, setup):
    assert session(tmp_path, setup) == PINS[setup]
