"""Command-line entry point: train / evaluate / predict / synth / ablate.

Config files are flat key=value text ('#' comments allowed); command-line
flags override config values. Every command is deterministic in its config
bytes, input files and seed, and writes outputs atomically.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as D
from . import evaluation as E
from . import model as M
from . import training as T
from .bounds import check, like, setting
from .checkpoint import (
    CheckpointError,
    atomic_write_text,
    load_checkpoint,
    load_snapshot,
    save_checkpoint,
    save_snapshot,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """The settings of one run, each with the range or choices of the library field it feeds."""

    # model
    mode: str = like(M.HyperParams, "feature_mode")
    dim: int = like(M.HyperParams, "D", default=16)
    latent: int = like(M.HyperParams, "L", default=16)
    k: int = like(M.HyperParams, "K")
    aggregator: str = like(M.HyperParams, "aggregator")
    use_bias: bool = like(M.HyperParams, "use_bias")
    pin_user_base: bool = like(M.HyperParams, "pin_user_base")
    # data files
    interactions: str = ""
    social: str = ""
    user_features: str = ""
    item_features: str = ""
    # synthetic data
    synthetic: bool = False
    synth_users: int = like(D.SyntheticSpec, "users", default=100)
    synth_items: int = like(D.SyntheticSpec, "items", default=80)
    synth_dim_user: int = like(D.SyntheticSpec, "dim_user")
    synth_dim_item: int = like(D.SyntheticSpec, "dim_item")
    synth_homophily: float = like(D.SyntheticSpec, "homophily")
    synth_density: float = like(D.SyntheticSpec, "density")
    synth_clusters: int = like(D.SyntheticSpec, "clusters")
    # preprocessing / split
    filter: bool = False
    min_ratings: int = setting(2, within=">= 0")
    min_links: int = setting(2, within=">= 0")
    min_item_degree: int = setting(2, within=">= 0")
    test_fraction: float = like(D.SplitConfig, "test_fraction")
    validation_fraction: float = like(D.SplitConfig, "validation_fraction_of_train")
    # training
    learning_rate: float = like(T.TrainConfig, "learning_rate")
    batch_size: int = like(T.TrainConfig, "batch_size")
    negatives: int = like(T.TrainConfig, "negatives_per_positive")
    lambda_reg: float = like(T.TrainConfig, "lambda_reg")
    max_epochs: int = like(T.TrainConfig, "max_epochs")
    patience: int = like(T.TrainConfig, "early_stop_patience")
    val_negatives: int = like(T.TrainConfig, "val_negatives")
    # evaluation
    n: list[int] = like(E.EvalConfig, "n_values")
    eval_negatives: int = like(E.EvalConfig, "num_negatives")
    repetitions: int = like(E.EvalConfig, "repetitions")
    # ablation
    variants: list[str] = field(default_factory=lambda: ["full"])
    # run
    seed: int = like(T.TrainConfig, "seed")
    output_dir: str = "runs"

    def validate(self):
        check(RunConfig, vars(self), ConfigError)
        if self.mode == M.FEATURELESS and self.latent != self.dim:
            raise ConfigError("featureless mode requires latent == dim")
        if not self.synthetic:
            if not self.interactions:
                raise ConfigError("interactions file required (or set synthetic=true)")
            if not self.social:
                raise ConfigError("social file required (or set synthetic=true)")
            if self.mode == M.FEATURES and (not self.user_features or not self.item_features):
                raise ConfigError("feature mode requires user_features and item_features files")
        if self.filter and self.synthetic:
            raise ConfigError("filter=true does not apply to synthetic=true data")
        if self.filter and self.mode == M.FEATURES:
            raise ConfigError(
                "filter=true with mode=features is unsupported: provide features "
                "for the already-filtered id space"
            )
        if not self.n or any(n < 1 for n in self.n):
            raise ConfigError(f"n must list cutoffs >= 1, got {self.n}")
        if len(set(self.n)) < len(self.n):
            raise ConfigError(f"n must list distinct cutoffs, got {self.n}")
        try:
            E.check_variants(self.variants)
        except E.EvaluationError as exc:
            raise ConfigError(str(exc)) from None

    def build(self, cls):
        """The library config `cls`: each field from the setting that feeds it, or else from the setting of its name."""
        feeds = {f.metadata.get("feeds"): f.name for f in dataclasses.fields(self)}
        return cls(**{f.name: getattr(self, feeds.get((cls, f.name), f.name)) for f in dataclasses.fields(cls)})


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# A parser per RunConfig field annotation, a string under `from __future__ import annotations`.
_PARSERS = {
    "bool": lambda raw: _BOOL[raw.lower()],
    "int": int,
    "float": float,
    "str": str,
    "list[int]": lambda raw: [int(v) for v in raw.split(",") if v.strip()],
    "list[str]": lambda raw: [v.strip() for v in raw.split(",") if v.strip()],
}


def _coerce(name, ftype, raw):
    parse = _PARSERS[ftype]
    try:
        return parse(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"bad value for {name!r}: {raw!r}") from None


def parse_config(path):
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    values, first = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} given twice (first on line {first[key]})")
        first[key] = lineno
        values[key] = _coerce(key, types[key], val.strip())
    return RunConfig(**values)


def build_bundle(cfg):
    """Assemble the DatasetBundle a config describes (files or synthetic)."""
    if cfg.synthetic:
        inter, social, uf, itf = D.synthetic_tables(cfg.build(D.SyntheticSpec))
        if cfg.mode == M.FEATURELESS:
            uf = itf = None
    else:
        inter = D.load_interactions(cfg.interactions)
        social = D.load_social(cfg.social)
        if social.num_users != inter.num_users:
            n = max(social.num_users, inter.num_users)
            inter = D.InteractionMatrix.from_arrays(*inter.edge_arrays(), n, inter.num_items)
            social = D.SocialGraph.from_arrays(*social.edge_arrays(), n)
        if cfg.filter:
            inter, social, _, _ = D.preprocess_filter(
                inter, social, cfg.min_ratings, cfg.min_links, cfg.min_item_degree
            )
        uf = itf = None
        if cfg.mode == M.FEATURES:
            uf = D.load_features(cfg.user_features, inter.num_users)
            itf = D.load_features(cfg.item_features, inter.num_items)
    bundle = D.split(inter, cfg.build(D.SplitConfig))
    return replace(bundle, social=social, user_features=uf, item_features=itf)


# Snapshot key format, and the settings besides the input bytes that shape build_bundle's result.
_SNAPSHOT_FORMAT = 1
_SNAPSHOT_SETTINGS = (
    "synthetic", "mode", "filter", "min_ratings", "min_links", "min_item_degree",
    "test_fraction", "validation_fraction", "seed",
)


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dataset_key(cfg):
    """What build_bundle(cfg) depends on: the settings, and the synthetic spec or each input file's sha256.

    None when an input file cannot be read; build_bundle reports it.
    """
    key = {"format": _SNAPSHOT_FORMAT, **{name: getattr(cfg, name) for name in _SNAPSHOT_SETTINGS}}
    if cfg.synthetic:
        key["spec"] = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name.startswith("synth_")}
        return key
    files = ["interactions", "social"] + (["user_features", "item_features"] if cfg.mode == M.FEATURES else [])
    try:
        key["files"] = {name: _sha256_file(getattr(cfg, name)) for name in files}
    except OSError:
        return None
    return key


def _save_snapshot(path, cfg, key, bundle, fingerprint):
    """Save the bundle as the snapshot at `path` if its inputs still have `key`; a failed write is not an error."""
    if key is None or key != _dataset_key(cfg):  # an input changed while build_bundle read it
        return
    try:
        save_snapshot(path, bundle, key, fingerprint)
    except OSError:
        pass


def _dataset(cfg, checkpoint_path, expected):
    """(bundle, fingerprint) of the data cfg describes.

    It comes from the snapshot beside the checkpoint when that snapshot's
    key matches. Otherwise build_bundle makes it, and it replaces the
    snapshot only when its fingerprint is `expected`, the checkpoint's.
    """
    path = checkpoint_path + ".data"
    key = _dataset_key(cfg)
    found = None if key is None else load_snapshot(path, key)
    if found is not None:
        return found
    bundle = build_bundle(cfg)
    fingerprint = bundle.fingerprint()
    if fingerprint == expected:
        _save_snapshot(path, cfg, key, bundle, fingerprint)
    return bundle, fingerprint


def _format_log(cfg, log):
    lines = [
        "# socialgcn training log",
        f"# adam beta1={T.AdamState.beta1!r} beta2={T.AdamState.beta2!r} eps={T.AdamState.eps!r} lr={cfg.learning_rate!r}",
        f"# regularization lambda={cfg.lambda_reg!r} applied once per batch to |P|^2+|Q|^2",
        f"# loss=bpr negatives_per_positive={cfg.negatives} batch_size={cfg.batch_size}",
        f"# seed={cfg.seed}",
        "epoch\tloss\tval_hr10\tval_ndcg10\tskipped_users",
    ]
    for rec in log:
        lines.append(
            f"{rec['epoch']}\t{rec['loss']:.12g}\t{rec['val_hr10']:.12g}"
            f"\t{rec['val_ndcg10']:.12g}\t{rec['skipped_users']}"
        )
    return "\n".join(lines) + "\n"


def _check_dir(path, name):
    """Raise a ConfigError unless `path` is a directory or can be made one, before any work is done.

    It can when it is not empty and its nearest existing ancestor is a
    directory. `name` is the key or flag that gave the path. Nothing is created here.
    """
    if not path:
        raise ConfigError(f"{name} must not be empty")
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"cannot write {path}: {probe} is not a directory")


def cmd_train(args):
    cfg = _load_config(args)
    cfg.validate()
    _check_dir(cfg.output_dir, "output_dir")
    key = _dataset_key(cfg)
    bundle = build_bundle(cfg)
    hypers = cfg.build(M.HyperParams)
    params, log = T.train(bundle, hypers, cfg.build(T.TrainConfig))
    os.makedirs(cfg.output_dir, exist_ok=True)
    log_text = _format_log(cfg, log)
    checkpoint_path = os.path.join(cfg.output_dir, "checkpoint.bin")
    fingerprint = bundle.fingerprint()
    save_checkpoint(
        checkpoint_path,
        hypers,
        params,
        fingerprint,
        log_tail=log_text.splitlines()[-10:],
        meta={"seed": cfg.seed},
    )
    _save_snapshot(checkpoint_path + ".data", cfg, key, bundle, fingerprint)
    atomic_write_text(os.path.join(cfg.output_dir, "train.log"), log_text)
    print(f"wrote {cfg.output_dir}/checkpoint.bin and {cfg.output_dir}/train.log "
          f"({len(log)} epochs)")
    return EXIT_OK


def _load_model(args, cfg):
    """Load the checkpoint, the dataset and its fingerprint, failing closed when they do not fit.

    Every block the model has for this dataset must be in the checkpoint
    with the same shape; the first that is not is named. The dataset's
    fingerprint must be the checkpoint's, unless --allow-mismatch is given.
    """
    ckpt = load_checkpoint(args.checkpoint)
    bundle, fingerprint = _dataset(cfg, args.checkpoint, ckpt.fingerprint)
    dims = [0 if f is None else f.dim for f in (bundle.user_features, bundle.item_features)]
    for name, want in M.param_shapes(ckpt.hypers, bundle.num_users, bundle.num_items, *dims).items():
        if name not in ckpt.params:
            raise D.DataError(f"checkpoint has no block {name!r}")
        got = ckpt.params[name].shape
        if got != want:
            rows = {"P": "users", "Q": "items"}.get(name)
            if rows and got[1:] == want[1:]:
                raise D.DataError(
                    f"checkpoint block {name!r} has {got[0]} rows, dataset has {want[0]} {rows}"
                )
            raise D.DataError(f"checkpoint block {name!r} has shape {got}, dataset needs {want}")
    if fingerprint != ckpt.fingerprint and not getattr(args, "allow_mismatch", False):
        hint = " (pass --allow-mismatch to evaluate anyway)" if hasattr(args, "allow_mismatch") else ""
        raise D.DataError(f"dataset fingerprint does not match checkpoint{hint}")
    return ckpt, bundle, fingerprint


def cmd_evaluate(args):
    cfg = _load_config(args)
    cfg.validate()
    _check_dir(cfg.output_dir, "output_dir")
    ckpt, bundle, fingerprint = _load_model(args, cfg)
    try:
        report = E.evaluate(ckpt.params, ckpt.hypers, bundle, cfg.build(E.EvalConfig))
    except M.NonFiniteError as exc:
        raise T.DivergenceError(f"checkpoint {args.checkpoint} gives {exc}") from None
    table = report.to_table()
    os.makedirs(cfg.output_dir, exist_ok=True)
    meta = [
        f"# repetitions={report.repetitions} seed={report.seed} "
        f"negatives={cfg.eval_negatives}",
        f"# hr convention: {report.hr_convention}",
        f"# dataset fingerprint: {fingerprint}",
    ]
    atomic_write_text(
        os.path.join(cfg.output_dir, "report.txt"), "\n".join(meta) + "\n" + table + "\n"
    )
    per_rep_lines = ["metric\tN\trepetition\tvalue"]
    for (metric, n), vals in report.per_rep.items():
        for rep, v in enumerate(vals):
            per_rep_lines.append(f"{metric}\t{n}\t{rep}\t{v:.12g}")
    atomic_write_text(
        os.path.join(cfg.output_dir, "metrics.tsv"), "\n".join(per_rep_lines) + "\n"
    )
    print(table)
    return EXIT_OK


def cmd_predict(args):
    if args.top_n < 0:
        raise ConfigError(f"--top-n must be >= 0, got {args.top_n}")
    cfg = _load_config(args)
    cfg.validate()
    ckpt, bundle, _ = _load_model(args, cfg)
    if not (0 <= args.user < bundle.num_users):
        raise D.DataError(f"unknown user id {args.user} (have {bundle.num_users} users)")
    try:
        U, V, _ = M.finite_forward(ckpt.params, ckpt.hypers, bundle)
    except M.NonFiniteError as exc:
        raise T.DivergenceError(f"checkpoint {args.checkpoint} gives {exc}") from None
    train = bundle.train
    items = E.unrated_items(bundle.num_items, train.indices[train.indptr[args.user] : train.indptr[args.user + 1]])
    if not len(items):
        print("all items are training positives for this user; nothing to recommend",
              file=sys.stderr)
        return EXIT_OK
    scores = V[items] @ U[args.user]
    # items ascend, so the stable sort breaks equal keys by the lower id
    for t in np.argsort(~E.order_keys(scores), kind="stable")[: args.top_n]:
        print(f"{items[t]}\t{scores[t]:.12g}")
    return EXIT_OK


def cmd_synth(args):
    check(D.SyntheticSpec, vars(args), ConfigError, _flag)
    _check_dir(args.out, "--out")
    spec = D.SyntheticSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(D.SyntheticSpec)})
    inter, social, uf, itf = D.synthetic_tables(spec)
    os.makedirs(args.out, exist_ok=True)
    D.save_interactions(inter, os.path.join(args.out, "interactions.tsv"))
    D.save_social(social, os.path.join(args.out, "social.tsv"))
    D.save_features(uf, os.path.join(args.out, "user_features.tsv"))
    D.save_features(itf, os.path.join(args.out, "item_features.tsv"))
    rating_density = inter.num_edges / (inter.num_users * inter.num_items)
    link_density = social.num_edges / (social.num_users * max(social.num_users - 1, 1))
    print(f"Users\t{inter.num_users}")
    print(f"Items\t{inter.num_items}")
    print(f"Total Links\t{social.num_edges}")
    print(f"Ratings\t{inter.num_edges}")
    print(f"Link Density\t{100.0 * link_density:.3f}%")
    print(f"Rating Density\t{100.0 * rating_density:.3f}%")
    return EXIT_OK


def cmd_ablate(args):
    cfg = _load_config(args)
    cfg.validate()
    _check_dir(cfg.output_dir, "output_dir")
    bundle = build_bundle(cfg)
    rows = E.run_ablation(
        bundle, cfg.build(M.HyperParams), cfg.build(T.TrainConfig), cfg.build(E.EvalConfig), cfg.variants
    )
    table = E.ablation_table(rows)
    os.makedirs(cfg.output_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.output_dir, "ablation.tsv"), table + "\n")
    print(table)
    return EXIT_OK


def _load_config(args):
    """The config file's RunConfig, or the defaults, with each given flag's value in the key it names."""
    cfg = parse_config(args.config) if args.config else RunConfig()
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for key, value in vars(args).items():
        if key in types and value is not None:
            setattr(cfg, key, _coerce(key, types[key], value) if isinstance(value, str) else value)
    return cfg


def _flag(name):
    return "--" + name.replace("_", "-")


def _add_common(p, with_eval=False):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--mode")
    p.add_argument("--output-dir", dest="output_dir")
    if with_eval:
        p.add_argument("--n", help="comma-separated cutoff list, e.g. 5,10,15")
        p.add_argument("--negatives", dest="eval_negatives", type=int, help="sampled candidate negatives")
        p.add_argument("--repetitions", type=int)
        p.add_argument("--allow-mismatch", action="store_true")


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="socialgcn",
        description="Social recommendation with graph-convolutional preference diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_common(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint with HR@N / NDCG@N")
    _add_common(p, with_eval=True)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("predict", help="print top-N recommendations for one user")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--top-n", dest="top_n", type=int, default=10)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    spec = RunConfig().build(D.SyntheticSpec)
    for f in dataclasses.fields(D.SyntheticSpec):
        p.add_argument(_flag(f.name), dest=f.name, type=_PARSERS[f.type], default=getattr(spec, f.name))
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    _add_common(p, with_eval=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so that a cmd_* function replaced after the
        # parser was built is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (D.DataError, CheckpointError, E.EvaluationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except T.DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (M.ModelError, T.TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as exc:
        # NumPy raises ValueError for an array past its index range; any other ValueError is a bug
        if isinstance(exc, ValueError) and not str(exc).startswith("array is too big"):
            raise
        print(f"error: out of memory in {args.command}" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
