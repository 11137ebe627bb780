"""Command-line entry point: train / evaluate / predict / synth / ablate.

Config files are flat key=value text ('#' comments allowed); command-line
flags override config values. Every command is deterministic in its config
bytes, input files and seed, and writes outputs atomically.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as D
from . import evaluation as E
from . import model as M
from . import training as T
from .checkpoint import (
    CheckpointError,
    atomic_write_text,
    load_checkpoint,
    save_checkpoint,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


# The valid range of each numeric setting: a test, and the words that state it.
_RANGES = {
    "dim": (lambda v: v >= 1, ">= 1"),
    "latent": (lambda v: v >= 1, ">= 1"),
    "k": (lambda v: v >= 0, ">= 0"),
    "negatives": (lambda v: v >= 1, ">= 1"),
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "learning_rate": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "lambda_reg": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "max_epochs": (lambda v: v >= 0, ">= 0"),
    "patience": (lambda v: v >= 1, ">= 1"),
    "val_negatives": (lambda v: v >= 1, ">= 1"),
    "eval_negatives": (lambda v: v >= 1, ">= 1"),
    "repetitions": (lambda v: v >= 1, ">= 1"),
    "test_fraction": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "validation_fraction": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "seed": (lambda v: v >= 0, ">= 0"),
}


@dataclass
class RunConfig:
    # model
    mode: str = "features"
    dim: int = 16
    latent: int = 16
    k: int = 2
    aggregator: str = "average"
    use_bias: bool = True
    pin_user_base: bool = False
    # data files
    interactions: str = ""
    social: str = ""
    user_features: str = ""
    item_features: str = ""
    # synthetic data
    synthetic: bool = False
    synth_users: int = 100
    synth_items: int = 80
    synth_dim_user: int = 8
    synth_dim_item: int = 8
    synth_homophily: float = 0.8
    synth_density: float = 0.05
    synth_clusters: int = 5
    # preprocessing / split
    filter: bool = False
    min_ratings: int = 2
    min_links: int = 2
    min_item_degree: int = 2
    test_fraction: float = 0.10
    validation_fraction: float = 0.10
    # training
    learning_rate: float = 0.001
    batch_size: int = 512
    negatives: int = 5
    lambda_reg: float = 0.0001
    max_epochs: int = 20
    patience: int = 10
    val_negatives: int = 200
    # evaluation
    n: list[int] = field(default_factory=lambda: [5, 10, 15])
    eval_negatives: int = 1000
    repetitions: int = 10
    # ablation
    variants: list[str] = field(default_factory=lambda: ["full"])
    # run
    seed: int = 0
    output_dir: str = "runs"

    def validate(self):
        if self.mode not in (M.FEATURES, M.FEATURELESS):
            raise ConfigError(f"mode must be 'features' or 'featureless', got {self.mode!r}")
        if self.mode == M.FEATURELESS and self.latent != self.dim:
            raise ConfigError("featureless mode requires latent == dim")
        if not self.synthetic:
            if not self.interactions:
                raise ConfigError("interactions file required (or set synthetic=true)")
            if not self.social:
                raise ConfigError("social file required (or set synthetic=true)")
            if self.mode == M.FEATURES and (not self.user_features or not self.item_features):
                raise ConfigError("feature mode requires user_features and item_features files")
        if self.aggregator not in (M.AGG_AVERAGE, M.AGG_MAX):
            raise ConfigError(f"aggregator must be 'average' or 'max', got {self.aggregator!r}")
        for name, (valid, bound) in _RANGES.items():
            if not valid(getattr(self, name)):
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, name)!r}")
        if not self.n or any(n < 1 for n in self.n):
            raise ConfigError(f"n must list cutoffs >= 1, got {self.n}")
        for name in self.variants:
            if name not in E.ABLATION_VARIANTS:
                raise ConfigError(
                    f"unknown ablation variant {name!r}; valid: {', '.join(E.ABLATION_VARIANTS)}"
                )

    def hypers(self):
        return M.HyperParams(
            D=self.dim,
            L=self.latent,
            K=self.k,
            feature_mode=self.mode,
            aggregator=self.aggregator,
            use_bias=self.use_bias,
            pin_user_base=self.pin_user_base,
        )

    def train_config(self):
        return T.TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            negatives_per_positive=self.negatives,
            lambda_reg=self.lambda_reg,
            max_epochs=self.max_epochs,
            early_stop_patience=self.patience,
            seed=self.seed,
            val_negatives=self.val_negatives,
        )

    def eval_config(self):
        return E.EvalConfig(
            n_values=list(self.n),
            num_negatives=self.eval_negatives,
            repetitions=self.repetitions,
            seed=self.seed,
        )

    def to_text(self):
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _coerce(name, ftype, raw):
    try:
        if ftype is bool:
            return _BOOL[raw.strip().lower()]
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        if ftype is str:
            return raw
        if ftype == "list[int]":
            return [int(v) for v in raw.split(",") if v.strip()]
        if ftype == "list[str]":
            return [v.strip() for v in raw.split(",") if v.strip()]
    except (ValueError, KeyError):
        raise ConfigError(f"bad value for {name!r}: {raw!r}") from None
    raise ConfigError(f"cannot parse config key {name!r}")


def parse_config(path):
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        f = fields[key]
        ftype = f.type if isinstance(f.type, str) else f.type.__name__
        if key == "n":
            ftype = "list[int]"
        elif key == "variants":
            ftype = "list[str]"
        values[key] = _coerce(key, {"bool": bool, "int": int, "float": float, "str": str}.get(ftype, ftype), val.strip())
    return RunConfig(**values)


def build_bundle(cfg):
    """Assemble the DatasetBundle a config describes (files or synthetic)."""
    if cfg.synthetic:
        spec = D.SyntheticSpec(
            users=cfg.synth_users,
            items=cfg.synth_items,
            dim_user=cfg.synth_dim_user,
            dim_item=cfg.synth_dim_item,
            homophily=cfg.synth_homophily,
            density=cfg.synth_density,
            seed=cfg.seed,
            clusters=cfg.synth_clusters,
        )
        inter, social, uf, itf = D.synthetic_tables(spec)
        if cfg.mode == M.FEATURELESS:
            uf = itf = None
    else:
        inter = D.load_interactions(cfg.interactions)
        social = D.load_social(cfg.social)
        if social.num_users != inter.num_users:
            n = max(social.num_users, inter.num_users)
            inter = D.InteractionMatrix.from_arrays(*inter.edge_arrays(), n, inter.num_items)
            social = D.SocialGraph.from_arrays(*social.edge_arrays(), n)
        user_map = item_map = None
        if cfg.filter:
            inter, social, user_map, item_map = D.preprocess_filter(
                inter, social, cfg.min_ratings, cfg.min_links, cfg.min_item_degree
            )
        uf = itf = None
        if cfg.mode == M.FEATURES:
            uf = D.load_features(cfg.user_features, len(user_map) if user_map else inter.num_users)
            itf = D.load_features(cfg.item_features, len(item_map) if item_map else inter.num_items)
            if user_map is not None:
                raise ConfigError(
                    "filter=true with feature files is unsupported: provide features "
                    "for the already-filtered id space"
                )
    bundle = D.split(inter, D.SplitConfig(cfg.test_fraction, cfg.validation_fraction, cfg.seed))
    return replace(bundle, social=social, user_features=uf, item_features=itf)


def _format_log(cfg, log):
    lines = [
        "# socialgcn training log",
        f"# adam beta1=0.9 beta2=0.999 eps=1e-08 lr={cfg.learning_rate!r}",
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


def cmd_train(args):
    cfg = _load_config(args)
    cfg.validate()
    bundle = build_bundle(cfg)
    params, log = T.train(bundle, cfg.hypers(), cfg.train_config())
    os.makedirs(cfg.output_dir, exist_ok=True)
    log_text = _format_log(cfg, log)
    save_checkpoint(
        os.path.join(cfg.output_dir, "checkpoint.bin"),
        cfg.hypers(),
        params,
        bundle.fingerprint(),
        log_tail=log_text.splitlines()[-10:],
        meta={"seed": cfg.seed},
    )
    atomic_write_text(os.path.join(cfg.output_dir, "train.log"), log_text)
    print(f"wrote {cfg.output_dir}/checkpoint.bin and {cfg.output_dir}/train.log "
          f"({len(log)} epochs)")
    return EXIT_OK


def _load_model(args, cfg):
    """Load the checkpoint and the dataset, failing closed when they do not fit.

    Every block init_params makes for this dataset must be in the checkpoint
    with the same shape; the first that is not is named.
    """
    ckpt = load_checkpoint(args.checkpoint)
    bundle = build_bundle(cfg)
    dims = [0 if f is None else f.dim for f in (bundle.user_features, bundle.item_features)]
    expected = M.init_params(ckpt.hypers, bundle.num_users, bundle.num_items, *dims)
    for name, want in expected.items():
        if name not in ckpt.params:
            raise D.DataError(f"checkpoint has no block {name!r}")
        got = ckpt.params[name].shape
        if got != want.shape:
            rows = {"P": "users", "Q": "items"}.get(name)
            if rows and got[1:] == want.shape[1:]:
                raise D.DataError(
                    f"checkpoint block {name!r} has {got[0]} rows, dataset has {want.shape[0]} {rows}"
                )
            raise D.DataError(f"checkpoint block {name!r} has shape {got}, dataset needs {want.shape}")
    return ckpt, bundle


def cmd_evaluate(args):
    cfg = _load_config(args)
    cfg.validate()
    ckpt, bundle = _load_model(args, cfg)
    fingerprint = bundle.fingerprint()
    if fingerprint != ckpt.fingerprint and not args.allow_mismatch:
        raise D.DataError(
            "dataset fingerprint does not match checkpoint "
            "(pass --allow-mismatch to evaluate anyway)"
        )
    report = E.evaluate(ckpt.params, ckpt.hypers, bundle, cfg.eval_config())
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
    cfg = _load_config(args)
    cfg.validate()
    ckpt, bundle = _load_model(args, cfg)
    if not (0 <= args.user < bundle.num_users):
        raise D.DataError(f"unknown user id {args.user} (have {bundle.num_users} users)")
    U, V, _ = M.forward_all(ckpt.params, ckpt.hypers, bundle)
    items = E.unrated_items(bundle.num_items, bundle.train.positives_by_user[args.user])
    if not len(items):
        print("all items are training positives for this user; nothing to recommend",
              file=sys.stderr)
        return EXIT_OK
    scores = V[items] @ U[args.user]
    score_of = np.empty(bundle.num_items)
    score_of[items] = scores
    for i in E.rank_candidates(items, scores)[: args.top_n]:
        print(f"{i}\t{score_of[i]:.12g}")
    return EXIT_OK


def cmd_synth(args):
    spec = D.SyntheticSpec(
        users=args.users,
        items=args.items,
        dim_user=args.dim_user,
        dim_item=args.dim_item,
        homophily=args.homophily,
        density=args.density,
        seed=args.seed,
        clusters=args.clusters,
    )
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
    bundle = build_bundle(cfg)
    rows = E.run_ablation(
        bundle, cfg.hypers(), cfg.train_config(), cfg.eval_config(), cfg.variants
    )
    table = E.ablation_table(rows)
    os.makedirs(cfg.output_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.output_dir, "ablation.tsv"), table + "\n")
    print(table)
    return EXIT_OK


def _load_config(args):
    cfg = parse_config(args.config) if args.config else RunConfig()
    overrides = {
        "seed": getattr(args, "seed", None),
        "k": getattr(args, "k", None),
        "dim": getattr(args, "dim", None),
        "mode": getattr(args, "mode", None),
        "eval_negatives": getattr(args, "negatives", None),
        "repetitions": getattr(args, "repetitions", None),
        "output_dir": getattr(args, "output_dir", None),
    }
    n = getattr(args, "n", None)
    if n is not None:
        overrides["n"] = _coerce("n", "list[int]", n)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _add_common(p, with_eval=False):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--mode", choices=[M.FEATURES, M.FEATURELESS])
    p.add_argument("--output-dir", dest="output_dir")
    if with_eval:
        p.add_argument("--n", help="comma-separated cutoff list, e.g. 5,10,15")
        p.add_argument("--negatives", type=int, help="sampled candidate negatives")
        p.add_argument("--repetitions", type=int)
        p.add_argument("--allow-mismatch", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="socialgcn",
        description="Social recommendation with graph-convolutional preference diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint with HR@N / NDCG@N")
    _add_common(p, with_eval=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="print top-N recommendations for one user")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--top-n", dest="top_n", type=int, default=10)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    p.add_argument("--users", type=int, default=100)
    p.add_argument("--items", type=int, default=80)
    p.add_argument("--dim-user", dest="dim_user", type=int, default=8)
    p.add_argument("--dim-item", dest="dim_item", type=int, default=8)
    p.add_argument("--homophily", type=float, default=0.8)
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    _add_common(p, with_eval=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
