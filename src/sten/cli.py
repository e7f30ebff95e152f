"""Command-line orchestration: synth, train, score, eval, and sweep.

Configuration is a flat ``key = value`` text file, overridden by ``--set
KEY=VALUE`` and then by the named flags, such as ``--seed``.  One master seed
drives everything random: the synthetic generator and training consume it
directly (training expands it into named internal streams), so reruns with the
same seed are bitwise reproducible.  Scoring draws no random numbers and reads
no seed.

The config keys are the fields of ``SynthConfig``, ``TrainConfig`` and
``ScoreConfig``, each with its field's name, annotation (as its type) and
default; ``seed``, the only field two classes share, is one key.  The
exceptions are ``r``, which follows ``l`` unless set, and the evaluation keys,
which have no dataclass.  The window length ``L`` is no key: ``TrainConfig``
works it out from ``l``, ``m`` and ``r``.  File, ``--set`` and flag values are
all parsed by ``_convert``.

Each command takes from ``--set`` only the keys it reads, and rejects any
other: ``synth`` the ``SynthConfig`` keys, ``train`` the ``TrainConfig`` keys,
``score`` the ``ScoreConfig`` keys (the model's settings come from its
checkpoint), ``eval`` the evaluation keys and ``l``, ``sweep`` the training,
scoring and evaluation keys.  A config file may hold any key.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import ConfigError, DataError, NumericError, StenError, atomic_write
from .evalmetrics import METRIC_GROUPS, evaluate, vus_widths
from .scoring import ScoreConfig, read_scores_csv, score_series, score_starts, write_scores_csv
from .seqdata import SynthConfig, load_csv, save_csv, synth_generate, write_table
from .training import (MODES, TrainConfig, load_checkpoint, save_checkpoint, train,
                       train_starts)

# Keys that are not a config field of their own name, type and default.
_EXCEPTIONS: dict[str, tuple[str, object]] = {
    "r": ("int | None", None),      # unset, r = l (build_train_config)
}

# The evaluation keys, which have no dataclass.
_EVAL_KEYS: dict[str, tuple[str, object]] = {
    "point_adjust": ("str", "on"),
    "metrics": ("str", "all"),
    "delta": ("float", 0.6),
    "range_w": ("float | None", None),       # None: l
    "vus_wmax": ("float | None", None),      # None: l
    "vus_step": ("float", 1.0),
}

# Each key's (type, default), the type an annotation string: the fields',
# then the exceptions and the evaluation keys.
SCHEMA: dict[str, tuple[str, object]] = {}
for _f in (f for cls in (SynthConfig, TrainConfig, ScoreConfig) for f in fields(cls)):
    if SCHEMA.setdefault(_f.name, (_f.type, _f.default)) != (_f.type, _f.default):
        raise TypeError(f"config classes declare {_f.name!r} differently")
SCHEMA.update(_EXCEPTIONS | _EVAL_KEYS)


def _keys(*classes) -> set[str]:
    """The keys of the config classes' fields."""
    return {f.name for cls in classes for f in fields(cls)}

_PARSERS = {"int": int, "float": float, "str": str,
            "tuple[str, ...]": lambda raw: tuple(t.strip() for t in raw.split(",") if t.strip())}


def _convert(key: str, raw: str):
    """The value of ``key`` that the text ``raw`` stands for."""
    kind = SCHEMA[key][0]
    raw = raw.strip()
    if kind.endswith(" | None") and raw.lower() in ("none", ""):
        return None
    parse = _PARSERS[kind.removesuffix(" | None")]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None


def parse_config_file(path) -> dict[str, str]:
    """Flat key = value lines of UTF-8 text, after a byte order mark if one
    leads; # starts a comment; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = raw.strip()
    return values


def resolve_config(args, reads: set[str] | None = None) -> dict:
    """Merge defaults, config file, ``--set`` and named flags, later ones winning.

    A ``--set`` key outside ``reads``, when given, is a usage error: the
    command would ignore it.  Every float in the merged config must be finite.
    """
    cfg = {k: default for k, (_, default) in SCHEMA.items()}
    items = list(parse_config_file(args.config).items()) if getattr(args, "config", None) else []
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"--set: unknown key {key!r}")
        if reads is not None and key not in reads:
            raise ConfigError(f"--set: {args.command} does not read {key!r}")
        items.append((key, raw))
    items += [(k, getattr(args, k)) for k in _FLAGS if getattr(args, k, None) is not None]
    for key, raw in items:
        cfg[key] = _convert(key, raw)
    for key, val in cfg.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val}")
    return cfg


def _build(cls, cfg: dict, **derived):
    """A validated ``cls`` whose fields are the keys of their names, except
    the ``derived`` ones."""
    config = cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name not in derived},
                 **derived)
    config.validate()
    return config


def build_synth_config(cfg: dict) -> SynthConfig:
    return _build(SynthConfig, cfg)


def build_train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, cfg, r=cfg["r"] if cfg["r"] is not None else cfg["l"])


def build_score_config(cfg: dict) -> ScoreConfig:
    return _build(ScoreConfig, cfg)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    synth_cfg = build_synth_config(resolve_config(args, reads=_keys(SynthConfig)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_series, test_series = synth_generate(synth_cfg)
    save_csv(train_series, out_dir / "train.csv")
    save_csv(test_series, out_dir / "test.csv")
    frac = float(test_series.labels.mean())
    print(f"wrote {out_dir / 'train.csv'} ({train_series.n} rows) and "
          f"{out_dir / 'test.csv'} ({test_series.n} rows, {frac:.1%} anomalous)")
    return 0


def _write_loss_log(path, trace) -> None:
    write_table(path, ["epoch", "otn", "dsn", "total"], [range(1, len(trace) + 1), *zip(*trace)])


def cmd_train(args) -> int:
    cfg = resolve_config(args, reads=_keys(TrainConfig))
    series = load_csv(args.train)
    tc = build_train_config(cfg)
    model = train(series, tc)
    save_checkpoint(model, args.out)
    _write_loss_log(str(args.out) + ".log", model.loss_trace)
    otn, dsn, total = model.loss_trace[-1]
    print(f"trained {tc.mode} for {tc.epochs} epochs on {series.n} timestamps; "
          f"final loss otn={otn:.6g} dsn={dsn:.6g} total={total:.6g}")
    print(f"checkpoint: {args.out}")
    return 0


def cmd_score(args) -> int:
    sc = build_score_config(resolve_config(args, reads=_keys(ScoreConfig)))
    model = load_checkpoint(args.model)
    test = load_csv(args.test)
    result = score_series(model, test, sc)
    write_scores_csv(args.out, result, labels=test.labels)
    print(f"scored {result.n} timestamps -> {args.out}")
    return 0


def _eval_settings(cfg: dict) -> tuple[tuple[str, ...], float, float]:
    """The metric groups, range_w and vus_wmax that ``cfg`` evaluates with.

    Every evaluation key is checked here, so that a bad one is a usage error
    before any work: l, which sets the default buffer widths, as training
    checks it; delta when affiliation is asked for, and the buffer widths
    when range-AUC or VUS is (VUS also by their number,
    ``evalmetrics.VUS_MAX_WIDTHS`` at most).
    """
    spec = cfg["metrics"].strip()
    groups = (METRIC_GROUPS if spec == "all"
              else tuple(g.strip() for g in spec.split(",") if g.strip()))
    for g in groups:
        if g not in METRIC_GROUPS:
            raise ConfigError(f"unknown metric group {g!r}; valid: {METRIC_GROUPS}")
    if not groups:
        raise ConfigError(f"metrics names no metric group: {cfg['metrics']!r}")
    if cfg["point_adjust"] not in ("on", "off", "both"):
        raise ConfigError(f"point_adjust must be on, off or both, got {cfg['point_adjust']!r}")
    if cfg["l"] < 1:
        raise ConfigError(f"l must be >= 1, got {cfg['l']}")
    range_w = cfg["range_w"] if cfg["range_w"] is not None else float(cfg["l"])
    vus_wmax = cfg["vus_wmax"] if cfg["vus_wmax"] is not None else float(cfg["l"])
    if "aff" in groups and not 0 < cfg["delta"] < 100:
        raise ConfigError(f"delta must be in (0, 100), got {cfg['delta']}")
    if "range" in groups and range_w < 0:
        raise ConfigError(f"range_w must be >= 0, got {range_w}")
    if "vus" in groups:
        try:
            vus_widths(vus_wmax, cfg["vus_step"])
        except DataError as exc:
            raise ConfigError(f"vus_wmax and vus_step: {exc}") from None
    return groups, range_w, vus_wmax


# The report fields of the roc, pr and f1 groups, the ones point adjust changes.
_POINT_WISE = ("auc_roc", "auc_pr", "best_f1", "best_f1_threshold", "best_f1_precision",
               "best_f1_recall")


def evaluate_to_doc(scores, labels, cfg: dict) -> dict:
    """Flat report document: metric values plus the evaluation config echo."""
    groups, range_w, vus_wmax = _eval_settings(cfg)
    pa = cfg["point_adjust"]
    doc: dict = {
        "n_timestamps": int(len(scores)),
        "point_adjust": pa,
        "delta": cfg["delta"],
        "range_w": range_w,
        "vus_wmax": vus_wmax,
        "vus_step": cfg["vus_step"],
        "metrics": ",".join(groups),
    }
    settings = dict(delta=cfg["delta"], range_w=range_w, vus_wmax=vus_wmax,
                    vus_step=cfg["vus_step"])
    if pa == "both":
        # Affiliation, range-AUC and VUS read the raw scores either way: the raw
        # report runs every group and the adjusted one only the point-wise
        # groups, so each score series is sorted once.
        raw = evaluate(scores, labels, point_adjust_on=False, metrics=groups, **settings)
        adjusted = evaluate(scores, labels, point_adjust_on=True, **settings,
                            metrics=tuple(g for g in groups if g in ("roc", "pr", "f1")))
        doc.update(replace(raw, **{k: getattr(adjusted, k) for k in _POINT_WISE}).to_dict())
        doc.update({"raw_" + k: v for k, v in raw.to_dict().items() if k in _POINT_WISE})
    else:
        doc.update(evaluate(scores, labels, point_adjust_on=(pa == "on"), metrics=groups,
                            **settings).to_dict())
    return doc


def cmd_eval(args) -> int:
    # l sets the default range_w and vus_wmax.
    cfg = resolve_config(args, reads=set(_EVAL_KEYS) | {"l"})
    _eval_settings(cfg)
    cols = read_scores_csv(args.scores)
    if getattr(args, "labels_from", None):
        labeled = load_csv(args.labels_from)
        if labeled.labels is None:
            raise DataError(f"{args.labels_from}: no label column")
        labels = labeled.labels
    elif "label" in cols:
        labels = cols["label"]
    else:
        raise DataError(f"{args.scores}: no label column; pass --labels-from")
    if len(labels) != len(cols["score"]):
        raise DataError(f"scores have {len(cols['score'])} rows but labels have "
                        f"{len(labels)}")
    doc = evaluate_to_doc(cols["score"], labels, cfg)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"metrics -> {args.out}")
    else:
        print(text)
    return 0


SWEEP_PARAMS = ("alpha", "beta", "l", "delta")


def cmd_sweep(args) -> int:
    cfg = resolve_config(args, reads=_keys(TrainConfig, ScoreConfig) | set(_EVAL_KEYS))
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(f"--param must be one of {SWEEP_PARAMS}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values must be a comma list of numbers: {args.values!r}") from None
    if not values:
        raise ConfigError("--values is empty")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"--values must be finite: {args.values!r}")
    # Every value's configs are built, and so checked, before any work.
    runs = []
    for v in values:
        cfg_v = dict(cfg)
        if args.param == "l":
            lv = int(v)
            if lv != v or lv < 1:
                raise ConfigError(f"l values must be positive integers, got {v}")
            # r follows l unless set (build_train_config), and L follows both.
            cfg_v["l"] = lv
        else:
            cfg_v[args.param] = v
        _eval_settings(cfg_v)
        tc, sc = build_train_config(cfg_v), build_score_config(cfg_v)
        sc.check_model(tc)
        runs.append((v, cfg_v, tc, sc))
    train_series = load_csv(args.train)
    test_series = load_csv(args.test)
    if test_series.labels is None:
        raise DataError(f"{args.test}: sweep evaluation needs a label column")
    # Every value's windows fit both series, as train and score_series need
    # them, before any model trains.
    for _, _, tc, sc in runs:
        train_starts(train_series.n, tc)
        score_starts(test_series.n, tc, sc)
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)

    def scored(tc: TrainConfig, ckpt: Path, sc: ScoreConfig):
        """Trains a model afresh, whatever ``ckpt`` holds, and scores with it
        as ``sten score`` would with the checkpoint."""
        model = train(train_series, tc)
        save_checkpoint(model, ckpt)
        _write_loss_log(str(ckpt) + ".log", model.loss_trace)
        return score_series(load_checkpoint(ckpt), test_series, sc)

    # beta and delta share one checkpoint and one scoring: delta changes only
    # the evaluation, and beta only how the score columns combine.  Any other
    # value trains a model of its own, named by the value's repr, which no
    # other float shares.
    rows, result = [], None
    for v, cfg_v, tc, sc in runs:
        if result is None or args.param not in ("beta", "delta"):
            ckpt = (work / "model.ckpt" if args.param in ("beta", "delta")
                    else work / f"model_{args.param}_{cfg_v[args.param]!r}.ckpt")
            result = scored(tc, ckpt, sc)
        # The combination score_series makes, with this value's beta.
        scores = result.score_otn + sc.beta * result.score_dsn
        doc = evaluate_to_doc(scores, test_series.labels, cfg_v)
        rows.append((v, doc))
        print(f"{args.param}={v:g}: auc_pr={doc.get('auc_pr', float('nan')):.4f}")

    metrics = ("auc_roc", "auc_pr", "best_f1", "aff_f1")
    write_table(args.out, ["param", "value", *metrics],
                [[args.param] * len(rows), [v for v, _ in rows],
                 *([doc.get(k) for _, doc in rows] for k in metrics)])
    print(f"sweep table -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError.  Flags must be spelled in full: an
    abbreviation would let ``score --mode`` stand for ``score --model``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


# Flags named after a config key: ``--point-adjust X`` sets point_adjust as
# ``--set point_adjust=X`` does, and wins over it.
_FLAGS = {
    "seed": dict(help="master seed"),
    "mode": dict(choices=MODES),
    "alpha": dict(help="training loss weight of the distance term"),
    "beta": dict(help="scoring weight of the distance term"),
    "delta": dict(help="threshold percentile parameter"),
    "metrics": dict(help="all or comma list of roc,pr,f1,aff,range,vus"),
    "point_adjust": dict(choices=("on", "off", "both")),
}


def _add_common(p, *flags: str) -> None:
    """--config and --set, plus the config-key flags the subcommand reads."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    for flag in flags:
        p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sten",
                     description="Spatial-temporal normality learning for "
                                 "time-series anomaly detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out-dir", required=True)
    _add_common(p, "seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on an unlabeled series")
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_common(p, "seed", "mode", "alpha")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a test series with a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True, help="scores CSV path")
    _add_common(p, "beta")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="compute metrics for a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels-from", help="CSV with a label column (default: scores CSV)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    _add_common(p, "delta", "metrics", "point_adjust")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep one hyperparameter end to end")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma list of values")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True, help="sweep table CSV")
    p.add_argument("--work-dir", required=True, help="directory for checkpoints")
    _add_common(p, "seed", "mode", "alpha", "beta", "delta")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"sten: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"sten: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"sten: numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy names the request: "Unable to allocate 2.13 PiB for an array ..."
        print(f"sten: usage error: the configuration needs more memory than there is: {exc}",
              file=sys.stderr)
        return 1
    except StenError as exc:
        print(f"sten: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
