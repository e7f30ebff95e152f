"""Command-line orchestration: synth, train, score, eval, and sweep.

Configuration is a flat ``key = value`` text file; CLI flags override file
values, which override defaults.  One master seed drives everything: the
synthetic generator and training consume it directly (training expands it
into named internal streams), scoring derives its reference-sampling seed
from it, so reruns with the same seed are bitwise reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import ConfigError, DataError, NumericError, StenError, atomic_write
from .evalmetrics import METRIC_GROUPS, evaluate
from .scoring import ScoreConfig, read_scores_csv, score_series, write_scores_csv
from .seqdata import SynthConfig, load_csv, save_csv, synth_generate, write_table
from .training import (MODES, TrainConfig, derive_seed, load_checkpoint,
                       save_checkpoint, train)

_INT, _FLOAT, _BOOL, _STR, _OPT_INT, _OPT_FLOAT = range(6)

SCHEMA: dict[str, tuple[int, object]] = {
    # seeding
    "seed": (_INT, 0),
    "eta_seed": (_OPT_INT, None),
    # synthetic generator
    "n_train": (_INT, 20000),
    "n_test": (_INT, 10000),
    "dims": (_INT, 5),
    "anomaly_rate": (_FLOAT, 0.05),
    "noise_sigma": (_FLOAT, 0.1),
    "seg_len_min": (_INT, 10),
    "seg_len_max": (_INT, 50),
    "period_min": (_FLOAT, 20.0),
    "period_max": (_FLOAT, 150.0),
    "n_components": (_INT, 2),
    "spike_scale": (_FLOAT, 8.0),
    "level_scale": (_FLOAT, 4.0),
    "freq_scale": (_FLOAT, 2.5),
    "anomaly_types": (_STR, "spike,level_shift,frequency_shift"),
    # training
    "L": (_OPT_INT, None),
    "R_train": (_INT, 10),
    "l": (_INT, 10),
    "r": (_OPT_INT, None),
    "m": (_INT, 10),
    "d_model": (_INT, 256),
    "alpha": (_FLOAT, 1.0),
    "lr": (_FLOAT, 1e-5),
    "epochs": (_INT, 5),
    "batch_size": (_INT, 256),
    "mode": (_STR, "full"),
    "normalize_embeddings": (_BOOL, False),
    "k_refs": (_INT, 1),
    "separate_towers": (_BOOL, False),
    # scoring
    "beta": (_FLOAT, 1.0),
    "R_test": (_INT, 10),
    "delta": (_FLOAT, 0.6),
    "score_eps": (_FLOAT, 1e-8),
    "per_subseq_denominator": (_BOOL, False),
    "ref_source": (_STR, "test"),
    # evaluation
    "point_adjust": (_STR, "on"),
    "metrics": (_STR, "all"),
    "range_w": (_OPT_FLOAT, None),
    "vus_wmax": (_OPT_FLOAT, None),
    "vus_step": (_FLOAT, 1.0),
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _convert(key: str, raw: str):
    kind, _ = SCHEMA[key]
    raw = raw.strip()
    try:
        if kind in (_OPT_INT, _OPT_FLOAT) and raw.lower() in ("none", ""):
            return None
        if kind in (_INT, _OPT_INT):
            return int(raw)
        if kind in (_FLOAT, _OPT_FLOAT):
            return float(raw)
        if kind == _BOOL:
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[raw.lower()]
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None


def parse_config_file(path) -> dict[str, str]:
    """Flat key = value lines; # starts a comment; unknown keys are rejected."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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


def resolve_config(args) -> dict:
    """Merge defaults, config file, and flag overrides (flag > file > default).

    Every float in the merged config must be finite.
    """
    cfg = {k: default for k, (_, default) in SCHEMA.items()}
    if getattr(args, "config", None):
        for k, raw in parse_config_file(args.config).items():
            cfg[k] = _convert(k, raw)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"--set: unknown key {key!r}")
        cfg[key] = _convert(key, raw)
    for flag in _FLAGS:
        val = getattr(args, flag, None)
        if val is not None:
            cfg[flag] = val
    for key, val in cfg.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val}")
    return cfg


def build_synth_config(cfg: dict) -> SynthConfig:
    types = tuple(t.strip() for t in cfg["anomaly_types"].split(",") if t.strip())
    return SynthConfig(
        n_train=cfg["n_train"], n_test=cfg["n_test"], dims=cfg["dims"],
        anomaly_rate=cfg["anomaly_rate"], seed=cfg["seed"],
        noise_sigma=cfg["noise_sigma"], seg_len_min=cfg["seg_len_min"],
        seg_len_max=cfg["seg_len_max"], period_min=cfg["period_min"],
        period_max=cfg["period_max"], n_components=cfg["n_components"],
        spike_scale=cfg["spike_scale"], level_scale=cfg["level_scale"],
        freq_scale=cfg["freq_scale"], anomaly_types=types,
    )


def build_train_config(cfg: dict) -> TrainConfig:
    r = cfg["r"] if cfg["r"] is not None else cfg["l"]
    L = cfg["L"] if cfg["L"] is not None else cfg["l"] + (cfg["m"] - 1) * r
    tc = TrainConfig(
        L=L, R_train=cfg["R_train"], l=cfg["l"], r=r, m=cfg["m"],
        d_model=cfg["d_model"], alpha=cfg["alpha"], lr=cfg["lr"],
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], seed=cfg["seed"],
        eta_seed=cfg["eta_seed"], mode=cfg["mode"],
        normalize_embeddings=cfg["normalize_embeddings"], k_refs=cfg["k_refs"],
        separate_towers=cfg["separate_towers"],
    )
    tc.validate()
    return tc


def build_score_config(cfg: dict) -> ScoreConfig:
    sc = ScoreConfig(
        beta=cfg["beta"], R_test=cfg["R_test"], eps=cfg["score_eps"], k_refs=cfg["k_refs"],
        seed=derive_seed(cfg["seed"], "score"),
        per_subseq_denominator=cfg["per_subseq_denominator"],
        ref_source=cfg["ref_source"],
    )
    sc.validate()
    return sc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_series, test_series = synth_generate(build_synth_config(cfg))
    save_csv(train_series, out_dir / "train.csv")
    save_csv(test_series, out_dir / "test.csv")
    frac = float(test_series.labels.mean())
    print(f"wrote {out_dir / 'train.csv'} ({train_series.n} rows) and "
          f"{out_dir / 'test.csv'} ({test_series.n} rows, {frac:.1%} anomalous)")
    return 0


def _write_loss_log(path, trace) -> None:
    write_table(path, ["epoch", "otn", "dsn", "total"], [range(1, len(trace) + 1), *zip(*trace)])


def cmd_train(args) -> int:
    cfg = resolve_config(args)
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
    cfg = resolve_config(args)
    model = load_checkpoint(args.model)
    test = load_csv(args.test)
    sc = build_score_config(cfg)
    train_series = load_csv(args.train) if getattr(args, "train", None) else None
    result = score_series(model, test, sc, train_series=train_series)
    write_scores_csv(args.out, result, labels=test.labels)
    print(f"scored {result.n} timestamps -> {args.out}")
    return 0


def _metric_groups(spec: str):
    if spec.strip() == "all":
        return METRIC_GROUPS
    groups = tuple(g.strip() for g in spec.split(",") if g.strip())
    for g in groups:
        if g not in METRIC_GROUPS:
            raise ConfigError(f"unknown metric group {g!r}; valid: {METRIC_GROUPS}")
    return groups


def evaluate_to_doc(scores, labels, cfg: dict) -> dict:
    """Flat report document: metric values plus the evaluation config echo."""
    groups = _metric_groups(cfg["metrics"])
    range_w = cfg["range_w"] if cfg["range_w"] is not None else float(cfg["l"])
    vus_wmax = cfg["vus_wmax"] if cfg["vus_wmax"] is not None else float(cfg["l"])
    pa = cfg["point_adjust"]
    if pa not in ("on", "off", "both"):
        raise ConfigError(f"point_adjust must be on, off or both, got {pa!r}")
    doc: dict = {
        "n_timestamps": int(len(scores)),
        "point_adjust": pa,
        "delta": cfg["delta"],
        "range_w": range_w,
        "vus_wmax": vus_wmax,
        "vus_step": cfg["vus_step"],
        "metrics": ",".join(groups),
    }
    report = evaluate(scores, labels, point_adjust_on=(pa != "off"),
                      delta=cfg["delta"], range_w=range_w, vus_wmax=vus_wmax,
                      vus_step=cfg["vus_step"], metrics=groups)
    doc.update(report.to_dict())
    if pa == "both":
        raw = evaluate(scores, labels, point_adjust_on=False, delta=cfg["delta"],
                       range_w=range_w, vus_wmax=vus_wmax, vus_step=cfg["vus_step"],
                       metrics=tuple(g for g in groups if g in ("roc", "pr", "f1")))
        doc.update({"raw_" + k: v for k, v in raw.to_dict().items()})
    return doc


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
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
    cfg = resolve_config(args)
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
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    train_series = load_csv(args.train)
    test_series = load_csv(args.test)
    if test_series.labels is None:
        raise DataError(f"{args.test}: sweep evaluation needs a label column")

    def scored(cfg_v: dict, ckpt: Path, sc: ScoreConfig):
        if not ckpt.exists():
            model = train(train_series, build_train_config(cfg_v))
            save_checkpoint(model, ckpt)
            _write_loss_log(str(ckpt) + ".log", model.loss_trace)
        return score_series(load_checkpoint(ckpt), test_series, sc)

    # beta and delta share one checkpoint and one scoring: delta changes only
    # the evaluation, and beta only how the score columns combine.
    rows, result = [], None
    for v in values:
        cfg_v = dict(cfg)
        if args.param == "l":
            lv = int(v)
            if lv != v or lv < 1:
                raise ConfigError(f"l values must be positive integers, got {v}")
            cfg_v.update({"l": lv, "r": lv, "L": cfg["m"] * lv})
        else:
            cfg_v[args.param] = v
        sc = build_score_config(cfg_v)
        if result is None or args.param not in ("beta", "delta"):
            ckpt = (work / "model.ckpt" if args.param in ("beta", "delta")
                    else work / f"model_{args.param}_{v:g}.ckpt")
            result = scored(cfg_v, ckpt, sc)
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


_FLAGS = {
    "seed": dict(type=int, help="master seed"),
    "mode": dict(choices=MODES),
    "alpha": dict(type=float, help="training loss weight of the distance term"),
    "beta": dict(type=float, help="scoring weight of the distance term"),
    "delta": dict(type=float, help="threshold percentile parameter"),
}


def _add_common(p, *flags: str) -> None:
    """--config and --set, plus the config-key flags the subcommand reads."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    for flag in flags:
        p.add_argument("--" + flag, **_FLAGS[flag])


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
    p.add_argument("--train", help="training CSV (for ref_source=train)")
    _add_common(p, "seed", "beta")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="compute metrics for a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels-from", help="CSV with a label column (default: scores CSV)")
    p.add_argument("--metrics", help="all or comma list of roc,pr,f1,aff,range,vus")
    p.add_argument("--point-adjust", choices=("on", "off", "both"))
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    _add_common(p, "delta")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep one hyperparameter end to end")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma list of values")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True, help="sweep table CSV")
    p.add_argument("--work-dir", required=True, help="directory for checkpoints")
    _add_common(p, *_FLAGS)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "metrics", None):
            args.set = (args.set or []) + [f"metrics={args.metrics}"]
        if getattr(args, "point_adjust", None):
            args.set = (args.set or []) + [f"point_adjust={args.point_adjust}"]
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
    except StenError as exc:
        print(f"sten: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
