"""Command-line surface.

Subcommands: gen-data, train, eval, sweep, grad-check. The first four accept
``--config`` (INI file, see config.py), ``--seed`` (overrides every seed
in the config), and ``--out`` (output directory); grad-check takes only
``--seed`` and ``--instances``. Exit codes: 0 success,
1 validation/usage error, a file that cannot be opened, or a sweep in
which every cell failed, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .checks import run_gradient_suite
from .config import FullConfig, _cast, _keys, build_dataset, build_split, load_config
from .data import save_features
from .errors import ConfigError, NumericError, OsrkitError, UsageError
from .evaluate import evaluate, write_oscr_csv, write_roc_csv
from .losses import LossConfig, vacuous_overconfidence
from .model import load_checkpoint, save_checkpoint
from .train import (GRIDS, TrainConfig, _apply_overrides, cartesian_cells, sweep, train,
                    write_history_csv, write_sweep_csv)


def _seed(raw: str) -> int:
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {raw!r}")
    return int(raw)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise UsageError(message)


def _load(args) -> FullConfig:
    if not args.config:
        raise UsageError("--config is required for this command")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = FullConfig(_apply_overrides(cfg.train, {"seed": args.seed}),
                         replace(cfg.data, seed=args.seed))
    return cfg


def _outdir(args) -> Path:
    """``--out``, created; a command calls this just before its first write."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _warn_if_vacuous(loss: LossConfig, where: str = "") -> None:
    if vacuous_overconfidence(loss):
        print(f"warning: {where}gap_threshold {loss.gap_threshold:g} >= 2 * tau: the angular "
              "overconfidence hinge is never active", file=sys.stderr)


def _cmd_gen_data(args) -> int:
    cfg = _load(args)
    dataset = build_dataset(cfg.data)
    path = _outdir(args) / ("dataset.csv" if args.csv else "dataset.ossf")
    save_features(path, dataset)
    print(f"wrote {len(dataset)} samples x {dataset.inputs.shape[1]} dims to {path}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load(args)
    split = build_split(cfg.data)
    _warn_if_vacuous(cfg.train.loss)
    embedder, bank, history = train(split, cfg.train)
    out = _outdir(args)
    ckpt = out / "model.osrp"
    save_checkpoint(ckpt, embedder, bank)
    write_history_csv(out / "history.csv", history)
    report = evaluate(embedder, bank, split, cfg.train.loss)
    print(f"checkpoint: {ckpt}")
    print(f"history:    {out / 'history.csv'}")
    print(
        f"acc={report.closed_accuracy:.4f} auroc={report.auroc:.4f} oscr={report.oscr:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    cfg = _load(args)
    split = build_split(cfg.data)
    embedder, bank = load_checkpoint(args.checkpoint)
    report = evaluate(embedder, bank, split, cfg.train.loss)
    out = _outdir(args)
    write_roc_csv(out / "roc.csv", report.roc_curve)
    write_oscr_csv(out / "oscr.csv", report.oscr_curve)
    summary = {
        "closed_accuracy": report.closed_accuracy,
        "auroc": report.auroc,
        "oscr": report.oscr,
    }
    (out / "report.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def _parse_param_values(raw: str, base: TrainConfig):
    """``name=v1,v2,...`` with each value cast like the config key of that name."""
    name, _, values = raw.partition("=")
    if not values:
        raise UsageError(f"--param expects name=v1,v2,... got {raw!r}")
    owner = next((c for c in (base.loss, base, base.model) if name in _keys(c)), None)
    if owner is None:
        raise ConfigError(f"unknown sweep parameter {name!r}")
    if isinstance(getattr(owner, name), list):  # its values would split on the commas
        raise ConfigError(f"sweep parameter {name!r} is a list; --param cannot sweep it")
    return name, [_cast(name, getattr(owner, name), v.strip()) for v in values.split(",")]


def _cmd_sweep(args) -> int:
    if args.param and args.grid != "custom":
        raise UsageError(f"--param needs --grid custom, not --grid {args.grid}")
    cfg = _load(args)
    split = build_split(cfg.data)
    if args.grid in GRIDS:
        cells = GRIDS[args.grid]
    elif not args.param:  # custom: the parser's choices admit no other grid
        raise UsageError("--grid custom requires at least one --param")
    else:
        grid = {}
        for name, values in (_parse_param_values(p, cfg.train) for p in args.param):
            if name in grid:
                raise UsageError(f"--param {name} given twice")
            grid[name] = values
        cells = cartesian_cells(grid)
    for cell in cells:
        _warn_if_vacuous(_apply_overrides(cfg.train, cell).loss, f"cell {cell}: ")
    rows = sweep(cfg.train, cells, split)
    path = _outdir(args) / "sweep.csv"
    write_sweep_csv(path, rows)
    failed = [r for r in rows if r.error is not None]
    for r in failed:
        print(f"cell {r.overrides} failed: {r.error}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {path}" + (f" ({len(failed)} failed)" if failed else ""))
    return 1 if len(failed) == len(rows) else 0


def _cmd_grad_check(args) -> int:
    results = run_gradient_suite(seed=args.seed, instances=args.instances)
    worst_failed = False
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name:28s} max_rel_err={r.max_error:.3e} (tol {r.tolerance:g})")
        worst_failed = worst_failed or not r.passed
    if worst_failed:
        raise NumericError("gradient check failed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="osrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=_seed, default=None, help="override all seeds")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    common(p)
    p.add_argument("--csv", action="store_true", help="write CSV instead of binary")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model, write checkpoint + history")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, write report + curves")
    common(p)
    p.add_argument("--checkpoint", required=True, help="OSRP checkpoint path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="train/evaluate a parameter grid, write CSV")
    common(p)
    p.add_argument(
        "--grid",
        default="gap-threshold",
        choices=[*GRIDS, "custom"],
    )
    p.add_argument("--param", action="append", help="custom grid: name=v1,v2,...")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grad-check", help="finite-difference check of all gradients")
    p.add_argument("--seed", type=_seed, default=0, help="seed of the random instances")
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (OsrkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
