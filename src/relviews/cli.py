"""Batch experimentation command line.

Subcommands: generate, train, eval, explain, sweep-noise, sweep-depth,
metrics, calc. Exit codes: 0 success, 2 configuration or usage error,
3 numeric failure. All outputs are deterministic given config + seed.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import explain as ex
from . import synth, training
from .errors import ConfigError, NumericError
from .graphs import export_dot
from .runconfig import load_config
from .synth import NoiseModel
from .transitivity import (TransitivityConfig, sample_complexity_noisy,
                           sample_complexity_transitive, topology_count,
                           turan_edge_bound)


def _write_text(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _list_option(raw: str, option: str, parse) -> list:
    """Comma-separated values of one option; a bad token or an empty list is
    a ConfigError that names the option."""
    try:
        values = [parse(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValueError as err:
        raise ConfigError(f"{option}: {err}") from None
    if not values:
        raise ConfigError(f"{option}: no values given")
    return values


def _size(k: int, option: str) -> int:
    if k < 0:
        raise ConfigError(f"{option}: explanation size must be non-negative, got {k}")
    return k


def cmd_generate(args) -> int:
    run = load_config(args.config)
    cfg = run.synth if args.seed is None else replace(run.synth, seed=args.seed)
    ds = synth.generate(cfg)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    synth.save(ds, args.out)
    print(f"wrote {len(ds)} instances to {args.out}")
    return 0


def cmd_train(args) -> int:
    run = load_config(args.config)
    cfg = run.train if args.seed is None else replace(run.train, seed=args.seed)
    train_ds = synth.load(args.data)
    test_ds = synth.load(args.test_data) if args.test_data else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report, _ = training.train(train_ds, cfg, test_dataset=test_ds,
                               checkpoint_path=out / "checkpoint.txt",
                               log=lambda msg: print(msg, file=sys.stderr))
    _write_text(out / "report.csv", report.losses_csv())
    print(f"train accuracy {report.final_train_accuracy:.6f}")
    if report.final_test_accuracy is not None:
        print(f"test accuracy {report.final_test_accuracy:.6f}")
    print(f"checkpoint {report.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    model = training.TrainedModel.load(args.checkpoint)
    ds = synth.load(args.data)
    acc = training.evaluate(model, ds)
    print(f"accuracy {acc:.6f}")
    return 0


def cmd_explain(args) -> int:
    top_k = _size(args.top_k, "--top-k")
    model = training.TrainedModel.load(args.checkpoint)
    ds = synth.load(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    srgs = training.encode_dataset(model, ds)
    for i, srg in enumerate(srgs):
        sub = ex.top_k_explanation(srg, top_k).as_graph()
        _write_text(out / f"instance_{i:04d}.dot", export_dot(sub, weights_as_labels=True))
    print(f"wrote {len(srgs)} instance graphs to {out}")
    return 0


def cmd_sweep_noise(args) -> int:
    run = load_config(args.config)
    models = _list_option(args.models, "--models", synth.parse_noise_model)
    etas = _list_option(args.eta_list, "--eta-list", float)
    rows = training.sweep_noise(run.train, run.synth, etas, models,
                                log=lambda msg: print(msg, file=sys.stderr))
    _write_text(args.out, training.noise_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sweep_depth(args) -> int:
    run = load_config(args.config)
    rows = training.sweep_depth(run.train, run.synth,
                                _list_option(args.depth_list, "--depth-list", int),
                                log=lambda msg: print(msg, file=sys.stderr))
    _write_text(args.out, training.depth_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    ks = [_size(k, "--top-k-list") for k in _list_option(args.top_k_list, "--top-k-list", int)]
    model = training.TrainedModel.load(args.checkpoint)
    if not model.proxies:
        raise ConfigError("metrics need a checkpoint with graph proxies")
    ds = synth.load(args.data)
    training.check_classes(model.proxies, ds, str(args.checkpoint))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    srgs = training.encode_dataset(model, ds)
    curve = ex.fidelity_sparsity_curve(srgs, model.proxies, model.cost_head, ks)
    _write_text(out / "fidelity_sparsity.csv", ex.curve_csv(curve))
    if args.macs:
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        cfg = TransitivityConfig()
        rows = []
        for k in ks:
            a = ex.ExplanationSet(tuple(ex.top_k_explanation(g, k) for g in srgs),
                                  model.proxies)
            b = ex.ExplanationSet(tuple(ex.random_explanation(g, k, rng) for g in srgs),
                                  model.proxies)
            rows.append((k, ex.macs_at_k(a, b, min(k + 1, 4), cfg)))
        _write_text(out / "macs.csv", ex.macs_csv(rows))
    print(f"wrote metrics for {len(ks)} explanation sizes to {out}")
    return 0


# each formula's command-line arguments, in order
_CALC_ARGS = {"topology-count": "n", "turan": "n k",
              "mstar": "n delta epsilon", "meta": "eta delta epsilon"}
_CALC_USAGE = "; ".join(f"{name} {names}" for name, names in _CALC_ARGS.items())
# the largest n whose 2^floor(n^2/4) has at most 4300 digits, Python's default
# limit for int-to-str conversion
_TOPOLOGY_MAX_N = 239


def cmd_calc(args) -> int:
    name, vals = args.formula, args.args
    if name not in _CALC_ARGS:
        raise ConfigError(f"unknown formula {name!r} (one of: {_CALC_USAGE})")
    if len(vals) != len(_CALC_ARGS[name].split()):
        raise ConfigError(f"{name} takes {_CALC_ARGS[name]}, got {len(vals)} arguments")
    try:
        if name == "topology-count":
            n = int(vals[0])
            if n > _TOPOLOGY_MAX_N:
                raise ConfigError(f"n must be at most {_TOPOLOGY_MAX_N}; "
                                  "larger counts exceed Python's default limit of 4300 "
                                  "digits for printing an integer")
            print(topology_count(n))
        elif name == "turan":
            print(f"{turan_edge_bound(int(vals[0]), int(vals[1])):.6g}")
        elif name == "mstar":
            print(f"{sample_complexity_transitive(float(vals[0]), float(vals[2]), float(vals[1])):.6g}")
        else:
            print(f"{sample_complexity_noisy(float(vals[0]), float(vals[2]), float(vals[1])):.6g}")
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relviews",
                                     description="View-graph relational classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed_option(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("generate", help="write a synthetic dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    seed_option(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train and write checkpoint + loss report")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--test-data", default=None)
    p.add_argument("--out", required=True)
    seed_option(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("explain", help="write DOT explanation graphs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--top-k", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("sweep-noise", help="accuracy vs noise rate and model")
    p.add_argument("--config", required=True)
    p.add_argument("--eta-list", required=True)
    p.add_argument("--models", default=",".join(m.value for m in NoiseModel))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep_noise)

    p = sub.add_parser("sweep-depth", help="accuracy and distinguishability vs depth")
    p.add_argument("--config", required=True)
    p.add_argument("--depth-list", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep_depth)

    p = sub.add_parser("metrics", help="fidelity/sparsity curve and clique similarity")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--top-k-list", default="2,4,6,8,12,16")
    p.add_argument("--macs", action="store_true",
                   help="also compare against random explanations")
    p.add_argument("--out", required=True)
    seed_option(p)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("calc", help="closed-form robustness calculators")
    p.add_argument("formula", help=f"formula and its arguments, in order: {_CALC_USAGE}")
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=cmd_calc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
