"""Command-line experiment runner.

Subcommands: train | eval | ablate | gradcheck | synth.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical divergence, 5 failed verification check.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DataError
from .experiment import ExperimentConfig, run_ablate, run_eval, run_gradcheck, run_synth, run_train
from .tensor import NonFiniteError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_CHECK_FAILED = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasecast",
        description="Train and evaluate the offset-interaction forecaster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_train = sub.add_parser("train", help="train and report test metrics per horizon")
    common(p_train)
    p_train.add_argument("--horizon", type=int, default=None, help="run a single horizon")
    p_train.add_argument("--variant", default=None, help="override the model variant tag")

    p_eval = sub.add_parser("eval", help="evaluate saved checkpoints on the test split")
    common(p_eval)
    p_eval.add_argument("--horizon", type=int, default=None)
    p_eval.add_argument("--variant", default=None)

    p_ablate = sub.add_parser("ablate", help="train every architectural variant and compare")
    common(p_ablate)
    p_ablate.add_argument("--horizon", type=int, default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--out", default=None)
    p_grad.add_argument("--seed", type=int, default=2024)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)

    p_synth = sub.add_parser("synth", help="generate the deterministic synthetic datasets")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=2024)
    p_synth.add_argument("--length", type=int, default=2000)
    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config)
    if args.seed is not None:
        config.seed = args.seed
    return config


def _out_dir(args, config: ExperimentConfig) -> str:
    return args.out if args.out is not None else config.output_dir


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "horizon", None) is not None and args.horizon < 1:
            raise ConfigError(f"--horizon must be at least 1, got {args.horizon}")
        if args.command == "train":
            config = _load_config(args)
            horizons = [args.horizon] if args.horizon is not None else None
            report = run_train(config, _out_dir(args, config), variant=args.variant,
                               horizons=horizons)
            for run in report["runs"]:
                print(f"train horizon={run['horizon']} variant={run['variant']} "
                      f"mse={run['metrics']['mse']:.6f} mae={run['metrics']['mae']:.6f}")
            return EXIT_OK

        if args.command == "eval":
            config = _load_config(args)
            horizons = [args.horizon] if args.horizon is not None else None
            report = run_eval(config, _out_dir(args, config), variant=args.variant,
                              horizons=horizons)
            for run in report["runs"]:
                print(f"eval horizon={run['horizon']} variant={run['variant']} "
                      f"mse={run['metrics']['mse']:.6f} mae={run['metrics']['mae']:.6f}")
            return EXIT_OK

        if args.command == "ablate":
            config = _load_config(args)
            report = run_ablate(config, _out_dir(args, config), horizon=args.horizon)
            for run in report["runs"]:
                print(f"ablate variant={run['variant']:<12} horizon={run['horizon']} "
                      f"mse={run['metrics']['mse']:.6f} mae={run['metrics']['mae']:.6f}")
            return EXIT_OK

        if args.command == "gradcheck":
            summary = run_gradcheck(out_dir=args.out, seed=args.seed, tolerance=args.tolerance)
            for tag, result in summary["results"].items():
                status = "ok" if result["passed"] else "FAIL"
                print(f"gradcheck {tag:<12} max_rel_error={result['max_rel_error']:.3e} {status}")
            return EXIT_OK if summary["passed"] else EXIT_CHECK_FAILED

        if args.command == "synth":
            result = run_synth(args.out, seed=args.seed, length=args.length)
            print(json.dumps(result))
            return EXIT_OK

        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
