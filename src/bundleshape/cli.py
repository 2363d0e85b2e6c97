"""Command-line entry point.

Subcommands: synth, shape, pca, train, predict, eval, gradcheck, bench.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure
(a failed gradcheck, a diverged training run, non-finite measures or
predictions, or a float overflow).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, describe_keys, load_config
from .net import VARIANTS
from .synth import FAMILIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

GRADCHECK_TOL = 1e-4


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _families(text: str) -> tuple[str, ...]:
    names = tuple(f.strip() for f in text.split(",") if f.strip())
    if not names or not set(names) <= set(FAMILIES):
        raise argparse.ArgumentTypeError(f"expected families from {','.join(FAMILIES)}, got {text!r}")
    return names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundleshape",
        description="Bundle shape measures: voxel-based oracle and learned predictor.",
        epilog="Config keys and defaults:\n" + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, variant: bool = False, families: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", default=None, help="sectioned key=value config file")
        if variant:
            p.add_argument("--variant", choices=VARIANTS, default=None, help="model variant override")
        if families:
            p.add_argument(
                "--families",
                type=_families,
                default=None,
                help="comma-separated generator families to keep (e.g. cylinder,arc)",
            )
        return p

    add("synth", "generate the synthetic bundle dataset + manifest")
    add("shape", "compute ground-truth shape measures for every bundle")
    add("pca", "fit the measure PCA on the train split and export it")
    add("train", "train the regressor", variant=True, families=True)
    p = add("predict", "predict measures for one split", variant=True, families=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p = add("eval", "score predictions against ground truth", variant=True)
    p.add_argument(
        "--ablation",
        action="store_true",
        help="also merge all available per-variant reports into combined tables",
    )
    p = add("gradcheck", "finite-difference gradient verification")
    p.add_argument("--probes", type=_at_least_one, default=120)
    add("bench", "per-subject-equivalent timing of oracle and model", variant=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from . import pipeline

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "synth":
            rows = pipeline.run_synth(cfg)
            print(f"wrote {len(rows)} bundles under {cfg.work_dir} ({pipeline.stamp(cfg)})")
        elif args.command == "shape":
            out = pipeline.run_shape(cfg)
            print(f"wrote {out}")
        elif args.command == "pca":
            out = pipeline.run_pca(cfg)
            print(f"wrote {out}")
        elif args.command == "train":
            out = pipeline.run_train(cfg, args.variant, args.families)
            print(f"wrote {out}")
        elif args.command == "predict":
            out = pipeline.run_predict(cfg, args.variant, args.split, args.families)
            print(f"wrote {out}")
        elif args.command == "eval":
            report = pipeline.run_eval(cfg, args.variant)
            print(
                f"{report.variant}: mean r = {report.mean_pearson:.4f} ± {report.sd_pearson:.4f}, "
                f"mean nMSE = {report.mean_nmse:.4f} ± {report.sd_nmse:.4f}"
            )
            if args.ablation:
                reports = {}
                for v in VARIANTS:
                    if pipeline.predictions_path(cfg, v).exists():
                        reports[v] = pipeline.run_eval(cfg, v)
                paths = pipeline.write_ablation_tables(cfg, reports)
                for p in paths:
                    print(f"wrote {p}")
        elif args.command == "gradcheck":
            max_rel = pipeline.run_gradcheck(n_probes=args.probes)
            status = "PASS" if max_rel < GRADCHECK_TOL else "FAIL"
            print(f"gradcheck {status}: max relative error {max_rel:.3e} (tol {GRADCHECK_TOL})")
            if status == "FAIL":
                return EXIT_NUMERIC
        elif args.command == "bench":
            result = pipeline.run_bench(cfg, args.variant)
            print(
                f"per {result['n_bundles']}-bundle subject-equivalent: "
                f"oracle {result['oracle_s']:.3f} s, model {result['model_s']:.3f} s "
                f"(sampling {result['sample_s']:.3f} s, predict {result['predict_s']:.3f} s); "
                f"train step: forward {result['train_forward_s']:.3f} s, "
                f"backward {result['backward_s']:.3f} s"
            )
    except ArithmeticError as exc:  # non-finite loss, measures or predictions; overflow
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
