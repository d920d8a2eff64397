"""Command-line interface.

Every subcommand reads the same JSON experiment config.  The staged
subcommands (gen-data, pretrain, adapt, distill, predict) walk the
pipeline one stage at a time over checkpoint directories, calling the
same stage functions as run for repetition 0; run and ablate execute
the whole multi-seed harness in one go.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .datagen import save_csv, save_manifest, write_labelled_rows
from .errors import ConfigError, MddaError
from .experiment import (
    ExperimentConfig,
    accuracy,
    adapt_sources,
    distill_sources,
    experiment_hash,
    export_report,
    load_config,
    predict_target,
    pretrain_sources,
    run_experiment,
    sample_domains,
    sample_sources,
    sample_target,
)
from .nn import load_params
from .pipeline import load_bundle, save_bundle
from .scatter import export_scatter


@dataclasses.dataclass(frozen=True)
class CliInvocation:
    subcommand: str
    config_path: str
    output_dir: str
    seed: int | None
    quiet: bool


def parse_args(argv) -> CliInvocation:
    parser = argparse.ArgumentParser(
        prog="mdda",
        description="Multi-source distilling domain adaptation on synthetic shifted domains.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _HANDLERS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, metavar="PATH", help="JSON experiment config")
        p.add_argument("--out", metavar="DIR", default=None, help="output directory (default ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
        p.add_argument("-q", "--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    if not os.path.isfile(args.config):
        parser.error(f"config file not found: {args.config}")
    out = args.out if args.out is not None else os.environ.get("MDDA_OUT", "./out")
    return CliInvocation(
        subcommand=args.subcommand,
        config_path=args.config,
        output_dir=out,
        seed=args.seed,
        quiet=args.quiet,
    )


def _load(inv: CliInvocation) -> ExperimentConfig:
    cfg = load_config(inv.config_path)
    if inv.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=inv.seed)
    return cfg


def _say(inv: CliInvocation, message: str) -> None:
    if not inv.quiet:
        print(message, file=sys.stderr)


def _bundle_dir(inv: CliInvocation, name: str) -> str:
    return os.path.join(inv.output_dir, "bundles", name)


def _load_bundles(inv: CliInvocation, cfg: ExperimentConfig, stage: int):
    """The bundle of every source, which must come from this experiment
    and sit at the stage the subcommand continues from."""
    stamp = experiment_hash(cfg)
    bundles = [load_bundle(_bundle_dir(inv, spec.name), stamp) for spec in cfg.sources]
    for b in bundles:
        if b.stage > stage:
            raise ConfigError(f"source {b.name}: bundle already at stage {b.stage}; rerun pretrain")
        if b.stage < stage:
            missing = "target encoder" if b.stage == 1 else "distilled classifier"
            raise ConfigError(f"source {b.name}: bundle missing {missing}; run the stages in order")
    return bundles


def _save_bundles(inv: CliInvocation, cfg: ExperimentConfig, bundles) -> None:
    stamp = experiment_hash(cfg)
    for b in bundles:
        save_bundle(b, _bundle_dir(inv, b.name), stamp)
        wd = "" if b.wd_estimate is None else f", wd_estimate {b.wd_estimate:+.4f}"
        _say(inv, f"source {b.name} at stage {b.stage}{wd}")


def _cmd_gen_data(inv: CliInvocation, cfg: ExperimentConfig) -> None:
    data = sample_domains(cfg, 0)
    data_dir = os.path.join(inv.output_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    for ds in data.sources + [data.target]:
        save_csv(ds, os.path.join(data_dir, f"{ds.domain_name}.csv"))
        _say(inv, f"wrote {ds.n} rows for domain {ds.domain_name}")
    save_manifest(list(cfg.sources) + [cfg.target], os.path.join(data_dir, "manifest.json"))


def _cmd_pretrain(inv: CliInvocation, cfg: ExperimentConfig) -> None:
    _save_bundles(inv, cfg, pretrain_sources(cfg, 0, sample_sources(cfg, 0)))


def _cmd_adapt(inv: CliInvocation, cfg: ExperimentConfig) -> None:
    bundles = _load_bundles(inv, cfg, 1)
    _save_bundles(inv, cfg, adapt_sources(cfg, 0, sample_domains(cfg, 0), bundles))


def _cmd_distill(inv: CliInvocation, cfg: ExperimentConfig) -> None:
    bundles = _load_bundles(inv, cfg, 2)
    for b in bundles if cfg.method.distill else ():
        try:
            (b.tau,) = load_params(os.path.join(_bundle_dir(inv, b.name), "tau.bin"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"source {b.name}: bundle has no readable tau ({exc}); rerun adapt") from None
    _save_bundles(inv, cfg, distill_sources(cfg, 0, sample_sources(cfg, 0), bundles))


def _cmd_predict(inv: CliInvocation, cfg: ExperimentConfig) -> None:
    bundles = _load_bundles(inv, cfg, 3 if cfg.method.distill else 2)
    _, _, test = sample_target(cfg, 0)
    pred = predict_target(bundles, cfg.method.weighting, test.x)
    acc = accuracy(pred.labels, test.y)
    columns = ["label", *(f"p{c}" for c in range(pred.probs.shape[1]))]
    write_labelled_rows(os.path.join(inv.output_dir, "predictions.csv"), columns, pred.labels, pred.probs)
    _say(inv, f"target test accuracy {acc:.4f} over {test.n} samples")


def _cmd_run(inv: CliInvocation, cfg: ExperimentConfig) -> None:
    report = run_experiment(cfg)
    export_report(report, inv.output_dir)
    for name in report.variants:
        stats = report.aggregate[name]
        _say(inv, f"{name}: {stats['mean']:.4f} +/- {stats['std']:.4f} over {cfg.repeats} seeds")


def _cmd_ablate(inv: CliInvocation, cfg: ExperimentConfig) -> None:
    cfg = dataclasses.replace(cfg, ablations=("uniform", "no_distill"))
    _cmd_run(inv, cfg)


def _cmd_scatter(inv: CliInvocation, cfg: ExperimentConfig) -> None:
    data = sample_domains(cfg, 0)
    domains = {ds.domain_name: (ds.x, ds.y) for ds in data.sources + [data.target]}
    export_scatter(domains, os.path.join(inv.output_dir, "scatter.svg"))


# each subcommand's handler and help, in the order the usage lists them
_HANDLERS = {
    "gen-data": (_cmd_gen_data, "sample every configured domain and write CSV datasets"),
    "pretrain": (_cmd_pretrain, "stage 1: train extractor and classifier per source"),
    "adapt": (_cmd_adapt, "stage 2: train target encoder and critic per source"),
    "distill": (_cmd_distill, "stage 3: fine-tune each classifier on its near-target half"),
    "predict": (_cmd_predict, "stage 4: weighted aggregate prediction on the target test split"),
    "run": (_cmd_run, "full multi-seed experiment, exporting report.json and summary.csv"),
    "ablate": (_cmd_ablate, "run with the uniform-weighting and no-distilling comparisons enabled"),
    "scatter": (_cmd_scatter, "export an SVG scatter of the configured domains"),
}


def dispatch(inv: CliInvocation) -> int:
    try:
        cfg = _load(inv)
        os.makedirs(inv.output_dir, exist_ok=True)
        _HANDLERS[inv.subcommand][0](inv, cfg)
    except (MddaError, OSError, ValueError) as exc:
        print(f"mdda {inv.subcommand}: {exc}", file=sys.stderr)
        return 1
    print(f"OK {inv.subcommand} {inv.output_dir}")
    return 0


def main(argv=None) -> int:
    try:
        inv = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return dispatch(inv)


if __name__ == "__main__":
    raise SystemExit(main())
