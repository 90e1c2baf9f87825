"""Command-line harness.

Subcommands: gen, fit, lr, select, limit, check-h4, gradcheck, experiment.
limit, check-h4 and experiment all take the spec's one Gram
(harness.default_gram): the quadrature Gram at d <= 2, a fixed-seed
Monte Carlo Gram at d >= 3. --seed seeds draws, never that Gram.
Exit codes:
  0  success;
  2  a configuration input (spec, box, fit config, schedule, dataset or
     experiment config) cannot be read, parsed or validated, which
     includes a spec with a true amplitude that is not positive (the
     message names the positive form of a negative one) and a box whose
     positive_amplitudes is not true; or an option comes without the
     one it needs, or a --k of limit or gradcheck is below the spec's
     k0; or the command line does not parse, which includes a count
     (--n, --k, --k-max, --draws, --threads) below 1 and a --seed below
     0;
  3  a fit failed; for experiment, a replicate cell failed or the run
     failed outside its limit-law stage;
  4  the limit law failed: its Gram, certificate or simulation (limit,
     check-h4, and experiment's limit-law stage).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .estimation import FitConfig, fit_mle
from .harness import (
    GRAM_DRAWS,
    GRAM_SEED,
    ExperimentConfig,
    LimitError,
    default_gram,
    gradcheck,
    run_experiment,
    summarize,
)
from .likelihood import conditional_loglik, lr_statistic
from .limit_law import (
    check_h4,
    extended_grid,
    gram_matrix,
    save_gram,
    simulate_limit,
    ScoreBasis,
)
from .model import ConstraintBox, Dataset, RegressionSpec, generate_dataset, stable_hash
from .selection import PenaltySchedule, select_architecture

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_LIMIT = 4


class ConfigError(Exception):
    pass


class FitError(Exception):
    pass


def _load(cls, path: str, **kwargs):
    """Read one configuration input: a Dataset from CSV (kwargs go to
    Dataset.from_csv), any other class from JSON through its from_dict.
    Read, parse and validation errors become ConfigError."""
    try:
        if cls is Dataset:
            return Dataset.from_csv(path, **kwargs)
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
    except (AttributeError, OSError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__} {path}: {exc}") from exc


def _load_fit_config(path: str | None, seed: int | None) -> FitConfig:
    cfg = FitConfig() if path is None else _load(FitConfig, path)
    if seed is not None:
        cfg.seed = seed
    return cfg


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = _load(RegressionSpec, args.spec)
    seed = args.seed if args.seed is not None else 0
    data = generate_dataset(spec, args.n, seed)
    tag = stable_hash({"spec": spec.to_dict(), "n": args.n, "seed": seed})
    data.to_csv(_out_path(args, args.out), header_comment=f"config_hash={tag} seed={seed}")
    print(f"wrote {args.out}: n={data.n}, d={data.d}")
    return EXIT_OK


def _sigma2_for(args) -> float:
    if args.spec is not None:
        return _load(RegressionSpec, args.spec).sigma2
    return args.sigma2


def cmd_fit(args) -> int:
    box = _load(ConstraintBox, args.box)
    cfg = _load_fit_config(args.fit_config, args.seed)
    data = _load(Dataset, args.data, sigma2=_sigma2_for(args))
    try:
        result = fit_mle(data, args.k, box, cfg)
    except Exception as exc:
        raise FitError(str(exc)) from exc
    payload = result.to_dict()
    payload["config_hash"] = stable_hash({"box": box.to_dict(), "fit": cfg.to_dict(), "k": args.k})
    payload["seed"] = cfg.seed
    _write_json(_out_path(args, args.out), payload)
    print(f"k={args.k}: loglik={result.loglik:.6f} converged={result.converged}")
    return EXIT_OK


def cmd_lr(args) -> int:
    spec = _load(RegressionSpec, args.spec)
    box = _load(ConstraintBox, args.box)
    cfg = _load_fit_config(args.fit_config, args.seed)
    data = _load(Dataset, args.data, sigma2=spec.sigma2)
    try:
        result = fit_mle(data, args.k, box, cfg)
        stat = lr_statistic(result.loglik, spec, data)
    except Exception as exc:
        raise FitError(str(exc)) from exc
    payload = {
        "k": args.k,
        "lr": stat,
        "sup_loglik": result.loglik,
        "true_loglik": conditional_loglik(spec.theta0, data),
        "converged": result.converged,
        "config_hash": stable_hash({"spec": spec.to_dict(), "box": box.to_dict(), "k": args.k}),
        "seed": cfg.seed,
    }
    _write_json(_out_path(args, args.out), payload)
    print(f"2*lambda_n(k={args.k}) = {stat:.6f}")
    return EXIT_OK


def cmd_select(args) -> int:
    spec = _load(RegressionSpec, args.spec)
    box = _load(ConstraintBox, args.box)
    cfg = _load_fit_config(args.fit_config, args.seed)
    if args.schedule is not None:
        schedule = _load(PenaltySchedule, args.schedule)
        if schedule.input_dim not in (None, spec.input_dim):
            raise ConfigError(f"schedule input_dim {schedule.input_dim} differs from the spec's d = {spec.input_dim}")
    else:
        schedule = PenaltySchedule("bic_like", input_dim=spec.input_dim)
    data = _load(Dataset, args.data, sigma2=spec.sigma2)
    try:
        report = select_architecture(data, args.k_max, box, cfg, schedule)
    except Exception as exc:
        raise FitError(str(exc)) from exc
    payload = report.to_dict()
    payload["config_hash"] = stable_hash(
        {"spec": spec.to_dict(), "box": box.to_dict(), "schedule": schedule.to_dict(), "k_max": args.k_max}
    )
    payload["seed"] = cfg.seed
    _write_json(_out_path(args, args.out), payload)
    print(f"k_hat = {report.k_hat} (k_max={args.k_max}, n={report.n})")
    return EXIT_OK


def cmd_limit(args) -> int:
    spec = _load(RegressionSpec, args.spec)
    if args.k < spec.k0:
        raise ConfigError(f"--k {args.k} is below the spec's k0 = {spec.k0}")
    seed = args.seed if args.seed is not None else 0
    basis, index_set = None, {"extended": args.extended_index_set}
    if args.extended_index_set:
        box = _load(ConstraintBox, args.box) if args.box else ConstraintBox(0.1, 50.0)
        index_set["box"] = box.to_dict()
        try:
            basis = ScoreBasis(spec.k0, spec.input_dim, extended_grid(box, spec.input_dim))
        except ValueError as exc:
            raise ConfigError(f"extended index set: {exc}") from exc
    elif args.box is not None:
        raise ConfigError("--box bounds the extended weight grid and needs --extended-index-set")
    try:
        gram = default_gram(spec, basis)
        sample = simulate_limit(spec, args.k, gram, args.draws, seed, extended=args.extended_index_set)
    except Exception as exc:
        raise LimitError(str(exc)) from exc
    tag = stable_hash({"spec": spec.to_dict(), "k": args.k, "draws": args.draws, "seed": seed, "index_set": index_set})
    header = f"config_hash={tag} seed={seed} index_set={json.dumps(index_set, separators=(',', ':'))}"
    sample.to_csv(_out_path(args, args.out), header_comment=header)
    stats = summarize(sample.values)
    print(
        f"limit sample k={args.k}: mean={stats.mean:.4f} "
        f"q95={stats.q95:.4f} draws={stats.count}"
    )
    return EXIT_OK


def cmd_check_h4(args) -> int:
    spec = _load(RegressionSpec, args.spec)
    try:
        gram = default_gram(spec)
        grams = {"gram": gram}
        if spec.input_dim <= 2:  # the quadrature Gram, cross-checked by Monte Carlo
            grams["mc_cross_check"] = gram_matrix(spec, GRAM_DRAWS, GRAM_SEED)
        reports = {name: {"method": g.method, **asdict(check_h4(g))} for name, g in grams.items()}
        if args.save_gram:
            save_gram(gram, _out_path(args, "gram"), spec)
    except Exception as exc:
        raise LimitError(str(exc)) from exc
    _write_json(_out_path(args, args.out), {"config_hash": stable_hash(spec.to_dict()), "reports": reports})
    for name, rep in reports.items():
        print(
            f"[{name}: {rep['method']}] min eigenvalue (scaled) = {rep['min_eigenvalue']:.3e} "
            f"-> {'PASS' if rep['passed'] else 'FAIL'}"
        )
    if not reports["gram"]["passed"]:  # the cross-check's verdict leaves the exit code alone
        raise LimitError("the spec's Gram fails the linear-independence certificate")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    spec = _load(RegressionSpec, args.spec)
    k = args.k if args.k is not None else spec.k0 + 1
    if k < spec.k0:
        raise ConfigError(f"--k {k} is below the spec's k0 = {spec.k0}")
    seed = args.seed if args.seed is not None else 0
    report = gradcheck(spec, k, n_draws=args.draws, seed=seed)
    report["config_hash"] = stable_hash(spec.to_dict())
    report["seed"] = seed
    _write_json(_out_path(args, args.out), report)
    print(
        f"gradcheck k={k} over {args.draws} draws: "
        f"max rel err first={report['max_rel_error_first']:.3e} "
        f"second={report['max_rel_error_second']:.3e}"
    )
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = _load(ExperimentConfig, args.config)
    if args.seed is not None:
        config.base_seed = args.seed
    try:
        summary = run_experiment(config, args.out_dir, threads=args.threads)
    except LimitError:
        raise
    except Exception as exc:
        raise FitError(str(exc)) from exc
    failed = summary["failed_cells"]
    print(f"experiment done: {failed} failed cells; outputs in {args.out_dir}")
    return EXIT_OK if failed == 0 else EXIT_FIT


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type of an integer >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


_COUNT, _SEED = _int_at_least(1), _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for output files")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=_SEED, default=None, help="override the configured seed")

    parser = argparse.ArgumentParser(prog="mlplr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[seeded], help="draw a dataset from a true-model spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--out", default="data.csv")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("fit", parents=[seeded], help="constrained MLE at one width")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=_COUNT, required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--fit-config", default=None)
    p.add_argument("--spec", default=None, help="spec JSON supplying sigma2")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--out", default="fit.json")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("lr", parents=[seeded], help="doubled LR statistic against the true model")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--fit-config", default=None)
    p.add_argument("--k", type=_COUNT, required=True)
    p.add_argument("--out", default="lr.json")
    p.set_defaults(fn=cmd_lr)

    p = sub.add_parser("select", parents=[seeded], help="penalized width selection")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--fit-config", default=None)
    p.add_argument("--k-max", type=_COUNT, required=True)
    p.add_argument("--schedule", default=None, help="schedule JSON (default: BIC-like)")
    p.add_argument("--out", default="select.json")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("limit", parents=[seeded], help="simulate the limiting LR distribution")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=_COUNT, required=True)
    p.add_argument("--draws", type=_COUNT, default=10_000)
    p.add_argument("--extended-index-set", action="store_true",
                   help="include free-unit phi terms on a weight grid")
    p.add_argument("--box", default=None, help="box JSON bounding the extended weight grid (needs --extended-index-set)")
    p.add_argument("--out", default="limit.csv")
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("check-h4", parents=[common], help="linear-independence certificate of the spec's Gram")
    p.add_argument("--spec", required=True)
    p.add_argument("--save-gram", action="store_true", help="write the certified Gram to gram.mat and gram.json")
    p.add_argument("--out", default="h4.json")
    p.set_defaults(fn=cmd_check_h4)

    p = sub.add_parser("gradcheck", parents=[seeded], help="finite-difference derivative check")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=_COUNT, default=None, help="fitted width (default k0+1)")
    p.add_argument("--draws", type=_COUNT, default=100)
    p.add_argument("--out", default="gradcheck.json")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("experiment", parents=[seeded], help="replicated LR/selection experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=_COUNT, default=1, help="worker processes for replicates")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT
    except LimitError as exc:
        print(f"limit-simulation failure: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
