"""Experiment driver: dataset generation, training, evaluation, verification.

Exit codes are fixed for scriptability: 0 success, 1 verification failure,
2 I/O or malformed input, 3 degenerate data generation, 4 training stopped
because no acceptable candidate was found, 5 numeric abort, 64 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

from . import baselines, boost, data as data_mod, verify
from .boost import BoostConfig, IterationRecord, RetryPolicy, SgdParams, TrainResult
from .errors import (
    ConfigError,
    DegenerateTeacherError,
    NoWeakLearnerError,
    NumericError,
    SelfieBoostError,
    ShapeError,
    ValidationError,
)
from .nnet import NetworkArchitecture, net_from_dict, read_json, save_model

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_IO = 2
EXIT_DEGENERATE = 3
EXIT_BREAK = 4
EXIT_NUMERIC = 5
EXIT_USAGE = 64

METRICS_HEADER = (
    "t,edge,potential_before,potential_after,train_err,mistakes,"
    "retries,sgd_steps,widened_to,wall_ms"
)
ADABOOST_HEADER = "t,eps,alpha,ensemble_err"
SGD_HEADER = "step,train_err"
COMPARE_HEADER = "algo,final_train_err,boost_iters,network_evals_per_prediction,total_wall_ms"

ALGOS = ("selfieboost", "adaboost", "sgd")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str
    boost: BoostConfig
    algo: str = "selfieboost"
    out_model: str | None = None
    metrics_path: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


# Every flag that may also come from a config file:
# (argparse dest, config key, config section or None for the top level).
_CONFIG_FLAGS = (
    ("algo", "algo", None),
    ("data", "data_path", None),
    ("out_model", "out_model", None),
    ("metrics", "metrics_path", None),
    ("threads", "threads", None),
    ("seed", "seed", None),
    ("rho", "rho", None),
    ("T", "T", None),
    ("n", "n", None),
    ("init_scale", "init_scale", None),
    ("hidden", "hidden", None),
    ("activation", "activation", None),
    ("sgd_steps", "steps", "sgd"),
    ("lr", "lr", "sgd"),
    ("batch", "batch", "sgd"),
    ("max_retries", "max_retries", "retry"),
    ("sgd_growth", "sgd_growth", "retry"),
    ("widen_units", "widen_units", "retry"),
    ("lr_shrink", "lr_shrink", "retry"),
)
_SECTIONS = ("sgd", "retry")
# top-level keys that configure the run; all others configure BoostConfig
_RUN_KEYS = ("algo", "data_path", "out_model", "metrics_path", "threads")
_KEYS = {
    section: {key for _, key, where in _CONFIG_FLAGS if where == section}
    for section in (None, *_SECTIONS)
}
_KEYS[None] |= set(_SECTIONS)


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def load_config_file(path: str) -> dict:
    """Parse a config JSON document, rejecting any unknown key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _reject_unknown(obj, _KEYS[None], "config")
    for section in _SECTIONS:
        if section in obj:
            if not isinstance(obj[section], dict):
                raise ConfigError(f"config key {section!r} must be an object")
            _reject_unknown(obj[section], _KEYS[section], section)
    return obj


def _build_experiment_config(args) -> ExperimentConfig:
    doc: dict = {}
    if getattr(args, "config", None):
        doc = load_config_file(args.config)
    # flag overrides (only when the flag was actually given)
    for dest, key, section in _CONFIG_FLAGS:
        value = getattr(args, dest)
        if value is not None:
            if dest == "hidden":
                value = _parse_widths(value)
            (doc.setdefault(section, {}) if section else doc)[key] = value

    if "data_path" not in doc:
        raise ConfigError("a dataset is required (--data or config data_path)")
    run = {key: doc.pop(key) for key in _RUN_KEYS if key in doc}
    sgd, retry = doc.pop("sgd", {}), doc.pop("retry", {})
    try:
        return ExperimentConfig(
            **run, boost=BoostConfig(sgd=SgdParams(**sgd), retry=RetryPolicy(**retry), **doc)
        )
    except TypeError as exc:
        raise ConfigError(f"config value of the wrong type: {exc}") from exc


def _parse_widths(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad width list {text!r}: {exc}") from exc


def _fmt(value: float) -> str:
    return repr(float(value))


def write_metrics_csv(path: str, result: TrainResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in result.records:
            fh.write(
                f"{r.t},{_fmt(r.edge)},{_fmt(r.potential_before)},{_fmt(r.potential_after)},"
                f"{_fmt(r.train_err)},{r.mistakes},{r.retries_used},{r.sgd_steps_used},"
                f"{r.widened_to},{_fmt(r.wall_ms)}\n"
            )


def read_metrics_csv(path: str) -> list[IterationRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != METRICS_HEADER:
        raise ValidationError(f"{path}: expected metrics header {METRICS_HEADER!r}")
    records = []
    for row, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 10:
            raise ValidationError(f"{path}: row {row} has {len(parts)} fields, expected 10")
        try:
            records.append(
                IterationRecord(
                    t=int(parts[0]), edge=float(parts[1]),
                    potential_before=float(parts[2]), potential_after=float(parts[3]),
                    train_err=float(parts[4]), mistakes=int(parts[5]),
                    retries_used=int(parts[6]), sgd_steps_used=int(parts[7]),
                    widened_to=int(parts[8]), wall_ms=float(parts[9]),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row}: {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    arch = NetworkArchitecture(args.d, _parse_widths(args.teacher_hidden), args.teacher_activation)
    dataset, teacher = data_mod.gen_realizable(args.m, args.d, arch, args.tau, args.seed)
    data_mod.save_csv(dataset, args.out)
    save_model(teacher, args.teacher_out)
    prov = dataset.provenance
    print(
        f"m={dataset.m} d={dataset.d} min_margin={prov.margin_floor!r} rejected={prov.rejected}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _build_experiment_config(args)
    dataset = data_mod.load_csv(cfg.data_path)
    if cfg.algo == "selfieboost":
        result = boost.run_selfieboost(
            dataset, cfg.boost, threads=cfg.threads, measure_time=args.wall_clock
        )
        if cfg.metrics_path:
            write_metrics_csv(cfg.metrics_path, result)
        if cfg.out_model:
            save_model(result.final_net, cfg.out_model)
        final_err = boost.err(result.final_net, dataset)
        print(
            f"stop_reason={result.stop_reason} accepted={result.accepted_count} "
            f"final_err={_fmt(final_err)}"
        )
        return EXIT_BREAK if result.stop_reason == boost.STOP_NO_CANDIDATE else EXIT_OK
    if cfg.algo == "adaboost":
        weak = _weak_config(cfg.boost)
        result = baselines.run_adaboost(dataset, weak, cfg.boost.T, cfg.boost.seed)
        if cfg.metrics_path:
            with open(cfg.metrics_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(ADABOOST_HEADER + "\n")
                for t, rnd in enumerate(result.rounds, start=1):
                    fh.write(f"{t},{_fmt(rnd.eps)},{_fmt(rnd.alpha)},{_fmt(rnd.ensemble_err)}\n")
        if cfg.out_model:
            baselines.save_ensemble(result.model, cfg.out_model)
        final_err = baselines.ensemble_err(result.model, dataset)
        print(f"rounds={len(result.rounds)} final_err={_fmt(final_err)}")
        return EXIT_OK
    # plain sgd
    arch = NetworkArchitecture(dataset.d, cfg.boost.hidden, cfg.boost.activation)
    result = baselines.run_plain_sgd(
        dataset, arch, cfg.boost.sgd.steps, cfg.boost.sgd.lr, cfg.boost.seed,
        batch=cfg.boost.sgd.batch, init_scale=cfg.boost.init_scale,
    )
    if cfg.metrics_path:
        with open(cfg.metrics_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(SGD_HEADER + "\n")
            for step, train_err in result.trajectory:
                fh.write(f"{step},{_fmt(train_err)}\n")
    if cfg.out_model:
        save_model(result.net, cfg.out_model)
    print(f"steps={cfg.boost.sgd.steps} final_err={_fmt(result.trajectory[-1][1])}")
    return EXIT_OK


def _weak_config(cfg: BoostConfig) -> baselines.WeakLearnerConfig:
    """Weak learners get the same architecture and per-round SGD budget.

    They are always randomly initialized: ``init_scale`` describes the
    boosting start, and a zero net cannot be trained by backprop at all.
    """
    return baselines.WeakLearnerConfig(
        hidden=cfg.hidden,
        activation=cfg.activation,
        steps=cfg.sgd.steps,
        lr=cfg.sgd.lr,
        batch=cfg.sgd.batch,
        init_scale=1.0,
        n=cfg.n,
    )


def cmd_eval(args) -> int:
    dataset = data_mod.load_csv(args.data)
    obj = read_json(args.model)
    if isinstance(obj, dict) and "members" in obj:
        model = baselines.ensemble_from_dict(obj)
        dim = model.members[0].architecture.input_dim
        if dim != dataset.d:
            raise ShapeError(f"model expects d={dim}, dataset has d={dataset.d}")
        e = baselines.ensemble_err(model, dataset)
        report = baselines.cost(model)
        print(
            f"err={_fmt(e)} mistakes={round(e * dataset.m)} "
            f"evals_per_prediction={report.network_evals_per_prediction} "
            f"params_evaluated={report.total_params_evaluated}"
        )
        return EXIT_OK
    net = net_from_dict(obj)
    if net.architecture.input_dim != dataset.d:
        raise ShapeError(
            f"model expects d={net.architecture.input_dim}, dataset has d={dataset.d}"
        )
    cache = boost.margins(net, dataset)
    n_wrong = boost.mistakes_from_margins(cache.margins)
    print(
        f"err={_fmt(n_wrong / dataset.m)} mistakes={n_wrong} "
        f"potential={_fmt(cache.potential)} evals_per_prediction=1 "
        f"params_evaluated={net.param_count}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = ["lse", "lemma", "grad"] + (["bound"] if args.metrics else [])
    else:
        names = [args.suite]
    bound_args = None
    if "bound" in names:
        if not args.metrics or args.m is None:
            raise ConfigError("the bound suite needs --metrics and --m")
        records = read_metrics_csv(args.metrics)
        # the first record's potential_before is the initial net's potential
        initial = records[0].potential_before if records else math.log(args.m)
        bound_args = (records, args.m, initial, args.rho)
    reports = verify.run_suites(names, seed=args.seed, bound_args=bound_args)
    all_ok = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name:<6} {rep.instances:>7} {rep.worst_deficit: .3e} {status}")
        all_ok &= rep.passed
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_compare(args) -> int:
    cfg = _build_experiment_config(args)
    dataset = data_mod.load_csv(cfg.data_path)

    t0 = time.perf_counter()
    sb = boost.run_selfieboost(dataset, cfg.boost, threads=cfg.threads, measure_time=args.wall_clock)
    sb_ms = (time.perf_counter() - t0) * 1000.0 if args.wall_clock else 0.0
    sb_err = boost.err(sb.final_net, dataset)

    t0 = time.perf_counter()
    ada = baselines.run_adaboost(dataset, _weak_config(cfg.boost), cfg.boost.T, cfg.boost.seed)
    ada_ms = (time.perf_counter() - t0) * 1000.0 if args.wall_clock else 0.0
    ada_err = baselines.ensemble_err(ada.model, dataset)
    ada_cost = baselines.cost(ada.model)

    lines = [
        COMPARE_HEADER,
        f"selfieboost,{_fmt(sb_err)},{sb.accepted_count},1,{_fmt(sb_ms)}",
        f"adaboost,{_fmt(ada_err)},{len(ada.model.members)},"
        f"{ada_cost.network_evals_per_prediction},{_fmt(ada_ms)}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--data", help="dataset CSV path")
    p.add_argument("--out-model", help="where to write the trained model")
    p.add_argument("--metrics", help="where to write per-iteration metrics CSV")
    p.add_argument("--algo", choices=ALGOS, help="training algorithm (default selfieboost)")
    p.add_argument("--threads", type=int, help="threads for full-dataset sweeps (default 1)")
    p.add_argument("--seed", type=int, help="master seed; all randomness derives from it (default 0)")
    p.add_argument("--rho", type=float, help="edge threshold in (0, 0.25) (default 0.1)")
    p.add_argument("--T", type=int, help="max boosting iterations (default 50)")
    p.add_argument("--n", type=int, help="working-set size (default min(m, 256))")
    p.add_argument("--init-scale", type=float, help="init scale; 0 = zero net (default 0)")
    p.add_argument("--hidden", help="learner hidden widths, comma separated (default 32)")
    p.add_argument("--activation", choices=("tanh", "relu"), help="hidden activation (default tanh)")
    p.add_argument("--sgd-steps", type=int, help="inner SGD steps per attempt (default 500)")
    p.add_argument("--lr", type=float, help="inner SGD learning rate (default 0.05)")
    p.add_argument("--batch", type=int, help="inner SGD minibatch size (default 32)")
    p.add_argument("--max-retries", type=int, help="retries per iteration (default 5)")
    p.add_argument("--sgd-growth", type=float, help="step multiplier per retry (default 2)")
    p.add_argument("--widen-units", type=int, help="units added per retry (default 0)")
    p.add_argument("--lr-shrink", type=float, help="lr multiplier after clip violations (default 0.5)")
    p.add_argument(
        "--wall-clock", action="store_true",
        help="record real wall times (makes outputs non-reproducible byte-for-byte)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="selfieboost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen-data", help="generate a teacher-realizable dataset")
    g.add_argument("--m", type=int, required=True, help="number of examples")
    g.add_argument("--d", type=int, required=True, help="feature dimension")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True, help="dataset CSV to write")
    g.add_argument("--teacher-out", required=True, help="teacher model JSON to write")
    g.add_argument("--tau", type=float, default=0.1, help="teacher rejection dead zone (default 0.1)")
    g.add_argument("--teacher-hidden", default="4", help="teacher hidden widths (default 4)")
    g.add_argument("--teacher-activation", choices=("tanh", "relu"), default="tanh")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model and write metrics")
    _add_config_flags(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a model file on a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run the proof-apparatus verification suites")
    v.add_argument("--suite", choices=("all", "lse", "lemma", "grad", "bound"), default="all")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--metrics", help="metrics CSV for the bound suite")
    v.add_argument("--m", type=int, help="dataset size behind the metrics file")
    v.add_argument("--rho", type=float, default=0.1)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("compare", help="selfieboost vs adaboost on one dataset and budget")
    _add_config_flags(c)
    c.add_argument("--out", help="write the comparison CSV here instead of stdout")
    c.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateTeacherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NoWeakLearnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BREAK
    except (OSError, SelfieBoostError) as exc:  # every other package error is bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # argument validation raised by library entry points
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
