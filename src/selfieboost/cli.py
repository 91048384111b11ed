"""Experiment driver: dataset generation, training, evaluation, verification.

Exit codes are fixed for scriptability: 0 success, 1 verification failure,
2 I/O or malformed input, 3 degenerate data generation, 4 training stopped
because no acceptable candidate was found, 5 numeric abort, 64 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from dataclasses import astuple, dataclass, fields

from . import baselines, boost, data as data_mod, verify
from .boost import BoostConfig, IterationRecord, RetryPolicy, SgdParams
from .errors import (
    ConfigError,
    DatasetParseError,
    DegenerateTeacherError,
    ModelFormatError,
    NoWeakLearnerError,
    NumericError,
    SelfieBoostError,
    ShapeError,
    ValidationError,
)
from .nnet import ACTIVATIONS, NetworkArchitecture, net_from_dict, read_json, save_model

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_IO = 2
EXIT_DEGENERATE = 3
EXIT_BREAK = 4
EXIT_NUMERIC = 5
EXIT_USAGE = 64

# First match wins: the specific package errors are also ValueErrors or
# SelfieBoostErrors, so the catch-all rows come last.
_EXIT_CODES = (
    ((ConfigError, ValidationError), EXIT_USAGE),
    (DegenerateTeacherError, EXIT_DEGENERATE),
    (NumericError, EXIT_NUMERIC),
    (NoWeakLearnerError, EXIT_BREAK),
    ((OSError, SelfieBoostError), EXIT_IO),  # every other package error is bad input
    (ValueError, EXIT_USAGE),  # argument validation raised by library entry points
    (MemoryError, EXIT_USAGE),  # a size whose arrays cannot be allocated
)

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


# Every option that train takes both as a flag and from a config file, in
# --help order: (argparse dest, type or choices, config key, config section or
# None for the top level, help).  ``list`` marks the hidden widths: comma
# separated as a flag, a JSON list of integers in a file.  compare has no flag
# for out_model, metrics or algo, and ignores their keys in a config file.
_CONFIG_FLAGS = (
    ("data", str, "data_path", None, "dataset CSV path"),
    ("out_model", str, "out_model", None, "where to write the trained model"),
    ("metrics", str, "metrics_path", None, "where to write per-iteration metrics CSV"),
    ("algo", ALGOS, "algo", None, "training algorithm (default selfieboost)"),
    ("threads", int, "threads", None,
     "threads for SelfieBoost's full-dataset sweeps; AdaBoost's and plain SGD's run on one (default 1)"),
    ("seed", int, "seed", None, "master seed; all randomness derives from it (default 0)"),
    ("rho", float, "rho", None, "edge threshold in (0, 0.25) (default 0.1)"),
    ("T", int, "T", None, "max boosting iterations (default 50)"),
    ("n", int, "n", None, "working-set size (default 256, or m if smaller)"),
    ("init_scale", float, "init_scale", None, "init scale; 0 = the zero function (default 0)"),
    ("hidden", list, "hidden", None, "learner hidden widths, comma separated (default 32)"),
    ("activation", ACTIVATIONS, "activation", None, "hidden activation (default tanh)"),
    ("sgd_steps", int, "steps", "sgd", "inner SGD steps per attempt (default 500)"),
    ("lr", float, "lr", "sgd", "inner SGD learning rate (default 0.05)"),
    ("batch", int, "batch", "sgd", "inner SGD minibatch size (default 32)"),
    ("max_retries", int, "max_retries", "retry", "retries per iteration (default 5)"),
    ("sgd_growth", float, "sgd_growth", "retry", "step multiplier per retry (default 2)"),
    ("widen_units", int, "widen_units", "retry", "units added per retry (default 0)"),
    ("lr_shrink", float, "lr_shrink", "retry", "lr multiplier after clip violations (default 0.5)"),
)
_SECTIONS = ("sgd", "retry")
_NULLABLE = ("n", "out_model", "metrics_path")  # null means the default: BoostConfig.working_set_size, no file
_TYPE_NAMES = {int: "an integer", float: "a number", list: "a list of integers"}
# top-level keys that configure the run; all others configure BoostConfig
_RUN_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "boost")
_KEYS = {
    section: {key for _, _, key, where, _ in _CONFIG_FLAGS if where == section}
    for section in (None, *_SECTIONS)
}
_KEYS[None] |= set(_SECTIONS)


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _has_type(value, kind, nullable: bool = False) -> bool:
    """A JSON value fits a type column; a bool is never a number."""
    if value is None:
        return nullable
    if kind is list:
        return isinstance(value, list) and all(_has_type(v, int) for v in value)
    if kind is float:
        kind = (int, float)
    elif kind is not int:
        kind = str  # a path or one of the choices
    return isinstance(value, kind) and not isinstance(value, bool)


def load_config_file(path: str) -> dict:
    """Parse a config JSON document, rejecting any unknown key or wrongly typed value."""
    obj = read_json(path, ConfigError)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _reject_unknown(obj, _KEYS[None], "config")
    for section in _SECTIONS:
        if section in obj:
            if not isinstance(obj[section], dict):
                raise ConfigError(f"config key {section!r} must be an object")
            _reject_unknown(obj[section], _KEYS[section], section)
    for _, kind, key, section, _ in _CONFIG_FLAGS:
        values = obj.get(section, {}) if section else obj
        if key in values and not _has_type(values[key], kind, key in _NULLABLE):
            name = f"{section}.{key}" if section else key
            what = _TYPE_NAMES.get(kind, "a string")
            raise ConfigError(f"config key {name!r} must be {what}, got {values[key]!r}")
    return obj


def _build_experiment_config(args) -> ExperimentConfig:
    doc = load_config_file(args.config) if args.config else {}
    # flag overrides (only when the flag was actually given)
    for dest, kind, key, section, _ in _CONFIG_FLAGS:
        value = getattr(args, dest, None)  # compare has no train-only flags
        if value is not None:
            if kind is list:
                value = _parse_widths(value)
            (doc.setdefault(section, {}) if section else doc)[key] = value

    if "data_path" not in doc:
        raise ConfigError("a dataset is required (--data or config data_path)")
    run = {key: doc.pop(key) for key in _RUN_KEYS if key in doc}
    sgd, retry = doc.pop("sgd", {}), doc.pop("retry", {})
    return ExperimentConfig(
        **run, boost=BoostConfig(sgd=SgdParams(**sgd), retry=RetryPolicy(**retry), **doc)
    )


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


def _write_csv(path: str | None, header: str, rows) -> None:
    """Write ``header`` and ``rows`` to ``path``, or to stdout when no path is given.

    Floats keep full round-trip precision; every other value is written with ``str``.
    """
    with (
        open(path, "w", encoding="utf-8", newline="\n") if path
        else contextlib.nullcontext(sys.stdout)
    ) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def read_metrics_csv(path: str) -> list[IterationRecord]:
    """Parse a selfieboost metrics file by the line rule of :func:`data.read_rows`."""
    rows = data_mod.read_rows(path)
    if not rows or rows[0][1] != METRICS_HEADER:
        raise DatasetParseError(f"{path}: expected metrics header {METRICS_HEADER!r}")
    kinds = [int if f.type == "int" else float for f in fields(IterationRecord)]
    return [IterationRecord(*values) for values in data_mod.convert_rows(path, rows[1:], kinds)]


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
            _write_csv(cfg.metrics_path, METRICS_HEADER, map(astuple, result.records))
        if cfg.out_model:
            save_model(result.final_net, cfg.out_model)
        print(
            f"stop_reason={result.stop_reason} accepted={result.accepted_count} "
            f"final_err={_fmt(result.final_mistakes / dataset.m)}"
        )
        return EXIT_BREAK if result.stop_reason == boost.STOP_NO_CANDIDATE else EXIT_OK
    if cfg.algo == "adaboost":
        result = baselines.run_adaboost(dataset, cfg.boost)
        if cfg.metrics_path:
            rows = ((t, *astuple(rnd)) for t, rnd in enumerate(result.rounds, start=1))
            _write_csv(cfg.metrics_path, ADABOOST_HEADER, rows)
        if cfg.out_model:
            baselines.save_ensemble(result.model, cfg.out_model)
        # run_adaboost's last round scored the finished ensemble on the full set
        print(f"rounds={len(result.rounds)} final_err={_fmt(result.rounds[-1].ensemble_err)}")
        return EXIT_OK
    # plain sgd
    result = baselines.run_plain_sgd(dataset, cfg.boost)
    if cfg.metrics_path:
        _write_csv(cfg.metrics_path, SGD_HEADER, result.trajectory)
    if cfg.out_model:
        save_model(result.net, cfg.out_model)
    print(f"steps={cfg.boost.sgd.steps} final_err={_fmt(result.trajectory[-1][1])}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = data_mod.load_csv(args.data)
    obj = read_json(args.model)
    ensemble = isinstance(obj, dict) and "members" in obj
    try:
        model = baselines.ensemble_from_dict(obj) if ensemble else net_from_dict(obj)
    except (ModelFormatError, ShapeError) as exc:  # read_json's own errors name the file already
        raise type(exc)(f"{args.model}: {exc}") from exc
    dim = (model.members[0] if ensemble else model).architecture.input_dim
    if dim != dataset.d:
        raise ShapeError(f"model expects d={dim}, dataset has d={dataset.d}")
    if ensemble:
        e = baselines.ensemble_err(model, dataset)
        report = baselines.cost(model)
        print(
            f"err={_fmt(e)} mistakes={round(e * dataset.m)} "
            f"evals_per_prediction={report.network_evals_per_prediction} "
            f"params_evaluated={report.total_params_evaluated}"
        )
        return EXIT_OK
    cache = boost.margins(model, dataset)
    print(
        f"err={_fmt(cache.mistakes / dataset.m)} mistakes={cache.mistakes} "
        f"potential={_fmt(cache.potential)} evals_per_prediction=1 "
        f"params_evaluated={model.architecture.param_count}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = {"lse": verify.lse_suite, "lemma": verify.lemma_suite, "grad": verify.grad_suite}
    BoostConfig(rho=args.rho)  # a rho that train rejects raises its ConfigError here
    names = [*suites, *(["bound"] if args.metrics else [])] if args.suite == "all" else [args.suite]
    if "bound" in names:
        if not args.metrics or args.m is None:
            raise ConfigError("the bound suite needs --metrics and --m")
        if args.m < 1:
            raise ConfigError(f"--m must be >= 1, got {args.m}")
        records = read_metrics_csv(args.metrics)
        suites["bound"] = lambda seed: verify.bound_suite(records, args.m, args.rho)
    reports = [suites[name](seed=args.seed) for name in names]
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
    sb = boost.run_selfieboost(dataset, cfg.boost, threads=cfg.threads)
    sb_ms = (time.perf_counter() - t0) * 1000.0 if args.wall_clock else 0.0
    sb_err = sb.final_mistakes / dataset.m

    t0 = time.perf_counter()
    ada = baselines.run_adaboost(dataset, cfg.boost)
    ada_ms = (time.perf_counter() - t0) * 1000.0 if args.wall_clock else 0.0
    ada_err = ada.rounds[-1].ensemble_err
    ada_evals = baselines.cost(ada.model).network_evals_per_prediction

    _write_csv(args.out, COMPARE_HEADER, [
        ("selfieboost", sb_err, sb.accepted_count, 1, sb_ms),
        ("adaboost", ada_err, len(ada.model.members), ada_evals, ada_ms),
    ])
    return EXIT_BREAK if sb.stop_reason == boost.STOP_NO_CANDIDATE else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p: _Parser, skip: tuple[str, ...] = ()) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    for dest, kind, _, _, text in _CONFIG_FLAGS:
        if dest not in skip:
            p.add_argument(
                "--" + dest.replace("_", "-"), help=text,
                type=kind if kind in (int, float) else None,
                choices=kind if isinstance(kind, tuple) else None,
            )
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
    g.add_argument("--teacher-activation", choices=ACTIVATIONS, default="tanh")
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
    _add_config_flags(c, skip=("out_model", "metrics", "algo"))
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
    except (OSError, ValueError, SelfieBoostError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
