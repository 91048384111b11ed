"""End-to-end benchmark of the selfieboost CLI pipeline.

    python3 perfbench/run.py --workload reference [--seed 42] [--seconds 50] [--trace 0]

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each pipeline is a fresh Python process
(``perfbench/worker.py``) that imports ``selfieboost`` and calls
``selfieboost.cli.main(argv)`` once per stage: ``gen-data`` -> ``train`` ->
``eval``.  Pipelines repeat back to back (a closed loop, one client) until
``--seconds`` have passed, and at least once.

``--trace 0`` reports the end-to-end metrics: medians over the run's
pipelines.  ``--trace 1`` alternates an untraced and a traced pipeline and
reports the per-layer metrics of the traced ones (``tracing.py``, raw span
times), plus the tracing overhead.  Every pipeline's outputs are checked,
and the sha256 of every file it writes must be the same in every pipeline of
the run.

The CPU speed of a shared host drifts by up to 1.6x within seconds to
minutes; on a 2-vCPU VM that moved the median of a whole 30 s run by over
25%.  So a small calibration kernel that shares no code with the package
(``worker.calibrate``) runs in the workload process right before and after
every timed step, and each end-to-end time is reported at nominal machine
speed: its wall time times ``CALIBRATION_S`` over the mean of the two
calibrations around it (rates are divided by the same factor).  The raw wall
times go to the result file.  This tracks steps of a few seconds well; it
cannot follow speed changes inside a 30 s step, which is why ``large_m`` is
not among the workloads ``BENCHMARK.json`` declares (run it by hand).

The pipeline instance is fixed: ``gen-data`` and ``train`` always get seed
42, the acceptance gate's run.  The amount of work depends on that seed far
more than on any code change (over seeds 1-12 the reference ``train`` takes
0.9 to 9.2 s, and AdaBoost stops after 12 to 50 rounds), so a per-seed
instance would make every timing too noisy to bound.  ``--seed`` sets the
workload processes' hash seed (``PYTHONHASHSEED``): a run is reproducible
from its seed, and an output that depended on hash order would show up as
a digest mismatch between runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(environment, samples, digests, checks) goes to
``.perfbench_work/results/``.  Exit code 2 means the checkout has no
``src/selfieboost`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, layer_metrics, median_metrics, nesting_errors  # noqa: E402
from worker import CALIBRATION_S  # noqa: E402

INSTANCE_SEED = 42
SETUP_PROBES = 7  # import-only processes per run, on top of one per pipeline
TIME_LIMIT_S = 170.0  # start no pipeline that could end after this
OUTPUTS = ("data.csv", "teacher.json", "model.json", "metrics.csv")
STAGES = ("gen-data", "train", "eval")

_TRAIN = ("--hidden", "32", "--rho", "0.1", "--n", "256", "--lr", "0.05", "--batch", "32")


@dataclass(frozen=True)
class Workload:
    why: str
    gen: tuple[str, ...]
    train: tuple[str, ...]

    @property
    def boosts(self) -> bool:
        return "adaboost" not in self.train


WORKLOADS = {
    "reference": Workload(
        why="the README and acceptance-gate run: train is inner SGD on 32-row batches, "
        "bound by per-call overhead in the nnet small-batch path",
        gen=("--m", "2000", "--d", "10"),
        train=_TRAIN + ("--T", "50", "--sgd-steps", "500", "--threads", "1"),
    ),
    "large_m": Workload(
        why="the m=1e5 scale point: scalar realize, CSV I/O, full-dataset sweeps on 2 threads, "
        "alias builds and retry escalation outweigh inner SGD",
        gen=("--m", "100000", "--d", "10"),
        train=_TRAIN + ("--T", "5", "--sgd-steps", "200", "--threads", "2"),
    ),
    "ensemble": Workload(
        why="the AdaBoost baseline: public forward_batch/backprop_batch in hinge SGD, "
        "50 alias builds, and a 50-member ensemble that costs 50 evaluations per prediction",
        gen=("--m", "2000", "--d", "10", "--teacher-hidden", "8"),
        train=("--algo", "adaboost", "--hidden", "2", "--sgd-steps", "100", "--T", "50",
               "--n", "256", "--lr", "0.05", "--batch", "32"),
    ),
}

# name -> (unit, better); reported by --trace 0
END_TO_END = {
    "setup_s": ("s", "lower"),
    "gen_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "predict_rows_per_s": ("rows/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "evals_per_prediction": ("count", "lower"),
}


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _field(text: str, key: str):
    """Value of ``key=value`` in a stage's output, or None."""
    match = re.search(rf"(?:^|\s){re.escape(key)}=(\S+)", text)
    return match.group(1) if match else None


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def stage_argvs(w: Workload) -> list[list[str]]:
    train = list(w.train)
    if "--threads" in train:  # never more threads than this machine runs at once
        i = train.index("--threads") + 1
        train[i] = str(min(int(train[i]), _nproc()))
    return [
        ["gen-data", *w.gen, "--seed", str(INSTANCE_SEED), "--out", "data.csv",
         "--teacher-out", "teacher.json"],
        ["train", "--data", "data.csv", "--out-model", "model.json", "--metrics", "metrics.csv",
         "--seed", str(INSTANCE_SEED), *train],
        ["eval", "--model", "model.json", "--data", "data.csv"],
    ]


def verify_argv(w: Workload) -> list[str] | None:
    if not w.boosts:
        return None
    return ["verify", "--suite", "bound", "--metrics", "metrics.csv",
            "--m", _flag(w.gen, "--m"), "--rho", _flag(w.train, "--rho", "0.1")]


class Runner:
    """Starts workload processes one at a time and collects their records."""

    def __init__(self, seed: int, tag: str, work: Path = WORK):
        self.tag = tag
        self.work = work
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        PYTHONHASHSEED=str(seed % 2**32))
        self.started = time.monotonic()
        self.count = 0
        self.longest = 0.0

    def time_left(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, mode: str, **spec) -> tuple[dict | None, str]:
        """Run one worker; returns (record or None, stderr)."""
        self.count += 1
        name = f"{self.tag}-{self.count}"
        workspace = self.work / name
        spec.update(mode=mode, root=str(ROOT), workspace=str(workspace),
                    record=str(self.work / f"{name}.json"), run_id=name)
        t0 = spec["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                env=self.env, capture_output=True, text=True, timeout=max(1.0, self.time_left()),
            )
            stderr, ok = proc.stderr, proc.returncode == 0
        except subprocess.TimeoutExpired as exc:
            stderr, ok = f"timed out after {exc.timeout:.0f} s", False
        self.longest = max(self.longest, time.monotonic() - t0)
        record = None
        if ok:
            with open(spec["record"], encoding="utf-8") as fh:
                record = json.load(fh)
        shutil.rmtree(workspace, ignore_errors=True)
        Path(spec["record"]).unlink(missing_ok=True)
        return record, stderr

    def pipeline(self, w: Workload, trace: bool) -> tuple[dict | None, str]:
        predict = None if trace else {"model": "model.json", "data": "data.csv"}
        return self.spawn("pipeline", stages=stage_argvs(w), verify=verify_argv(w),
                          outputs=list(OUTPUTS), predict=predict, trace=trace)

    def room_for(self, processes: int) -> bool:
        return self.time_left() > 1.5 * processes * self.longest


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def check_pipeline(checks: Checks, w: Workload, record: dict | None, label: str) -> None:
    """Output checks of one pipeline; a stage that never ran counts as failed."""
    if record is None:
        checks(f"{label}: workload process completes", False)
        return
    for name in STAGES:
        checks(f"{label}: {name} exits 0", _stage(record, name).get("rc") == 0)
    out = {name: _stage(record, name).get("stdout", "") for name in STAGES}
    margin = _field(out["gen-data"], "min_margin")
    checks(f"{label}: gen-data min_margin >= 1", margin is not None and float(margin) >= 1.0)
    if w.boosts:
        checks(f"{label}: verify --suite bound passes", record.get("verify", {}).get("rc") == 0)
    train_err, eval_err = _field(out["train"], "final_err"), _field(out["eval"], "err")
    checks(f"{label}: train final_err equals eval err",
           train_err is not None and eval_err is not None and float(train_err) == float(eval_err))
    if not w.boosts:
        rounds, evals = _field(out["train"], "rounds"), _field(out["eval"], "evals_per_prediction")
        checks(f"{label}: evals_per_prediction equals rounds", rounds is not None and rounds == evals)


def check_run(checks: Checks, records: list[dict | None]) -> None:
    """Every pipeline of the run writes byte-identical files."""
    done = [r for r in records if r is not None]
    for i, record in enumerate(done[1:], start=2):
        checks(f"pipeline {i}: digests equal pipeline 1", record["digests"] == done[0]["digests"])
    for i, record in enumerate(done, start=1):
        if "trace" in record:
            checks(f"pipeline {i}: tracing wrappers restored", record["trace"]["restored"] is True)
            checks(f"pipeline {i}: spans nest inside their parents",
                   not nesting_errors(record["trace"]["spans"]))


def _stage(record: dict, name: str) -> dict:
    """The named stage of a pipeline record; empty if it never ran."""
    return next((s for s in record["stages"] if s["name"] == name), {})


def _speed(calibration) -> float:
    """How much faster than nominal the machine ran around a timed step."""
    return CALIBRATION_S / statistics.fmean(calibration)


def _stage_s(record: dict, name: str) -> float:
    stage = _stage(record, name)
    return stage["s"] * _speed(stage["cal"])


def _pipeline_s(record: dict) -> float:
    return sum(_stage_s(record, name) for name in STAGES)


def _predict_rate(predict: dict) -> float:
    rates, cal = predict["rows_per_s"], predict["cal"]
    return statistics.median(rate / _speed(cal[i : i + 2]) for i, rate in enumerate(rates))


def end_to_end(records: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    """Medians over the run's pipelines at nominal machine speed, and the
    samples behind them."""
    samples = {
        "setup_s": [p["setup_s"] * _speed([p["setup_cal"]]) for p in probes + records],
        "gen_s": [_stage_s(r, "gen-data") for r in records],
        "train_s": [_stage_s(r, "train") for r in records],
        "eval_s": [_stage_s(r, "eval") for r in records],
        "pipeline_s": [_pipeline_s(r) for r in records],
        "predict_rows_per_s": [_predict_rate(r["predict"]) for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "evals_per_prediction": [
            int(_field(_stage(r, "eval")["stdout"], "evals_per_prediction")) for r in records
        ],
    }
    return {name: statistics.median(vals) for name, vals in samples.items()}, samples


def wall_times(records: list[dict], probes: list[dict]) -> dict:
    """The unscaled samples, kept in the result file next to the scaled ones."""
    return {
        "setup_s": [p["setup_s"] for p in probes + records],
        "gen_s": [_stage(r, "gen-data")["s"] for r in records],
        "train_s": [_stage(r, "train")["s"] for r in records],
        "eval_s": [_stage(r, "eval")["s"] for r in records],
        "pipeline_s": [sum(s["s"] for s in r["stages"]) for r in records],
        "predict_rows_per_s": [statistics.median(r["predict"]["rows_per_s"]) for r in records],
    }


def traced_layers(traced: list[dict], untraced: list[dict]) -> dict:
    per_pipeline = []
    for record in traced:
        gen_out = record["stages"][0]["stdout"]
        per_pipeline.append(layer_metrics(
            record["trace"], [f"cli.{name}" for name in STAGES],
            realize_rows=int(_field(gen_out, "m")), realize_rejected=int(_field(gen_out, "rejected")),
        ))
    values = median_metrics(per_pipeline)
    values["trace.overhead_s"] = (
        statistics.median(_pipeline_s(r) for r in traced)
        - statistics.median(_pipeline_s(r) for r in untraced)
    )
    return values


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=INSTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "selfieboost" / "__init__.py").is_file():
        print(f"error: no src/selfieboost under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runner = Runner(args.seed, tag)
    deadline = time.monotonic() + args.seconds
    WORK.mkdir(exist_ok=True)

    untraced: list[dict | None] = []
    traced: list[dict | None] = []
    errors: list[str] = []
    probes = [runner.spawn("setup")[0] for _ in range(SETUP_PROBES)]
    if any(p is None for p in probes):
        print("error: the package does not import from src/", file=sys.stderr)
        return 2
    while not untraced or (time.monotonic() < deadline and runner.room_for(1 + args.trace)):
        for trace, bucket in ((False, untraced), (True, traced))[: 1 + args.trace]:
            record, stderr = runner.pipeline(w, trace)
            bucket.append(record)
            if record is None:
                errors.append(stderr.strip())

    checks = Checks()
    for i, record in enumerate(untraced, start=1):
        check_pipeline(checks, w, record, f"pipeline {i}")
    for i, record in enumerate(traced, start=1):
        check_pipeline(checks, w, record, f"traced pipeline {i}")
    check_run(checks, untraced + traced)

    good = [r for r in untraced if r is not None and "predict" in r]
    good_traced = [r for r in traced if r is not None and "trace" in r]
    metrics, samples, wall = {}, {}, {}
    if args.trace and good and good_traced:
        values = traced_layers(good_traced, good)
        metrics = {name: {"value": values[name], "unit": LAYER_METRICS[name][0]} for name in LAYER_METRICS}
    elif not args.trace and good:
        values, samples = end_to_end(good, probes)
        wall = wall_times(good, probes)
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    if not metrics:
        checks("at least one pipeline completes", False)

    env = {
        "commit": _git_commit(ROOT),
        "source_sha256": _source_sha256(ROOT),
        "python": platform.python_version(),
        "numpy": probes[0]["numpy"],
        "nproc": _nproc(),
        "OPENBLAS_NUM_THREADS": runner.env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": runner.env["OMP_NUM_THREADS"],
        "PYTHONHASHSEED": runner.env["PYTHONHASHSEED"],
    }
    digests = next((r["digests"] for r in untraced + traced if r is not None), {})
    result = {
        "workload": args.workload, "why": w.why, "seed": args.seed, "instance_seed": INSTANCE_SEED,
        "trace": args.trace, "seconds": args.seconds, "wall_s": time.monotonic() - runner.started,
        "stages": stage_argvs(w), "env": env,
        "pipelines": len(untraced), "traced_pipelines": len(traced),
        "checks": {"attempted": checks.attempted, "failed": checks.failed},
        "digests": digests, "samples": samples, "wall_samples": wall, "metrics": metrics,
        "errors": errors,
        "absent": sorted({a for r in good_traced for a in r["trace"]["absent"]}),
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"{tag}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: {w.why}")
    print(f"seed {args.seed} (instance seed {INSTANCE_SEED}), trace {args.trace}, "
          f"{len(untraced)} pipelines" + (f" + {len(traced)} traced" if args.trace else ""))
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, sha in digests.items():
        print(f"sha256 {name} {sha}")
    for name, metric in metrics.items():
        n = len(samples.get(name, ())) or len(good_traced)
        raw = f"; wall {statistics.median(wall[name]):.6g}" if name in wall else ""
        print(f"{name:<40} {metric['value']!r:>24} {metric['unit']} (median of {n}{raw})")
    for line in checks.failed + errors:
        print(f"FAILED {line}")
    print(f"checks: {checks.attempted - len(checks.failed)}/{checks.attempted} passed; "
          f"full result in {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
