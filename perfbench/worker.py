"""One workload process: import the package, then run the CLI stages.

Started by ``run.py`` with a JSON spec as its only argument; writes a JSON
record to ``spec["record"]`` and exits.  Each stage is one call of
``selfieboost.cli.main(argv)`` inside the workspace directory.  With
``spec["trace"]`` the stages run with the boundary spans of ``tracing.py``
installed, and the wrappers are removed again before anything else runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

PREDICT_MIN_S = 0.3  # score the dataset at least this long ...
PREDICT_MIN_REPS = 5  # ... in at least this many repetitions, then take the median rate
PREDICT_REP_S = 0.05  # a repetition scores the dataset as often as fits in this time
CALIBRATION_S = 0.02  # what calibrate() takes when the machine runs at nominal speed


def _kernel(rounds: int) -> None:
    import numpy as np

    a, m = np.ones((32, 2)), np.ones((1, 3, 2))
    for _ in range(rounds):
        np.tanh(a[:, :1] * 0.5)
        float((a[:, None, :] * m).sum(axis=2)[0, 0])


def calibrate() -> float:
    """Seconds taken by a fixed piece of small-array numpy work.

    On a shared host the CPU speed a process gets can drift by up to 1.6x
    within seconds (seen on a 2-vCPU VM).  This kernel shares no code with
    the package, so no change to the package can move it; it moves only with
    the machine.  It runs in the same thread right before and after each
    timed step, and ``run.py`` scales the step by ``CALIBRATION_S`` over it.
    """
    _kernel(100)  # warm-up
    start = time.perf_counter()
    _kernel(1500)
    return time.perf_counter() - start


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _run_cli(cli, argv, tracer=None) -> dict:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call("cli." + argv[0], cli.main, argv)
    return {"name": argv[0], "rc": rc, "s": time.perf_counter() - start, "stdout": out.getvalue()}


def _predict(spec: dict) -> dict:
    """Rows scored per second, single-threaded, as ``eval`` scores them, per
    repetition; repetition ``i`` lies between calibrations ``i`` and ``i + 1``."""
    from selfieboost import baselines, data, nnet

    dataset = data.load_csv(spec["data"])
    with open(spec["model"], "r", encoding="utf-8") as fh:
        is_ensemble = "members" in json.load(fh)
    if is_ensemble:
        score, model = baselines.ensemble_predict_batch, baselines.load_ensemble(spec["model"])
    else:
        score, model = nnet.forward_batch, nnet.load_model(spec["model"])
    rates, cal, spent = [], [calibrate()], 0.0
    while len(rates) < PREDICT_MIN_REPS or spent < PREDICT_MIN_S:
        start, scored, elapsed = time.perf_counter(), 0, 0.0
        while elapsed < PREDICT_REP_S:
            score(model, dataset.features)
            scored += dataset.m
            elapsed = time.perf_counter() - start
        spent += elapsed
        rates.append(scored / elapsed)
        cal.append(calibrate())
    return {"rows_per_s": rates, "cal": cal}


def run_pipeline(spec: dict, cli, calibration: float) -> dict:
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    stages = []
    try:
        for argv in spec["stages"]:
            stage = _run_cli(cli, argv, tracer)
            stage["cal"] = [calibration, calibrate()]
            calibration = stage["cal"][1]
            stages.append(stage)
            if stage["rc"] != 0:
                break
    finally:
        restored = tracer.restore() if tracer else None
    record = {
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": {
            name: _sha256(name) for name in spec["outputs"] if os.path.exists(name)
        },
    }
    ok = len(stages) == len(spec["stages"]) and stages[-1]["rc"] == 0
    if ok and spec["verify"]:
        record["verify"] = _run_cli(cli, spec["verify"])
    if ok and spec["predict"]:
        record["predict"] = _predict(spec["predict"])
    if tracer:
        record["trace"] = dict(tracer.dump(), restored=restored)
    return record


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy
    import selfieboost
    from selfieboost import cli

    origin = os.path.realpath(selfieboost.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        print(f"selfieboost imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(spec["workspace"])
    os.chdir(spec["workspace"])
    record = {
        "setup_s": time.monotonic() - spec["spawned"],
        "setup_cal": calibrate(),
        "numpy": numpy.__version__,
    }
    if spec["mode"] == "pipeline":
        record.update(run_pipeline(spec, cli, record["setup_cal"]))
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
