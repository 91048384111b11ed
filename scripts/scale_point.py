"""Run gen-data -> train -> eval, then an AdaBoost train and the eval of its
ensemble, at one dataset size and report each stage's wall time and peak RSS.

Each stage is a child ``python -m selfieboost`` process, and its peak RSS is
the ``ru_maxrss`` that ``os.wait4`` returns for it.  A first ``baseline``
stage only imports the package: the interpreter's own RSS.  The last lines
check both eval stages against the bound "feature matrix + 64 MiB above the
baseline" and name each stage whose exit code is not 0.  The script exits 0
if every stage exits 0 and both evals are within the bound, 1 otherwise.
Each stage's output goes to ``<stage>.log`` in the work directory; with no
directory given, a temporary one is used and removed (it holds the dataset
CSV, about 200 MB at m=1e6).

Usage: python scripts/scale_point.py [--m 1000000] [--workdir DIR]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MIB = 2**20
D = 10


def run_stage(workdir: Path, name: str, argv: list[str]) -> tuple[int, float, float]:
    """Run one child; return its exit code, wall seconds and peak RSS in MiB."""
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in paths if p))
    with open(workdir / f"{name}.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    # on Linux a child's ru_maxrss starts at the RSS of the process that spawned
    # it; this script imports no numpy, so that floor is below every stage
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MIB  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=1_000_000)
    parser.add_argument("--workdir", type=Path, help="keep the stage outputs here")
    args = parser.parse_args()

    cli = ["-m", "selfieboost"]
    stages = (
        ("baseline", ["-c", "import selfieboost.cli"]),
        ("gen-data", [*cli, "gen-data", "--m", str(args.m), "--d", str(D), "--seed", "42",
                      "--out", "data.csv", "--teacher-out", "teacher.json"]),
        ("train", [*cli, "train", "--data", "data.csv", "--out-model", "model.json",
                   "--metrics", "metrics.csv", "--T", "3", "--seed", "42"]),
        ("eval", [*cli, "eval", "--model", "teacher.json", "--data", "data.csv"]),
        ("train-ada", [*cli, "train", "--algo", "adaboost", "--data", "data.csv",
                       "--out-model", "ensemble.json", "--T", "5", "--hidden", "2", "--seed", "42"]),
        ("eval-ens", [*cli, "eval", "--model", "ensemble.json", "--data", "data.csv"]),
    )
    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir or Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        print(f"m={args.m} d={D}")
        peaks, failed = {}, []
        for name, argv in stages:
            code, wall, peaks[name] = run_stage(workdir, name, argv)
            print(f"{name:9s} exit={code} wall_s={wall:.2f} peak_rss_mib={peaks[name]:.1f}")
            if code:
                failed.append((name, code))
    bound = peaks["baseline"] + args.m * D * 8 / MIB + 64
    over = [name for name in ("eval", "eval-ens") if peaks[name] > bound]
    for name in ("eval", "eval-ens"):
        print(f"{name} peak {peaks[name]:.1f} MiB is {'OVER' if name in over else 'within'} the bound "
              f"{bound:.1f} MiB (baseline + feature matrix + 64 MiB)")
    for name, code in failed:
        print(f"{name} FAILED with exit code {code}")
    return 1 if over or failed else 0


if __name__ == "__main__":
    sys.exit(main())
