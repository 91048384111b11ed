"""The scripts that no other test runs end as their docstrings say.  Each runs
as a child process in a temporary directory, importing the package from
``src``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(cwd: Path, name: str, *args: str, src: Path = ROOT / "src") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_end_to_end_script_passes_the_bound_check(tmp_path):
    proc = run_script(tmp_path, "run_end_to_end.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "recorded-run bound check: PASS"


def test_scale_point_script_runs_every_stage_within_the_bound(tmp_path):
    # six stages, each a child process of the script, one after another
    proc = run_script(tmp_path, "scale_point.py", "--m", "2000", "--workdir", str(tmp_path / "work"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines[1:7]] == [
        [stage, "exit=0"] for stage in ("baseline", "gen-data", "train", "eval", "train-ada", "eval-ens")
    ]
    assert [line.split()[0] for line in lines[7:] if "is within the bound" in line] == ["eval", "eval-ens"]


def test_scale_point_script_fails_when_its_stages_fail(tmp_path):
    # with the package missing every stage fails at import, far below the
    # memory bound, so only the exit codes can fail the run
    proc = run_script(tmp_path, "scale_point.py", "--m", "2000", "--workdir", str(tmp_path / "work"),
                      src=tmp_path / "missing")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    stages = ("baseline", "gen-data", "train", "eval", "train-ada", "eval-ens")
    assert [line.split()[:2] for line in lines[1:7]] == [[stage, "exit=1"] for stage in stages]
    assert lines[-6:] == [f"{stage} FAILED with exit code 1" for stage in stages]
