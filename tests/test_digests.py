"""A tier-1 subset of ``scripts/check_digests.py``: the README run's
``gen-data``, ``train``, ``verify`` and ``eval``, a relu run that starts at
``--init-scale 0.5``, the hinge SGD runs of the ``ensemble`` workload and of
``--algo sgd``, the runs whose SGD blows up, and the linear runs on one
feature must write the bytes that ``scripts/digests.txt`` records for them.
The full script stays a step of every change; this catches a changed output
bit without it.  And the script evaluates every model file it writes."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from selfieboost.boost import BoostConfig
from selfieboost.nnet import save_model

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("check_digests", ROOT / "scripts" / "check_digests.py")
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)


def assert_committed_bytes(workdir, monkeypatch, names, evals, files):
    """Run the ``check_digests`` commands ``names`` and the evals of the
    ``(model, data)`` pairs in ``evals`` in ``workdir``; its ``files`` files
    must equal their lines in ``scripts/digests.txt``."""
    header, *lines = (ROOT / "scripts" / "digests.txt").read_text().splitlines()
    if header != check_digests.environment():
        pytest.skip(f"the digests were recorded under {header!r}")
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    commands = dict(check_digests.COMMANDS)
    for name in names:
        check_digests.run(workdir, name, commands[name].split())
    for model, data in evals:
        check_digests.run(workdir, f"eval-{Path(model).stem}", ["eval", "--model", model, "--data", data])
    expected = {line.split()[1]: line for line in lines}
    got = sorted(f"sha256 {p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}" for p in workdir.iterdir())
    assert len(got) == files
    assert got == sorted(expected[line.split()[1]] for line in got)


def test_the_readme_run_writes_the_committed_bytes(tmp_path, monkeypatch):
    # verify's grad suite line pins the gradient-checked backward pass
    assert_committed_bytes(tmp_path, monkeypatch, ("gen", "train", "verify"), [("model.json", "data.csv")], 8)


def test_the_scaled_start_writes_the_committed_bytes(tmp_path, monkeypatch):
    # the relu run accepts no candidate, so its model is its initial net at
    # --init-scale 0.5; the README run pins the start at scale 0
    assert_committed_bytes(tmp_path, monkeypatch, ("gen", "relu"), [("relu.json", "data.csv")], 7)
    start = BoostConfig(seed=42, init_scale=0.5, hidden=(70, 9), activation="relu").initial_net(10)
    save_model(start, tmp_path / "start.json")
    assert (tmp_path / "start.json").read_bytes() == (tmp_path / "relu.json").read_bytes()


def test_the_widening_run_writes_the_committed_bytes(tmp_path, monkeypatch):
    # hidden 16 widened by 4 units at a time on two threads, adopting nets of
    # 28 to 84 units: widths 4 mod 8 take pad columns, 16 and 40 none
    assert_committed_bytes(tmp_path, monkeypatch, ("gen", "widen"), [("widen.json", "data.csv")], 7)


def test_the_hinge_sgd_runs_write_the_committed_bytes(tmp_path, monkeypatch):
    # hidden 2 (the ensemble workload) and hidden 32, whose first layer is
    # wider than its input
    assert_committed_bytes(
        tmp_path, monkeypatch, ("gen", "gen8", "ada8", "sgd"),
        [("ens8.json", "data8.csv"), ("sgd.json", "data.csv")], 14,
    )


def test_the_sgd_blow_up_runs_write_the_committed_bytes(tmp_path, monkeypatch):
    # SelfieBoost attempts that end in NumericError mid-loop and retry, and
    # both baselines' blow-ups (exit 5, no model and no metrics file)
    assert_committed_bytes(
        tmp_path, monkeypatch, ("numgen", "num", "sgdnum", "adanum"), [("num.json", "numdata.csv")], 9,
    )


def test_the_one_feature_runs_write_the_committed_bytes(tmp_path, monkeypatch):
    # a linear net on one feature: the input layer reads an unpadded
    # one-column buffer, in SelfieBoost and in plain SGD
    assert_committed_bytes(tmp_path, monkeypatch, ("gen1", "lin1", "linsgd1"), [], 9)


def test_every_model_file_the_script_writes_is_evaluated():
    # a model or teacher file that a command names is either evaluated or,
    # as its absence from digests.txt shows, never written
    recorded = {line.split()[1] for line in (ROOT / "scripts" / "digests.txt").read_text().splitlines()[1:]}
    named = set()
    for _, command in (*check_digests.SPLIT_COMMANDS, *check_digests.COMMANDS, *check_digests.LATE_COMMANDS):
        words = command.split()
        named.update(words[k + 1] for k, word in enumerate(words) if word in ("--out-model", "--teacher-out"))
    evaluated = {model for model, _ in check_digests.EVALS}
    assert evaluated <= named & recorded
    unwritten = {"growinf.json", "sgdnum.json", "adanum.json", "ovf.json", "teachercap.json"}  # exit 64, 5, 5, 5, 3
    assert named - evaluated == named - recorded == unwritten
