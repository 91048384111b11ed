"""A tier-1 subset of ``scripts/check_digests.py``: the README run's
``gen-data``, ``train``, ``verify`` and ``eval``, the hinge SGD runs of the
``ensemble`` workload and of ``--algo sgd``, the runs whose SGD blows up, and
the linear runs on one feature must write the bytes that
``scripts/digests.txt`` records for them.  The full script stays a step of
every change; this catches a changed output bit without it."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

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
    # a linear net on one feature: the input layer's one-column rows enter
    # the backward pass as copies, in SelfieBoost and in plain SGD
    assert_committed_bytes(tmp_path, monkeypatch, ("gen1", "lin1", "linsgd1"), [], 9)
