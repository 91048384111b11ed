"""A tier-1 subset of ``scripts/check_digests.py``: the README run's
``gen-data``, ``train`` and ``eval`` must write the bytes that
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


def test_the_readme_run_writes_the_committed_bytes(tmp_path, monkeypatch):
    header, *lines = (ROOT / "scripts" / "digests.txt").read_text().splitlines()
    if header != check_digests.environment():
        pytest.skip(f"the digests were recorded under {header!r}")
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    commands = dict(check_digests.COMMANDS)
    for name in ("gen", "train"):
        check_digests.run(tmp_path, name, commands[name].split())
    check_digests.run(tmp_path, "eval-model", ["eval", "--model", "model.json", "--data", "data.csv"])
    expected = {line.split()[1]: line for line in lines}
    got = sorted(f"sha256 {p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}" for p in tmp_path.iterdir())
    assert len(got) == 7
    assert got == sorted(expected[line.split()[1]] for line in got)
