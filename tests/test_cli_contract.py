"""The CLI contract: every option means the same as a flag and in a config
file, each default that ``train --help`` names is the config's, metrics files
read back exactly, each exit-code row is reachable through ``main``, and the
README's config example is accepted."""

import json
import re
from pathlib import Path

from selfieboost.boost import BoostConfig, SgdParams, run_selfieboost
from selfieboost.cli import _CONFIG_FLAGS, EXIT_BREAK, EXIT_OK, ExperimentConfig, main, read_metrics_csv
from selfieboost.data import load_csv

README = Path(__file__).resolve().parents[1] / "README.md"

# argparse dest -> (flag value, config section or None, config key, config value)
ALL_OPTIONS = {
    "algo": ("selfieboost", None, "algo", "selfieboost"),
    "data": (None, None, "data_path", None),  # filled in per test
    "out_model": (None, None, "out_model", None),
    "metrics": (None, None, "metrics_path", None),
    "threads": ("2", None, "threads", 2),
    "seed": ("5", None, "seed", 5),
    "rho": ("0.15", None, "rho", 0.15),
    "T": ("4", None, "T", 4),
    "n": ("40", None, "n", 40),
    "init_scale": ("0.5", None, "init_scale", 0.5),
    "hidden": ("8", None, "hidden", [8]),
    "activation": ("relu", None, "activation", "relu"),
    "sgd_steps": ("200", "sgd", "steps", 200),
    "lr": ("0.1", "sgd", "lr", 0.1),
    "batch": ("8", "sgd", "batch", 8),
    "max_retries": ("2", "retry", "max_retries", 2),
    "sgd_growth": ("1.5", "retry", "sgd_growth", 1.5),
    "widen_units": ("2", "retry", "widen_units", 2),
    "lr_shrink": ("0.25", "retry", "lr_shrink", 0.25),
}


def gen_data(tmp_path, m="60", d="3"):
    data = tmp_path / "data.csv"
    assert main(["gen-data", "--m", m, "--d", d, "--seed", "2", "--out", str(data),
                 "--teacher-out", str(tmp_path / "teacher.json")]) == EXIT_OK
    return data


def test_every_option_means_the_same_as_flag_and_in_config(tmp_path, capsys):
    assert {row[0] for row in _CONFIG_FLAGS} == set(ALL_OPTIONS)
    data = gen_data(tmp_path)
    capsys.readouterr()
    paths = {side: {"data": str(data), "out_model": str(tmp_path / f"{side}.json"),
                    "metrics": str(tmp_path / f"{side}.csv")} for side in ("flag", "file")}
    argv, doc = ["train"], {}
    for dest, (flag_value, section, key, config_value) in ALL_OPTIONS.items():
        argv += ["--" + dest.replace("_", "-"), paths["flag"].get(dest, flag_value)]
        (doc.setdefault(section, {}) if section else doc)[key] = paths["file"].get(
            dest, config_value
        )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(argv) == main(["train", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0] == out[1]
    for suffix in (".json", ".csv"):
        flag_bytes = (tmp_path / f"flag{suffix}").read_bytes()
        assert flag_bytes == (tmp_path / f"file{suffix}").read_bytes()
    assert len(read_metrics_csv(tmp_path / "flag.csv")) >= 1


def test_every_help_default_is_the_config_default(capsys):
    # each "(default ...)" of train --help, read from the printed help, is
    # the field default of the config that the option sets
    assert main(["train", "--help"]) == EXIT_OK
    entries = re.split(r"\n(?=  -)", capsys.readouterr().out.split("options:\n", 1)[1])
    helped = {}
    for entry in entries:
        found = re.search(r"\(default ([^)]*)\)$", " ".join(entry.split()))
        if found:
            helped[entry.split()[0][2:].replace("-", "_")] = found.group(1)
    assert sorted(helped) == sorted(row[0] for row in _CONFIG_FLAGS if "(default " in row[4])
    run = ExperimentConfig(data_path="data.csv", boost=BoostConfig())
    for dest, _, key, section, _ in _CONFIG_FLAGS:
        if dest not in helped:
            continue
        if section:
            owner = getattr(run.boost, section)
        else:
            owner = run if hasattr(run, key) else run.boost
        default, text = getattr(owner, key), helped[dest]
        if dest == "n":  # None: the working-set size is min(m, cap)
            cap = int(text.split(",")[0])
            assert text == f"{cap}, or m if smaller"
            assert [run.boost.working_set_size(m) for m in (1, cap - 1, cap, cap + 1, 10 * cap)] == [
                1, cap - 1, cap, cap, cap]
        elif dest == "hidden":
            assert tuple(int(w) for w in text.split(",")) == default
        else:
            assert type(default)(text) == default, (dest, text, default)


def test_metrics_file_reads_back_as_the_run_records(tmp_path, capsys):
    data = gen_data(tmp_path, m="120", d="4")
    metrics = tmp_path / "metrics.csv"
    assert main(["train", "--data", str(data), "--metrics", str(metrics), "--T", "5", "--hidden",
                 "6", "--sgd-steps", "100", "--batch", "16", "--seed", "7"]) == EXIT_OK
    capsys.readouterr()
    cfg = BoostConfig(T=5, hidden=(6,), sgd=SgdParams(steps=100, batch=16), seed=7)
    records = run_selfieboost(load_csv(data), cfg).records
    assert records and read_metrics_csv(metrics) == list(records)


def test_no_weak_learner_exits_4(tmp_path, capsys):
    data = tmp_path / "two.csv"
    data.write_text("f0,label\n1.0,1\n-1.0,1\n")
    code = main(["train", "--algo", "adaboost", "--data", str(data),
                 "--hidden", "", "--sgd-steps", "0"])
    assert code == EXIT_BREAK
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_readme_config_example_is_accepted(tmp_path, monkeypatch, capsys):
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    doc = json.loads(block)
    doc["data_path"] = str(gen_data(tmp_path))
    doc["T"] = 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)  # the example writes model.json and metrics.csv
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / doc["out_model"]).exists() and (tmp_path / doc["metrics_path"]).exists()
    capsys.readouterr()
