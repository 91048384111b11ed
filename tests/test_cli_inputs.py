"""Malformed inputs end with their documented exit code and one ``error:`` line,
and the bound suite reads the initial potential from the metrics file and
fails records that do not chain."""

import json
import math
import subprocess
import sys

import pytest

from selfieboost.cli import (
    EXIT_BREAK, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, METRICS_HEADER, main,
)

TINY_CSV = "f0,f1,label\n0.5,1.0,1\n-0.5,-1.0,-1\n1.5,0.25,1\n"


def assert_one_error_line(err: str) -> None:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


ONE_MEMBER = '"members":[{"format_version":1,"activation":"tanh","dims":[2,1],"layers":[{"w":[[1.0,0.0]],"b":[0.0]}]}]'
HUGE = "1" + "0" * 400  # an integer literal beyond the float64 range
MODEL = '{"format_version":%s,"activation":"tanh","dims":[2,1],"layers":[{"w":[[%s,0.0]],"b":[0.0]}]}'


@pytest.mark.parametrize("doc, text", [
    ('{"format_version":1,"alphas":[],"members":[]}', "ensemble has no members"),
    ('{"format_version":1,"alphas":[null],' + ONE_MEMBER + "}", "alpha 0 must be a finite number"),
    ('{"format_version":1,"alphas":["x"],' + ONE_MEMBER + "}", "alpha 0 must be a finite number"),
    ('{"format_version":1,"alphas":[true],' + ONE_MEMBER + "}", "alpha 0 must be a finite number"),
    ('{"format_version":1,"alphas":[NaN],' + ONE_MEMBER + "}", "alpha 0 must be a finite number"),
    ('{"format_version":1,"alphas":[1.0],"members":[' + MODEL % (1, HUGE) + "]}",
     "member 0: layer 0: non-numeric entries"),
    (MODEL % (1, HUGE), "layer 0: non-numeric entries"),
    ('{"format_version":true,"alphas":[1.0],' + ONE_MEMBER + "}", "unsupported format_version True"),
    (MODEL % ("true", 1.0), "unsupported format_version True"),
    (MODEL % (1, '"1.5"'), "layer 0: entries must be JSON numbers"),
    (MODEL.replace('"b":[0.0]', '"b":[true]') % (1, 1.0), "layer 0: entries must be JSON numbers"),
    (MODEL.replace('"dims":[2,1]', '"dims":[2,true]') % (1, 1.0), "bad field 'dims'"),
    ('{"format_version":1,"alphas":[1.0],"members":[' + MODEL % (1, '"1.5"') + "]}",
     "member 0: layer 0: entries must be JSON numbers"),
    (MODEL.replace('"b":[0.0]', '"b":' + "[" * 900 + "0.0" + "]" * 900) % (1, 1.0),
     "layer 0: non-numeric entries"),
    ("[1]", "model must be a JSON object"),
    (MODEL.replace('"tanh"', '"sigmoid"') % (1, 1.0), "bad architecture"),
    (MODEL.replace('"dims":[2,1]', '"dims":[2,3,1]') % (1, 1.0), "field 'layers' must hold 2 entries"),
    ('{"format_version":1,"activation":"tanh","dims":[2,1],"layers":[5]}', "layer 0 must be an object"),
    ('{"format_version":1,"alphas":[1.0,2.0],' + ONE_MEMBER + "}", "fields 'alphas' and 'members'"),
    ('{"format_version":1,"alphas":[1.0,2.0],"members":[' + MODEL % (1, 1.0) + ","
     + MODEL.replace('"dims":[2,1]', '"dims":[3,1]').replace("0.0]]", "0.0,0.0]]") % (1, 1.0) + "]}",
     "ensemble members disagree on input dimension"),
    ('{"format_version":1,"alphas":[1.0,2.0],"members":[' + MODEL % (1, 1.0) + ","
     + MODEL % (1, '"1.5"') + "]}", "member 1: layer 0: entries must be JSON numbers"),
    (MODEL % (1, "NaN"), "layer 0 has non-finite parameters"),
    ('{"format_version":1,"alphas":[1.0],"members":[' + MODEL.replace('"b":[0.0]', '"b":[Infinity]') % (1, 1.0)
     + "]}", "member 0: layer 0 has non-finite parameters"),
], ids=[
    "empty", "null", "string", "bool", "nan",
    "member-overflow", "model-overflow", "ensemble-version-bool", "model-version-bool",
    "model-string-weight", "model-bool-bias", "model-bool-dims", "member-string-weight",
    "model-deep-bias", "model-list", "model-activation", "model-layer-count",
    "model-layer-not-object", "ensemble-alpha-count", "ensemble-input-widths",
    "second-member-string-weight", "model-nan-weight", "member-infinite-bias",
])
def test_empty_ensemble_is_malformed_input(tmp_path, capsys, doc, text):
    # a format error names the file, and an ensemble's member error the member
    (tmp_path / "d.csv").write_text(TINY_CSV)
    (tmp_path / "ens.json").write_text(doc)
    code = main(["eval", "--model", str(tmp_path / "ens.json"), "--data", str(tmp_path / "d.csv")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {tmp_path / 'ens.json'}: {text}")


DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON parser's recursion limit


@pytest.mark.parametrize("kind, doc, code, text", [
    ("model", MODEL.replace('"b":[0.0]', '"b":' + DEEP) % (1, 1.0), EXIT_IO, "JSON nested too deeply"),
    ("ensemble", '{"format_version":1,"alphas":[1.0],"members":' + DEEP + "}", EXIT_IO, "JSON nested too deeply"),
    ("config", '{"hidden":' + DEEP + "}", EXIT_USAGE, "JSON nested too deeply"),
    ("model", (MODEL % (1, 1.0))[:40], EXIT_IO, "invalid JSON at line 1 column "),
    ("ensemble", '{"format_version":1,"alphas":[1.0],' + ONE_MEMBER[:30], EXIT_IO, "invalid JSON at line 1 column "),
    ("config", '{"T": 1,\n "hidden": [4', EXIT_USAGE, "invalid JSON at line 2 column "),
], ids=["model", "ensemble", "config", "model-cut-off", "ensemble-cut-off", "config-cut-off"])
def test_too_deeply_nested_json_is_malformed_input(tmp_path, capsys, kind, doc, code, text):
    # the error line names the file, whichever kind it is
    (tmp_path / "d.csv").write_text(TINY_CSV)
    (tmp_path / "doc.json").write_text(doc)
    if kind == "config":
        argv = ["train", "--config", str(tmp_path / "doc.json")]
    else:
        argv = ["eval", "--model", str(tmp_path / "doc.json"), "--data", str(tmp_path / "d.csv")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {tmp_path / 'doc.json'}: {text}")


@pytest.mark.parametrize("kind", ["train-data", "eval-data", "model", "ensemble", "config"])
def test_non_utf8_input_file_is_malformed_input_naming_it(tmp_path, capsys, kind):
    # a config file is a usage error, as every other bad config is
    data, model, config = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "c.json"
    data.write_text(TINY_CSV)
    model.write_text('{"format_version":1,"alphas":[1.0],' + ONE_MEMBER + "}" if kind == "ensemble"
                     else MODEL % (1, 1.0))
    config.write_text(json.dumps({"data_path": str(data), "sgd": {"lr": 1.0}}))
    bad = {"train-data": data, "eval-data": data, "config": config}.get(kind, model)
    bad.write_bytes(bad.read_bytes().replace(b"1.0", b"1\xff.0", 1))
    if kind in ("train-data", "config"):
        argv = ["train", "--data", str(data), "--T", "1", "--hidden", "4"]
        argv += ["--config", str(config)] if kind == "config" else []
    else:
        argv = ["eval", "--model", str(model), "--data", str(data)]
    assert main(argv) == (EXIT_USAGE if kind == "config" else EXIT_IO)
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in err


def test_compare_rejects_train_only_flags(tmp_path, capsys):
    (tmp_path / "d.csv").write_text(TINY_CSV)
    argv = ["compare", "--data", str(tmp_path / "d.csv"), "--T", "1", "--metrics", str(tmp_path / "x.csv")]
    assert main(argv) == EXIT_USAGE
    assert "--metrics" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_feature_is_malformed_input(tmp_path, capsys, command, bad):
    data = tmp_path / "d.csv"
    data.write_text(TINY_CSV.replace("-1.0,-1", f"{bad},-1"))
    model = tmp_path / "teacher.json"
    assert main([
        "gen-data", "--m", "5", "--d", "2", "--seed", "1",
        "--out", str(tmp_path / "g.csv"), "--teacher-out", str(model),
    ]) == EXIT_OK
    capsys.readouterr()
    if command == "train":
        argv = ["train", "--data", str(data), "--T", "1", "--hidden", "4"]
    else:
        argv = ["eval", "--model", str(model), "--data", str(data)]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "row 3" in err


@pytest.mark.parametrize("text, line", [
    ("f0,f1,label\n0.5,1.0,1\n\n1.5,0.25,1\nabc,1.0,1\n", 5),
    ("\nf0,f1,label\n0.5,1.0,1\n\n\n1.5,0.25,0\n", 6),
    ("f0,f1,label\n\n0.5,1.0,1\n1.5,1\n", 4),
    ("f0,f1,label\n\n0.5,1.0,1\n\nnan,1.0,1\n", 5),
], ids=["value", "label", "fields", "non-finite"])
def test_bad_row_after_blank_line_names_its_line(tmp_path, capsys, text, line):
    # blank lines are skipped but still counted
    (tmp_path / "d.csv").write_text(text)
    assert main(["train", "--data", str(tmp_path / "d.csv"), "--T", "1", "--hidden", "4"]) == EXIT_IO
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"row {line}:" in err or f"row {line} has" in err


@pytest.mark.parametrize("entry", [
    {"threads": "2"},
    {"hidden": "32"},
    {"hidden": [2.7]},
    {"seed": 1.5},
    {"threads": 1.5},
    {"n": 2.5},
    {"retry": {"widen_units": 1.5}},
    {"retry": {"max_retries": 1.5}},
    {"T": True},
    {"seed": None},
    {"sgd": {"lr": math.nan}},  # json writes and reads NaN and Infinity
    {"retry": {"sgd_growth": math.inf}},
    {"init_scale": math.inf},
    {"sgd": 5},
    {"algo": "foo"},
], ids=[
    "threads-string", "hidden-string", "hidden-float", "seed-float", "threads-float",
    "n-float", "widen_units-float", "max_retries-float", "T-bool", "seed-null",
    "lr-nan", "sgd_growth-inf", "init_scale-inf", "sgd-not-object", "algo-unknown",
])
def test_wrongly_typed_config_value_is_usage_error(tmp_path, capsys, entry):
    (tmp_path / "d.csv").write_text(TINY_CSV)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data_path": str(tmp_path / "d.csv"), **entry}))
    assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("config, flags, text", [
    ("[1]", [], "c.json: config must be a JSON object"),
    ('{"T": 1}', [], "a dataset is required"),
    (None, ["--hidden", "4,x"], "bad width list '4,x'"),
    (None, ["--threads", "0"], "threads must be >= 1"),
    (None, ["--sgd-steps", "-1"], "sgd.steps must be >= 0"),
    (None, ["--batch", "0"], "sgd.batch must be >= 1"),
    (None, ["--max-retries", "-1"], "retry.max_retries must be >= 0"),
    (None, ["--widen-units", "-1"], "retry.widen_units must be >= 0"),
], ids=["not-an-object", "no-dataset", "hidden-not-integer", "threads-0", "sgd-steps-negative",
        "batch-0", "max-retries-negative", "widen-units-negative"])
def test_bad_config_or_option_is_usage_error_before_work(tmp_path, capsys, monkeypatch, config, flags, text):
    (tmp_path / "d.csv").write_text(TINY_CSV)
    monkeypatch.chdir(tmp_path)
    if config is None:
        flags = ["--data", "d.csv", *flags]
    else:
        (tmp_path / "c.json").write_text(config)
        flags = ["--config", "c.json", *flags]
    assert main(["train", "--T", "1", "--metrics", "m.csv", *flags]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert_one_error_line(err)
    assert text in err and out == "" and not (tmp_path / "m.csv").exists()


def test_misnamed_feature_column_is_malformed_input(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text(TINY_CSV.replace("f0,f1,label", "g0,g1,label"))
    assert main(["train", "--data", str(data), "--T", "1", "--hidden", "4"]) == EXIT_IO
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"{data}: bad header 'g0,g1,label'" in err


def test_widening_without_hidden_layer_is_rejected_before_work(tmp_path, capsys):
    (tmp_path / "d.csv").write_text(TINY_CSV)
    metrics = tmp_path / "m.csv"
    code = main(["train", "--data", str(tmp_path / "d.csv"), "--metrics", str(metrics),
                 "--hidden", "", "--widen-units", "4", "--T", "3", "--sgd-steps", "1"])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert_one_error_line(err)
    assert "widen_units" in err and out == "" and not metrics.exists()


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would reach stderr
@pytest.mark.parametrize("algo", [["sgd"], ["adaboost", "--T", "5"]], ids=["sgd", "adaboost"])
def test_baseline_sgd_blow_up_is_numeric_error(tmp_path, capsys, algo):
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    assert main([
        "gen-data", "--m", "300", "--d", "5", "--teacher-hidden", "8", "--seed", "3",
        "--out", str(data), "--teacher-out", str(tmp_path / "t.json"),
    ]) == EXIT_OK
    capsys.readouterr()
    code = main(["train", "--algo", *algo, "--data", str(data), "--out-model", str(model),
                 "--hidden", "8,8", "--activation", "relu", "--init-scale", "1",
                 "--sgd-steps", "200", "--lr", "1e50", "--seed", "1"])
    assert code == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert_one_error_line(err)
    assert out == "" and not model.exists()


def test_bound_suite_rejects_m_below_one(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(METRICS_HEADER + "\n")
    code = main(["verify", "--suite", "bound", "--metrics", str(metrics), "--m", "0"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "--m" in err


GOOD_ROW = "1,-0.2,0.5,0.25,0.5,5,0,500,32,0.0"


@pytest.mark.parametrize("text, where", [
    ("t,edge\n", "header"),
    (METRICS_HEADER + "\n1,-0.2,0.5\n", "row 2 has"),
    (METRICS_HEADER + "\n1,x,0.5,0.25,0.5,5,0,500,32,0.0\n", "row 2:"),
    (METRICS_HEADER + "\n" + GOOD_ROW + "\n\n\n" + GOOD_ROW.replace("-0.2", "x") + "\n", "row 5:"),
    (f"{METRICS_HEADER}\n{GOOD_ROW}\n".encode().replace(b"-0.2", b"-0.2\xff"), "metrics.csv: 'utf-8'"),
    (f"{METRICS_HEADER}\n{GOOD_ROW}\n \n{GOOD_ROW}\n", "row 3 has 1 fields"),
    (f"{METRICS_HEADER} \n{GOOD_ROW}\n", "expected metrics header"),
], ids=["header", "field-count", "non-numeric", "after-blank-lines", "non-utf8",
        "whitespace-line", "header-with-space"])
def test_malformed_metrics_csv_is_malformed_input(tmp_path, capsys, text, where):
    # empty lines are skipped but still counted; a whitespace-only line is a
    # row, as in a dataset file
    metrics = tmp_path / "metrics.csv"
    metrics.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main(["verify", "--suite", "bound", "--metrics", str(metrics), "--m", "10"])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert where in err


@pytest.mark.parametrize("rho", ["-1", "0", "0.25", "nan"])
def test_bound_suite_rejects_a_rho_that_train_rejects(tmp_path, capsys, rho):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(METRICS_HEADER + "\n" + GOOD_ROW + "\n")
    code = main(["verify", "--suite", "bound", "--metrics", str(metrics), "--m", "10", "--rho", rho])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert_one_error_line(err)
    assert "rho" in err and out == ""


def test_bound_suite_starts_from_recorded_potential(tmp_path, capsys):
    # a start above log m: 95 mistakes exceed exp(log 100 - 0.1) but not
    # exp(potential_before - 0.1)
    before = math.log(100) + 2.0
    row = [1, -0.2, before, before - 0.25, 0.95, 95, 0, 500, 32, 0.0]
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(METRICS_HEADER + "\n" + ",".join(repr(v) for v in row) + "\n")
    code = main(["verify", "--suite", "bound", "--metrics", str(metrics),
                 "--m", "100", "--rho", "0.1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "PASS" in out


@pytest.mark.parametrize("second", [
    "7,-0.5,4.0,3.5,0.01,1,0,500,32,0.0",
    "2,-0.5,9.0,4.2,0.01,1,0,500,32,0.0",
    "7,-0.5,9.0,4.2,0.01,1,0,500,32,0.0",
], ids=["t-jump", "potential-gap", "both"])
def test_bound_suite_fails_records_that_do_not_chain(tmp_path, capsys, second):
    # each row alone drops the potential by more than rho and |edge|
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(f"{METRICS_HEADER}\n1,-0.5,{math.log(100)!r},4.0,0.1,10,0,500,32,0.0\n{second}\n")
    code = main(["verify", "--suite", "bound", "--metrics", str(metrics), "--m", "100", "--rho", "0.1"])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFY_FAIL and out.startswith("bound        2 ") and out.endswith(" FAIL\n")


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would reach stderr
def test_overflowing_model_is_numeric_error(tmp_path, capsys):
    # finite weights whose scores overflow on the third row
    (tmp_path / "d.csv").write_text(TINY_CSV)
    (tmp_path / "m.json").write_text(MODEL.replace('"b":[0.0]', '"b":[1e308]') % (1, "1e308"))
    code = main(["eval", "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "d.csv")])
    assert code == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert_one_error_line(err)
    assert out == ""


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would reach stderr
def test_overflowing_margin_shift_in_training_is_numeric_error(tmp_path, capsys):
    # the 1e308 feature makes the first candidate's margin shift overflow in edge
    (tmp_path / "d.csv").write_text("f0,f1,label\n1e308,1.0,1\n-1.5,1.0,-1\n0.5,-2,1\n")
    code = main(["train", "--data", str(tmp_path / "d.csv"), "--out-model", str(tmp_path / "m.json"),
                 "--hidden", "4", "--T", "2", "--seed", "1", "--activation", "relu"])
    assert code == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert_one_error_line(err)
    assert out == ""


def test_margins_beyond_the_float_range_print_no_warning(tmp_path):
    # scores +-1.5e308 are finite, but exp(-margin) of the larger margin
    # normalises through -inf to weight 0: nothing reaches stderr
    (tmp_path / "d.csv").write_text("f0,f1,label\n1.5,1.0,1\n-1.5,-1.0,1\n")
    (tmp_path / "m.json").write_text(MODEL % (1, "1e308"))
    proc = subprocess.run(
        [sys.executable, "-m", "selfieboost", "eval",
         "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "d.csv")],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == "err=0.5 mistakes=1 potential=1.5e+308 evals_per_prediction=1 params_evaluated=3\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag, key", [
    ("--lr", "sgd.lr"), ("--sgd-growth", "sgd_growth"), ("--init-scale", "init_scale"),
], ids=["lr", "sgd-growth", "init-scale"])
def test_non_finite_option_is_usage_error_before_work(tmp_path, capsys, flag, key, value):
    (tmp_path / "d.csv").write_text(TINY_CSV)
    metrics = tmp_path / "m.csv"
    code = main(["train", "--data", str(tmp_path / "d.csv"), "--metrics", str(metrics),
                 "--hidden", "4", "--T", "3", flag, value])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert_one_error_line(err)
    assert key in err and out == "" and not metrics.exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "1e-320"])
def test_non_finite_tau_is_usage_error_before_work(tmp_path, capsys, tau):
    code = main(["gen-data", "--m", "5", "--d", "2", "--seed", "1", "--tau", tau,
                 "--out", str(tmp_path / "d.csv"), "--teacher-out", str(tmp_path / "t.json")])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert_one_error_line(err)
    assert "tau" in err and out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("steps, growth", [("2", "1e308"), ("2", "5e16"), ("3", "1e300")],
                         ids=["inf", "too-many-bytes", "too-many-picks"])
def test_sgd_growth_beyond_one_array_finds_no_candidate(tmp_path, capsys, steps, growth):
    # the first attempt is rejected; the grown budget's steps * batch picks are
    # inf, or finite but more than one numpy array can hold: at 5e16 there are
    # fewer picks than the largest intp, but not 8 bytes each
    data, model, metrics = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "m.csv"
    assert main(["gen-data", "--m", "2000", "--d", "10", "--seed", "42",
                 "--out", str(data), "--teacher-out", str(tmp_path / "t.json")]) == EXIT_OK
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--out-model", str(model), "--metrics", str(metrics),
                 "--T", "1", "--sgd-steps", steps, "--max-retries", "1", "--sgd-growth", growth,
                 "--seed", "42"])
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_BREAK, "")
    assert "stop_reason=no_candidate_found" in out
    assert model.exists() and metrics.read_text() == METRICS_HEADER + "\n"


# each request is larger than the 128 TiB user address space, so it fails at
# allocation under any overcommit setting and touches no memory; the last two
# are more bytes than one numpy array can address
TRAIN = ["train", "--data", "d.csv", "--out-model", "m.json", "--metrics", "m.csv"]


@pytest.mark.parametrize("argv, named, text", [
    (TRAIN + ["--sgd-steps", "1000000000000000"], "--sgd-steps", "Unable to allocate"),
    (TRAIN + ["--n", "100000000000000000"], "--n", "Unable to allocate"),
    (["gen-data", "--m", "1000000000000000", "--d", "10", "--seed", "1", "--out", "g.csv", "--teacher-out", "t.json"],
     "--m, --d", "Unable to allocate"),
    (["gen-data", "--m", "10", "--d", "100000000000000", "--seed", "1", "--out", "g.csv", "--teacher-out", "t.json"],
     "--d, --teacher-hidden", "Unable to allocate"),
    (TRAIN + ["--sgd-steps", "300000000000000000"], "--sgd-steps", "Maximum allowed size exceeded"),
    (TRAIN + ["--batch", "100000000000000000"], "--batch", "array is too big"),
], ids=["sgd-steps", "n", "gen-m", "gen-d", "sgd-steps-size", "batch"])
def test_an_allocation_beyond_memory_is_usage_error(tmp_path, capsys, monkeypatch, argv, named, text):
    (tmp_path / "d.csv").write_text(TINY_CSV)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {named}: ") and text in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]
