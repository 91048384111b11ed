import json
import subprocess
import sys
import threading

import pytest

from selfieboost.cli import (
    EXIT_BREAK,
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    METRICS_HEADER,
    main,
    read_metrics_csv,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated dataset + teacher + one trained model, shared by read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main([
        "gen-data", "--m", "250", "--d", "5", "--seed", "11",
        "--out", str(root / "data.csv"), "--teacher-out", str(root / "teacher.json"),
        "--teacher-hidden", "3",
    ]) == EXIT_OK
    assert main(train_argv(root)) == EXIT_OK
    return root


def train_argv(root, metrics="metrics.csv", model="model.json", extra=()):
    return [
        "train", "--data", str(root / "data.csv"),
        "--out-model", str(root / model), "--metrics", str(root / metrics),
        "--T", "12", "--n", "128", "--hidden", "16",
        "--sgd-steps", "300", "--batch", "16", "--seed", "3",
        *extra,
    ]


class TestGenData:
    def test_outputs_exist(self, workdir):
        assert (workdir / "data.csv").exists()
        assert (workdir / "teacher.json").exists()

    def test_report_line(self, tmp_path, capsys):
        assert main([
            "gen-data", "--m", "60", "--d", "3", "--seed", "5",
            "--out", str(tmp_path / "d.csv"), "--teacher-out", str(tmp_path / "t.json"),
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "m=60" in out and "d=3" in out and "rejected=" in out
        floor = float(out.split("min_margin=")[1].split()[0])
        assert floor >= 1.0 - 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert main([
                "gen-data", "--m", "40", "--d", "3", "--seed", "9",
                "--out", str(tmp_path / sub / "d.csv"),
                "--teacher-out", str(tmp_path / sub / "t.json"),
            ]) == EXIT_OK
        assert (tmp_path / "a" / "d.csv").read_bytes() == (tmp_path / "b" / "d.csv").read_bytes()
        assert (tmp_path / "a" / "t.json").read_bytes() == (tmp_path / "b" / "t.json").read_bytes()

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["gen-data", "--m", "10", "--d", "2", "--seed", "0"]) == EXIT_USAGE
        capsys.readouterr()

    def test_degenerate_teacher_is_exit_3(self, tmp_path, capsys):
        code = main([
            "gen-data", "--m", "20", "--d", "2", "--seed", "0", "--tau", "1e6",
            "--out", str(tmp_path / "d.csv"), "--teacher-out", str(tmp_path / "t.json"),
        ])
        assert code == EXIT_DEGENERATE
        capsys.readouterr()


class TestTrain:
    def test_desk_run_reaches_zero_error(self, workdir, capsys):
        out = capsys.readouterr()  # drain fixture output
        records = read_metrics_csv(workdir / "metrics.csv")
        assert records, "expected at least one accepted iteration"
        assert records[-1].mistakes == 0

    def test_t_zero_writes_header_only(self, workdir, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        code = main([
            "train", "--data", str(workdir / "data.csv"),
            "--metrics", str(metrics), "--T", "0", "--hidden", "8",
        ])
        assert code == EXIT_OK
        assert metrics.read_text() == METRICS_HEADER + "\n"

    def test_out_of_range_rho_is_usage_error(self, workdir, capsys):
        code = main(train_argv(workdir, extra=["--rho", "0.3"]))
        assert code == EXIT_USAGE
        assert "rho" in capsys.readouterr().err

    def test_unknown_config_key_rejected_before_work(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_path": str(workdir / "data.csv"), "rho_typo": 0.1}))
        code = main(["train", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "rho_typo" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data_path": str(workdir / "data.csv"), "sgd": {"steps": 10, "momentum": 0.9},
        }))
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
        assert "momentum" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data_path": str(workdir / "data.csv"),
            "metrics_path": str(tmp_path / "m.csv"),
            "T": 0, "hidden": [8],
        }))
        assert main(["train", "--config", str(cfg), "--T", "0"]) == EXIT_OK
        assert (tmp_path / "m.csv").exists()
        capsys.readouterr()

    def test_hopeless_budget_breaks_with_exit_4(self, workdir, tmp_path, capsys):
        code = main([
            "train", "--data", str(workdir / "data.csv"),
            "--metrics", str(tmp_path / "m.csv"), "--T", "3", "--hidden", "16",
            "--sgd-steps", "1", "--lr", "1e-12", "--max-retries", "0",
        ])
        assert code == EXIT_BREAK
        assert "no_candidate_found" in capsys.readouterr().out

    def test_lr_shrunk_to_underflow_breaks_with_exit_4(self, tmp_path, capsys):
        data = str(tmp_path / "data.csv")
        assert main(["gen-data", "--m", "300", "--d", "5", "--seed", "3", "--out", data,
                     "--teacher-out", str(tmp_path / "teacher.json")]) == EXIT_OK
        # the first attempt violates the clip, and 0.4 * 5e-324 rounds to lr 0
        code = main([
            "train", "--data", data, "--out-model", str(tmp_path / "model.json"),
            "--metrics", str(tmp_path / "m.csv"), "--hidden", "8", "--T", "5", "--n", "64",
            "--lr", "0.4", "--lr-shrink", "5e-324",
        ])
        assert code == EXIT_BREAK
        out = capsys.readouterr().out
        assert out.endswith("stop_reason=no_candidate_found accepted=0 final_err=1.0\n")
        assert (tmp_path / "m.csv").read_text() == METRICS_HEADER + "\n"
        assert (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_final_err_comes_from_the_loops_last_sweep(
        self, workdir, tmp_path, monkeypatch, capsys, command
    ):
        from selfieboost import boost

        rows, edges = [], []
        forward_batch, edge = boost.forward_batch, boost.edge
        monkeypatch.setattr(boost, "forward_batch", lambda net, x, threads=1: (
            rows.append(len(x)) or forward_batch(net, x, threads)))
        monkeypatch.setattr(boost, "edge", lambda *a: edges.append(1) or edge(*a))
        out = ["--metrics" if command == "train" else "--out", str(tmp_path / "out.csv")]
        assert main([command, "--data", str(workdir / "data.csv"), *out, "--T", "3",
                     "--hidden", "16", "--sgd-steps", "300", "--batch", "16", "--seed", "3"]) == EXIT_OK
        # the initial net and each candidate are swept once; the final net is not re-scored
        assert rows == [250] * (1 + len(edges))
        capsys.readouterr()

    def test_a_thread_that_cannot_start_costs_speed_not_the_run(self, tmp_path, monkeypatch, capsys):
        # more rows than one 1024-row block, so a 2-thread sweep asks for a
        # second thread; every start fails, and no real thread starts
        assert main(["gen-data", "--m", "2100", "--d", "3", "--seed", "5", "--out", str(tmp_path / "d.csv"),
                     "--teacher-out", str(tmp_path / "t.json")]) == EXIT_OK
        starts = []

        def start(thread):
            starts.append(thread)
            raise RuntimeError("can't start new thread")

        def train(threads):
            model, metrics = tmp_path / f"model{threads}.json", tmp_path / f"metrics{threads}.csv"
            assert main(["train", "--data", str(tmp_path / "d.csv"), "--out-model", str(model),
                         "--metrics", str(metrics), "--T", "2", "--hidden", "4", "--sgd-steps", "50",
                         "--seed", "3", "--threads", threads]) == EXIT_OK
            return model.read_bytes(), metrics.read_bytes()

        expected = train("1")
        monkeypatch.setattr(threading.Thread, "start", start)
        assert train("2") == expected
        assert starts
        capsys.readouterr()

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"), "--T", "1"])
        assert code == EXIT_IO
        capsys.readouterr()

    def test_adaboost_zero_rounds_is_usage_error(self, workdir, capsys):
        code = main(["train", "--data", str(workdir / "data.csv"),
                     "--algo", "adaboost", "--T", "0"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_numeric_blowup_is_exit_5(self, workdir, tmp_path, capsys):
        code = main([
            "train", "--data", str(workdir / "data.csv"),
            "--metrics", str(tmp_path / "m.csv"), "--T", "1", "--hidden", "16",
            "--sgd-steps", "40", "--lr", "1e18", "--max-retries", "0",
        ])
        assert code == EXIT_NUMERIC
        capsys.readouterr()

    def test_adaboost_and_sgd_algos(self, workdir, tmp_path, capsys):
        # AdaBoost ignores --init-scale: its weak learners always start at scale 1
        outputs = []
        for scale in ("0", "0.5"):
            ens, ada = tmp_path / f"ens{scale}.json", tmp_path / f"ada{scale}.csv"
            code = main([
                "train", "--data", str(workdir / "data.csv"), "--algo", "adaboost",
                "--out-model", str(ens), "--metrics", str(ada), "--init-scale", scale,
                "--T", "3", "--hidden", "8", "--sgd-steps", "200", "--n", "64", "--seed", "2",
            ])
            assert code == EXIT_OK
            outputs.append((ens.read_bytes(), ada.read_bytes()))
        assert outputs[0] == outputs[1]
        assert (tmp_path / "ada0.csv").read_text().startswith("t,eps,alpha,ensemble_err\n")
        obj = json.loads((tmp_path / "ens0.json").read_text())
        assert "members" in obj and len(obj["members"]) >= 1

        code = main([
            "train", "--data", str(workdir / "data.csv"), "--algo", "sgd",
            "--out-model", str(tmp_path / "sgd.json"), "--metrics", str(tmp_path / "sgd.csv"),
            "--sgd-steps", "50", "--hidden", "8", "--seed", "2",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "sgd.csv").read_text().startswith("step,train_err\n")
        capsys.readouterr()


class TestEval:
    def test_teacher_on_own_data(self, workdir, capsys):
        code = main(["eval", "--model", str(workdir / "teacher.json"),
                     "--data", str(workdir / "data.csv")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "err=0.0 " in out and "mistakes=0" in out
        assert "evals_per_prediction=1" in out and "potential=" in out

    def test_ensemble_cost_is_member_count(self, workdir, tmp_path, capsys):
        assert main([
            "train", "--data", str(workdir / "data.csv"), "--algo", "adaboost",
            "--out-model", str(tmp_path / "ens.json"), "--T", "3",
            "--hidden", "8", "--sgd-steps", "200", "--n", "64", "--seed", "2",
        ]) == EXIT_OK
        members = len(json.loads((tmp_path / "ens.json").read_text())["members"])
        assert main(["eval", "--model", str(tmp_path / "ens.json"),
                     "--data", str(workdir / "data.csv")]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"evals_per_prediction={members}" in out

    def test_dim_mismatch_is_exit_2(self, workdir, tmp_path, capsys):
        assert main([
            "gen-data", "--m", "20", "--d", "7", "--seed", "1",
            "--out", str(tmp_path / "d7.csv"), "--teacher-out", str(tmp_path / "t7.json"),
        ]) == EXIT_OK
        code = main(["eval", "--model", str(workdir / "teacher.json"),
                     "--data", str(tmp_path / "d7.csv")])
        assert code == EXIT_IO
        capsys.readouterr()


class TestVerify:
    def test_default_suites_pass(self, capsys):
        code = main(["verify", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for name in ("lse", "lemma", "grad"):
            assert name in out
        assert "FAIL" not in out

    def test_bound_suite_on_real_metrics(self, workdir, capsys):
        code = main(["verify", "--suite", "bound", "--metrics", str(workdir / "metrics.csv"),
                     "--m", "250", "--rho", "0.1"])
        assert code == EXIT_OK
        assert "bound" in capsys.readouterr().out

    def test_tampered_metrics_fail_with_exit_1(self, workdir, tmp_path, capsys):
        lines = (workdir / "metrics.csv").read_text().splitlines()
        parts = lines[1].split(",")
        parts[3] = repr(float(parts[2]))  # potential_after no longer drops
        lines[1] = ",".join(parts)
        bad = tmp_path / "tampered.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--suite", "bound", "--metrics", str(bad),
                     "--m", "250", "--rho", "0.1"])
        assert code == EXIT_VERIFY_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_single_suite_selection(self, capsys):
        assert main(["verify", "--suite", "lemma"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lemma" in out and "lse" not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bound_without_metrics_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "bound"]) == EXIT_USAGE
        capsys.readouterr()


class TestCompare:
    def test_table_shape_and_costs(self, workdir, tmp_path, capsys):
        out_csv = tmp_path / "compare.csv"
        code = main([
            "compare", "--data", str(workdir / "data.csv"), "--out", str(out_csv),
            "--T", "6", "--n", "64", "--hidden", "8", "--sgd-steps", "200",
            "--batch", "16", "--seed", "4",
        ])
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "algo,final_train_err,boost_iters,network_evals_per_prediction,total_wall_ms"
        assert len(lines) == 3
        sb = lines[1].split(",")
        ada = lines[2].split(",")
        assert sb[0] == "selfieboost" and sb[3] == "1"
        assert ada[0] == "adaboost" and ada[3] == ada[2]  # evals == ensemble size
        capsys.readouterr()

    def test_no_candidate_found_writes_the_table_and_exits_4(self, workdir, tmp_path, capsys):
        # train exits 4 with these flags; AdaBoost still finds weak learners
        out_csv = tmp_path / "compare.csv"
        code = main([
            "compare", "--data", str(workdir / "data.csv"), "--out", str(out_csv),
            "--T", "3", "--n", "64", "--hidden", "16", "--sgd-steps", "1", "--lr", "1e-12",
            "--max-retries", "0",
        ])
        assert code == EXIT_BREAK
        assert capsys.readouterr() == ("", "")
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 3 and lines[1].startswith("selfieboost,1.0,0,1,")
        assert lines[2].startswith("adaboost,")

    def test_identical_seeds_identical_tables(self, workdir, tmp_path, capsys):
        # the third run has no --out and writes the table to stdout
        argv = lambda *out: [
            "compare", "--data", str(workdir / "data.csv"), *out,
            "--T", "4", "--n", "64", "--hidden", "8", "--sgd-steps", "150",
            "--batch", "16", "--seed", "4",
        ]
        assert main(argv("--out", str(tmp_path / "c1.csv"))) == EXIT_OK
        assert main(argv("--out", str(tmp_path / "c2.csv"))) == EXIT_OK
        assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
        assert capsys.readouterr().out == ""
        assert main(argv()) == EXIT_OK
        assert capsys.readouterr().out.encode() == (tmp_path / "c1.csv").read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "selfieboost", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout

    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE
