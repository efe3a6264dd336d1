"""End-to-end command-line tests, run in-process through main(argv).

A few subprocess tests exercise ``python -m basis_learner`` and the
installed console script; everything else stays in-process so assertions
can reuse library calls directly.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import basis_learner
from basis_learner.cli import main
from basis_learner.network import load_model, predict

SECS = re.compile(r" secs=\d+\.\d{3}")


def write_csv(path, X, y):
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(y, X):
            fh.write(",".join([repr(float(label))] + [repr(float(v)) for v in row]) + "\n")


@pytest.fixture
def toy(tmp_path):
    rng = np.random.default_rng(50)
    X = rng.standard_normal((12, 2))
    y = rng.standard_normal(12)
    path = tmp_path / "toy.csv"
    write_csv(path, X, y)
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_interpolation_run_and_summary(self, toy, tmp_path, capsys):
        model = tmp_path / "m.bl"
        code, out, err = run_cli(
            ["train", "--data", str(toy), "--mode", "exact", "--loss", "squared",
             "--lambda", "0", "--stop-train-loss", "1e-8", "--out", str(model)],
            capsys,
        )
        assert code == 0
        summary = out.strip().splitlines()[-1]
        assert summary.startswith("trained depth=")
        assert "termination=error_threshold" in summary
        assert f"model={model}" in summary
        loss = float(re.search(r"train_loss=(\S+)", summary).group(1))
        assert loss <= 1e-8
        assert model.exists()
        net = load_model(model)
        assert net.task == "regression"

    def test_trace_lines_precede_summary(self, toy, tmp_path, capsys):
        model = tmp_path / "m.bl"
        code, out, _ = run_cli(
            ["train", "--data", str(toy), "--lambda", "0", "--depth", "4",
             "--out", str(model)],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert all(l.startswith("depth=") for l in lines[:-1])
        assert lines[-1].startswith("trained ")

    def test_trace_out_file(self, toy, tmp_path, capsys):
        model = tmp_path / "m.bl"
        trace_path = tmp_path / "trace.log"
        code, out, _ = run_cli(
            ["train", "--data", str(toy), "--lambda", "0", "--depth", "3",
             "--out", str(model), "--trace-out", str(trace_path)],
            capsys,
        )
        assert code == 0
        logged = trace_path.read_text(encoding="utf-8").strip().splitlines()
        stdout_trace = [l for l in out.strip().splitlines() if l.startswith("depth=")]
        assert logged == stdout_trace

    def test_reruns_byte_identical(self, toy, tmp_path, capsys):
        args = ["train", "--data", str(toy), "--lambda", "0,1e-4", "--depth", "4",
                "--seed", "3"]
        a, b = tmp_path / "a.bl", tmp_path / "b.bl"
        code1, out1, _ = run_cli(args + ["--out", str(a)], capsys)
        code2, out2, _ = run_cli(args + ["--out", str(b)], capsys)
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        clean1 = SECS.sub("", out1).replace(str(a), "MODEL")
        clean2 = SECS.sub("", out2).replace(str(b), "MODEL")
        assert clean1 == clean2

    def test_width_mode_flags(self, tmp_path, capsys):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        data = tmp_path / "w.csv"
        write_csv(data, X, y)
        model = tmp_path / "m.bl"
        code, out, _ = run_cli(
            ["train", "--data", str(data), "--mode", "width", "--width", "4",
             "--batch", "2", "--lambda", "0", "--depth", "5", "--out", str(model)],
            capsys,
        )
        assert code == 0
        net = load_model(model)
        assert all(w <= 4 for w in net.layer_widths)

    def test_validation_flags(self, tmp_path, capsys):
        rng = np.random.default_rng(52)
        X = rng.standard_normal((60, 2))
        y = X[:, 0] ** 2 + 0.1 * rng.standard_normal(60)
        data = tmp_path / "v.csv"
        write_csv(data, X, y)
        model = tmp_path / "m.bl"
        code, out, _ = run_cli(
            ["train", "--data", str(data), "--valid-count", "20", "--patience", "2",
             "--lambda", "1e-6,1e-3", "--out", str(model)],
            capsys,
        )
        assert code == 0
        assert "valid_err=nan" not in out

    def test_duplicate_rows_warn_on_stderr(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        write_csv(data, [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]], [1.0, 1.0, 2.0])
        model = tmp_path / "m.bl"
        code, out, err = run_cli(
            ["train", "--data", str(data), "--lambda", "0", "--depth", "3",
             "--out", str(model)],
            capsys,
        )
        assert code == 0
        assert "warning:" in err
        assert "warning:" not in out

    def test_loss_task_mismatch_fails(self, toy, tmp_path, capsys):
        code, out, err = run_cli(
            ["train", "--data", str(toy), "--loss", "hinge", "--lambda", "0.1",
             "--depth", "3", "--out", str(tmp_path / "m.bl")],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        assert "hinge" in err

    def test_missing_data_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["train", "--data", str(tmp_path / "nope.csv"), "--lambda", "0",
             "--depth", "3", "--out", str(tmp_path / "m.bl")],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_bad_lambda_list_is_usage_error(self, toy, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(toy), "--lambda", "abc",
                  "--out", str(tmp_path / "m.bl")])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, toy, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(toy), "--turbo"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


@pytest.fixture
def trained(toy, tmp_path, capsys):
    model = tmp_path / "m.bl"
    code = main(["train", "--data", str(toy), "--lambda", "0",
                 "--stop-train-loss", "1e-10", "--out", str(model)])
    capsys.readouterr()
    assert code == 0
    return model


class TestPredict:
    def test_one_line_per_row_matching_library(self, trained, toy, capsys):
        code, out, _ = run_cli(
            ["predict", "--model", str(trained), "--data", str(toy)], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        net = load_model(trained)
        X = np.loadtxt(toy, delimiter=",")[:, 1:]
        expected = predict(net, X)[:, 0]
        got = np.array([float(l) for l in lines])
        assert np.array_equal(got, expected)

    def test_binary_lines_have_signed_decision(self, tmp_path, capsys):
        rng = np.random.default_rng(53)
        X = rng.standard_normal((30, 2))
        X = X[np.abs(X[:, 0]) > 0.2][:20]
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        data = tmp_path / "b.csv"
        write_csv(data, X, y)
        model = tmp_path / "m.bl"
        assert main(["train", "--data", str(data), "--loss", "hinge",
                     "--lambda", "0.05", "--depth", "3", "--out", str(model)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(
            ["predict", "--model", str(model), "--data", str(data)], capsys
        )
        assert code == 0
        for line in out.strip().splitlines():
            score, label = line.split()
            float(score)
            assert label in ("+1", "-1")

    def test_corrupt_model_fails(self, tmp_path, toy, capsys):
        bad = tmp_path / "bad.bl"
        bad.write_bytes(b"{not json")
        code, out, err = run_cli(
            ["predict", "--model", str(bad), "--data", str(toy)], capsys
        )
        assert code == 1
        assert "error:" in err


class TestEvaluate:
    def test_metrics_block(self, trained, toy, capsys):
        code, out, _ = run_cli(
            ["evaluate", "--model", str(trained), "--data", str(toy)], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m: 12"
        assert lines[1].startswith("error: ")
        assert lines[2].startswith("mean_loss: ")
        assert float(lines[1].split()[1]) <= 1e-8

    def test_multiclass_confusion_block(self, tmp_path, capsys):
        rng = np.random.default_rng(54)
        m = 60
        y = rng.integers(0, 3, m)
        X = rng.standard_normal((m, 2)) * 0.3
        X[np.arange(m), y % 2] += y + 1.0
        data = tmp_path / "mc.csv"
        write_csv(data, X, y)
        model = tmp_path / "m.bl"
        assert main(["train", "--data", str(data), "--loss", "mc-hinge",
                     "--lambda", "0.1", "--depth", "3", "--out", str(model)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(
            ["evaluate", "--model", str(model), "--data", str(data)], capsys
        )
        assert code == 0
        assert "confusion:" in out
        rows = [l for l in out.splitlines() if l.startswith("  ")]
        total = sum(int(v) for row in rows for v in row.split())
        assert total == m


class TestInspect:
    def test_depth_two_model(self, toy, tmp_path, capsys):
        model = tmp_path / "m.bl"
        assert main(["train", "--data", str(toy), "--lambda", "0", "--depth", "2",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(["inspect", "--model", str(model)], capsys)
        assert code == 0
        assert "product_layers: 0" in out
        assert "depth: 2" in out
        assert "degree_bound: 1" in out

    def test_reports_cost_and_widths(self, trained, capsys):
        code, out, _ = run_cli(["inspect", "--model", str(trained)], capsys)
        assert code == 0
        net = load_model(trained)
        assert f"total_nodes: {net.total_nodes}" in out
        assert re.search(r"arithmetic_cost: \d+", out)
        widths = re.search(r"layer_widths: ([\d ]+)", out).group(1).split()
        assert [int(w) for w in widths] == net.layer_widths


class TestOracle:
    def test_counts_rank_and_span(self, trained, toy, capsys):
        code, out, _ = run_cli(
            ["oracle", "--degree", "2", "--data", str(toy), "--model", str(trained)],
            capsys,
        )
        assert code == 0
        assert "monomials: 6" in out
        assert "rank: 6" in out
        # the trained net interpolated 12 points, so by the saturation
        # depth its features span more than the quadratics
        assert "span_equal:" in out


class TestSparseFormat:
    def test_train_and_predict_sparse(self, tmp_path, capsys):
        lines = [
            "1.5 1:1.0 3:2.0",
            "-0.5 2:1.0",
            "2.0 1:2.0 2:1.0 3:1.0",
            "0.25 3:1.0",
            "1.0 1:1.0",
            "-2.0 2:2.0 3:0.5",
        ]
        data = tmp_path / "s.txt"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = tmp_path / "m.bl"
        code, out, _ = run_cli(
            ["train", "--data", str(data), "--format", "sparse", "--lambda", "0",
             "--depth", "4", "--out", str(model)],
            capsys,
        )
        assert code == 0
        assert load_model(model).input_dim == 3
        code, out, _ = run_cli(
            ["predict", "--model", str(model), "--data", str(data),
             "--format", "sparse"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 6


class TestHeaderFlag:
    def test_header_skipped(self, tmp_path, capsys):
        data = tmp_path / "h.csv"
        rng = np.random.default_rng(55)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("target,f1,f2\n")
            for label, row in zip(y, X):
                fh.write(",".join([repr(float(label))] + [repr(float(v)) for v in row]) + "\n")
        model = tmp_path / "m.bl"
        code, _, _ = run_cli(
            ["train", "--data", str(data), "--header", "--lambda", "0",
             "--depth", "3", "--out", str(model)],
            capsys,
        )
        assert code == 0
        assert load_model(model).input_dim == 2


def run_module(argv):
    # the child imports the package from where this process found it
    src = str(Path(basis_learner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "basis_learner", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


class TestConsoleScript:
    def test_module_invocation(self, toy, tmp_path):
        model = tmp_path / "m.bl"
        proc = run_module(["train", "--data", str(toy), "--lambda", "0",
                           "--depth", "3", "--out", str(model)])
        assert proc.returncode == 0, proc.stderr
        assert "trained depth=" in proc.stdout

    def test_malformed_model_reports_error_without_traceback(self, toy, tmp_path):
        bad = tmp_path / "bad.bl"
        bad.write_text('{"schema": "basis-learner/1", "input_dim": 2, '
                       '"task": "regression", "layers": [3], "head": {}}')
        proc = run_module(["predict", "--model", str(bad), "--data", str(toy)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "layer 1 must be an object" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_entry_point_installed(self, trained):
        exe = shutil.which("basis-learner")
        assert exe, "console script not on PATH"
        proc = subprocess.run(
            [exe, "inspect", "--model", str(trained)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "schema: basis-learner/1" in proc.stdout
