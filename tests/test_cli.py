"""Tests for the command-line interface."""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exit_code = main(list(argv))
    assert exit_code == 0
    return buffer.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestExperimentCommand:
    def test_condense_without_shard_rows_is_a_usage_error(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "experiment", "austral", "--out", str(tmp_path / "run"),
                    "--condense",
                ]
            )
        assert excinfo.value.code == 2
        assert "--condense requires --shard-rows" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--variant", "Nope"], ["--variant", "Item_RBF", "--model", "c45"]],
    )
    def test_invalid_variant_is_a_usage_error_before_mining(
        self, tmp_path, capsys, flags
    ):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "austral", "--out", str(out), *flags])
        assert excinfo.value.code == 2
        assert "--variant" in capsys.readouterr().err
        assert not (out / "patterns.json").exists()


class TestDatasetsCommand:
    def test_lists_all(self):
        output = run_cli("datasets")
        for name in ("austral", "chess", "letter", "zoo"):
            assert name in output
        assert "scalability" in output


class TestMineCommand:
    def test_mines_and_writes_json(self, tmp_path):
        target = tmp_path / "patterns.json"
        output = run_cli(
            "mine", "iris", "--min-support", "0.2", "--output", str(target)
        )
        assert "mined" in output
        payload = json.loads(target.read_text())
        assert payload["patterns"]
        assert "item_names" in payload

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            run_cli("mine", "not-a-dataset")

    def test_csv_file_input(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        csv_path.write_text(
            "f1,f2,class\n" + "\n".join(
                ["a,x,yes", "a,y,no", "b,x,yes", "b,y,no"] * 5
            )
        )
        output = run_cli("mine", str(csv_path), "--min-support", "0.3")
        assert "mined" in output


class TestSelectCommand:
    def test_prints_selection(self):
        output = run_cli("select", "iris", "--min-support", "0.2", "--top", "3")
        assert "selected" in output
        assert "support=" in output

    def test_fisher_relevance(self):
        output = run_cli(
            "select", "iris", "--min-support", "0.2", "--relevance", "fisher"
        )
        assert "selected" in output


class TestEvaluateCommand:
    def test_runs_variants(self):
        output = run_cli(
            "evaluate", "iris", "--folds", "2",
            "--variants", "Item_All", "Pat_FS",
        )
        assert "Item_All" in output
        assert "Pat_FS" in output
        assert "%" in output

    @pytest.mark.parametrize(
        "flags",
        [["--variants", "Nope"], ["--model", "c45", "--variants", "Item_RBF"]],
    )
    def test_invalid_variant_is_a_usage_error_before_loading(
        self, monkeypatch, capsys, flags
    ):
        def no_load(*args, **kwargs):
            raise AssertionError("dataset loaded before the usage check")

        monkeypatch.setattr("repro.cli.load_uci", no_load)
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "iris", *flags])
        assert excinfo.value.code == 2
        assert "--variants" in capsys.readouterr().err


class TestFigureCommand:
    def test_figure2(self):
        output = run_cli(
            "figure", "2", "--dataset", "breast", "--scale", "0.3",
            "--min-support", "0.15",
        )
        assert "information_gain" in output
        assert "bound violations: 0" in output


class TestTableCommand:
    @pytest.mark.slow
    def test_scalability_table_small(self):
        output = run_cli("table", "3", "--scale", "0.08", "--budget", "5000")
        assert "min_sup" in output
        assert "#Patterns" in output

    @pytest.mark.parametrize("number", ["1", "2"])
    def test_budget_with_accuracy_table_is_a_usage_error(self, capsys, number):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", number, "--datasets", "iris", "--budget", "10"])
        assert excinfo.value.code == 2
        assert "--budget applies to tables 3-5 only" in capsys.readouterr().err

    def test_accuracy_table_tiny_battery(self):
        output = run_cli(
            "table", "2", "--datasets", "iris", "--folds", "2",
            "--scale", "0.5",
        )
        assert "iris" in output
        assert "Pat_FS" in output


class TestSelectChi2:
    def test_chi2_relevance_via_cli(self):
        output = run_cli(
            "select", "iris", "--min-support", "0.25", "--relevance", "chi2"
        )
        assert "selected" in output
