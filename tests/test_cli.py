"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def demo_crn(tmp_path):
    path = tmp_path / "demo.crn"
    path.write_text("X -> Y @ fast\nY -> Z @ slow\ninit X = 10\n")
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestSimulate:
    def test_runs_and_prints(self, demo_crn, capsys):
        assert main(["simulate", demo_crn, "--t", "8"]) == 0
        out = capsys.readouterr().out
        assert "final quantities" in out
        assert "Z" in out

    def test_plot_option(self, demo_crn, capsys):
        assert main(["simulate", demo_crn, "--t", "4",
                     "--plot", "X,Z"]) == 0
        assert "#=X" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, capsys):
        assert main(["simulate", "/nonexistent.crn"]) == 1
        assert capsys.readouterr().err == (
            "error: cannot access /nonexistent.crn: No such file or "
            "directory\n")

    def test_bad_species_reports_error(self, demo_crn, capsys):
        code = main(["simulate", demo_crn, "--plot", "NOPE"])
        assert code == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dsd", "{missing}.crn"],
    ["serve", "--jobs", "{missing}.json"],
    ["conformance", "--replay", "{missing}.crn"],
    ["conformance", "--budget", "tiny", "--no-shrink",
     "--json", "{missing}/report.json"],
    ["robustness", "--circuit", "counter", "--trials", "1",
     "--no-margin", "--workers", "1", "--json", "{missing}/report.json"],
    ["waves", "--scenario", "ma", "--input", "8",
     "--json", "{missing}/report.json"],
], ids=["dsd", "serve-jobs", "conformance-replay", "conformance-json",
        "robustness-json", "waves-json"])
def test_inaccessible_path_is_one_error_line(argv, tmp_path, capsys):
    """An unreadable input or unwritable output path exits 1 with one
    ``error:`` line naming it, not a traceback."""
    missing = str(tmp_path / "missing")
    argv = [arg.format(missing=missing) for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"error: cannot access {missing}")
    assert err[-1].endswith(": No such file or directory")


class TestClock:
    def test_reports_period(self, capsys):
        assert main(["clock", "--mass", "20", "--t", "25"]) == 0
        out = capsys.readouterr().out
        assert "period" in out and "jitter" in out


class TestFilter:
    def test_moving_average(self, capsys):
        assert main(["filter", "ma", "--taps", "2",
                     "--input", "10,20,40"]) == 0
        out = capsys.readouterr().out
        assert "max |error|" in out
        assert "reference" in out


class TestCounter:
    def test_counts(self, capsys):
        assert main(["counter", "--bits", "2", "--pulses", "5"]) == 0
        out = capsys.readouterr().out
        assert "[0, 1, 2, 3, 0, 1]" in out


class TestDsd:
    def test_compile_and_fasta(self, demo_crn, tmp_path, capsys):
        fasta = tmp_path / "order.fasta"
        assert main(["dsd", demo_crn, "--fasta", str(fasta)]) == 0
        assert fasta.exists()
        content = fasta.read_text()
        assert content.startswith(">")
