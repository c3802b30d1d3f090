"""Tests for the command-line interface."""

import json

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


def _exit_status(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


_ONE_JOB = {"kind": "simulate", "scenario": "counter"}


@pytest.mark.parametrize(("argv", "jobs", "status"), [
    (["simulate", "{crn}", "--seed", "-1"], None, 2),
    (["counter", "--seed", "-1"], None, 2),
    (["fsm", "--seed", "-1"], None, 2),
    (["robustness", "--seed", "-1"], None, 2),
    (["waves", "--seed", "-1"], None, 2),
    (["conformance", "--seed", "-1"], None, 2),
    (["serve", "--demo", "--seed", "-1"], None, 2),
    (["filter", "ma", "--input", "a,b"], None, 2),
    (["waves", "--scenario", "ma", "--input", "x"], None, 2),
    (["simulate", "{crn}", "--t", "nan"], None, 2),
    (["clock", "--t", "inf"], None, 2),
    (["clock", "--mass", "nan"], None, 2),
    (["dsd", "{crn}", "--c-max", "nan"], None, 2),
    (["robustness", "--separation", "0", "--workers", "1"], None, 1),
    (["robustness", "--margin-trials", "0", "--workers", "1"], None, 1),
    (["serve", "--jobs", "{jobs}"], "[{not json", 1),
    (["serve", "--jobs", "{jobs}"], [dict(_ONE_JOB, t_final="x")], 1),
    (["serve", "--jobs", "{jobs}"], [dict(_ONE_JOB, seed="abc")], 1),
    (["serve", "--jobs", "{jobs}"],
     [dict(_ONE_JOB, kind="sweep", method="ssa", n_runs="x")], 1),
    (["serve", "--jobs", "{jobs}"],
     [dict(_ONE_JOB, scenario="random", scenario_params={"seed": "x"})], 1),
], ids=["simulate-seed", "counter-seed", "fsm-seed", "robustness-seed",
        "waves-seed", "conformance-seed", "serve-seed", "filter-input",
        "waves-input", "simulate-t-nan", "clock-t-inf", "clock-mass-nan",
        "dsd-c-max-nan", "robustness-separation", "robustness-margin-trials",
        "serve-not-json", "serve-t-final", "serve-seed-field",
        "serve-n-runs", "serve-scenario-params"])
def test_malformed_value_is_one_error_line(argv, jobs, status, demo_crn,
                                           tmp_path, capsys):
    """A malformed number or job field exits with one ``error:`` line
    (argparse's usage error, exit 2, for options), not a traceback or
    silent garbage."""
    path = tmp_path / "jobs.json"
    path.write_text(jobs if isinstance(jobs, str) else json.dumps(jobs))
    argv = [arg.format(crn=demo_crn, jobs=path) for arg in argv]
    assert _exit_status(argv) == status
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == err[-1:]
    assert "Traceback" not in "\n".join(err)


def test_serve_continues_past_a_failed_job(tmp_path, capsys):
    random = {"scenario": "random", "scenario_params": {"seed": 2},
              "t_final": 1.0}
    jobs = [dict(random, kind="simulate", method="ode", seed=2),
            dict(random, kind="simulate", method="ssa", seed=0,
                 options={"max_events": 1}),
            {"kind": "sweep", "scenario": "counter", "t_final": 0.2,
             "method": "ssa", "n_runs": 4, "seed": 0}]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    summary = tmp_path / "summary.json"
    assert main(["serve", "--jobs", str(path), "--json",
                 str(summary)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["cold", "fail",
                                                       "cold"]
    assert "error=SSA exceeded 1 events" in lines[1]
    assert lines[3] == "jobs=3 hits=0 failed=1"
    document = json.loads(summary.read_text())
    assert document["stats"]["failed"] == 1
    failed = document["results"][1]
    assert "error" in failed and "sha256" not in failed


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
