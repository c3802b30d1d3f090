"""Pinned CLI transcripts: exit status, stdout, stderr and written files.

Each case runs ``main(argv)`` in a fresh directory holding a copy of the
example networks and compares what it prints (the directory replaced by
``<tmp>``) and the sha256 of every file it writes with
``tests/golden/cli_transcripts.json``.  The cases print no ODE floats
and no argparse usage, whose bytes vary with the scipy build, the
Python version and the terminal width.  Only the first lint case takes
every built-in circuit: the biquad's conservation-law SVD dominates
the module's run time.

Regenerate the golden file (only when an output change is intended)::

    PYTHONPATH=src python tests/test_cli_transcripts.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_transcripts.json"

CRNS = ["examples/delay_chain.crn", "examples/fanout_gain.crn",
        "examples/rgb_clock.crn"]

#: Inputs written next to the copied examples.
INPUTS = {
    "bad.crn": "species P color=red\n-> P @ slow\n",
    "bad_asserts.json": json.dumps({"assertions": [
        {"type": "invariant", "name": "never-three",
         "expr": "value < 3"}]}),
}

CASES = {
    "lint": ["lint", *CRNS, "--circuit", "all"],
    "lint-verbose": ["lint", *CRNS, "--circuit", "moving-average",
                     "--circuit", "fsm", "--verbose"],
    "lint-json": ["lint", *CRNS, "--circuit", "counter", "--circuit", "iir",
                  "--format", "json"],
    "lint-sarif-output": ["lint", *CRNS, "--circuit", "clock",
                          "--circuit", "moving-average", "--format",
                          "sarif", "--output", "lint.sarif"],
    "lint-strict": ["lint", "bad.crn", "examples/rgb_clock.crn",
                    "--strict"],
    "lint-fail-on-note": ["lint", "examples/rgb_clock.crn", "--circuit",
                          "counter", "--fail-on", "note",
                          "--disable", "conservation"],
    "lint-list-rules": ["lint", "--list-rules"],
    "certify": ["certify", "--circuit", "all"],
    "certify-file-json": ["certify", "examples/delay_chain.crn",
                          "--format", "json"],
    "certify-cascade-rejected": ["certify", "--cascade",
                                 "amp:4,amp:4,amp:4"],
    "certify-cascade-sarif": ["certify", "--cascade", "ma,iir",
                              "--format", "sarif",
                              "--output", "certify.sarif"],
    "error-lint-nothing": ["lint"],
    "error-lint-unreadable": ["lint", "missing.crn"],
    "error-certify-nothing": ["certify"],
    "error-certify-unreadable": ["certify", "missing.crn"],
    "error-simulate-missing": ["simulate", "missing.crn"],
    "error-robustness-fault": ["robustness", "--fault", "bogus"],
    "error-serve-mode": ["serve"],
    "error-trace-path": ["clock", "--trace", "missing/clock.jsonl"],
    "error-assert-file": ["counter", "--assert-file", "missing.json"],
    "error-waves-trial": ["waves", "--trials", "2", "--trial", "5"],
    "counter-waves": ["counter", "--bits", "2", "--pulses", "6",
                      "--seed", "0", "--vcd", "counter.vcd",
                      "--assert-file",
                      "examples/waves/counter_asserts.json"],
    "counter-violation": ["counter", "--bits", "2", "--pulses", "4",
                          "--assert-file", "bad_asserts.json"],
    "fsm-detector": ["fsm", "--machine", "detector", "--vcd", "fsm.vcd"],
    "waves-counter": ["waves", "--scenario", "counter", "--trials", "2",
                      "--workers", "1", "--json", "waves.json",
                      "--vcd", "waves.vcd"],
}


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run ``main(argv)`` in ``workdir``; the transcript it leaves."""
    workdir = workdir.resolve()
    shutil.copytree(ROOT / "examples", workdir / "examples",
                    ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    inputs = set(workdir.rglob("*"))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            status = main(argv)
    finally:
        os.chdir(cwd)
    files = {path.relative_to(workdir).as_posix():
             hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(workdir.rglob("*"))
             if path.is_file() and path not in inputs}
    return {"exit": status,
            "stdout": stdout.getvalue().replace(str(workdir), "<tmp>"),
            "stderr": stderr.getvalue().replace(str(workdir), "<tmp>"),
            "files": files}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == _golden()[name]


if __name__ == "__main__":
    transcripts = {}
    for case, case_argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            transcripts[case] = run_case(case_argv, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(transcripts, indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"wrote {len(transcripts)} transcripts to {GOLDEN}")
