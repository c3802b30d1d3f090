"""E11 -- sequential digital machines: parity tracker and '101' detector.

General sequential computation beyond DSP: molecular Moore machines
driven by symbol pulses, checked against a pure-Python model on random
words.
"""

import random

from repro.digital import parity_machine, sequence_detector
from repro.reporting import markdown_table

from common import run_timed, save_report

WORDS = 6
WORD_LENGTH = 14


def _python_hits(word: str, pattern: str) -> int:
    return sum(1 for i in range(len(word) - len(pattern) + 1)
               if word[i:i + len(pattern)] == pattern)


def _run():
    rng = random.Random(11)
    detector = sequence_detector("101")
    parity = parity_machine()
    rows = []
    for trial in range(WORDS):
        word = "".join(rng.choice("01") for _ in range(WORD_LENGTH))
        detector_run = detector.run(word, seed=trial)
        hits = detector_run.output_counts["hit"][-1]
        expected_hits = _python_hits(word, "101")
        parity_run = parity.run(word, seed=trial)
        expected_parity = "odd" if word.count("1") % 2 else "even"
        rows.append([word, hits, expected_hits,
                     parity_run.trace[-1], expected_parity])
    return rows


def test_bench_fsm_figure(benchmark):
    rows = run_timed(benchmark, _run)[-1]
    save_report(
        "E11_fsm", "E11 -- molecular finite-state machines",
        markdown_table(["word", "'101' hits", "expected hits",
                        "final parity", "expected parity"], rows))
    for word, hits, expected_hits, parity, expected_parity in rows:
        assert hits == expected_hits, word
        assert parity == expected_parity, word
