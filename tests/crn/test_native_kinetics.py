"""The compiled mass-action kernel against its NumPy twin.

``MassActionKinetics.rhs``/``.jacobian`` run the C kernel of
:mod:`repro.crn.native`; ``rhs_numpy``/``jacobian_numpy`` walk the same
index arrays in the same order.  The contract is **bitwise** equality,
on every network family the repository simulates and on hostile states
(exact zeros, negatives, 1e-300-scale values, overflow, NaN).  The
fallback tests check that a missing kernel costs one ``RuntimeWarning``
and nothing else.
"""

import json
import os
import pickle
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.conformance.generator import BUDGETS, generate_targets
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import MachineOptions, SynchronousMachine
from repro.core.synthesis import synthesize
from repro.crn import native
from repro.crn.kinetics import MassActionKinetics, build_kinetics
from repro.crn.network import Network
from repro.crn.parser import parse_network
from repro.crn.rates import RateScheme
from repro.scenarios import get_scenario, scenario_names

ROOT = Path(__file__).resolve().parents[2]
CORPUS = sorted((ROOT / "tests" / "conformance" / "corpus").glob("*.crn"))
EXAMPLES = sorted((ROOT / "examples").glob("*.crn"))


def _ma2():
    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d1 = sfg.delay("d1")
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d1)))
    sfg.connect(x, d1)
    return sfg


def _iir():
    sfg = SignalFlowGraph("iir1")
    x = sfg.input("x")
    s = sfg.delay("s")
    y = sfg.add(sfg.gain(Fraction(1, 2), x), sfg.gain(Fraction(1, 2), s))
    sfg.output("y", y)
    sfg.connect(y, s)
    return sfg


def _higher_order():
    """Order >= 3 rows, which take the kernel's generic branch."""
    network = Network("higher_order")
    network.add({"A": 3}, {"B": 1}, 0.5)
    network.add({"A": 1, "B": 2}, {"C": 1}, 2.0)
    network.add({"A": 1, "B": 1, "C": 1}, {"D": 2}, 1.5)
    network.add({"A": 2, "D": 2}, {"A": 1}, 0.25)
    network.add({"C": 1}, {"A": 1, "B": 1}, 1.0)
    network.add({"B": 2}, {"C": 1}, 3.0)
    network.add(None, {"A": 1}, 0.1)
    return network


def _networks():
    found = [(path.stem, parse_network(path.read_text(), path.stem))
             for path in EXAMPLES + CORPUS]
    found += [(name, synthesize(build()).network)
              for name, build in (("ma2", _ma2), ("iir1", _iir))]
    found += [(f"scenario:{name}", get_scenario(name).network())
              for name in scenario_names(tag="network")]
    for budget in ("tiny", "small"):
        found += [(f"{budget}:{target.name}", target.network)
                  for target in generate_targets(BUDGETS[budget], seed=0)]
    found.append(("higher_order", _higher_order()))
    return found


NETWORKS = _networks()


def _hostile_states(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    base = rng.uniform(0.0, 30.0, size=n)
    zeros = base.copy()
    zeros[rng.integers(0, n, size=max(n // 3, 1))] = 0.0
    signed = rng.normal(0.0, 10.0, size=n)
    signed[rng.integers(0, n, size=max(n // 4, 1))] = -0.0
    nan = base.copy()
    nan[rng.integers(0, n)] = np.nan
    return [base, zeros, signed, nan,
            rng.uniform(0.0, 1.0, size=n) * 1e-300,
            rng.uniform(0.0, 1.0, size=n) * 1e200,
            np.zeros(n), np.full(n, -1.0)]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def kernel():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        module = native.load()
    if module is None:
        pytest.skip("compiled kernel unavailable; the NumPy twin runs")
    return module


@pytest.mark.parametrize(("name", "network"), NETWORKS,
                         ids=[name for name, _ in NETWORKS])
def test_compiled_matches_numpy_bitwise(kernel, name, network):
    kinetics = build_kinetics(network, RateScheme())
    rng = np.random.default_rng(sum(name.encode()))
    for x in _hostile_states(network.n_species, rng):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(kinetics.rhs(0.0, x),
                              kinetics.rhs_numpy(0.0, x))
            assert _same_bits(kinetics.jacobian(0.0, x),
                              kinetics.jacobian_numpy(0.0, x))
    assert kinetics._kernel, "the compiled path never ran"


def test_inputs_the_kernel_cannot_take_use_the_twin(kernel):
    network = synthesize(_ma2()).network
    kinetics = build_kinetics(network)
    x = np.random.default_rng(3).uniform(0.0, 20.0, network.n_species)
    expected = kinetics.rhs(0.0, x)
    strided = np.repeat(x, 2)[::2]
    assert not strided.flags.c_contiguous
    for variant in (strided, list(x), x.astype(np.float32)):
        assert np.array_equal(kinetics.rhs(0.0, variant),
                              kinetics.rhs_numpy(0.0, variant))
    assert _same_bits(kinetics.rhs(0.0, strided), expected)
    with pytest.raises(ValueError):
        kinetics.rhs(0.0, x[:-1])


def test_results_are_fresh_arrays(kernel):
    kinetics = build_kinetics(_higher_order())
    first = kinetics.rhs(0.0, np.ones(4))
    kinetics.rhs(0.0, np.full(4, 2.0))
    assert _same_bits(first, kinetics.rhs_numpy(0.0, np.ones(4)))


def _run_machine(sfg):
    machine = SynchronousMachine(sfg, options=MachineOptions(),
                                 method="LSODA")
    return machine.run({"x": [8.0, 4.0, 6.0, 2.0]})


@pytest.mark.parametrize("build", [_ma2, _iir], ids=["ma2", "iir1"])
def test_machine_run_is_bitwise_equal_on_both_paths(kernel, monkeypatch,
                                                    build):
    numpy_calls = []
    twin = MassActionKinetics.rhs_numpy

    def counting(self, t, x):
        numpy_calls.append(t)
        return twin(self, t, x)

    monkeypatch.setattr(MassActionKinetics, "rhs_numpy", counting)
    compiled = _run_machine(build())
    assert not numpy_calls
    monkeypatch.setattr(native, "_kernel", None)  # kernel unavailable
    fallback = _run_machine(build())
    assert numpy_calls
    assert compiled.outputs.keys() == fallback.outputs.keys()
    for name, values in compiled.outputs.items():
        assert _same_bits(values, fallback.outputs[name])
    assert compiled.mean_cycle_time == fallback.mean_cycle_time


def test_pickle_round_trip_after_the_kernel_loaded(kernel):
    kinetics = build_kinetics(_higher_order())
    x = np.array([1.0, 2.0, 0.5, 0.0])
    rhs, jac = kinetics.rhs(0.0, x), kinetics.jacobian(0.0, x)
    assert kinetics._kernel
    clone = pickle.loads(pickle.dumps(kinetics))
    assert _same_bits(clone.rhs(0.0, x), rhs)
    assert _same_bits(clone.jacobian(0.0, x), jac)
    assert clone._kernel


# -- fallback -----------------------------------------------------------------


FALLBACK_NETWORKS = [synthesize(_ma2()).network, _higher_order()]


def _evaluate_all():
    results = []
    for network in FALLBACK_NETWORKS:
        kinetics = build_kinetics(network)
        x = np.linspace(-1.0, 5.0, kinetics.n_species)
        results.append((kinetics.rhs(0.0, x), kinetics.jacobian(0.0, x)))
    return results


def _check_fallback_warns_once(monkeypatch, tmp_path, break_kernel):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = _evaluate_all()  # compiled, where this machine can
    monkeypatch.setattr(native, "_kernel", native._NOT_LOADED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    break_kernel()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _evaluate_all() + _evaluate_all()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    assert "NumPy kinetics" in str(runtime[0].message)
    assert native.load() is None
    for (rhs, jac), (rhs_fb, jac_fb) in zip(expected * 2, got):
        assert _same_bits(rhs, rhs_fb)
        assert _same_bits(jac, jac_fb)


def test_failed_build_warns_once_and_changes_no_result(monkeypatch,
                                                       tmp_path):
    def no_compiler(name, path):
        raise RuntimeError("kernel build failed: no compiler")

    _check_fallback_warns_once(
        monkeypatch, tmp_path,
        lambda: monkeypatch.setattr(native, "_build", no_compiler))


def test_unwritable_cache_warns_once_and_changes_no_result(monkeypatch,
                                                           tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    _check_fallback_warns_once(
        monkeypatch, tmp_path,
        lambda: monkeypatch.setenv("XDG_CACHE_HOME", str(blocker)))


# -- the on-disk cache, across processes -------------------------------------

_CHILD = """
import json, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.crn import native
    module = native.load()
print(json.dumps({"loaded": module is not None,
                  "warnings": [str(w.message) for w in caught]}))
"""


def _spawn(cache: Path, **env) -> subprocess.Popen:
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path,
             "XDG_CACHE_HOME": str(cache), **env})


def _outcome(process: subprocess.Popen) -> dict:
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    return json.loads(stdout.strip().splitlines()[-1])


def _cache_files(cache: Path) -> list[str]:
    return sorted(p.name for p in (cache / "repro").iterdir())


def test_cold_cache_builds_once_then_loads_without_a_compiler(kernel,
                                                              tmp_path):
    cache = tmp_path / "cache"
    assert _outcome(_spawn(cache)) == {"loaded": True, "warnings": []}
    (built,) = _cache_files(cache)
    assert built.startswith(native.module_name())
    stamp = (cache / "repro" / built).stat().st_mtime_ns
    # CC=false makes any compile fail, so loading proves no rebuild.
    assert _outcome(_spawn(cache, CC="false")) == \
        {"loaded": True, "warnings": []}
    assert _cache_files(cache) == [built]
    assert (cache / "repro" / built).stat().st_mtime_ns == stamp


def test_concurrent_cold_builds_both_succeed(kernel, tmp_path):
    cache = tmp_path / "cache"
    first, second = _spawn(cache), _spawn(cache)
    for process in (first, second):
        assert _outcome(process) == {"loaded": True, "warnings": []}
    assert len(_cache_files(cache)) == 1  # no temporary build left over


def test_missing_compiler_falls_back_with_one_warning(tmp_path):
    outcome = _outcome(_spawn(tmp_path / "cache", CC="false"))
    assert outcome["loaded"] is False
    assert len(outcome["warnings"]) == 1
    assert "NumPy kinetics" in outcome["warnings"][0]
