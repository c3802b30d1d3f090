"""Host-speed calibration.

The shared machines this benchmark runs on change speed by up to ~1.7x
for seconds to tens of seconds at a time (clock frequency, neighbours
on the host), which moves every measured time far more than the bounds
allow.  So a fixed kernel that touches none of the program is timed
alongside the work, and each reported time is scaled by ``reference /
kernel time``: it is the time the work would take at the speed where
the kernel takes its reference time.  Work the program does differently
moves the scaled time exactly as it moves the raw one.

The mixed kernel does what the workloads do: interpreter loops, small
numpy arrays, an ``odeint`` solve with a Python right-hand side, and
scalar RNG draws.  The set-up timer uses the pure-Python kernel, because
importing numpy before the timed ``import repro`` would hide part of
the set-up.
"""

from __future__ import annotations

from time import perf_counter

#: Kernel times at the reference speed: their typical times on the
#: 2-vCPU VM the bounds were set on, in the faster of its two states
#: (in the slower one the kernels, and the workloads, take ~1.7x).
REFERENCE_MIXED_S = 0.0027
REFERENCE_PYTHON_S = 0.00116


def python_kernel() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def mixed_kernel() -> float:
    import numpy as np
    from scipy.integrate import odeint

    total = 0.0
    for i in range(12_000):
        total += i * 0.5
    x = np.linspace(0.0, 1.0, 16)
    for _ in range(150):
        total += float((x * 1.0001 + 0.5).sum())
    coupling = np.array([[-1.0, 0.5, 0.0], [0.5, -1.0, 0.5],
                         [0.0, 0.5, -1.0]])
    grid = np.linspace(0.0, 20.0, 50)
    for start in (1.0, 2.0):
        states = odeint(lambda t, y: coupling @ y - 0.1 * y * y,
                        np.full(3, start), grid, tfirst=True)
        total += float(states[-1].sum())
    rng = np.random.default_rng(0)
    for _ in range(400):
        total += rng.exponential(1.0) + rng.random()
    return total


def kernel_time(kernel, repeats: int = 3) -> float:
    """Median seconds of ``repeats`` runs of ``kernel``."""
    times = []
    for _ in range(repeats):
        started = perf_counter()
        kernel()
        times.append(perf_counter() - started)
    return sorted(times)[len(times) // 2]
