"""Deterministic mass-action ODE simulation.

This is the paper's own validation method: "We validate our designs through
ODE simulations of the mass-action chemical kinetics."  The default solver
is scipy's LSODA (the networks are stiff by construction: every design mixes
fast and slow rates separated by three orders of magnitude); an internal
Dormand-Prince integrator is available as an independent cross-check.

``native-bdf`` is scipy's variable-order BDF compiled into the kernel of
:mod:`repro.crn.native`: one call integrates a whole segment, evaluating
the compiled kinetics and locating a clock margin's crossing without
returning to Python.  The synchronous machines run on it; LSODA stays
the reference every other caller, and every pin, uses.

Events are callables ``event(t, x)`` with scipy's ``terminal`` and
``direction`` attributes.  Every event the package builds is a
:class:`~repro.crn.simulation.margins.MarginEvent`, the crossing of a
margin table, which every method takes; LSODA and ``solve_ivp`` also
take any other callable.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections.abc import Mapping, Sequence
from time import perf_counter

import numpy as np

from repro.crn import native
from repro.crn.kinetics import (MassActionKinetics, build_kinetics,
                                shallow_copy)
from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.margins import MarginEvent
from repro.crn.simulation.result import Trajectory, check_time_span
from repro.crn.simulation.rk import integrate_rk45
from repro.errors import SimulationError
from repro.obs.metrics import ensure_metrics
from repro.obs.tracer import ensure_tracer

#: Solver methods accepted by :class:`OdeSimulator`.
METHODS = ("LSODA", "BDF", "Radau", "RK45", "internal-rk45", "native-bdf")

#: Jacobian handling modes accepted by :class:`OdeSimulator`.
JACOBIAN_MODES = ("auto", "dense", "sparsity", "none")

#: ``auto`` switches BDF/Radau to sparse Jacobian handling at this
#: species count (below it dense LU is cheaper than sparse bookkeeping).
_SPARSE_AUTO_THRESHOLD = 64

#: LSODA options of every solve here: the step budget and ``odeint``'s
#: default maximum orders (12 non-stiff, 5 stiff).
_MXSTEP = 5_000_000
_MXORDN = 12
_MXORDS = 5

#: Extra arguments of every LSODA callback: ``borrow=True``.  scipy
#: copies each ``rhs``/``jacobian`` result into its own work array before
#: it calls back again, so the kernel's output buffer is never copied
#: twice (see :meth:`MassActionKinetics.rhs`).
_BORROW = (True,)

# scipy.integrate takes about half a second to import, and SSA runs never
# need it: these wrappers import it at the first solve.  The module calls
# through them, so patching ``ode.odeint`` still reaches every call.


def odeint(*args, **kwargs):
    """:func:`scipy.integrate.odeint`, imported on first use."""
    from scipy.integrate import odeint as scipy_odeint

    return scipy_odeint(*args, **kwargs)


def solve_ivp(*args, **kwargs):
    """:func:`scipy.integrate.solve_ivp`, imported on first use."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


_UNRESOLVED = object()
_lsoda_entry = _UNRESOLVED  # (lsoda, sizes, messages), or None: the twin
_lsoda_lock = threading.Lock()  # one resolution, one warning, per process


def _resumable_lsoda():
    """scipy's re-entrant ``_odepack.lsoda``, the sizes of its two state
    arrays and ``odeint``'s message for each ``istate``, or ``None``.

    This is the entry point ``scipy.integrate.ode(...).set_integrator(
    "lsoda")`` calls; the solver state lives in the two arrays the caller
    passes, so one run can stop after any output point and resume.  It
    is resolved on first use, never at import.  A scipy without it
    (``pyproject`` allows >= 1.10) gets one ``RuntimeWarning`` per
    process, and events are then located by ``odeint`` and a scan, with
    identical results.
    """
    global _lsoda_entry
    with _lsoda_lock:
        if _lsoda_entry is _UNRESOLVED:
            try:
                from scipy.integrate import _ode, _odepack, _odepack_py

                integrator = _ode.lsoda()
                _lsoda_entry = (_odepack.lsoda,
                                integrator.state_doubles.size,
                                integrator.state_ints.size,
                                _odepack_py._msgs)
            except (ImportError, AttributeError) as exc:
                _lsoda_entry = None
                warnings.warn(
                    f"resumable LSODA (scipy.integrate._odepack.lsoda "
                    f"with state arrays) unavailable ({exc}); locating "
                    f"ODE events with odeint and a scan, which gives "
                    f"identical results",
                    RuntimeWarning, stacklevel=2)
    return _lsoda_entry


class _WorkArrays(threading.local):
    """Per-thread LSODA work arrays, by species count."""

    def __init__(self):
        self.by_size: dict[int, tuple] = {}


_work = _WorkArrays()


def _work_arrays(n: int, n_doubles: int, n_ints: int) -> tuple:
    """Zeroed ``(rwork, iwork, state doubles, state ints)`` for ``n``
    species, with ``odeint``'s options set.

    ``_odepack.lsoda`` keeps a reference to ``rwork`` and ``iwork`` on
    every call, so they are never freed: they are allocated once per
    thread and species count and re-zeroed for every walk.
    """
    work = _work.by_size.get(n)
    if work is None:
        n_real = max(20 + (_MXORDN + 4) * n, 22 + (_MXORDS + 4) * n + n * n)
        work = _work.by_size[n] = (
            np.zeros(n_real), np.zeros(20 + n, np.int32),
            np.zeros(n_doubles), np.zeros(n_ints, np.int32))
    for array in work:
        array.fill(0)
    # h0, hmax and hmin stay 0 (solver-chosen); mxhnil 0 is the default.
    work[1][5:9] = (_MXSTEP, 0, _MXORDN, _MXORDS)
    return work


#: ``repro_bdf`` statuses (see :mod:`repro.crn.native`).
_BDF_ROWS, _BDF_SMALL_STEP = 1, 2

#: Sample rows a :class:`_NativeBdf` holds before it first grows; a
#: machine's telemetry plans ~30 rows per cycle segment.
_BDF_ROWS_START = 64


class _NativeBdf:
    """One simulator's ``repro_bdf``: the struct, its work arrays and a
    row buffer that doubles whenever a segment fills it, bound to the
    simulator's own kinetics struct (``ctx``)."""

    def __init__(self, module, ctx, n: int):
        ffi = self.ffi = module.ffi
        self.run = module.lib.repro_bdf_solve
        bdf = self.ctx = ffi.new("repro_bdf *")
        self.event = ffi.new("repro_margin *")
        self.work = np.empty(2 * n * n + 15 * n)
        self.iwork = np.empty(n * n + 4 * n + 1, np.int64)
        self.y = np.empty(n)
        self.rows = np.empty((_BDF_ROWS_START, n))
        bdf.k = ctx
        bdf.work = ffi.from_buffer("double[]", self.work)
        bdf.iwork = ffi.from_buffer("int64_t[]", self.iwork)
        bdf.y = ffi.from_buffer("double[]", self.y)

    def solve(self, x0, t_start, t_final, samples, table, direction,
              rtol, atol):
        """Integrate ``x0`` from ``t_start`` to ``t_final`` or the
        event; returns ``(times, states, fired, stats)``, the states
        unclamped, with a row at each of ``samples`` (ascending, after
        ``t_start``) before the end."""
        ffi, bdf = self.ffi, self.ctx
        self.y[:] = x0
        bdf.t, bdf.t_bound, bdf.rtol, bdf.atol = t_start, t_final, rtol, atol
        bdf.resume = bdf.next_eval = bdf.n_rows = 0
        bdf.steps = bdf.rejected = bdf.nfev = bdf.njev = bdf.nlu = 0
        live = [ffi.from_buffer("double[]", samples)]
        bdf.t_eval, bdf.n_eval = live[0], samples.size
        if table is None:
            bdf.event = ffi.NULL
        else:
            live.append(native.margin(ffi, self.event, table))
            bdf.event, bdf.direction = self.event, direction
        rows = self.rows
        while True:
            bdf.rows, bdf.capacity = ffi.from_buffer("double[]", rows), \
                rows.shape[0]
            status = self.run(bdf)
            if status != _BDF_ROWS:
                break
            grown = np.empty((2 * rows.shape[0], rows.shape[1]))
            grown[:bdf.n_rows] = rows[:bdf.n_rows]
            rows = self.rows = grown
        if status:
            what = ("the step size underflowed" if status == _BDF_SMALL_STEP
                    else "the state went non-finite")
            raise SimulationError(
                f"ODE solver failed: native BDF stopped at t={bdf.t!r}: "
                f"{what}")
        m = bdf.n_rows
        times = np.empty(m + 2)
        times[0], times[1:m + 1], times[-1] = t_start, samples[:m], bdf.t
        states = np.empty((m + 2, x0.size))
        states[0], states[1:m + 1], states[-1] = x0, rows[:m], self.y
        stats = {"nfev": bdf.nfev, "njev": bdf.njev, "nlu": bdf.nlu,
                 "accepted": bdf.steps, "rejected": bdf.rejected}
        return times, states, bool(bdf.fired), stats


class OdeSimulator:
    """Deterministic simulator for one network under one rate resolution.

    Parameters
    ----------
    network:
        the reaction network.
    scheme:
        rate scheme resolving symbolic categories; defaults to the paper's
        ``fast=1000, slow=1``.
    rates:
        explicit per-reaction rate vector overriding ``scheme`` (used by the
        jittered-rate robustness experiments).
    method:
        one of :data:`METHODS`.  ``native-bdf`` runs scipy's BDF compiled
        into the kernel, on the analytic dense Jacobian whatever
        ``jacobian`` says, with no event or one terminal directional
        :class:`~repro.crn.simulation.margins.MarginEvent` (the
        machines' clock events, the ``events`` factories).  Without a
        kernel it runs the LSODA path instead, after the kernel's one
        ``RuntimeWarning``.
    jacobian:
        one of :data:`JACOBIAN_MODES`.  ``dense`` passes the analytic
        dense Jacobian; ``sparsity`` passes only the nonzero pattern via
        ``jac_sparsity`` (finite-difference entries, sparse solves);
        ``none`` lets the solver finite-difference a dense Jacobian.
        ``auto`` (default) picks ``sparsity`` for BDF/Radau on networks
        with at least 64 species and ``dense`` otherwise.  RK45 methods
        ignore the setting.  There is no analytic sparse mode: with
        identical Jacobian values, BDF's step control is sensitive to
        the sparse-LU backend on stiff compiled networks at loose
        tolerances (see ``docs/performance.md``), while the pattern-only
        path keeps both the sparse solves and the dense path's step
        sequence robustness.
    tracer / metrics:
        optional :class:`~repro.obs.tracer.Tracer` /
        :class:`~repro.obs.metrics.MetricsRegistry`; each ``simulate``
        call then records a ``solver`` span and solver-effort counters
        (``ode.nfev``, ``ode.njev``, event firings, wall time).  Both
        default to process-wide null singletons: the disabled path is a
        single attribute check.
    """

    def __init__(self, network: Network, scheme: RateScheme | None = None,
                 rates: np.ndarray | None = None, method: str = "LSODA",
                 rtol: float = 1e-7, atol: float = 1e-9,
                 jacobian: str = "auto", tracer=None, metrics=None):
        self._set_method(method)
        self.rtol = rtol
        self.atol = atol
        if jacobian not in JACOBIAN_MODES:
            raise SimulationError(f"unknown jacobian mode {jacobian!r}; "
                                  f"expected one of {JACOBIAN_MODES}")
        network.validate()
        self.network = network
        self.scheme = scheme or RateScheme()
        self.kinetics: MassActionKinetics = build_kinetics(
            network, self.scheme, rates)
        self.jacobian_mode = jacobian
        self.tracer = ensure_tracer(tracer)
        self.metrics = ensure_metrics(metrics)
        self._bdf = None  # the _NativeBdf, bound at the first native solve

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_bdf"] = None  # cffi handles do not pickle; rebind lazily
        return state

    def _set_method(self, method: str) -> None:
        if method not in METHODS:
            raise SimulationError(f"unknown method {method!r}; "
                                  f"expected one of {METHODS}")
        self.method = method

    @classmethod
    def _prototype(cls, network: Network, scheme: RateScheme,
                   rates: np.ndarray | None) -> "OdeSimulator":
        """A telemetry-free simulator on a frozen kinetics that never
        runs itself: :meth:`_fork` gives a runnable one."""
        prototype = cls(network, scheme, rates=rates)
        prototype.kinetics.freeze()
        return prototype

    def _fork(self, *, method: str, tracer=None,
              metrics=None) -> "OdeSimulator":
        """A simulator sharing this one's network, kinetics arrays and
        tolerances, with its own kinetics scratch
        (:meth:`MassActionKinetics.view`), method and telemetry."""
        fork = shallow_copy(self)
        fork._set_method(method)
        fork.kinetics = self.kinetics.view()
        fork._bdf = None
        fork.tracer = ensure_tracer(tracer)
        fork.metrics = ensure_metrics(metrics)
        return fork

    def _jacobian_options(self) -> dict:
        """`solve_ivp` keyword arguments implementing ``jacobian_mode``.

        Note scipy silently ignores ``jac_sparsity`` whenever a callable
        ``jac`` is supplied, so the modes are mutually exclusive here.
        """
        mode = self.jacobian_mode
        if mode == "none":
            return {}
        sparse_capable = self.method in ("BDF", "Radau")
        if mode == "auto":
            mode = ("sparsity" if sparse_capable
                    and self.network.n_species >= _SPARSE_AUTO_THRESHOLD
                    else "dense")
        if mode == "sparsity" and sparse_capable:
            return {"jac_sparsity": self.kinetics.jacobian_sparsity()}
        # ``dense``, or ``sparsity`` under LSODA (no jac_sparsity support).
        return {"jac": self.kinetics.jacobian}

    # -- single integration ----------------------------------------------------

    def simulate(self, t_final: float, *, t_start: float = 0.0,
                 initial: Mapping[str, float] | np.ndarray | None = None,
                 n_samples: int = 400,
                 events: Sequence | None = None,
                 event_hint: float | None = None) -> Trajectory:
        """Integrate from ``t_start`` to ``t_final``.

        ``initial`` may be a full state vector or a mapping of overrides on
        top of the network's declared initial quantities.  If a terminal
        event fires, the trajectory ends at the event time and
        ``trajectory.meta["event"]`` records which event index fired.  A
        :class:`~repro.crn.simulation.margins.MarginEvent` whose margin
        names a species outside the network raises on every method.

        ``event_hint`` is an optional estimate of the time-to-event, a
        positive finite duration.  The LSODA fast path (see
        :meth:`_simulate_lsoda`) searches in chunks sized from the hint,
        so a good estimate (e.g. the previous cycle's segment duration)
        keeps the search short; the result does not depend on it beyond
        the solver tolerances.  ``native-bdf`` checks the event after
        every step and ignores it.
        """
        check_time_span(t_start, t_final)
        if event_hint is not None and not (
                math.isfinite(event_hint) and event_hint > 0):
            raise SimulationError(
                f"event_hint must be a positive finite time-to-event "
                f"estimate, got {event_hint!r}")
        x0 = self._initial_state(initial)
        t_eval = np.linspace(t_start, t_final, max(int(n_samples), 2))
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0
        one_event = not events or (
            len(events) == 1 and getattr(events[0], "terminal", False)
            and getattr(events[0], "direction", 0.0) != 0.0)
        for event in events or ():
            if isinstance(event, MarginEvent) and \
                    event.margin.n_species > self.network.n_species:
                raise SimulationError(
                    "an event's margin names species outside the network")

        if self.method == "native-bdf":
            event = events[0] if events else None
            if not one_event or (event is not None
                                 and not isinstance(event, MarginEvent)):
                raise SimulationError(
                    "native-bdf supports no event, or one terminal "
                    "directional MarginEvent")
            bdf = self._native_bdf()
            if bdf:
                return self._simulate_native(bdf, t_start, t_final, x0,
                                             t_eval, event, telemetry,
                                             wall_start)
        if self.method in ("LSODA", "native-bdf") and one_event:
            return self._simulate_lsoda(
                t_start, t_final, x0, t_eval,
                events[0] if events else None, event_hint,
                telemetry, wall_start)

        if self.method == "internal-rk45":
            if events:
                raise SimulationError(
                    "internal-rk45 does not support events")
            stats: dict | None = {} if telemetry else None
            times, states = integrate_rk45(
                self.kinetics.rhs, (t_start, t_final), x0,
                rtol=self.rtol, atol=self.atol, dense_times=t_eval,
                stats=stats)
            trajectory = Trajectory(times, states,
                                    self.network.species_names)
            if telemetry:
                self._record_call(trajectory, perf_counter() - wall_start,
                                  t_start, stats or {})
            return trajectory

        kwargs = {}
        if self.method in ("BDF", "Radau", "LSODA"):
            kwargs.update(self._jacobian_options())
        solution = solve_ivp(
            self.kinetics.rhs, (t_start, t_final), x0,
            method=self.method, t_eval=t_eval, events=events,
            rtol=self.rtol, atol=self.atol, **kwargs)
        if not solution.success and solution.status != 1:
            raise SimulationError(f"ODE solver failed: {solution.message}")

        times = solution.t
        states = np.maximum(solution.y.T, 0.0)
        meta: dict = {}
        if solution.status == 1 and events:
            # A terminal event fired: record which, append the event state
            # unless the solver already sampled that time (the last t_eval
            # point can coincide with the event to within float spacing).
            for index, (t_events, x_events) in enumerate(
                    zip(solution.t_events, solution.y_events)):
                if len(t_events):
                    t_event = float(t_events[-1])
                    meta["event"] = index
                    meta["event_time"] = t_event
                    if (times.size == 0
                            or abs(times[-1] - t_event)
                            > 1e-12 * max(1.0, abs(t_event))):
                        times = np.append(times, t_event)
                        states = np.vstack(
                            [states, np.maximum(x_events[-1], 0.0)])
                    break
        trajectory = Trajectory(times, states, self.network.species_names,
                                meta)
        if telemetry:
            self._record_call(
                trajectory, perf_counter() - wall_start, t_start,
                {"nfev": int(solution.nfev),
                 "njev": int(solution.njev or 0),
                 "nlu": int(solution.nlu or 0)})
        return trajectory

    # -- compiled BDF --------------------------------------------------------------

    def _native_bdf(self):
        """This simulator's :class:`_NativeBdf`, or ``False`` when there
        is no kernel (the kinetics binding loads it)."""
        bdf = self._bdf
        if bdf is None:
            call = self.kinetics._kernel_call
            if call is None:
                call = self.kinetics._bind()
            bdf = self._bdf = (_NativeBdf(native.load(), call[3],
                                          self.network.n_species)
                               if call else False)
        return bdf

    def _simulate_native(self, bdf: _NativeBdf, t_start: float,
                         t_final: float, x0: np.ndarray,
                         t_eval: np.ndarray, event, telemetry: bool,
                         wall_start: float) -> Trajectory:
        """One ``repro_bdf`` call over the segment: the event's margin is
        evaluated after every accepted step and its first crossing
        located on the step's interpolant, which also gives the rows at
        ``t_eval``."""
        table, direction = (None, 0.0) if event is None else (
            event.margin, float(event.direction))
        times, states, fired, stats = bdf.solve(
            x0, t_start, t_final, t_eval[1:], table, direction,
            self.rtol, self.atol)
        meta = {"event": 0, "event_time": float(times[-1])} if fired else {}
        trajectory = Trajectory(times, np.maximum(states, 0.0, out=states),
                                self.network.species_names, meta)
        if telemetry:
            self._record_call(trajectory, perf_counter() - wall_start,
                              t_start, stats)
        return trajectory

    # -- LSODA fast path ---------------------------------------------------------

    def _simulate_lsoda(self, t_start: float, t_final: float,
                        x0: np.ndarray, t_eval: np.ndarray, event,
                        event_hint: float | None, telemetry: bool,
                        wall_start: float) -> Trajectory:
        """Integrate with scipy's LSODA core, without ``solve_ivp``.

        ``solve_ivp``'s LSODA wrapper steps through Python once per solver
        step -- for the machine's stiff cycle segments that per-step
        overhead, plus the event machinery evaluated on every step,
        dominates the wall time.  A plain solve hands the whole sample
        grid to ``odeint`` in one call.

        A single terminal directional event (the only kind the machine
        drivers use) is located by bracketing: walk chunks sized from
        ``event_hint`` (doubling while nothing fires), evaluating the
        event after each sample point and stopping at the first pair
        that brackets a crossing, then shrink the bracket with short
        walks and interpolate the crossing.  The located time agrees
        with solve_ivp's root-finding to well below the solver
        tolerances.
        """
        stats = {"nfev": 0, "njev": 0}
        if event is None:
            states = self._odeint_span(x0, t_eval, stats)
            times, states, meta = t_eval, states, {}
        else:
            times, states, meta = self._locate_event(
                t_start, t_final, x0, t_eval, event, event_hint, stats)
        trajectory = Trajectory(times, np.maximum(states, 0.0),
                                self.network.species_names, meta)
        if telemetry:
            self._record_call(trajectory, perf_counter() - wall_start,
                              t_start, stats, "LSODA")
        return trajectory

    def _jacobian_callable(self):
        """Analytic Jacobian for LSODA, or ``None`` to finite-difference."""
        return (self.kinetics.jacobian
                if self.jacobian_mode != "none" else None)

    def _odeint_span(self, x0: np.ndarray, t_points: np.ndarray,
                     stats: dict) -> np.ndarray:
        """States at ``t_points`` (strictly increasing, ``t_points[0]`` is
        the initial time) integrating from ``x0``; accumulates solver
        effort into ``stats``."""
        states, info = odeint(
            self.kinetics.rhs, x0, t_points, args=_BORROW,
            Dfun=self._jacobian_callable(), tfirst=True, rtol=self.rtol,
            atol=self.atol, full_output=True, mxstep=_MXSTEP)
        if info["message"] != "Integration successful.":
            raise SimulationError(
                f"ODE solver failed: {info['message']}")
        stats["nfev"] += int(info["nfe"][-1])
        stats["njev"] += int(info["nje"][-1])
        return states

    @staticmethod
    def _crosses(g_from: float, g_to: float, direction: float) -> bool:
        """Whether event values ``g_from -> g_to`` bracket a crossing.

        Matches solve_ivp's semantics for directional events except that
        the *from* side must be strictly on the wrong side of zero, so an
        initial state sitting exactly on the event surface does not
        re-fire (the machine's boundary condition holds exactly at each
        fresh boundary).
        """
        if direction > 0:
            return g_from < 0.0 <= g_to
        return g_from > 0.0 >= g_to

    # Both walks integrate from ``x0`` through the strictly increasing
    # ``pts`` (``pts[0]`` is the initial time), evaluate the event at
    # each point (``g0``, when given, replaces the value at ``pts[0]``)
    # and return ``(states, g, k)``: the rows and event values up to and
    # including the first pair ``k, k + 1`` that brackets a crossing,
    # or all of them with ``k = None``.  The rows are bitwise equal.

    def _walk_lsoda(self, x0, pts, event, direction, g0, stats):
        """One resumable LSODA run, stopping at the first crossing."""
        lsoda, n_doubles, n_ints, messages = _resumable_lsoda()
        rwork, iwork, doubles, ints = _work_arrays(x0.size, n_doubles,
                                                   n_ints)
        jac = self._jacobian_callable()
        rhs, jt = self.kinetics.rhs, 2 if jac is None else 1
        states, g = np.empty((pts.size, x0.size)), np.empty(pts.size)
        states[0] = x0
        g[0] = event(float(pts[0]), x0) if g0 is None else g0
        y, t, istate, i, k = x0.copy(), float(pts[0]), 1, 0, None
        for i in range(1, pts.size):
            # lsoda overwrites and returns ``y``; every row is a copy.
            y, t, istate = lsoda(rhs, y, t, float(pts[i]), self.rtol,
                                 self.atol, 1, istate, rwork, iwork, jac,
                                 jt, _BORROW, 1, _BORROW, doubles, ints)
            if istate < 0:
                break
            states[i] = y
            g[i] = event(float(pts[i]), states[i])
            if self._crosses(g[i - 1], g[i], direction):
                k = i - 1
                break
        if istate != 2:  # as odeint: 1 when nothing was integrated
            raise SimulationError(f"ODE solver failed: {messages[istate]}")
        stats["nfev"] += int(iwork[11])
        stats["njev"] += int(iwork[12])
        return states[:i + 1], g[:i + 1], k

    def _walk_odeint(self, x0, pts, event, direction, g0, stats):
        """The twin: ``odeint`` over all of ``pts``, then a scan."""
        states = self._odeint_span(x0, pts, stats)
        g = np.array([event(float(t), x) for t, x in zip(pts, states)])
        if g0 is not None:
            g[0] = g0
        k = next((i for i in range(g.size - 1)
                  if self._crosses(g[i], g[i + 1], direction)), None)
        if k is None:
            return states, g, None
        return states[:k + 2], g[:k + 2], k

    @staticmethod
    def _rows_for(pts: np.ndarray, states: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
        """Rows of ``states`` at the sample points nearest ``targets``."""
        idx = np.clip(pts.searchsorted(targets), 1, pts.size - 1)
        idx = np.where(np.abs(pts[idx - 1] - targets)
                       <= np.abs(pts[idx] - targets), idx - 1, idx)
        return states[idx]

    def _locate_event(self, t_start: float, t_final: float,
                      x0: np.ndarray, t_eval: np.ndarray, event,
                      event_hint: float | None, stats: dict
                      ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Chunked walk-and-bracket search for one terminal event."""
        walk = (self._walk_lsoda if _resumable_lsoda() is not None
                else self._walk_odeint)
        direction = float(event.direction)
        span = t_final - t_start
        tiny = 1e-12 * max(1.0, abs(t_final))
        # The event function can hold the triggering sign only briefly
        # (the machine's boundary condition is satisfied for a fraction
        # of a phase), so the sign watch needs sampling much finer than
        # the window: 65 points per chunk, chunks starting well below the
        # span (the span is a stall timeout, not a dynamics scale) and
        # growing no further than 8x so the sample spacing stays bounded.
        # A hint shrinks the first chunk at most 256x below the no-hint
        # one, and never so far that its 65 points fall within ``tiny``
        # of each other, so even a vanishing hint advances and ends.
        chunk = span / 256.0
        if event_hint:
            chunk = min(span, max(1.5 * event_hint, chunk / 256.0,
                                  128.0 * tiny))
        chunk_cap = min(span, 8.0 * chunk)
        kept_t: list[float] = [t_start]
        kept_x: list[np.ndarray] = [x0]
        a, xa = t_start, x0
        bracket = None
        while a < t_final - tiny:
            b = min(a + chunk, t_final)
            inside = t_eval[(t_eval > a + tiny) & (t_eval <= b + tiny)]
            pts = np.unique(np.concatenate(
                [inside, np.linspace(a, b, 65)]))
            pts = pts[np.concatenate([[True], np.diff(pts) > tiny])]
            states, g, k = walk(xa, pts, event, direction, None, stats)
            if k is None:
                kept_t.extend(inside.tolist())
                kept_x.extend(self._rows_for(pts, states, inside))
                a, xa = float(pts[-1]), states[-1]
                chunk = min(2.0 * chunk, chunk_cap)
                continue
            bracket = (float(pts[k]), float(pts[k + 1]),
                       states[k], float(g[k]), float(g[k + 1]))
            inside = inside[inside <= bracket[0] + tiny]
            kept_t.extend(inside.tolist())
            kept_x.extend(self._rows_for(pts[:k + 2], states, inside))
            break
        if bracket is None:
            return (np.array(kept_t), np.vstack(kept_x), {})

        ta, tb, ya, ga, gb = bracket
        for _ in range(3):
            if tb - ta <= 64.0 * tiny:
                break
            sub = np.linspace(ta, tb, 13)
            # Re-evaluating the event at ta can differ by rounding.
            states, g, k = walk(ya, sub, event, direction, ga, stats)
            if k is None:
                break
            ta, tb = float(sub[k]), float(sub[k + 1])
            ya, ga, gb = states[k], float(g[k]), float(g[k + 1])
        fraction = 1.0 if gb == ga else ga / (ga - gb)
        t_event = ta + (tb - ta) * min(max(fraction, 0.0), 1.0)
        if t_event - ta <= tiny:
            x_event = ya
        else:
            x_event = self._odeint_span(
                ya, np.array([ta, t_event]), stats)[-1]
        meta = {"event": 0, "event_time": t_event}
        if abs(kept_t[-1] - t_event) > 1e-12 * max(1.0, abs(t_event)):
            kept_t.append(t_event)
            kept_x.append(x_event)
        return np.array(kept_t), np.vstack(kept_x), meta

    def _record_call(self, trajectory: Trajectory, wall: float,
                     t_start: float, stats: dict,
                     method: str | None = None) -> None:
        """Solver-effort bookkeeping for one completed ``simulate``;
        ``method`` names the solver that ran (``native-bdf`` without a
        kernel runs LSODA), by default ``self.method``."""
        method = method or self.method
        nfev = int(stats.get("nfev", 0))
        njev = int(stats.get("njev", 0))
        event_fired = "event" in trajectory.meta
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("ode.calls")
            metrics.inc("ode.nfev", nfev)
            metrics.inc("ode.njev", njev)
            metrics.inc("ode.nlu", stats.get("nlu", 0))
            if "accepted" in stats:
                metrics.inc("ode.steps_accepted", stats["accepted"])
                metrics.inc("ode.steps_rejected",
                            stats.get("rejected", 0))
            if event_fired:
                metrics.inc("ode.events")
            # LSODA switches to its stiff (BDF) mode before it ever asks
            # for a Jacobian, so njev > 0 is the observable proxy for a
            # stiff-fallback activation.
            if method == "LSODA" and njev:
                metrics.inc("ode.stiff_activations")
            metrics.observe("ode.wall_seconds", wall)
        if self.tracer.enabled:
            args = {"nfev": nfev, "wall": round(wall, 6)}
            if njev:
                args["njev"] = njev
            if stats.get("nlu"):
                args["nlu"] = int(stats["nlu"])
            if "accepted" in stats:
                args["accepted"] = int(stats["accepted"])
                args["rejected"] = int(stats.get("rejected", 0))
            if event_fired:
                args["event"] = trajectory.meta["event"]
            self.tracer.emit_span(f"solve:{method}", "solver",
                                  t_start, trajectory.t_final, args)

    # -- helpers ----------------------------------------------------------------

    def _initial_state(self, initial) -> np.ndarray:
        """Initial amounts as a fresh float64 vector; a non-finite amount
        raises naming the species, as SSA's initial counts do."""
        if initial is None:
            x0 = self.network.initial_vector()
        elif isinstance(initial, Mapping):
            x0 = self.network.initial_vector(initial)
        else:
            x0 = np.array(initial, dtype=float)
            if x0.shape != (self.network.n_species,):
                raise SimulationError(
                    f"initial state has shape {x0.shape}, expected "
                    f"({self.network.n_species},)")
        bad = np.flatnonzero(~np.isfinite(x0))
        if bad.size:
            index = int(bad[0])
            raise SimulationError(
                f"initial amount of "
                f"{self.network.species_names[index]!r} is "
                f"{float(x0[index])!r}: ODE amounts must be finite")
        return x0
