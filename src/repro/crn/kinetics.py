"""Mass-action kinetics: compiled right-hand sides, propensities, Jacobians.

Deterministic semantics (used by the ODE simulators)
    rate_j = k_j * prod_s x_s ** E[j, s]
    dx/dt  = S @ rate

Stochastic semantics (used by SSA / tau-leaping)
    a_j = c_j * prod_s C(x_s, E[j, s])
    c_j = k_j * prod_s E[j, s]! / V ** (order_j - 1)

With volume ``V`` equal to the count scale, the SSA mean converges to the
ODE trajectory for large counts, which one of the integration tests checks.

Compilation strategy
--------------------
Almost every reaction in the paper's constructions is zeroth, first or
second order, so :class:`MassActionKinetics` compiles the exponent matrix
into a *two-factor* form: each reaction of order <= 2 is described by two
gather indices into an extended state buffer whose last slot is the
constant 1.0.  Monomials, propensities and the Jacobian nonzeros then
evaluate as a handful of vectorized gather-multiplies with no Python loop
over reactions.  Reactions of order >= 3 (or with a single exponent >= 3)
fall back to a per-reaction loop over a CSR-style nonzero list; they are
rare and the fallback touches only those rows.

``dx/dt`` and the Jacobian are fixed-order scatters over flat index
arrays (``np.bincount`` in NumPy), not BLAS products, whose summation
order depends on the BLAS build and CPU.  :meth:`MassActionKinetics.rhs`
and :meth:`~MassActionKinetics.jacobian` run them through the compiled
kernel of :mod:`repro.crn.native` when one is available; the NumPy twins
``rhs_numpy``/``jacobian_numpy`` walk the same arrays in the same order
and agree with it bitwise.

:class:`DenseKineticsReference` keeps the straightforward dense
implementation; the golden-equivalence test suite asserts both engines
agree on every example network.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crn import native
from repro.crn.network import Network
from repro.errors import SimulationError


class MassActionKinetics:
    """Compiled sparse mass-action kinetics for one network + rate vector.

    Attributes of interest to the simulators:

    ``exponents`` / ``stoich``
        dense (R, S) exponent and (S, R) net-stoichiometry matrices.
    ``jacobian_sparsity()``
        (S, S) 0/1 pattern of the state Jacobian, suitable for scipy's
        ``jac_sparsity`` argument to BDF/Radau.
    ``reaction_dependencies()``
        reaction -> affected-reactions adjacency used by the
        incremental-propensity SSA core.
    """

    def __init__(self, network: Network, rates: np.ndarray):
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (network.n_reactions,):
            raise ValueError(
                f"rate vector has shape {rates.shape}, expected "
                f"({network.n_reactions},)")
        self.network = network
        self.rates = rates
        self.exponents = network.reactant_matrix()          # (R, S)
        self.stoich = network.stoichiometry_matrix()        # (S, R)
        self._reactant_lists = [
            [(int(s), int(e)) for s, e in zip(*_row_nonzero(self.exponents, j))]
            for j in range(network.n_reactions)
        ]
        self._compile()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # cffi handles do not pickle; rebind lazily
        state["_kernel"] = state["_kernel_call"] = None
        return state

    def view(self) -> "MassActionKinetics":
        """This kinetics with its own scratch buffers and an unbound
        kernel, sharing every compiled array (and the cached CSR tables)
        with it: one per simulator, so no two simulators -- or threads
        -- write the same scratch."""
        view = shallow_copy(self)
        view._xbuf = np.ones(self.n_species + 1)
        view._cbuf = np.ones(2 * (self.n_species + 1))
        view._kernel = view._kernel_call = None
        return view

    def freeze(self) -> None:
        """Make every array read-only, the scratch buffers and any CSR
        tables computed so far included: a frozen kinetics is only ever
        evaluated through a :meth:`view`."""
        for value in vars(self).values():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> None:
        n_r, n_s = self.exponents.shape
        self.n_reactions = n_r
        self.n_species = n_s
        sentinel = n_s  # extended-buffer slot holding the constant 1.0
        factor_a = np.full(n_r, sentinel, dtype=np.intp)
        factor_b = np.full(n_r, sentinel, dtype=np.intp)
        pair_same = np.zeros(n_r, dtype=bool)
        generic: list[int] = []
        # d(rate)/dx nonzeros of order <= 2 rows: coeff * k_j * xe[gather].
        jac_r: list[int] = []
        jac_c: list[int] = []
        jac_coeff: list[float] = []
        jac_g: list[int] = []
        for j, reactants in enumerate(self._reactant_lists):
            order = sum(e for _, e in reactants)
            if order == 0:
                continue
            if order == 1:
                s = reactants[0][0]
                factor_a[j] = s
                jac_r.append(j); jac_c.append(s)
                jac_coeff.append(1.0); jac_g.append(sentinel)
            elif order == 2 and len(reactants) == 1:
                s = reactants[0][0]                        # 2X -> ...
                factor_a[j] = factor_b[j] = s
                pair_same[j] = True
                jac_r.append(j); jac_c.append(s)
                jac_coeff.append(2.0); jac_g.append(s)
            elif order == 2:
                (sa, _), (sb, _) = reactants               # X + Y -> ...
                factor_a[j] = sa
                factor_b[j] = sb
                jac_r.append(j); jac_c.append(sa)
                jac_coeff.append(1.0); jac_g.append(sb)
                jac_r.append(j); jac_c.append(sb)
                jac_coeff.append(1.0); jac_g.append(sa)
            else:
                generic.append(j)
        self._factor_a = factor_a
        self._factor_b = factor_b
        self._pair_same = pair_same
        self._generic_rows = np.array(generic, dtype=np.intp)
        self._generic_lists = [(j, self._reactant_lists[j]) for j in generic]
        self._drate_gather = np.array(jac_g, dtype=np.intp)
        # rates never change after construction, so fold them in.
        self._drate_scale = (np.array(jac_coeff)
                             * self.rates[np.array(jac_r, dtype=np.intp)])
        # Every d(rate_j)/dx_c entry: the order <= 2 ones above, then one
        # per (generic row, reactant) in _generic_lists order.
        generic_pairs = [(j, s) for j, reactants in self._generic_lists
                         for s, _ in reactants]
        self._drate_rows = np.array(jac_r + [j for j, _ in generic_pairs],
                                    dtype=np.intp)
        self._drate_cols = np.array(jac_c + [s for _, s in generic_pairs],
                                    dtype=np.intp)
        self._compile_scatters()
        # Stochastic second-factor gather: slot fB for distinct factors,
        # slot (n_s + 1 + s) for the (x_s - 1)/2 half-pair factor of 2X.
        stoch_b = factor_b.copy()
        stoch_b[pair_same] = n_s + 1 + factor_a[pair_same]
        self._stoch_factor_b = stoch_b
        # Reusable buffers (simulators are single-threaded per instance,
        # and each simulator evaluates its own view()).
        self._xbuf = np.ones(n_s + 1)
        self._cbuf = np.ones(2 * (n_s + 1))
        self._kernel = None         # compiled-kernel binding, bound lazily
        self._kernel_call = None    # its _KernelBinding.call, or ()
        self._fire = None           # fire_csr(), computed on first use
        self._dependency = None     # dependency_csr(), likewise
        self._ssa_index = None      # the SSA loop's packed index arrays

    def _compile_scatters(self) -> None:
        """Fixed-order scatters for ``dx/dt`` and the Jacobian.

        ``rhs`` is ``out[s] += coef * rate[j]`` over the stoichiometry
        nonzeros ``(s, j)`` in row-major order.  ``jacobian`` is
        ``J.flat[s*S + c] += coef * drate[k]`` with one term per
        stoichiometry entry ``(s, j)`` and d(rate) entry ``k = (j, c)``,
        ordered by ``s`` and then ``k``.  Both executors sum in exactly
        this order, which is what makes them agree bitwise; a BLAS
        product would sum in an order that depends on the build and CPU.
        """
        rows, cols = np.nonzero(self.stoich)
        self._stoich_rows, self._stoich_cols = rows, cols
        self._stoich_coef = self.stoich[rows, cols].astype(float)
        by_entry = self.stoich[:, self._drate_rows]          # (S, K)
        species, entry = np.nonzero(by_entry)
        self._jac_target = species * self.n_species + self._drate_cols[entry]
        self._jac_entry = entry
        self._jac_coef = by_entry[species, entry].astype(float)

    # -- deterministic -------------------------------------------------------

    def monomials(self, x: np.ndarray) -> np.ndarray:
        """Vector of mass-action monomials ``prod_s x_s ** E[j, s]``."""
        xe = self._xbuf
        np.maximum(x, 0.0, out=xe[:self.n_species])
        m = xe[self._factor_a]
        m *= xe[self._factor_b]
        for j, reactants in self._generic_lists:
            value = 1.0
            for s, e in reactants:
                value *= xe[s] ** e
            m[j] = value
        return m

    def reaction_rates(self, x: np.ndarray) -> np.ndarray:
        """Vector of mass-action reaction rates at state ``x``."""
        m = self.monomials(x)
        m *= self.rates
        return m

    def _bind(self) -> tuple:
        """Bind the compiled kernel: its :attr:`_KernelBinding.call`, or
        ``()`` when there is none (``_kernel`` is then ``False``)."""
        kernel = self._kernel = _bind_kernel(self)
        self._kernel_call = kernel.call if kernel else ()
        return self._kernel_call

    def rhs(self, t: float, x: np.ndarray,
            borrow: bool = False) -> np.ndarray:
        """ODE right-hand side ``dx/dt``.

        Runs the compiled kernel (:mod:`repro.crn.native`) when it is
        available and ``x`` is a contiguous float64 state vector, and the
        NumPy twin :meth:`rhs_numpy` otherwise; the two agree bitwise.

        With ``borrow=True`` the compiled path returns the kernel's own
        output buffer, which the next :meth:`rhs` call on this kinetics
        overwrites; only a caller that copies the values out before it
        calls again (scipy's LSODA copies every callback result into its
        own array) may pass it.  The twin always returns a fresh array.
        """
        call = self._kernel_call
        if call is None:
            call = self._bind()
        if call:
            shape, from_buffer, doubles, ctx, kernel, out, _, _ = call
            if (x.__class__ is np.ndarray and x.dtype is _FLOAT64
                    and x.shape == shape):
                try:
                    state = from_buffer(doubles, x)
                except ValueError:  # not C-contiguous
                    pass
                else:
                    kernel(ctx, state)
                    return out if borrow else out.copy()
        return self.rhs_numpy(t, x)

    def rhs_numpy(self, t: float, x: np.ndarray) -> np.ndarray:
        """NumPy twin of the compiled :meth:`rhs` (same order, same bits)."""
        rate = self.reaction_rates(x)
        # An empty bincount is int64: the cast keeps float64 zeros.
        return np.bincount(self._stoich_rows,
                           weights=self._stoich_coef * rate[self._stoich_cols],
                           minlength=self.n_species).astype(float, copy=False)

    def _drate_values(self, x: np.ndarray) -> np.ndarray:
        """Every d(rate)/dx entry, in ``_drate_rows``/``_drate_cols`` order."""
        xe = self._xbuf
        np.maximum(x, 0.0, out=xe[:self.n_species])
        values = np.empty(len(self._drate_rows))
        n_simple = len(self._drate_gather)
        values[:n_simple] = self._drate_scale * xe[self._drate_gather]
        k = n_simple
        for j, reactants in self._generic_lists:
            full = self.rates[j]
            for s, e in reactants:
                full *= xe[s] ** e
            for s, e in reactants:
                xs = xe[s]
                if xs > 0.0:
                    values[k] = full * e / xs
                elif e == 1:
                    others = self.rates[j]
                    for s2, e2 in reactants:
                        if s2 != s:
                            others *= xe[s2] ** e2
                    values[k] = others
                else:
                    values[k] = 0.0  # d(x^e)/dx at x = 0 for e >= 2
                k += 1
        return values

    def _jacobian_weights(self, x: np.ndarray) -> np.ndarray:
        return self._jac_coef * self._drate_values(x)[self._jac_entry]

    def jacobian(self, t: float, x: np.ndarray,
                 borrow: bool = False) -> np.ndarray:
        """Analytic Jacobian ``d(dx/dt)/dx`` (dense array).

        Compiled when available, like :meth:`rhs`; bitwise equal to
        :meth:`jacobian_numpy`.  ``borrow`` is :meth:`rhs`'s.
        """
        call = self._kernel_call
        if call is None:
            call = self._bind()
        if call:
            shape, from_buffer, doubles, ctx, _, _, kernel, out = call
            if (x.__class__ is np.ndarray and x.dtype is _FLOAT64
                    and x.shape == shape):
                try:
                    state = from_buffer(doubles, x)
                except ValueError:  # not C-contiguous
                    pass
                else:
                    kernel(ctx, state)
                    return out if borrow else out.copy()
        return self.jacobian_numpy(t, x)

    def jacobian_numpy(self, t: float, x: np.ndarray) -> np.ndarray:
        """NumPy twin of the compiled :meth:`jacobian`."""
        n_s = self.n_species
        return np.bincount(self._jac_target,
                           weights=self._jacobian_weights(x),
                           minlength=n_s * n_s).astype(
                               float, copy=False).reshape(n_s, n_s)

    def jacobian_sparsity(self) -> np.ndarray:
        """(S, S) 0/1 nonzero pattern of :meth:`jacobian`.

        Row s may depend on column s' iff some reaction both changes s
        and has s' as a reactant.  Suitable for scipy's ``jac_sparsity``.
        """
        n_s = self.n_species
        pattern = np.zeros(n_s * n_s, dtype=np.int8)
        pattern[self._jac_target] = 1
        return pattern.reshape(n_s, n_s)

    # -- stochastic ----------------------------------------------------------

    def stochastic_constants(self, volume: float = 1.0) -> np.ndarray:
        """Per-reaction stochastic rate constants ``c_j``.  ``volume``
        must be finite and positive."""
        if not (math.isfinite(volume) and volume > 0):
            raise SimulationError(
                f"volume must be finite and > 0, got {float(volume)!r}")
        constants = np.empty(len(self.rates))
        for j, reactants in enumerate(self._reactant_lists):
            order = sum(e for _, e in reactants)
            factor = 1.0
            for _, e in reactants:
                factor *= math.factorial(e)
            constants[j] = self.rates[j] * factor / volume ** max(order - 1, 0)
            if order == 0:
                constants[j] = self.rates[j] * volume
        return constants

    def _fill_count_buffer(self, counts: np.ndarray) -> np.ndarray:
        """Extended stochastic gather buffer for integer state ``counts``.

        Layout: ``[counts..., 1.0, (counts - 1) / 2..., 1.0]`` -- the
        second half provides the C(n, 2) = n * (n-1)/2 factor for 2X
        reactions without a branch in the hot path.
        """
        n_s = self.n_species
        cb = self._cbuf
        cb[:n_s] = counts
        cb[n_s + 1:2 * n_s + 1] = (cb[:n_s] - 1.0) * 0.5
        return cb

    def propensities(self, counts: np.ndarray,
                     constants: np.ndarray) -> np.ndarray:
        """SSA propensities at integer state ``counts``."""
        cb = self._fill_count_buffer(counts)
        a = constants * cb[self._factor_a]
        a *= cb[self._stoch_factor_b]
        for j, reactants in self._generic_lists:
            a[j] = self.propensity_of(j, counts, constants)
        return a

    def propensity_of(self, j: int, counts: np.ndarray,
                      constants: np.ndarray) -> float:
        """Propensity of one reaction (generic-order scalar path)."""
        value = float(constants[j])
        for s, e in self._reactant_lists[j]:
            n = counts[s]
            if n < e:
                return 0.0
            combos = 1.0
            for i in range(e):
                combos *= (n - i)
            combos /= math.factorial(e)
            value *= combos
        return value

    # -- structure -----------------------------------------------------------

    def reaction_dependencies(self) -> list[np.ndarray]:
        """Reaction dependency graph for incremental propensity updates.

        ``deps[j]`` holds the indices of every reaction whose propensity
        may change when reaction ``j`` fires: reactions with at least one
        reactant among the species whose *net* count ``j`` changes.  A
        catalytic reaction (e.g. ``A -> A + B``) does not depend on
        itself unless some reactant's net count changes.
        """
        ptr, rows = self.dependency_csr()
        return [rows[ptr[j]:ptr[j + 1]] for j in range(self.n_reactions)]

    def dependency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`reaction_dependencies` as CSR arrays ``(ptr, rows)``:
        the dependents of reaction ``j`` are ``rows[ptr[j]:ptr[j + 1]]``,
        ascending.  Computed once per kinetics and shared by its views.

        One boolean product: entry ``[j, i]`` of (net change of ``j``) x
        (reactants of ``i``) holds when the two share a species.
        """
        if self._dependency is None:
            affected = (self.stoich != 0).T @ (self.exponents != 0).T
            firing, rows = np.nonzero(affected)
            self._dependency = (
                np.searchsorted(firing, np.arange(self.n_reactions + 1)),
                rows)
        return self._dependency

    def fire_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each reaction's net change as CSR arrays ``(ptr, species,
        delta)``: firing reaction ``j`` adds the int64 ``delta[k]`` to
        ``species[k]`` for ``k`` in ``ptr[j]:ptr[j + 1]``.  Computed once
        per kinetics and shared by its views."""
        if self._fire is None:
            firing, species = np.nonzero(self.stoich.T)
            self._fire = (
                np.searchsorted(firing, np.arange(self.n_reactions + 1)),
                species,
                self.stoich.T[firing, species].astype(np.int64))
        return self._fire


class DenseKineticsReference:
    """Straightforward dense mass-action kinetics (golden reference).

    Implements the textbook formulas with dense ``(R, S)`` matrix
    arithmetic and explicit Python loops.  It is deliberately naive: the
    equivalence test suite runs it against :class:`MassActionKinetics`
    on every example network to pin down the compiled engine.
    """

    def __init__(self, network: Network, rates: np.ndarray):
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (network.n_reactions,):
            raise ValueError(
                f"rate vector has shape {rates.shape}, expected "
                f"({network.n_reactions},)")
        self.network = network
        self.rates = rates
        self.exponents = network.reactant_matrix()
        self.stoich = network.stoichiometry_matrix()
        self._nz_rows, self._nz_cols = np.nonzero(self.exponents)
        self._nz_exp = self.exponents[self._nz_rows, self._nz_cols]
        self._reactant_lists = [
            [(s, int(e)) for s, e in zip(*_row_nonzero(self.exponents, j))]
            for j in range(network.n_reactions)
        ]

    def reaction_rates(self, x: np.ndarray) -> np.ndarray:
        x = np.maximum(x, 0.0)
        # x ** 0 == 1, so the dense power handles absent reactants.
        monomials = np.prod(np.power(x[None, :], self.exponents), axis=1)
        return self.rates * monomials

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.stoich @ self.reaction_rates(x)

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.maximum(x, 0.0)
        n_r, n_s = self.exponents.shape
        drate = np.zeros((n_r, n_s))
        full = self.rates * np.prod(np.power(x[None, :], self.exponents),
                                    axis=1)
        for j, s, e in zip(self._nz_rows, self._nz_cols, self._nz_exp):
            xs = x[s]
            if xs > 0:
                drate[j, s] = full[j] * e / xs
            else:
                others = self.rates[j]
                for s2 in np.nonzero(self.exponents[j])[0]:
                    if s2 == s:
                        continue
                    others *= x[s2] ** self.exponents[j, s2]
                drate[j, s] = others * (e if e == 1 else 0.0)
                # For e >= 2 the derivative at x_s = 0 is 0.
        return self.stoich @ drate

    def stochastic_constants(self, volume: float = 1.0) -> np.ndarray:
        constants = np.empty(len(self.rates))
        for j, reactants in enumerate(self._reactant_lists):
            order = sum(e for _, e in reactants)
            factor = 1.0
            for _, e in reactants:
                factor *= math.factorial(e)
            constants[j] = self.rates[j] * factor / volume ** max(order - 1, 0)
            if order == 0:
                constants[j] = self.rates[j] * volume
        return constants

    def propensities(self, counts: np.ndarray,
                     constants: np.ndarray) -> np.ndarray:
        a = constants.copy()
        for j, reactants in enumerate(self._reactant_lists):
            for s, e in reactants:
                n = counts[s]
                if n < e:
                    a[j] = 0.0
                    break
                combos = 1.0
                for i in range(e):
                    combos *= (n - i)
                combos /= math.factorial(e)
                a[j] *= combos
        return a


def shallow_copy(obj):
    """A new instance of ``obj``'s class sharing every attribute value:
    what :func:`copy.copy` gives a plain object, without its reduce
    protocol (a few microseconds per copy, paid on every machine)."""
    clone = object.__new__(type(obj))
    clone.__dict__.update(obj.__dict__)
    return clone


def _row_nonzero(matrix: np.ndarray, row: int):
    cols = np.nonzero(matrix[row])[0]
    return cols, matrix[row, cols]


_FLOAT64 = np.dtype(np.float64)


class _KernelBinding:
    """One network's compiled arrays packed into the kernel's struct.

    Every array the struct points to lives in one int64 and one float64
    buffer owned by the binding, including the scratch space and the
    ``rhs_out``/``jac_out`` outputs the kernel writes.  ``call`` holds
    what :meth:`MassActionKinetics.rhs` and ``jacobian`` need, in one
    tuple they unpack: the state shape, the ``double[]`` cast of a state
    vector, the struct, and each kernel function with its output.
    """

    def __init__(self, module, kinetics: MassActionKinetics):
        ffi, lib = module.ffi, module.lib
        k = kinetics
        n_s = k.n_species
        generic = [reactants for _, reactants in k._generic_lists]
        ints = {
            "factor_a": k._factor_a,
            "factor_b": k._factor_b,
            "generic_rows": k._generic_rows,
            "generic_ptr": np.cumsum([0] + [len(r) for r in generic]),
            "generic_species": [s for r in generic for s, _ in r],
            "stoich_rows": k._stoich_rows,
            "stoich_cols": k._stoich_cols,
            "drate_gather": k._drate_gather,
            "jac_target": k._jac_target,
            "jac_entry": k._jac_entry,
        }
        doubles = {
            "rates": k.rates,
            "generic_exp": [e for r in generic for _, e in r],
            "stoich_coef": k._stoich_coef,
            "drate_scale": k._drate_scale,
            "jac_coef": k._jac_coef,
            "xe": np.ones(n_s + 1),
            "work": np.empty(max(k.n_reactions, len(k._drate_rows))),
            "rhs_out": np.empty(n_s),
            "jac_out": np.empty(n_s * n_s),
        }
        ctx = ffi.new("repro_kinetics *")
        self._ints, _ = native.pack(ffi, ctx, ints, np.int64, "int64_t[]")
        self._floats, views = native.pack(ffi, ctx, doubles, np.float64,
                                          "double[]")
        self.rhs_out = views["rhs_out"]
        self.jac_out = views["jac_out"].reshape(n_s, n_s)
        ctx.n_species = n_s
        ctx.n_reactions = k.n_reactions
        ctx.n_generic = len(generic)
        ctx.n_stoich = len(k._stoich_rows)
        ctx.n_drate = len(k._drate_gather)
        ctx.n_jac = len(k._jac_target)
        self.call = ((n_s,), ffi.from_buffer, ffi.typeof("double[]"), ctx,
                     lib.repro_rhs, self.rhs_out,
                     lib.repro_jacobian, self.jac_out)


def _bind_kernel(kinetics: MassActionKinetics):
    """A :class:`_KernelBinding`, or ``False`` when there is no kernel."""
    module = native.load()
    return _KernelBinding(module, kinetics) if module is not None else False


def build_kinetics(network: Network, scheme=None,
                   rates: np.ndarray | None = None) -> MassActionKinetics:
    """Resolve rates (via scheme or explicit vector) and compile kinetics."""
    from repro.crn.rates import RateScheme

    if rates is None:
        scheme = scheme or RateScheme()
        rates = network.rate_vector(scheme)
    kinetics = MassActionKinetics(network, np.asarray(rates, dtype=float))
    # A negative or non-finite rate makes a propensity negative or
    # non-finite, which no engine can run on.  (A scheme resolves only
    # finite, non-negative rates, so only an explicit vector gets here.)
    rates = kinetics.rates
    bad = np.flatnonzero(~(np.isfinite(rates) & (rates >= 0)))
    if bad.size:
        j = int(bad[0])
        raise SimulationError(
            f"rates[{j}] is {float(rates[j])!r} for reaction "
            f"{network.reactions[j]}: rates must be finite and "
            f"non-negative")
    return kinetics
