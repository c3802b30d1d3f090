"""Compiled kernels: one C source for every network.

The source holds two kernels, and one build, one cache entry, one lazy
load and one fallback warning serve both.

- **Mass-action kinetics.**  :class:`~repro.crn.kinetics.MassActionKinetics`
  compiles each network into flat index arrays (monomial gathers, a
  stoichiometry scatter, a Jacobian term scatter).  ``repro_rhs`` and
  ``repro_jacobian`` walk those arrays in C in exactly the order the
  NumPy twin in ``kinetics.py`` does, so the two executors agree
  **bitwise**: the same products are formed, clamped the same way
  (``v < 0 ? 0 : v`` propagates NaN like ``np.maximum``), and summed one
  term at a time in array order, as ``np.bincount`` does.
- **The SSA event loop.**  ``repro_ssa_run`` is the Gillespie
  direct-method loop of
  :class:`~repro.crn.simulation.ssa.IncrementalPropensities`, whose
  Python loop stays as its twin.  It draws through numpy's own
  ``random_standard_exponential`` and the bit generator's
  ``next_double``, on the generator's own ``bitgen_t``, so a seeded
  realisation -- and the generator state it leaves behind -- is bitwise
  what the Python loop produces.  The module takes numpy's headers from
  ``np.get_include()`` and links its ``libnpyrandom.a``.

The source is built with ``-ffp-contract=off`` so no multiply-add is
fused.  It is network-independent, so it is compiled once per machine
through cffi's API mode into ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``) and reused by every later process.  The module name
carries the sha256 of the source, the cffi and numpy versions and the
Python ABI tag, so a changed kernel, numpy or interpreter never loads a
stale build.  A build runs in a private temporary directory and ends
with ``os.replace``, so concurrent first builds race safely.

Nothing happens at ``import repro``: the module is loaded on the first
``rhs``/``jacobian`` or SSA ``simulate`` call.  When it cannot be had --
cffi or a compiler is missing, or the cache is not writable --
:func:`load` warns once per process with a ``RuntimeWarning`` and
returns ``None``, and both kernels run on their twins with identical
results.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import threading
import warnings
from pathlib import Path

import numpy as np

_STRUCT = """
typedef struct {
    int64_t n_species;
    int64_t n_reactions;
    const int64_t *factor_a;        /* two gather slots per reaction;   */
    const int64_t *factor_b;        /* slot n_species holds 1.0         */
    const double *rates;
    int64_t n_generic;              /* order >= 3 rows                  */
    const int64_t *generic_rows;
    const int64_t *generic_ptr;     /* CSR into species / exponents     */
    const int64_t *generic_species;
    const double *generic_exp;
    int64_t n_stoich;               /* dx/dt scatter: out[row] +=       */
    const int64_t *stoich_rows;     /*   coef * rate[col]               */
    const int64_t *stoich_cols;
    const double *stoich_coef;
    int64_t n_drate;                /* order <= 2 d(rate)/dx entries    */
    const int64_t *drate_gather;
    const double *drate_scale;
    int64_t n_jac;                  /* Jacobian scatter: out[target] += */
    const int64_t *jac_target;      /*   coef * drate[entry]            */
    const int64_t *jac_entry;
    const double *jac_coef;
    double *xe;                     /* scratch, n_species + 1           */
    double *work;                   /* scratch, max(R, drate entries)   */
    double *rhs_out;                /* n_species                        */
    double *jac_out;                /* n_species * n_species, row-major */
} repro_kinetics;

enum {
    REPRO_SSA_DONE = 0,             /* t_final passed or state absorbing */
    REPRO_SSA_MAX_EVENTS = 1,       /* the event budget ran out          */
    REPRO_SSA_ABSORBING = 2         /* a draw found no positive a_j      */
};

typedef struct {
    int64_t n_species;
    int64_t n_reactions;
    const int64_t *factor_a;        /* propensity gathers into cb; 2X   */
    const int64_t *factor_b;        /*   rows read the half-pair slot   */
    const double *constants;
    const int64_t *fire_ptr;        /* CSR per reaction: net change     */
    const int64_t *fire_species;
    const int64_t *fire_delta;
    const int64_t *dep_ptr;         /* CSR per reaction: the reactions  */
    const int64_t *dep_rows;        /*   whose propensity it changes    */
    const int64_t *generic_of;      /* order >= 3 row of reaction, or -1 */
    const int64_t *generic_ptr;     /* CSR per order >= 3 row           */
    const int64_t *generic_species;
    const int64_t *generic_exp;
    const double *generic_fact;     /* e! of each exponent              */
    double *cumulative;             /* scratch, n_reactions             */
    int64_t *counts;                /* the state, updated in place      */
    double *cb;                     /* [counts, 1, (counts - 1)/2, 1]   */
    double *a;                      /* propensities                     */
    int64_t rebuild_interval;
    int64_t events_since_rebuild;   /* in and out                       */
    void *bitgen;                   /* the generator's bitgen_t         */
    const double *grid;             /* sample times                     */
    int64_t n_times;
    double *samples;                /* n_times x n_species, row-major   */
    int64_t *firings;               /* per reaction, or NULL            */
    int64_t max_events;
    double t_final;
    double t;                       /* in and out                       */
    int64_t next_sample;            /* in and out                       */
    int64_t events;                 /* out                              */
} repro_ssa;
"""

CDEF = _STRUCT + """
void repro_rhs(const repro_kinetics *k, const double *x);
void repro_jacobian(const repro_kinetics *k, const double *x);
int repro_ssa_run(repro_ssa *s);
"""

SOURCE = """
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <numpy/random/distributions.h>
""" + _STRUCT + r"""
static void clamp_state(const repro_kinetics *k, const double *x)
{
    for (int64_t s = 0; s < k->n_species; s++) {
        double v = x[s];
        k->xe[s] = v < 0.0 ? 0.0 : v;
    }
}

void repro_rhs(const repro_kinetics *k, const double *x)
{
    const double *xe = k->xe;
    double *out = k->rhs_out;
    double *rate = k->work;
    clamp_state(k, x);
    for (int64_t j = 0; j < k->n_reactions; j++)
        rate[j] = xe[k->factor_a[j]] * xe[k->factor_b[j]];
    for (int64_t g = 0; g < k->n_generic; g++) {
        double value = 1.0;
        for (int64_t p = k->generic_ptr[g]; p < k->generic_ptr[g + 1]; p++)
            value *= pow(xe[k->generic_species[p]], k->generic_exp[p]);
        rate[k->generic_rows[g]] = value;
    }
    for (int64_t j = 0; j < k->n_reactions; j++)
        rate[j] *= k->rates[j];
    memset(out, 0, (size_t)k->n_species * sizeof(double));
    for (int64_t i = 0; i < k->n_stoich; i++)
        out[k->stoich_rows[i]] += k->stoich_coef[i] * rate[k->stoich_cols[i]];
}

void repro_jacobian(const repro_kinetics *k, const double *x)
{
    const double *xe = k->xe;
    double *out = k->jac_out;
    double *drate = k->work;
    int64_t q = k->n_drate;
    clamp_state(k, x);
    for (int64_t i = 0; i < k->n_drate; i++)
        drate[i] = k->drate_scale[i] * xe[k->drate_gather[i]];
    for (int64_t g = 0; g < k->n_generic; g++) {
        int64_t j = k->generic_rows[g];
        int64_t lo = k->generic_ptr[g], hi = k->generic_ptr[g + 1];
        double full = k->rates[j];
        for (int64_t p = lo; p < hi; p++)
            full *= pow(xe[k->generic_species[p]], k->generic_exp[p]);
        for (int64_t p = lo; p < hi; p++, q++) {
            double xs = xe[k->generic_species[p]];
            double e = k->generic_exp[p];
            if (xs > 0.0) {
                drate[q] = full * e / xs;
            } else if (e == 1.0) {
                double others = k->rates[j];
                for (int64_t p2 = lo; p2 < hi; p2++)
                    if (p2 != p)
                        others *= pow(xe[k->generic_species[p2]],
                                      k->generic_exp[p2]);
                drate[q] = others;
            } else {
                drate[q] = 0.0;     /* d(x^e)/dx at 0 for e >= 2 */
            }
        }
    }
    memset(out, 0,
           (size_t)(k->n_species * k->n_species) * sizeof(double));
    for (int64_t t = 0; t < k->n_jac; t++)
        out[k->jac_target[t]] += k->jac_coef[t] * drate[k->jac_entry[t]];
}

/* MassActionKinetics.propensity_of: c_j * prod C(n, e), one reactant
   at a time, dividing each falling factorial by e!. */
static double ssa_propensity_of(const repro_ssa *s, int64_t j, int64_t g)
{
    double value = s->constants[j];
    for (int64_t p = s->generic_ptr[g]; p < s->generic_ptr[g + 1]; p++) {
        int64_t n = s->counts[s->generic_species[p]];
        int64_t e = s->generic_exp[p];
        if (n < e)
            return 0.0;
        double combos = 1.0;
        for (int64_t i = 0; i < e; i++)
            combos *= (double)(n - i);
        value *= combos / s->generic_fact[p];
    }
    return value;
}

/* IncrementalPropensities.rebuild: every propensity from the counts,
   unclamped, as MassActionKinetics.propensities computes them. */
static void ssa_rebuild(repro_ssa *s)
{
    int64_t n_s = s->n_species;
    double *cb = s->cb;
    for (int64_t i = 0; i < n_s; i++) {
        cb[i] = (double)s->counts[i];
        cb[n_s + 1 + i] = (cb[i] - 1.0) * 0.5;
    }
    cb[n_s] = 1.0;
    cb[2 * n_s + 1] = 1.0;
    for (int64_t j = 0; j < s->n_reactions; j++) {
        int64_t g = s->generic_of[j];
        s->a[j] = g < 0
            ? s->constants[j] * cb[s->factor_a[j]] * cb[s->factor_b[j]]
            : ssa_propensity_of(s, j, g);
    }
    s->events_since_rebuild = 0;
}

/* IncrementalPropensities.fire.  The clamp is np.maximum(v, 0.0):
   NaN propagates and -0.0 becomes +0.0. */
static void ssa_fire(repro_ssa *s, int64_t j)
{
    int64_t half = s->n_species + 1;
    for (int64_t p = s->fire_ptr[j]; p < s->fire_ptr[j + 1]; p++) {
        int64_t species = s->fire_species[p], delta = s->fire_delta[p];
        s->counts[species] += delta;
        s->cb[species] += (double)delta;
        s->cb[half + species] += (double)delta * 0.5;
    }
    if (++s->events_since_rebuild >= s->rebuild_interval) {
        ssa_rebuild(s);
        return;
    }
    for (int64_t p = s->dep_ptr[j]; p < s->dep_ptr[j + 1]; p++) {
        int64_t i = s->dep_rows[p], g = s->generic_of[i];
        if (g >= 0) {
            s->a[i] = ssa_propensity_of(s, i, g);
        } else {
            double v = s->constants[i] * s->cb[s->factor_a[i]]
                       * s->cb[s->factor_b[i]];
            s->a[i] = (v > 0.0 || v != v) ? v : 0.0;
        }
    }
}

/* select_reaction: cumulative.searchsorted(key, side="right") in
   numpy's NaN-last order, then the last positive propensity when the
   key overshoots the final bin; -1 when no propensity is positive. */
static int64_t ssa_select(const repro_ssa *s, double key)
{
    int64_t lo = 0, hi = s->n_reactions;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        double v = s->cumulative[mid];
        if (key < v || (v != v && key == key))
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo < s->n_reactions)
        return lo;
    for (int64_t j = s->n_reactions - 1; j >= 0; j--)
        if (s->a[j] > 0.0)
            return j;
    return -1;
}

/* IncrementalPropensities.advance_python, event for event and draw for
   draw: one exponential for the waiting time, then one uniform for the
   selection, from the generator the Python loop would draw from. */
int repro_ssa_run(repro_ssa *s)
{
    bitgen_t *bitgen = (bitgen_t *)s->bitgen;
    int64_t n_s = s->n_species;
    double t = s->t;
    int64_t next = s->next_sample;
    int status = REPRO_SSA_DONE;
    s->events = 0;
    while (t < s->t_final) {
        double total = s->a[0];     /* a.cumsum(): one add at a time */
        s->cumulative[0] = total;
        for (int64_t j = 1; j < s->n_reactions; j++)
            s->cumulative[j] = total += s->a[j];
        if (total <= 0.0)
            break;
        /* Generator.exponential(1.0 / total) */
        t += (1.0 / total) * random_standard_exponential(bitgen);
        if (t > s->t_final)
            break;
        for (; next < s->n_times && s->grid[next] <= t; next++)
            for (int64_t i = 0; i < n_s; i++)
                s->samples[next * n_s + i] = (double)s->counts[i];
        if (s->events >= s->max_events) {
            status = REPRO_SSA_MAX_EVENTS;
            break;
        }
        /* Generator.random() */
        double u = bitgen->next_double(bitgen->state);
        int64_t j = ssa_select(s, u * total);
        if (j < 0) {
            status = REPRO_SSA_ABSORBING;
            break;
        }
        ssa_fire(s, j);
        s->events++;
        if (s->firings != NULL)
            s->firings[j]++;
    }
    s->t = t;
    s->next_sample = next;
    return status;
}
"""

#: Flags the bitwise contract depends on: no fused multiply-add.
COMPILE_ARGS = ("-O2", "-ffp-contract=off")

_NOT_LOADED = object()
_kernel = _NOT_LOADED  # the loaded module, or None after a failed attempt
_lock = threading.Lock()  # one load attempt, and one warning, per process


def cache_dir() -> Path:
    """Directory holding built kernels (``$XDG_CACHE_HOME/repro``)."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def _ext_suffix() -> str:
    import sysconfig

    return sysconfig.get_config_var("EXT_SUFFIX")


def _numpy_random() -> dict:
    """Build arguments for numpy's random C API: its headers and the
    static ``numpy/random/lib/libnpyrandom.a`` it ships."""
    return {"include_dirs": [np.get_include()],
            "library_dirs": [str(Path(np.random.__file__).parent / "lib")],
            "libraries": ["npyrandom", "m"]}


def module_name() -> str:
    """Build name keyed on the source, the cffi and numpy versions and
    the Python ABI."""
    import _cffi_backend

    key = "\0".join((CDEF, SOURCE, " ".join(COMPILE_ARGS),
                     _cffi_backend.__version__, np.__version__,
                     _ext_suffix()))
    return "_repro_native_" + hashlib.sha256(key.encode()).hexdigest()[:16]


#: The build runs in a child interpreter, so no simulating process ever
#: imports cffi's build machinery (setuptools alone adds ~12 MB of RSS).
_BUILD_SCRIPT = """
import json, sys
import cffi
spec = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(spec["cdef"])
ffi.set_source(spec["name"], spec["source"],
               extra_compile_args=spec["args"], **spec["numpy"])
ffi.compile(tmpdir=spec["tmpdir"])
"""


def _build(name: str, path: Path) -> None:
    """Compile the kernel into ``path`` (atomically replaced)."""
    import shutil
    import subprocess
    import sys
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f".{name}-", dir=path.parent)
    try:
        spec = {"name": name, "cdef": CDEF, "source": SOURCE,
                "args": list(COMPILE_ARGS), "numpy": _numpy_random(),
                "tmpdir": workdir}
        done = subprocess.run([sys.executable, "-c", _BUILD_SCRIPT],
                              input=json.dumps(spec), capture_output=True,
                              text=True, timeout=600)
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or ["no output"]
            raise RuntimeError(f"kernel build failed: {lines[-1]}")
        os.replace(Path(workdir) / path.name, path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _import(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load():
    name = module_name()
    path = cache_dir() / (name + _ext_suffix())
    if not path.is_file():
        _build(name, path)
    return _import(name, path)


def load():
    """The compiled kernel module (``.ffi``, ``.lib``), or ``None``.

    Loads (building on first use per machine) once per process.  Any
    failure is reported by a single ``RuntimeWarning`` and remembered,
    so callers fall back to their twins without retrying.
    """
    global _kernel
    with _lock:
        if _kernel is _NOT_LOADED:
            try:
                _kernel = _load()
            except Exception as exc:  # no cffi/compiler, unwritable cache
                _kernel = None
                warnings.warn(
                    f"compiled mass-action and SSA kernels unavailable "
                    f"({type(exc).__name__}: {exc}); using the NumPy "
                    f"kinetics and the Python SSA loop, which give "
                    f"identical results",
                    RuntimeWarning, stacklevel=2)
    return _kernel


def pack(ffi, ctx, fields: dict, dtype, ctype: str):
    """Concatenate ``fields`` into one buffer and point ``ctx`` at each
    slice; returns the buffer's cdata and the slices."""
    arrays = [np.asarray(value, dtype=dtype).ravel()
              for value in fields.values()]
    packed = np.concatenate(arrays)
    base = ffi.from_buffer(ctype, packed)
    views, start = {}, 0
    for name, array in zip(fields, arrays):
        setattr(ctx, name, base + start)
        views[name] = packed[start:start + len(array)]
        start += len(array)
    return base, views
