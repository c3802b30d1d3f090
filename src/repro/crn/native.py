"""Compiled mass-action kernel: one C source for every network.

:class:`~repro.crn.kinetics.MassActionKinetics` compiles each network
into flat index arrays (monomial gathers, a stoichiometry scatter, a
Jacobian term scatter).  The kernel here walks those arrays in C in
exactly the order the NumPy twin in ``kinetics.py`` does, so the two
executors agree **bitwise**: the same products are formed, clamped the
same way (``v < 0 ? 0 : v`` propagates NaN like ``np.maximum``), and
summed one term at a time in array order, as ``np.bincount`` does.  The
source is built with ``-ffp-contract=off`` so no multiply-add is fused.

The source is network-independent, so it is compiled once per machine
through cffi's API mode into ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``) and reused by every later process.  The module name
carries the sha256 of the source, the cffi version and the Python ABI
tag, so a changed kernel or interpreter never loads a stale build.  A
build runs in a private temporary directory and ends with
``os.replace``, so concurrent first builds race safely.

Nothing happens at ``import repro``: the kernel is loaded on the first
``rhs``/``jacobian`` call.  When it cannot be had -- cffi or a compiler
is missing, or the cache is not writable -- :func:`load` warns once per
process with a ``RuntimeWarning`` and returns ``None``, and the kinetics
run on the NumPy twin with identical results.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import threading
import warnings
from pathlib import Path

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
"""

CDEF = _STRUCT + """
void repro_rhs(const repro_kinetics *k, const double *x);
void repro_jacobian(const repro_kinetics *k, const double *x);
"""

SOURCE = """
#include <math.h>
#include <stdint.h>
#include <string.h>
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


def module_name() -> str:
    """Build name keyed on the source, cffi version and Python ABI."""
    import _cffi_backend

    key = "\0".join((CDEF, SOURCE, " ".join(COMPILE_ARGS),
                     _cffi_backend.__version__,
                     _ext_suffix()))
    return "_repro_kinetics_" + hashlib.sha256(key.encode()).hexdigest()[:16]


#: The build runs in a child interpreter, so no simulating process ever
#: imports cffi's build machinery (setuptools alone adds ~12 MB of RSS).
_BUILD_SCRIPT = """
import json, sys
import cffi
spec = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(spec["cdef"])
ffi.set_source(spec["name"], spec["source"], libraries=["m"],
               extra_compile_args=spec["args"])
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
                "args": list(COMPILE_ARGS), "tmpdir": workdir}
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
    so callers fall back to the NumPy twin without retrying.
    """
    global _kernel
    with _lock:
        if _kernel is _NOT_LOADED:
            try:
                _kernel = _load()
            except Exception as exc:  # no cffi/compiler, unwritable cache
                _kernel = None
                warnings.warn(
                    f"compiled mass-action kernel unavailable "
                    f"({type(exc).__name__}: {exc}); using the NumPy "
                    f"kinetics, which give identical results",
                    RuntimeWarning, stacklevel=2)
    return _kernel
