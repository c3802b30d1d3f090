"""Compiled kernels: one C source for every network.

The source holds three kernels, and one build, one cache entry, one
lazy load and one fallback warning serve them all.

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
  what the Python loop produces.  It sums and searches only the live
  propensities (those not +-0.0): dropping zero terms moves no partial
  sum at a live index, so the total and the selected reaction are the
  full loop's.  It also skips recomputing a dependent that a zero factor
  keeps at +0.0.  ``repro_ssa_ensemble`` runs that loop
  once per generator of a seeded ensemble in one call, and
  ``repro_ssa_poll`` runs a machine's poll chunks back to back, scanning
  each chunk's rows on the clock's margin tables.  The module
  takes numpy's headers from ``np.get_include()`` and links its
  ``libnpyrandom.a``.
- **A stiff integrator.**  ``repro_bdf_solve`` is scipy's variable-order
  BDF (``scipy/integrate/_ivp/bdf.py``) step for step, calling
  ``repro_rhs``/``repro_jacobian`` on the kinetics struct's own
  buffers and solving with a small dense LU.  It runs a machine's cycle
  segment in one call: after every accepted step it evaluates the
  margin table of one
  :class:`~repro.crn.simulation.margins.MarginEvent` and locates the
  first crossing on the step's interpolant, which also gives any sample
  rows.  It is an ODE method of its own (``native-bdf``), not a twin of
  LSODA: its floats are its own.

The source is built with ``-ffp-contract=off`` so no multiply-add is
fused.  It is network-independent, so it is compiled once per machine
through cffi's API mode into ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``) and reused by every later process.  The module name
carries the sha256 of the source, the cffi and numpy versions and the
Python ABI tag, so a changed kernel, numpy or interpreter never loads a
stale build.  A build runs in a private temporary directory and ends
with ``os.replace``, so concurrent first builds race safely.

Nothing happens at ``import repro``: the module is loaded on the first
``rhs``/``jacobian``, ``native-bdf`` or SSA ``simulate`` call.  When it
cannot be had -- cffi or a compiler is missing, or the cache is not
writable -- :func:`load` warns once per process with a
``RuntimeWarning`` and returns ``None``: the kinetics and SSA kernels
run on their twins with identical results, and ``native-bdf`` solves
run LSODA.
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
    const int64_t *dep_other;       /* per dep_rows entry: a cb factor  */
                                    /*   slot the firing leaves alone,  */
                                    /*   or n_species (1.0) if none     */
    const int64_t *generic_of;      /* order >= 3 row of reaction, or -1 */
    const int64_t *generic_ptr;     /* CSR per order >= 3 row           */
    const int64_t *generic_species;
    const int64_t *generic_exp;
    const double *generic_fact;     /* e! of each exponent              */
    double *cumulative;             /* scratch, n_reactions             */
    int64_t *live;                  /* scratch, n_reactions: ascending, */
    int64_t n_live;                 /*   the j with a_j not +-0.0       */
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

typedef struct {
    int64_t n_terms;
    const int64_t *ptr;             /* CSR per term into species/weight */
    const int64_t *species;
    const double *weight;
    const double *threshold;
    const int64_t *sign;            /* 1: total - threshold; -1: the    */
} repro_margin;                     /*   threshold minus the total      */

typedef struct {
    repro_margin departure;         /* < 0: the cycle has departed      */
    repro_margin closing;           /* >= 0 on a later row: it closes   */
    int64_t *counts;                /* a chunk's start, in and out      */
    double *rows;                   /* keep ? chunks x n_times rows     */
    int64_t keep;                   /*   : n_times rows, reused         */
    int64_t max_chunks;
    double t;                       /* the chunk's start, in and out    */
    double origin[2];               /* stop once t - origin > span      */
    double span[2];
    int64_t departed;               /* in and out                       */
    int64_t row;                    /* out: the closing row, or -1      */
    int64_t chunks;                 /* out: chunks run                  */
    int64_t events;                 /* out: over every chunk            */
} repro_poll;

enum {
    REPRO_BDF_DONE = 0,             /* t_bound reached, or the event    */
    REPRO_BDF_ROWS = 1,             /* rows full: grow them and resume  */
    REPRO_BDF_SMALL_STEP = 2,       /* the step size underflowed        */
    REPRO_BDF_NONFINITE = 3         /* a state went NaN or infinite     */
};

typedef struct {
    const repro_kinetics *k;        /* evaluated on its own buffers     */
    const repro_margin *event;      /* terminal event margin, or NULL   */
    double direction;               /* 1: from < 0 to >= 0; -1: reverse */
    double t_bound;
    double rtol;
    double atol;
    const double *t_eval;           /* sample times after t0, ascending */
    int64_t n_eval;
    int64_t next_eval;              /* in and out                       */
    double *rows;                   /* capacity x n_species             */
    int64_t capacity;
    int64_t n_rows;                 /* in and out                       */
    double *work;                   /* 2 n^2 + 15 n doubles             */
    int64_t *iwork;                 /* n^2 + 4 n + 1: LU pivots, pattern */
    double *y;                      /* in: x0; out: the state at t      */
    double t;                       /* in: t0; out: t_bound or event    */
    int64_t resume;                 /* 0: start at (t, y); 1: continue  */
    int64_t fired;                  /* out                              */
    int64_t steps;                  /* out: accepted steps              */
    int64_t rejected;               /* out                              */
    int64_t nfev;                   /* out                              */
    int64_t njev;                   /* out                              */
    int64_t nlu;                    /* out                              */
    double h_abs;                   /* solver state between calls       */
    double g;
    double t_event;
    int64_t order;
    int64_t n_equal;
    int64_t lu_ok;
    int64_t pending;
} repro_bdf;
"""

CDEF = _STRUCT + """
void repro_rhs(const repro_kinetics *k, const double *x);
void repro_jacobian(const repro_kinetics *k, const double *x);
int repro_ssa_run(repro_ssa *s);
int repro_ssa_ensemble(repro_ssa *s, const int64_t *initial,
                       void *const *bitgens, int64_t n_trials,
                       double t_start, double *samples, int64_t *events,
                       int64_t *failed);
int repro_ssa_poll(repro_ssa *s, repro_poll *p);
int repro_bdf_solve(repro_bdf *s);
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

/* The live list: every j whose a_j is not +-0.0, ascending.  NaN is
   live. */
static void ssa_live_derive(repro_ssa *s)
{
    int64_t n = 0;
    for (int64_t j = 0; j < s->n_reactions; j++)
        if (s->a[j] != 0.0)
            s->live[n++] = j;
    s->n_live = n;
}

/* Insert or remove reaction i, whose a_i just turned nonzero or zero. */
static void ssa_live_flip(repro_ssa *s, int64_t i, int nonzero)
{
    int64_t *live = s->live, lo = 0, hi = s->n_live;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (live[mid] < i)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (nonzero) {
        memmove(live + lo + 1, live + lo,
                (size_t)(s->n_live - lo) * sizeof(int64_t));
        live[lo] = i;
        s->n_live++;
    } else {
        s->n_live--;
        memmove(live + lo, live + lo + 1,
                (size_t)(s->n_live - lo) * sizeof(int64_t));
    }
}

/* IncrementalPropensities.rebuild: every propensity from the counts,
   unclamped, as MassActionKinetics.propensities computes them; then the
   live list. */
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
    ssa_live_derive(s);
}

/* IncrementalPropensities.fire.  The clamp is np.maximum(v, 0.0):
   NaN propagates and -0.0 becomes +0.0.  A dependent stored as +0.0
   (on bits: a rebuild may have stored -0.0) with a zero factor this
   firing left alone would be recomputed as +0.0 again, so it is
   skipped. */
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
        double old = s->a[i], v;
        if (old == 0.0 && !signbit(old) && s->cb[s->dep_other[p]] == 0.0)
            continue;
        if (g >= 0) {
            v = ssa_propensity_of(s, i, g);
        } else {
            v = s->constants[i] * s->cb[s->factor_a[i]]
                * s->cb[s->factor_b[i]];
            v = (v > 0.0 || v != v) ? v : 0.0;
        }
        s->a[i] = v;
        if ((old == 0.0) != (v == 0.0))
            ssa_live_flip(s, i, v != 0.0);
    }
}

/* select_reaction: cumulative.searchsorted(key, side="right") in
   numpy's NaN-last order, then the last positive propensity when the
   key overshoots the final bin; -1 when no propensity is positive.
   The cumulative sum runs over the live list only: no a_j is negative,
   so the full sum never decreases, a zero entry repeats the value
   before it and no search lands on one. */
static int64_t ssa_select(const repro_ssa *s, double key)
{
    int64_t lo = 0, hi = s->n_live;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        double v = s->cumulative[mid];
        if (key < v || (v != v && key == key))
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo < s->n_live)
        return s->live[lo];
    for (int64_t k = s->n_live - 1; k >= 0; k--)
        if (s->a[s->live[k]] > 0.0)
            return s->live[k];
    return -1;
}

/* IncrementalPropensities.advance_python, event for event and draw for
   draw: one exponential for the waiting time, then one uniform for the
   selection, from the generator the Python loop would draw from.
   a.cumsum() adds one term at a time; adding +-0.0 leaves every nonzero
   partial sum as it is, so summing the live terms alone gives the same
   partial sum at each live index and the same total.  With every term
   live, the plain loop runs. */
static int ssa_loop(repro_ssa *s)
{
    bitgen_t *bitgen = (bitgen_t *)s->bitgen;
    int64_t n_s = s->n_species;
    double t = s->t;
    int64_t next = s->next_sample;
    int status = REPRO_SSA_DONE;
    s->events = 0;
    while (t < s->t_final) {
        const int64_t *live = s->live;
        int64_t n_live = s->n_live;
        if (n_live == 0)
            break;                  /* every a_j is +-0.0: total <= 0 */
        double total;
        if (n_live == s->n_reactions) {
            total = s->a[0];
            s->cumulative[0] = total;
            for (int64_t j = 1; j < n_live; j++)
                s->cumulative[j] = total += s->a[j];
        } else {
            total = s->a[live[0]];
            s->cumulative[0] = total;
            for (int64_t k = 1; k < n_live; k++)
                s->cumulative[k] = total += s->a[live[k]];
        }
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

/* The loop from whatever propensities the caller left in a. */
int repro_ssa_run(repro_ssa *s)
{
    ssa_live_derive(s);
    return ssa_loop(s);
}

/* StochasticSimulator.simulate_ensemble: one realisation per generator
   from the same initial counts, each into its own block of samples and
   held to the end of the grid; a trial that stops early returns its
   status and its index in *failed. */
int repro_ssa_ensemble(repro_ssa *s, const int64_t *initial,
                       void *const *bitgens, int64_t n_trials,
                       double t_start, double *samples, int64_t *events,
                       int64_t *failed)
{
    int64_t n_s = s->n_species;
    for (int64_t k = 0; k < n_trials; k++) {
        double *out = samples + k * s->n_times * n_s;
        memcpy(s->counts, initial, (size_t)n_s * sizeof(int64_t));
        ssa_rebuild(s);
        for (int64_t i = 0; i < n_s; i++)
            out[i] = (double)initial[i];
        s->bitgen = bitgens[k];
        s->samples = out;
        s->t = t_start;
        s->next_sample = 1;
        int status = ssa_loop(s);
        if (status != REPRO_SSA_DONE) {
            *failed = k;
            return status;
        }
        events[k] = s->events;
        for (int64_t row = s->next_sample; row < s->n_times; row++)
            for (int64_t i = 0; i < n_s; i++)
                out[row * n_s + i] = (double)s->counts[i];
    }
    return REPRO_SSA_DONE;
}

/* margins.MarginTable on one row: the least term.  On SSA counts every
   total is an exact integer, so the order of the sums does not matter. */
static double poll_margin(const repro_margin *m, const double *x)
{
    double least = 0.0;
    for (int64_t k = 0; k < m->n_terms; k++) {
        double total = 0.0;
        for (int64_t q = m->ptr[k]; q < m->ptr[k + 1]; q++)
            total += m->weight[q] * x[m->species[q]];
        double value = m->sign[k] > 0 ? total - m->threshold[k]
                                      : m->threshold[k] - total;
        if (k == 0 || value < least)
            least = value;
    }
    return least;
}

/* IncrementalPropensities.poll_python: chunks of repro_ssa_run, each
   from chunk time 0 on the grid, restarted from the previous chunk's
   last row and scanned as margins.scan scans rows 1 on.  Returns at the
   closing row, after max_chunks chunks, or after a chunk that moves t
   more than a span past its origin. */
int repro_ssa_poll(repro_ssa *s, repro_poll *p)
{
    int64_t n_s = s->n_species, n_t = s->n_times;
    int status = REPRO_SSA_DONE;
    p->row = -1;
    p->events = 0;
    for (p->chunks = 0; p->chunks < p->max_chunks;) {
        double *rows = p->rows + (p->keep ? p->chunks * n_t * n_s : 0);
        memcpy(s->counts, p->counts, (size_t)n_s * sizeof(int64_t));
        ssa_rebuild(s);
        for (int64_t i = 0; i < n_s; i++)
            rows[i] = (double)p->counts[i];
        s->samples = rows;
        s->t = 0.0;
        s->next_sample = 1;
        status = ssa_loop(s);
        p->events += s->events;
        p->chunks++;
        if (status != REPRO_SSA_DONE)
            break;
        for (int64_t r = s->next_sample; r < n_t; r++)
            for (int64_t i = 0; i < n_s; i++)
                rows[r * n_s + i] = (double)s->counts[i];
        int64_t last = n_t - 1;
        for (int64_t r = 1; r < n_t; r++) {
            const double *x = rows + r * n_s;
            if (!p->departed) {
                p->departed = poll_margin(&p->departure, x) < 0.0;
            } else if (poll_margin(&p->closing, x) >= 0.0) {
                p->row = last = r;
                break;
            }
        }
        for (int64_t i = 0; i < n_s; i++)
            p->counts[i] = (int64_t)rows[last * n_s + i];
        if (p->row >= 0)
            break;
        p->t += s->t_final;
        if (p->t - p->origin[0] > p->span[0]
                || p->t - p->origin[1] > p->span[1])
            break;
    }
    return status;
}

/* scipy.integrate's BDF (scipy/integrate/_ivp/bdf.py): NDF orders 1-5,
   quasi-constant step size, a simplified Newton iteration reusing the
   Jacobian and its LU factors, step for step and in its expressions'
   order.  D holds the modified divided differences, MAX_ORDER + 3 rows
   of n. */

#define BDF_MAX_ORDER 5
#define BDF_NEWTON_MAXITER 4
#define BDF_MIN_FACTOR 0.2
#define BDF_MAX_FACTOR 10.0
#define BDF_EPS 2.220446049250313e-16

typedef struct {
    double gamma[BDF_MAX_ORDER + 1];
    double alpha[BDF_MAX_ORDER + 1];
    double error_const[BDF_MAX_ORDER + 1];
    double u[BDF_MAX_ORDER + 1][BDF_MAX_ORDER + 1][BDF_MAX_ORDER + 1];
    double root_n;
} bdf_tables;

/* compute_R: the cumulative product down the rows of M. */
static void bdf_compute_r(int64_t order, double factor,
                          double r[BDF_MAX_ORDER + 1][BDF_MAX_ORDER + 1])
{
    for (int64_t j = 0; j <= order; j++)
        r[0][j] = 1.0;
    for (int64_t i = 1; i <= order; i++) {
        r[i][0] = 0.0;
        for (int64_t j = 1; j <= order; j++)
            r[i][j] = r[i - 1][j]
                      * (((double)(i - 1) - factor * (double)j) / (double)i);
    }
}

static void bdf_init_tables(bdf_tables *c, int64_t n)
{
    static const double kappa[BDF_MAX_ORDER + 1] =
        {0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0};
    c->gamma[0] = 0.0;
    for (int i = 1; i <= BDF_MAX_ORDER; i++)
        c->gamma[i] = c->gamma[i - 1] + 1.0 / i;
    for (int i = 0; i <= BDF_MAX_ORDER; i++) {
        c->alpha[i] = (1.0 - kappa[i]) * c->gamma[i];
        c->error_const[i] = kappa[i] * c->gamma[i] + 1.0 / (i + 1);
        bdf_compute_r(i, 1.0, c->u[i]);
    }
    c->root_n = sqrt((double)n);
}

/* common.norm(coef * x / scale): the RMS norm. */
static double bdf_norm(const bdf_tables *c, double coef, const double *x,
                       const double *scale, int64_t n)
{
    double sum = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double v = coef * x[i] / scale[i];
        sum += v * v;
    }
    return sqrt(sum) / c->root_n;
}

static int bdf_finite(const double *x, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (!isfinite(x[i]))
            return 0;
    return 1;
}

/* change_D: D[:order + 1] = (R U)^T D[:order + 1] for a step size
   scaled by factor. */
static void bdf_change_d(const bdf_tables *c, double *D, int64_t n,
                         int64_t order, double factor)
{
    double r[BDF_MAX_ORDER + 1][BDF_MAX_ORDER + 1];
    double ru[BDF_MAX_ORDER + 1][BDF_MAX_ORDER + 1];
    double column[BDF_MAX_ORDER + 1];
    bdf_compute_r(order, factor, r);
    for (int64_t i = 0; i <= order; i++)
        for (int64_t j = 0; j <= order; j++) {
            double v = 0.0;
            for (int64_t m = 0; m <= order; m++)
                v += r[i][m] * c->u[order][m][j];
            ru[i][j] = v;
        }
    for (int64_t s = 0; s < n; s++) {
        for (int64_t j = 0; j <= order; j++) {
            double v = 0.0;
            for (int64_t i = 0; i <= order; i++)
                v += ru[i][j] * D[i * n + s];
            column[j] = v;
        }
        for (int64_t j = 0; j <= order; j++)
            D[j * n + s] = column[j];
    }
}

/* In-place LU with partial pivoting (the first largest pivot, scaled
   by its reciprocal, as getf2); a zero pivot leaves an infinite
   reciprocal for the solve to turn into inf/NaN.  The eliminations skip
   the pivot row's zeros.  The factors are then packed in place, row by
   row: L's nonzeros, the pivot's reciprocal, U's nonzeros, with their
   columns in iwork: pivots (n), row starts (n + 1), diagonal slots (n),
   columns (n^2), scratch (n). */
static void bdf_lu(double *a, int64_t *iwork, int64_t n)
{
    int64_t *pivots = iwork, *start = pivots + n, *diag = start + n + 1;
    int64_t *cols = diag + n, *nonzero = cols + n * n;
    for (int64_t c = 0; c < n; c++) {
        int64_t p = c, k = 0;
        double best = fabs(a[c * n + c]);
        for (int64_t r = c + 1; r < n; r++)
            if (fabs(a[r * n + c]) > best) {
                best = fabs(a[r * n + c]);
                p = r;
            }
        pivots[c] = p;
        if (p != c)
            for (int64_t j = 0; j < n; j++) {
                double v = a[c * n + j];
                a[c * n + j] = a[p * n + j];
                a[p * n + j] = v;
            }
        double inverse = 1.0 / a[c * n + c];
        a[c * n + c] = inverse;
        if (isinf(inverse))
            continue;
        for (int64_t j = c + 1; j < n; j++)
            if (a[c * n + j] != 0.0)
                nonzero[k++] = j;
        for (int64_t r = c + 1; r < n; r++) {
            double m = a[r * n + c] * inverse;
            a[r * n + c] = m;
            if (m != 0.0)
                for (int64_t q = 0; q < k; q++)
                    a[r * n + nonzero[q]] -= m * a[c * n + nonzero[q]];
        }
    }
    int64_t q = 0;                  /* q <= r * n + c: packs in place */
    for (int64_t r = 0; r < n; r++) {
        start[r] = q;
        for (int64_t c = 0; c < n; c++)
            if (c == r || a[r * n + c] != 0.0) {
                if (c == r)
                    diag[r] = q;
                cols[q] = c;
                a[q++] = a[r * n + c];
            }
    }
    start[n] = q;
}

/* lu_solve on bdf_lu's packed factors. */
static void bdf_lu_solve(const double *lu, const int64_t *iwork,
                         int64_t n, double *b)
{
    const int64_t *pivots = iwork, *start = pivots + n, *diag = start + n + 1;
    const int64_t *cols = diag + n;
    for (int64_t c = 0; c < n; c++)
        if (pivots[c] != c) {
            double v = b[c];
            b[c] = b[pivots[c]];
            b[pivots[c]] = v;
        }
    for (int64_t r = 1; r < n; r++) {
        double v = b[r];
        for (int64_t q = start[r]; q < diag[r]; q++)
            v -= lu[q] * b[cols[q]];
        b[r] = v;
    }
    for (int64_t r = n - 1; r >= 0; r--) {
        double v = b[r];
        for (int64_t q = diag[r] + 1; q < start[r + 1]; q++)
            v -= lu[q] * b[cols[q]];
        b[r] = v * lu[diag[r]];
    }
}

/* BdfDenseOutput at tq: the interpolant of the last accepted step,
   which ends at s->t with step size s->h_abs and order s->order. */
static void bdf_interpolate(const repro_bdf *s, const double *D, int64_t n,
                            double tq, double *out)
{
    double p[BDF_MAX_ORDER], product = 1.0;
    for (int64_t j = 0; j < s->order; j++) {
        product *= (tq - (s->t - s->h_abs * (double)j))
                   / (s->h_abs * (double)(1 + j));
        p[j] = product;
    }
    for (int64_t i = 0; i < n; i++) {
        double v = 0.0;
        for (int64_t j = 0; j < s->order; j++)
            v += D[(j + 1) * n + i] * p[j];
        out[i] = v + D[i];
    }
}

/* solve_bdf_system: returns whether the iteration converged; y and d
   end as its last iterate and correction. */
static int bdf_newton(repro_bdf *s, const bdf_tables *tables,
                      const double *yp, double c, const double *psi,
                      const double *lu, const double *scale, double tol,
                      double *y, double *d, double *dy, int64_t *n_iter)
{
    const repro_kinetics *k = s->k;
    int64_t n = k->n_species, it;
    double dy_norm_old = 0.0;
    int have_old = 0, converged = 0;
    memcpy(y, yp, (size_t)n * sizeof(double));
    memset(d, 0, (size_t)n * sizeof(double));
    for (it = 0; it < BDF_NEWTON_MAXITER; it++) {
        repro_rhs(k, y);
        s->nfev++;
        if (!bdf_finite(k->rhs_out, n))
            break;
        for (int64_t i = 0; i < n; i++)
            dy[i] = c * k->rhs_out[i] - psi[i] - d[i];
        bdf_lu_solve(lu, s->iwork, n, dy);
        double dy_norm = bdf_norm(tables, 1.0, dy, scale, n);
        double rate = have_old ? dy_norm / dy_norm_old : 0.0, power = rate;
        for (int64_t p = it + 1; p < BDF_NEWTON_MAXITER; p++)
            power *= rate;              /* rate ** (NEWTON_MAXITER - it) */
        if (have_old && (rate >= 1.0
                || power / (1.0 - rate) * dy_norm > tol))
            break;
        for (int64_t i = 0; i < n; i++) {
            y[i] += dy[i];
            d[i] += dy[i];
        }
        if (dy_norm == 0.0
                || (have_old && rate / (1.0 - rate) * dy_norm < tol)) {
            converged = 1;
            break;
        }
        dy_norm_old = dy_norm;
        have_old = 1;
    }
    *n_iter = it < BDF_NEWTON_MAXITER ? it + 1 : BDF_NEWTON_MAXITER;
    return converged;
}

/* BDF._step_impl: one accepted step from s->t, then the order and step
   size for the next.  Work layout after D: J, LU (n x n each), then the
   vectors y_predict, scale, psi, d, dy and y_new. */
static int bdf_step(repro_bdf *s, const bdf_tables *c, double newton_tol)
{
    const repro_kinetics *k = s->k;
    int64_t n = k->n_species, order = s->order, n_iter = 0;
    double *D = s->work, *J = D + (BDF_MAX_ORDER + 3) * n, *LU = J + n * n;
    double *yp = LU + n * n, *scale = yp + n, *psi = scale + n;
    double *d = psi + n, *dy = d + n, *y_new = dy + n;
    double t = s->t, h_abs = s->h_abs, t_new, error_norm, safety;
    double min_step = 10.0 * (nextafter(t, INFINITY) - t);
    int current_jac = 0;
    if (h_abs < min_step) {
        bdf_change_d(c, D, n, order, min_step / h_abs);
        h_abs = min_step;
        s->n_equal = 0;
    }
    for (;;) {
        if (!(h_abs >= min_step))   /* NaN too: a NaN tolerance */
            return REPRO_BDF_SMALL_STEP;
        t_new = t + h_abs;
        if (t_new - s->t_bound > 0.0) {
            t_new = s->t_bound;
            bdf_change_d(c, D, n, order, fabs(t_new - t) / h_abs);
            s->n_equal = 0;
            s->lu_ok = 0;
        }
        double h = t_new - t;
        h_abs = fabs(h);
        for (int64_t i = 0; i < n; i++) {
            double v = D[i], p = 0.0;
            for (int64_t j = 1; j <= order; j++) {
                v += D[j * n + i];
                p += D[j * n + i] * c->gamma[j];
            }
            yp[i] = v;
            scale[i] = s->atol + s->rtol * fabs(v);
            psi[i] = p / c->alpha[order];
        }
        double cc = h / c->alpha[order];
        int converged = 0;
        for (;;) {
            if (!s->lu_ok) {
                for (int64_t i = 0; i < n; i++)
                    for (int64_t j = 0; j < n; j++)
                        LU[i * n + j] = (i == j ? 1.0 : 0.0)
                                        - cc * J[i * n + j];
                bdf_lu(LU, s->iwork, n);
                s->nlu++;
                s->lu_ok = 1;
            }
            converged = bdf_newton(s, c, yp, cc, psi, LU, scale,
                                   newton_tol, y_new, d, dy, &n_iter);
            if (converged || current_jac)
                break;
            repro_jacobian(k, yp);
            s->njev++;
            memcpy(J, k->jac_out, (size_t)(n * n) * sizeof(double));
            s->lu_ok = 0;
            current_jac = 1;
        }
        if (!converged) {
            h_abs *= 0.5;
            bdf_change_d(c, D, n, order, 0.5);
            s->n_equal = 0;
            s->lu_ok = 0;
            s->rejected++;
            continue;
        }
        safety = 0.9 * (2 * BDF_NEWTON_MAXITER + 1)
                 / (double)(2 * BDF_NEWTON_MAXITER + n_iter);
        for (int64_t i = 0; i < n; i++)
            scale[i] = s->atol + s->rtol * fabs(y_new[i]);
        error_norm = bdf_norm(c, c->error_const[order], d, scale, n);
        if (error_norm > 1.0) {
            double factor = safety * pow(error_norm, -1.0 / (order + 1));
            if (!(factor > BDF_MIN_FACTOR))
                factor = BDF_MIN_FACTOR;
            h_abs *= factor;
            bdf_change_d(c, D, n, order, factor);
            s->n_equal = 0;
            s->rejected++;
            continue;
        }
        break;
    }
    if (!bdf_finite(y_new, n))
        return REPRO_BDF_NONFINITE;
    s->n_equal++;
    s->t = t_new;
    s->h_abs = h_abs;
    memcpy(s->y, y_new, (size_t)n * sizeof(double));
    for (int64_t i = 0; i < n; i++) {
        D[(order + 2) * n + i] = d[i] - D[(order + 1) * n + i];
        D[(order + 1) * n + i] = d[i];
    }
    for (int64_t j = order; j >= 0; j--)
        for (int64_t i = 0; i < n; i++)
            D[j * n + i] += D[(j + 1) * n + i];
    if (s->n_equal < order + 1)
        return REPRO_BDF_DONE;
    double norms[3], factors[3];
    norms[0] = order > 1
        ? bdf_norm(c, c->error_const[order - 1], D + order * n, scale, n)
        : INFINITY;
    norms[1] = error_norm;
    norms[2] = order < BDF_MAX_ORDER
        ? bdf_norm(c, c->error_const[order + 1], D + (order + 2) * n, scale, n)
        : INFINITY;
    int best = 0;               /* np.argmax: the first largest, NaN first */
    for (int i = 0; i < 3; i++) {
        factors[i] = pow(norms[i], -1.0 / (double)(order + i));
        if (i > 0 && factors[best] == factors[best]
                && (factors[i] > factors[best] || factors[i] != factors[i]))
            best = i;
    }
    order += best - 1;
    s->order = order;
    double factor = safety * factors[best];
    if (!(factor < BDF_MAX_FACTOR))
        factor = BDF_MAX_FACTOR;
    s->h_abs *= factor;
    bdf_change_d(c, D, n, order, factor);
    s->n_equal = 0;
    s->lu_ok = 0;
    return REPRO_BDF_DONE;
}

/* scipy.optimize.brentq (xtol = rtol = 4 eps, 100 iterations) on the
   event margin over the step's interpolant, from the end values the
   steps gave.  Returns the end of the final bracket on the event's side,
   so the event holds at the returned time. */
static double bdf_locate(const repro_bdf *s, double xpre, double fpre,
                         double xcur, double fcur, double *x)
{
    const double tol = 4.0 * BDF_EPS;
    double xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0;
    for (int i = 0; i < 100; i++) {
        if (fpre != 0.0 && fcur != 0.0 && signbit(fpre) != signbit(fcur)) {
            xblk = xpre;
            fblk = fpre;
            spre = scur = xcur - xpre;
        }
        if (fabs(fblk) < fabs(fcur)) {
            xpre = xcur;
            xcur = xblk;
            xblk = xpre;
            fpre = fcur;
            fcur = fblk;
            fblk = fpre;
        }
        double delta = (tol + tol * fabs(xcur)) / 2.0;
        double sbis = (xblk - xcur) / 2.0;
        if (fcur == 0.0 || fabs(sbis) < delta)
            break;
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            double stry;
            if (xpre == xblk) {
                stry = -fcur * (xcur - xpre) / (fcur - fpre);
            } else {
                double dpre = (fpre - fcur) / (xpre - xcur);
                double dblk = (fblk - fcur) / (xblk - xcur);
                stry = -fcur * (fblk * dblk - fpre * dpre)
                       / (dblk * dpre * (fblk - fpre));
            }
            double limit = fmin(fabs(spre), 3.0 * fabs(sbis) - delta);
            if (2.0 * fabs(stry) < limit) {
                spre = scur;
                scur = stry;
            } else {
                spre = scur = sbis;
            }
        } else {
            spre = scur = sbis;
        }
        xpre = xcur;
        fpre = fcur;
        xcur += fabs(scur) > delta ? scur : (sbis > 0.0 ? delta : -delta);
        bdf_interpolate(s, s->work, s->k->n_species, xcur, x);
        fcur = poll_margin(s->event, x);
    }
    return (s->direction > 0.0 ? fcur >= 0.0 : fcur <= 0.0) ? xcur : xblk;
}

/* solve_ivp(method="BDF") from (t, y) to t_bound with one terminal
   directional event: steps until t_bound, or until the event margin
   crosses from strictly on its far side (g < 0 rising, g > 0 falling)
   to the other; the crossing is located on the step's interpolant and
   the state there is returned.  Sample times strictly before the end
   (by more than 1e-12 of t_bound) get interpolated rows, so they never
   move a step.  When the rows would overflow, returns REPRO_BDF_ROWS
   with the step kept pending: point rows at a larger buffer holding the
   filled ones and call again. */
int repro_bdf_solve(repro_bdf *s)
{
    const repro_kinetics *k = s->k;
    int64_t n = k->n_species;
    double *D = s->work, *J = D + (BDF_MAX_ORDER + 3) * n;
    double *f0 = J + 2 * n * n;     /* y_predict's slot, free until a step */
    double *x = f0 + 6 * n;         /* scratch after bdf_step's vectors */
    double tiny = 1e-12 * fmax(1.0, fabs(s->t_bound));
    double newton_tol;
    bdf_tables c;
    bdf_init_tables(&c, n);
    newton_tol = fmax(10.0 * BDF_EPS / s->rtol, fmin(0.03, sqrt(s->rtol)));
    if (!s->resume) {
        double span = s->t_bound - s->t;
        s->fired = s->pending = 0;
        repro_rhs(k, s->y);
        s->nfev++;
        if (!bdf_finite(k->rhs_out, n))
            return REPRO_BDF_NONFINITE;
        memcpy(f0, k->rhs_out, (size_t)n * sizeof(double));
        /* select_initial_step for an order-1 error estimate */
        double *scale = x;
        for (int64_t i = 0; i < n; i++)
            scale[i] = s->atol + fabs(s->y[i]) * s->rtol;
        double d0 = bdf_norm(&c, 1.0, s->y, scale, n);
        double d1 = bdf_norm(&c, 1.0, f0, scale, n);
        double h0 = d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1;
        if (span < h0)
            h0 = span;
        double *y1 = D;             /* D is not filled yet */
        for (int64_t i = 0; i < n; i++)
            y1[i] = s->y[i] + h0 * f0[i];
        repro_rhs(k, y1);
        s->nfev++;
        for (int64_t i = 0; i < n; i++)
            y1[i] = k->rhs_out[i] - f0[i];
        double d2 = bdf_norm(&c, 1.0, y1, scale, n) / h0;
        double h1 = d1 <= 1e-15 && d2 <= 1e-15
            ? fmax(1e-6, h0 * 1e-3)
            : pow(0.01 / (d2 > d1 ? d2 : d1), 0.5);
        double h = 100.0 * h0;
        if (h1 < h)
            h = h1;
        if (span < h)
            h = span;
        s->h_abs = h;
        repro_jacobian(k, s->y);
        s->njev++;
        memcpy(J, k->jac_out, (size_t)(n * n) * sizeof(double));
        for (int64_t i = 0; i < n; i++) {
            D[i] = s->y[i];
            D[n + i] = f0[i] * s->h_abs;
        }
        s->order = 1;
        s->n_equal = 0;
        s->lu_ok = 0;
        s->g = s->event != NULL ? poll_margin(s->event, s->y) : 0.0;
        s->resume = 1;
    }
    for (;;) {
        if (!s->pending) {
            double t_old = s->t;
            int status = bdf_step(s, &c, newton_tol);
            if (status != REPRO_BDF_DONE)
                return status;
            s->steps++;
            if (s->event != NULL) {
                double g = poll_margin(s->event, s->y);
                if (s->direction > 0.0 ? s->g < 0.0 && 0.0 <= g
                                       : s->g > 0.0 && 0.0 >= g) {
                    s->fired = 1;
                    s->t_event = bdf_locate(s, t_old, s->g, s->t, g, x);
                }
                s->g = g;
            }
            s->pending = 1;
        }
        double limit = s->fired ? s->t_event - tiny
                                : fmin(s->t, s->t_bound - tiny);
        int64_t last = s->next_eval;
        while (last < s->n_eval && s->t_eval[last] <= limit)
            last++;
        if (s->n_rows + (last - s->next_eval) > s->capacity)
            return REPRO_BDF_ROWS;
        for (; s->next_eval < last; s->next_eval++, s->n_rows++)
            bdf_interpolate(s, D, n, s->t_eval[s->next_eval],
                            s->rows + s->n_rows * n);
        s->pending = 0;
        if (s->fired) {
            bdf_interpolate(s, D, n, s->t_event, s->y);
            s->t = s->t_event;
            return REPRO_BDF_DONE;
        }
        if (s->t >= s->t_bound)
            return REPRO_BDF_DONE;
    }
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
                    f"compiled mass-action, SSA and BDF kernels "
                    f"unavailable ({type(exc).__name__}: {exc}); using "
                    f"the NumPy kinetics and the Python SSA loop, which "
                    f"give identical results, and LSODA for native-bdf",
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


def margin(ffi, dest, table) -> list:
    """Point the ``repro_margin`` ``dest`` at a
    :class:`~repro.crn.simulation.margins.MarginTable`'s arrays; returns
    the buffers that keep them alive."""
    live = [ffi.from_buffer("int64_t[]", table.ptr),
            ffi.from_buffer("int64_t[]", table.species),
            ffi.from_buffer("double[]", table.weights),
            ffi.from_buffer("double[]", table.thresholds),
            ffi.from_buffer("int64_t[]", table.signs)]
    dest.n_terms = len(table.thresholds)
    dest.ptr, dest.species, dest.weight, dest.threshold, dest.sign = live
    return live
