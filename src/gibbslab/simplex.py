"""Lattice points of the probability simplex: type classes and grids.

The compositions of ``total`` into ``parts`` non-negative integers serve
twice: as the occupation-count type classes of n particles on m atoms, and,
divided by ``steps``, as the global grid of the simplex oracle.  They are
generated in lexicographic order, block by block, so memory stays bounded
however many rows there are; ``argmin`` tie-breaking and the row order of
enumerated tables depend on that order.

The oracle locates the basin on the grid and polishes the incumbent by a
shrinking local pattern search.  Only objective evaluations are used, so
results are independent of any closed-form solution being checked.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import EnergyError, EnumerationCapError

__all__ = ["CLASS_CAP", "class_count", "class_table", "compositions", "logsumexp",
           "simplex_minimize"]

# Type-class tables are held whole in memory, about (m + 6) * 8 bytes a class.
CLASS_CAP = 1_000_000
_BLOCK_ROWS = 1 << 17
# the local search: each refine round divides the step by _SHRINK and tries
# every lattice offset within _RADIUS steps of the incumbent
_SHRINK = 5
_RADIUS = 3


def _blocks(total, parts, block_rows):
    """Compositions of ``total`` into ``parts``, in lexicographic order, as
    column-major arrays of at most ``block_rows`` rows."""
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    # every row extends a composition of total into parts - 1 whose last
    # entry r splits into (k, r - k) for k = 0..r
    head = compositions(total, parts - 1)
    lengths = head[:, -1] + 1
    ends = np.cumsum(lengths)
    n_rows = int(ends[-1])
    for start in range(0, n_rows, block_rows):
        size = min(block_rows, n_rows - start)
        first = int(np.searchsorted(ends, start, side="right"))
        last = int(np.searchsorted(ends, start + size - 1, side="right"))
        reps = lengths[first:last + 1]
        skip = start - int(ends[first] - reps[0])

        def spread(values):
            return np.repeat(values, reps)[skip:skip + size]

        rows = np.empty((size, parts), dtype=np.int64, order="F")
        for j in range(parts - 2):
            rows[:, j] = spread(head[first:last + 1, j])
        k = np.arange(start, start + size) - spread(ends[first:last + 1] - reps)
        rows[:, -2] = k
        rows[:, -1] = spread(head[first:last + 1, -1]) - k
        yield rows


def compositions(total, parts):
    """All non-negative integer vectors of length ``parts`` summing to
    ``total``, in lexicographic order."""
    return next(_blocks(total, parts, math.comb(total + parts - 1, parts - 1)))


def class_count(n, m):
    """Number C(n+m-1, m-1) of type classes of n particles on m atoms;
    raises EnumerationCapError above CLASS_CAP."""
    count = math.comb(n + m - 1, m - 1)
    if count > CLASS_CAP:
        raise EnumerationCapError(
            f"{count} type classes of n={n} on {m} atoms exceed the cap {CLASS_CAP}")
    return count


ClassTable = namedtuple("ClassTable", "counts log_multinomials energies log_reference")


def class_table(model, n):
    """Every type class of n particles under a FiniteEnergyModel (capped):
    the (classes, m) counts in lexicographic order, log n!/prod c_a!, w_n,
    and counts @ log pi."""
    m = model.space.n_atoms
    class_count(n, m)
    counts = compositions(n, m)
    log_factorials = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_multis = log_factorials[n] - log_factorials[counts].sum(axis=1)
    return ClassTable(counts, log_multis, model.class_energies(counts, n),
                      counts @ np.log(model.space.probs))


def logsumexp(a):
    """log(sum(exp(a))) of a 1-d array, summed as scipy.special.logsumexp
    (1.17) sums it, so the two agree bit for bit: the terms equal to the
    maximum are split off the shifted sum, and a result that is not finite
    is recomputed directly (all -inf gives -inf, any +inf +inf, NaN NaN)."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        top = a == a_max
        terms = np.exp(a - a_max)
        terms[top] = 0.0
        count = top.sum()
        out = np.log1p(terms.sum() / count) + np.log(count) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def _local_offsets(m, radius):
    axes = [np.arange(-radius, radius + 1)] * (m - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    head = np.column_stack([a.ravel() for a in mesh])
    tail = -head.sum(axis=1, keepdims=True)
    offsets = np.column_stack([head, tail])
    return offsets[np.abs(tail[:, 0]) <= radius]


def simplex_minimize(objective, m, steps=200, refine_rounds=4):
    """Minimize a vectorized objective over the m-simplex.

    ``objective`` maps an (r, m) array of probability vectors to r values
    (+inf allowed); the grid reaches it block by block.  Returns
    ``(value, argmin)``; ties on the grid go to its first row.
    """
    if steps < 1:
        raise EnergyError(f"simplex grid needs at least 1 step, got {steps}")
    best_val, best_tau = math.inf, None
    for rows in _blocks(steps, m, _BLOCK_ROWS):
        taus = rows / steps
        values = np.asarray(objective(taus), dtype=float)
        i = int(np.argmin(values))
        if best_tau is None or values[i] < best_val:
            best_val, best_tau = float(values[i]), taus[i].copy()
    h = 1.0 / steps
    offsets = _local_offsets(m, _RADIUS)
    for _ in range(refine_rounds):
        h /= _SHRINK
        cand = best_tau[None, :] + h * offsets
        ok = (cand >= 0.0).all(axis=1)
        cand = cand[ok]
        if cand.size == 0:
            continue
        cand /= cand.sum(axis=1, keepdims=True)
        vals = np.asarray(objective(cand), dtype=float)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_tau = cand[i].copy()
    return best_val, best_tau
