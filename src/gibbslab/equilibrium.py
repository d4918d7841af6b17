"""Free-energy functionals on grid densities and their minimizers.

For a model with pair-kernel table M, one-body values V and limiting
inverse temperature beta, the discrete free energy of node masses m is

    F(m) = (1/2) m^T M m + V^T m + (1/beta) sum_i m_i log(m_i / w_i),

the grid transcription of  energy + (1/beta) * relative entropy; finite
models give (M, V, w) = (pair matrix, 0, pi).  One builder
(``_limit_tables``) makes these tables and one entropic mirror descent
(``_mirror_descent``) minimizes F on them: here, in the solver of
inf {f + F} in ``fekete`` (beta = inf for Fekete tables) and, with V
replaced by V - lambda g, in the rate profiles of ``ldp``.  A step is
accepted only if the directly computed objective change is not positive,
and the certified optimality measure is the simplex duality gap.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyModel, FiniteEnergyModel, GreenKernel, w_macro
from .errors import EnergyError, MeasureError, StepSizeFailureError
from .measures import GridMeasure, relative_entropy
from .simplex import logsumexp

__all__ = [
    "EquilibriumResult",
    "MeanFieldReport",
    "DerivativeReport",
    "free_energy",
    "minimize_free_energy",
    "mean_field_residual",
    "directional_derivative_check",
]


def free_energy(model, mu):
    """Macroscopic energy plus (1/beta) relative entropy; beta = inf drops
    the entropy term."""
    beta = model.beta.limit
    energy = w_macro(model, mu)
    if math.isinf(beta):
        return energy
    return energy + relative_entropy(mu) / beta


def _limit_tables(model, job, finite=True):
    """(M, V, reference masses) of the limit free energy: a grid model's
    cached node table, limit potential values and node weights, or a finite
    model's pair matrix, zeros and atom probabilities.  ``job`` names the
    caller in the errors; a grid-only job passes finite=False."""
    if isinstance(model, FiniteEnergyModel):
        if not finite:
            raise EnergyError(f"{job} needs a grid model, not a FiniteEnergyModel")
        return model.pair_matrix, np.zeros(model.space.n_atoms), model.space.probs
    if not isinstance(model, EnergyModel):
        raise EnergyError(f"{job} cannot take a {type(model).__name__}")
    return (model.node_matrix(), model.potential_limit_values(model.space.nodes),
            model.space.weights)


def _gradient(matrix, v, weights, masses, beta):
    g = matrix @ masses + v
    if math.isinf(beta):
        return g
    with np.errstate(divide="ignore"):
        return g + (np.log(masses / weights) + 1.0) / beta


def _objective(matrix, v, weights, masses, beta):
    value = 0.5 * float(masses @ matrix @ masses) + float(v @ masses)
    if math.isinf(beta):
        return value
    ratio = masses / weights
    terms = np.where(masses > 0.0, masses * np.log(np.where(ratio > 0.0, ratio, 1.0)), 0.0)
    return value + float(terms.sum()) / beta


@dataclass
class EquilibriumResult:
    """Outcome of a free-energy minimization."""

    measure: GridMeasure
    value: float
    gap: float
    iterations: int
    converged: bool
    status: str
    gradient: np.ndarray
    trace: list = field(default_factory=list)


Descent = namedtuple("Descent", "masses gradient gap iterations status trace")


def _mirror_descent(matrix, v, ref, beta, init, max_iters=3000, tol=1e-10, step=1.0):
    """Entropic mirror descent on F(m) = m.Mm/2 + v.m + D(m || ref)/beta over
    the simplex of mass vectors.

    A step is taken only if the objective change, computed directly rather
    than as a difference of two nearby values, is <= 0, so that round-off
    near the optimum neither stops the descent early nor lets it wander; the
    step size is capped at 6/span(gradient) so that a steep term cannot
    teleport the iterate onto a simplex vertex.  The descent ends when the
    simplex duality gap <grad, m> - min grad falls to tol * (1 + |F|)
    (status ``gap_below_tol``), when no step size is accepted or an accepted
    step moves less than tol in total variation (``stalled``), or after
    ``max_iters`` gap evaluations (``max_iterations``).  The trace starts at
    the initial objective and adds each accepted change, so it never rises.
    """
    if max_iters < 1:
        raise EnergyError(f"max_iters must be >= 1, got {max_iters}")
    finite_beta = math.isfinite(beta)

    def duality_gap(m, grad):
        gap = float(grad @ m - grad.min())
        if not math.isfinite(gap):
            raise StepSizeFailureError(
                f"free-energy gradient is not finite at iteration {iterations}")
        return gap

    def change(m, cand):
        # objective(x) - objective(m) for x = cand and d = x - m, which sums
        # to zero so that constants drop out of d.w:
        #   (x.Mx - m.Mm) / 2 = d.M(x + m) / 2,
        #   D(x) - D(m) = d.log(m / ref) + sum(x log(1 + d / m) - d)
        d = cand - m
        w = 0.5 * (matrix @ (cand + m)) + v
        if finite_beta:
            w = w + np.log(m / ref) / beta
        val = float(d @ (w - w.mean()))
        if finite_beta:
            val += float((cand * np.log1p(d / m) - d).sum()) / beta
        return val

    def candidate(m, grad, eta):
        with np.errstate(divide="ignore"):
            shifted = np.log(m) - eta * grad
        cand = np.exp(shifted - logsumexp(shifted))
        if finite_beta:
            cand = np.maximum(cand, 1e-300)
            cand /= cand.sum()
        return cand

    m = np.array(init, dtype=float)
    trace = [_objective(matrix, v, ref, m, beta)]
    status = "max_iterations"
    eta = float(step)
    iterations = 0
    grad = _gradient(matrix, v, ref, m, beta)
    for iterations in range(1, max_iters + 1):
        if duality_gap(m, grad) <= tol * (1.0 + abs(trace[-1])):
            break
        span = float(grad.max() - grad.min())
        if span > 0.0:
            eta = min(eta, 6.0 / span)
        while True:
            cand = candidate(m, grad, eta)
            delta = change(m, cand)
            if delta <= 0.0 or eta <= step * 1e-16:
                break
            eta *= 0.5
        if not delta <= 0.0:
            status = "stalled"
            break
        moved = float(np.abs(cand - m).sum())
        m = cand
        trace.append(trace[-1] + delta)
        grad = _gradient(matrix, v, ref, m, beta)
        eta = min(eta * 1.3, 50.0 * step)
        if moved < tol:
            status = "stalled"
            break
    gap = duality_gap(m, grad)
    if gap <= tol * (1.0 + abs(trace[-1])):
        status = "gap_below_tol"
    return Descent(m, grad, gap, iterations, status, trace)


def minimize_free_energy(model, initial=None, max_iters=5000, tol=1e-10, step=1.0):
    """Entropic mirror descent (``_mirror_descent``) to the minimizer of the
    free energy, from the reference weights or ``initial``.

    Converged means the simplex duality gap <g, m> - min g fell to
    ``tol * (1 + |F|)``.  Raises StepSizeFailureError when the gradient is not
    finite, or when the descent stalls while the gap is still above
    ``max(1e3 * tol, 1e-6) * (1 + |F|)``; EnergyError for a finite model,
    a step not finite and positive or a tol not finite and >= 0.
    """
    matrix, v, weights = _limit_tables(model, "free-energy minimization", finite=False)
    if not (math.isfinite(step) and step > 0.0):
        raise EnergyError(f"descent step must be finite and positive, got {step!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise EnergyError(f"descent tolerance must be finite and >= 0, got {tol!r}")
    space = model.space
    if initial is not None and initial.space is not space:
        raise MeasureError("initial measure lives on a different space")
    masses = weights.copy() if initial is None else initial.node_masses.copy()
    return _equilibrium(space, matrix, v, model.beta.limit, masses,
                        max_iters=max_iters, tol=tol, step=step)


def _equilibrium(space, matrix, v, beta, masses, max_iters=5000, tol=1e-10, step=1.0):
    """``minimize_free_energy`` on the tables (M, V) of a grid model at
    limit inverse temperature ``beta``, from the node masses ``masses``."""
    weights = space.weights
    if not math.isinf(beta) and masses.min() <= 0.0:
        raise MeasureError("finite-temperature minimization needs a strictly "
                           "positive initial density")
    result = _mirror_descent(matrix, v, weights, beta, masses,
                             max_iters=max_iters, tol=tol, step=step)
    value = _objective(matrix, v, weights, result.masses, beta)
    if result.status == "stalled" and result.gap > max(1e3 * tol, 1e-6) * (1.0 + abs(value)):
        raise StepSizeFailureError(
            f"descent stalled at gap {result.gap!r} after {result.iterations} iterations")
    return EquilibriumResult(measure=GridMeasure(space, result.masses / weights),
                             value=value, gap=result.gap, iterations=result.iterations,
                             converged=result.status == "gap_below_tol",
                             status=result.status, gradient=result.gradient,
                             trace=result.trace)


# -- mean-field first-order condition ---------------------------------------------


@dataclass
class MeanFieldReport:
    """Spectral residual of the mean-field condition and its truncation floor."""

    residual: float
    tail: float
    beta: float


def _spectral_laplacian(space, order, node_values):
    """Node values of -Laplacian of the function projected on the basis."""
    basis = space.basis_values[:, 1 : order + 1]
    coeffs = basis.T @ (space.weights * node_values)
    return basis @ (space.eigenvalues[1 : order + 1] * coeffs)


def mean_field_residual(model, mu):
    """L2 residual of  beta (rho - lambda - lap V) + (-lap log rho) = 0.

    The first variation of the free energy is G mu + V + (1/beta) log rho;
    applying the negative Laplacian and using the Green identity turns
    stationarity into the reported field equation.  ``tail`` is the part of
    beta (rho - lambda) outside the truncated basis: the residual cannot sit
    below it on this grid, so values near ``tail`` mean the discrete optimum
    was reached.
    """
    if not (isinstance(model, EnergyModel) and isinstance(model.kernel, GreenKernel)):
        raise EnergyError("mean-field residual needs a Green-kernel model")
    beta = model.beta.limit
    if not math.isfinite(beta) or beta <= 0.0:
        raise EnergyError("mean-field residual needs a finite positive beta limit")
    if mu.space is not model.space:
        raise MeasureError("measure lives on a different space")
    space = model.space
    green = model.kernel.model
    order = green.order
    rho = mu.density
    if rho.min() <= 0.0:
        raise MeasureError("mean-field residual needs a strictly positive density")
    lam = green.charge.values
    field_values = rho - lam
    v = model.potential_limit_values(space.nodes)
    if np.any(v):
        field_values = field_values + _spectral_laplacian(space, order, v)
    lap_log_rho = _spectral_laplacian(space, order, np.log(rho))
    residual_values = beta * field_values + lap_log_rho
    residual = math.sqrt(float(space.weights @ residual_values ** 2))
    basis = space.basis_values[:, : order + 1]
    coeffs = basis.T @ (space.weights * field_values)
    projected = basis @ coeffs
    tail_values = field_values - projected
    tail = beta * math.sqrt(float(space.weights @ tail_values ** 2))
    return MeanFieldReport(residual=residual, tail=tail, beta=beta)


# -- directional derivative checks ---------------------------------------------------


@dataclass
class DerivativeReport:
    """One-sided finite-difference consistency of the first variation."""

    analytic: float
    fd: dict
    errors: dict
    curvature: float

    @property
    def consistent(self):
        return all(err <= h * self.curvature + 1e-12
                   for h, err in self.errors.items())


def directional_derivative_check(model, mu, nu, hs=(1e-3, 1e-4)):
    """Compare <dF(mu), nu - mu> with one-sided difference quotients of F
    along the segment (1-h) mu + h nu; the error should be O(h) with the
    reported curvature constant."""
    matrix, v, weights = _limit_tables(model, "the directional derivative check",
                                       finite=False)
    if mu.space is not model.space or nu.space is not model.space:
        raise MeasureError("measures live on a different space")
    beta = model.beta.limit
    m = mu.node_masses
    target = nu.node_masses
    if not math.isinf(beta) and m.min() <= 0.0:
        raise MeasureError("finite-temperature derivative needs interior mu")
    direction = target - m
    gradient = _gradient(matrix, v, weights, m, beta)
    analytic = float(gradient @ direction)
    base = _objective(matrix, v, weights, m, beta)
    curvature = float(direction @ matrix @ direction)
    if not math.isinf(beta):
        mask = direction != 0.0
        curvature += float((direction[mask] ** 2 / m[mask]).sum()) / beta
    curvature = abs(curvature)
    fd, errors = {}, {}
    for h in hs:
        moved = m + h * direction
        fd[h] = (_objective(matrix, v, weights, moved, beta) - base) / h
        errors[h] = abs(fd[h] - analytic)
    return DerivativeReport(analytic=analytic, fd=fd, errors=errors,
                            curvature=curvature)
