"""The benchmark's workloads: set-up, the operations of one round, and the
checks of each operation's outputs.

A workload's ``setup`` imports gibbslab and builds every space, Green model
and energy model its rounds reuse; ``ops`` lists the operations of one
round.  Every input comes from the workload seed, except where an operation
says otherwise.  Checks compare outputs with ``refs`` (computed apart from
the program) or with a property the method must have, and return a list of
problems; an empty list means the outputs are correct.
"""

import csv
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

import refs


@dataclass
class Fault:
    """A fault of the program that makes an operation fail on every run,
    recognised either by the exception it raises (``error``) or by the
    start of the check problem it causes (``problem``)."""

    what: str
    error: type = None
    problem: str = None

    def covers(self, error, problem):
        """Whether this fault explains ``problem``; ``error`` is the
        exception the operation raised, or None if it returned."""
        if error is not None:
            return self.error is not None and isinstance(error, self.error)
        return self.problem is not None and problem.startswith(self.problem)


@dataclass
class Op:
    """One operation of a round.

    ``call`` runs the program and returns its result; ``check`` maps that
    result to a list of problems.  ``faults`` are the known program faults
    the operation may show: such a failure is counted, while an exception or
    a problem that no fault covers stops the benchmark.  ``chain_steps`` is
    the number of Markov chain steps the call makes.
    """

    name: str
    call: object
    check: object
    faults: tuple = ()
    chain_steps: int = 0
    cli: bool = False


def _streams(seed, count):
    """Independent integer seeds for the program, drawn from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2 ** 31, size=count)]


def _close(label, got, want, tol, relative=False):
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = np.maximum(np.abs(want), 1e-300) if relative else 1.0
    err = float(np.max(np.abs(got - want) / scale))
    return [] if err <= tol else [f"{label}: error {err:.3e} > {tol:g}"]


def _batch_se(values, batches=40):
    values = np.asarray(values, float)
    usable = values.size // batches * batches
    means = values[:usable].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# Each round runs the CLI twice, so that the median of cli_s rests on more
# samples per run.
CLI_RUNS = 2


class Workload:
    """Shared plumbing: chain segments and the CLI run as a child process."""

    name = None
    cli_args = None

    def __init__(self, root, run_cli):
        self.root = root
        self.run_cli = run_cli

    def cli_ops(self, check):
        args = [a.replace("{root}", self.root) for a in self.cli_args]
        return [Op(f"cli {self.cli_args[0]} ({k + 1})", lambda: self.run_cli(args),
                   check, cli=True) for k in range(CLI_RUNS)]

    def chain_ops(self, label, model, n, steps, seeds, check, **kwargs):
        """One chain run as consecutive ``mcmc_run`` segments, one per seed;
        each segment starts where the previous one ended.  ``check`` gets a
        segment's result and the results of the round's segments so far."""
        done = []

        def run(index):
            initial = done[-1].final_state.positions if index else None
            done.append(self.sampler.mcmc_run(model, n, steps=steps, seed=seeds[index],
                                              initial=initial, name="bench", **kwargs))
            return done[-1]

        return [Op(f"{label} segment {index + 1}", functools.partial(run, index),
                   lambda result: check(result, done), chain_steps=steps)
                for index in range(len(seeds))]

    def config(self, name):
        with open(os.path.join(self.root, "configs", name), encoding="utf-8") as fh:
            return yaml.safe_load(fh)


# -- finite-exact ----------------------------------------------------------------

ZERO_N = [2, 5, 9]
ZERO_GRID_STEPS = 80
TRI_PROBS = np.array([0.5, 0.3, 0.2])
TRI_PAIR = np.array([[0.0, 1.0, 0.4], [1.0, 0.3, -0.2], [0.4, -0.2, 0.6]])
TRI_TILT = np.array([0.5, 0.0, -0.3])
TRI_BETA = 1.5
TRI_SHORT_N = list(range(2, 17))
TRI_SHORT_GRID_STEPS = 200
TRI_LONG_N = [8, 16, 32, 64]
TRI_LONG_GRID_STEPS = 40
FOUR_PROBS = np.array([0.4, 0.3, 0.2, 0.1])
FOUR_PAIR = np.array([[0.0, 1.0, 0.5, -0.3], [1.0, 0.2, 0.8, 0.1],
                      [0.5, 0.8, 0.0, 0.4], [-0.3, 0.1, 0.4, 0.6]])
FOUR_N = 6
FOUR_SEGMENTS, FOUR_SEGMENT_STEPS = 6, 10_000
WITNESS_PROBLEM = "witness fixed-point error"


class FiniteExact(Workload):
    """Exact L_n on finite atom spaces: type-class enumeration and the
    simplex-grid oracle.  The models are fixed; the seed drives the chain."""

    name = "finite-exact"
    cli_args = ["laplace-verify", "--config", "{root}/configs/finite2_laplace.yaml"]

    def setup(self, seed):
        from gibbslab import energy, fekete, ldp, measures, sampler
        from gibbslab.errors import EnumerationCapError

        self.ldp, self.sampler = ldp, sampler
        beta = energy.BetaSchedule.constant
        self.zero = energy.FiniteEnergyModel(
            measures.FiniteSpace([0.25] * 4), beta(1.0), pair_matrix=np.zeros((4, 4)))
        self.tri = energy.FiniteEnergyModel(
            measures.FiniteSpace(TRI_PROBS), beta(TRI_BETA), pair_matrix=TRI_PAIR)
        self.tilt = fekete.IntegralFunctional(TRI_TILT)
        self.four = energy.FiniteEnergyModel(
            measures.FiniteSpace(FOUR_PROBS), beta(1.0), pair_matrix=FOUR_PAIR)
        self.chain_seeds = _streams(seed, FOUR_SEGMENTS)
        self._edge_limit = None
        # Both 3-atom tables may show the witness fault; only the n <= 64
        # table reaches the cap.  The n <= 64 table keeps the witness fault
        # so that lifting the cap alone does not stop the benchmark.
        witness = Fault("ldp._penalized_descent leaves the witness ~1e-6 from the fixed point",
                        problem=WITNESS_PROBLEM)
        cap = Fault("ldp.STATE_CAP is compared with m**n, not with the class count",
                    error=EnumerationCapError)
        self.short_faults, self.long_faults = (witness,), (cap, witness)

    def ops(self):
        ldp, sampler = self.ldp, self.sampler
        return [
            Op("zero-energy table",
               lambda: ldp.laplace_verify_finite(self.zero.space, self.zero, None, ZERO_N,
                                                 grid_steps=ZERO_GRID_STEPS),
               self.check_zero),
            Op("3-atom table n<=16",
               lambda: ldp.laplace_verify_finite(self.tri.space, self.tri, self.tilt,
                                                 TRI_SHORT_N, grid_steps=TRI_SHORT_GRID_STEPS),
               self.check_tri, faults=self.short_faults),
            Op("3-atom table n<=64",
               lambda: ldp.laplace_verify_finite(self.tri.space, self.tri, self.tilt,
                                                 TRI_LONG_N, grid_steps=TRI_LONG_GRID_STEPS),
               self.check_tri, faults=self.long_faults),
            Op("enumerate_gibbs", lambda: sampler.enumerate_gibbs(self.four, FOUR_N),
               self.check_enumeration),
            *self.chain_ops("finite chain", self.four, FOUR_N, FOUR_SEGMENT_STEPS,
                            self.chain_seeds, self.check_chain, thin=1),
            *self.cli_ops(self.check_cli),
        ]

    def check_zero(self, verdict):
        if all(v == 0.0 for v in verdict.values) and all(g == 0.0 for g in verdict.gaps):
            return []
        return [f"zero-energy L_n {list(verdict.values)} / gaps {list(verdict.gaps)} "
                "are not exactly 0.0"]

    def check_tri(self, verdict):
        want = [refs.finite_laplace_value(TRI_PROBS, TRI_PAIR, TRI_BETA, n, TRI_TILT)
                for n in verdict.n_values]
        problems = _close("L_n", verdict.values, want, 1e-12, relative=True)
        if not np.all(np.diff(verdict.gaps) < 0.0):
            problems.append(f"gaps do not decrease: {list(verdict.gaps)}")
        err = refs.finite_fixed_point_error(verdict.witness, TRI_PROBS, TRI_PAIR,
                                            TRI_BETA, TRI_TILT)
        if not err <= 1e-8:
            problems.append(f"{WITNESS_PROBLEM} {err:.3e} > 1e-08")
        return problems

    def check_enumeration(self, result):
        return _close("enumerated marginals", result.marginal(),
                      refs.finite_marginals(FOUR_PROBS, FOUR_PAIR, 1.0, FOUR_N), 1e-12)

    def check_chain(self, result, segments):
        counts = np.bincount(result.final_state.positions, minlength=len(FOUR_PROBS))
        problems = _close("finite chain energy", result.final_state.energy,
                          refs.finite_class_energies(FOUR_PAIR, counts[None, :], FOUR_N)[0],
                          1e-9)
        if len(segments) < FOUR_SEGMENTS:
            return problems
        samples = np.concatenate([segment.samples for segment in segments])
        exact = refs.finite_marginals(FOUR_PROBS, FOUR_PAIR, 1.0, FOUR_N)
        for atom, want in enumerate(exact):
            series = (samples == atom).mean(axis=1)
            z = (series.mean() - want) / _batch_se(series)
            if not abs(z) < 4.0:
                problems.append(f"chain marginal of atom {atom} is {z:.2f} "
                                "batch-means errors from the exact value")
        return problems

    def check_cli(self, outdir):
        cfg = self.config("finite2_laplace.yaml")
        probs = np.asarray(cfg["finite"]["probs"], float)
        pair = np.asarray(cfg["finite"]["pair_matrix"], float)
        beta = float(cfg["beta"]["value"])
        tilt = np.asarray(cfg["ldp"]["f"]["vector"], float)
        verdict = _read_json(os.path.join(outdir, "laplace_verdict.json"))
        want = [refs.finite_laplace_value(probs, pair, beta, n, tilt)
                for n in verdict["n_values"]]
        problems = _close("CLI L_n", verdict["values"], want, 1e-12)
        if verdict["n_values"] != cfg["ldp"]["n_values"]:
            problems.append(f"CLI n values {verdict['n_values']}")
        if self._edge_limit is None:
            self._edge_limit = refs.two_atom_edge_limit(probs, pair, beta, tilt)
        return problems + _close("CLI limit", verdict["limit"], self._edge_limit, 1e-9)


# -- torus-coulomb -----------------------------------------------------------------

TORUS_SIDE, TORUS_ORDER = 64, 16
SPHERE_LEVEL, SPHERE_ORDER = 4, 12
TORUS_N, TORUS_BETA = 8, 2.0
TORUS_SEGMENTS, TORUS_SEGMENT_STEPS = 4, 10
EQUILIBRIUM_POTENTIAL = "cos(2*pi*u)"
SPHERE_PROBES = 32


class TorusCoulomb(Workload):
    """Green-kernel gas on the flat torus 64^2 / order 16, plus Green identity
    residuals on the sphere.  The seed drives the chains and the probes."""

    name = "torus-coulomb"
    cli_args = ["green-check", "--config", "{root}/configs/torus_green.yaml"]

    def setup(self, seed):
        from gibbslab import energy, equilibrium, sampler, spaces

        self.energy, self.equilibrium, self.sampler, self.spaces = (
            energy, equilibrium, sampler, spaces)
        torus = spaces.build_space("torus", TORUS_SIDE, TORUS_ORDER)
        green = spaces.GreenModel(torus, spaces.BackgroundCharge.uniform(torus))
        self.chain_model = energy.EnergyModel(torus, energy.GreenKernel(green),
                                              energy.BetaSchedule.constant(TORUS_BETA))
        sphere = spaces.build_space("sphere", SPHERE_LEVEL, SPHERE_ORDER)
        self.sphere_green = spaces.GreenModel(sphere, spaces.BackgroundCharge.uniform(sphere))
        self.chain_seeds = _streams(seed, TORUS_SEGMENTS)
        rng = np.random.default_rng([seed, 1])
        points = rng.standard_normal((SPHERE_PROBES, 3))
        self.probes = [(rng.standard_normal(self.sphere_green.order + 1), p[None, :])
                       for p in points / np.linalg.norm(points, axis=1, keepdims=True)]

    def ops(self):
        return [
            *self.chain_ops("torus chain", self.chain_model, TORUS_N, TORUS_SEGMENT_STEPS,
                            self.chain_seeds, self.check_chain),
            Op("torus equilibrium", self.run_equilibrium, self.check_equilibrium),
            Op("sphere identity residuals",
               lambda: [self.spaces.green_identity_residual(self.sphere_green, c, x)
                        for c, x in self.probes],
               self.check_residuals),
            *self.cli_ops(self.check_cli),
        ]

    def run_equilibrium(self):
        spaces, energy = self.spaces, self.energy
        torus = spaces.build_space("torus", TORUS_SIDE, TORUS_ORDER)
        green = spaces.GreenModel(torus, spaces.BackgroundCharge.uniform(torus))
        model = energy.EnergyModel(
            torus, energy.GreenKernel(green), energy.BetaSchedule.constant(TORUS_BETA),
            potentials=[energy.StaticPotential.from_expression(torus, EQUILIBRIUM_POTENTIAL)])
        return self.equilibrium.minimize_free_energy(model)

    def check_chain(self, result, segments):
        want = refs.torus_green_energy(result.final_state.positions, TORUS_ORDER)
        return _close("torus chain energy", result.final_state.energy, want, 1e-9)

    def check_equilibrium(self, result):
        problems = []
        if result.status != "gap_below_tol" or not result.converged:
            problems.append(f"equilibrium ended with {result.status} at gap {result.gap:.3e}")
        space = result.measure.space
        err = refs.torus_equilibrium_error(
            result.measure.node_masses, np.cos(2.0 * math.pi * space.nodes[:, 0]),
            space.weights, TORUS_BETA, TORUS_ORDER)
        if not err <= 1e-8:
            problems.append(f"equilibrium fixed-point error {err:.3e} > 1e-08")
        return problems

    def check_residuals(self, residuals):
        worst = max(residuals)
        return [] if worst < 1e-6 else [f"sphere identity residual {worst:.3e} >= 1e-06"]

    def check_cli(self, outdir):
        summary = _read_json(os.path.join(outdir, "green_summary.json"))
        rows = _read_csv(os.path.join(outdir, "green_residuals.csv"))
        trials = self.config("torus_green.yaml")["green_check"]["trials"]
        worst = max(float(row["residual"]) for row in rows)
        problems = []
        if len(rows) != trials or summary["trials"] != trials:
            problems.append(f"green-check wrote {len(rows)} residuals, expected {trials}")
        if not (worst < 1e-6 and summary["max_residual"] < 1e-6):
            problems.append(f"green-check residual {worst:.3e} >= 1e-06")
        return problems


# -- circle-fekete -----------------------------------------------------------------

CIRCLE_TABLE_N = list(range(4, 65, 4))
CIRCLE_RESTARTS = 4
CIRCLE_CHAIN_N = 16
CIRCLE_SEGMENTS, CIRCLE_SEGMENT_STEPS = 4, 5_000


class CircleFekete(Workload):
    """Log gas on the circle from configs/circle_log.yaml: Fekete minima
    against their closed form and a log-gas chain.  The seed drives the
    chain.  The table's restarts use the config's own seed: the descent
    iterations a restart needs vary several-fold from one restart seed to
    another, and a table whose work changed with the seed would hide a
    change of speed behind that spread."""

    name = "circle-fekete"
    cli_args = ["fekete", "--config", "{root}/configs/circle_log.yaml"]

    def setup(self, seed):
        from gibbslab import config, fekete, sampler

        self.fekete, self.sampler = fekete, sampler
        run_config = config.RunConfig.from_file(
            os.path.join(self.root, "configs", "circle_log.yaml"))
        self.model = config.build_model(run_config)
        self.table_seed = run_config.seed
        self.chain_seeds = _streams(seed, CIRCLE_SEGMENTS)

    def ops(self):
        return [
            Op("infima table",
               lambda: self.fekete.infima_convergence_table(
                   self.model, CIRCLE_TABLE_N, restarts=CIRCLE_RESTARTS,
                   seed=self.table_seed),
               self.check_table),
            *self.chain_ops("log-gas chain", self.model, CIRCLE_CHAIN_N,
                            CIRCLE_SEGMENT_STEPS, self.chain_seeds, self.check_chain),
            *self.cli_ops(self.check_cli),
        ]

    def check_table(self, table):
        closed = [refs.circle_fekete_minimum(n) for n in table.n_values]
        problems = _close("inf_n", table.inf_values, closed, 1e-6)
        energies = [refs.circle_log_energy(r.points) for r in table.results]
        return problems + _close("inf_n against its points' energy",
                                 table.inf_values, energies, 1e-9)

    def check_chain(self, result, segments):
        return _close("log-gas chain energy", result.final_state.energy,
                      refs.circle_log_energy(result.final_state.positions), 1e-9)

    def check_cli(self, outdir):
        rows = _read_csv(os.path.join(outdir, "fekete_table.csv"))
        n_values = [int(row["n"]) for row in rows]
        problems = []
        if n_values != self.config("circle_log.yaml")["fekete"]["n_values"]:
            problems.append(f"CLI table holds n = {n_values}")
        return problems + _close("CLI inf_n", [float(row["inf_n"]) for row in rows],
                                 [refs.circle_fekete_minimum(n) for n in n_values], 1e-6)


WORKLOADS = {w.name: w for w in (FiniteExact, TorusCoulomb, CircleFekete)}
