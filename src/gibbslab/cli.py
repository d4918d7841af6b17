"""Command-line surface: run orchestration and result persistence.

Each subcommand loads a strict YAML run config, drives one module, writes
its results (RFC-4180-style CSV, stable-key JSON) plus a run manifest with
file checksums, prints a one-line summary, and exits 0 on pass, 2 when a
verdict fails, 1 on any error.  Identical (config, seed) reruns produce
byte-identical CSV/JSON bodies; wall-clock timestamps live only in the
manifest.

This module owns the result-file formats: the library's result records
hold plain data, and every CSV and JSON is built here, numbers as %.17g in
CSV and each record's named attributes in JSON.
"""

import csv
import hashlib
import io
import json
import os
from datetime import datetime, timezone

import click

from . import __version__
from .config import (
    RunConfig,
    build_constraint,
    build_finite_model,
    build_functional,
    build_green_model,
    build_model,
    build_run_space,
)
from .equilibrium import minimize_free_energy
from .errors import ConfigError, GibbsLabError
from .expressions import compile_point_function
from .fekete import fekete_minimize, infima_convergence_table
from .ldp import (
    laplace_estimate_mc,
    laplace_verify_finite,
    rate_function_profile,
    single_particle_limit,
)
from .measures import FiniteSpace
from .plotting import plot_emit
from .rng import derive_rng
from .sampler import mcmc_run
from .spaces import _coordinate_names, green_identity_residual

__all__ = ["main", "plot_emit"]


# Config keys each command passes straight to its library call as keyword
# arguments; the library signatures hold every default.
EQUILIBRIUM_OPTIONS = ("max_iters", "tol", "step")
SAMPLER_OPTIONS = ("n", "steps", "proposal_scale", "burn_in", "thin", "ladder",
                   "swap_every")
FEKETE_TABLE_OPTIONS = ("threshold", "restarts", "max_iters", "grid_steps")
FEKETE_OPTIONS = ("restarts", "max_iters", "grad_tol", "polish_rounds")
FINITE_LAPLACE_OPTIONS = ("threshold", "grid_steps")
MC_LAPLACE_OPTIONS = ("chain_budget", "rungs", "threshold", "ess_floor")
SINGLE_PARTICLE_OPTIONS = ("threshold",)

# The record attributes each result JSON holds; a field added to a record
# stays out of its file until it is named here.
SAMPLE_KEYS = ("kind", "n", "steps", "burn_in_steps", "thin", "seed", "coupling",
               "acceptance_rate", "proposal_scale", "swap_rates")
FEKETE_KEYS = ("value", "restarts", "restart_values", "gradient_norm", "iterations",
               "collisions", "points")
FEKETE_TABLE_KEYS = ("n_values", "inf_values", "macro_inf", "gaps", "slope",
                     "final_gap", "threshold", "passed")
VERDICT_KEYS = ("kind", "n_values", "values", "errors", "limit", "gaps", "slope",
                "final_gap", "threshold", "passed")
RATE_KEYS = ("value", "base_value", "constrained_value", "constraint_slack",
             "iterations", "multiplier")


def _csv_text(rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _record_json(record, keys, **extra):
    """JSON text of the ``keys`` attributes of a result record and of
    ``extra``, arrays and numpy scalars as their ``tolist()`` values."""
    values = {key: getattr(record, key) for key in keys} | extra
    return _json_text({key: value.tolist() if hasattr(value, "tolist") else value
                       for key, value in values.items()})


def _node_table_csv(space, columns):
    """CSV of the grid nodes: their coordinates, then one column per entry of
    ``columns`` (name -> node values), every number as %.17g."""
    values = [*space.nodes.T, *columns.values()]
    rows = [_coordinate_names(space) + list(columns)]
    for i in range(space.n_nodes):
        rows.append([f"{column[i]:.17g}" for column in values])
    return _csv_text(rows)


def _indexed_csv(header, index, *columns):
    """CSV with one row per entry of ``index``: the entry, then the values
    of ``columns`` at it, every number as %.17g."""
    return _csv_text([header] + [[str(i)] + [f"{x:.17g}" for x in values]
                                 for i, *values in zip(index, *columns)])


def _points_csv(space, points):
    """CSV of a configuration: atom labels on a finite space, else one row
    of coordinates per point."""
    if points.ndim == 1:
        return _indexed_csv(["index", "atom"], range(len(points)), points)
    return _indexed_csv(["index"] + _coordinate_names(space), range(len(points)), *points.T)


def _fekete_table_csv(table):
    return _indexed_csv(["n", "inf_n", "inf_macro", "gap"], table.n_values, table.inf_values,
                        [table.macro_inf] * len(table.n_values), table.gaps)


def _verdict_csv(verdict):
    """CSV of L_n per n with its error bar, 0 for exact values."""
    errors = verdict.errors if verdict.errors is not None else [0.0] * len(verdict.n_values)
    return _indexed_csv(["n", "L_n", "error"], verdict.n_values, verdict.values, errors)


class _Run:
    """Output directory plus the manifest ledger of emitted files."""

    def __init__(self, config, command):
        self.config = config
        self.command = command
        self.started = datetime.now(timezone.utc).isoformat(timespec="seconds")
        os.makedirs(config.output_dir, exist_ok=True)
        self.files = []

    def emit(self, name, text):
        data = text.encode("utf-8")
        path = os.path.join(self.config.output_dir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        self.files.append({
            "path": name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })
        return path

    def finish(self):
        manifest = {
            "command": self.command,
            "config_hash": hashlib.sha256(
                self.config.to_yaml().encode("utf-8")).hexdigest(),
            "version": __version__,
            "seed": self.config.seed,
            "started_at": self.started,
            "finished_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
            "files": sorted(self.files, key=lambda item: item["path"]),
        }
        path = os.path.join(self.config.output_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_text(manifest))
        return path


def _any_model(config):
    if "finite" in config.data:
        return build_finite_model(config)
    return build_model(config)


def _n_values(config):
    n_values = config.section("ldp").get("n_values")
    if not n_values:
        raise ConfigError(f"{config.source}: ldp.n_values must be a nonempty "
                          "list")
    return n_values


def _ldp_options(config, keys, branch):
    """``config.options("ldp", *keys)``, refusing a Laplace key that only
    another branch reads rather than ignoring it."""
    block = config.section("ldp")
    for key in FINITE_LAPLACE_OPTIONS + MC_LAPLACE_OPTIONS:
        if key in block and key not in keys:
            raise ConfigError(f"{config.source}: ldp.{key} does not apply to {branch}")
    return config.options("ldp", *keys)


def _execute(command, config_path, body):
    """Shared harness: parse config, run, write manifest, map exit codes."""
    try:
        config = RunConfig.from_file(config_path)
        run = _Run(config, command)
        passed = body(config, run)
        run.finish()
    except GibbsLabError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    raise SystemExit(0 if passed else 2)


@click.group()
@click.version_option(version=__version__, prog_name="gibbslab")
def main():
    """Numerical laboratory for interacting Gibbs point gases."""


@main.command("green-check")
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="Run configuration file.")
def green_check_cmd(config_path):
    """Quadrature residuals of the kernel identity on the configured space."""

    def body(config, run):
        space = build_run_space(config)
        options = config.options("green_check", "trials", "tolerance")
        trials = options.get("trials", 100)
        tolerance = options.get("tolerance", 1e-6)
        if trials < 1:
            raise ConfigError(f"{config.source}: green_check.trials must be "
                              f"at least 1, got {trials}")
        model = build_green_model(space, config.section("kernel"))
        rng = derive_rng(config.seed, "green-check")
        residuals = []
        for _ in range(trials):
            point = space.sample_points(rng, 1)
            coeffs = rng.standard_normal(model.order + 1)
            residuals.append(green_identity_residual(model, coeffs, point))
        run.emit("green_residuals.csv", _indexed_csv(["trial", "residual"], range(trials),
                                                     residuals))
        worst = max(residuals)
        passed = worst < tolerance
        run.emit("green_summary.json", _json_text({
            "space": space.kind,
            "trials": trials,
            "order": model.order,
            "tolerance": tolerance,
            "max_residual": worst,
            "passed": passed,
        }))
        click.echo(f"max residual {worst:.3e} over {trials} trials "
                   f"(tolerance {tolerance:g})")
        return passed

    _execute("green-check", config_path, body)


@main.command("equilibrium")
@click.option("--config", "config_path", required=True, type=click.Path())
def equilibrium_cmd(config_path):
    """Minimize the free energy over densities on the node grid."""

    def body(config, run):
        model = build_model(config)
        result = minimize_free_energy(
            model, **config.options("equilibrium", *EQUILIBRIUM_OPTIONS))
        space = model.space
        columns = {"density": result.measure.density}
        overlay = config.section("equilibrium").get("overlay")
        if overlay is not None:
            columns["overlay"] = compile_point_function(
                overlay, _coordinate_names(space))(space.nodes)
        run.emit("equilibrium_density.csv", _node_table_csv(space, columns))
        run.emit("equilibrium_summary.json", _json_text({
            "value": result.value,
            "gap": result.gap,
            "iterations": result.iterations,
            "converged": result.converged,
            "status": result.status,
        }))
        click.echo(f"free energy {result.value:.8f} after "
                   f"{result.iterations} iterations ({result.status})")
        return result.converged

    _execute("equilibrium", config_path, body)


@main.command("sample")
@click.option("--config", "config_path", required=True, type=click.Path())
def sample_cmd(config_path):
    """Sample the n-particle Gibbs measure by Markov chain Monte Carlo."""

    def body(config, run):
        model = _any_model(config)
        options = config.options("sampler", *SAMPLER_OPTIONS)
        if "n" not in options or "steps" not in options:
            raise ConfigError(f"{config.source}: sampler.n and sampler.steps "
                              "are required")
        result = mcmc_run(model, seed=config.seed, **options)
        if result.kind == "finite":
            n_atoms = model.space.n_atoms
            rows = [["sample"] + [f"count_{i}" for i in range(n_atoms)]]
            for index in range(result.samples.shape[0]):
                counts = result.counts(n_atoms, index)
                rows.append([str(index)] + [str(int(c)) for c in counts])
        else:
            names = _coordinate_names(model.space)
            rows = [["sample", "atom"] + names]
            for index in range(result.samples.shape[0]):
                for atom in range(result.samples.shape[1]):
                    point = result.samples[index, atom]
                    rows.append([str(index), str(atom)]
                                + [f"{x:.17g}" for x in point])
        run.emit("samples.csv", _csv_text(rows))
        run.emit("sample_summary.json", _record_json(
            result, SAMPLE_KEYS, n_samples=result.samples.shape[0],
            mean_energy=float(result.energies.mean()) if result.energies.size else None))
        click.echo(f"{result.samples.shape[0]} samples, acceptance "
                   f"{result.acceptance_rate:.3f}, mean energy "
                   f"{float(result.energies.mean()):.6f}")
        return True

    _execute("sample", config_path, body)


@main.command("fekete")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--n", "n_override", type=int, default=None,
              help="Particle count (overrides the config).")
def fekete_cmd(config_path, n_override):
    """Minimize the configuration energy; or tabulate minima against the
    macroscopic infimum when n_values is configured."""

    def body(config, run):
        model = _any_model(config)
        block = config.section("fekete")
        n_values = block.get("n_values")
        if n_values and n_override is None:
            for key in ("n",) + FEKETE_OPTIONS:
                if key in block and key not in FEKETE_TABLE_OPTIONS:
                    raise ConfigError(f"{config.source}: fekete.{key} configures "
                                      "a single-n search, not the n_values table")
            table = infima_convergence_table(
                model, n_values, seed=config.seed,
                **config.options("fekete", *FEKETE_TABLE_OPTIONS))
            run.emit("fekete_table.csv", _fekete_table_csv(table))
            run.emit("fekete_summary.json", _record_json(table, FEKETE_TABLE_KEYS))
            click.echo(f"final gap {table.final_gap:.6f} at n="
                       f"{table.n_values[-1]} (threshold {table.threshold:g},"
                       f" slope {table.slope:.2e})")
            return table.passed
        if not n_values:
            for key in FEKETE_TABLE_OPTIONS:
                if key in block and key not in FEKETE_OPTIONS:
                    raise ConfigError(f"{config.source}: fekete.{key} configures "
                                      "the n_values table, not a single-n search")
        n = n_override if n_override is not None else block.get("n")
        if n is None:
            raise ConfigError(f"{config.source}: fekete.n or --n is required")
        result = fekete_minimize(model, n, seed=config.seed,
                                 **config.options("fekete", *FEKETE_OPTIONS))
        run.emit("fekete_points.csv", _points_csv(model.space, result.points))
        run.emit("fekete_summary.json", _record_json(result, FEKETE_KEYS))
        click.echo(f"minimum {result.value:.7f} over {result.restarts} "
                   f"restarts")
        return True

    _execute("fekete", config_path, body)


def _verdict_outputs(run, verdict, prefix):
    run.emit(f"{prefix}_values.csv", _verdict_csv(verdict))
    run.emit(f"{prefix}_verdict.json", _record_json(verdict, VERDICT_KEYS))
    click.echo(f"final gap {verdict.final_gap:.6f} against limit "
               f"{verdict.limit:.8f} (threshold {verdict.threshold:g}) -> "
               f"{'pass' if verdict.passed else 'fail'}")
    return verdict.passed


@main.command("laplace-verify")
@click.option("--config", "config_path", required=True, type=click.Path())
def laplace_verify_cmd(config_path):
    """Exponential-integral values L_n against the macroscopic limit."""

    def body(config, run):
        n_values = _n_values(config)
        model = _any_model(config)
        f = build_functional(config, config.section("ldp").get("f"),
                             model.space)
        if isinstance(model.space, FiniteSpace):
            verdict = laplace_verify_finite(
                model.space, model, f, n_values,
                **_ldp_options(config, FINITE_LAPLACE_OPTIONS, "a finite-space enumeration"))
        else:
            verdict = laplace_estimate_mc(
                model, f, n_values, seed=config.seed,
                **_ldp_options(config, MC_LAPLACE_OPTIONS, "a Monte Carlo estimate"))
        return _verdict_outputs(run, verdict, "laplace")

    _execute("laplace-verify", config_path, body)


@main.command("rate-profile")
@click.option("--config", "config_path", required=True, type=click.Path())
def rate_profile_cmd(config_path):
    """Constrained infimum of the rate function over a half-space."""

    def body(config, run):
        _ldp_options(config, (), "a rate profile")
        model = _any_model(config)
        constraint = build_constraint(config, model.space)
        profile = rate_function_profile(model, constraint)
        if isinstance(model.space, FiniteSpace):
            text = _indexed_csv(["atom", "mass"], range(len(profile.witness)), profile.witness)
        else:
            text = _node_table_csv(model.space, {"density": profile.witness.density})
        run.emit("rate_witness.csv", text)
        run.emit("rate_profile.json", _record_json(profile, RATE_KEYS))
        click.echo(f"rate infimum {profile.value:.8f} "
                   f"(base free energy {profile.base_value:.8f})")
        return True

    _execute("rate-profile", config_path, body)


@main.command("conditional")
@click.option("--config", "config_path", required=True, type=click.Path())
def conditional_cmd(config_path):
    """Conditional-gas checks against a deterministic environment."""

    def body(config, run):
        n_values = _n_values(config)
        block = config.section("ldp")
        mode = block.get("mode", "environment")
        config.require("environment")
        model = build_model(config)
        if mode == "environment":
            f = build_functional(config, block.get("f"), model.space)
            verdict = laplace_estimate_mc(
                model, f, n_values, seed=config.seed,
                **_ldp_options(config, MC_LAPLACE_OPTIONS, "a Monte Carlo estimate"))
        elif mode == "single_particle":
            f_block = block.get("f")
            f_fn = None
            if f_block is not None:
                functional = build_functional(config, f_block, model.space)
                if not callable(functional.g):
                    raise ConfigError(f"{config.source}: single-particle f "
                                      "needs an 'expr' block")
                f_fn = functional.g
            if len(model.potentials) > 1:
                raise ConfigError(f"{config.source}: single-particle mode takes "
                                  "the environment as its only potential; remove "
                                  "the potentials entries")
            verdict = single_particle_limit(
                model.space, model.beta, f_fn, model.potentials[0], n_values,
                **_ldp_options(config, SINGLE_PARTICLE_OPTIONS, "the single-particle limit"))
        else:
            raise ConfigError(f"{config.source}: ldp.mode must be "
                              f"'environment' or 'single_particle', got "
                              f"{mode!r}")
        return _verdict_outputs(run, verdict, "conditional")

    _execute("conditional", config_path, body)


@main.command("plot")
@click.argument("result_file", type=click.Path())
@click.option("--kind", required=True,
              type=click.Choice(["line", "gap-log", "scatter", "heat"]))
@click.option("--output", type=click.Path(), default=None)
def plot_cmd(result_file, kind, output):
    """Render a result file as a deterministic SVG."""
    try:
        path = plot_emit(result_file, kind, output=output)
    except GibbsLabError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    click.echo(f"wrote {path}")
    raise SystemExit(0)


if __name__ == "__main__":
    main()
