import filecmp
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import gibbslab
from gibbslab import cli
from gibbslab.cli import main
from gibbslab.config import _SCHEMA
from gibbslab.equilibrium import minimize_free_energy
from gibbslab.fekete import fekete_minimize, infima_convergence_table
from gibbslab.ldp import (
    laplace_estimate_mc,
    laplace_verify_finite,
    single_particle_limit,
)
from gibbslab.sampler import mcmc_run

REPO = Path(__file__).resolve().parent.parent

GREEN_TEXT = """
seed: 7
output_dir: {out}
space:
  kind: circle
  resolution: 128
green_check:
  trials: 10
  tolerance: 1.0e-6
"""

FEKETE_TEXT = """
seed: 11
output_dir: {out}
space:
  kind: circle
  resolution: 256
kernel:
  kind: log_chord
beta:
  kind: constant
  value: 2.0
fekete:
  restarts: 4
"""

FINITE_TEXT = """
seed: 3
output_dir: {out}
finite:
  probs: [0.5, 0.5]
  pair_matrix:
    - [0.0, 1.0]
    - [1.0, 0.0]
beta:
  kind: constant
  value: 2.0
ldp:
  n_values: [2, 4, 6, 8, 10, 12]
  threshold: 0.05
  f:
    vector: [1.0, 0.0]
"""

SAMPLE_TEXT = """
seed: 5
output_dir: {out}
finite:
  probs: [0.25, 0.25, 0.25, 0.25]
  pair_matrix:
    - [0.0, 1.0, 0.5, 0.0]
    - [1.0, 0.0, 0.3, 0.2]
    - [0.5, 0.3, 0.0, 0.1]
    - [0.0, 0.2, 0.1, 0.0]
beta:
  kind: constant
  value: 1.5
sampler:
  n: 6
  steps: 4000
  thin: 10
"""

EQUILIBRIUM_TEXT = """
seed: 9
output_dir: {out}
space:
  kind: circle
  resolution: 64
kernel:
  kind: constant
  value: 0.0
beta:
  kind: constant
  value: 1.0
potentials:
  - expr: cos(theta)
equilibrium:
  overlay: exp(-cos(theta))
"""

RATE_TEXT = """
seed: 9
output_dir: {out}
finite:
  probs: [0.4, 0.3, 0.3]
  pair_matrix:
    - [0.0, 1.0, -0.5]
    - [1.0, 0.2, 0.3]
    - [-0.5, 0.3, 0.0]
beta:
  kind: constant
  value: 2.0
ldp:
  n_values: [4]
  constraint:
    vector: [1.0, 0.0, 0.0]
    level: 0.7
"""


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, template, name="run.yaml"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=str(out)), encoding="utf-8")
    return str(path), str(out)


def read_bytes(folder, name):
    with open(os.path.join(folder, name), "rb") as fh:
        return fh.read()


def test_green_check_passes(tmp_path, runner):
    config, out = write_config(tmp_path, GREEN_TEXT)
    result = runner.invoke(main, ["green-check", "--config", config])
    assert result.exit_code == 0, result.output
    assert "max residual" in result.output
    rows = read_bytes(out, "green_residuals.csv").decode().splitlines()
    assert rows[0] == "trial,residual"
    assert len(rows) == 11
    summary = json.loads(read_bytes(out, "green_summary.json"))
    assert summary["passed"] is True
    assert summary["max_residual"] < 1e-6


def test_fekete_single_n_prints_minimum(tmp_path, runner):
    config, out = write_config(tmp_path, FEKETE_TEXT)
    result = runner.invoke(main, ["fekete", "--config", config, "--n", "3"])
    assert result.exit_code == 0, result.output
    assert "minimum -0.1831020" in result.output
    rows = read_bytes(out, "fekete_points.csv").decode().splitlines()
    assert rows[0] == "index,theta"
    assert len(rows) == 4


def test_fekete_requires_some_n(tmp_path, runner):
    config, _ = write_config(tmp_path, FEKETE_TEXT)
    result = runner.invoke(main, ["fekete", "--config", config])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_laplace_verify_finite_and_rerun_determinism(tmp_path, runner):
    config, out = write_config(tmp_path, FINITE_TEXT)
    result = runner.invoke(main, ["laplace-verify", "--config", config])
    assert result.exit_code == 0, result.output
    assert "-> pass" in result.output
    first_csv = read_bytes(out, "laplace_values.csv")
    first_json = read_bytes(out, "laplace_verdict.json")
    assert b"\r\n" in first_csv
    result = runner.invoke(main, ["laplace-verify", "--config", config])
    assert result.exit_code == 0
    assert read_bytes(out, "laplace_values.csv") == first_csv
    assert read_bytes(out, "laplace_verdict.json") == first_json


def test_manifest_lists_checksums(tmp_path, runner):
    config, out = write_config(tmp_path, FINITE_TEXT)
    result = runner.invoke(main, ["laplace-verify", "--config", config])
    assert result.exit_code == 0
    manifest = json.loads(read_bytes(out, "manifest.json"))
    assert manifest["command"] == "laplace-verify"
    assert manifest["seed"] == 3
    names = [item["path"] for item in manifest["files"]]
    assert names == ["laplace_values.csv", "laplace_verdict.json"]
    for item in manifest["files"]:
        data = read_bytes(out, item["path"])
        assert hashlib.sha256(data).hexdigest() == item["sha256"]
        assert len(data) == item["bytes"]
    assert len(manifest["config_hash"]) == 64


def test_laplace_verdict_failure_exit_code(tmp_path, runner):
    text = FINITE_TEXT.replace("n_values: [2, 4, 6, 8, 10, 12]",
                               "n_values: [2]")
    text = text.replace("threshold: 0.05", "threshold: 1.0e-6")
    config, out = write_config(tmp_path, text)
    result = runner.invoke(main, ["laplace-verify", "--config", config])
    assert result.exit_code == 2
    assert "-> fail" in result.output
    # outputs and manifest still written for the failed verdict
    assert os.path.exists(os.path.join(out, "laplace_verdict.json"))
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_sample_deterministic_for_fixed_seed(tmp_path, runner):
    config, out = write_config(tmp_path, SAMPLE_TEXT)
    result = runner.invoke(main, ["sample", "--config", config])
    assert result.exit_code == 0, result.output
    assert "acceptance" in result.output
    first = read_bytes(out, "samples.csv")
    rows = first.decode().splitlines()
    assert rows[0] == "sample,count_0,count_1,count_2,count_3"
    counts = [int(x) for x in rows[1].split(",")[1:]]
    assert sum(counts) == 6
    result = runner.invoke(main, ["sample", "--config", config])
    assert result.exit_code == 0
    assert read_bytes(out, "samples.csv") == first


def test_sample_requires_fields(tmp_path, runner):
    text = SAMPLE_TEXT.replace("  n: 6\n", "")
    config, _ = write_config(tmp_path, text)
    result = runner.invoke(main, ["sample", "--config", config])
    assert result.exit_code == 1
    assert "sampler.n" in result.output


def test_equilibrium_with_overlay(tmp_path, runner):
    config, out = write_config(tmp_path, EQUILIBRIUM_TEXT)
    result = runner.invoke(main, ["equilibrium", "--config", config])
    assert result.exit_code == 0, result.output
    rows = read_bytes(out, "equilibrium_density.csv").decode().splitlines()
    assert rows[0] == "theta,density,overlay"
    assert len(rows) == 65
    summary = json.loads(read_bytes(out, "equilibrium_summary.json"))
    assert summary["converged"] is True
    assert summary["gap"] < 1e-8


def test_rate_profile_outputs(tmp_path, runner):
    config, out = write_config(tmp_path, RATE_TEXT)
    result = runner.invoke(main, ["rate-profile", "--config", config])
    assert result.exit_code == 0, result.output
    assert "rate infimum" in result.output
    profile = json.loads(read_bytes(out, "rate_profile.json"))
    assert profile["value"] > 0.0
    rows = read_bytes(out, "rate_witness.csv").decode().splitlines()
    assert rows[0] == "atom,mass"
    mass0 = float(rows[1].split(",")[1])
    assert abs(mass0 - 0.7) < 1e-5


def test_rate_profile_infeasible_is_an_error(tmp_path, runner):
    text = RATE_TEXT.replace("level: 0.7", "level: 1.5")
    config, _ = write_config(tmp_path, text)
    result = runner.invoke(main, ["rate-profile", "--config", config])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_bad_config_reports_location(tmp_path, runner):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: 1\nspeed: 2\n", encoding="utf-8")
    result = runner.invoke(main, ["green-check", "--config", str(path)])
    assert result.exit_code == 1
    assert "unknown key 'speed'" in result.output
    assert "line 2" in result.output


def test_missing_config_file(runner):
    result = runner.invoke(main, ["equilibrium", "--config", "/nope.yaml"])
    assert result.exit_code == 1
    assert "cannot read" in result.output


def test_output_dir_env_override(tmp_path, runner, monkeypatch):
    config, out = write_config(tmp_path, FINITE_TEXT)
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("GIBBSLAB_OUTPUT_DIR", str(elsewhere))
    result = runner.invoke(main, ["laplace-verify", "--config", config])
    assert result.exit_code == 0
    assert os.path.exists(str(elsewhere / "laplace_verdict.json"))
    assert not os.path.exists(os.path.join(out, "laplace_verdict.json"))


def test_plot_subcommand(tmp_path, runner):
    config, out = write_config(tmp_path, FINITE_TEXT)
    runner.invoke(main, ["laplace-verify", "--config", config])
    target = str(tmp_path / "gaps.svg")
    result = runner.invoke(main, [
        "plot", os.path.join(out, "laplace_verdict.json"),
        "--kind", "gap-log", "--output", target])
    assert result.exit_code == 0, result.output
    assert os.path.exists(target)


def test_plot_error_exit_code(tmp_path, runner):
    result = runner.invoke(main, ["plot", str(tmp_path / "none.csv"),
                                  "--kind", "line"])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_conditional_mode_validation(tmp_path, runner):
    text = """
seed: 2
output_dir: {out}
space:
  kind: circle
  resolution: 64
kernel:
  kind: constant
  value: 0.0
beta:
  kind: constant
  value: 2.0
environment:
  kernel:
    kind: expression
    expr: cos(d)
  equispaced: true
ldp:
  n_values: [4]
  mode: annealed
"""
    config, _ = write_config(tmp_path, text)
    result = runner.invoke(main, ["conditional", "--config", config])
    assert result.exit_code == 1
    assert "ldp.mode" in result.output


def test_conditional_single_particle(tmp_path, runner):
    text = """
seed: 4
output_dir: {out}
space:
  kind: circle
  resolution: 128
kernel:
  kind: constant
  value: 0.0
beta:
  kind: linear
  coefficient: 0.5
environment:
  kernel:
    kind: expression
    expr: cos(d)
  equispaced: true
ldp:
  mode: single_particle
  n_values: [16, 64, 256]
  threshold: 0.05
  f:
    expr: sin(theta)
"""
    config, out = write_config(tmp_path, text)
    result = runner.invoke(main, ["conditional", "--config", config])
    assert result.exit_code == 0, result.output
    verdict = json.loads(read_bytes(out, "conditional_verdict.json"))
    assert verdict["passed"] is True
    assert abs(verdict["limit"] - 1.0) < 1e-12


def test_ldp_commands_require_n_values(tmp_path, runner):
    text = FINITE_TEXT.replace("  n_values: [2, 4, 6, 8, 10, 12]\n", "")
    config, _ = write_config(tmp_path, text)
    result = runner.invoke(main, ["laplace-verify", "--config", config])
    assert result.exit_code == 1
    assert "n_values" in result.output


NO_SCIPY_CHILD = """
import importlib, pkgutil, sys
import gibbslab, gibbslab.cli
for module in pkgutil.iter_modules(gibbslab.__path__):
    importlib.import_module("gibbslab." + module.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runtime_imports_no_scipy():
    # scipy.special costs the CLI most of its cold start; only tests use it
    src = str(Path(gibbslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SINGLE_PARTICLE_TEXT = """
seed: 4
output_dir: {out}
space:
  kind: circle
  resolution: 128
kernel:
  kind: constant
  value: 0.0
beta:
  kind: linear
  coefficient: 0.5
environment:
  kernel:
    kind: expression
    expr: cos(d)
  equispaced: true
ldp:
  mode: single_particle
  n_values: [16, 64, 256]
  threshold: 0.05
  f:
    expr: sin(theta)
"""


# the ldp keys a rate profile does not read, each with a value it would refuse
RATE_IGNORED_KEYS = [("chain_budget", -5), ("rungs", 0), ("ess_floor", -1.0),
                     ("grid_steps", -3), ("threshold", -1.0)]


@pytest.mark.parametrize("command, template, old, new, message", [
    ("green-check", GREEN_TEXT, "trials: 10", "trials: 0",
     "green_check.trials must be at least 1"),
    ("green-check", GREEN_TEXT, "tolerance: 1.0e-6", "tolerance: tiny",
     "green_check.tolerance must be a number"),
    ("equilibrium", EQUILIBRIUM_TEXT, "  overlay:", "  tol: abc\n  overlay:",
     "equilibrium.tol must be a number"),
    ("sample", SAMPLE_TEXT, "thin: 10", "thin: 10\n  ladder: [0.5, 1.0]\n"
     "  swap_every: 0", "swap interval"),
    ("sample", SAMPLE_TEXT, "steps: 4000", "steps: many",
     "sampler.steps must be an integer"),
    ("fekete", FEKETE_TEXT, "restarts: 4", "restarts: two",
     "fekete.restarts must be an integer"),
    ("laplace-verify", FINITE_TEXT, "n_values: [2, 4, 6, 8, 10, 12]",
     "n_values: [4, x]", r"ldp.n_values\[1\] must be an integer"),
    ("laplace-verify", FINITE_TEXT, "threshold: 0.05", "threshold: 0.05\n  grid_steps: 0",
     "simplex grid needs at least 1 step"),
    ("rate-profile", RATE_TEXT, "level: 0.7", "level: high",
     "ldp.constraint.level must be a number"),
    ("conditional", SINGLE_PARTICLE_TEXT, "mode: single_particle", "mode: 2",
     "ldp.mode must be a string"),
    ("laplace-verify", FEKETE_TEXT, "fekete:\n  restarts: 4",
     "ldp:\n  n_values: [4]\n  f:\n    vector: [1.0, 0.0, 5.0]",
     "per-atom value vectors need a finite space"),
    ("sample", SAMPLE_TEXT, "thin: 10", "thin: 10\n  proposal_scale: 0.0",
     "proposal scale must be finite and positive"),
    ("sample", SAMPLE_TEXT, "thin: 10", "thin: 5000",
     r"thinning stride must lie in \[1, 3200\]"),
    ("equilibrium", EQUILIBRIUM_TEXT, "  overlay:", "  step: .nan\n  overlay:",
     "descent step must be finite and positive, got nan"),
    ("fekete", FEKETE_TEXT, "restarts: 4", "restarts: 4\n  n: 3\n  polish_rounds: -1",
     "polish_rounds must be >= 0, got -1"),
    ("fekete", FEKETE_TEXT, "restarts: 4", "restarts: 4\n  n_values: [4, 8]\n  polish_rounds: -1",
     "fekete.polish_rounds configures a single-n search"),
    ("fekete", FEKETE_TEXT, "restarts: 4", "restarts: 4\n  n_values: [4, 8]\n  n: 3",
     "fekete.n configures a single-n search"),
    ("equilibrium", EQUILIBRIUM_TEXT, "  overlay:", "  max_iters: 0\n  overlay:",
     "max_iters must be >= 1, got 0"),
    ("sample", SAMPLE_TEXT, "thin: 10", "thin: 10\n  swap_every: -7", "swap interval"),
    ("laplace-verify", FINITE_TEXT, "threshold: 0.05", "threshold: 0.05\n  chain_budget: -5",
     "ldp.chain_budget does not apply to a finite-space enumeration"),
    ("laplace-verify", FINITE_TEXT, "threshold: 0.05", "threshold: 0.05\n  rungs: 0",
     "ldp.rungs does not apply to a finite-space enumeration"),
    ("laplace-verify", FINITE_TEXT, "threshold: 0.05", "threshold: 0.05\n  ess_floor: -1",
     "ldp.ess_floor does not apply to a finite-space enumeration"),
    ("laplace-verify", FEKETE_TEXT, "fekete:\n  restarts: 4",
     "ldp:\n  n_values: [4]\n  grid_steps: -3",
     "ldp.grid_steps does not apply to a Monte Carlo estimate"),
    ("conditional", SINGLE_PARTICLE_TEXT, "threshold: 0.05",
     "threshold: 0.05\n  chain_budget: 1000",
     "ldp.chain_budget does not apply to the single-particle limit"),
    ("conditional", SINGLE_PARTICLE_TEXT, "threshold: 0.05", "threshold: 0.05\n  rungs: 8",
     "ldp.rungs does not apply to the single-particle limit"),
    ("conditional", SINGLE_PARTICLE_TEXT, "threshold: 0.05", "threshold: 0.05\n  grid_steps: 40",
     "ldp.grid_steps does not apply to the single-particle limit"),
    ("conditional", SINGLE_PARTICLE_TEXT, "mode: single_particle",
     "mode: environment\n  grid_steps: 40",
     "ldp.grid_steps does not apply to a Monte Carlo estimate"),
    ("conditional", SINGLE_PARTICLE_TEXT, "environment:",
     "potentials:\n  - expr: cos(theta)\nenvironment:",
     "single-particle mode takes the environment as its only potential"),
    *[("rate-profile", RATE_TEXT, "n_values: [4]", f"n_values: [4]\n  {key}: {value}",
       f"ldp.{key} does not apply to a rate profile")
      for key, value in RATE_IGNORED_KEYS],
    ("fekete", FEKETE_TEXT, "restarts: 4", "restarts: 4\n  n: 3\n  threshold: -1.0",
     "fekete.threshold configures the n_values table, not a single-n search"),
    ("fekete", FEKETE_TEXT, "restarts: 4", "restarts: 4\n  n: 3\n  grid_steps: -3",
     "fekete.grid_steps configures the n_values table, not a single-n search"),
], ids=["green-trials", "green-tolerance", "equilibrium-tol", "sample-swap",
        "sample-steps", "fekete-restarts", "laplace-n-values", "laplace-grid-steps",
        "rate-level", "conditional-mode", "laplace-circle-vector",
        "sample-proposal-scale", "sample-thin", "equilibrium-step",
        "fekete-polish-rounds", "fekete-table-polish-rounds", "fekete-table-n",
        "equilibrium-max-iters", "sample-swap-without-ladder",
        "laplace-finite-chain-budget", "laplace-finite-rungs", "laplace-finite-ess-floor",
        "laplace-mc-grid-steps", "conditional-single-particle-chain-budget",
        "conditional-single-particle-rungs", "conditional-single-particle-grid-steps",
        "conditional-environment-grid-steps", "conditional-single-particle-potentials",
        *[f"rate-{key.replace('_', '-')}" for key, _ in RATE_IGNORED_KEYS],
        "fekete-single-threshold", "fekete-single-grid-steps"])
def test_bad_values_exit_with_one_error_line(tmp_path, runner, command,
                                              template, old, new, message):
    assert old in template
    config, _ = write_config(tmp_path, template.replace(old, new))
    result = runner.invoke(main, [command, "--config", config])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output
    assert re.search(message, lines[0])
    assert "Traceback" not in result.output


@pytest.mark.parametrize("function, section, keys", [
    (minimize_free_energy, "equilibrium", cli.EQUILIBRIUM_OPTIONS),
    (mcmc_run, "sampler", cli.SAMPLER_OPTIONS),
    (infima_convergence_table, "fekete", cli.FEKETE_TABLE_OPTIONS),
    (fekete_minimize, "fekete", cli.FEKETE_OPTIONS),
    (laplace_verify_finite, "ldp", cli.FINITE_LAPLACE_OPTIONS),
    (laplace_estimate_mc, "ldp", cli.MC_LAPLACE_OPTIONS),
    (single_particle_limit, "ldp", cli.SINGLE_PARTICLE_OPTIONS),
], ids=["equilibrium", "sample", "fekete-table", "fekete", "laplace-finite",
        "laplace-mc", "conditional-single-particle"])
def test_option_keys_are_library_keywords(function, section, keys):
    # every key a command passes through RunConfig.options is a schema key
    # of its section and a keyword parameter of the library call it feeds
    parameters = inspect.signature(function).parameters
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD,
               inspect.Parameter.KEYWORD_ONLY)
    for key in keys:
        assert key in _SCHEMA[section], key
        assert key in parameters and parameters[key].kind in keyword, key


# Shipped-config commands, in the order that left runs/ as committed:
# the circle table's fekete_summary.json overwrites the single-n one.
SHIPPED_RUNS = [
    ("circle_log", ["fekete", "--n", "3"]),
    ("circle_log", ["fekete"]),
    ("circle_log", ["equilibrium"]),
    ("finite2_laplace", ["laplace-verify"]),
    ("torus_green", ["green-check"]),
]
SHIPPED_PLOTS = [("circle_log", "fekete_table.csv"),
                 ("finite2_laplace", "laplace_verdict.json")]


def test_shipped_configs_reproduce_runs(tmp_path, runner, monkeypatch):
    for name, args in SHIPPED_RUNS:
        monkeypatch.setenv("GIBBSLAB_OUTPUT_DIR", str(tmp_path / name))
        config = str(REPO / "configs" / f"{name}.yaml")
        result = runner.invoke(main, [args[0], "--config", config, *args[1:]])
        assert result.exit_code == 0, result.output
    for name, source in SHIPPED_PLOTS:
        result = runner.invoke(main, ["plot", str(tmp_path / name / source),
                                      "--kind", "gap-log"])
        assert result.exit_code == 0, result.output
    for name in sorted({name for name, _ in SHIPPED_RUNS}):
        committed = REPO / "runs" / name
        files = sorted(p.name for p in committed.iterdir()
                       if p.name != "manifest.json")
        produced = sorted(p.name for p in (tmp_path / name).iterdir()
                          if p.name != "manifest.json")
        assert produced == files
        _, mismatch, errors = filecmp.cmpfiles(committed, tmp_path / name,
                                               files, shallow=False)
        assert mismatch == [] and errors == [], (name, mismatch, errors)
