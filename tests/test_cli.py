import ast
import filecmp
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gibbslab
from gibbslab import cli
from gibbslab.cli import main
from gibbslab.config import _SCHEMA
from gibbslab.energy import (
    BetaSchedule,
    EnergyModel,
    EnvironmentPotential,
    EnvironmentSequence,
    LogChordKernel,
)
from gibbslab.equilibrium import minimize_free_energy
from gibbslab.fekete import fekete_minimize, infima_convergence_table
from gibbslab.ldp import (
    laplace_estimate_mc,
    laplace_verify_finite,
    single_particle_limit,
)
from gibbslab.measures import EmpiricalMeasure
from gibbslab.sampler import mcmc_run
from gibbslab.spaces import build_space

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


ENVIRONMENT_SECTION = """
environment:
  kernel:
    kind: log_chord
    scale: 5.0
  points: [[0.05], [1.05]]
"""


@pytest.mark.parametrize("command, name", [("sample", "samples.csv"),
                                           ("equilibrium", "equilibrium_summary.json")])
def test_every_command_adds_the_environment(tmp_path, runner, command, name):
    written = []
    for folder, extra in (("without", ""), ("with", ENVIRONMENT_SECTION)):
        (tmp_path / folder).mkdir()
        text = PROBE_CIRCLE + "sampler:\n  n: 4\n  steps: 400\n" + extra
        config, out = write_config(tmp_path / folder, text)
        result = runner.invoke(main, [command, "--config", config])
        assert result.exit_code == 0, result.output
        written.append(read_bytes(out, name))
    assert written[0] != written[1]
    if command == "equilibrium":
        space = build_space("circle", 64)
        points = EmpiricalMeasure(space, np.array([[0.05], [1.05]]))
        environment = EnvironmentPotential(LogChordKernel(5.0), EnvironmentSequence.fixed(points))
        model = EnergyModel(space, LogChordKernel(), BetaSchedule.constant(2.0),
                            potentials=[environment])
        assert json.loads(written[1])["value"] == minimize_free_energy(model).value


def test_conditional_requires_the_environment(tmp_path, runner):
    config, _ = write_config(tmp_path, PROBE_CIRCLE + "ldp:\n  n_values: [4]\n")
    result = runner.invoke(main, ["conditional", "--config", config])
    assert result.exit_code == 1
    assert "section 'environment' is required for this command" in result.output


def test_finite_model_refuses_continuous_sections(tmp_path, runner):
    text = SAMPLE_TEXT + "kernel:\n  kind: log_chord\npotentials:\n  - expr: cos(theta)\n"
    config, _ = write_config(tmp_path, text)
    result = runner.invoke(main, ["sample", "--config", config])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1, result.output
    assert "a finite model takes no 'kernel' or 'potentials' section" in lines[0]


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


def unused_imports(source):
    """Names that a module imports and never reads, as "name (line n)".  An
    import line marked ``# noqa: F401`` is exempt; a name listed in
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_modules_import_no_unused_names():
    package = Path(gibbslab.__file__).resolve().parent
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(package.glob("*.py"))}
    assert not {name: found for name, found in unused.items() if found}


def function_imports(source):
    """Imports inside a function body, as "function (line n)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(f"{node.name} (line {inner.lineno})" for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return found


def test_modules_import_only_at_top_level():
    package = Path(gibbslab.__file__).resolve().parent
    local = {path.name: function_imports(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert not {name: found for name, found in local.items() if found}


def unread_attribute_stores(package, readers):
    """Every ``self.<name> = ...`` store in the modules of ``package``, as
    "name (module line n)", whose name no module under ``readers`` loads as
    an attribute or spells as a string constant (which covers ``getattr``
    by name, as the CLI's record key tuples do)."""
    stores, read = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                stores.append((node.attr, f"{path.name} line {node.lineno}"))
    for folder in readers:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    return [f"{name} ({where})" for name, where in sorted(stores) if name not in read]


def test_no_attribute_is_stored_and_never_read():
    package = Path(gibbslab.__file__).resolve().parent
    assert unread_attribute_stores(package, [package, REPO / "bench", REPO / "tests"]) == []


GREEN_INTERNALS = {"GreenKernel", "GreenModel", "features", "_feature_table",
                   "charge_coeffs", "_inv_sqrt_eigs"}


def spelled_names(source, names):
    """The identifiers among ``names`` that a module spells, as "name (line
    n)": variable and attribute names, imported names, definitions,
    arguments and keywords."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        elif isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in names:
            found.append(f"{name} (line {node.lineno})")
    return found


def test_sampler_and_fekete_hold_no_green_code():
    # each kernel builds the pair sums of a configuration (Kernel.pairs), so
    # the chains and the Fekete search never ask which kernel they hold
    package = Path(gibbslab.__file__).resolve().parent
    found = {name: spelled_names((package / name).read_text(), GREEN_INTERNALS)
             for name in ("sampler.py", "fekete.py")}
    assert found == {"sampler.py": [], "fekete.py": []}


GREEN_REPRESENTATION = {"charge_coeffs", "_inv_sqrt_eigs", "phi_nodes", "evaluate_basis"}


def test_energy_reads_green_kernel_values_only_through_features():
    # GreenModel.features decides how a Green kernel value is formed; the
    # pair sums hold its rows and never rebuild them from the basis or charge
    package = Path(gibbslab.__file__).resolve().parent
    assert spelled_names((package / "energy.py").read_text(), GREEN_REPRESENTATION) == []


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
    ("conditional", SINGLE_PARTICLE_TEXT, "equispaced: true", "equispaced: true\n  limit: bogus",
     "environment.limit supports only 'uniform', got 'bogus'"),
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
        "fekete-single-threshold", "fekete-single-grid-steps",
        "conditional-equispaced-limit"])
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


PROBE_FINITE = """
seed: 13
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
"""

PROBE_CIRCLE = """
seed: 13
output_dir: {out}
space:
  kind: circle
  resolution: 64
kernel:
  kind: log_chord
beta:
  kind: constant
  value: 2.0
"""

PROBE_TORUS_GREEN = """
seed: 13
output_dir: {out}
space:
  kind: torus
  resolution: 16
  basis_order: 4
kernel:
  kind: green
beta:
  kind: constant
  value: 2.0
"""

PROBE_SPHERE_GREEN = """
seed: 13
output_dir: {out}
space:
  kind: sphere
  resolution: 2
  basis_order: 4
kernel:
  kind: green
  charge: 1 + 0.5*z
beta:
  kind: constant
  value: 1.0
potentials:
  - expr: x*y - z
"""

PROBE_LADDER = ("sampler:\n  n: 6\n  steps: 600\n  thin: 20\n  ladder: [0.25, 0.5, 1.0]\n"
                "  swap_every: 10\n")

# Command and config pairs that reach each result-file writer, with the
# sha256 of every CSV and JSON they write.  The files must not change when
# the code that formats them does.
RESULT_FILE_PROBES = [
    ("finite-sample", ["sample"],
     PROBE_FINITE + "sampler:\n  n: 6\n  steps: 2000\n  thin: 20\n", {
         "sample_summary.json": "1b70537e18acddbc72ff3c7f9cb7fbe67193570e552131595227e818e61cddb2",
         "samples.csv": "9a632c640eb810994bcf69825812f6b5840b392181c4b3fb0daa57a12461b493"}),
    ("finite-fekete", ["fekete", "--n", "5"], PROBE_FINITE, {
        "fekete_points.csv": "126352edc7f79e0b45fb8d2b4eb7b3952a2b0a1a9b03fe66388002ba117cd151",
        "fekete_summary.json": "c4d115138e50b7ebb153252bb205141de5a3eec0fea2cc526c54f2c372c1408d"}),
    ("finite-rate", ["rate-profile"],
     PROBE_FINITE + "ldp:\n  constraint:\n    vector: [1.0, 0.0, 0.0]\n    level: 0.7\n", {
         "rate_profile.json": "232b58b898a0455f38d556179f44b7495594674d6e9cc375e040933dee7a8194",
         "rate_witness.csv": "1e1a1965e9ede814b2fa9c0182cdb67150a53cc52abe7a2268e7e1c00efd9ed1"}),
    ("finite-laplace", ["laplace-verify"],
     PROBE_FINITE + "ldp:\n  n_values: [2, 4, 6]\n  f:\n    vector: [0.5, 0.0, -0.5]\n", {
         "laplace_values.csv": "94db6d1d1d5d7a58262679c61ea6c85ee44809138178b976f8abf276b026a566",
         "laplace_verdict.json": "4403fa0afe6e5c12fb29d41f173101fd375d76a827293c3621f1dba5531716d3"}),
    ("circle-sample", ["sample"],
     PROBE_CIRCLE + "sampler:\n  n: 6\n  steps: 600\n  thin: 20\n  ladder: [0.5, 1.0]\n"
     "  swap_every: 10\n", {
         "sample_summary.json": "9870e0beb27ab64314288b77e95173e8a03865eaf14adf2966dd4d13d1988696",
         "samples.csv": "951485ae118ce6362d794bc9f86fa7ceada5eddca81f011f4104ea2be9a2aa46"}),
    ("circle-fekete", ["fekete", "--n", "4"], PROBE_CIRCLE + "fekete:\n  restarts: 2\n", {
        "fekete_points.csv": "3361cd1a38a4de061d185abe44b519e601937409dda7d16e18d70120968df58d",
        "fekete_summary.json": "c226026cc9fc9d6d53cdb40a9baa0ade22dd4e6736c38729b811fe2c66a0d062"}),
    ("circle-rate", ["rate-profile"],
     PROBE_CIRCLE + "ldp:\n  constraint:\n    expr: cos(theta)\n    level: 0.3\n", {
         "rate_profile.json": "172018ecde69bbea0330747473ff37c8c7dc33aec1484f37d6bdd4392791ee31",
         "rate_witness.csv": "c8fc69d9aa17486371d3aaa70d331ab8ddf876c78142770f924787bbe05be75d"}),
    ("circle-laplace", ["laplace-verify"],
     PROBE_CIRCLE + "ldp:\n  n_values: [2, 4]\n  chain_budget: 400\n  rungs: 2\n"
     "  ess_floor: 1.0\n  f:\n    expr: cos(theta)\n", {
         "laplace_values.csv": "00e93d69f31f72060d7a3343e1cccb9fb38ec98ba18473109610683f246e9c6b",
         "laplace_verdict.json": "b6310805f6455ad8414c3bbf64cbba6b761bbf0119aaf77282f2d542af027e66"}),
    ("conditional", ["conditional"], SINGLE_PARTICLE_TEXT.replace("resolution: 128", "resolution: 64"), {
        "conditional_values.csv": "03811da42327512eb15ee5b11b5301e7afbcc1812b9562827a0f2947b5215257",
        "conditional_verdict.json": "d2239dd7f7029f9b0879e834edf638edd987d4caee2ef577cae26260136152df"}),
    ("torus-green-sample", ["sample"], PROBE_TORUS_GREEN + PROBE_LADDER, {
        "sample_summary.json": "27ab4c7a545cd5369127b39f4ec33ccea7e59ddbd5d62a83cfdd5191e3e15252",
        "samples.csv": "1171fcf3390b2444aef9773029aadf33010e7fed3079159209f5e49269f84226"}),
    ("torus-green-fekete", ["fekete", "--n", "6"], PROBE_TORUS_GREEN + "fekete:\n  restarts: 2\n", {
        "fekete_points.csv": "ca3e7b9aed4b04969ce5cef275c8780b90c94b7a90da513f731bdb5845d4aa81",
        "fekete_summary.json": "da9fbb25df1b489112582956e8e07862cffe0b818a6f1aa4e6934a9e88c56516"}),
    ("sphere-green-sample", ["sample"], PROBE_SPHERE_GREEN + PROBE_LADDER, {
        "sample_summary.json": "1b04dbf50d83abc0aebc6c78e9ab46cb6a161072f59e486c5d059911acf5ecb9",
        "samples.csv": "42d9c8d8cf109708b19c01d7a94837a19cb71694e6550bc7f23b9474430efd96"}),
    ("sphere-green-fekete", ["fekete", "--n", "6"], PROBE_SPHERE_GREEN + "fekete:\n  restarts: 2\n", {
        "fekete_points.csv": "7eef84d4253720d762bcd74afbfa94453475c3bbfbf4a81765afa30a699a2894",
        "fekete_summary.json": "1a50fc86bbdc40648e29e445f1d0f542fe9ab57a7cb6609c224c6b2d98fb55d8"}),
]


@pytest.mark.parametrize("args, template, hashes",
                         [probe[1:] for probe in RESULT_FILE_PROBES],
                         ids=[probe[0] for probe in RESULT_FILE_PROBES])
def test_result_files_keep_their_bytes(tmp_path, runner, args, template, hashes):
    config, out = write_config(tmp_path, template)
    result = runner.invoke(main, [args[0], "--config", config, *args[1:]])
    assert result.exit_code == 0, result.output
    written = {name: hashlib.sha256(read_bytes(out, name)).hexdigest()
               for name in os.listdir(out) if name != "manifest.json"}
    assert written == hashes


GREEN_ORDER_TEXT = """
seed: 7
output_dir: {out}
space:
  kind: torus
  resolution: 16
  basis_order: 4
kernel:
  kind: green
  order: 6
green_check:
  trials: 5
"""


def test_green_check_reads_the_kernel_order(tmp_path, runner):
    # kernel.order is the one truncation key, for green-check as for every
    # command that builds a Green kernel
    config, out = write_config(tmp_path, GREEN_ORDER_TEXT)
    result = runner.invoke(main, ["green-check", "--config", config])
    assert result.exit_code == 0, result.output
    assert json.loads(read_bytes(out, "green_summary.json"))["order"] == 6
    text = GREEN_ORDER_TEXT.replace("  order: 6\n", "").replace("trials: 5", "trials: 5\n  order: 6")
    config, _ = write_config(tmp_path, text)
    result = runner.invoke(main, ["green-check", "--config", config])
    assert result.exit_code == 1
    assert "unknown key 'order' in section 'green_check'" in result.output


@pytest.mark.parametrize("args", [["equilibrium"], ["fekete"]])
def test_kernel_infinite_on_the_diagonal_is_refused(tmp_path, runner, args):
    # -log of the chord is +inf at coinciding points; the node table cannot
    # hold it, so the run stops there with one error line and no warning
    text = PROBE_CIRCLE.replace("kind: log_chord", "kind: expression\n  expr: -log(c)")
    config, _ = write_config(tmp_path, text + "fekete:\n  n_values: [4, 8]\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, [args[0], "--config", config])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and "not finite on the diagonal" in lines[0], result.output
