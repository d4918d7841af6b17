"""gibbslab benchmark: one workload per application of the paper.

    python3 bench/run.py --workload finite-exact --seed 1 --seconds 25 --trace 0

runs the workload as a closed loop (one operation at a time) for whole
rounds until ``--seconds`` have passed, checks every output, and prints one
JSON object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` wraps every gibbslab
layer in spans, alternates untraced and traced rounds, and reports the
per-layer metrics.  The program is imported from ``src/`` of the
checkout the script sits in; nothing else is used.
"""

import os

# One BLAS thread: the machine has few cores and other tenants, and a
# single-threaded matmul is what makes round times repeat.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150

# The CLI child records its own peak RSS.  The kernel's ru_maxrss of a child
# also counts the pages of the parent it was forked from, which is this
# (large) benchmark process, so VmHWM of the exec'd image is read instead.
CLI_CHILD = """
import atexit, os, sys
def _peak():
    with open('/proc/self/status') as fh:
        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    with open(os.environ['BENCH_PEAK_FILE'], 'w') as fh:
        fh.write(kb)
atexit.register(_peak)
sys.argv = ['gibbslab'] + sys.argv[1:]
from gibbslab.cli import main
main()
"""


class BenchmarkFailure(Exception):
    """An operation failed that is expected to succeed."""


def peak_rss_mb():
    """Peak resident set size of this process image (VmHWM), in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkFailure("no VmHWM in /proc/self/status")


def child_env(**extra):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    env.update(extra)
    return env


@dataclass
class CliRun:
    outdir: str
    returncode: int
    log: str
    peak_mb: float


class CliRunner:
    """Runs ``gibbslab <args>`` as a child process writing to a scratch
    directory through GIBBSLAB_OUTPUT_DIR."""

    def __init__(self, scratch):
        self.outdir = scratch / "cli"
        self.log = scratch / "cli.log"
        self.peak_file = scratch / "cli.peak"

    def __call__(self, args):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.peak_file.unlink(missing_ok=True)
        env = child_env(GIBBSLAB_OUTPUT_DIR=str(self.outdir),
                        BENCH_PEAK_FILE=str(self.peak_file))
        with open(self.log, "w", encoding="utf-8") as log:
            proc = subprocess.run([sys.executable, "-c", CLI_CHILD, *args], env=env,
                                  cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        peak = float(self.peak_file.read_text()) / 1024.0 if self.peak_file.exists() else 0.0
        return CliRun(str(self.outdir), proc.returncode,
                      self.log.read_text(encoding="utf-8"), peak)


# -- rounds ---------------------------------------------------------------------


@dataclass
class Round:
    round_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    chain_steps: int = 0
    chain_s: float = 0.0
    cli_s: list = field(default_factory=list)
    cli_peak_mb: list = field(default_factory=list)


def run_round(workload, reported, recorder=None):
    """One round: every operation of the workload once, each checked.  A
    failure that one of the operation's known faults covers is counted; any
    other exception or problem raises BenchmarkFailure."""
    record = Round()
    round_span = recorder.open("round") if recorder else None
    for op in workload.ops():
        span = recorder.open(f"op:{op.name}") if recorder else None
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # noqa: BLE001 - judged against op.faults below
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if recorder:
            recorder.close(span)
        record.attempted += 1
        record.round_s += elapsed
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        elif op.cli:
            record.cli_s.append(elapsed)
            record.cli_peak_mb.append(result.peak_mb)
            problems = ([] if result.returncode == 0 else
                        [f"exit code {result.returncode}: {result.log[-2000:]}"])
            problems = problems or op.check(result.outdir)
        else:
            problems = op.check(result)
        if op.chain_steps and error is None:
            record.chain_steps += op.chain_steps
            record.chain_s += elapsed
        unknown = [p for p in problems if not any(f.covers(error, p) for f in op.faults)]
        if unknown:
            raise BenchmarkFailure(f"{workload.name}: {op.name}: " + "; ".join(unknown))
        if not problems:
            continue
        record.failed += 1
        if op.name not in reported:
            reported.add(op.name)
            known = "; ".join(f.what for f in op.faults
                              if any(f.covers(error, p) for p in problems))
            print(f"known fault ({known}): {op.name}: " + "; ".join(problems),
                  file=sys.stderr)
    if recorder:
        recorder.close(round_span)
    return record


def run_rounds(workload, seconds, reported):
    """Whole untraced rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, reported))
        print(f"{workload.name} round {len(rounds)}: {rounds[-1].round_s:.3f} s",
              file=sys.stderr)
    return rounds


def run_paired_rounds(workload, seconds, reported, recorder):
    """Pairs of one untraced and one traced round, in alternating order,
    until ``seconds`` have passed (at least one pair).  The wrappers stay
    installed; an untraced round runs with the recorder disabled."""
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for enabled in order:
            recorder.enabled = enabled
            record = run_round(workload, reported, recorder if enabled else None)
            (traced if enabled else plain).append(record)
        recorder.enabled = False
        print(f"{workload.name} pair {len(plain)}: untraced {plain[-1].round_s:.3f} s, "
              f"traced {traced[-1].round_s:.3f} s", file=sys.stderr)
    return plain, traced


def median(values):
    """The median; with fewer than 40 samples no tail percentile is reported."""
    return float(statistics.median(values)) if values else 0.0


# -- set-up -----------------------------------------------------------------------


def probe_setup(args):
    """Time from spawning a fresh interpreter until the workload is set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchmarkFailure(f"set-up child failed: {proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1]) - start


def machine_gauge_ms(reps=7):
    """Times of a fixed pure-Python loop, in ms.  They gauge the machine's
    speed when the run was made, not gibbslab."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(1e3 * (time.perf_counter() - start))
    return times


def report_gauge(before):
    """Gauge the machine again after the rounds; print both medians on
    standard error and return the median of all the gauge's times."""
    after = machine_gauge_ms()
    print(f"machine gauge: {median(before):.2f} ms before set-up, "
          f"{median(after):.2f} ms after the rounds", file=sys.stderr)
    return median(before + after)


def probe_import():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gibbslab.cli"], env=child_env(),
                   cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - start


# -- metrics ------------------------------------------------------------------------


def end_to_end(rounds, setup_s):
    cli_s = [t for r in rounds for t in r.cli_s]
    return {
        "setup_s": setup_s,
        "round_s": median([r.round_s for r in rounds]),
        # a throughput over the whole run, not a median
        "mcmc_steps_per_s": (sum(r.chain_steps for r in rounds)
                             / sum(r.chain_s for r in rounds)),
        "cli_s": median(cli_s),
        "peak_rss_mb": peak_rss_mb(),
        "cli_peak_rss_mb": max((m for r in rounds for m in r.cli_peak_mb), default=0.0),
    }


def per_layer(recorder, plain, traced, import_s, gauge_ms):
    """Per-round layer figures from the spans inside the traced rounds."""
    own = recorder.self_times()
    roots = recorder.roots()
    n_rounds = len(traced)
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    builds = defaultdict(list)
    spans_in_rounds = 0
    for index, name in enumerate(recorder.names):
        duration = recorder.ends[index] - recorder.starts[index]
        if name.startswith("spaces.build_space."):
            builds[name.rsplit(".", 1)[1]].append(duration)
        if recorder.names[roots[index]] != "round":
            continue
        spans_in_rounds += 1
        key = "pairwise" if name.endswith(".pairwise") else name
        self_s[key] += own[index]
        incl_s[key] += duration
        calls[key] += 1
    counters = recorder.counters

    def per_round(value):
        return value / n_rounds

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def us_per_step(family):
        return ratio(counters[f"sampler.{family}_s"], counters[f"sampler.{family}_steps"], 1e6)

    traced_round = median([r.round_s for r in traced])
    return {
        "simplex.minimize_s": per_round(self_s["simplex.simplex_minimize"]),
        "simplex.grid_rows": per_round(counters["simplex.grid_rows"]),
        "simplex.rows_per_s": ratio(counters["simplex.grid_rows"],
                                    incl_s["simplex.simplex_minimize"]),
        "ldp.verify_finite_s": per_round(self_s["ldp.laplace_verify_finite"]),
        "ldp.type_classes": per_round(counters["ldp.type_classes"]),
        "ldp.classes_per_s": ratio(counters["ldp.type_classes"],
                                   self_s["ldp.laplace_verify_finite"]),
        "energy.w_counts_calls": per_round(calls["energy.FiniteEnergyModel.w_counts"]),
        "energy.w_mean_calls": per_round(calls["energy.FiniteEnergyModel.w_mean"]),
        "measures.relative_entropy_calls": per_round(calls["measures.relative_entropy"]),
        "sampler.enumerate_s": per_round(self_s["sampler.enumerate_gibbs"]),
        "sampler.finite_us_per_step": us_per_step("finite"),
        "spaces.evaluate_basis_calls": per_round(calls["spaces.Space.evaluate_basis"]),
        "spaces.evaluate_basis_s": per_round(self_s["spaces.Space.evaluate_basis"]),
        "energy.pairwise_calls": per_round(calls["pairwise"]),
        "energy.pairwise_s": per_round(self_s["pairwise"]),
        "sampler.green_us_per_step": us_per_step("green"),
        "spaces.build_s.torus": median(builds["torus"]),
        "spaces.build_s.sphere": median(builds["sphere"]),
        "spaces.build_s.circle": median(builds["circle"]),
        "spaces.kernel_matrix_s": per_round(self_s["spaces.GreenModel.kernel_matrix"]),
        "energy.node_matrix_s": per_round(incl_s["energy.EnergyModel.node_matrix"]),
        "energy.node_matrix_peak_mb": counters["energy.node_matrix_peak_mb"],
        "equilibrium.minimize_s": per_round(self_s["equilibrium.minimize_free_energy"]),
        "equilibrium.iterations": per_round(counters["equilibrium.iterations"]),
        "equilibrium.ms_per_iteration": ratio(self_s["equilibrium.minimize_free_energy"],
                                              counters["equilibrium.iterations"], 1e3),
        "spaces.identity_residual_s": per_round(
            self_s["spaces.green_identity_residual"]
            + self_s["spaces.GreenModel.rows_at_nodes"]),
        "sampler.log_us_per_step": us_per_step("log"),
        "energy.w_n_calls": per_round(calls["energy.w_n"]),
        "energy.w_n_s": per_round(self_s["energy.w_n"] + self_s["energy.w_n_report"]),
        "fekete.minimize_s": per_round(self_s["fekete.fekete_minimize"]),
        "fekete.iterations": per_round(counters["fekete.iterations"]),
        "fekete.useful_restart_ratio": ratio(counters["fekete.useful_restarts"],
                                             counters["fekete.restarts"]),
        "cli.import_s": import_s,
        "trace.spans_per_round": per_round(spans_in_rounds),
        "trace.round_s": traced_round,
        # paired rounds run back to back, so a change of the machine's speed
        # between periods cancels in each difference; swings within a pair
        # do not
        "trace.overhead_s": median([t.round_s - p.round_s for p, t in zip(plain, traced)]),
        "machine.gauge_ms": gauge_ms,
    }


# -- main -------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the monotonic clock and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gibbslab" / "__init__.py").is_file():
        print(f"error: no gibbslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](str(ROOT), CliRunner(scratch))
    if args.setup_only:
        workload.setup(args.seed)
        print(time.monotonic())
        return 0

    import gibbslab

    if Path(gibbslab.__file__).resolve().parent != SRC / "gibbslab":
        print(f"error: gibbslab was imported from {gibbslab.__file__}", file=sys.stderr)
        return 2
    scratch.mkdir(parents=True, exist_ok=True)
    reported = set()
    try:
        gauge_ms = machine_gauge_ms()
        workload.setup(args.seed)
        if args.trace == 0:
            setup_s = median([probe_setup(args) for _ in range(SETUP_PROBES)])
            rounds = run_rounds(workload, args.seconds, reported)
            gauge_ms = report_gauge(gauge_ms)
            metrics = end_to_end(rounds, setup_s)
            declared = spec["end_to_end"]
        else:
            import spans

            # a checked but untimed round fills the per-process caches
            # (simplex grids, first-touch pages), so that untraced and
            # traced rounds compare like rounds
            warmup = run_round(workload, reported)
            recorder = spans.SpanRecorder()
            spans.install(recorder, gibbslab)
            setup_span = recorder.open("setup")
            workload.setup(args.seed)
            recorder.close(setup_span)
            plain, traced = run_paired_rounds(workload, args.seconds, reported, recorder)
            gauge_ms = report_gauge(gauge_ms)
            import_s = median([probe_import() for _ in range(IMPORT_PROBES)])
            metrics = per_layer(recorder, plain, traced, import_s, gauge_ms)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
            recorder.write(trace_path)
            print(f"spans written to {trace_path}", file=sys.stderr)
            rounds = [warmup] + plain + traced
            declared = spec["per_layer"]
    except BenchmarkFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if sorted(metrics) != sorted(m["name"] for m in declared):
        print("error: computed metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
