#!/usr/bin/env python3
"""hslog benchmark: four CLI workloads driven in-process through hslog.cli.main(argv).

Run from the repository root:

    python3 perfbench/run.py --workload mp-m16000 --seed 1 --seconds 18 --trace 0

One process, one client, closed loop: the client runs the workload's command
list (a pass), waits for it to finish and runs it again until ``--seconds``
have elapsed.  The first pass is an untimed warm-up, because the first
M = 16000 call in a process pays a one-time BLAS thread start-up.  BLAS keeps
the machine's default threading, which is what a CLI user gets.

Every timing is scaled to a reference machine speed: a pass by a probe run
around it (see SpeedScale), a set-up interpreter by a reference interpreter
run after it (see measure_setup).  The report also prints the raw seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports per-layer calls and self time from the
traced ones, and reports the tracing overhead as the ratio of the two pass
medians.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; a readable report precedes it, and the full
result (environment, every traced function, verdicts, failures) is written to
.perfbench_out/<workload>/.

Exit code 2, without a result line, when the checkout has no hslog sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time, sleep

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

from workloads import (
    EXPECTED_RED, WORKLOADS, Workload, malformed, semantic_problems,
)

SETUP_REPEATS = 7
SETUP_SCRIPT = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from hslog import cli; cli.parse_config(sys.argv[2])")
# The same kind of work as SETUP_SCRIPT, and nothing in hslog can change it.
SETUP_REFERENCE_SCRIPT = "import numpy"
REFERENCE_IMPORT_S = 0.2
TAIL_PERCENTILE = 90.0
REFERENCE_PROBE_S = 0.1
PROBE_IDLE_S = 0.2


# --- environment -------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Effective thread count of numpy's bundled OpenBLAS, or None if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "machine": platform.machine(),
    }


# --- one pass ------------------------------------------------------------------------


class Run:
    """State of one benchmark run: inputs, pass outputs, failures and problems."""

    def __init__(self, workload: Workload, seed: int, cli):
        self.workload = workload
        self.cfg = workload.config(seed)
        self.cli = cli
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg_path = self.dir / "run.cfg"
        self.cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in self.cfg.items()))
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.verdicts: dict | None = None
        self.previous: dict | None = None

    def run_pass(self, pass_id: int) -> tuple[float, float, list[float]]:
        """Run the command list once; returns (wall s, CPU s, wall s per command)."""
        out = self.dir / f"pass-{pass_id}"
        out.mkdir()
        outcomes, walls = [], []
        wall0, cpu0 = perf_counter(), process_time()
        for cmd in self.workload.commands:
            argv = [*cmd.argv, "--config", str(self.cfg_path), "--out", str(out)]
            t0 = perf_counter()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    outcome = self.cli.main(argv)
            except SystemExit as exc:
                outcome = f"exited via SystemExit({exc.code})"
            except Exception as exc:  # a raising invocation is counted, not fatal
                outcome = f"raised {type(exc).__name__}: {exc}"
            walls.append(perf_counter() - t0)
            outcomes.append((cmd, outcome, sink.getvalue()))
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        self._check_pass(pass_id, out, outcomes)
        shutil.rmtree(out)
        return wall, cpu, walls

    def _check_pass(self, pass_id: int, out: Path, outcomes) -> None:
        """Classify each invocation as failed or not, and record wrong results.

        Failed: it raised; it exited 1; it exited 2 without writing its report
        (a NumericalError); it wrote a file with the wrong row count or a
        non-finite value; or a file differs from the previous pass's bytes.
        An exit 2 that writes its report is a scientific verdict; a verdict
        other than the expected one is a wrong result, not a failure.
        """
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        for cmd, outcome, printed in outcomes:
            self.attempted += 1
            label = f"pass {pass_id} {' '.join(cmd.argv)}"
            if isinstance(outcome, str):
                self.failures.append(f"{label}: {outcome}")
                continue
            if outcome not in (0, 2) or (outcome == 2 and cmd.report not in files):
                self.failures.append(f"{label}: exit {outcome} without report: "
                                     f"{printed.strip()[-300:]}")
                continue
            bad = [m for name, rows in cmd.rows.items()
                   if (m := (f"{name}: missing" if name not in files
                             else malformed(name, files[name].decode(), rows)))]
            if bad:
                self.failures.append(f"{label}: {'; '.join(bad)}")
                continue
            if outcome != cmd.expected_rc:
                self.problems.append(f"{label}: exit {outcome}, expected {cmd.expected_rc}")
        if self.previous is not None and files != self.previous:
            changed = sorted(n for n in set(files) | set(self.previous)
                             if files.get(n) != self.previous.get(n))
            self.failures.append(f"pass {pass_id}: output differs from the previous pass "
                                 f"in {', '.join(changed)}")
        if self.previous is None or files != self.previous:
            for name, data in files.items():
                self.problems += semantic_problems(name, data.decode(), self.cfg)
            if "verify_all.csv" in files:
                rows = files["verify_all.csv"].decode().splitlines()[1:]
                self.verdicts = {r.split(",")[0]: r.split(",")[1] == "true" for r in rows}
        self.previous = files


# --- statistics ------------------------------------------------------------------------


def tail(values: list[float]) -> dict:
    """Nearest-rank p90 of the pass times, with the pass count and the passes beyond it."""
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100.0 * n))
    return {"value": xs[rank - 1], "percentile": TAIL_PERCENTILE, "n": n, "beyond": n - rank}


def probe(x: np.ndarray, rounds: int) -> float:
    """Seconds for ``rounds`` rounds of a fixed elementwise numpy kernel over x.

    It makes no BLAS call, so no change to hslog or to its BLAS threading
    alters it; only the speed the machine gives this process does.  It first
    idles PROBE_IDLE_S, longer than OpenBLAS workers spin after their last
    job, so that a pass's BLAS threads are asleep when it runs.
    """
    sleep(PROBE_IDLE_S)
    t0 = perf_counter()
    acc = 0.0
    for _ in range(rounds):
        acc += float(np.sum(np.abs(x) ** 3.0 * np.log(1.0 + x) ** (x ** 0.5)))
    return perf_counter() - t0


class SpeedScale:
    """Scales each timed pass to the reference machine speed.

    On a shared host (the bounds were set on 2 vCPUs) the speed drifts by
    +-25% over minutes with other tenants' load, a drift no statistic taken
    within an 18 s run removes.  A probe on arrays as long as the workload's
    runs before the first and after every timed pass; each pass is multiplied
    by REFERENCE_PROBE_S over the mean of the two probes around it.
    """

    def __init__(self, elements: int, rounds: int):
        self.x, self.rounds = np.linspace(1e-3, 1.0, elements), rounds
        self.probes = [probe(self.x, rounds)]

    def factor(self) -> float:
        """Call right after a timed pass: the scale for that pass."""
        self.probes.append(probe(self.x, self.rounds))
        return REFERENCE_PROBE_S / (0.5 * (self.probes[-2] + self.probes[-1]))


def _interpreter_s(*args: str) -> float:
    """Seconds for a fresh interpreter to run ``python -c <args>``."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"interpreter failed: {proc.stderr.strip()[-500:]}")
    return perf_counter() - t0


def measure_setup(cfg_path: Path) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import hslog.cli and parse the config,
    each followed by a reference interpreter that only imports numpy:
    (set-up seconds, reference seconds).

    The set-up time is scaled by the reference right after it, not by the
    pass probe, whose speed an importing interpreter does not follow
    (NOTES.md, Speed scaling).
    """
    setup, reference = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(_interpreter_s(SETUP_SCRIPT, str(SRC), str(cfg_path)))
        reference.append(_interpreter_s(SETUP_REFERENCE_SCRIPT))
    return setup, reference


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --- the two kinds of run ----------------------------------------------------------------


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_raw, reference = measure_setup(run.cfg_path)
    setup = [s * REFERENCE_IMPORT_S / r for s, r in zip(setup_raw, reference)]
    run.run_pass(0)  # warm-up, untimed
    speed = SpeedScale(*run.workload.probe)
    raw_walls, raw_cpus, walls, cpus = [], [], [], []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        wall, cpu, _ = run.run_pass(len(walls) + 1)
        scale = speed.factor()
        raw_walls.append(wall)
        raw_cpus.append(cpu)
        walls.append(wall * scale)
        cpus.append(cpu * scale)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_tail = tail(walls)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s.p50": metric(statistics.median(walls), "s"),
        "wall_s.tail": metric(wall_tail["value"], "s"),
        "cpu_s.p50": metric(statistics.median(cpus), "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }
    detail = {
        "raw": {"setup_s": statistics.median(setup_raw),
                "wall_s.p50": statistics.median(raw_walls),
                "wall_s.tail": tail(raw_walls)["value"],
                "cpu_s.p50": statistics.median(raw_cpus)},
        "probe_s": speed.probes, "setup_s": setup_raw, "setup_reference_s": reference,
        "pass_wall_s": raw_walls,
        "pass_cpu_s": raw_cpus, "wall_s.tail": wall_tail,
    }
    return metrics, detail


# per-layer metrics reported under --trace 1 (BENCHMARK.json lists the same names)
CALLS_AND_SELF = (
    "params.derived_constants", "params.critical_exponent",
    "radial.weighted_integral", "radial.dirichlet_norm", "radial.lq_norm",
    "radial.make_grid", "radial.profile_to_csv", "radial.Grid.quad_weights",
    "functionals.energy_I", "functionals.J", "functionals.energy_pairing",
    "bliss.compute_S", "bliss.bubble_profile", "bliss.bubble_norm_scan",
    "analysis.maximize_F", "analysis.mountain_pass_gap", "analysis.beta_sweep",
    "shooting.shoot", "shooting.ivp_integrate", "shooting.weak_residual",
    "orlicz.modular", "orlicz.luxemburg_norm", "orlicz.embedding_check",
)
CLI_COMMANDS = ("mp-gap", "orlicz", "sweep-beta", "verify", "shoot")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(run: Run, seconds: float, tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer numbers come from the traced ones.

    Self times are raw seconds; the overhead ratio compares speed-scaled passes.
    """
    run.run_pass(0)  # warm-up, untimed
    speed = SpeedScale(*run.workload.probe)
    plain, traced_walls, stats, cmd_walls = [], [], [], []
    deadline = perf_counter() + seconds
    pass_id = 0
    while len(stats) < 2 or not plain or perf_counter() < deadline:
        pass_id += 1
        if len(plain) <= len(stats):
            plain.append(run.run_pass(pass_id)[0] * speed.factor())
            continue
        tracer.begin_pass(pass_id)
        tracer.install()
        try:
            wall, _, walls = run.run_pass(pass_id)
        finally:
            tracer.uninstall()
        traced_walls.append(wall * speed.factor())
        cmd_walls.append(walls)
        stats.append(tracer.end_pass())

    first = stats[0]
    if any(s.calls != first.calls or s.counters != first.counters for s in stats[1:]):
        run.problems.append("per-layer call counts differ between traced passes")

    def self_s(name):
        return statistics.median(s.self_s[name] for s in stats)

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = metric(first.calls[name], "count")
        m[f"{name}.self_s"] = metric(self_s(name), "s")
    c = first.counters
    m["radial.weighted_integral.per_call_us"] = metric(
        1e6 * _ratio(self_s("radial.weighted_integral"), first.calls["radial.weighted_integral"]),
        "us")
    qw_calls = first.calls["radial.Grid.quad_weights"]
    builds = first.calls["radial._build_weights"]
    m["radial.Grid.quad_weights.builds"] = metric(builds, "count")
    m["radial.Grid.quad_weights.hit_ratio"] = metric(_ratio(qw_calls - builds, qw_calls), "ratio")
    m["orlicz.modular_per_norm"] = metric(
        _ratio(first.calls["orlicz.modular"], first.calls["orlicz.luxemburg_norm"]), "ratio")
    m["analysis.maximize_F.accepted_steps"] = metric(
        c["analysis.maximize_F.accepted_steps"], "count")
    m["analysis.maximize_F.accept_ratio"] = metric(
        _ratio(c["analysis.maximize_F.accepted_steps"], c["analysis.maximize_F.J_calls"]),
        "ratio")
    m["shooting.shoot.bisection_iterations"] = metric(
        c["shooting.shoot.bisection_iterations"], "count")
    m["shooting.shoot.ivp_evaluations"] = metric(c["shooting.shoot.ivp_evaluations"], "count")
    names = [cmd.argv[0] for cmd in run.workload.commands]
    for command in CLI_COMMANDS:
        per_pass = [sum(w for n, w in zip(names, walls) if n == command) for walls in cmd_walls]
        m[f"cli.{command}.wall_s"] = metric(statistics.median(per_pass), "s")
    m["trace.overhead_ratio"] = metric(
        statistics.median(traced_walls) / statistics.median(plain) - 1.0, "ratio")
    m["trace.spans_per_pass"] = metric(sum(first.calls.values()), "count")

    every = sorted(first.calls)
    detail = {
        "untraced_pass_wall_s": plain,
        "traced_pass_wall_s": traced_walls,
        "functions": {n: {"calls": first.calls[n], "self_s": self_s(n)} for n in every},
        "counters": dict(c),
    }
    return m, detail


# --- entry point ---------------------------------------------------------------------------


def report(workload: str, env: dict, metrics: dict, detail: dict, run: Run) -> None:
    print(f"hslog benchmark  workload={workload}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:.6g} {m['unit']}")
    failed_ratio = len(run.failures) / run.attempted
    print(f"  {'failed_ratio':<45} {failed_ratio:.6g} ratio "
          f"({len(run.failures)} of {run.attempted} invocations)")
    if "raw" in detail:
        print(f"  timings above are scaled to the reference speed "
              f"(pass probe {REFERENCE_PROBE_S} s, median this run "
              f"{statistics.median(detail['probe_s']):.4g} s; numpy import "
              f"{REFERENCE_IMPORT_S} s, median this run "
              f"{statistics.median(detail['setup_reference_s']):.4g} s); raw: "
              + ", ".join(f"{k} {v:.6g} s" for k, v in detail["raw"].items()))
        t = detail["wall_s.tail"]
        print(f"  wall_s.tail is p{t['percentile']:.4g} of {t['n']} passes, "
              f"{t['beyond']} beyond it")
    if run.verdicts is not None:
        print("verdicts: " + ", ".join(f"{k}={'PASS' if v else 'FAIL'}"
                                       for k, v in run.verdicts.items())
              + f"  (expected red: {', '.join(EXPECTED_RED)})")
    for line in run.failures + run.problems:
        print(f"  ! {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy's default_rng)")
    if not (SRC / "hslog" / "cli.py").is_file():
        print(f"error: no hslog sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import hslog
    from hslog import cli

    if Path(hslog.__file__).resolve().parent != SRC / "hslog":
        print(f"error: imported hslog from {hslog.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment()
    run = Run(WORKLOADS[args.workload], args.seed, cli)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        metrics, detail = traced(run, args.seconds, tracer)
        tracer.write_spans(run.dir / "spans.csv.gz")
    else:
        metrics, detail = end_to_end(run, args.seconds)

    report(args.workload, env, metrics, detail, run)
    correct = not run.failures and not run.problems
    result = {"correct": correct, "attempted": run.attempted, "failed": len(run.failures),
              "metrics": metrics}
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, environment=env,
                verdicts=run.verdicts, expected_red=EXPECTED_RED, failures=run.failures,
                problems=run.problems, detail=detail,
                deterministic_inputs=not run.workload.uses_seed)
    (run.dir / f"result-trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
