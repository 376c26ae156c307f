"""Certification benchmark: time to verdict on three darboux2d workloads.

    python3 perfbench/run.py --workload transform --seed 7 --seconds 45 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
workload is a closed loop: one process, one caller, passes back to back.  A
pass calls ``run_suite(targets, seed)``, then (``sampling`` only) the CLI
``grid`` subcommand, then the workload's negative control, and checks every
outcome against its known answer.  ``--trace 0`` reports the end-to-end
metrics with no wrapper installed; ``--trace 1`` runs a traced pass between
two untraced ones and reports the per-layer metrics.  The last stdout line is
the result object; the line before it records the run's context.
``--workload all`` runs every workload in turn and prints each metric by
name and unit.  See
``perfbench/README.md`` for every metric, the workloads and the predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"  # grid output, reference reports, span files

SETUP_PROBES = 10

TARGETS = {
    "transform": ("transform:b0", "transform:b1"),
    "closure": (
        "eq12:b0", "eq12:b1", "eq12:harmonic", "eq12:counterexample",
        "potential:b0", "potential:b1", "potential:b2", "potential:b3",
        "potential:tsarev-1:b1", "dim:b1", "dim:b2",
    ),
    "sampling": ("fd:order", "tanh:fd", "smooth:b0", "smooth:b1"),
}
GRID_AXIS = "-2:2:101"
GRID_POINTS = 101 * 101


@dataclasses.dataclass
class Inputs:
    """What set-up builds for a workload besides importing the package."""

    controls: dict[str, Callable[[], object]]  # name -> check that must fail
    grid_argv: list[str] | None = None


def build_inputs(workload: str) -> Inputs:
    """Build the workload's negative control (and grid arguments).

    The checks are looked up on ``verify`` at call time, so a traced pass
    sees them through the tracer's wrappers.
    """
    from darboux2d import verify
    from darboux2d.darboux import potential_from_B, transform_solution
    from darboux2d.families import DEFAULT_PARAMS, build_family, closed_potential
    from darboux2d.harmonic import harmonic_basis
    from darboux2d.polyrat import X, RatFn

    B0 = build_family("B0", DEFAULT_PARAMS["B0"]).B
    if workload == "transform":
        # Re z^2, not Re z: the degree-1 seed maps to Y~ = 0, which solves
        # every Schrodinger equation and so cannot fail
        out = transform_solution(B0, harmonic_basis(2)[2])
        u_wrong = potential_from_B(B0) + 1
        controls = {
            "schrodinger(Y~[b0, Re z^2], u + 1)":
                lambda: verify.check_schrodinger(out.Y_tilde, u_wrong),
        }
        return Inputs(controls)
    if workload == "closure":
        B_wrong = B0 + RatFn.from_poly(X * X)
        controls = {"eq12(B0 + x^2)": lambda: verify.check_eq12(B_wrong)}
        return Inputs(controls)
    if workload == "sampling":
        # the exact b0 pair passes this check (residual 2.1e-5); the
        # potential for C = 2 paired with B for C = 1 must not
        u_wrong = closed_potential("B0", {"x0": 0, "y0": 0, "C": 2}).u
        grid = verify.GridSpec((-2.0, 2.0), (-2.0, 2.0), 101, 101)
        controls = {
            "fd_residual(B0[C=1], u0[C=2])": lambda: verify.fd_residual(
                lambda x, y: u_wrong.eval_float(x, y),
                lambda x, y: B0.eval_float(x, y),
                grid, order=4, tol=1e-4,
            ),
        }
        argv = ["grid", "--family", "tsarev-1", "--x", GRID_AXIS, "--y", GRID_AXIS,
                "--out", str(WORK / "grid.csv")]
        return Inputs(controls, argv)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    seconds: float
    grid_seconds: float
    attempted: int
    failed: int
    control_verdicts: dict[str, str]
    report: str  # canonical JSON of everything the pass produced


def run_pass(workload: str, inputs: Inputs, seed: int, span) -> Pass:
    from darboux2d import cli, verify

    grid = None
    grid_seconds = 0.0
    start = time.perf_counter()
    with span("verify.run_suite"):
        reports = verify.run_suite(TARGETS[workload], seed)
    if inputs.grid_argv is not None:
        err = io.StringIO()
        grid_start = time.perf_counter()
        with span("cli.grid"), contextlib.redirect_stderr(err):
            code = cli.main(inputs.grid_argv)
        grid_seconds = time.perf_counter() - grid_start
        grid = {"exit": code, "stderr": err.getvalue()}
    controls = {name: check() for name, check in inputs.controls.items()}
    seconds = time.perf_counter() - start

    # known answers: every target passes, every negative control fails,
    # the grid writes every point finite
    failed = sum(r.verdict != "pass" for r in reports)
    failed += sum(r.verdict != "fail" for r in controls.values())
    attempted = len(reports) + len(controls)
    if grid is not None:
        attempted += 1
        out = Path(inputs.grid_argv[-1])
        grid["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
        try:
            summary = json.loads(grid["stderr"])
        except ValueError:
            summary = None
        failed += not (code == 0 and summary == {"points": GRID_POINTS, "nonfinite": 0})
    report = json.dumps(
        {
            "reports": [dataclasses.asdict(r) for r in reports],
            "controls": {k: dataclasses.asdict(r) for k, r in controls.items()},
            "grid": grid,
        },
        sort_keys=True,
        default=str,
    )
    verdicts = {name: r.verdict for name, r in controls.items()}
    return Pass(seconds, grid_seconds, attempted, failed, verdicts, report)


class ReferenceReports:
    """The first report seen for each (workload, seed) in this checkout."""

    def __init__(self, workload: str, seed: int):
        self.path = WORK / "reports" / f"{workload}-seed{seed}.json"
        self.text = self.path.read_text() if self.path.exists() else None

    def matches(self, report: str) -> bool:
        if self.text is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(report)
            os.replace(tmp, self.path)
            self.text = report
        return report == self.text


def check_pass(p: Pass, reference: ReferenceReports) -> tuple[int, int]:
    """(attempted, failed), counting the byte-identical report as one check."""
    return p.attempted + 1, p.failed + (not reference.matches(p.report))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def probe_setup(workload: str) -> float:
    """Seconds to import the package (presets included) and build inputs.

    numpy, the one runtime dependency, is imported before the clock starts:
    its import time swings between runs by up to 4x with the state of the
    host (0.04 to 0.16 s on a 2-vCPU VM), and no change to this repository
    moves it.
    """
    import numpy  # noqa: F401

    start = time.perf_counter()
    import darboux2d.cli  # noqa: F401  (imports verify, families, ...)

    build_inputs(workload)
    return time.perf_counter() - start


def measure_setup(workload: str, probes: int) -> list[float]:
    """Set-up times of `probes` fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--probe-setup"]
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def context(workload: str, seed: int, inputs: Inputs, last: Pass) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "targets": list(TARGETS[workload]),
        "negative_controls": last.control_verdicts,
        "grid": inputs.grid_argv,
        "loop": "closed: one process, one caller, passes back to back",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _no_span(name: str):
    return contextlib.nullcontext()


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # the discarded first probe may compile bytecode, which users pay once;
    # the rest straddle the passes, so that they sample the machine's speed
    # over the whole run
    measure_setup(workload, 1)
    setup = measure_setup(workload, SETUP_PROBES // 2)
    inputs = build_inputs(workload)
    passes, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        # pass k draws with seed + k: on `closure` the draw moves a pass by
        # up to 12%, and the median over several draws keeps that out of
        # the run-to-run spread
        pass_seed = seed + len(passes)
        p = run_pass(workload, inputs, pass_seed, _no_span)
        a, f = check_pass(p, ReferenceReports(workload, pass_seed))
        attempted, failed = attempted + a, failed + f
        passes.append(p)
        if len(passes) == 1:
            # peak memory of set-up and one pass: a second `sampling` pass
            # adds 6 MiB, and how many passes fit depends on the speed
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start + p.seconds > seconds:
            break
    setup += measure_setup(workload, SETUP_PROBES - SETUP_PROBES // 2)
    info = context(workload, seed, inputs, passes[-1])
    info.update({
        "passes": len(passes),
        "pass_seeds": [seed + k for k in range(len(passes))],
        "pass_s": [p.seconds for p in passes],
        "setup_probe_s": setup,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
    })
    if inputs.grid_argv is not None:
        info["grid_points_per_s"] = statistics.median(
            GRID_POINTS / p.grid_seconds for p in passes)
    metrics = {
        "verdict_s": (statistics.median(p.seconds for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return info, metrics


# per-layer metric -> unit; values come from `layer_metrics`
PER_LAYER_UNITS = {
    "polyrat.mul.calls": "count",
    "polyrat.mul.s": "s",
    "polyrat.mul.terms_in": "terms",
    "polyrat.mul.terms_out": "terms",
    "polyrat.mul.max_degree": "degree",
    "polyrat.mul.max_coeff_bits": "bits",
    "polyrat.mul.density": "ratio",
    "polyrat.eval.calls": "count",
    "polyrat.eval.s": "s",
    "polyrat.eval_float.calls": "count",
    "polyrat.eval_float.s": "s",
    "verify.check_eq12.calls": "count",
    "verify.check_eq12.s": "s",
    "verify.check_schrodinger.calls": "count",
    "verify.check_schrodinger.s": "s",
    "verify.check_new_potential_system.calls": "count",
    "verify.check_new_potential_system.s": "s",
    "verify.fd_residual.calls": "count",
    "verify.fd_residual.s": "s",
    "verify.zero_test.calls": "count",
    "verify.zero_test.max_den_degree": "degree",
    "verify.run_suite.s": "s",
    "darboux.transform_solution.s": "s",
    "darboux.potential_from_B.s": "s",
    "families.build.s": "s",
    "harmonic.harmonic_basis.s": "s",
    "harmonic.laplace_constrained_numerator.s": "s",
    "cli.grid.s": "s",
    "cli.grid.points_per_s": "1/s",
    "trace.verdict_s": "s",
    "trace.untraced_verdict_s": "s",
    "trace.overhead_share": "ratio",
    "trace.covered_share": "ratio",
    "trace.counter_s": "s",
    "trace.spans": "count",
}


def layer_metrics(tracer, traced: Pass, untraced: list[Pass]) -> dict[str, float]:
    untraced_s = statistics.mean(p.seconds for p in untraced)
    values: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.call_count(layer)
        elif stat == "s":
            values[name] = tracer.self_time(layer)
    mul = tracer.mul
    values.update({
        "polyrat.mul.terms_in": mul.terms_in,
        "polyrat.mul.terms_out": mul.terms_out,
        "polyrat.mul.max_degree": mul.max_degree,
        "polyrat.mul.max_coeff_bits": mul.max_coeff_bits,
        "polyrat.mul.density": mul.density,
        "verify.zero_test.max_den_degree": tracer.zero_test_max_den_degree,
        "cli.grid.points_per_s": statistics.mean(
            GRID_POINTS / p.grid_seconds if p.grid_seconds else 0.0 for p in untraced),
        "trace.verdict_s": traced.seconds,
        "trace.untraced_verdict_s": untraced_s,
        "trace.overhead_share": traced.seconds / untraced_s - 1,
        "trace.covered_share": sum(tracer.self_s) / traced.seconds,
        "trace.counter_s": tracer.counter_s,
        "trace.spans": len(tracer.span_start),
    })
    return values


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    sys.path.insert(0, str(BENCH))
    from tracer import SITES, Tracer

    inputs = build_inputs(workload)
    reference = ReferenceReports(workload, seed)
    # untraced passes before and after the traced one, so that a steady
    # drift in the machine's speed cancels out of the overhead
    before = run_pass(workload, inputs, seed, _no_span)
    originals = [vars(owner)[attr] for owner, attr, _ in SITES]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, inputs, seed, tracer.span)
    finally:
        tracer.uninstall()
    restored = all(vars(owner)[attr] is original
                   for (owner, attr, _), original in zip(SITES, originals))
    untraced = [before, run_pass(workload, inputs, seed, _no_span)]
    attempted, failed = 1, int(not restored)
    for p in (*untraced, traced):
        a, f = check_pass(p, reference)
        attempted, failed = attempted + a, failed + f
    spans_file = WORK / f"trace-{workload}.npz"
    tracer.save(spans_file)
    info = context(workload, seed, inputs, traced)
    info.update({
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "wrappers_restored": restored,
        "spans_file": str(spans_file.relative_to(ROOT)),
    })
    values = layer_metrics(tracer, traced, untraced)
    return info, {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; print each metric by name."""
    correct = True
    for workload in TARGETS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = out.stdout.splitlines()
        info, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
        correct = correct and result["correct"]
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("failed_share", info["failed_share"], "ratio"))
        if "grid_points_per_s" in info:
            rows.append(("grid_points_per_s", info["grid_points_per_s"], "1/s"))
        for name, value, unit in rows:
            print(f"{workload:<10} {name:<42} {value:>14.6g} {unit}")
        print(f"{workload:<10} {result['failed']} of {result['attempted']} checks failed")
        for name, verdict in info["negative_controls"].items():
            print(f"{workload:<10} negative control {name}: {verdict}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*TARGETS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "darboux2d" / "__init__.py").is_file():
        print(f"error: no darboux2d package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(probe_setup(args.workload))
        return 0
    import darboux2d

    if Path(darboux2d.__file__).resolve().parent != SRC / "darboux2d":
        print(f"error: imported darboux2d from {darboux2d.__file__}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    if args.trace:
        info, metrics = traced_run(args.workload, args.seed)
    else:
        info, metrics = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps({"context": info}))
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
