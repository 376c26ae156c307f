"""Command-line front end.

Four subcommands:

  * build      -- construct a family instance and print B, u, and derived
                  constants in canonical text (or JSON).
  * verify     -- run certification targets and emit the report array.
  * transform  -- apply the solution transform to a seed pair and print the
                  transformed solution with its certification verdict.
  * grid       -- sample a field on a rectangular grid as CSV or JSON.

Exit codes: 0 all good, 1 a verification check failed, 2 usage/config
errors.  Data goes to stdout (or --out), JSON diagnostics go to stderr.
Rational parameters cross the boundary as "p/q" strings so exact values
never pass through floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from darboux2d.darboux import potential_from_B, transform_solution
from darboux2d.families import (
    DEFAULT_PARAMS,
    FAMILY_KEYS,
    PRESETS,
    build_family,
    build_preset,
    build_tanh,
    closed_potential,
    closed_R,
)
from darboux2d.harmonic import HarmonicPair, harmonic_basis
from darboux2d.polyrat import (
    ONE,
    ZERO,
    ExponentCapError,
    as_fraction,
    over_one_denominator,
    ratfn_to_str,
)
from darboux2d.verify import check_schrodinger, check_targets, run_suite, targets_for_family


class CliError(Exception):
    """A usage failure whose machine-readable error type `main` cannot tell
    from the exception: ``invalid-grid`` or ``invalid-output``.  Invalid
    parameters are raised as `ValueError`."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _parse_axis(text: str) -> list[float]:
    """The ``count`` evenly spaced points of an axis ``lo:hi:count``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError("invalid-grid", f"axis must be lo:hi:count, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise CliError("invalid-grid", f"cannot parse axis {text!r}") from None
    if count < 1:
        raise CliError("invalid-grid", "axis count must be at least 1")
    if count == 1 and lo != hi:
        raise CliError("invalid-grid", "a single-point axis requires lo == hi")
    if count > 1 and not lo < hi:
        raise CliError("invalid-grid", "axis range must have lo < hi")
    if count == 1:
        return [lo]
    if math.isinf((hi - lo) * (count - 1)):  # (hi - lo) * i overflows a double
        return [lo * (1 - i / (count - 1)) + hi * (i / (count - 1)) for i in range(count)]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _load_params(text: str | None) -> dict:
    if text is None:
        return {}
    blob = text
    if not text.lstrip().startswith("{"):
        try:
            blob = Path(text).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read params file: {exc}") from None
    try:
        raw = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ValueError(f"params are not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("params must be a JSON object")
    return raw


def _coerce_rational(key: str, value) -> Fraction:
    try:
        return as_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"parameter {key}: {exc}") from None


def _coerce_params(family: str, raw: dict) -> dict:
    params: dict = {}
    for key, value in raw.items():
        if family == "tanh":
            if key not in ("C1", "C2"):
                raise ValueError(f"unknown tanh parameter {key!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                value = _coerce_rational(key, value)
            try:
                params[key] = float(value)
            except OverflowError as exc:  # an int or rational beyond the double range
                raise ValueError(f"parameter {key}: {exc}") from None
        elif key == "weights_choice":
            if not isinstance(value, list) or len(value) not in (2, 6):
                raise ValueError("weights_choice must be a list of 2 or 6 rationals")
            params[key] = tuple(_coerce_rational(key, v) for v in value)
        else:
            # a key the family does not take is rejected by `build_family`
            params[key] = _coerce_rational(key, value)
    return params


def _rational_instance(family: str, params: dict):
    """(RationalSolution, closed potential) for a family key or preset name."""
    if family in PRESETS:
        sol = build_preset(family, **params)
    elif family in FAMILY_KEYS:
        tag = FAMILY_KEYS[family]
        sol = build_family(tag, {**DEFAULT_PARAMS[tag], **params})
    else:
        raise ValueError(f"unknown family {family!r}")
    return sol, closed_potential(sol.family_tag, sol.params)


def _tanh_constants(params: dict) -> tuple[float, float]:
    values = {**DEFAULT_PARAMS["tanh"], **params}
    return values["C1"], values["C2"]


def _float_text(v: float) -> str:
    """17 significant digits: the text reads back as the same double."""
    return format(v, ".17g")


def _write_out(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise CliError("invalid-output", f"cannot write --out: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    family = args.family
    raw = _load_params(args.params)
    if family == "tanh":
        C1, C2 = _tanh_constants(_coerce_params("tanh", raw))
        build_tanh(C1, C2)  # validates the constants
        c1, c2 = _float_text(C1), _float_text(C2)
        head, fields, constants = "family: tanh", {}, {"C1": c1, "C2": c2}
        B = f"tanh((x*y - {c2})/{c1})"
        u = f"-2*(x^2 + y^2)/({c1}^2*cosh((x*y - {c2})/{c1})^2)"
        lines = [f"B_s = {B}", f"u = {u}"]
    else:
        sol, closed = _rational_instance(family, _coerce_params(family, raw))
        head = f"family: {family}" + (f" (preset {sol.preset})" if sol.preset else "")
        fields = {"preset": sol.preset}
        constants = {k: str(v) for k, v in sorted(closed.constants.items())}
        B, u = ratfn_to_str(sol.B), ratfn_to_str(closed.u)
        lines = [f"B = {B}", f"u = {u}", *(f"{k} = {v}" for k, v in constants.items())]
    if args.format == "json":
        payload = {"family": family, "B": B, "u": u, "constants": constants, **fields}
        _write_out(json.dumps(payload, sort_keys=True), args.out)
    else:
        _write_out("\n".join([head, *lines]), args.out)
    return 0


def _print_progress(name: str, report, seconds: float) -> None:
    line = {"target": name, "verdict": report.verdict, "seconds": round(seconds, 3)}
    print(json.dumps(line), file=sys.stderr, flush=True)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.targets is None:
        targets = targets_for_family(args.family or "all")
    else:
        targets = [t.strip() for t in args.targets.split(",") if t.strip()]
        if not targets:
            raise ValueError(f"--targets names no target: {args.targets!r}")
    check_targets(targets)
    if args.out not in (None, "-"):  # fail before the suite, which takes seconds
        try:
            open(args.out, "a").close()
        except OSError as exc:
            raise CliError("invalid-output", f"cannot write --out: {exc}") from None
    reports = run_suite(targets, args.seed, _print_progress if args.progress else None)
    payload = json.dumps([r.to_json() for r in reports], sort_keys=True, indent=2)
    _write_out(payload, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _seed_pair(kind: str, degree: int | None) -> HarmonicPair:
    if kind == "const":
        return HarmonicPair(Y=ZERO, Q=ONE)
    if degree is None:
        raise ValueError(f"seed kind {kind!r} requires --degree")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    pair = harmonic_basis(degree)[degree]
    if kind == "re":
        return pair
    # the conjugate of Im z^k is -Re z^k; the constant keeps Q(0, 0) = 0,
    # so degree 0 gives the zero seed
    return HarmonicPair(Y=pair.Q, Q=pair.Y.coeff(0, 0) - pair.Y)


def cmd_transform(args: argparse.Namespace) -> int:
    family = args.family
    raw = _load_params(args.params)
    if family == "tanh":
        raise ValueError("transform needs a rational family (b0..b3 or a preset)")
    sol, _ = _rational_instance(family, _coerce_params(family, raw))
    pair = _seed_pair(args.seed_kind, args.degree)
    out = transform_solution(sol.B, pair, R=closed_R(sol.family_tag, sol.params))
    report = check_schrodinger(out.Y_tilde, potential_from_B(sol.B))
    if args.format == "json":
        payload = {
            "family": family,
            "seed_kind": args.seed_kind,
            "degree": args.degree,
            "Y_tilde": ratfn_to_str(out.Y_tilde),
            "schrodinger": report.verdict,
        }
        _write_out(json.dumps(payload, sort_keys=True), args.out)
    else:
        _write_out(
            f"Y_tilde = {ratfn_to_str(out.Y_tilde)}\nschrodinger: {report.verdict}",
            args.out,
        )
    return 0 if report.passed else 1


def _rounded(n: int, d: int) -> float:
    """``float(Fraction(n, d))``: one correctly rounded int true division."""
    if d < 0:  # 0 / -5 is -0.0, but Fraction(0, -5) is 0
        n, d = -n, -d
    try:
        return n / d
    except OverflowError:  # beyond the double range
        return math.nan


def _row_sampler(family: str, field: str, raw: dict, xs: list[float]) -> Callable[[float], list]:
    """The field along the grid row at ``y``, one double per x in ``xs``."""
    if family == "tanh":
        C1, C2 = _tanh_constants(_coerce_params("tanh", raw))
        B_s, u = build_tanh(C1, C2)
        f = B_s if field == "B" else u
        x_row = np.array(xs)
        # one array call per row, as `verify.fd_residual` samples the pair
        return np.errstate(all="ignore")(lambda y: f(x_row, y).tolist())
    sol, closed = _rational_instance(family, _coerce_params(family, raw))
    target = sol.B if field == "B" else closed.u
    # exact rational values at the (exactly representable) grid points, each
    # rounded once, so the emitted double re-evaluates bit-for-bit
    ps, q = over_one_denominator([Fraction(x) for x in xs])
    return lambda y: list(map(_rounded, *target.eval_row(ps, q, Fraction(y))))


def cmd_grid(args: argparse.Namespace) -> int:
    raw = _load_params(args.params)
    xs, ys = _parse_axis(args.x), _parse_axis(args.y)
    if not all(map(math.isfinite, xs + ys)):
        raise CliError("invalid-grid", "every grid point must be a finite float")
    f = _row_sampler(args.family, args.field, raw, xs)
    null = "null" if args.format == "json" else ""
    x_texts = [_float_text(x) for x in xs]
    cells, nonfinite = [], 0
    for y in ys:  # y is the outer loop
        y_text = _float_text(y)
        for x_text, value in zip(x_texts, f(y)):
            finite = math.isfinite(value)
            nonfinite += not finite
            cells.append((x_text, y_text, _float_text(value) if finite else null))
    if args.format == "json":
        text = "[\n" + ",\n".join(f"[{x}, {y}, {v}]" for x, y, v in cells) + "\n]"
    else:
        text = "\n".join(["x,y,value", *(f"{x},{y},{v}" for x, y, v in cells)])
    _write_out(text, args.out)
    print(json.dumps({"points": len(cells), "nonfinite": nonfinite}), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darboux2d",
        description="Build, certify, transform, and sample exactly solvable "
                    "2D Schrodinger potentials.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--family", required=True,
                       help="b0..b3, tanh, or a preset name (tsarev-1, tsarev-2)")
        p.add_argument("--params", default=None,
                       help="JSON object or path to one; rationals as 'p/q' strings")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_build = sub.add_parser("build", help="construct a family instance")
    common(p_build)
    p_build.set_defaults(run=cmd_build)

    p_verify = sub.add_parser("verify", help="run certification targets")
    p_verify.add_argument("--family", default="all",
                          help="all, b0..b3, or tanh (selects targets)")
    p_verify.add_argument("--targets", default=None,
                          help="comma-separated explicit target names")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--progress", action="store_true",
                          help="print one JSON line per finished target on stderr")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(run=cmd_verify)

    p_transform = sub.add_parser("transform", help="apply the solution transform")
    common(p_transform)
    p_transform.add_argument("--seed-kind", choices=("const", "re", "im"),
                             default="const")
    p_transform.add_argument("--degree", type=int, default=None)
    p_transform.set_defaults(run=cmd_transform)

    p_grid = sub.add_parser("grid", help="sample a field on a grid")
    common(p_grid)
    p_grid.add_argument("--x", required=True, help="lo:hi:count")
    p_grid.add_argument("--y", required=True, help="lo:hi:count")
    p_grid.add_argument("--field", choices=("u", "B"), default="u")
    p_grid.set_defaults(run=cmd_grid)
    return parser


def _glue_axis_values(argv: list[str]) -> list[str]:
    # argparse mistakes "-2:2:5" for an option; fold axis values into
    # --flag=value form so negative ranges parse
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--x", "--y") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_glue_axis_values(raw_argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except CliError as exc:
        print(json.dumps({"error": exc.kind, "message": str(exc)}), file=sys.stderr)
        return 2
    except ExponentCapError as exc:
        print(json.dumps({"error": "exponent-cap-exceeded", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(json.dumps({"error": "invalid-params", "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
