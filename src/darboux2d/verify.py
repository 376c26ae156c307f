"""Certification engine.

Every mathematical claim the package makes is checked here, through one of
two modes:

  * exact -- residuals are formed as rational functions and zero-tested by
    expanding numerators; a pass means the identity holds *identically*, not
    at sample points.  Zeros and critical points of B need no special
    handling because nothing is evaluated.
  * numeric -- finite-difference residuals on grids, for the hyperbolic
    family (which leaves the rational world) and for validating the numeric
    engine itself against exact rational pairs.  A numeric comparison with a
    rational closed form evaluates the exact transcription from `families`
    in doubles (`RatFn.eval_float`).

`run_suite` packages the full battery behind stable target names with
deterministic seeded parameter draws, so two runs with the same seed produce
byte-identical reports.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from darboux2d.darboux import (
    PointFn,
    R_coeffs,
    TransformOutput,
    neg_log_field,
    potential_from_B,
    transform_solution,
    u_from_h,
)
from darboux2d.families import (
    DEFAULT_PARAMS,
    FAMILY_KEYS,
    PRESETS,
    _ORIGIN,
    _ROOT_LAYOUT,
    _WEIGHT_KEYS,
    _pole_B,
    _roots,
    _weights_in_span,
    build_family,
    build_preset,
    build_tanh,
    closed_potential,
    closed_R,
)
from darboux2d.harmonic import harmonic_basis, laplace_constrained_numerator
from darboux2d.polyrat import (
    X,
    ExponentCapError,
    RatFn,
    laplacian,
    ratfn_is_zero,
)

# A numeric field: takes (x_array, y_column) of shapes (n,) and (rows, 1) and
# returns the values on that block of grid rows by numpy broadcasting (e.g.
# `RatFn.eval_float`).
NumFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one certification check.

    For exact checks, `detail` records term counts and total degrees of the
    expanded residual numerators (all zero on a pass).  For numeric checks it
    records the max residual, the grid, and the stencil order.
    """

    check_name: str
    mode: str  # "exact" | "numeric"
    verdict: str  # "pass" | "fail"
    detail: dict
    params: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "check": self.check_name,
            "mode": self.mode,
            "verdict": self.verdict,
            "max_residual": self.detail.get("max_residual"),
            "residual_terms": self.detail.get("residual_terms"),
            "params": self.params,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid for numeric residuals."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grids need at least two points per axis")
        if not (self.x_range[0] < self.x_range[1] and self.y_range[0] < self.y_range[1]):
            raise ValueError("grid ranges must be nondegenerate")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x_range[0], self.x_range[1], self.nx),
            np.linspace(self.y_range[0], self.y_range[1], self.ny),
        )


def _report(mode: str, ok: bool, detail: dict, params: dict | None = None,
            name: str = "") -> ResidualReport:
    """Every report is made here: it passes exactly when ``ok``.  Only the
    public checks name theirs; `run_suite` names a target's and adds the seed."""
    return ResidualReport(name, mode, "pass" if ok else "fail", detail, params or {})


# ---------------------------------------------------------------------------
# exact checks
# ---------------------------------------------------------------------------


def _exact_report(name: str, residuals: Sequence[RatFn]) -> ResidualReport:
    """Passes when every residual is identically zero."""
    nums = [r.num for r in residuals]
    infos = [{"terms": n.n_terms, "degree": n.total_degree()} for n in nums]
    detail = {
        "residuals": infos,
        "residual_terms": sum(info["terms"] for info in infos),
    }
    return _report("exact", all(ratfn_is_zero(r) for r in residuals), detail, name=name)


def check_eq12(B: RatFn) -> ResidualReport:
    """Zero-test both closure-system expressions for B.

    Each residual is plain rational-function algebra in B and its
    derivatives.  `RatFn` keeps B's denominator as a factor, so every term
    of a residual carries the same power of it and the sums need no
    cross-multiplication.  ``G = |grad B|^2``, ``B G``, ``B B_xy`` and
    ``B delta`` (``delta = B_xx - B_yy``) are formed once for both residuals,
    13 polynomial products instead of 18 for the two written out in full:
        e1 = B G lap_x - (2 B_y (B B_xy) + B_x (G + B delta)) lap
        e2 = B G lap_y - (2 B_x (B B_xy) + B_y (G - B delta)) lap
    Each term keeps its written-out factor exponents: same ``poly``, same report.
    """
    Bx = B.diff("x")
    By = B.diff("y")
    if Bx.is_zero() and By.is_zero():
        raise ValueError("the closure system is only posed for nonconstant B")
    Bxx = Bx.diff("x")
    Byy = By.diff("y")
    lap = Bxx + Byy
    G = Bx * Bx + By * By
    BG = B * G
    BBxy = B * Bx.diff("y")
    Bdelta = B * (Bxx - Byy)
    e1 = BG * lap.diff("x") - (2 * (By * BBxy) + Bx * (G + Bdelta)) * lap
    e2 = BG * lap.diff("y") - (2 * (Bx * BBxy) + By * (G - Bdelta)) * lap
    return _exact_report("eq12", [e1, e2])


def check_schrodinger(Y: RatFn, u: RatFn) -> ResidualReport:
    """Zero-test Y_xx + Y_yy - u Y."""
    return _exact_report("schrodinger", [laplacian(Y) - u * Y])


def check_new_potential_system(B: RatFn, out: TransformOutput) -> ResidualReport:
    """Zero-test the transformed potential equations.

    With the transformed scalar h = -ln B the pair (W~, Q~) must satisfy
    W~_x - 2 (B_x/B) W~ - Q~_y = 0 and W~_y - 2 (B_y/B) W~ + Q~_x = 0;
    a pass constructively witnesses the intertwining property for this seed.
    """
    Bx = B.diff("x")
    By = B.diff("y")
    if Bx.is_zero() and By.is_zero():
        raise ValueError("transform is only defined for nonconstant B")
    W, Q = out.W_tilde, out.Q_tilde
    gx = 2 * (Bx / B)
    gy = 2 * (By / B)
    r1 = W.diff("x") - gx * W - Q.diff("y")
    r2 = W.diff("y") - gy * W + Q.diff("x")
    return _exact_report("new-potential-system", [r1, r2])


# ---------------------------------------------------------------------------
# numeric checks
# ---------------------------------------------------------------------------


def _numeric_report(worst: float, tol: float, detail: dict, params: dict | None = None,
                    name: str = "") -> ResidualReport:
    """A numeric verdict: pass when the worst residual is within `tol`."""
    detail = {"max_residual": float(worst), "tolerance": tol, **detail}
    return _report("numeric", worst <= tol, detail, params, name)


_SAMPLE_ROWS = 64  # grid rows per field call, so per intermediate array


def _sample(f: NumFn, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # broadcasting is element by element: each value has its one-row bits
    grid = np.empty((len(ys), len(xs)))
    for i in range(0, len(ys), _SAMPLE_ROWS):
        grid[i : i + _SAMPLE_ROWS] = f(xs, ys[i : i + _SAMPLE_ROWS, None])
    return grid


def _fd_laplacian(F: np.ndarray, hx: float, hy: float, order: int) -> np.ndarray:
    if order == 2:
        fxx = (F[1:-1, 2:] - 2 * F[1:-1, 1:-1] + F[1:-1, :-2]) / hx**2
        fyy = (F[2:, 1:-1] - 2 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / hy**2
        return fxx + fyy
    if order == 4:
        c = F[2:-2, 2:-2]
        fxx = (
            -F[2:-2, 4:] + 16 * F[2:-2, 3:-1] - 30 * c + 16 * F[2:-2, 1:-3] - F[2:-2, :-4]
        ) / (12 * hx**2)
        fyy = (
            -F[4:, 2:-2] + 16 * F[3:-1, 2:-2] - 30 * c + 16 * F[1:-3, 2:-2] - F[:-4, 2:-2]
        ) / (12 * hy**2)
        return fxx + fyy
    raise ValueError("stencil order must be 2 or 4")


def fd_residual(u: NumFn, Y: NumFn, grid: GridSpec, order: int = 4,
                tol: float = 1e-6) -> ResidualReport:
    """Max |lap(Y) - u Y| over interior grid points, by central differences,
    as a report named ``fd-residual`` that passes within ``tol``.

    `u` and `Y` are sampled a block of up to 64 grid rows per call, as
    ``f(xs, ys)`` with the x values as a numpy array of shape (n,) and the
    block's y values as a column of shape (rows, 1), so they must broadcast
    (`RatFn.eval_float` does).  The block bound keeps each intermediate
    array to 64 rows of the grid.

    Points where the residual is not finite (a pole of either field, an
    overflow) are skipped and counted in ``skipped_points``.  Raises if no
    point remains.
    """
    margin = 1 if order == 2 else 2
    xs, ys = grid.axes()
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    with np.errstate(all="ignore"):
        Fv = _sample(Y, xs, ys)
        Uv = _sample(u, xs, ys)
        lap = _fd_laplacian(Fv, hx, hy, order)
        inner = (slice(margin, -margin), slice(margin, -margin))
        residual = np.abs(lap - Uv[inner] * Fv[inner])

    keep = np.isfinite(residual)
    skipped = int(residual.size - keep.sum())
    if not keep.any():
        raise ValueError("no grid point has a finite residual")
    detail = {"order": order, "grid": asdict(grid), "skipped_points": skipped}
    return _numeric_report(residual[keep].max(), tol, detail, name="fd-residual")


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def _rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        if v != 0 or not nonzero:
            return v


def _rand_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 20), rng.randint(1, 20))


def _rand_weight(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A nonzero dipole weight (p, q): q is redrawn while p and q are zero."""
    p = _rand_fraction(rng)
    return p, _rand_fraction(rng, nonzero=p == 0)


def _rand_poles(rng: random.Random, n: int, fixed: tuple = ()) -> tuple:
    """``fixed`` then n random poles, the n redrawn until all are distinct."""
    while True:
        drawn = ((_rand_fraction(rng), _rand_fraction(rng)) for _ in range(n))
        poles = (*fixed, *drawn)
        if len(set(poles)) == len(poles):
            return poles


def _draw_params(tag: str, rng: random.Random) -> dict:
    """One randomized small-rational parameter set for a family: a weight
    carried by a root, then the free poles, then B2's weights_choice, then C;
    the keys in the order weight, poles, C (`_WEIGHT_KEYS`, `_ROOT_LAYOUT`)."""
    index, weight_keys = _WEIGHT_KEYS[tag]
    params = dict.fromkeys(weight_keys)
    if index is not None:
        params.update(zip(weight_keys, _rand_weight(rng)))
    layout = _ROOT_LAYOUT[tag]
    fixed = tuple(_ORIGIN for keys, _ in layout if keys is None)
    # pinned roots lead every layout, as the fixed poles lead what _rand_poles returns
    for (keys, _), pole in zip(layout, _rand_poles(rng, len(layout) - len(fixed), fixed)):
        if keys:
            params.update(zip(keys, pole))
    if index is None:
        params["weights_choice"] = _rand_weight(rng)
    params["C"] = _rand_positive(rng)
    return params


def _params_text(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if isinstance(val, tuple):
            out[key] = [str(v) for v in val]
        else:
            out[key] = str(val)
    return out


def _aggregate(cases: list[dict], params: dict | None = None) -> ResidualReport:
    detail = {
        "cases": cases,
        "residual_terms": sum(c.get("residual_terms", 0) for c in cases),
    }
    ok = all(c["verdict"] == "pass" for c in cases)
    return _report("exact", ok, detail, params)


def _case_from(*reports: ResidualReport, **labels) -> dict:
    """A case from exact reports: it passes when all pass; residual terms add."""
    case = dict(labels)
    case["verdict"] = "pass" if all(r.passed for r in reports) else "fail"
    case["residual_terms"] = sum(r.detail["residual_terms"] for r in reports)
    return case


def _draws(key: str, rng: random.Random) -> Iterator[tuple]:
    """``(draw, tag, params, B)`` for five draws of family ``key`` from
    ``rng``; B comes from this module's `build_family`, and what a caller
    draws from ``rng`` comes after the draw's parameters, before the next's."""
    tag = FAMILY_KEYS[key]
    for draw in range(5):
        params = _draw_params(tag, rng)
        yield draw, tag, params, build_family(tag, params).B


def _worst_gap(f: PointFn, g: PointFn, points: Iterable[tuple[float, float]],
               relative: bool = False) -> float:
    """Max of |f - g| over ``points``, over max(|f|, |g|) if ``relative``."""
    worst = 0.0
    for x, y in points:
        a, b = f(x, y), g(x, y)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)) if relative else abs(a - b))
    return worst


# -- target bodies ----------------------------------------------------------


def _run_eq12_family(key: str, rng: random.Random) -> ResidualReport:
    cases = []
    for draw, _, params, B in _draws(key, rng):
        c = _rand_fraction(rng, nonzero=True)
        for label, Bv in (("B", B), ("cB", c * B), ("1/B", RatFn(B.den, B.num))):
            cases.append(_case_from(check_eq12(Bv), draw=draw, variant=label,
                                    params=_params_text(params)))
    return _aggregate(cases)


def _run_eq12_harmonic(_rng: random.Random) -> ResidualReport:
    cases = []
    pairs = harmonic_basis(5)
    for k in range(1, 6):
        rep = check_eq12(RatFn.from_poly(pairs[k].Y))
        cases.append(_case_from(rep, degree=k))
    return _aggregate(cases)


def _run_eq12_counterexample(_rng: random.Random) -> ResidualReport:
    inner = check_eq12(RatFn.from_poly(X * X))
    detail = {
        "expected_failure": True,
        "inner_verdict": inner.verdict,
        "residual_terms": inner.detail["residual_terms"],
        "residuals": inner.detail["residuals"],
    }
    return _report("exact", not inner.passed, detail, {"B": "x^2"})


def _run_potential_family(key: str, rng: random.Random) -> ResidualReport:
    cases = []
    for draw, tag, params, B in _draws(key, rng):
        residual = potential_from_B(B) - closed_potential(tag, params).u
        rep = _exact_report("potential", [residual])
        cases.append(_case_from(rep, draw=draw, params=_params_text(params)))
    return _aggregate(cases)


def _run_potential_tsarev1(_rng: random.Random) -> ResidualReport:
    sol = build_preset("tsarev-1")
    u_pipe = potential_from_B(sol.B)
    u_closed = closed_potential(sol.family_tag, sol.params).u
    rep = _exact_report("potential", [u_pipe - u_closed])
    spot = u_closed.eval(0, 0)
    return _report("exact", rep.passed and spot == Fraction(-1, 5),
                   {**rep.detail, "origin_value": str(spot)}, _params_text(sol.params))


def _run_potential_tsarev2(rng: random.Random) -> ResidualReport:
    """Exact pipeline on the rationalized preset vs the surd-valued closed form.

    The closed form is taken at the exact values of the double-rounded surds
    (`Preset.params_float`); `potential:b2` certifies its transcription.
    """
    sol = build_preset("tsarev-2")
    u_exact = potential_from_B(sol.B)
    surds = {k: Fraction(v) for k, v in PRESETS["tsarev-2"].params_float.items()}
    u_surd = closed_potential("B2", surds).u.eval_float
    points = ((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(25))
    worst = _worst_gap(u_exact.eval_float, u_surd, points, relative=True)
    return _numeric_report(worst, 1e-9, {"points": 25, "comparison": "relative"},
                           {"preset": "tsarev-2"})


def _family_instance(key: str):
    tag = FAMILY_KEYS[key]
    if key == "b1":
        return build_preset("tsarev-1")
    if key == "b2":
        # a small-coefficient representative; the tsarev-2 preset's
        # 13-digit rationals grow the transform residuals' coefficients
        # to about 2,400 bits against 41 here (products up to total
        # degree 33 either way), and which instance represents the
        # family is free here
        return build_family("B2", {
            "weights_choice": (1, 0),
            "x1": Fraction(1), "y1": Fraction(0),
            "x2": Fraction(0), "y2": Fraction(1),
            "C": Fraction(1),
        })
    return build_family(tag, DEFAULT_PARAMS[tag])


def _run_transform_family(key: str, _rng: random.Random) -> ResidualReport:
    """Transform the eight seeds and certify each result exactly.

    The seeds run on the pole form of R (`families.closed_R`), whose
    denominators are B's own and |P'|^2; the paper's form `R_coeffs(B)`
    carries |grad B|^2, of degree 4 deg P more than those.  The two forms
    are zero-tested against each other once, and that report joins every
    case, so a wrong pole form fails all eight.
    """
    sol = _family_instance(key)
    B = sol.B
    u_new = potential_from_B(B)
    R = closed_R(sol.family_tag, sol.params)
    rep_R = _exact_report("R", [r - r_B for r, r_B in zip(R, R_coeffs(B))])
    cases = []
    for idx, pair in enumerate(harmonic_basis(6)):
        label = f"deg{idx}" if idx < 7 else "const-Q"
        out = transform_solution(B, pair, R=R)
        rep_s = check_schrodinger(out.Y_tilde, u_new)
        rep_p = check_new_potential_system(B, out)
        w_residual = out.W_tilde - B * out.Y_tilde
        rep_w = _exact_report("w", [w_residual])
        cases.append(_case_from(rep_R, rep_s, rep_p, rep_w, seed_pair=label))
    return _aggregate(cases, params={"family": key, "preset": sol.preset})


def _run_tanh_fd(_rng: random.Random) -> ResidualReport:
    B_s, u = build_tanh(1.0, 0.0)
    grid = GridSpec(x_range=(-2.0, 2.0), y_range=(-2.0, 2.0), nx=401, ny=401)
    rep = fd_residual(u, B_s, grid, order=4, tol=1e-6)
    return replace(rep, params={"C1": "1", "C2": "0"})


def _tanh_neg_log_field(C1: float, C2: float) -> tuple[PointFn, ...]:
    """(h_x, h_y, h_xx, h_yy) of h = -ln tanh((xy - C2)/C1), in closed form.

    Valid where the tanh argument is positive; elsewhere the closures return
    non-finite values (h itself is undefined there).
    """

    def s_of(x: float, y: float) -> float:
        return (x * y - C2) / C1

    def fx(x: float, y: float) -> float:
        return -2.0 * (y / C1) / math.sinh(2.0 * s_of(x, y))

    def fy(x: float, y: float) -> float:
        return -2.0 * (x / C1) / math.sinh(2.0 * s_of(x, y))

    def fxx(x: float, y: float) -> float:
        t = 2.0 * s_of(x, y)
        return 4.0 * (y / C1) ** 2 * math.cosh(t) / math.sinh(t) ** 2

    def fyy(x: float, y: float) -> float:
        t = 2.0 * s_of(x, y)
        return 4.0 * (x / C1) ** 2 * math.cosh(t) / math.sinh(t) ** 2

    return fx, fy, fxx, fyy


def _run_tanh_ufromh(rng: random.Random) -> ResidualReport:
    _, u_closed = build_tanh(1.0, 0.0)
    u_h = u_from_h(*_tanh_neg_log_field(1.0, 0.0))
    # sampled away from the zero line of tanh(xy), where h = -ln B_s
    # is defined and the derivative cancellations stay benign
    points = ((rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for _ in range(100))
    worst = _worst_gap(u_h, u_closed, points)
    return _numeric_report(worst, 1e-8,
                           {"points": 100, "region": [[0.5, 2.0], [0.5, 2.0]]},
                           {"C1": "1", "C2": "0"})


def _run_ufromh_b0(_rng: random.Random) -> ResidualReport:
    sol = build_family("B0", DEFAULT_PARAMS["B0"])
    u_closed = closed_potential("B0", DEFAULT_PARAMS["B0"]).u
    u_h = u_from_h(*neg_log_field(sol.B))
    # all sample points sit where B_0 = x/(x^2+y^2+1) is positive
    points = ((1.0, 2.0), (2.0, 1.0), (0.5, 0.5), (3.0, 4.0), (1.5, -0.5))
    worst = _worst_gap(u_h, u_closed.eval_float, points)
    return _numeric_report(worst, 1e-10, {"points": 5}, _params_text(DEFAULT_PARAMS["B0"]))


def _run_spot_values(_rng: random.Random) -> ResidualReport:
    # (check, family tag, parameters, exact value of u at the origin)
    spots = [(f"u0(0,0) with C={C}", "B0", {"x0": 0, "y0": 0, "C": C}, Fraction(-8) / C)
             for C in (Fraction(1), Fraction(3, 2), Fraction(7))]
    spots += [("u1(0,0) tsarev-1", "B1", PRESETS["tsarev-1"].params, Fraction(-1, 5)),
              ("u3(0,0)", "B3", DEFAULT_PARAMS["B3"], 0)]
    cases = []
    for check, tag, params, expected in spots:
        val = closed_potential(tag, params).u.eval(0, 0)
        cases.append({"check": check, "verdict": "pass" if val == expected else "fail",
                      "value": str(val)})
    return _aggregate(cases)


_DECAY_EXPONENT = {"b0": -4.0, "b1": -6.0, "b2": -8.0, "b3": -10.0}


def _run_decay(key: str, _rng: random.Random) -> ResidualReport:
    tag = FAMILY_KEYS[key]
    params = DEFAULT_PARAMS[tag]
    u = closed_potential(tag, params).u
    theta = 0.7
    radii = (1e2, 1e3, 1e4)
    values = [abs(u.eval_float(r * math.cos(theta), r * math.sin(theta)))
              for r in radii]
    slopes = [
        (math.log(values[i + 1]) - math.log(values[i]))
        / (math.log(radii[i + 1]) - math.log(radii[i]))
        for i in range(len(radii) - 1)
    ]
    expected = _DECAY_EXPONENT[key]
    worst = max(abs(s - expected) for s in slopes)
    detail = {"slopes": slopes, "expected": expected, "radii": list(radii)}
    return _numeric_report(worst, 0.1, detail, _params_text(params))


def _run_smooth(key: str, _rng: random.Random) -> ResidualReport:
    """Exact positivity margin of the potential denominator on a lattice."""
    tag = FAMILY_KEYS[key]
    params = DEFAULT_PARAMS[tag]
    # u = num / den^2 with den = M + C: den^2 >= C^2 exactly where |den| >= C
    ((den, _),) = closed_potential(tag, params).u.factors
    C = params["C"]
    # the lattice is ps / 5, 101 points across [-20, 20]; the smallest |den|
    # of each row is found on its integers over one positive denominator
    ps = range(-100, 101, 2)
    rows = (den.eval_row(ps, 5, Fraction(p, 5)) for p in ps)
    worst = min(Fraction(min(map(abs, nums)), d) for nums, d in rows)
    detail = {
        "residual_terms": 0,
        "grid": "101x101 on [-20,20]^2",
        "min_denominator": float(worst**2),
        "bound": float(C * C),
    }
    return _report("exact", worst >= C, detail, _params_text(params))


# dim target -> the preset whose poles are the first pole set; every set
# pins the preset's family's pinned poles and adds two free ones
_DIM_PRESETS = {"b1": "tsarev-1", "b2": "tsarev-2"}


def _run_dim(key: str, rng: random.Random) -> ResidualReport:
    preset = PRESETS[_DIM_PRESETS[key]]
    poles = tuple(pole for pole, _ in _roots(preset.family_tag, preset.params))
    fixed = poles[:-2]
    pole_sets = [poles] + [_rand_poles(rng, 2, fixed) for _ in range(3)]
    cases = []
    for poles in pole_sets:
        basis = laplace_constrained_numerator(poles)
        entry = {"poles": [[str(a), str(b)] for a, b in poles], "dimension": len(basis)}
        ok = len(basis) == 2
        if ok and key == "b1":
            # B1 built from (p0, q0) (zero-tested against its transcription
            # inside build_family) must have its weights in the span: the solved
            # vector led by (p0, q0) must fix the same mu at both poles
            # and give B1's numerator
            p0, q0 = _rand_weight(rng)
            (x0, y0), (x1, y1) = poles
            try:
                B = build_family("B1", {"p0": p0, "q0": q0, "x0": x0, "y0": y0,
                                        "x1": x1, "y1": y1, "C": Fraction(1)}).B
                flat = _weights_in_span(basis, (p0, q0))
                roots = tuple((pole, 1) for pole in poles)
                ok = _pole_B(roots, {0: flat[:2], 1: flat[2:]}, Fraction(1)).num == B.num
            except ExponentCapError:
                raise
            except (ArithmeticError, ValueError):
                ok = False
            entry["explicit_in_span"] = ok
        entry["verdict"] = "pass" if ok else "fail"
        cases.append(entry)
    return _aggregate(cases)


def _run_fd_order(_rng: random.Random) -> ResidualReport:
    """The numeric engine's convergence order, measured on an exact pair."""
    sol = build_family("B0", DEFAULT_PARAMS["B0"])
    u = closed_potential("B0", DEFAULT_PARAMS["B0"]).u
    r1, r2 = (
        fd_residual(u.eval_float, sol.B.eval_float,
                    GridSpec((-2.0, 2.0), (-2.0, 2.0), n, n), order=4, tol=math.inf)
        .detail["max_residual"]
        for n in (401, 801)
    )
    exponent = math.log2(r1 / r2)
    detail = {"exponent": exponent, "coarse_residual": r1, "fine_residual": r2}
    return _numeric_report(abs(exponent - 4.0), 0.3, detail,
                           _params_text(DEFAULT_PARAMS["B0"]))


# -- registry ---------------------------------------------------------------


def _per_family(prefix: str, body: Callable[[str, random.Random], ResidualReport],
                keys: Iterable[str] = FAMILY_KEYS) -> dict:
    return {f"{prefix}:{k}": partial(body, k) for k in keys}


# target name -> body taking the target's rng, in run order; the family keys
# among a name's ":"-separated parts are the families it touches
_TARGETS: dict[str, Callable[[random.Random], ResidualReport]] = {
    **_per_family("eq12", _run_eq12_family),
    "eq12:harmonic": _run_eq12_harmonic,
    "eq12:counterexample": _run_eq12_counterexample,
    **_per_family("potential", _run_potential_family),
    "potential:tsarev-1:b1": _run_potential_tsarev1,
    "potential:tsarev-2:b2": _run_potential_tsarev2,
    **_per_family("transform", _run_transform_family),
    "tanh:fd": _run_tanh_fd,
    "tanh:ufromh": _run_tanh_ufromh,
    "ufromh:b0": _run_ufromh_b0,
    "spot:potentials": _run_spot_values,
    **_per_family("decay", _run_decay),
    **_per_family("smooth", _run_smooth),
    **_per_family("dim", _run_dim, ("b1", "b2")),
    "fd:order": _run_fd_order,
}

ALL_TARGETS: tuple[str, ...] = tuple(_TARGETS)


def targets_for_family(family: str) -> list[str]:
    """Target names touching one family key (b0..b3, tanh) or 'all'."""
    if family == "all":
        return list(ALL_TARGETS)
    if family not in FAMILY_KEYS and family != "tanh":
        raise ValueError(f"no targets for family {family!r}")
    return [name for name in _TARGETS if family in name.split(":")]


def check_targets(targets: Sequence[str]) -> None:
    """Raise ValueError naming every target the suite does not know."""
    unknown = [t for t in targets if t not in _TARGETS]
    if unknown:
        raise ValueError(f"unknown target(s): {', '.join(unknown)}")


def run_suite(targets: Sequence[str], seed: int,
              progress: Callable[[str, ResidualReport, float], None] | None = None
              ) -> list[ResidualReport]:
    """Run named certification targets with deterministic seeded draws.

    Each target draws from its own ``random.Random(f"{seed}:{name}")``, and
    its report is named ``name`` and carries ``seed``; so a report does not
    depend on which other targets run, or in what order.  Reports come back
    sorted by check name.  ``progress``, if given, is called as each target
    finishes, with its name, its report and its wall time in seconds.
    """
    check_targets(targets)
    reports = []
    for name in targets:
        start = time.perf_counter()
        report = _TARGETS[name](random.Random(f"{seed}:{name}"))
        reports.append(replace(report, check_name=name, seed=seed))
        if progress is not None:
            progress(name, reports[-1], time.perf_counter() - start)
    return sorted(reports, key=lambda r: r.check_name)
