"""The nonlocal transform core.

Given a nonconstant B solving the closure system, this module produces

  * the transformed potential  u~ = (B_xx + B_yy)/B,
  * the first-order coefficients

        R1 = (B_y (B_xx - B_yy) - 2 B_x B_xy) / (2 (B_x^2 + B_y^2)),
        R2 = (B_x (B_xx - B_yy) + 2 B_y B_xy) / (2 (B_x^2 + B_y^2)),

  * the matrix operator  L = [[B R1 - B d/dy, B R2],
                              [B_x - B R2, B_y + B R1 - B d/dy]]
    acting on seed pairs (Y, Q), and
  * the solution transform  Y~ = R1 Y - Y_y + R2 Q  with  W~ = B Y~.

Everything here is exact rational-function algebra, written as the formulas
read: `RatFn` keeps the powers of B's numerator and denominator and of
|grad B|^2 as factors, so terms meet on shared denominators by themselves.

With z = x + iy, R2 + i R1 = B_zz/B_z.  For a rational family
B = Re(mu P)/D with D = |P|^2 + C this is the pole form

    R2 + i R1 = P''/P' - 2 P' conj(P)/D        (`families.closed_R`),

since B_z = P' (mu C - conj(mu) conj(P)^2)/(2 D^2) has an antiholomorphic
middle factor.  The paper's quotient above keeps that factor: its
|grad B|^2 = |P'|^2 |mu C - conj(mu) conj(P)^2|^2 / D^4, and with no gcd
taken the degree-4 deg P factor stays in every denominator built from
`R_coeffs`.  The `transform:*` targets therefore certify the pole form
against `R_coeffs(B)` once per instance and run their seeds on it
(`transform_solution(B, seed, R=...)`).

The only numeric piece is the h <-> u bridge
(u = -h_xx - h_yy + h_x^2 + h_y^2), which exists to cross-check the
rational pipeline pointwise: `u_from_h` takes the four partials of h as
plain functions, and `neg_log_field` builds them for h = -ln B.  The scalar
h itself is never formed symbolically: all h-dependence enters through
B_x/B ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from darboux2d.harmonic import HarmonicPair
from darboux2d.polyrat import RatFn, laplacian


@dataclass(frozen=True)
class TransformOutput:
    """Transformed solution data.

    ``W_tilde`` and ``Q_tilde`` are the two components of the matrix operator
    applied to the seed; ``Y_tilde = W_tilde / B`` is the transformed
    Schrodinger solution.  ``W_tilde == B * Y_tilde`` holds as an exact
    identity; the `transform:*` suite targets certify it as their ``w``
    residual, so nothing here re-checks it.
    """

    Y_tilde: RatFn
    W_tilde: RatFn
    Q_tilde: RatFn


def potential_from_B(B: RatFn) -> RatFn:
    """Exact transformed potential (B_xx + B_yy)/B."""
    if B.is_zero():
        raise ValueError("potential requires a nonzero B")
    return laplacian(B) / B


def R_coeffs(B: RatFn) -> tuple[RatFn, RatFn]:
    """The first-order coefficients (R1, R2); requires nonconstant B."""
    Bx = B.diff("x")
    By = B.diff("y")
    Bxy = Bx.diff("y")
    delta = Bx.diff("x") - By.diff("y")
    grad2 = 2 * (Bx * Bx + By * By)
    if grad2.is_zero():
        raise ValueError("R coefficients require a nonconstant B")
    R1 = (By * delta - 2 * (Bx * Bxy)) / grad2
    R2 = (Bx * delta + 2 * (By * Bxy)) / grad2
    return R1, R2


def transform_solution(
    B: RatFn, seed: HarmonicPair, R: tuple[RatFn, RatFn] | None = None
) -> TransformOutput:
    """Transform a seed pair into a solution of the new equation.

    (W~, Q~) is L applied to the seed (Y, Q), entry by entry as the module
    docstring writes L.  The seed system is enforced by the `HarmonicPair`
    type itself, so any value that reaches this function already satisfies
    it exactly.  ``R`` is the pair (R1, R2) to use, by default
    ``R_coeffs(B)``; a caller that passes another form of it
    (`families.closed_R`) certifies its equality with ``R_coeffs(B)`` itself.
    """
    R1, R2 = R_coeffs(B) if R is None else R
    Yp = RatFn.from_poly(seed.Y)
    Qp = RatFn.from_poly(seed.Q)
    Y_tilde = R1 * Yp - Yp.diff("y") + R2 * Qp
    W_tilde = B * R1 * Yp - B * Yp.diff("y") + B * R2 * Qp
    Q_tilde = (B.diff("x") - B * R2) * Yp + (B.diff("y") + B * R1) * Qp - B * Qp.diff("y")
    return TransformOutput(Y_tilde=Y_tilde, W_tilde=W_tilde, Q_tilde=Q_tilde)


# ---------------------------------------------------------------------------
# the h <-> u bridge (numeric)
# ---------------------------------------------------------------------------


PointFn = Callable[[float, float], float]


def u_from_h(hx: PointFn, hy: PointFn, hxx: PointFn, hyy: PointFn) -> PointFn:
    """Pointwise potential u = -h_xx - h_yy + h_x^2 + h_y^2.

    The arguments are the partials of h; h itself is not needed.  Non-finite
    derivative values (e.g. at singular points of h) propagate through to
    the result as inf/nan.
    """

    def u(x: float, y: float) -> float:
        return -hxx(x, y) - hyy(x, y) + hx(x, y) ** 2 + hy(x, y) ** 2

    return u


def neg_log_field(B: RatFn) -> tuple[PointFn, PointFn, PointFn, PointFn]:
    """The partials (h_x, h_y, h_xx, h_yy) of h = -ln B, in `u_from_h` order.

    All four are rational functions of (x, y) built from B symbolically;
    their `eval_float` methods, returned here, evaluate them in double
    precision, at points or over numpy arrays.  Points where B vanishes
    (h undefined) yield non-finite values.
    """
    hx = -(B.diff("x") / B)
    hy = -(B.diff("y") / B)
    return hx.eval_float, hy.eval_float, hx.diff("x").eval_float, hy.diff("y").eval_float
