"""Concrete solvable families.

Four rational families B_0..B_3 of the pole-sum shape B = N/(M + C) with
harmonic numerator, each paired with a closed-form potential

    u_n = lap(B_n) / B_n

transcribed independently of the differential pipeline (the agreement of the
two is a certified check in `verify`, not an assumption here), plus the
hyperbolic pair B_s = tanh((xy - C2)/C1) with its potential.  Parameter sets
matching the two Moutard-derived potentials of Taimanov and Tsarev ship as
named presets.

Every rational family is B = Re(mu P)/(|P|^2 + C), where the pole polynomial
P(z) = prod (z - z_i)^m_i has the family's poles as its roots.  A family's
parameters are its poles (`_ROOT_LAYOUT`), its weight (`_WEIGHT_KEYS`) and
C; `_pole_data` alone checks them, for `build_family`, `closed_potential`
and `closed_R` alike.  `build_family` builds all four through one
constructor, `_pole_B`, and `closed_R` writes the transform's first-order
coefficients in pole form from the same P.  A dipole weight (p_i, q_i) at a
simple root fixes conj(mu) = (p_i + i q_i) P'(z_i).  B2's weights are
picked in the basis `laplace_constrained_numerator` solves (`_b2_weights`).
B0, B1 and B3 check exact agreement with their transcribed numerators --
double-entry bookkeeping against transcription slips; a mismatch raises
:class:`ArithmeticError`, also under ``python -O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from darboux2d.harmonic import harmonic_basis, laplace_constrained_numerator
from darboux2d.polyrat import (
    X,
    Y,
    ZERO,
    BiPoly,
    RatFn,
    Scalar,
    as_fraction,
)

# family key (as the CLI and the suite name it) -> family tag
FAMILY_KEYS = {"b0": "B0", "b1": "B1", "b2": "B2", "b3": "B3"}


@dataclass(frozen=True)
class RationalSolution:
    """A rational B = N/(M + C) with the parameters that built it.

    ``params`` is the flat mapping :func:`build_family` was given, preset
    values included, so ``closed_potential(family_tag, params)`` is the
    transcribed potential of this very B.  ``preset`` names the preset the
    instance was built from, if any.
    """

    B: RatFn
    family_tag: str
    params: Mapping[str, Scalar]
    preset: str | None = None


@dataclass(frozen=True)
class ClosedPotential:
    """A transcribed closed-form potential of a rational family.

    ``u`` is exact.  Its denominator ``(M + C)^2`` is built as the factor
    ``M + C`` with exponent -2, the factor ``potential_from_B`` also
    produces, so their difference keeps it as a factor.
    ``constants`` records the derived combinations appearing in the
    closed forms (k_1..k_6 for the three-pole family, m_1..m_4 for the
    confluent one); they are computed from the pole coordinates, never taken
    as independent inputs.
    """

    u: RatFn
    constants: dict[str, Fraction] = field(default_factory=dict)


def _need(params: Mapping[str, Scalar], *keys: str) -> list[Fraction]:
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"missing parameter(s): {', '.join(missing)}")
    return [as_fraction(params[k]) for k in keys]


def _weights_in_span(
    basis: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """The combination a*v1 + b*v2 of the basis whose leading entries are ``target``.

    ``target`` is a full weight vector of B2, or the first weight pair of a
    layout (the `dim:b1` target's); the first entry pair with a nonzero 2x2
    determinant fixes (a, b).
    """
    v1, v2 = basis
    n = len(target)
    for i in range(n):
        for j in range(i + 1, n):
            det = v1[i] * v2[j] - v1[j] * v2[i]
            if det:
                a = (target[i] * v2[j] - target[j] * v2[i]) / det
                b = (target[j] * v1[i] - target[i] * v1[j]) / det
                flat = tuple(a * c1 + b * c2 for c1, c2 in zip(v1, v2))
                if flat[:n] != target:
                    raise ValueError("weight vector lies outside the solved family")
                return flat
    raise ValueError("solved weight space is degenerate")


def _cmul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    """Product of two Gaussian rationals given as (real, imaginary) pairs."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


_ORIGIN = (Fraction(0), Fraction(0))

# family tag -> the roots of its pole polynomial P as ((x key, y key), m),
# the keys naming the root's coordinates in the family's parameters; None
# is the origin
_ROOT_LAYOUT = {
    "B0": ((("x0", "y0"), 1),),
    "B1": ((("x0", "y0"), 1), (("x1", "y1"), 1)),
    "B2": ((None, 1), (("x1", "y1"), 1), (("x2", "y2"), 1)),
    "B3": ((None, 3), (("x1", "y1"), 1)),
}

# family tag -> (the index in its layout of the simple root that carries
# the dipole weight (p, q), the weight's keys); B2 instead takes its weights
# as a choice in the solved basis, which no root index names
_WEIGHT_KEYS = {
    "B0": (0, ("p0", "q0")),
    "B1": (0, ("p0", "q0")),
    "B2": (None, ("weights_choice",)),
    "B3": (1, ("p1", "q1")),
}


def _roots(family_tag: str, params: Mapping[str, Scalar]) -> tuple:
    """The roots ((x_i, y_i), m_i) of the family's pole polynomial P."""
    if family_tag not in _ROOT_LAYOUT:
        raise ValueError(f"unknown family tag {family_tag!r}")
    return tuple((_ORIGIN if keys is None else tuple(_need(params, *keys)), m)
                 for keys, m in _ROOT_LAYOUT[family_tag])


def _pole_data(family_tag: str, params: Mapping[str, Scalar]) -> tuple[tuple, Fraction]:
    """The roots of the family's P and its C, checked: C > 0 and the poles,
    the pinned origin among them, pairwise distinct."""
    roots = _roots(family_tag, params)
    (C,) = _need(params, "C")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    if len({pole for pole, _ in roots}) != len(roots):
        raise ValueError("poles must be pairwise distinct")
    return roots, C


def _pole_coeffs(roots) -> list[tuple[Fraction, Fraction]]:
    """Coefficients a_k of P(z) = prod (z - z_i)^m_i = sum a_k z^k, lowest
    degree first, each a Gaussian rational (real, imaginary)."""
    coeffs = [(Fraction(1), Fraction(0))]
    for (x, y), m in roots:
        for _ in range(m):
            shifted = [_cmul(a, (-x, -y)) for a in coeffs] + [(0, 0)]
            coeffs = [(a[0] + b[0], a[1] + b[1])
                      for a, b in zip([(0, 0), *coeffs], shifted)]
    return coeffs


def _re_im(coeffs: list[tuple[Fraction, Fraction]]) -> tuple[BiPoly, BiPoly]:
    """(Re, Im) of sum a_k z^k, z = x + iy, as polynomials in x and y."""
    re = im = ZERO
    for (a, b), pair in zip(coeffs, harmonic_basis(len(coeffs) - 1)):
        re = re + a * pair.Y - b * pair.Q
        im = im + a * pair.Q + b * pair.Y
    return re, im


def _pole_B(roots, weights, C: Fraction) -> RatFn:
    """B = Re(mu P)/(|P|^2 + C) with P(z) = prod (z - z_i)^m_i, z = x + iy.

    ``roots`` lists the distinct poles with their multiplicities,
    ((x_i, y_i), m_i).  ``weights`` maps the index of a simple root to its
    dipole weight (p_i, q_i), the residue data of the pole sum
    sum_i (p_i (x - x_i) + q_i (y - y_i))/|z - z_i|^2; each fixes
    conj(mu) = (p_i + i q_i) prod_{j != i} (z_i - z_j)^m_j, and all of them
    must fix the same mu, or ArithmeticError is raised.
    """
    conj_mus = set()
    for i, conj_mu in weights.items():
        (xi, yi), _ = roots[i]
        for j, ((xj, yj), mj) in enumerate(roots):
            for _ in range(mj if j != i else 0):
                conj_mu = _cmul(conj_mu, (xi - xj, yi - yj))
        conj_mus.add(conj_mu)
    if len(conj_mus) != 1:
        raise ArithmeticError(
            "dipole weights fix different multipliers mu: the pole sum is not harmonic"
        )
    ((c, d),) = conj_mus
    re_P, im_P = _re_im(_pole_coeffs(roots))
    # mu = c - id, so Re(mu P) = c Re P + d Im P
    return RatFn(c * re_P + d * im_P, re_P * re_P + im_P * im_P + C)


# ---------------------------------------------------------------------------
# transcribed numerators and B2's weights
# ---------------------------------------------------------------------------


def _b0_numerator(p0: Fraction, q0: Fraction, roots) -> BiPoly:
    """One-pole family: B = (p0(x-x0) + q0(y-y0)) / ((x-x0)^2 + (y-y0)^2 + C)."""
    (((x0, y0), _),) = roots
    return p0 * (X - x0) + q0 * (Y - y0)


def _b1_numerator(p0: Fraction, q0: Fraction, roots) -> BiPoly:
    """Two-pole family B = N/(M + C), weight (p0, q0) at the pole (x0, y0):
    an independent rendering of N, straight from the closed form."""
    ((x0, y0), _), ((x1, y1), _) = roots
    d1 = p0 * (x0 - x1) - q0 * (y0 - y1)
    d2 = p0 * (y0 - y1) + q0 * (x0 - x1)
    s = x0 * x0 - x1 * x1 + y0 * y0 - y1 * y1
    w = x0 * y1 - y0 * x1
    r0 = x0 * x0 + y0 * y0
    r1 = x1 * x1 + y1 * y1
    return (
        d1 * (X**2 - Y**2)
        + 2 * d2 * (X * Y)
        - (p0 * s + 2 * q0 * w) * X
        + (2 * p0 * w - q0 * s) * Y
        - BiPoly.const(p0 * (x0 * r1 - x1 * r0) + q0 * (y0 * r1 - y1 * r0))
    )


def _b2_weights(roots, weights_choice) -> dict[int, tuple[Fraction, Fraction]]:
    """The weights at the three poles of B2, one pinned at the origin, from a
    pair (a, b) of coordinates in the solved two-dimensional weight basis or
    a full six-component weight vector that must lie in that space."""
    basis = laplace_constrained_numerator(tuple(pole for pole, _ in roots))
    if len(basis) != 2:
        raise ValueError(
            f"pole configuration is degenerate: solution space has dimension {len(basis)}"
        )
    choice = tuple(as_fraction(v) for v in weights_choice)
    if len(choice) == 2:
        a, b = choice
        flat = tuple(a * c1 + b * c2 for c1, c2 in zip(*basis))
    elif len(choice) == 6:
        flat = _weights_in_span(basis, choice)
    else:
        raise ValueError("weights_choice must have 2 (basis coords) or 6 (full) entries")
    if all(v == 0 for v in flat):
        raise ValueError("weight vector is zero")
    return {i: (flat[2 * i], flat[2 * i + 1]) for i in range(3)}


def _m_constants(x1: Fraction, y1: Fraction) -> dict[str, Fraction]:
    return {
        "m1": x1 * (x1 * x1 - 3 * y1 * y1),
        "m2": y1 * (y1 * y1 - 3 * x1 * x1),
        "m3": 2 * x1 * y1 * (x1 * x1 + y1 * y1),
        "m4": x1**4 - y1**4,
    }


def _b3_numerator(p1: Fraction, q1: Fraction, roots) -> BiPoly:
    """Confluent family, P(z) = z^3 (z - z1) with the weight (p1, q1) at z1:
    the numerator expanded in the m-constants."""
    _, ((x1, y1), _) = roots
    m1, m2, m3, m4 = _m_constants(x1, y1).values()
    return (
        (m1 * p1 + m2 * q1) * ((X**2 - Y**2) ** 2 - 4 * X**2 * Y**2)
        + 4 * (m1 * q1 - m2 * p1) * (X * Y * (X**2 - Y**2))
        + (m3 * q1 - m4 * p1) * (X * (X**2 - 3 * Y**2))
        + (m4 * q1 + m3 * p1) * (Y * (Y**2 - 3 * X**2))
    )


# family tag -> its transcribed numerator and what a mismatch raises
_NUMERATORS = {
    "B0": (_b0_numerator, "one-pole numerator disagrees with the explicit linear form"),
    "B1": (_b1_numerator, "two-pole numerator disagrees with its closed form"),
    "B3": (_b3_numerator, "confluent numerator disagrees with its closed form"),
}


# ---------------------------------------------------------------------------
# closed-form potentials
# ---------------------------------------------------------------------------


def closed_potential(family_tag: str, params: Mapping[str, Scalar]) -> ClosedPotential:
    """Transcribed closed-form potential for a rational family.

    These expressions are written down directly, *not* derived by
    differentiating B; the exact agreement of the two routes is one of the
    certified checks in `verify`.
    """
    roots, C = _pole_data(family_tag, params)
    constants = {}
    if family_tag == "B0":
        (((x0, y0), _),) = roots
        num = BiPoly.const(-8 * C)
        M = (X - x0) ** 2 + (Y - y0) ** 2
    elif family_tag == "B1":
        ((x0, y0), _), ((x1, y1), _) = roots
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        num = -32 * C * ((X - cx) ** 2 + (Y - cy) ** 2)
        M = ((X - x0) ** 2 + (Y - y0) ** 2) * ((X - x1) ** 2 + (Y - y1) ** 2)
    elif family_tag == "B2":
        _, ((x1, y1), _), ((x2, y2), _) = roots
        k = constants = {
            "k1": x1 + x2,
            "k2": y1 + y2,
            "k3": x1 * x2,
            "k4": y1 * y2,
            "k5": x1 * y2,
            "k6": y1 * x2,
        }
        G = (
            ((3 * X - 2 * k["k1"]) ** 2 + (3 * Y - 2 * k["k2"]) ** 2) * (X**2 + Y**2)
            + 6 * (k["k3"] - k["k4"]) * (X**2 - Y**2)
            + 12 * (k["k5"] + k["k6"]) * (X * Y)
            - 4 * (k["k1"] * k["k3"] + k["k5"] * y2 + k["k6"] * y1) * X
            - 4 * (k["k2"] * k["k4"] + k["k5"] * x1 + k["k6"] * x2) * Y
            + BiPoly.const((x1 * x1 + y1 * y1) * (x2 * x2 + y2 * y2))
        )
        num = -8 * C * G
        M = (
            (X**2 + Y**2)
            * ((X - x1) ** 2 + (Y - y1) ** 2)
            * ((X - x2) ** 2 + (Y - y2) ** 2)
        )
    else:  # B3
        _, ((x1, y1), _) = roots
        num = (
            -128
            * C
            * (X**2 + Y**2) ** 2
            * ((X - 3 * x1 / 4) ** 2 + (Y - 3 * y1 / 4) ** 2)
        )
        M = (X**2 + Y**2) ** 3 * ((X - x1) ** 2 + (Y - y1) ** 2)
        constants = _m_constants(x1, y1)

    den = M + C
    return ClosedPotential(u=RatFn(num, den) / den, constants=constants)


def closed_R(family_tag: str, params: Mapping[str, Scalar]) -> tuple[RatFn, RatFn]:
    """The first-order coefficients (R1, R2) of a rational family, in pole form.

    R2 + i R1 = B_zz/B_z.  With B = Re(mu P)/D and D = |P|^2 + C,
    B_z = P' (mu C - conj(mu) conj(P)^2)/(2 D^2), whose middle factor is
    antiholomorphic, so R2 + i R1 = P''/P' - 2 P' conj(P)/D: neither mu nor
    |grad B|^2 appears.  With P = e + if, P' = P_x = a + ib and
    P'' = P_xx = c + id (P is holomorphic),

        R2 = (ac + bd)/(a^2 + b^2) - 2 (ae + bf)/D,
        R1 = (ad - bc)/(a^2 + b^2) - 2 (be - af)/D.

    The first terms are left out when P' is constant.  D is built as in
    `_pole_B`, so it is the very factor B's denominator is.  Like
    `closed_potential`, this is not derived by differentiating B; the
    `transform:*` targets certify it against `darboux.R_coeffs(B)`.
    """
    roots, C = _pole_data(family_tag, params)
    e, f = _re_im(_pole_coeffs(roots))
    a, b = e.diff("x"), f.diff("x")
    D = e * e + f * f + C
    R1 = RatFn(-2 * (b * e - a * f), D)
    R2 = RatFn(-2 * (a * e + b * f), D)
    c, d = a.diff("x"), b.diff("x")
    if c or d:
        g = a * a + b * b
        R1 = RatFn(a * d - b * c, g) + R1
        R2 = RatFn(a * c + b * d, g) + R2
    return R1, R2


# ---------------------------------------------------------------------------
# the hyperbolic pair
# ---------------------------------------------------------------------------


def _sech2(t):
    # 1/cosh(t)^2 without overflow for large |t|
    a = np.exp(-2.0 * np.abs(t))
    return 4.0 * a / (1.0 + a) ** 2


def build_tanh(C1: float, C2: float) -> tuple[
    Callable[[float, float], float], Callable[[float, float], float]
]:
    """The pair (B_s, u) with B_s = tanh((xy - C2)/C1).

    u(x, y) = -2 C1^-2 (x^2 + y^2) / cosh^2((xy - C2)/C1), evaluated with an
    overflow-safe sech^2 so both closures are finite at arbitrary points.
    Both take floats or numpy arrays for x and y.  Raises ValueError unless
    C1 and C2 are finite, C1 is nonzero and 2/C1^2 is a finite float.
    """
    C1 = float(C1)
    C2 = float(C2)
    if not (math.isfinite(C1) and math.isfinite(C2)):
        raise ValueError(f"C1 and C2 must be finite, got C1={C1!r}, C2={C2!r}")
    if C1 == 0:
        raise ValueError("C1 must be nonzero")
    # u's factor -2/C1^2 must be finite, or no value of u is
    if C1 * C1 == 0 or math.isinf(2.0 / (C1 * C1)):
        raise ValueError(f"C1 = {C1!r} is too small: 2/C1^2 is not a finite float")

    def B_s(x, y):
        return np.tanh((x * y - C2) / C1)

    def u(x, y):
        # inf * 0 far out is nan, silently, as with Python floats
        with np.errstate(invalid="ignore"):
            return -2.0 / (C1 * C1) * (x * x + y * y) * _sech2((x * y - C2) / C1)

    return B_s, u


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _sqrt_fraction(v: Fraction) -> Fraction:
    """Rational approximation of sqrt(v), v >= 0, with error about 10^-40."""
    scale = 10**40
    return Fraction(math.isqrt(v.numerator * v.denominator * scale * scale),
                    v.denominator * scale)


def _tsarev2_poles(t, one) -> dict:
    # the nested surd t = sqrt(788 + sqrt(1252969)) drives all four pole coords
    return {"x1": -one / 80 - t / 80, "y1": (-159 + t) / (16 * t),
            "x2": -one / 80 + t / 80, "y2": (159 + t) / (16 * t)}


def _tsarev2_values() -> tuple[dict[str, Fraction], dict[str, float]]:
    t_hi = _sqrt_fraction(788 + _sqrt_fraction(Fraction(1252969)))
    exact = _tsarev2_poles(t_hi, Fraction(1))
    rationalized = {k: v.limit_denominator(10**13) for k, v in exact.items()}
    floats = _tsarev2_poles(math.sqrt(788 + math.sqrt(1252969)), 1)
    return {**rationalized, "C": Fraction(50)}, {**floats, "C": 50.0}


@dataclass(frozen=True)
class Preset:
    """Named parameter set; `params` is exact, `params_float` carries the
    surd-valued original when the exact entry is a rational approximation."""

    family_tag: str
    params: dict
    params_float: dict | None = None


PRESETS: dict[str, Preset] = {
    "tsarev-1": Preset(
        family_tag="B1",
        params={
            "p0": Fraction(1),
            "q0": Fraction(0),
            "x0": Fraction(0),
            "y0": Fraction(0),
            "x1": Fraction(-8, 17),
            "y1": Fraction(-2, 17),
            "C": Fraction(160, 17),
        },
    ),
    "tsarev-2": Preset("B2", *_tsarev2_values()),
}

DEFAULT_PARAMS: dict[str, dict] = {
    "B0": {"p0": 1, "q0": 0, "x0": 0, "y0": 0, "C": 1},
    "B1": dict(PRESETS["tsarev-1"].params),
    "B2": dict(PRESETS["tsarev-2"].params),
    "B3": {"p1": 1, "q1": 0, "x1": 1, "y1": 1, "C": 1},
    "tanh": {"C1": 1.0, "C2": 0.0},
}


def build_family(family_tag: str, params: Mapping[str, Scalar]) -> RationalSolution:
    """Build B from a flat parameter mapping and record the tag and the params.

    A family takes its weight's keys (`_WEIGHT_KEYS`), its poles' keys
    (`_ROOT_LAYOUT`) and C.  Every one is required, except B2's
    ``weights_choice``, which defaults to (1, 0); any other key is an error.
    """
    if family_tag not in _ROOT_LAYOUT:
        raise ValueError(f"unknown family tag {family_tag!r}")
    index, weight_keys = _WEIGHT_KEYS[family_tag]
    pole_keys = (k for pole, _ in _ROOT_LAYOUT[family_tag] if pole for k in pole)
    keys = (*weight_keys, *pole_keys, "C")
    for key in params:
        if key not in keys:
            raise ValueError(f"unknown parameter {key!r}")
    if index is None:  # B2: every key but weights_choice is required
        _need(params, *keys[1:])
        roots, C = _pole_data(family_tag, params)
        B = _pole_B(roots, _b2_weights(roots, params.get("weights_choice", (1, 0))), C)
    else:
        p, q, *_ = _need(params, *keys)
        if p == 0 and q == 0:
            raise ValueError("weight vector (p, q) must be nonzero")
        roots, C = _pole_data(family_tag, params)
        B = _pole_B(roots, {index: (p, q)}, C)
        numerator, mismatch = _NUMERATORS[family_tag]
        if B.num != numerator(p, q, roots):
            raise ArithmeticError(mismatch)
    return RationalSolution(B=B, family_tag=family_tag, params=dict(params))


def build_preset(name: str, **extra) -> RationalSolution:
    """Instantiate a named preset; ``extra`` overrides any of its parameters."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (have: {', '.join(sorted(PRESETS))})")
    preset = PRESETS[name]
    params = {**preset.params, **extra}
    return replace(build_family(preset.family_tag, params), preset=name)
