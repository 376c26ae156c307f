"""Family builder tests."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from darboux2d import families
from darboux2d.darboux import R_coeffs, potential_from_B
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
from darboux2d.polyrat import ONE, X, Y, ZERO, RatFn, laplacian
from darboux2d.verify import _draw_params, _family_instance


def test_b0_canonical_instance():
    B = build_family("B0", {"p0": 1, "q0": 0, "x0": 0, "y0": 0, "C": 1}).B
    expected = RatFn(X, X ** 2 + Y ** 2 + 1)
    assert (B - expected).is_zero()
    assert laplacian(B.num).is_zero()


def test_b0_closed_potential_origin():
    for C in (1, Fraction(3, 2), 7):
        u = closed_potential("B0", {"x0": 0, "y0": 0, "C": C}).u
        assert u.eval(0, 0) == Fraction(-8) / C


def test_b0_pipeline_matches_closed_form():
    params = {"p0": 2, "q0": Fraction(-1, 3), "x0": Fraction(1, 2), "y0": -1, "C": 5}
    sol = build_family("B0", params)
    u_pipe = potential_from_B(sol.B)
    u_closed = closed_potential("B0", {"x0": params["x0"], "y0": params["y0"],
                                       "C": params["C"]}).u
    assert (u_pipe - u_closed).is_zero()


def test_b1_pipeline_matches_closed_form():
    params = dict(PRESETS["tsarev-1"].params)
    sol = build_family("B1", params)
    u_pipe = potential_from_B(sol.B)
    u_closed = closed_potential(
        "B1", {k: params[k] for k in ("x0", "y0", "x1", "y1", "C")}
    ).u
    assert (u_pipe - u_closed).is_zero()
    assert u_closed.eval(0, 0) == Fraction(-1, 5)


def test_b1_numerators_are_harmonic():
    params = {"p0": 3, "q0": Fraction(1, 2), "x0": 0, "y0": 0, "x1": 1, "y1": -1,
              "C": Fraction(7, 3)}
    B = build_family("B1", params).B
    assert laplacian(B.num).is_zero()


def test_b1_coincident_poles_rejected():
    with pytest.raises(ValueError):
        build_family("B1", {"p0": 1, "q0": 0, "x0": 1, "y0": 2, "x1": 1, "y1": 2, "C": 1})


def test_b2_weight_choice_does_not_move_potential():
    kw = dict(x1=1, y1=0, x2=0, y2=1, C=1)
    a = build_family("B2", {**kw, "weights_choice": (1, 0)}).B
    b = build_family("B2", {**kw, "weights_choice": (Fraction(1, 3), Fraction(5, 2))}).B
    ua = potential_from_B(a)
    ub = potential_from_B(b)
    assert (ua - ub).is_zero()
    u_closed = closed_potential("B2", kw).u
    assert (ua - u_closed).is_zero()


def test_b2_constants_recorded():
    u = closed_potential("B2", {"x1": 1, "y1": 0, "x2": 0, "y2": 1, "C": 1})
    assert set(u.constants) == {"k1", "k2", "k3", "k4", "k5", "k6"}
    assert u.constants["k1"] == 1  # x1 + x2
    assert u.constants["k5"] == 1  # x1*y2


def test_b3_origin_potential_vanishes():
    u = closed_potential("B3", {"x1": 1, "y1": 1, "C": 1}).u
    assert u.eval(0, 0) == 0


def test_b3_pipeline_matches_closed_form():
    u_pipe = potential_from_B(build_family("B3", DEFAULT_PARAMS["B3"]).B)
    closed = closed_potential("B3", {"x1": 1, "y1": 1, "C": 1})
    assert (u_pipe - closed.u).is_zero()
    assert set(closed.constants) == {"m1", "m2", "m3", "m4"}


def test_b3_rejects_origin_second_pole():
    with pytest.raises(ValueError):
        build_family("B3", {**DEFAULT_PARAMS["B3"], "x1": 0, "y1": 0})


@pytest.mark.parametrize("tag, change, message", [
    pytest.param("B1", {"x1": 0, "y1": 0}, "poles must be pairwise distinct",
                 id="B1-coincident"),
    pytest.param("B2", {"x1": 0, "y1": 0}, "poles must be pairwise distinct",
                 id="B2-origin"),
    pytest.param("B3", {"x1": 0, "y1": 0}, "poles must be pairwise distinct",
                 id="B3-origin"),
    *(pytest.param(tag, {"C": C}, f"C must be positive, got {C}", id=f"{tag}-C{C}")
      for tag in ("B0", "B1", "B2", "B3") for C in (0, -1)),
])
def test_build_and_both_closed_forms_share_one_parameter_check(tag, change, message):
    params = {**DEFAULT_PARAMS[tag], **change}
    for route in (build_family, closed_potential, closed_R):
        with pytest.raises(ValueError) as info:
            route(tag, params)
        assert str(info.value) == message


def test_family_tags_and_dispatch():
    assert FAMILY_KEYS == {"b0": "B0", "b1": "B1", "b2": "B2", "b3": "B3"}
    with pytest.raises(ValueError):
        build_family("B9", {})
    for tag in ("B0", "B1", "B2", "B3"):
        sol = build_family(tag, DEFAULT_PARAMS[tag])
        assert sol.family_tag == tag
        assert sol.params == DEFAULT_PARAMS[tag]
        assert sol.preset is None


def test_tanh_solution_validation():
    for C1, C2 in [
        (0, 0),
        (1e-200, 0.0),  # C1^2 underflows to 0
        (1e-160, 0.0),  # C1^2 is subnormal and 2/C1^2 overflows
        (math.inf, 0.0),
        (math.nan, 0.0),
        (1.0, math.inf),
        (1.0, -math.inf),
    ]:
        with pytest.raises(ValueError):
            build_tanh(C1, C2)


def test_tanh_closures_take_arrays():
    C1, C2 = 1.5, 0.25
    B_s, u = build_tanh(C1, C2)
    xs = np.linspace(-3.0, 3.0, 61)
    ys = np.linspace(-2.0, 2.0, 41)[:, None]
    B_grid, u_grid = B_s(xs, ys), u(xs, ys)
    assert B_grid.shape == u_grid.shape == (41, 61)
    for i, y in enumerate(ys[:, 0]):
        for j, x in enumerate(xs):
            t = (x * y - C2) / C1
            assert B_grid[i, j] == pytest.approx(math.tanh(t), rel=1e-15, abs=1e-15)
            u_closed = -2.0 / C1**2 * (x * x + y * y) / math.cosh(t) ** 2
            assert u_grid[i, j] == pytest.approx(u_closed, rel=1e-15, abs=1e-15)


def test_tanh_values_and_overflow_safety():
    B_s, u = build_tanh(1, 0)
    assert B_s(1.0, 1.0) == pytest.approx(math.tanh(1.0))
    # frozen spot value: u(1,1) = -4 / cosh(1)^2
    assert u(1.0, 1.0) == pytest.approx(-4.0 / math.cosh(1.0) ** 2, abs=1e-15)
    assert u(1.0, 1.0) == pytest.approx(-1.6798973664561043, abs=1e-12)
    # far from the origin both closures stay finite
    assert B_s(-50.0, 50.0) == -1.0
    assert u(1000.0, 1000.0) == 0.0
    assert math.isfinite(u(30.0, 30.0))
    # inf * 0 past float range is nan, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(u(1e200, 1.0))


def test_tanh_potential_scaling():
    _, u2 = build_tanh(2, 0)
    # at the zero set of the argument, u = -2 C1^-2 (x^2 + y^2)
    assert u2(2.0, 0.0) == pytest.approx(-2.0 / 4.0 * 4.0)


def test_presets():
    t1 = build_preset("tsarev-1")
    assert t1.preset == "tsarev-1"
    assert t1.family_tag == "B1"
    assert t1.params["C"] == Fraction(160, 17)
    t2 = build_preset("tsarev-2")
    assert t2.family_tag == "B2"
    with pytest.raises(ValueError):
        build_preset("tsarev-3")


def test_preset_override_reaches_the_closed_potential():
    sol = build_preset("tsarev-1", C=3)
    assert sol.preset == "tsarev-1"
    assert sol.params == {**PRESETS["tsarev-1"].params, "C": 3}
    u = closed_potential(sol.family_tag, sol.params).u
    assert (potential_from_B(sol.B) - u).is_zero()
    # u1(0,0) = -32 C |midpoint|^2 / C^2 = -32/(17 C); the preset's C gives -1/5
    assert u.eval(0, 0) == Fraction(-32, 51)


def test_tsarev2_rationalization_tracks_surds():
    exact = PRESETS["tsarev-2"].params
    floats = PRESETS["tsarev-2"].params_float
    for key in ("x1", "y1", "x2", "y2"):
        assert abs(float(exact[key]) - floats[key]) < 1e-12
    t = math.sqrt(788 + math.sqrt(1252969))
    assert floats["x1"] == pytest.approx(-1 / 80 - t / 80)
    assert floats["y2"] == pytest.approx((159 + t) / (16 * t))


_real_pole_B = families._pole_B


def _turned_last_weight(roots, weights, C):
    *_, last = weights
    p, q = weights[last]
    return _real_pole_B(roots, {**weights, last: (-q, p)}, C)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: build_family("B0", DEFAULT_PARAMS["B0"]), "one-pole numerator"),
        (lambda: build_family("B1", DEFAULT_PARAMS["B1"]), "two-pole numerator"),
        (lambda: build_family("B2", DEFAULT_PARAMS["B2"]), "not harmonic"),
        (lambda: build_family("B3", DEFAULT_PARAMS["B3"]), "confluent numerator"),
    ],
)
def test_builder_guards_raise_on_bad_numerator(monkeypatch, build, message):
    # explicit raises, not asserts, so the checks also run under -O; turning
    # the last given weight by i moves mu, so B0, B1 and B3 miss their
    # explicit numerators and B2's three weights stop fixing one mu
    monkeypatch.setattr(families, "_pole_B", _turned_last_weight)
    with pytest.raises(ArithmeticError, match=message):
        build()


def test_build_family_rejects_keys_its_builder_does_not_take():
    with pytest.raises(ValueError, match="unknown parameter 'x2'"):
        build_family("B0", {**DEFAULT_PARAMS["B0"], "x2": 5})
    with pytest.raises(ValueError, match="unknown parameter 'weights_choice'"):
        build_preset("tsarev-1", weights_choice=(1, 0))
    assert build_family("B2", {**DEFAULT_PARAMS["B2"], "weights_choice": (0, 1)}).B


def test_closed_potential_shares_the_pipeline_denominator():
    # the closed form keeps M + C as one factor squared, so its residual
    # against lap(B)/B has denominator B.den^2 * B.num, not a cross product
    for tag, degree in (("B0", 5), ("B1", 10), ("B2", 15), ("B3", 20)):
        params = DEFAULT_PARAMS[tag]
        u = closed_potential(tag, params).u
        assert [e for _, e in u.factors] == [-2]
        residual = potential_from_B(build_family(tag, params).B) - u
        assert residual.is_zero()
        assert sum(-e * f.total_degree() for f, e in residual.factors if e < 0) == degree


def _R_differs(R, B) -> bool:
    return not all((r - r_B).is_zero() for r, r_B in zip(R, R_coeffs(B)))


@pytest.mark.parametrize("key", sorted(FAMILY_KEYS))
def test_closed_R_is_the_papers_R_on_the_suite_instance(key):
    sol = _family_instance(key)
    params = sol.params
    assert not _R_differs(closed_R(sol.family_tag, params), sol.B)

    # negative controls: the last root moved by 1/1000, C + 1
    (x_key, _), _ = families._ROOT_LAYOUT[sol.family_tag][-1]
    shifted = {**params, x_key: Fraction(params[x_key]) + Fraction(1, 1000)}
    assert _R_differs(closed_R(sol.family_tag, shifted), sol.B)
    lifted = {**params, "C": Fraction(params["C"]) + 1}
    assert _R_differs(closed_R(sol.family_tag, lifted), sol.B)


@pytest.mark.parametrize("tag", sorted(FAMILY_KEYS.values()))
def test_closed_R_is_the_papers_R_on_seeded_draws(tag):
    rng = random.Random(f"closed-R:{tag}")
    for _ in range(3):
        params = _draw_params(tag, rng)
        assert not _R_differs(closed_R(tag, params), build_family(tag, params).B)


def _cmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _cquotient(n, m):
    """(Re, Im) of n/m for (Re, Im) pairs of polynomials."""
    top = _cmul(n, (m[0], -m[1]))
    den = m[0] * m[0] + m[1] * m[1]
    return RatFn(top[0], den), RatFn(top[1], den)


@pytest.mark.parametrize("key", ["b1", "b2", "b3"])
def test_closed_R_splits_into_its_two_pole_terms(key):
    # P multiplied out as (Re, Im) in x and y; a holomorphic P has P' = P_x
    sol = _family_instance(key)
    P = (ONE, ZERO)
    for (x, y), m in families._roots(sol.family_tag, sol.params):
        for _ in range(m):
            P = _cmul(P, (X - x, Y - y))
    dP = (P[0].diff("x"), P[1].diff("x"))
    ddP = (dP[0].diff("x"), dP[1].diff("x"))
    re_q, im_q = _cquotient(ddP, dP)
    R1, R2 = closed_R(sol.family_tag, sol.params)
    # R2 + i R1 - P''/P' = -2 P' conj(P)/D
    top = _cmul(dP, (P[0], -P[1]))
    D = sol.B.den
    assert (R2 - re_q - RatFn(-2 * top[0], D)).is_zero()
    assert (R1 - im_q - RatFn(-2 * top[1], D)).is_zero()
    # negative control: the P''/P' term dropped
    assert _R_differs((R1 - im_q, R2 - re_q), sol.B)
