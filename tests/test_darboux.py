"""Transform core tests."""

import math

import pytest

from darboux2d.darboux import (
    R_coeffs,
    neg_log_field,
    potential_from_B,
    transform_solution,
    u_from_h,
)
from darboux2d.families import build_family, closed_potential
from darboux2d.harmonic import HarmonicPair, harmonic_basis
from darboux2d.polyrat import ONE, X, Y, ZERO, RatFn, laplacian


@pytest.fixture()
def b0():
    return build_family("B0", {"p0": 1, "q0": 0, "x0": 0, "y0": 0, "C": 1}).B


def test_R_coeffs_harmonic_example():
    B = RatFn.from_poly(X ** 2 - Y ** 2)
    R1, R2 = R_coeffs(B)
    r2 = X ** 2 + Y ** 2
    assert (R1 - RatFn(-Y, r2)).is_zero()
    assert (R2 - RatFn(X, r2)).is_zero()


def test_R_coeffs_rejects_constant():
    with pytest.raises(ValueError):
        R_coeffs(RatFn.from_poly(ONE))


def test_potential_from_B_b0(b0):
    u = potential_from_B(b0)
    u_closed = closed_potential("B0", {"x0": 0, "y0": 0, "C": 1}).u
    assert (u - u_closed).is_zero()
    with pytest.raises(ValueError):
        potential_from_B(RatFn.from_poly(ZERO))


def test_potential_from_B_negative_control_wrong_C(b0):
    # b0 has C = 1; the closed form for C = 2 is another potential
    u_wrong = closed_potential("B0", {"x0": 0, "y0": 0, "C": 2}).u
    assert not (potential_from_B(b0) - u_wrong).is_zero()


def test_transform_const_seed_gives_R2(b0):
    out = transform_solution(b0, HarmonicPair(Y=ZERO, Q=ONE))
    _, R2 = R_coeffs(b0)
    assert (out.Y_tilde - R2).is_zero()


def test_transform_satisfies_new_equation(b0):
    u = potential_from_B(b0)
    for pair in harmonic_basis(3):
        out = transform_solution(b0, pair)
        residual = laplacian(out.Y_tilde) - u * out.Y_tilde
        assert residual.is_zero()
        assert (out.W_tilde - b0 * out.Y_tilde).is_zero()


def test_neg_log_field_bridge(b0):
    u = potential_from_B(b0)
    u_num = u_from_h(*neg_log_field(b0))
    for x, y in ((1.0, 2.0), (0.5, 0.5), (2.0, -1.0)):
        # points chosen with B > 0 so h = -ln B exists there
        assert u_num(x, y) == pytest.approx(u.eval_float(x, y), abs=1e-10)


def test_neg_log_field_not_finite_at_zero_of_B(b0):
    u_num = u_from_h(*neg_log_field(b0))
    # B_0 vanishes on the y-axis
    assert not math.isfinite(u_num(0.0, 1.0))


def test_u_from_h_with_plain_closures():
    # h = x^2 + 3y^2: u = -8 + 4x^2 + 36y^2; the partials go in as
    # (h_x, h_y, h_xx, h_yy), and a swap of any two changes the value
    u = u_from_h(
        lambda x, y: 2 * x,
        lambda x, y: 6 * y,
        lambda x, y: 2.0,
        lambda x, y: 6.0,
    )
    assert u(1.0, 2.0) == pytest.approx(-8.0 + 4.0 + 36.0 * 4.0)


def test_neg_log_field_returns_the_partials_in_order(b0):
    # B_0 = x/(x^2 + y^2 + 1): h_x = -1/x + 2x/r, h_y = 2y/r with
    # r = x^2 + y^2 + 1, and h_xx = 1/x^2 + 2/r - 4x^2/r^2,
    # h_yy = 2/r - 4y^2/r^2
    x, y = 1.5, 0.5
    r = x * x + y * y + 1
    expected = (-1 / x + 2 * x / r, 2 * y / r,
                1 / x**2 + 2 / r - 4 * x * x / r**2, 2 / r - 4 * y * y / r**2)
    got = tuple(f(x, y) for f in neg_log_field(b0))
    assert got == pytest.approx(expected, rel=1e-12)
