"""Harmonic seed machinery tests."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux2d.families import PRESETS, _pole_B
from darboux2d.harmonic import (
    HarmonicPair,
    _nullspace,
    harmonic_basis,
    laplace_constrained_numerator,
)
from darboux2d.polyrat import ONE, X, Y, ZERO, laplacian
from darboux2d.verify import _family_instance

DATA = Path(__file__).parent / "data"


def test_harmonic_basis_low_degrees():
    pairs = harmonic_basis(3)
    assert pairs[0].Y == ONE and pairs[0].Q == ZERO
    assert pairs[1].Y == X and pairs[1].Q == Y
    assert pairs[2].Y == X ** 2 - Y ** 2 and pairs[2].Q == 2 * X * Y
    assert pairs[3].Y == X ** 3 - 3 * X * Y ** 2
    assert pairs[3].Q == 3 * X ** 2 * Y - Y ** 3
    # the extra constant pair closes the degree-zero kernel
    assert pairs[-1].Y == ZERO and pairs[-1].Q == ONE
    assert len(pairs) == 5


def test_harmonic_basis_pairs_validate():
    for pair in harmonic_basis(8):
        assert laplacian(pair.Y).is_zero()
        assert laplacian(pair.Q).is_zero()


def test_harmonic_pair_rejects_non_conjugate():
    with pytest.raises(ValueError):
        HarmonicPair(Y=X, Q=X)


def test_harmonic_basis_is_built_once_per_degree_and_shared_read_only():
    pairs = harmonic_basis(4)
    assert harmonic_basis(4) is pairs
    assert isinstance(pairs, tuple)
    # a longer basis is a new tuple whose pairs agree with the shorter one
    assert harmonic_basis(6)[:5] == pairs[:5]


def _pole_sum_reference(roots, residues):
    """|P|^2 Re sum c/(z - a)^k over ``residues`` [(root index, k, c)], expanded.

    ``roots`` are ((x_i, y_i), m_i) with P = prod (z - z_i)^m_i, and c is a
    Gaussian rational (re, im).  For k = 1 and c = p + iq the term is the
    dipole p (x - x_i) + q (y - y_i) times the other factors of |P|^2.
    """
    factors = [((X - x) ** 2 + (Y - y) ** 2) ** m for (x, y), m in roots]
    total = ZERO
    for i, k, (c_re, c_im) in residues:
        (x, y), m = roots[i]
        re, im = ONE, ZERO  # (z - z_i)^k
        for _ in range(k):
            re, im = re * (X - x) - im * (Y - y), re * (Y - y) + im * (X - x)
        # Re(c conj(w)) = Re(c) Re(w) + Im(c) Im(w)
        term = (c_re * re + c_im * im) * ((X - x) ** 2 + (Y - y) ** 2) ** (m - k)
        for j, factor in enumerate(factors):
            if j != i:
                term = term * factor
        total = total + term
    return total


def _dipole_sum(poles, weights):
    """Cleared numerator of sum_i (p_i (x - x_i) + q_i (y - y_i))/|z - z_i|^2."""
    return _pole_sum_reference([(pole, 1) for pole in poles],
                               [(i, 1, w) for i, w in enumerate(weights)])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cdiv(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    re, im = _cmul(a, (b[0], -b[1]))
    return (re / norm, im / norm)


def _dP(roots, i):
    """P'(z_i) at a simple root: prod_{j != i} (z_i - z_j)^m_j."""
    (xi, yi), _ = roots[i]
    out = (Fraction(1), Fraction(0))
    for j, ((xj, yj), mj) in enumerate(roots):
        if j != i:
            for _ in range(mj):
                out = _cmul(out, (xi - xj, yi - yj))
    return out


def test_pole_B_two_pole_example():
    # weight 1 at the origin forces -1 at z = 1: B = Re(-z(z - 1))/(|P|^2 + 1)
    B = _pole_B((((0, 0), 1), ((1, 0), 1)), {0: (1, 0)}, 1)
    assert B.num == -X ** 2 + Y ** 2 + X
    assert B.den == (X ** 2 + Y ** 2) * ((X - 1) ** 2 + Y ** 2) + 1
    assert B.num == _dipole_sum([(0, 0), (1, 0)], [(1, 0), (-1, 0)])


def test_pole_B_rejects_weights_that_fix_different_mu():
    roots = (((0, 0), 1), ((1, 0), 1))
    with pytest.raises(ArithmeticError, match="different multipliers mu"):
        _pole_B(roots, {0: (1, 0), 1: (0, 1)}, 1)
    with pytest.raises(ArithmeticError, match="different multipliers mu"):
        _pole_B(roots, {0: (1, 0), 1: (1, 0)}, 1)
    assert _pole_B(roots, {0: (1, 0), 1: (-1, 0)}, 1).num == -X ** 2 + Y ** 2 + X


def test_pole_B_numerator_is_harmonic():
    roots = (((0, 0), 1), ((1, 0), 1), ((0, Fraction(1, 2)), 1))
    B = _pole_B(roots, {2: (Fraction(2, 3), -1)}, 1)
    assert laplacian(B.num).is_zero()
    assert not laplacian(_dipole_sum([(0, 0), (1, 0), (0, Fraction(1, 2))],
                                     [(1, 0), (0, 1), (Fraction(2, 3), -1)])).is_zero()


def test_constrained_numerator_single_pole():
    basis = laplace_constrained_numerator([(Fraction(0), Fraction(0))])
    assert len(basis) == 2


def test_constrained_numerator_two_poles_dimension_and_structure():
    poles = [(Fraction(0), Fraction(0)), (Fraction(-8, 17), Fraction(-2, 17))]
    basis = laplace_constrained_numerator(poles)
    assert len(basis) == 2
    # the solution space couples the two weight pairs with opposite signs
    assert sorted(basis) == sorted(
        [
            (Fraction(1), Fraction(0), Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0), Fraction(-1)),
        ]
    )


def test_constrained_numerator_three_poles_dimension():
    poles = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    basis = laplace_constrained_numerator(poles)
    assert len(basis) == 2


def test_constrained_numerator_members_are_harmonic():
    poles = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(2)),
    ]
    for vec in laplace_constrained_numerator(poles):
        weights = [(vec[2 * i], vec[2 * i + 1]) for i in range(len(poles))]
        assert laplacian(_dipole_sum(poles, weights)).is_zero()


# weight bases recorded with an independent (fraction-free Bareiss)
# elimination; the canonical scaling makes each basis vector unique, so any
# correct elimination reproduces them exactly
_RECORDED_BASES = json.loads((DATA / "weight_bases.json").read_text())


def _fractions(rows) -> list:
    return [tuple(Fraction(v) for v in row) for row in rows]


def test_recorded_layouts_are_the_ones_the_program_uses():
    layouts = {name: _fractions(e["poles"]) for name, e in _RECORDED_BASES.items()}
    origin = (Fraction(0), Fraction(0))
    p = PRESETS["tsarev-2"].params
    assert layouts["tsarev-2"] == [origin, (p["x1"], p["y1"]), (p["x2"], p["y2"])]
    q = _family_instance("b2").params
    assert layouts["family-b2"] == [origin, (q["x1"], q["y1"]), (q["x2"], q["y2"])]
    # the three random pole sets of the seed-7 dim:b2 target (its first set
    # is the tsarev-2 layout)
    reports = json.loads((DATA / "exact_reports_seed7.json").read_text())
    drawn = [case["poles"] for case in reports["dim:b2"]["detail"]["cases"][1:]]
    assert [_RECORDED_BASES[f"dim-b2-{i}"]["poles"] for i in (1, 2, 3)] == drawn


@pytest.mark.parametrize("name", sorted(_RECORDED_BASES))
def test_weight_basis_matches_the_recorded_basis(name):
    entry = _RECORDED_BASES[name]
    basis = laplace_constrained_numerator(_fractions(entry["poles"]))
    assert basis == _fractions(entry["basis"])


_small = st.fractions(min_value=-20, max_value=20, max_denominator=20)
_digits13 = st.builds(Fraction, st.integers(-10**13, 10**13), st.integers(1, 10**13))


def _layouts(coord):
    return st.lists(st.tuples(coord, coord), min_size=1, max_size=3, unique=True)


@given(st.one_of(_layouts(_small), _layouts(_digits13)))
@settings(max_examples=40, deadline=None)
def test_weight_basis_is_canonical_and_harmonic(poles):
    basis = laplace_constrained_numerator(poles)
    assert len(basis) == 2
    for vec in basis:
        assert all(v.denominator == 1 for v in vec)
        assert math.gcd(*(int(v) for v in vec)) == 1
        assert next(v for v in vec if v) > 0
        weights = [(vec[2 * i], vec[2 * i + 1]) for i in range(len(poles))]
        assert laplacian(_dipole_sum(poles, weights)).is_zero()


_nonzero_pair = st.tuples(_small, _small).filter(lambda z: z != (0, 0))
# 1-3 distinct simple poles, or the confluent layout z^3 (z - z1)
_root_layouts = st.one_of(
    _layouts(_small).map(lambda poles: [(pole, 1) for pole in poles]),
    _nonzero_pair.map(lambda z1: [((Fraction(0), Fraction(0)), 3), (z1, 1)]),
)


def _differs(build, num, den) -> bool:
    """True if ``build()`` raises ArithmeticError or gives another B."""
    try:
        B = build()
    except ArithmeticError:
        return True
    return B.num != num or B.den != den


@given(_root_layouts, _nonzero_pair, st.fractions(min_value=Fraction(1, 20), max_value=20),
       st.data())
@settings(max_examples=40, deadline=None)
def test_pole_B_is_the_pole_sum_with_weights_from_mu(roots, weight, C, data):
    # partial fractions: conj(mu)/P = sum_i w_i/(z - z_i) over simple roots,
    # w_i = conj(mu)/P'(z_i); at the triple root of z^3 (z - z1) the
    # Laurent terms are -w1 z1^(3-k)/z^k, k = 1, 2, 3
    simple = [i for i, (_, m) in enumerate(roots) if m == 1]
    i0 = data.draw(st.sampled_from(simple))
    conj_mu = _cmul(weight, _dP(roots, i0))
    weights = {i: _cdiv(conj_mu, _dP(roots, i)) for i in simple}
    assert weights[i0] == weight
    residues = [(i, 1, w) for i, w in weights.items()]
    if len(roots) == 2 and roots[0][1] == 3:
        w1, z1 = weights[1], roots[1][0]
        residues += [(0, 1, (-w1[0], -w1[1])), (0, 2, _cmul(w1, (-z1[0], -z1[1]))),
                     (0, 3, _cmul(w1, _cmul((-z1[0], -z1[1]), z1)))]
    num = _pole_sum_reference(roots, residues)
    den = ONE
    for (x, y), m in roots:
        den = den * ((X - x) ** 2 + (Y - y) ** 2) ** m
    den = den + C

    for given_weights in ({i0: weight}, weights):
        B = _pole_B(roots, given_weights, C)
        assert B.num == num and B.den == den

    # negative controls: a shifted root, C + 1, one weight times i
    (x, y), m = roots[-1]
    shifted = [*roots[:-1], ((x + Fraction(1, 1000), y), m)]
    assert _differs(lambda: _pole_B(shifted, {i0: weight}, C), num, den)
    assert _differs(lambda: _pole_B(roots, {i0: weight}, C + 1), num, den)
    rotated = {**weights, i0: (-weight[1], weight[0])}
    assert _differs(lambda: _pole_B(roots, rotated, C), num, den)


def test_nullspace_without_rows_is_the_unit_vectors():
    assert _nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nullspace_ignores_zero_and_repeated_rows():
    rows = [[Fraction(1), Fraction(2), Fraction(-1)],
            [Fraction(0), Fraction(3), Fraction(1, 2)]]
    # x + 2y - z = 0 and 3y + z/2 = 0
    assert _nullspace(rows, 3) == [(8, -1, 6)]
    zero = [Fraction(0)] * 3
    assert _nullspace([*rows, zero], 3) == [(8, -1, 6)]
    assert _nullspace([zero, rows[1], rows[0], rows[1]], 3) == [(8, -1, 6)]
