"""Harmonic seed machinery tests."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux2d.families import PRESETS
from darboux2d.harmonic import (
    HarmonicPair,
    PoleConfig,
    _nullspace,
    conjugate,
    harmonic_basis,
    laplace_constrained_numerator,
    pole_sum,
)
from darboux2d.polyrat import (
    ONE,
    X,
    Y,
    ZERO,
    RatFn,
    laplacian_poly,
    laplacian_ratfn,
)
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
        assert laplacian_poly(pair.Y).is_zero()
        assert laplacian_poly(pair.Q).is_zero()


def test_harmonic_pair_rejects_non_conjugate():
    with pytest.raises(ValueError):
        HarmonicPair(Y=X, Q=X)


def test_conjugate_of_basis():
    pairs = harmonic_basis(6)
    for k in range(7):
        assert conjugate(pairs[k].Y) == pairs[k].Q


def test_conjugate_rejects_non_harmonic():
    with pytest.raises(ValueError):
        conjugate(X ** 2)


def test_double_conjugate_identity():
    # conjugating twice rotates by pi/2 twice: -Y up to the constant
    for pair in harmonic_basis(5):
        Yp = pair.Y
        twice = conjugate(conjugate(Yp))
        assert twice == -Yp + Yp.eval(0, 0)


def test_pole_config_validation():
    with pytest.raises(ValueError):
        PoleConfig(poles=[(0, 0), (0, 0)], weights=[(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        PoleConfig(poles=[(0, 0)], weights=[(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        PoleConfig(poles=[], weights=[])


def test_pole_sum_two_pole_example():
    cfg = PoleConfig(poles=[(0, 0), (1, 0)], weights=[(1, 0), (0, 1)])
    N, M = pole_sum(cfg)
    shifted = (X - 1) ** 2 + Y ** 2
    assert N == X * shifted + Y * (X ** 2 + Y ** 2)
    assert M == (X ** 2 + Y ** 2) * shifted


def test_pole_sum_is_harmonic():
    cfg = PoleConfig(
        poles=[(0, 0), (1, 0), (0, Fraction(1, 2))],
        weights=[(1, 0), (0, 1), (Fraction(2, 3), -1)],
    )
    N, M = pole_sum(cfg)
    assert laplacian_ratfn(RatFn(N, M)).is_zero()


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
        cfg = PoleConfig(poles=poles, weights=weights)
        N, _ = pole_sum(cfg)
        assert laplacian_poly(N).is_zero()


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
        N, _ = pole_sum(PoleConfig(poles=poles, weights=weights))
        assert laplacian_poly(N).is_zero()


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
