"""Harmonic seed machinery tests."""

from fractions import Fraction

import pytest

from darboux2d.harmonic import (
    HarmonicPair,
    PoleConfig,
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
