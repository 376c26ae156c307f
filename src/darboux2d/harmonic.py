"""Harmonic seed machinery.

Seeds for the transform are pairs (Y, Q) solving the first-order system

    Y_x - Q_y = 0,    Y_y + Q_x = 0,

i.e. Q is the harmonic conjugate of Y (both components are then harmonic).
This module builds the polynomial seed basis (Re z^k, Im z^k), whose pairs
are conjugate by construction, and solves for the weights of the dipole
pole sums

    S_n = sum_i (p_i (x - x_i) + q_i (y - y_i)) / ((x - x_i)^2 + (y - y_i)^2)
        = N_n / M_n

whose cleared numerators N_n are harmonic.  The harmonicity constraint is an
exact rational linear system in the weights (p_i, q_i); its solution space is
computed by exact row reduction and returned as a canonically scaled basis.
The family builders construct B from the pole polynomial instead (see
`families`); this basis fixes B2's weight coordinates and the `dim:*`
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

from darboux2d.polyrat import (
    ONE,
    X,
    Y,
    ZERO,
    BiPoly,
    Scalar,
    as_fraction,
    laplacian,
)

@dataclass(frozen=True)
class HarmonicPair:
    """A seed pair (Y, Q) with Y_x = Q_y and Y_y = -Q_x, checked exactly."""

    Y: BiPoly
    Q: BiPoly

    def __post_init__(self):
        r1 = self.Y.diff("x") - self.Q.diff("y")
        r2 = self.Y.diff("y") + self.Q.diff("x")
        if not (r1.is_zero() and r2.is_zero()):
            raise ValueError("pair does not satisfy the conjugate system")


@lru_cache(maxsize=None)
def harmonic_basis(max_degree: int) -> tuple[HarmonicPair, ...]:
    """Seed pairs (Re z^k, Im z^k) for k = 0..max_degree, plus (0, 1).

    The final (0, 1) pair is the pure-nonlocal seed: Y = 0 with constant
    potential variable, which the conjugate normalization Q(0,0) = 0 can
    never produce.  Each degree is built and checked once per process; the
    pairs are shared, so they come back as a tuple.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    pairs = []
    re_part, im_part = ONE, ZERO
    for _ in range(max_degree + 1):
        pairs.append(HarmonicPair(re_part, im_part))
        re_part, im_part = re_part * X - im_part * Y, re_part * Y + im_part * X
    pairs.append(HarmonicPair(ZERO, ONE))
    return tuple(pairs)


def laplace_constrained_numerator(
    poles: Sequence[tuple[Scalar, Scalar]],
) -> list[tuple[Fraction, ...]]:
    """Basis of weight vectors (p_0, q_0, ..., p_n, q_n) making N_n harmonic.

    The Laplacian of N_n is linear in the weights, so harmonicity is an exact
    homogeneous linear system over Q: one equation per monomial of the
    expanded Laplacian.  The nullspace is computed by exact row reduction and
    returned as integer-coordinate vectors with content 1, first nonzero entry
    positive, in free-variable order.  An empty list means only the trivial
    weight vector works for this pole layout.
    """
    pts = [(as_fraction(a), as_fraction(b)) for a, b in poles]
    if len(set(pts)) != len(pts):
        raise ValueError("poles must be pairwise distinct")
    n_unknowns = 2 * len(pts)

    # the p_i and q_i columns share the product of the other poles' factors
    factors = [(X - xi) ** 2 + (Y - yi) ** 2 for xi, yi in pts]
    columns: list[BiPoly] = []
    for i, (xi, yi) in enumerate(pts):
        others = ONE
        for j, factor in enumerate(factors):
            if j != i:
                others = others * factor
        columns += [laplacian((X - xi) * others), laplacian((Y - yi) * others)]

    monomials = sorted(set().union(*(col.terms.keys() for col in columns)))
    rows = [[col.coeff(*mono) for col in columns] for mono in monomials]
    return _nullspace(rows, n_unknowns)


def _nullspace(rows: list[list[Fraction]], n_cols: int) -> list[tuple[Fraction, ...]]:
    """Nullspace basis by exact (Gauss-Jordan) row reduction over Q.

    Free column f gives the unique vector with 1 at f, 0 at the other free
    columns and -R[k][f] at the pivot column of reduced row k, scaled to
    integers with content 1 and first nonzero entry positive.
    """
    mat = [[Fraction(v) for v in row] for row in rows]
    pivot_cols: list[int] = []
    for col in range(n_cols):
        rank = len(pivot_cols)
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        mat[rank] = [v / pivot for v in mat[rank]]
        for r, row in enumerate(mat):
            if r != rank and row[col]:
                mat[r] = [a - row[col] * b for a, b in zip(row, mat[rank])]
        pivot_cols.append(col)

    basis: list[tuple[Fraction, ...]] = []
    for free in (c for c in range(n_cols) if c not in pivot_cols):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, col in zip(mat, pivot_cols):
            vec[col] = -row[free]
        scale = math.lcm(*(v.denominator for v in vec))
        ints = [int(v * scale) for v in vec]
        lead = next(v for v in ints if v)
        content = math.gcd(*ints) if lead > 0 else -math.gcd(*ints)
        basis.append(tuple(Fraction(v // content) for v in ints))
    return basis
