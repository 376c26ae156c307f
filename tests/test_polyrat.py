"""Exact polynomial / rational-function kernel tests."""

import math
import operator
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from darboux2d import polyrat
from darboux2d.polyrat import (
    ONE,
    X,
    Y,
    ZERO,
    BiPoly,
    ExponentCapError,
    PoleEvaluationError,
    RatFn,
    _convolution_pays,
    _extent,
    _limb_plan,
    _mul_int64,
    _mul_schoolbook,
    as_fraction,
    laplacian,
    over_one_denominator,
    poly_to_str,
    ratfn_is_zero,
    ratfn_to_str,
)


def test_as_fraction_accepts_ints_fractions_and_strings():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction("-5/9") == Fraction(-5, 9)
    assert as_fraction("4") == Fraction(4)


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_zero_terms_are_dropped():
    p = BiPoly({(0, 0): 1}) - 1
    assert p.is_zero()
    assert p.n_terms == 0
    assert (X - X).is_zero()


def test_basic_ring_identities():
    p = X * X - Y * Y
    q = X + Y
    assert p == (X - Y) * q
    assert p - p == ZERO
    assert p * ONE == p
    assert p * ZERO == ZERO
    assert (X + 1) ** 2 == X * X + 2 * X + 1


def test_degrees_and_coeffs():
    p = 3 * X ** 2 * Y - Fraction(1, 2)
    assert p.total_degree() == 3
    assert p.degree("x") == 2
    assert p.degree("y") == 1
    assert p.coeff(2, 1) == 3
    assert p.coeff(0, 0) == Fraction(-1, 2)
    assert p.coeff(5, 5) == 0


def test_diff_and_laplacian():
    p = X ** 3 * Y + Y ** 2
    assert p.diff("x") == 3 * X ** 2 * Y
    assert p.diff("y") == X ** 3 + 2 * Y
    assert laplacian(p) == 6 * X * Y + 2
    # harmonic polynomial
    assert laplacian(X ** 3 - 3 * X * Y ** 2).is_zero()


def test_poly_eval_exact_and_float():
    p = X ** 2 + Fraction(1, 3) * Y
    assert p.eval(Fraction(1, 2), 3) == Fraction(5, 4)
    assert p.eval_float(0.5, 3.0) == pytest.approx(1.25)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def test_eval_float_does_not_depend_on_insertion_order():
    terms = {(0, 0): 1, (2, 0): 1, (0, 2): -1}
    p, q = BiPoly(terms), BiPoly(dict(reversed(terms.items())))
    assert p == q and list(p.terms) != list(q.terms)
    d = X ** 2 + 3 * Y ** 2 + 1
    e = BiPoly(dict(reversed(d.terms.items())))
    f, g = RatFn(p, d) / d, RatFn(q, e) / e
    # at x = y = 1e8 the 1 survives only if it is added after x^2 - y^2
    row = np.linspace(0.5e8, 1.5e8, 41)
    for x in (1e8, row):
        assert _bits(p.eval_float(x, 1e8)) == _bits(q.eval_float(x, 1e8))
        assert _bits(f.eval_float(x, 1e8)) == _bits(g.eval_float(x, 1e8))


def test_exponent_cap_raises(monkeypatch):
    monkeypatch.setenv("DARBOUX_EXP_CAP", "8")
    with pytest.raises(ExponentCapError):
        (X ** 5) * (X ** 4)
    monkeypatch.delenv("DARBOUX_EXP_CAP")
    assert (X ** 5) * (X ** 4) == X ** 9


def test_poly_text_round_trip():
    p = Fraction(3, 2) * X ** 2 * Y - X + Fraction(5, 7)
    text = poly_to_str(p)
    assert text == "3/2*x^2*y - x + 5/7"
    assert poly_to_str(ZERO) == "0"


def test_poly_text_graded_lex_order():
    p = X + Y ** 3 + X * Y
    assert poly_to_str(p) == "y^3 + x*y + x"


def test_ratfn_construction_and_zero_den_rejected():
    f = RatFn(X, Y)
    assert f.num == X and f.den == Y
    with pytest.raises(ZeroDivisionError):
        RatFn(X, 0)


def test_ratfn_arithmetic_is_extensional():
    f = RatFn(X, Y)
    g = RatFn(X * Y, Y * Y)  # same value, different representative
    assert f == g
    assert (f - g).is_zero()


def test_ratfn_same_denominator_fast_path():
    den = X ** 2 + Y ** 2 + 1
    f = RatFn(X, den)
    g = RatFn(Y, den)
    s = f + g
    assert s.den == den  # no cross-multiplication
    assert s.num == X + Y


def test_ratfn_diff_quotient_rule():
    f = RatFn(X, X ** 2 + Y ** 2)
    fx = f.diff("x")
    # d/dx [x/(x^2+y^2)] = (y^2 - x^2)/(x^2+y^2)^2
    expected = RatFn(Y ** 2 - X ** 2, (X ** 2 + Y ** 2) ** 2)
    assert (fx - expected).is_zero()
    assert fx.eval(1, 2) == Fraction(3, 25)


def test_ratfn_eval_pole_and_float_nan():
    f = RatFn(ONE, X)
    with pytest.raises(PoleEvaluationError):
        f.eval(0, 5)
    assert math.isnan(f.eval_float(0.0, 5.0))
    assert f.eval_float(2.0, 0.0) == 0.5


def test_ratfn_text_round_trip():
    f = RatFn(X ** 2 - Y, 2 * X * Y + 3)
    text = ratfn_to_str(f)
    assert text == "(x^2 - y)/(2*x*y + 3)"
    assert ratfn_to_str(RatFn.from_poly(X + 1)) == "x + 1"


def test_functional_wrappers_match_methods():
    p = (X + Y) * (X - Y) * X
    assert laplacian(p) == p.diff("x").diff("x") + p.diff("y").diff("y")
    f, g = RatFn(X, Y), RatFn(Y, X)
    assert ratfn_is_zero(f * g - 1)
    assert ratfn_is_zero(f / g - f * f)
    assert not ratfn_is_zero(f - g)
    assert f.eval(3, 4) == Fraction(3, 4)
    assert f.eval_float(3.0, 4.0) == 0.75


def test_laplacian_ratfn_matches_double_diff():
    f = RatFn(X, X ** 2 + Y ** 2 + 1)
    direct = f.diff("x").diff("x") + f.diff("y").diff("y")
    assert (laplacian(f) - direct).is_zero()


def test_ratfn_keeps_the_objects_it_was_built_from():
    num, den = X + Y, X ** 2 + Y ** 2 + 1
    f = RatFn(num, den)
    assert f.num is num and f.den is den
    assert RatFn(num).den == ONE


def test_ratfn_exponents_cancel_to_zero():
    den = X ** 2 + Y ** 2 + 1
    f = RatFn(X, den)
    # den's exponents cancel; only the divisor's polynomial X is left
    assert (f / f).den == X and f / f == 1
    # a divisor's denominator goes to the numerator at once, so a later
    # product does not cancel it: den stays on both sides
    inverse = RatFn(1) / f
    assert inverse.num == den and inverse.factors == ((X, -1),)
    one = f * inverse
    assert one.num == X * den and one.den == den * X and one == 1
    assert ((f * f) / f).den == den * X
    assert (f.diff("x") / (f * f)).den == X * X
    # no reflected subtraction or division: a scalar on the left is an error
    with pytest.raises(TypeError):
        1 / f
    with pytest.raises(TypeError):
        1 - f


# -- property tests ---------------------------------------------------------

_coeffs = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=6
)


@st.composite
def polys(draw, max_terms=5, max_exp=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=max_exp))
        j = draw(st.integers(min_value=0, max_value=max_exp))
        terms[(i, j)] = draw(_coeffs)
    return BiPoly(terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_product_rule(p, q):
    assert (p * q).diff("x") == p.diff("x") * q + p * q.diff("x")


def _eval_text(text: str, x: Fraction, y: Fraction) -> Fraction:
    """Read rendered polynomial text as exact arithmetic at (x, y)."""
    source = re.sub(r"(\d+)/(\d+)", r"Fraction(\1, \2)", text).replace("^", "**")
    return eval(source, {"Fraction": Fraction, "x": x, "y": y})


@given(polys(), st.fractions(max_denominator=5), st.fractions(max_denominator=5))
@settings(max_examples=60, deadline=None)
def test_rendered_text_evaluates_to_the_polynomial(p, a, b):
    assert _eval_text(poly_to_str(p), a, b) == p.eval(a, b)


@given(polys(), st.fractions(max_denominator=5), st.fractions(max_denominator=5))
@settings(max_examples=60, deadline=None)
def test_eval_is_a_homomorphism(p, a, b):
    q = p * p - 3 * p
    assert q.eval(a, b) == p.eval(a, b) ** 2 - 3 * p.eval(a, b)


def _fractions(p: BiPoly) -> dict:
    """The coefficients of ``p`` as ``Fraction``s, keyed by exponent."""
    return {key: Fraction(c, p.denom) for key, c in p.terms.items()}


def _sum_terms(p: BiPoly, x: Fraction, y: Fraction) -> Fraction:
    """Oracle: the value of ``p`` as a plain Fraction sum over its terms."""
    return sum((c * x**i * y**j for (i, j), c in _fractions(p).items()), Fraction(0))


def _ratfn_by_terms(f: RatFn, x: Fraction, y: Fraction) -> Fraction:
    value = _sum_terms(f.num, x, y)
    for g, e in f.factors:
        value *= _sum_terms(g, x, y) ** e
    return value


# grid rows mix denominators: integers, small fractions, and the dyadics of
# floats (denominators up to 2^52)
_row_points = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
    st.floats(min_value=-20, max_value=20).map(Fraction),
)


@given(
    st.one_of(polys(), polys(max_exp=0), st.just(ZERO)),
    st.lists(_row_points, max_size=6),
    _row_points,
)
@settings(max_examples=40, deadline=None)
def test_row_eval_matches_a_term_by_term_sum(p, row, y):
    expected = [_sum_terms(p, Fraction(x), Fraction(y)) for x in row]
    nums, d = p.eval_row(*over_one_denominator(row), Fraction(y))
    assert [Fraction(n, d) for n in nums] == expected
    for x, v in zip(row, expected):
        value = p.eval(x, y)
        assert type(value) is Fraction and value == v
        assert p.eval(x, str(Fraction(y))) == v  # "p/q" text for y


@given(
    polys(max_terms=3, max_exp=2),
    polys(max_terms=3, max_exp=2),
    st.lists(_row_points, max_size=4),
    _row_points,
)
@settings(max_examples=40, deadline=None)
def test_ratfn_row_eval_matches_a_term_by_term_quotient(p, q, row, y):
    den = q * q + Y * Y + 1  # at least 1 at every rational point
    # one factor squared, one from the divisor's numerator; the divisor's
    # denominator X^2 + 2 is multiplied into the numerator
    f = RatFn(p, den) * RatFn(X - Y + 3, den) / RatFn(den + X * X, X * X + 2)
    assert sorted(e for _, e in f.factors) == [-2, -1]
    expected = [_ratfn_by_terms(f, Fraction(x), Fraction(y)) for x in row]
    nums, dens = f.eval_row(*over_one_denominator(row), Fraction(y))
    assert [Fraction(n, d) for n, d in zip(nums, dens)] == expected
    assert [f.eval(x, y) for x in row] == expected


def test_row_eval_through_a_pole_raises_and_floats_are_rejected():
    f = RatFn(ONE, X * X - Y)
    assert [f.eval(x, 9) for x in (-1, 2, Fraction(1, 3))] == [
        Fraction(-1, 8), Fraction(-1, 5), Fraction(-9, 80)
    ]
    # a pole first on the row, and last; the error names the first one
    for row, pole in (([3, -1, 2, -3], "3"), ([-1, 2, -3], "-3")):
        with pytest.raises(PoleEvaluationError, match=rf"at \({pole}, 9\)"):
            f.eval_row(*over_one_denominator(row), Fraction(9))
    with pytest.raises(PoleEvaluationError, match=r"at \(-3, 9\)"):
        f.eval(-3, 9)
    ps, q = over_one_denominator([Fraction(1, 2), Fraction(-3, 2), 0, Fraction(3, 2)])
    with pytest.raises(PoleEvaluationError, match=r"at \(-3/2, 9/4\)"):
        f.eval_row(ps, q, Fraction(9, 4))
    with pytest.raises(TypeError):
        over_one_denominator([1, 0.5])
    with pytest.raises(TypeError):
        (X + Y).eval(0.5, 2)
    with pytest.raises(TypeError):
        f.eval(Fraction(1, 2), 0.25)
    with pytest.raises(TypeError):  # a row is not a point
        (X + Y).eval([1, 2], 2)



# rows for the integer row evaluator: integers, coprime p/q, the dyadics of
# floats and zero, evaluated under a negative y
_mixed_rows = st.lists(st.one_of(_row_points, st.just(0)), max_size=8)
_negative_y = _row_points.filter(lambda v: v < 0)


@given(st.one_of(polys(), polys(max_exp=0), st.just(ZERO)), polys(max_terms=3, max_exp=2),
       _mixed_rows, _negative_y)
@settings(max_examples=60, deadline=None)
def test_integer_row_eval_matches_a_per_point_fraction_oracle(p, g, row, y):
    xs, y = [Fraction(x) for x in row], Fraction(y)
    ps, q = over_one_denominator(xs)
    assert q >= 1 and [Fraction(n, q) for n in ps] == xs
    nums, den = p.eval_row(ps, q, y)
    assert den > 0 and all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == [_sum_terms(p, x, y) for x in xs]
    # three factors, one negative everywhere, so denominators of either
    # sign; the divisor's denominator X^2 + 2 is multiplied into the numerator
    pos = g * g + Y * Y + 1
    f = RatFn(p, -pos) * RatFn(X - Y + 3, pos * pos) / RatFn(pos + X * X, X * X + 2)
    assert sorted(e for _, e in f.factors) == [-1, -1, -1]
    nums, dens = f.eval_row(ps, q, y)
    assert all(type(v) is int and v for v in dens)
    assert [Fraction(n, d) for n, d in zip(nums, dens)] == [
        _ratfn_by_terms(f, x, y) for x in xs
    ]


# -- factored rational functions --------------------------------------------
#
# The oracle is the textbook cross-multiplied fraction (n, d) with the
# quotient rule for derivatives.  Atoms share denominators, as the same
# object or as an equal copy, so that exponents add, lift and cancel.

_small_polys = polys(max_terms=3, max_exp=2)
_RATFN_STEPS = ("add", "sub", "mul", "div", "cancel", "dx", "dy")
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv}


def _oracle(op: str, a: tuple, b: tuple) -> tuple:
    (n1, d1), (n2, d2) = a, b
    if op == "add":
        return n1 * d2 + n2 * d1, d1 * d2
    if op == "sub":
        return n1 * d2 - n2 * d1, d1 * d2
    if op == "mul":
        return n1 * n2, d1 * d2
    if op == "div":
        return n1 * d2, d1 * n2
    if op == "cancel":  # (a * b) / b
        return n1 * n2 * d2, d1 * d2 * n2
    var = op[1]
    return n1.diff(var) * d1 - n1 * d1.diff(var), d1 * d1


def _apply(op: str, a: RatFn, b: RatFn) -> RatFn:
    if op == "cancel":
        return (a * b) / b
    if op in ("dx", "dy"):
        return a.diff(op[1])
    return _BINARY[op](a, b)


@st.composite
def ratfn_programs(draw):
    dens = [draw(_small_polys.filter(bool)) for _ in range(2)]
    atoms = []
    for _ in range(3):
        d = draw(st.sampled_from(dens))
        if draw(st.booleans()):
            d = BiPoly(_fractions(d))  # equal terms, another object
        atoms.append((draw(_small_polys), d))
    index = st.integers(min_value=0, max_value=7)
    steps = draw(st.lists(st.tuples(st.sampled_from(_RATFN_STEPS), index, index),
                          min_size=1, max_size=5))
    return atoms, steps


@given(ratfn_programs())
@settings(max_examples=150, deadline=None)
def test_ratfn_matches_quotient_rule_oracle(program):
    atoms, steps = program
    values = [RatFn(n, d) for n, d in atoms]
    oracles = list(atoms)
    for op, i, j in steps:
        i, j = i % len(values), j % len(values)
        if op in ("div", "cancel") and oracles[j][0].is_zero():
            with pytest.raises(ZeroDivisionError):
                _apply(op, values[i], values[j])
            continue
        got = _apply(op, values[i], values[j])
        assert all(e < 0 for _, e in got.factors)
        n, d = _oracle(op, oracles[i], oracles[j])
        assert (got.num * d - n * got.den).is_zero()
        assert got.is_zero() == n.is_zero()
        values.append(got)
        oracles.append((n, d))


# -- the derivative against the incremental quotient rule --------------------
#
# `RatFn.diff` meets `num` in two products, `num' Phi + num Psi`.  The
# oracle is the factor-by-factor quotient rule, `t_k = t_(k-1) f_k +
# e_k f_k' P_(k-1)` with `P_k = num f_1 ... f_k`.  Both build the same
# polynomial, so its canonical form is the same term for term, and the
# factors are the same objects with the same exponents.


def _incremental_diff(f: RatFn, var: str) -> RatFn:
    top, run = f.num.diff(var), f.num
    factors = []
    for g, e in f.factors:
        dg = g.diff(var)
        if dg.terms:
            top = top * g + run * (dg * e)
            run = run * g
            e -= 1
        if e:
            factors.append((g, e))
    return RatFn._of(top, factors)


def _assert_same_form(got: RatFn, want: RatFn) -> None:
    assert got.num.terms == want.num.terms and got.num.denom == want.num.denom
    assert len(got.factors) == len(want.factors)
    for (g, e), (h, k) in zip(got.factors, want.factors):
        assert g is h and e == k


def _in_one_variable(var: str):
    """Nonzero polynomials of degree at most 2 in ``var`` alone."""
    key = (lambda k: (k, 0)) if var == "x" else (lambda k: (0, k))
    coeffs = st.lists(_coeffs, min_size=1, max_size=3)
    return coeffs.map(lambda cs: BiPoly({key(k): c for k, c in enumerate(cs)})).filter(bool)


_factor_polys = {
    "xy": polys(max_terms=3, max_exp=2).filter(bool),
    "x": _in_one_variable("x"),
    "y": _in_one_variable("y"),
}


@st.composite
def factored_ratfns(draw):
    """0-4 factors with exponents in {-3, -2, -1}: general, in x alone, in
    y alone, an earlier factor object again, or an equal copy."""
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["xy", "x", "y", "same", "equal"][: 5 if factors else 3]))
        if kind in ("same", "equal"):
            g = draw(st.sampled_from([g for g, _ in factors]))
            g = g if kind == "same" else BiPoly(_fractions(g))
        else:
            g = draw(_factor_polys[kind])
        factors.append((g, draw(st.sampled_from([-3, -2, -1]))))
    return RatFn._of(draw(polys(max_terms=4, max_exp=3)), factors)


# one factor object twice, and a copy equal to it by value
_shared = X * X - 2 * X * Y + Y + 1
_repeated = ((_shared, -2), (Y * Y + 3, -1), (_shared, -1), (BiPoly(_fractions(_shared)), -1))


@given(factored_ratfns())
@example(RatFn._of(X * Y - 2, _repeated))
@settings(max_examples=100, deadline=None)
def test_diff_matches_the_incremental_quotient_rule(f):
    for var in ("x", "y"):
        _assert_same_form(f.diff(var), _incremental_diff(f, var))
    twice = [_incremental_diff(_incremental_diff(f, var), var) for var in ("x", "y")]
    _assert_same_form(laplacian(f), twice[0] + twice[1])


# -- the two multiply paths --------------------------------------------------
#
# Both src paths key terms by packed integers, so neither is an independent
# oracle for the other.  `_naive_product` (tuple keys, one dict update per
# pair of terms) is: the schoolbook and the int64 convolution, on one limb
# or many, must each return its nonzero terms.  Term order is free;
# `eval_float` sums in sorted key order.

_small_ints = st.integers(min_value=-9, max_value=9).filter(bool)
_huge_ints = st.builds(
    lambda magnitude, sign: sign * magnitude,
    st.integers(min_value=2**500, max_value=2**700),
    st.sampled_from([1, -1]),
)


@st.composite
def int_terms(draw, max_exp=12, max_terms=80):
    """Integer term dicts: one-term, sparse, or dense up to a total degree."""
    coeff = draw(st.sampled_from([_small_ints, _huge_ints, st.integers().filter(bool)]))
    shape = draw(st.sampled_from(["one", "sparse", "dense"]))
    if shape == "one":
        keys = [(draw(st.integers(0, max_exp)), draw(st.integers(0, max_exp)))]
    elif shape == "sparse":
        keys = draw(
            st.lists(
                st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
                min_size=1,
                max_size=max_terms,
                unique=True,
            )
        )
    else:
        d = draw(st.integers(0, max_exp))
        keys = [(i, s - i) for s in range(d + 1) for i in range(s + 1)]
        keys = draw(st.permutations(keys))
    return {key: draw(coeff) for key in keys}


@st.composite
def telescoping(draw):
    """(sum_i x^i) r(y) times (1 - x) t(y): every middle x-power cancels."""
    n = draw(st.integers(1, 20))
    r = draw(st.lists(st.integers(-(2**520), 2**520).filter(bool), min_size=1, max_size=8))
    t = draw(st.lists(_small_ints, min_size=1, max_size=8))
    outer = {(i, j): c for i in range(n + 1) for j, c in enumerate(r)}
    inner = {(0, l): c for l, c in enumerate(t)} | {(1, l): -c for l, c in enumerate(t)}
    return outer, inner


def _ordered(outer, inner):
    return (outer, inner) if len(outer) >= len(inner) else (inner, outer)


def _top(terms):
    """The largest coefficient magnitude."""
    return max(map(abs, terms.values()))


def _plan(outer, inner):
    return _limb_plan(_top(outer), _top(inner), len(inner))


def _pays(outer, inner):
    return _convolution_pays(
        outer, inner, _extent(outer), _extent(inner), _top(outer), _top(inner), _plan(outer, inner)
    )


def _int64(outer, inner, plan=None):
    plan = plan or _plan(outer, inner)
    return _mul_int64(outer, inner, _extent(outer), _extent(inner), plan)


def _schoolbook(outer, inner):
    return _mul_schoolbook(outer, inner, _extent(outer), _extent(inner))


def _one_limb(outer, inner):
    return _plan(outer, inner)[1:] == (1, 1)


def _naive_product(a: dict, b: dict) -> dict:
    """Oracle: the nonzero terms of the product, summed on ``(i, j)`` keys."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: val for key, val in out.items() if val}


def _assert_paths_agree(outer, inner):
    oracle = _naive_product(outer, inner)
    assert _schoolbook(outer, inner) == oracle
    assert _int64(outer, inner) == oracle


# every default phase but shrink (and explain, which needs it): shrinking
# 500-bit coefficients takes minutes once a kernel change breaks the products
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@given(int_terms(), int_terms())
@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
def test_dense_path_matches_schoolbook(a, b):
    _assert_paths_agree(*_ordered(a, b))


@given(telescoping())
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
def test_dense_path_matches_schoolbook_under_cancellation(pair):
    n = max(i for i, _ in pair[0])
    outer, inner = _ordered(*pair)
    product = _int64(outer, inner)
    # (1 - x^(n+1)) r(y) t(y): the middle x-powers cancel and are left out
    assert {i for i, _ in product} == {0, n + 1}
    _assert_paths_agree(outer, inner)


@st.composite
def row_edges(draw):
    """Operands with terms at their top y-degree and at y = 0 of the next
    x-row, so the product fills the adjacent packed keys
    ``i*width + width - 1`` and ``(i + 1)*width``."""
    pair = []
    for _ in range(2):
        dy = draw(st.integers(0, 6))
        rows = draw(st.integers(1, 5))
        coeff = draw(st.sampled_from([_small_ints, _huge_ints]))
        keys = {(i, dy) for i in range(rows)} | {(i + 1, 0) for i in range(rows)}
        keys |= set(draw(st.lists(st.tuples(st.integers(0, rows), st.integers(0, dy)))))
        pair.append({key: draw(coeff) for key in keys})
    return pair


@given(row_edges())
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
def test_both_paths_match_the_naive_product_at_row_edges(pair):
    outer, inner = _ordered(*pair)
    width = _extent(outer)[1] + _extent(inner)[1] + 1
    product = _naive_product(outer, inner)
    # y-degrees that sum to exactly width - 1 next to a y = 0 term
    assert any(j == width - 1 for _, j in product) and any(j == 0 for _, j in product)
    _assert_paths_agree(outer, inner)


@st.composite
def one_variable(draw, var):
    """A term dict in ``x`` alone or in ``y`` alone."""
    exps = draw(st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True))
    coeff = draw(st.sampled_from([_small_ints, _huge_ints]))
    return {((e, 0) if var == "x" else (0, e)): draw(coeff) for e in exps}


@given(
    st.sampled_from(["x", "y"]).flatmap(one_variable),
    st.sampled_from(["x", "y"]).flatmap(one_variable),
)
@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
def test_both_paths_match_the_naive_product_in_one_variable(a, b):
    # two x-only operands have width == 1: the slot is the x-exponent
    _assert_paths_agree(*_ordered(a, b))


@st.composite
def far_apart(draw):
    """Sparse term dicts with exponents in the thousands."""
    keys = st.tuples(st.integers(0, 4000), st.integers(0, 4000))
    coeff = st.one_of(_small_ints, _huge_ints)
    return draw(st.dictionaries(keys, coeff, min_size=1, max_size=12))


@given(far_apart(), far_apart())
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
def test_schoolbook_matches_the_naive_product_on_sparse_high_exponents(a, b):
    # the convolution would place millions of empty slots here, and the
    # cost model never picks it
    outer, inner = _ordered(a, b)
    assert not _pays(outer, inner)
    assert _schoolbook(outer, inner) == _naive_product(outer, inner)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("DARBOUX_EXP_CAP", "8000")
        assert (BiPoly(outer) * BiPoly(inner)).terms == _naive_product(outer, inner)


@st.composite
def signed_terms(draw, max_exp=12, max_terms=60):
    """Term dicts whose products fit the int64 slot: every coefficient
    negative, or signs mixed."""
    bits = draw(st.sampled_from([3, 20, 26]))
    magnitude = st.integers(1, 2**bits)
    if draw(st.booleans()):
        coeff = magnitude.map(operator.neg)
    else:
        coeff = st.builds(operator.mul, magnitude, st.sampled_from([1, -1]))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
            min_size=1,
            max_size=max_terms,
            unique=True,
        )
    )
    return {key: draw(coeff) for key in keys}


@given(signed_terms(), signed_terms())
@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
def test_int64_path_matches_the_naive_product_on_negative_coefficients(a, b):
    outer, inner = _ordered(a, b)
    assert _one_limb(outer, inner)
    _assert_paths_agree(outer, inner)
    assert (BiPoly(outer) * BiPoly(inner)).terms == _naive_product(outer, inner)


@st.composite
def slot_bound_edges(draw):
    """Operands whose bound ``max|outer| * max|inner| * len(inner)`` lies
    just below ``2**63`` or, with the inner maximum one larger, just above.

    Both operands are runs of consecutive exponents in one variable with
    one coefficient each, so the middle slots of the product sum
    ``len(inner)`` equal pairs and come within one pair of the bound.
    """
    n_inner = draw(st.integers(1, 40))
    n_outer = draw(st.integers(n_inner, 60))
    max_outer = draw(st.integers(1, 2**40))
    max_inner = (2**63 - 1) // (max_outer * n_inner) + draw(st.integers(0, 1))
    var = draw(st.sampled_from([0, 1]))
    start = draw(st.integers(0, 5))

    def run(n, c):
        return {((start + k, 0) if var == 0 else (0, start + k)): c for k in range(n)}

    sign = draw(st.sampled_from([1, -1]))
    return run(n_outer, sign * max_outer), run(n_inner, draw(st.sampled_from([1, -1])) * max_inner)


def _raise_if_called(*args):
    raise AssertionError("the int64 convolution was taken")


@given(slot_bound_edges())
@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
def test_int64_path_is_one_limb_below_the_slot_bound_and_limbs_above(pair):
    outer, inner = pair
    bound = _top(outer) * _top(inner) * len(inner)
    oracle = _naive_product(outer, inner)
    if bound < 2**63:
        assert _one_limb(outer, inner)
        assert max(map(abs, oracle.values())) > 2**62
    else:
        assert max(_plan(outer, inner)[1:]) > 1
    _assert_paths_agree(outer, inner)
    assert (BiPoly(outer) * BiPoly(inner)).terms == oracle


def test_guard_int64_product_needs_the_slot_bound():
    # coefficients fit int64, their products do not: one limb wraps
    a = {(k, 0): 2**40 + k for k in range(8)}
    b = {(k, 1): -(2**40) - 3 * k for k in range(8)}
    assert not _one_limb(a, b)
    oracle = _naive_product(a, b)
    assert _int64(a, b, (41, 1, 1)) != oracle
    assert _int64(a, b) == oracle
    assert (BiPoly(a) * BiPoly(b)).terms == oracle


def _limb_fixed_point(n: int, u_a: int, u_b: int) -> int:
    """The limb width ``s`` at which operands whose largest coefficients
    have ``u_a*s`` and ``u_b*s`` bits get exactly ``u_a`` and ``u_b`` limbs
    of ``s`` bits from :func:`_limb_plan`."""
    s = (63 - n.bit_length()) // 2
    while True:
        plan = _limb_plan(2 ** (u_a * s) - 1, 2 ** (u_b * s) - 1, n)
        if plan == (s, u_a, u_b):
            return s
        s = plan[0] if plan[1:] != (1, 1) else s - 1


_limb_counts = st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda u: max(u) > 1)


@st.composite
def limb_edges(draw):
    """Dense-ish operands, signs mixed, each with its largest coefficient
    ``2**(u*s) - 1`` (all ``u`` limbs full) and the others at limb edges:
    ``2**s - 1``, ``2**s``, and ``2**(j*s)`` or one less for every limb
    boundary ``j*s`` below the top.  ``u`` may be 1 on one side, a one-limb
    operand times a many-limb one."""
    n = draw(st.integers(1, 30))
    u_a, u_b = draw(_limb_counts)
    s = _limb_fixed_point(n, u_a, u_b)
    pair = []
    for size, u in ((draw(st.integers(n, 45)), u_a), (n, u_b)):
        top = 2 ** (u * s) - 1
        edges = [2**s - 1, top] + [2 ** (j * s) - d for j in range(1, u) for d in (0, 1)]
        coeff = st.builds(operator.mul, st.sampled_from(edges), st.sampled_from([1, -1]))
        keys = draw(
            st.lists(
                st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        pair.append({key: draw(coeff) for key in keys} | {keys[0]: draw(st.sampled_from([1, -1])) * top})
    return pair, (s, u_a, u_b)


@given(limb_edges())
@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
def test_limb_path_matches_the_naive_product_at_limb_edges(drawn):
    (outer, inner), plan = drawn
    assert _plan(outer, inner) == plan
    _assert_paths_agree(outer, inner)
    assert (BiPoly(outer) * BiPoly(inner)).terms == _naive_product(outer, inner)


@st.composite
def full_limb_runs(draw):
    """Runs in one variable of one coefficient each, every limb full, so the
    middle limb sums attain the plan's bound ``min(k_a, k_b)*n*(2**s - 1)**2``."""
    n = draw(st.integers(1, 40))
    u_a, u_b = draw(_limb_counts)
    s = _limb_fixed_point(n, u_a, u_b)
    signs = draw(st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])))
    sizes = (draw(st.integers(n, 60)), n)
    return [
        {(k, 0): sign * (2 ** (u * s) - 1) for k in range(size)}
        for size, u, sign in zip(sizes, (u_a, u_b), signs)
    ]


@given(full_limb_runs())
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
def test_limb_sums_reach_just_below_the_bound_and_one_bit_wider_is_above(pair):
    outer, inner = pair
    n = len(inner)
    s, k_a, k_b = _plan(outer, inner)
    assert 2**60 < min(k_a, k_b) * n * (2**s - 1) ** 2 < 2**63
    if s < (63 - n.bit_length()) // 2:  # the plan lowered s: s + 1 breaks the bound
        wider = min(-(-_top(p).bit_length() // (s + 1)) for p in pair)
        assert wider * n * (2 ** (s + 1) - 1) ** 2 >= 2**63
    _assert_paths_agree(outer, inner)


def test_guard_limb_plan_needs_its_bound():
    # every limb of 2**90 - 1 is full in 30-bit limbs, and 3 * 8 * (2**30 -
    # 1)**2 >= 2**63: a plan one bit wider than the route's wraps
    top = 2**90 - 1
    a = {(k, 0): top for k in range(12)}
    b = {(k, 0): -top for k in range(8)}
    assert _plan(a, b) == (29, 4, 4)
    assert 3 * 8 * (2**30 - 1) ** 2 >= 2**63
    oracle = _naive_product(a, b)
    assert _int64(a, b, (30, 3, 3)) != oracle
    assert (BiPoly(a) * BiPoly(b)).terms == oracle


def test_sparse_high_degree_operands_stay_off_the_convolution(monkeypatch):
    # 16 x 16 = 256 pairs of small coefficients, but the operands span about
    # 32 million slots each: convolving them would take hours
    a = {(250 * k, 4000 - 250 * k): k + 1 for k in range(16)}
    b = {(4000 - 240 * k, 60 * k + 1): 2 * k - 7 for k in range(16)}
    assert _one_limb(a, b) and not _pays(a, b)
    monkeypatch.setenv("DARBOUX_EXP_CAP", "8000")
    monkeypatch.setattr(np, "convolve", _raise_if_called)
    start = time.perf_counter()
    product = BiPoly(a) * BiPoly(b)
    assert time.perf_counter() - start < 0.5
    assert product.terms == _naive_product(a, b)


@st.composite
def fraction_polys(draw):
    terms = draw(int_terms(max_exp=14, max_terms=100))
    dens = draw(st.sampled_from([st.just(1), st.integers(1, 12), st.integers(1, 2**40)]))
    return BiPoly({key: Fraction(c, draw(dens)) for key, c in terms.items()})


def _fraction_oracle(a: BiPoly, b: BiPoly) -> dict:
    return _naive_product(_fractions(a), _fractions(b))


@given(fraction_polys(), fraction_polys())
@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
def test_product_matches_fraction_oracle_on_both_sides_of_cutover(a, b):
    assert _fractions(a * b) == _fraction_oracle(a, b)


def _dense(degree, coeff):
    return {(i, s - i): coeff(i, s - i) for s in range(degree + 1) for i in range(s + 1)}


def test_cutover_takes_each_path():
    dense = _dense(20, lambda i, j: (7 * i + 3 * j) % 11 - 5 or 1)
    assert _pays(dense, dense)
    # a thousand-term operand times a twenty-term one packs mostly empty slots
    lopsided = _dense(44, lambda i, j: 3**i - 2**j or 1)
    sparse = {(i, i): 2**300 + i for i in range(20)}
    assert not _pays(lopsided, sparse)
    tiny = _dense(2, lambda i, j: i - j or 1)
    assert not _pays(tiny, tiny)
    pa, pb = BiPoly(dense), BiPoly(sparse)
    assert _fractions(pa * pb) == _fraction_oracle(pa, pb)


def test_dense_path_degree_40_full_triangle():
    a = _dense(40, lambda i, j: (i * 31 + j * 17) % 23 - 11 or 5)
    b = _dense(40, lambda i, j: (i * 13 - j * 7) % 19 - 9 or -3)
    assert _pays(a, b)
    _assert_paths_agree(a, b)
    pa, pb = BiPoly(a), BiPoly(b)
    product = pa * pb
    assert product.total_degree() == 80
    point = (Fraction(2, 3), Fraction(-5, 7))
    assert product.eval(*point) == pa.eval(*point) * pb.eval(*point)


def test_dense_path_checks_exponent_cap_before_allocating(monkeypatch):
    dense = _dense(6, lambda i, j: i + 2 * j + 1)
    assert _pays(dense, dense)
    p = BiPoly(dense)
    monkeypatch.setenv("DARBOUX_EXP_CAP", "8")

    def no_arrays(*args):
        raise AssertionError("allocated before the exponent cap was checked")

    monkeypatch.setattr(np, "zeros", no_arrays)
    with pytest.raises(ExponentCapError, match="x\\^12 exceeds exponent cap 8"):
        p * p


def test_schoolbook_checks_exponent_cap_before_multiplying(monkeypatch):
    # a sparse operand stays on the schoolbook path; the cap must trip on the
    # operands' degrees before any pair of terms is multiplied
    sparse = {(i, 40 * i): i + 1 for i in range(6)}
    assert not _pays(sparse, sparse)
    p = BiPoly(sparse)
    monkeypatch.setenv("DARBOUX_EXP_CAP", "300")

    def no_pairs(*args):
        raise AssertionError("multiplied before the exponent cap was checked")

    monkeypatch.setattr(polyrat, "_mul_schoolbook", no_pairs)
    with pytest.raises(ExponentCapError, match="y\\^400 exceeds exponent cap 300"):
        p * p


def test_exponent_cap_holds_for_outside_terms_not_for_sums(monkeypatch):
    p = X ** 9
    monkeypatch.setenv("DARBOUX_EXP_CAP", "8")
    with pytest.raises(ExponentCapError, match="x\\^9 exceeds exponent cap 8"):
        BiPoly({(9, 0): 1})
    # a sum cannot create an exponent its inputs lack, so it is not checked
    assert (p + 1) - p == ONE


# -- canonical form: integer terms over one denominator ---------------------
#
# Equality compares the term dict and `denom` as they are, so every result
# must come out reduced: denom >= 1, gcd(denom, *terms) == 1, no stored
# zero, and denom == 1 for the zero polynomial.  Plain asserts in a test
# module are rewritten by pytest and still run under `python -O`.


def _assert_canonical(p: BiPoly) -> None:
    assert p.denom >= 1
    assert math.gcd(p.denom, *p.terms.values()) == 1
    assert all(type(c) is int and c for c in p.terms.values())
    assert p.terms or p.denom == 1


@st.composite
def dense_polys(draw, degree=8):
    """A full triangle of terms with nonzero rational coefficients."""
    coeff = st.fractions(min_value=-10, max_value=10, max_denominator=12).filter(bool)
    return BiPoly({(i, s - i): draw(coeff) for s in range(degree + 1) for i in range(s + 1)})


@given(polys(), polys(), dense_polys(), dense_polys(), _coeffs, st.integers(0, 3))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
def test_guard_every_operation_returns_the_canonical_form(p, q, a, b, c, n):
    # p * q stays on the schoolbook path, a * b goes through one int64
    # convolution and a * wide, with coefficients past 64 bits, through limbs
    wide = b * 2**70
    assert p.n_terms * q.n_terms < polyrat._DENSE_MIN_PAIRS
    assert _one_limb(a.terms, b.terms) and _pays(a.terms, b.terms)
    assert not _one_limb(a.terms, wide.terms) and _pays(a.terms, wide.terms)
    results = [
        p, q, a, BiPoly.const(c), p + q, p + p, p + c, p - q, p - p, c - p, -p,
        p * q, a * b, a * wide, p * c, c * p, p * Fraction(3, 2), p**n, p.diff("x"),
        a.diff("y"),
    ]
    for r in results:
        _assert_canonical(r)


def test_guard_canonical_form_negative_controls():
    half_x = BiPoly({(1, 0): Fraction(1, 2)})
    # a product that kept denom 2 over terms 2x would not equal X
    assert half_x * 2 == X
    assert half_x * 2 != 2 * X
    # equal integer terms, different denominators: not the same polynomial
    assert half_x.terms == X.terms and half_x != X
    # nor the same factor: a `_find` that ignored `denom` would merge them
    f = RatFn(1, X + 1) * RatFn(1, (X + 1) * Fraction(1, 2))
    assert len(f.factors) == 2
    assert f.eval(1, 0) == Fraction(1, 2)  # 2 / (x + 1)^2 at x = 1


def _old_eval_float(p: BiPoly, x, y):
    """Oracle: the float value with each coefficient rounded by `float(Fraction)`."""
    xp, yp = [1.0 + 0.0 * x], [1.0 + 0.0 * y]
    for _ in range(p.degree("x")):
        xp.append(xp[-1] * x)
    for _ in range(p.degree("y")):
        yp.append(yp[-1] * y)
    total = 0.0 * x * y
    for (i, j), c in sorted(p.terms.items()):
        total = total + float(Fraction(c, p.denom)) * xp[i] * yp[j]
    return total


@st.composite
def float_eval_polys(draw):
    coeff = draw(st.sampled_from([_small_ints, st.integers(-(2**64), 2**64), _huge_ints]))
    den = draw(st.sampled_from([
        st.just(1), st.integers(1, 12), st.integers(1, 2**40),
        st.integers(0, 52).map(lambda k: 2**k),  # the dyadics of floats
    ]))
    keys = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                         max_size=12, unique=True))
    return BiPoly({key: Fraction(draw(coeff), draw(den)) for key in keys})


_float_points = st.floats(min_value=-3, max_value=3)


@given(float_eval_polys(), _float_points, _float_points,
       st.lists(_float_points, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
def test_eval_float_matches_the_fraction_coefficient_sum_bit_for_bit(p, x, y, row):
    assert _bits(p.eval_float(x, y)) == _bits(_old_eval_float(p, x, y))
    xs = np.array(row)
    assert _bits(p.eval_float(xs, y)) == _bits(_old_eval_float(p, xs, y))
