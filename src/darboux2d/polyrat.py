"""Exact sparse bivariate polynomials and factored rational functions.

Everything in this module is exact: a polynomial is an integer polynomial
over one positive denominator (the representation of FLINT's ``fmpq_poly``),
and no simplification step ever divides by a polynomial.  A rational
function is a polynomial times integer powers of shared nonzero factor
polynomials (:class:`RatFn`); the algebra adds, lowers and lifts exponents
instead of cross-multiplying, no polynomial gcd is ever taken, equality is
decided by an exact zero test, and evaluation happens only at explicit
points.  Floats appear solely at the evaluation boundary (`eval_float`).

Terms are stored sparsely as ``{(i, j): int}`` with ``i`` the x-exponent and
``j`` the y-exponent, next to ``denom``.  The form is canonical:
``denom >= 1``, ``gcd(denom, *terms.values()) == 1``, no zero is stored,
and the zero polynomial has ``denom == 1``; so two polynomials are equal
exactly when their term dicts and denominators are.  ``Fraction`` objects are made only
at the boundary: coefficients handed in, :meth:`BiPoly.coeff`, rendering
and exact values.  Rendering uses a graded-lexicographic term order (total
degree descending, then x-exponent descending) so that the text form of a
polynomial is canonical.

Products multiply the integer terms pair by pair (schoolbook, for small or
sparse operands) or by int64 convolutions (for dense ones), both keyed by
``i*width + j`` for ``x^i y^j``, ``width`` one more than the product's
y-degree.  The convolution splits each coefficient into ``k`` signed limbs
of ``s`` bits (one limb when ``max|a|*max|b|*min(len(a), len(b)) < 2**63``)
with ``min(k_a, k_b)*min(len(a), len(b))*(2**s - 1)**2 < 2**63``, which caps
every partial sum, and recombines the limb sums once as Python ints.  One
cost model picks the path; both give the same nonzero terms.  The product's
denominator is the product of the two, reduced once.  Term order in a
polynomial is not part of its value: ``eval_float`` sums in sorted key
order, so equal polynomials evaluate to the same float whichever path or
insertion order built them.

A global exponent cap (default 256, overridable through the environment
variable ``DARBOUX_EXP_CAP``) bounds intermediate blow-up: a product whose
exponent would exceed the cap raises :class:`ExponentCapError` from the
operands' degrees, before either multiplication path does any work, instead
of silently grinding through an enormous computation.  Terms handed to
``BiPoly(...)`` from outside are checked too.  Sums, negation, scaling and
derivatives cannot raise an exponent above those of their inputs, so they
are not checked.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Exponent = tuple[int, int]
IntTerms = Mapping[Exponent, int]
Extent = tuple[int, int]  # x-degree, y-degree
Plan = tuple[int, int, int]  # limb bits s, limbs per coefficient k_a, k_b
Scalar = Union[int, Fraction, str]

_DEFAULT_EXP_CAP = 256
_VARS = ("x", "y")


class ExponentCapError(ArithmeticError):
    """A product, or terms from outside, would exceed the exponent cap."""


class PoleEvaluationError(ZeroDivisionError):
    """Exact evaluation of a rational function hit a zero denominator."""


def exponent_cap() -> int:
    """Current exponent cap (env var ``DARBOUX_EXP_CAP`` overrides default)."""
    raw = os.environ.get("DARBOUX_EXP_CAP")
    if raw is None:
        return _DEFAULT_EXP_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"DARBOUX_EXP_CAP must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"DARBOUX_EXP_CAP must be positive, got {cap}")
    return cap


def as_fraction(value: Scalar) -> Fraction:
    """Coerce ``value`` to an exact rational; floats are deliberately rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected int, Fraction or 'p/q' string, got {type(value).__name__}")


def over_one_denominator(xs: Iterable[Scalar]) -> tuple[list[int], int]:
    """Integers ``ps`` with ``xs[k] == ps[k] / q``, ``q`` the lcm of the
    denominators (for a float grid, the largest power of two); no floats."""
    fs = [as_fraction(v) for v in xs]
    q = math.lcm(*(v.denominator for v in fs))
    return [v.numerator * (q // v.denominator) for v in fs], q


def _check_cap(terms: Iterable[Exponent]) -> None:
    cap = exponent_cap()
    for i, j in terms:
        if i > cap or j > cap:
            raise ExponentCapError(
                f"monomial {_mono_str(i, j)} exceeds exponent cap {cap} "
                "(raise DARBOUX_EXP_CAP to override)"
            )


class BiPoly:
    """Sparse bivariate polynomial over Q: integer terms over one ``denom``."""

    __slots__ = ("terms", "denom")

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for key, val in terms.items():
                i, j = key
                if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
                    raise ValueError(f"invalid exponent pair {key!r}")
                coeff = as_fraction(val)
                if coeff:
                    clean[(i, j)] = coeff
        _check_cap(clean)
        # over the lcm of reduced fractions the content is already 1
        self.denom = math.lcm(*(c.denominator for c in clean.values()))
        self.terms = {k: c.numerator * (self.denom // c.denominator) for k, c in clean.items()}

    @classmethod
    def _raw(cls, terms: dict[Exponent, int], denom: int = 1) -> "BiPoly":
        """Internal constructor: trusts the exponents, the cap check and that
        ``terms`` holds no zero; divides out ``gcd(denom, *terms)``."""
        if denom != 1:
            g = math.gcd(denom, *terms.values())
            if g != 1:
                terms = {key: val // g for key, val in terms.items()}
                denom //= g
        obj = object.__new__(cls)
        obj.terms, obj.denom = terms, denom
        return obj

    @classmethod
    def const(cls, value: Scalar) -> "BiPoly":
        c = as_fraction(value)
        return cls._raw({(0, 0): c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, var: str) -> "BiPoly":
        if var not in _VARS:
            raise ValueError(f"variable must be 'x' or 'y', got {var!r}")
        key = (1, 0) if var == "x" else (0, 1)
        return cls._raw({key: 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Max total degree of a term; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(i + j for i, j in self.terms)

    def degree(self, var: str) -> int:
        if var not in _VARS:
            raise ValueError(f"variable must be 'x' or 'y', got {var!r}")
        if not self.terms:
            return 0
        idx = 0 if var == "x" else 1
        return max(key[idx] for key in self.terms)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self.terms.get((i, j), 0), self.denom)

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        if isinstance(other, BiPoly):
            return self.terms == other.terms and self.denom == other.denom
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _sum(self, other: "BiPoly | Scalar", sign: int) -> "BiPoly":
        """``self + sign * other``, both rescaled to the lcm of the denominators."""
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        denom = math.lcm(self.denom, other.denom)
        a, ka = self.terms, denom // self.denom
        b, kb = other.terms, sign * (denom // other.denom)
        if len(a) < len(b):
            a, ka, b, kb = b, kb, a, ka
        out = dict(a) if ka == 1 else {key: ka * val for key, val in a.items()}
        for key, val in b.items():
            acc = out.get(key, 0) + kb * val
            if acc:
                out[key] = acc
            else:
                del out[key]
        return BiPoly._raw(out, denom)

    def __add__(self, other: "BiPoly | Scalar") -> "BiPoly":
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._raw({key: -val for key, val in self.terms.items()}, self.denom)

    def __sub__(self, other: "BiPoly | Scalar") -> "BiPoly":
        return self._sum(other, -1)

    def __rsub__(self, other: "BiPoly | Scalar") -> "BiPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "BiPoly | Scalar") -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return BiPoly._raw({})
            terms = {key: val * other.numerator for key, val in self.terms.items()}
            return BiPoly._raw(terms, self.denom * other.denominator)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return BiPoly._raw(_mul_terms(self.terms, other.terms), self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "BiPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = None
        base = self
        while power:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if power:
                base = base * base
        return BiPoly.const(1) if result is None else result

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "BiPoly":
        if var not in _VARS:
            raise ValueError(f"variable must be 'x' or 'y', got {var!r}")
        out: dict[Exponent, int] = {}
        if var == "x":
            for (i, j), c in self.terms.items():
                if i:
                    out[(i - 1, j)] = c * i
        else:
            for (i, j), c in self.terms.items():
                if j:
                    out[(i, j - 1)] = c * j
        return BiPoly._raw(out, self.denom)

    # -- evaluation --------------------------------------------------------

    def eval(self, x: Scalar, y: Scalar) -> Fraction:
        """Exact value at one rational point, a row of one for
        :meth:`eval_row` (which takes whole rows); floats are rejected."""
        return RatFn._of(self, ()).eval(x, y)

    def eval_row(self, ps: Sequence[int], q: int, y: Fraction) -> tuple[list[int], int]:
        """Exact values at the points ``(ps[k]/q, y)``: one integer per point
        over one positive denominator.

        The powers of ``q`` and of ``y`` fold into one integer coefficient per
        power of ``x``, once per row, so Horner is int multiply-add.
        """
        dx, dy = self.degree("x"), self.degree("y")
        yn, yd = y.numerator, y.denominator
        ypow = [yn**j * yd ** (dy - j) for j in range(dy + 1)]
        coeffs = [0] * (dx + 1)  # coeffs[k] goes with p^(dx-k) q^k
        for (i, j), c in self.terms.items():
            coeffs[dx - i] += c * ypow[j]
        top, *rest = [c * q**k for k, c in enumerate(coeffs)]
        nums = []
        for p in ps:
            acc = top
            for c in rest:
                acc = acc * p + c
            nums.append(acc)
        return nums, self.denom * ypow[0] * q**dx

    def eval_float(self, x, y):
        """Float (or numpy-array) value; coefficients are rounded to float.

        Each coefficient is ``c / denom``, an int true division and so
        correctly rounded.  Terms are summed in sorted key order, so the
        value does not depend on the order in which the terms were inserted.
        """
        xp = _float_powers(x, self.degree("x"))
        yp = _float_powers(y, self.degree("y"))
        total = 0.0 * x * y  # matches the broadcast shape of the inputs
        denom = self.denom
        for (i, j), c in sorted(self.terms.items()):
            total = total + c / denom * xp[i] * yp[j]
        return total

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"BiPoly({poly_to_str(self)!r})"


def _coerce_poly(value) -> "BiPoly":
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BiPoly.const(value)
    return NotImplemented


def _mul_terms(a: IntTerms, b: IntTerms) -> dict[Exponent, int]:
    """Sparse product of integer terms; the nonzero terms of the product.

    The schoolbook takes small or sparse operands and the int64 limb
    convolutions (:func:`_mul_int64`) dense ones, as one cost model
    (:func:`_convolution_pays`) picks.  Each operand's degrees
    (:func:`_extent`) serve the exponent cap and the paths' sizes; its
    largest coefficient is read only where the cost model is evaluated.
    """
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    ext_a, ext_b = _extent(a), _extent(b)
    # the product has a term of x-degree dx(a) + dx(b) and one of y-degree
    # dy(a) + dy(b), so this raises exactly when the result would
    _check_cap(((ext_a[0] + ext_b[0], 0), (0, ext_a[1] + ext_b[1])))
    if len(a) * len(b) >= _DENSE_MIN_PAIRS:
        top_a, top_b = max(map(abs, a.values())), max(map(abs, b.values()))
        plan = _limb_plan(top_a, top_b, len(b))
        if _convolution_pays(a, b, ext_a, ext_b, top_a, top_b, plan):
            return _mul_int64(a, b, ext_a, ext_b, plan)
    return _mul_schoolbook(a, b, ext_a, ext_b)


def _mul_schoolbook(
    outer: IntTerms, inner: IntTerms, ext_outer: Extent, ext_inner: Extent
) -> dict[Exponent, int]:
    """Integer product, one pair of terms at a time, on packed keys.

    Keys are the ints ``i*width + j`` (the slots of :func:`_mul_int64`),
    so a pair adds two ints instead of hashing a new tuple; ``j1 + j2 <
    width``, so one ``divmod`` splits a key back, and zeros drop out there.
    """
    width = ext_outer[1] + ext_inner[1] + 1
    packed = [(i * width + j, c) for (i, j), c in inner.items()]
    acc: dict[int, int] = {}
    get = acc.get
    for (i1, j1), c1 in outer.items():
        base = i1 * width + j1
        for k2, c2 in packed:
            key = base + k2
            acc[key] = get(key, 0) + c1 * c2
    return {divmod(key, width): val for key, val in acc.items() if val}


# Under this many pairs of terms the cost model below is not evaluated: on
# recorded operands the convolution does not win by more than noise there.
_DENSE_MIN_PAIRS = 256


def _extent(terms: IntTerms) -> Extent:
    """Degree in x and degree in y."""
    # the lexicographically largest key has the largest x-exponent
    return max(terms)[0], max(map(itemgetter(1), terms))


def _limb_plan(max_a: int, max_b: int, n: int) -> Plan:
    """The limbs that make the int64 convolutions of :func:`_mul_int64` exact.

    A product coefficient sums at most ``n = min(n_a, n_b)`` pairs, so when
    ``max_a*max_b*n < 2**63`` one 64-bit limb (the coefficient) each is exact.
    Otherwise each coefficient splits into ``k`` limbs of ``s`` bits, and a
    limb sum adds at most ``min(k_a, k_b)*n`` pairs of magnitude at most
    ``(2**s - 1)**2``: ``s`` is lowered until that bound is below ``2**63``.
    """
    if max_a * max_b * n < 2**63:
        return 64, 1, 1
    bits_a, bits_b = max_a.bit_length(), max_b.bit_length()
    s = (63 - n.bit_length()) // 2
    while min(-(-bits_a // s), -(-bits_b // s)) * n * ((1 << s) - 1) ** 2 >= 2**63:
        s -= 1
    return s, -(-bits_a // s), -(-bits_b // s)


def _convolution_pays(
    a: IntTerms, b: IntTerms, ext_a: Extent, ext_b: Extent, top_a: int, top_b: int, plan: Plan
) -> bool:
    """Cost model in ns: are the limb convolutions cheaper than the pair loop?

    Fitted on the operand pairs of the seed-7 suite and of the closure
    targets at seeds 7-26 (CPython 3.11, numpy 2.4, x86-64): the convolutions
    pay 4,000 + 4,000 per convolution + 72 per limb placed + 0.36 per pair of
    limb slots, empty ones included, + 75 per product slot per limb sum past
    the first; the schoolbook pays ``100 + 3*(d_a*d_b - 1)`` per pair of
    terms, ``d`` the 30-bit digits of each operand's largest coefficient
    magnitude (``top_a``, ``top_b``).
    """
    _, k_a, k_b = plan
    width = ext_a[1] + ext_b[1] + 1
    slots_a, slots_b = ext_a[0] * width + ext_a[1] + 1, ext_b[0] * width + ext_b[1] + 1
    limbs = 4000 * k_a * k_b + 72 * (len(a) * k_a + len(b) * k_b)
    slot_pairs = 0.36 * k_a * k_b * slots_a * slots_b
    recombine = 75 * (k_a + k_b - 2) * (slots_a + slots_b - 1)
    d_a, d_b = -(-top_a.bit_length() // 30), -(-top_b.bit_length() // 30)
    return 4000 + limbs + slot_pairs + recombine < len(a) * len(b) * (100 + 3 * (d_a * d_b - 1))


def _limbs(terms: IntTerms, width: int, n_slots: int, s: int, k: int) -> np.ndarray:
    """``k`` int64 rows: row ``u`` holds bits ``u*s`` to ``(u + 1)*s`` of each
    coefficient's magnitude, with its sign, at slot ``i*width + j``."""
    rows = np.zeros((k, n_slots), np.int64)
    slots = [i * width + j for i, j in terms]
    if k == 1:
        rows[0][slots] = list(terms.values())
        return rows
    values = np.array(list(terms.values()), dtype=object)
    signs = np.where(values < 0, -1, 1)
    magnitudes = values * signs
    for row in rows:
        row[slots] = (magnitudes & ((1 << s) - 1)).astype(np.int64) * signs
        magnitudes = magnitudes >> s
    return rows


def _mul_int64(
    outer: IntTerms, inner: IntTerms, ext_outer: Extent, ext_inner: Extent, plan: Plan
) -> dict[Exponent, int]:
    """Integer product by ``np.convolve`` of int64 limb arrays.

    Term ``(i, j)`` goes to slot ``i*width + j``, with ``width`` one more
    than the product's y-degree, so no row of the product spills into the
    next.  Limb ``u`` of one operand convolved with limb ``v`` of the other
    adds to limb sum ``u + v``; the limb sums are recombined once as Python
    ints.  Exact only under the bound of :func:`_limb_plan`, which keeps
    every partial sum below ``2**63``.
    """
    (xo, yo), (xi, yi) = ext_outer, ext_inner
    s, k_o, k_i = plan
    width = yo + yi + 1
    a = _limbs(outer, width, xo * width + yo + 1, s, k_o)
    b = _limbs(inner, width, xi * width + yi + 1, s, k_i)
    if k_o + k_i == 2:
        product = np.convolve(a[0], b[0])
    else:
        sums = np.zeros((k_o + k_i - 1, (xo + xi + 1) * width), np.int64)
        for u in range(k_o):
            for v in range(k_i):
                sums[u + v] += np.convolve(a[u], b[v])
        product = sums[-1].astype(object)
        for limb_sum in sums[-2::-1]:
            product = (product << s) + limb_sum
    slots = np.flatnonzero(product)
    i, j = np.divmod(slots, width)
    return dict(zip(zip(i.tolist(), j.tolist()), product[slots].tolist()))


def _float_powers(v, n: int) -> list:
    powers = [1.0 + 0.0 * v]
    for _ in range(n):
        powers.append(powers[-1] * v)
    return powers


X = BiPoly.variable("x")
Y = BiPoly.variable("y")
ONE = BiPoly.const(1)
ZERO = BiPoly.const(0)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

Factors = tuple[tuple[BiPoly, int], ...]


class RatFn:
    """Rational function ``poly * prod(f ** e)`` over shared factors.

    Each factor ``f`` is a nonzero polynomial and each exponent ``e`` a
    nonzero integer; a negative exponent puts its factor in the denominator.
    Every denominator in this package is a product of powers of a few
    polynomials (``B.den``, ``B.num`` and the numerator of ``|grad B|^2``,
    or ``|P'|^2`` for the pole form of R),
    so the algebra tracks those powers instead of cross-multiplying:

      * ``RatFn(num, den)`` makes ``den`` one factor (a unit ``den`` none);
      * a product adds exponents, and a factor whose exponent reaches zero
        drops out without any polynomial work;
      * division turns the divisor's ``poly`` into a factor;
      * a sum lifts both operands to the exponent-wise minimum;
      * ``diff`` lowers the exponent of each factor that depends on the
        variable by one, and the new ``poly`` is ``poly' Phi + poly Psi``
        (the quotient rule, with ``Phi`` and ``Psi`` built from the factors).

    Factors match by identity or by equal value.  No cancellation between
    ``poly`` and the factors is attempted (there is no multivariate gcd here,
    on purpose).  Since every factor is nonzero, the function is zero exactly
    when ``poly`` is: that is the exact zero test of :meth:`is_zero` and
    :func:`ratfn_is_zero`.  ``num`` and ``den`` expand the factors on every
    read; for ``RatFn(num, den)`` they are the very objects passed in.
    """

    __slots__ = ("poly", "factors")

    def __init__(self, num: BiPoly | Scalar, den: BiPoly | Scalar | None = None):
        num = _coerce_poly(num)
        if num is NotImplemented:
            raise TypeError("numerator must be a BiPoly or scalar")
        if den is None:
            den = ONE
        else:
            den = _coerce_poly(den)
            if den is NotImplemented:
                raise TypeError("denominator must be a BiPoly or scalar")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.poly = num
        self.factors: Factors = () if den == ONE else ((den, -1),)

    @classmethod
    def _of(cls, poly: BiPoly, factors: Iterable[tuple[BiPoly, int]]) -> "RatFn":
        obj = object.__new__(cls)
        obj.poly = poly
        obj.factors = tuple(factors)
        return obj

    @classmethod
    def from_poly(cls, poly: BiPoly | Scalar) -> "RatFn":
        return cls(poly)

    # -- structure ---------------------------------------------------------

    @property
    def num(self) -> BiPoly:
        """Numerator: ``poly`` times the factors with positive exponents."""
        return _lift(self.poly, [(f, e) for f, e in self.factors if e > 0])

    @property
    def den(self) -> BiPoly:
        """Denominator: the factors with negative exponents, expanded."""
        down = _power_product((f, -e) for f, e in self.factors if e < 0)
        return ONE if down is None else down

    def is_zero(self) -> bool:
        return not self.poly.terms

    def __eq__(self, other: object) -> bool:
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    # -- arithmetic --------------------------------------------------------

    def _sum(self, other, sign: int) -> "RatFn":
        """``self + sign * other`` over the exponent-wise minimum."""
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.poly.terms:
            return self
        if not self.poly.terms:
            return other if sign > 0 else -other
        rows = [[f, e, 0] for f, e in self.factors]
        for f, e in other.factors:
            row = _find(rows, f)
            if row is None:
                rows.append([f, 0, e])
            else:
                row[2] = e
        low = [min(ea, eb) for _, ea, eb in rows]
        mine = _lift(self.poly, [(f, ea - m) for (f, ea, _), m in zip(rows, low)])
        theirs = _lift(other.poly, [(f, eb - m) for (f, _, eb), m in zip(rows, low)])
        poly = mine + theirs if sign > 0 else mine - theirs
        return RatFn._of(poly, [(f, m) for (f, _, _), m in zip(rows, low) if m])

    def __add__(self, other) -> "RatFn":
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RatFn":
        return RatFn._of(-self.poly, self.factors)

    def __sub__(self, other) -> "RatFn":
        return self._sum(other, -1)

    def __rsub__(self, other) -> "RatFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RatFn":
        if isinstance(other, (int, Fraction)):
            return RatFn._of(self.poly * other, self.factors)
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFn._of(self.poly * other.poly, _merge(self.factors, other.factors, 1))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if other.poly.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        factors = _merge(self.factors, other.factors, -1)
        if other.poly.is_constant():
            return RatFn._of(self.poly * (1 / other.poly.coeff(0, 0)), factors)
        return RatFn._of(self.poly, _merge(factors, ((other.poly, -1),), 1))

    def __rtruediv__(self, other) -> "RatFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "RatFn":
        """Quotient rule over the factors, with ``poly`` in two products.

        Over the factors ``f_k`` (exponents ``e_k``) that depend on ``var``,
        ``Phi = prod f_k`` and ``Psi = sum e_k f_k' prod_(j != k) f_j`` are
        built from the factors alone, as ``Psi <- Psi f + Phi e f'`` and
        then ``Phi <- Phi f``.  The new ``poly`` is ``poly' Phi + poly Psi``,
        and each of those factors loses one power.
        """
        top, phi, psi = self.poly.diff(var), None, None
        factors = []
        for f, e in self.factors:
            df = f.diff(var)
            if df.terms:
                df = df * e
                psi, phi = (df, f) if phi is None else (psi * f + phi * df, phi * f)
                e -= 1
            if e:
                factors.append((f, e))
        if phi is not None:
            top = top * phi + self.poly * psi
        return RatFn._of(top, factors)

    # -- evaluation --------------------------------------------------------

    def eval(self, x: Scalar, y: Scalar) -> Fraction:
        """Exact value at one rational point; floats are rejected.

        A zero denominator there raises :class:`PoleEvaluationError`.  Rows
        go through :meth:`eval_row`.
        """
        (n,), (d,) = self.eval_row(*over_one_denominator((x,)), as_fraction(y))
        return Fraction(n, d)

    def eval_row(self, ps: Sequence[int], q: int, y: Fraction) -> tuple[list[int], list[int]]:
        """Exact values at the points ``(ps[k]/q, y)``: per point an integer
        numerator and a nonzero integer denominator of either sign.

        Each factor's integers (:meth:`BiPoly.eval_row`) go to one side, its
        row constant to the other side's scale.  A zero denominator raises
        :class:`PoleEvaluationError` naming the first such point.
        """
        nums, den_scale = self.poly.eval_row(ps, q, y)
        dens, num_scale = [1] * len(nums), 1
        for f, e in self.factors:
            vals, scale = f.eval_row(ps, q, y)
            k = abs(e)
            if e > 0:
                nums = [n * v**k for n, v in zip(nums, vals)]
                den_scale *= scale**k
            else:
                dens = [d * v**k for d, v in zip(dens, vals)]
                num_scale *= scale**k
        if 0 in dens:
            pole = Fraction(ps[dens.index(0)], q)
            raise PoleEvaluationError(f"denominator vanishes at ({pole}, {y})")
        return [n * num_scale for n in nums], [d * den_scale for d in dens]

    def eval_float(self, x, y):
        num, den = self.poly.eval_float(x, y), 1.0
        for f, e in self.factors:
            # powers by repeated products, not `**`: a float goes through
            # libm pow and an array through numpy, which round differently
            base = v = f.eval_float(x, y)
            for _ in range(abs(e) - 1):
                v = v * base
            if e > 0:
                num = num * v
            else:
                den = den * v
        if isinstance(den, float) and den == 0.0:
            return math.nan
        return num / den  # array path: caller handles infs/nans

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return ratfn_to_str(self)

    def __repr__(self) -> str:
        return f"RatFn({ratfn_to_str(self)!r})"


def _coerce_ratfn(value) -> "RatFn":
    if isinstance(value, RatFn):
        return value
    if isinstance(value, (BiPoly, int, Fraction)):
        return RatFn(value)
    return NotImplemented


def _find(rows: list, f: BiPoly):
    """The row whose factor is ``f`` (same object or same value), or None."""
    for row in rows:
        g = row[0]
        if g is f or (g.terms == f.terms and g.denom == f.denom):
            return row
    return None


def _merge(a: Factors, b: Factors, sign: int) -> Factors:
    """Exponents of ``a`` plus ``sign`` times those of ``b``; zeros drop out."""
    rows = [[f, e] for f, e in a]
    for f, e in b:
        row = _find(rows, f)
        if row is None:
            rows.append([f, sign * e])
        else:
            row[1] += sign * e
    return tuple((f, e) for f, e in rows if e)


def _power_product(factors: Iterable[tuple[BiPoly, int]]) -> BiPoly | None:
    """``prod f ** k`` over positive ``k``; ``None`` for the empty product."""
    out = None
    for f, k in factors:
        p = f if k == 1 else f**k
        out = p if out is None else out * p
    return out


def _lift(poly: BiPoly, factors: list[tuple[BiPoly, int]]) -> BiPoly:
    up = _power_product((f, k) for f, k in factors if k)
    return poly if up is None else poly * up


# ---------------------------------------------------------------------------
# functional surface: the operations the checks name; arithmetic and
# derivatives are the operators and `diff` methods above
# ---------------------------------------------------------------------------


def laplacian(f: BiPoly | RatFn) -> BiPoly | RatFn:
    """``f_xx + f_yy`` of a polynomial or a rational function, same type."""
    return f.diff("x").diff("x") + f.diff("y").diff("y")


def ratfn_is_zero(f: RatFn) -> bool:
    """Exact zero test: the polynomial part is zero (every factor is not)."""
    return f.is_zero()


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------


def _mono_str(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


def poly_to_str(p: BiPoly) -> str:
    """Canonical text: graded-lex order, x before y, exact coefficients."""
    if not p.terms:
        return "0"
    keys = sorted(p.terms, key=lambda key: (-(key[0] + key[1]), -key[0]))
    pieces: list[str] = []
    for key in keys:
        coeff = Fraction(p.terms[key], p.denom)
        mono = _mono_str(*key)
        mag = -coeff if coeff < 0 else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


def ratfn_to_str(f: RatFn) -> str:
    """Canonical text ``(num)/(den)``; zero, or a unit denominator, prints as
    a plain poly."""
    if f.is_zero():
        return "0"
    num, den = poly_to_str(f.num), f.den
    return num if den == ONE else f"({num})/({poly_to_str(den)})"
