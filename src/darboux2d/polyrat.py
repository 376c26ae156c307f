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
sparse operands), by one int64 convolution or by Kronecker substitution (for
dense ones).  All key ``x^i y^j`` by ``i*width + j``, ``width`` one more than
the product's y-degree: the schoolbook adds keys, the convolution convolves
``np.int64`` arrays with the key as slot index, and Kronecker packs each
operand into one big integer the same way, multiplies the two once and reads
back the product's slots.  The convolution is exact because it is taken only
when ``max|a|*max|b|*min(len(a), len(b)) < 2**63``, which bounds every
partial sum.  Cost models over term counts, slot fill (empty slots included)
and coefficient bits pick the path; all give the same nonzero terms.  The
product's denominator is the product of the two, reduced once.  Term order
in a polynomial is not part of its value: ``eval_float`` sums in sorted key
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
Extent = tuple[int, int, int]  # x-degree, y-degree, largest |coefficient|
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

    Three paths agree on the nonzero terms: the schoolbook (one dict update per
    pair of terms) for small or sparse operands, the int64 convolution for
    dense products whose slot fits 64 bits (the bound that makes it exact), and
    Kronecker substitution (one big-int multiply) for dense products with wider
    coefficients.  Each operand is scanned once (:func:`_extent`) for the
    exponent cap and the paths' sizes; cost models pick the path
    (:func:`_convolution_pays`, :func:`_kronecker_pays`).
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
        if _slot_bits(ext_a[2], ext_b[2], len(b)) <= 64 and _convolution_pays(a, b, ext_a, ext_b):
            return _mul_int64(a, b, ext_a, ext_b)
        if _kronecker_pays(len(a), len(b), ext_a, ext_b):
            return _mul_kronecker(a, b, ext_a, ext_b)
    return _mul_schoolbook(a, b, ext_a, ext_b)


def _mul_schoolbook(
    outer: IntTerms, inner: IntTerms, ext_outer: Extent, ext_inner: Extent
) -> dict[Exponent, int]:
    """Integer product, one pair of terms at a time, on packed keys.

    Keys are the ints ``i*width + j`` (the slots of :func:`_mul_kronecker`),
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


# Under this many pairs of terms neither cost model below is evaluated: on
# recorded operands neither dense path wins by more than noise there.
_DENSE_MIN_PAIRS = 256
# CPython multiplies big ints by Karatsuba above this many 30-bit digits.
_KARATSUBA_CUTOFF = 70


def _extent(terms: IntTerms) -> Extent:
    """Degree in x, degree in y and largest coefficient magnitude."""
    # the lexicographically largest key has the largest x-exponent
    return max(terms)[0], max(map(itemgetter(1), terms)), max(map(abs, terms.values()))


def _slot_bits(max_outer: int, max_inner: int, n_inner: int) -> int:
    """Bits of one packed slot: any product coefficient plus a sign bit.

    A product coefficient sums at most ``n_inner`` pairwise products, so its
    magnitude is at most ``max_outer * max_inner * n_inner``.  Slots are
    whole bytes.
    """
    return 8 * (((max_outer * max_inner * n_inner).bit_length() + 8) // 8)


def _kronecker_pays(n_outer: int, n_inner: int, ext_outer: Extent, ext_inner: Extent) -> bool:
    """Cost model: is one packed big-int product cheaper than the pair loop?

    Both costs are predicted in nanoseconds, with constants fitted by least
    squares on about 2,000 operand pairs recorded from the ``transform``,
    ``eq12`` and ``potential`` targets (CPython 3.11, x86-64).  Schoolbook
    pays per pair of terms, more for multi-digit coefficients, scaled by 0.7
    for the packed keys.  Kronecker pays per term packed, per product slot
    unpacked, and for one big-int multiply of the packed operands.  A sparse
    operand packs into a long integer of mostly empty slots, so lopsided and
    sparse products (a thousand-term operand times a twenty-term one) stay
    on the schoolbook path.
    """
    (xo, yo, mo), (xi, yi, mi) = ext_outer, ext_inner
    width = yo + yi + 1
    digits = _slot_bits(mo, mi, n_inner) / 30
    short, long = sorted(((xo * width + yo + 1) * digits, (xi * width + yi + 1) * digits))
    # digit products: CPython cuts the longer operand into pieces as long as
    # the shorter and multiplies each pair by Karatsuba, n**log2(3) digits
    if short < _KARATSUBA_CUTOFF:
        big_mul = short * long
    else:
        big_mul = long / short * _KARATSUBA_CUTOFF**2 * (short / _KARATSUBA_CUTOFF) ** 1.585
    kronecker = (
        1900 * (n_outer + n_inner) + (xo + xi + 1) * width * (96 + 4.9 * digits) + big_mul
    )
    pair = 175 + 2.6 * (mo.bit_length() / 30 + 1) * (mi.bit_length() / 30 + 1)
    return kronecker < n_outer * n_inner * pair


def _convolution_pays(a: IntTerms, b: IntTerms, ext_a: Extent, ext_b: Extent) -> bool:
    """Cost model: is the int64 convolution cheaper than the pair loop?

    Fitted like :func:`_kronecker_pays` on the suite's products whose slot
    fits 64 bits, in ns: 5,000 + 72 per term in + 82 per term out (at most
    the pairs or the product's slots) + 0.36 per pair of slots, empty ones
    included, against 100 per pair of terms for the schoolbook.  A sparse
    operand of high degree spans many slots, so it stays off this path.
    """
    width = ext_a[1] + ext_b[1] + 1
    slots_a, slots_b = (ext[0] * width + ext[1] + 1 for ext in (ext_a, ext_b))
    pairs = len(a) * len(b)
    cost = 5000 + 72 * (len(a) + len(b)) + 82 * min(pairs, slots_a + slots_b - 1)
    return cost + 0.36 * slots_a * slots_b < 100 * pairs


def _mul_int64(
    outer: IntTerms, inner: IntTerms, ext_outer: Extent, ext_inner: Extent
) -> dict[Exponent, int]:
    """Integer product as one ``np.convolve`` of int64 arrays on the slots of
    :func:`_mul_kronecker`; exact only when ``_slot_bits`` is at most 64,
    which keeps every partial sum of pairs below ``2**63``."""
    (xo, yo, _), (xi, yi, _) = ext_outer, ext_inner
    width = yo + yi + 1
    a, b = np.zeros(xo * width + yo + 1, np.int64), np.zeros(xi * width + yi + 1, np.int64)
    a[[i * width + j for i, j in outer]] = list(outer.values())
    b[[i * width + j for i, j in inner]] = list(inner.values())
    product = np.convolve(a, b)
    nonzero = np.flatnonzero(product)
    i, j = np.divmod(nonzero, width)
    return dict(zip(zip(i.tolist(), j.tolist()), product[nonzero].tolist()))


def _pack(terms: IntTerms, width: int, n_slots: int, nbytes: int) -> int:
    """The integer whose base-``2**(8*nbytes)`` digits are the coefficients.

    Term ``(i, j)`` goes to slot ``i*width + j`` of ``n_slots``.  Positive
    and negative coefficients are packed into separate buffers and combined
    once.
    """
    pos = bytearray(n_slots * nbytes)
    neg = bytearray(n_slots * nbytes)
    for (i, j), c in terms.items():
        off = (i * width + j) * nbytes
        if c > 0:
            pos[off : off + nbytes] = c.to_bytes(nbytes, "little")
        else:
            neg[off : off + nbytes] = (-c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _mul_kronecker(
    outer: IntTerms, inner: IntTerms, ext_outer: Extent, ext_inner: Extent
) -> dict[Exponent, int]:
    """Integer product by Kronecker substitution: one big-int multiply.

    With ``width`` one more than the product's y-degree, no row of the
    product spills into the next, so slot ``i*width + j`` of the packed product holds the
    coefficient of ``x^i y^j``.  A bias of half a slot in every slot makes
    each digit non-negative, so the product unpacks byte-wise; a slot that
    holds the bias alone is a zero coefficient and is left out.
    """
    (xo, yo, mo), (xi, yi, mi) = ext_outer, ext_inner
    width = yo + yi + 1
    slot_bits = _slot_bits(mo, mi, len(inner))
    nbytes = slot_bits // 8
    n_slots = (xo + xi + 1) * width
    product = _pack(outer, width, xo * width + yo + 1, nbytes) * _pack(
        inner, width, xi * width + yi + 1, nbytes
    )
    half = 1 << (slot_bits - 1)
    zero = bytes(nbytes - 1) + b"\x80"  # the bias alone
    bias = int.from_bytes(zero * n_slots, "little")
    raw = (product + bias).to_bytes(n_slots * nbytes, "little")
    acc: dict[Exponent, int] = {}
    for slot in range(n_slots):
        digit = raw[slot * nbytes : (slot + 1) * nbytes]
        if digit != zero:
            acc[divmod(slot, width)] = int.from_bytes(digit, "little") - half
    return acc


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
        variable by one (the quotient rule, factor by factor).

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
        """Quotient rule over the factors.

        With ``P_k = poly * f_1 ... f_k`` over the factors that depend on
        ``var``, the new ``poly`` is built as ``t_k = t_(k-1) f_k +
        e_k f_k' P_(k-1)`` from ``t_0 = poly'``, and each of those factors
        loses one power.
        """
        slopes = [f.diff(var) for f, _ in self.factors]
        last = max((k for k, df in enumerate(slopes) if df.terms), default=-1)
        top, run = self.poly.diff(var), self.poly
        factors = []
        for k, ((f, e), df) in enumerate(zip(self.factors, slopes)):
            if df.terms:
                top = top * f + run * (df * e)
                if k < last:
                    run = run * f
                e -= 1
            if e:
                factors.append((f, e))
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
