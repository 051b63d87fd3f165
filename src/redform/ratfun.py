"""Exact arithmetic for univariate polynomials and rational functions over Q.

Values are immutable and normalized on construction: polynomials trim trailing
zero coefficients, rational functions keep a monic denominator coprime to the
numerator, and zero is represented as 0/1.  Two computation paths that reach
the same value therefore produce bit-identical representations.

A polynomial is stored in its integer form, as FLINT's ``fmpq_poly`` is: a
primitive tuple of Python ints ``ints`` (lowest degree first, last entry
nonzero, carrying the sign) times one positive ``Fraction`` ``scale``.  The
form is unique, so equality and hashing read it, and arithmetic runs on the
ints: a product of primitive lists is primitive (Gauss's lemma), so ``*``
only multiplies the scales; a sum takes one content; the gcd is a primitive
pseudo-remainder sequence over Z.  The ``Fraction`` coefficients ``coeffs``
are built only when read, for printing and the series recurrence.

Sums and products of several rational functions run on unnormalized pairs
(num, den) of integer lists: the expression parser carries one through each
entry and ``linalg`` one through each entry of a Q(x) matrix product.  Pairs
add over the lcm of their denominators and multiply with Henrici's
cross-cancellation; :func:`_pair_ratfn`, one primitive gcd and one rescale to
a monic denominator, is the one normalizer, also behind ``RatFn(num, den)``.

This module also owns the common-denominator integer form that the other
modules hand to their integer kernels: :func:`common_denominator` writes
rational functions over their monic lcm denominator, and :func:`_clear_all`
writes several polynomials as integer lists over one scale.  Values at a
rational point y/l run on the ints as well: :func:`_value`, l^top*p(y/l) by
Horner's rule, is the one integer evaluation, behind ``Poly.__call__``,
:func:`integer_roots` and the residues at rational roots in ``solutions``.

Polynomials and rational functions do not carry a variable name; the name is
supplied when parsing or printing (and by :class:`redform.systems.DiffSystem`
for whole systems).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import zip_longest

from .errors import DivisionByZero, ParseError, PoleAtPoint

_ONE = Fraction(1)


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational constant")


def _clear_all(polys):
    """Return (int_lists, scale) with polys[i].coeffs[k] ==
    int_lists[i][k] * scale, the lists coprime together and scale > 0.  Each
    poly's ints are primitive, so the common scale is the gcd of the scale
    numerators over the lcm of the scale denominators."""
    scales = [p.scale for p in polys if p.ints] or [_ONE]
    g = math.gcd(*[s.numerator for s in scales])
    m = math.lcm(*[s.denominator for s in scales])
    out = []
    for p in polys:
        f = p.scale.numerator // g * (m // p.scale.denominator)
        out.append([c * f for c in p.ints])
    return out, Fraction(g, m)


def _int_gcd(a, b):
    """Primitive gcd, up to sign, of two nonzero integer coefficient lists:
    the primitive Euclidean algorithm over Z (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 6).  Being primitive, it divides each input
    exactly over Z (Gauss's lemma)."""
    if len(a) < len(b):
        a, b = b, a
    content = math.gcd(*b)
    b = [c // content for c in b]
    while len(b) > 1:
        r = _int_divmod(a, b)[1]
        if not r:
            return b
        content = math.gcd(*r)
        a, b = b, [c // content for c in r]
    return [1]


def _int_add(a, b):
    """Sum of two integer coefficient lists, trailing zeros trimmed."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _int_mul(a, b):
    """Product of two integer coefficient lists; [] when either is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_divmod(a, b):
    """(quot, rem, m) with m * a == quot * b + rem on integer coefficient
    lists, deg rem < deg b: long division that scales the partial
    remainder by |lc(b)|/g, g = gcd(lc(b), its leading coefficient), only at
    steps where lc(b) does not divide it, so m = 1 when b divides a over Z."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    q = [0] * (len(r) - n)
    m = 1
    for k in range(len(q) - 1, -1, -1):
        top = r[k + n]
        if not top:
            continue
        c, rest = divmod(top, lb)
        if rest:
            f = abs(lb) // math.gcd(top, lb)
            r = [f * x for x in r]
            q = [f * x for x in q]
            m *= f
            c = top * f // lb
        q[k] = c
        for j in range(n):
            r[k + j] -= c * b[j]
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return q, r, m


def _poly(ints: tuple, scale: Fraction) -> "Poly":
    """The Poly stored as ``ints`` over ``scale``, already in integer form."""
    p = object.__new__(Poly)
    p.ints = ints
    p.scale = scale
    return p


def _from_ints(ints, n: int, d: int = 1) -> "Poly":
    """The Poly ints * n/d, for an integer list whose last entry is nonzero
    (or empty) and integers n != 0, d > 0: the content of the list and the
    sign of n move into the scale, which is built once."""
    if not ints:
        return Poly.ZERO
    content = math.gcd(*ints)
    if n < 0:
        content = -content
    if content != 1:
        ints = [a // content for a in ints]
    return _poly(tuple(ints), Fraction(n * content, d))


def _monic(ints) -> "Poly":
    """The monic Poly of a primitive nonempty integer list."""
    if ints[-1] < 0:
        ints = _neg(ints)
    return _poly(tuple(ints), Fraction(1, ints[-1]))


def _neg(ints) -> tuple:
    return tuple([-c for c in ints])


class Poly:
    """Dense univariate polynomial over Q, in integer form: coefficient k is
    ``ints[k] * scale`` with ``ints`` a primitive tuple of ints whose last
    entry is nonzero and carries the sign, and ``scale`` a positive
    Fraction; zero is () over 1.  ``coeffs``, the tuple of Fraction
    coefficients lowest degree first, is computed when read."""

    __slots__ = ("ints", "scale")

    def __init__(self, coeffs=()):
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        lcm = math.lcm(*[c.denominator for c in cs])
        p = _from_ints([c.numerator * (lcm // c.denominator) for c in cs], 1, lcm)
        self.ints, self.scale = p.ints, p.scale

    @staticmethod
    def const(c) -> "Poly":
        c = _rat(c)
        if not c:
            return Poly.ZERO
        return _poly((1,), c) if c > 0 else _poly((-1,), -c)

    @staticmethod
    def monomial(c, k: int) -> "Poly":
        p = Poly.const(c)
        return _poly((0,) * k + p.ints, p.scale) if p.ints else p

    ZERO: "Poly"
    ONE: "Poly"

    @property
    def coeffs(self) -> tuple:
        n, d = self.scale.as_integer_ratio()
        return tuple([Fraction(n * a, d) for a in self.ints])

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        return self.ints[-1] * self.scale if self.ints else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        return self.ints[k] * self.scale if 0 <= k < len(self.ints) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.scale == other.scale

    def __hash__(self):
        return hash((self.ints, self.scale.numerator, self.scale.denominator))

    def __bool__(self):
        return bool(self.ints)

    def __add__(self, other):
        # over the common scale: the gcd of the scale numerators over the
        # lcm of their denominators
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return self if a else other
        (na, da), (nb, db) = self.scale.as_integer_ratio(), other.scale.as_integer_ratio()
        g, m = math.gcd(na, nb), math.lcm(da, db)
        fa, fb = na // g * (m // da), nb // g * (m // db)
        out = [fa * x + fb * y for x, y in zip_longest(a, b, fillvalue=0)]
        while out and not out[-1]:
            out.pop()
        return _from_ints(out, g, m)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _poly(_neg(self.ints), self.scale)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly.ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 1:
            return _poly(tuple(_int_mul(a, b)), self.scale * other.scale)
        # times the constant b[0] * scale, b[0] = +-1
        if b[0] < 0:
            a = _neg(a)
        return _poly(a, self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        return self._divide(other, True, True)

    def __floordiv__(self, other):
        return self._divide(other, True, False)

    def __mod__(self, other):
        return self._divide(other, False, True)

    def _divide(self, other, quot: bool, rem: bool):
        """The quotient and the remainder of the division by ``other``, or the
        one of them asked for; only a returned part is normalized."""
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.ints, other.ints
        if not b:
            raise DivisionByZero("polynomial division by zero")
        if len(a) < len(b):
            q, r = Poly.ZERO, self
        else:
            iq, ir, m = _int_divmod(a, b)
            na, da = self.scale.numerator, self.scale.denominator * m
            nb, db = other.scale.numerator, other.scale.denominator
            q = _from_ints(iq, na * db, da * nb) if quot else None
            r = _from_ints(ir, na, da) if rem else None
        return (q, r) if quot and rem else (q if quot else r)

    def gcd(self, other) -> "Poly":
        """Monic gcd; zero only when both are zero.

        Runs on the primitive integer forms of both polynomials (Gauss's
        lemma: their gcd over Z is, up to a constant, the gcd over Q), by
        pseudo-remainders made primitive at each step.
        """
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return other.monic() if self.is_zero else self.monic()
        return _monic(_int_gcd(self.ints, other.ints))

    def lcm(self, other) -> "Poly":
        """Monic lcm, a / g * b on the integer forms: the primitive gcd g
        divides a exactly over Z, and the product is primitive."""
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly.ZERO
        a, b = self.ints, other.ints
        if len(a) == 1 or len(b) == 1:
            return (other if len(a) == 1 else self).monic()
        return _monic(_int_mul(_int_divmod(a, _int_gcd(a, b))[0], b))

    def xgcd(self, other):
        """Extended Euclid: return (g, s, t) with s*self + t*other = g, g monic."""
        a, b = self, _as_poly(other)
        sa, sb = Poly.const(1), Poly()
        ta, tb = Poly(), Poly.const(1)
        while not b.is_zero:
            q, r = divmod(a, b)
            a, b = b, r
            sa, sb = sb, sa - q * sb
            ta, tb = tb, ta - q * tb
        if a.is_zero:
            return a, sa, ta
        inv = Poly.const(1 / a.leading)
        return a.monic(), sa * inv, ta * inv

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        p = _monic(self.ints)
        return self if p.scale == self.scale and p.ints[-1] == self.ints[-1] else p

    def derivative(self) -> "Poly":
        s = self.scale
        return _from_ints([k * c for k, c in enumerate(self.ints)][1:], s.numerator, s.denominator)

    def __call__(self, x0) -> Fraction:
        # a/b: b^d p(a/b) over b^d
        x0 = _rat(x0)
        a, b = x0.numerator, x0.denominator
        acc = _value(self.ints, a, b)
        if b == 1 or not acc:
            return acc * self.scale
        return Fraction(acc, b ** (len(self.ints) - 1)) * self.scale

    def shift(self, x0) -> "Poly":
        """Return p(u + x0), the expansion around x0 in the local variable u."""
        x0 = _rat(x0)
        if not x0 or len(self.ints) < 2:
            return self
        # x0 = a/b, p = s * f: b^d p(u + x0) = s * g(b u + a) with the integer
        # list g(y) = b^d f(y / b), shifted by a in Horner's synthetic division
        f = self.ints
        a, b = x0.numerator, x0.denominator
        d = len(f) - 1
        g = [c * b ** (d - k) for k, c in enumerate(f)]
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                g[k] += a * g[k + 1]
        if b != 1:
            g = [c * b ** k for k, c in enumerate(g)]
        return _from_ints(g, self.scale.numerator, self.scale.denominator * b ** d)

    def substitute_power(self, m: int) -> "Poly":
        """Return p(t^m) as a polynomial in t."""
        if m < 1:
            raise ValueError("substitution exponent must be >= 1")
        if m == 1 or len(self.ints) < 2:
            return self
        out = [0] * (self.degree * m + 1)
        out[::m] = self.ints
        return _poly(tuple(out), self.scale)

    def __repr__(self):
        return f"Poly[{poly_str(self, 'x')}]"


Poly.ZERO = _poly((), _ONE)
Poly.ONE = _poly((1,), _ONE)


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return None


def _is_one(r: "RatFn") -> bool:
    return r.num.ints == (1,) and r.den.ints == (1,) and r.num.scale == 1


class RatFn:
    """Rational function num/den over Q with a canonical representation.

    Invariants: den is monic and nonzero, gcd(num, den) = 1, and the zero
    function is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is None or den is None:
            raise TypeError("RatFn components must be Poly or rational constants")
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        (nn, nd), (dn, dd) = num.scale.as_integer_ratio(), den.scale.as_integer_ratio()
        r = _pair_ratfn(num.ints, den.ints, nn * dd, nd * dn)
        self.num, self.den = r.num, r.den

    ZERO: "RatFn"
    ONE: "RatFn"

    @staticmethod
    def const(c) -> "RatFn":
        return _ratfn(Poly.const(c), Poly.ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return len(self.num.ints) <= 1 and len(self.den.ints) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self!r} is not constant")
        return self.num.coeff(0)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # den is monic, so its ints determine it
        return hash((self.num.ints, self.num.scale.numerator, self.num.scale.denominator, self.den.ints))

    def __add__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _ratfn(-self.num, self.den)

    def __mul__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatFn.ZERO
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int):
        # powers of a coprime pair are coprime and those of a monic
        # denominator are monic, so the result needs no gcd
        num, den = self.num, self.den
        if k < 0:
            if self.is_zero:
                raise DivisionByZero("zero to a negative power")
            scale = Poly.const(1 / num.leading)
            num, den, k = den * scale, num * scale, -k
        return _ratfn(num ** k, den ** k)

    def derivative(self) -> "RatFn":
        return RatFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x0) -> Fraction:
        x0 = _rat(x0)
        dv = self.den(x0)
        if dv == 0:
            raise PoleAtPoint(f"pole at {x0}")
        return self.num(x0) / dv

    def has_pole_at(self, x0) -> bool:
        return self.den(_rat(x0)) == 0

    def substitute_power(self, m: int) -> "RatFn":
        return RatFn(self.num.substitute_power(m), self.den.substitute_power(m))

    def __repr__(self):
        return f"RatFn[{ratfn_str(self, 'x')}]"


def _ratfn(num: Poly, den: Poly) -> RatFn:
    """The RatFn num/den for a num coprime to the monic den."""
    out = object.__new__(RatFn)
    out.num, out.den = num, den
    return out


RatFn.ZERO = _ratfn(Poly.ZERO, Poly.ONE)
RatFn.ONE = _ratfn(Poly.ONE, Poly.ONE)


def _as_ratfn(value):
    if isinstance(value, RatFn):
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return RatFn(_as_poly(value))
    return None


def as_ratfn(value) -> RatFn:
    out = _as_ratfn(value)
    if out is None:
        raise TypeError(f"cannot interpret {value!r} as a rational function")
    return out


def common_denominator(entries):
    """Return (den, nums) with entries[i] == nums[i] / den: den is the monic
    lcm of the denominators and nums[i] = num_i * (den // den_i), one exact
    division per distinct denominator."""
    dens = dict.fromkeys(e.den for e in entries)
    den = Poly.ONE
    for d in dens:
        den = den.lcm(d)
    cofactors = {d: den // d if d != den else Poly.ONE for d in dens}
    return den, [e.num * cofactors[e.den] for e in entries]


# ---------------------------------------------------------------------------
# Unnormalized pairs: (num, den) integer coefficient lists for num/den, den
# nonzero; zero is any ([], den).

_ZERO_PAIR = ([], [1])


def _cancel(a, b):
    """a and b divided by their primitive gcd when both are non-constant."""
    if len(a) > 1 and len(b) > 1:
        g = _int_gcd(a, b)
        if len(g) > 1:
            return _int_divmod(a, g)[0], _int_divmod(b, g)[0]
    return a, b


def _pair_ratfn(num, den, n: int = 1, d: int = 1) -> RatFn:
    """The RatFn n/d * num/den for integer lists num and den, den nonzero,
    and integers n, d > 0: the one Q(x) normalizer.  One primitive gcd, then
    one rescale to a monic denominator."""
    if not num:
        return RatFn.ZERO
    num, den = _cancel(num, den)
    sign, lead = (1, den[-1]) if den[-1] > 0 else (-1, -den[-1])
    return _ratfn(_from_ints(num, sign * n, d * lead), _from_ints(den, sign, lead))


def _ratfn_pair(r: RatFn):
    return tuple(_clear_all([r.num, r.den])[0]) if r.num.ints else _ZERO_PAIR


def _pair_add(p, q):
    """p + q over lcm(b, d) = (b/g) * d, g the primitive gcd of the
    denominators; no gcd when they are equal."""
    (a, b), (c, d) = p, q
    if b == d:
        return _int_add(a, c), b
    bg, dg = _cancel(b, d)
    return _int_add(_int_mul(a, dg), _int_mul(c, bg)), _int_mul(bg, d)


def _pair_neg(p):
    return [-c for c in p[0]], p[1]


def _pair_mul(p, q):
    """p * q with Henrici's cross-cancellation of gcd(a, d) and gcd(c, b)."""
    (a, b), (c, d) = p, q
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _int_mul(a, c), _int_mul(b, d)


# ---------------------------------------------------------------------------
# Parsing

# Bounds on hostile input.  Parentheses, unary signs and the arguments of a
# construction nest the recursive descent (up to six Python frames a level),
# and one power can multiply the degree and the coefficient size of its base
# by its exponent.  An integer literal may run a little past the
# interpreter's default 4,300-digit conversion limit, so that printed
# coefficients of that size re-parse.
_MAX_DEPTH = 100
_MAX_POWER_DEGREE = 1000
_MAX_POWER_BITS = 10_000
_MAX_LITERAL_DIGITS = 4_600

# Python refuses int <-> decimal conversions past sys.get_int_max_str_digits()
# (4,300 digits by default, never below 640); longer numbers are converted
# piecewise, in parts of at most 600 digits.
_CHUNK_DIGITS = 600
_CHUNK_BITS = 1_990  # 2^1990 < 10^600


def _int_from_digits(digits: str) -> int:
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int_from_digits(digits[:-k]) * 10 ** k + _int_from_digits(digits[-k:])


def _int_str(n: int) -> str:
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    high, low = divmod(n, 10 ** k)
    return _int_str(high) + _int_str(low).zfill(k)


def _quote(token) -> str:
    """``repr`` of a token (text or an int) for a parse error, or past 20
    characters that of its first 20 and its length: messages stay short."""
    text = token if isinstance(token, str) else _int_str(token)
    return repr(token) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()^+\-*/,]))"
)


def _tokenize(text: str):
    """Tokens ("int", value), ("name", text) and ("op", symbol) of an
    expression or a construction."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} at offset {len(text) - len(rest)}")
        if m.group("int") is not None:
            digits = m.group("int")
            if len(digits) > _MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal of {len(digits)} digits is too long "
                    f"(at most {_MAX_LITERAL_DIGITS})"
                )
            tokens.append(("int", _int_from_digits(digits)))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def check_var(var) -> None:
    """Raise ParseError unless ``var`` is one name token of ``_tokenize``: a
    variable of any other form prints values that do not re-parse."""
    m = _TOKEN_RE.fullmatch(var) if isinstance(var, str) else None
    if m is None or m.group("name") != var:
        raise ParseError(f"the variable must be a name, got {_quote(str(var))}")


class _Parser:
    """Recursive-descent core over ``_tokenize`` tokens: the cursor, the
    nesting bound and the end-of-input checks that both grammars share, the
    expressions here and ``constructions.parse_construction``.  ``noun``
    names the grammar in error messages."""

    noun = "expression"

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        if self.pos >= len(self.tokens):
            raise ParseError(f"unexpected end of {self.noun}")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect_op(self, symbol):
        kind, value = self.take()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r} in {self.noun}")

    def nested(self, parse_inner):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"{self.noun} nested deeper than {_MAX_DEPTH} levels")
        value = parse_inner()
        self.depth -= 1
        return value

    def whole(self, parse_inner):
        """parse_inner() over every token, with no trailing input."""
        value = parse_inner()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input after {self.noun}")
        return value


class _RatFnParser(_Parser):
    """Recursive descent for integers, one variable, + - * / ^ and parens.
    Subexpressions are unnormalized integer pairs; ``parse`` normalizes once."""

    def __init__(self, tokens, var):
        super().__init__(tokens)
        self.var = var

    def parse(self) -> RatFn:
        return _pair_ratfn(*self.whole(self.expr))

    def expr(self):
        value = self.term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.pos += 1
                rhs = self.term()
                value = _pair_add(value, rhs if op == "+" else _pair_neg(rhs))
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "*/":
                self.pos += 1
                rhs = self.factor()
                if op == "/":
                    if not rhs[0]:
                        raise ParseError("division by zero in expression")
                    rhs = rhs[::-1]
                value = _pair_mul(value, rhs)
            else:
                return value

    def factor(self):
        kind, op = self.peek()
        if kind == "op" and op in "+-":
            self.pos += 1
            inner = self.nested(self.factor)
            return inner if op == "+" else _pair_neg(inner)
        return self.power()

    def power(self):
        base = self.atom()
        kind, op = self.peek()
        if kind == "op" and op == "^":
            self.pos += 1
            ekind, evalue = self.take()
            if ekind != "int":
                raise ParseError("exponent must be a non-negative integer")
            base = _pair_ratfn(*base)
            coeffs = base.num.coeffs + base.den.coeffs
            degree = max(base.num.degree, base.den.degree)
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
            if evalue * degree > _MAX_POWER_DEGREE or evalue * bits > _MAX_POWER_BITS:
                raise ParseError(
                    f"power too large: a power may reach degree {_MAX_POWER_DEGREE} "
                    f"and coefficients of {_MAX_POWER_BITS} bits"
                )
            return _ratfn_pair(base ** evalue)
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "int":
            return [value] if value else [], [1]
        if kind == "name":
            if value != self.var:
                raise ParseError(
                    f"unknown symbol {_quote(value)}, expected variable {_quote(self.var)}"
                )
            return [0, 1], [1]
        if kind == "op" and value == "(":
            inner = self.nested(self.expr)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}")


def parse_ratfn(text: str, var: str = "x") -> RatFn:
    """Parse a rational function string such as ``(x^2+1)/(2*x)``."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _RatFnParser(tokens, var).parse()


def ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, with one gcd and no
    Fraction, also for numbers past the interpreter's digit limit."""
    g = math.gcd(num, den)
    if g == den:
        return _int_str(num // den)
    return f"{_int_str(num // g)}/{_int_str(den // g)}"


def rat_str(q: Fraction) -> str:
    """``str(q)``, also for numbers past the interpreter's digit limit."""
    return ratio_str(q.numerator, q.denominator)


# the constant syntax of Fraction(str): -3/2, 1.5, 2e-3, 1_000
_RAT_RE = re.compile(
    r"""\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<denom>\d+(_\d+)*))?|(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*""",
    re.VERBOSE | re.IGNORECASE,
)


def parse_rat(text) -> Fraction:
    """Parse an exact rational constant such as ``-3/2``, ``1.5`` or
    ``2e-3``; its digits plus its decimal exponent may not exceed
    ``_MAX_LITERAL_DIGITS``."""
    if isinstance(text, int):
        return Fraction(text)
    m = _RAT_RE.fullmatch(str(text))
    if m is None:
        raise ParseError(f"invalid rational constant {_quote(str(text))}")
    num, denom, decimal, exp = (
        (m.group(k) or "").replace("_", "") for k in ("num", "denom", "decimal", "exp")
    )
    exp_digits = exp.lstrip("+-").lstrip("0")
    shift = int(exp_digits or 0) if len(exp_digits) <= len(str(_MAX_LITERAL_DIGITS)) else None
    if shift is None or len(num + denom + decimal) + shift > _MAX_LITERAL_DIGITS:
        raise ParseError(
            f"rational constant too large: its digits and decimal exponent "
            f"may reach {_MAX_LITERAL_DIGITS}"
        )
    try:
        value = Fraction(
            _int_from_digits(num + decimal or "0"), _int_from_digits(denom or "1") * 10 ** len(decimal)
        )
    except ZeroDivisionError as exc:
        raise ParseError(f"invalid rational constant {_quote(str(text))}") from exc
    value *= Fraction(10) ** (-shift if exp.startswith("-") else shift)
    return -value if m.group("sign") == "-" else value


# ---------------------------------------------------------------------------
# Printing


def _terms_str(coeffs, var: str) -> str:
    """The sum of ``coeffs[k] * var^k`` (ints or Fractions, lowest degree
    first, the last nonzero), highest degree first; "0" when empty."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mag = rat_str(abs(c))
        if k == 0:
            body = mag
        elif mag == "1":
            body = var if k == 1 else f"{var}^{k}"
        else:
            body = f"{mag}*{var}" if k == 1 else f"{mag}*{var}^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def poly_str(p: Poly, var: str = "x") -> str:
    """Canonical string, highest degree first; reparses to the same value."""
    return _terms_str(p.coeffs, var)


def ratfn_str(r: RatFn, var: str = "x") -> str:
    """Canonical string form; integer-cleared num/den when den is nontrivial."""
    if r.den == Poly.ONE:
        return poly_str(r.num, var)
    (num, den), _ = _clear_all([r.num, r.den])
    return f"({_terms_str(num, var)})/({_terms_str(den, var)})"


# ---------------------------------------------------------------------------
# Root utilities


def _value(ints, y: int, l: int = 1, top: int | None = None, mod: int | None = None) -> int:
    """l^top * p(y/l) for the integer list p of degree at most top (by
    default its length less one), by Horner's rule on ints: with l = 1 the
    value of p at the integer y.  With ``mod``, p(y) mod ``mod`` (l and top
    unused), reduced at every step so that no partial sum outgrows it."""
    if mod is not None:
        acc = 0
        for c in reversed(ints):
            acc = (acc * y + c) % mod
        return acc
    acc, power = 0, 1 if top is None else l ** (top + 1 - len(ints))
    for c in reversed(ints):
        acc = acc * y + c * power
        power *= l
    return acc


def integer_roots(p: Poly):
    """Sorted integer roots of p, each once, found exactly at any size by
    p-adic Newton lifting (Loos 1983, SIAM J. Comput. 12, cut down to
    integer roots).

    p is cleared to a primitive integer list f; its factors of x give the
    root 0, so every other integer root z divides f(0), and |z| is at most
    Fujiwara's bound.  When every root of f mod 3 is simple, the roots are
    lifted on g = f itself.  Otherwise, since a repeated integer root is
    repeated mod every prime, they are lifted on the squarefree
    g = f/gcd(f, f'), which has the same roots, at the first odd prime q
    where every root of g mod q is simple.  z mod q is one of those roots;
    each is lifted, every Newton step evaluated mod m, to a modulus m above
    twice the smaller of |g(0)| and that bound, and its symmetric residue z
    is kept when it divides g(0) and g vanishes there.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every integer as a root")
    f = p.ints
    k = next(i for i, c in enumerate(f) if c)
    roots = [0] if k else []
    f = f[k:]
    if len(f) < 2:
        return roots
    g, dg = f, [i * c for i, c in enumerate(f)][1:]
    q = 3
    while True:
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            gq, dgq = [c % q for c in g], [c % q for c in dg]
            residues = [r for r in range(q) if _value(gq, r, mod=q) == 0]
            if all(_value(dgq, r, mod=q) for r in residues):
                break
            if g is f:
                # a repeated root mod q: from the same q, on the squarefree part
                g = _int_divmod(f, _int_gcd(f, dg))[0]
                dg = [i * c for i, c in enumerate(g)][1:]
                continue
        q += 2
    # Fujiwara's bound (1916): every root has modulus at most 2^(e+1) when
    # 2^(e*i) >= |g_(n-i)/g_n| for i = 1..n; |g_n| >= 2^lead and
    # |g_(n-i)| < 2^bit_length give such an e
    lead = abs(g[-1]).bit_length() - 1
    e = max([0] + [-((lead - abs(c).bit_length()) // i) for i, c in enumerate(reversed(g[:-1]), 1)])
    bound = 2 * min(abs(g[0]), 2 ** (e + 1))
    for r in residues:
        m = q
        while m <= bound:
            m *= m
            r = (r - _value(g, r, mod=m) * pow(_value(dg, r, mod=m), -1, m)) % m
        z = r - m if 2 * r > m else r
        if z and g[0] % z == 0 and _value(g, z) == 0:
            roots.append(z)
    return sorted(roots)


def rational_roots(p: Poly):
    """Sorted rational roots of p, each once.  With f = lead*x^d + ... the
    primitive integer form of p, lead > 0, the rational roots are y/lead for
    the integer roots y of its monic rescaling lead^(d-1) * f(y/lead)."""
    if p.is_zero:
        raise ValueError("zero polynomial has every rational as a root")
    f = p.ints if p.ints[-1] > 0 else _neg(p.ints)
    lead, d = f[-1], len(f) - 1
    monic = [c * lead ** (d - 1 - k) for k, c in enumerate(f[:-1])]
    return [Fraction(y, lead) for y in integer_roots(_poly((*monic, 1), _ONE))]


def squarefree_factors(p: Poly):
    """Yun decomposition: [(s_k, k)] with p = lc * prod s_k^k, the s_k monic,
    squarefree and pairwise coprime (characteristic zero)."""
    if p.degree < 1:
        return []
    f = p.monic()
    c = f.gcd(f.derivative())
    w = f // c
    y = f.derivative() // c
    factors = []
    k = 1
    while w.degree >= 1:
        z = y - w.derivative()
        g = w.gcd(z) if not z.is_zero else w
        if g.degree >= 1:
            factors.append((g, k))
        w = w // g
        y = z // g
        k += 1
    return factors


def _fraction_sqrt(q: Fraction):
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def poly_sqrt(p: Poly):
    """Exact square root of a polynomial over Q, or None.

    With p = lc * prod s_k^k (``squarefree_factors``), p is a square exactly
    when lc is the square of a rational and every k is even; its root with a
    positive leading coefficient is then sqrt(lc) * prod s_k^(k/2).
    """
    if p.is_zero:
        return Poly()
    lead = _fraction_sqrt(p.leading)
    if lead is None:
        return None
    root = Poly.const(lead)
    for s, k in squarefree_factors(p):
        if k % 2:
            return None
        root = root * s ** (k // 2)
    return root


def ratfn_sqrt(r: RatFn):
    """Exact square root of a rational function over Q, or None."""
    if r.is_zero:
        return RatFn.ZERO
    num = poly_sqrt(r.num)
    den = poly_sqrt(r.den)
    if num is None or den is None:
        return None
    return RatFn(num, den)
