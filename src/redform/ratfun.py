"""Exact arithmetic for univariate polynomials and rational functions over Q.

Values are immutable and normalized on construction: polynomials trim trailing
zero coefficients, rational functions keep a monic denominator coprime to the
numerator, and zero is represented as 0/1.  Two computation paths that reach
the same value therefore produce bit-identical representations.

A polynomial stores its coefficients as a tuple of ``Fraction``s, but the hot
kernels run on Python ints: :func:`_clear` writes a coefficient tuple as a
primitive integer list times one rational scale, and products, the gcd (a
primitive pseudo-remainder sequence over Z) and the normalization of a
rational function work on those lists and rescale once at the end.

Sums and products of several rational functions run on unnormalized pairs
(num, den) of integer lists: the expression parser carries one through each
entry and ``linalg`` one through each entry of a Q(x) matrix product.  Pairs
add over the lcm of their denominators and multiply with Henrici's
cross-cancellation; :func:`_pair_ratfn`, one primitive gcd and one rescale to
a monic denominator, is the one normalizer, also behind ``RatFn(num, den)``.

This module also owns the common-denominator integer form that the other
modules hand to their integer kernels: :func:`common_denominator` writes
rational functions over their monic lcm denominator, and :func:`_clear_all`
clears several polynomials to integer lists over one scale.

Polynomials and rational functions do not carry a variable name; the name is
supplied when parsing or printing (and by :class:`redform.systems.DiffSystem`
for whole systems).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import islice, zip_longest

from .errors import DivisionByZero, ParseError, PoleAtPoint


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational constant")


def _clear(coeffs):
    """Return (ints, scale) with coeffs[k] == ints[k] * scale, the ints
    coprime and scale > 0; a tuple of zeros gives zeros and scale 1."""
    lcm = math.lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    content = math.gcd(*ints) or 1
    if content != 1:
        ints = [a // content for a in ints]
    return ints, Fraction(content, lcm)


def _clear_all(polys):
    """Return (int_lists, scale) with polys[i].coeffs[k] ==
    int_lists[i][k] * scale: the coefficients of all polys cleared together
    by one :func:`_clear`."""
    ints, scale = _clear([c for p in polys for c in p.coeffs])
    it = iter(ints)
    return [list(islice(it, len(p.coeffs))) for p in polys], scale


def _scaled(ints, scale: Fraction) -> tuple:
    """The Fractions ints[k] * scale."""
    n, d = scale.numerator, scale.denominator
    if d == 1:
        return tuple([Fraction(n * a) for a in ints])
    return tuple([Fraction(n * a, d) for a in ints])


def _prem(a, b):
    """A nonzero multiple of the remainder of a by b over Q, on integer
    coefficient lists (lowest degree first, b with a nonzero leading one).
    Each step scales by lc(b)/g instead of lc(b), g = gcd(lc(b), lc(r))."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    while len(r) > n:
        lr = r.pop()
        g = math.gcd(lr, lb)
        fr, fb = lb // g, lr // g
        s = len(r) - n
        if fr != 1:
            r = [fr * c for c in r]
        for j in range(n):
            r[s + j] -= fb * b[j]
        while r and not r[-1]:
            r.pop()
    return r


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
        r = _prem(a, b)
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
    """Quotient and remainder of integer coefficient lists, for b dividing a
    exactly or a scaled by lc(b)^(len(a) - len(b) + 1) (pseudo-division)."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    q = [0] * (len(r) - n)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n] // lb
        if c:
            for j in range(n):
                r[k + j] -= c * b[j]
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return q, r


class Poly:
    """Dense univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _unchecked(coeffs: tuple) -> "Poly":
        # a tuple of Fractions whose last entry is nonzero
        p = Poly.__new__(Poly)
        p.coeffs = coeffs
        return p

    @staticmethod
    def const(c) -> "Poly":
        return Poly((_rat(c),))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def monomial(c, k: int) -> "Poly":
        return Poly((0,) * k + (_rat(c),))

    ZERO: "Poly"
    ONE: "Poly"

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) - other.coeff(k) for k in range(n)))

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        p, q = (self, other) if len(self.coeffs) >= len(other.coeffs) else (other, self)
        if len(q.coeffs) == 1:
            c = q.coeffs[0]
            return p if c == 1 else Poly._unchecked(tuple([a * c for a in p.coeffs]))
        ia, sa = _clear(p.coeffs)
        ib, sb = _clear(q.coeffs)
        return Poly._unchecked(_scaled(_int_mul(ia, ib), sa * sb))

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
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        if len(other.coeffs) == 1:
            return self * (1 / other.coeffs[0]), Poly()
        # pseudo-division of the integer forms: after scaling the dividend
        # by lb^(dq+1) every quotient coefficient is an exact integer
        ia, sa = _clear(self.coeffs)
        ib, sb = _clear(other.coeffs)
        scale = ib[-1] ** (dq + 1)
        quot, rem = _int_divmod([a * scale for a in ia], ib)
        sa = sa / scale
        return Poly._unchecked(_scaled(quot, sa / sb)), Poly._unchecked(_scaled(rem, sa))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other) -> bool:
        if self.is_zero:
            return _as_poly(other).is_zero
        return (_as_poly(other) % self).is_zero

    def gcd(self, other) -> "Poly":
        """Monic gcd; zero only when both are zero.

        Runs on the primitive integer forms of both polynomials (Gauss's
        lemma: their gcd over Z is, up to a constant, the gcd over Q), by
        pseudo-remainders made primitive at each step.
        """
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return other.monic() if self.is_zero else self.monic()
        g = _int_gcd(_clear(self.coeffs)[0], _clear(other.coeffs)[0])
        return Poly._unchecked(tuple(Fraction(c, g[-1]) for c in g))

    def lcm(self, other) -> "Poly":
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly()
        if self.degree == 0 or other.degree == 0:
            return (other if self.degree == 0 else self).monic()
        g = self.gcd(other)
        return ((self * other) // g).monic()

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
        lead = a.leading
        inv = Poly.const(1 / lead)
        return a.monic(), sa * inv, ta * inv

    def monic(self) -> "Poly":
        if self.is_zero or self.leading == 1:
            return self
        inv = 1 / self.leading
        return Poly(tuple(c * inv for c in self.coeffs))

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def __call__(self, x0) -> Fraction:
        x0 = _rat(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def shift(self, x0) -> "Poly":
        """Return p(u + x0), the expansion around x0 in the local variable u."""
        x0 = _rat(x0)
        if not x0 or len(self.coeffs) < 2:
            return self
        # x0 = a/b, p = s * f: b^d p(u + x0) = s * g(b u + a) with the integer
        # list g(y) = b^d f(y / b), shifted by a in Horner's synthetic division
        f, s = _clear(self.coeffs)
        a, b = x0.numerator, x0.denominator
        d = len(f) - 1
        g = [c * b ** (d - k) for k, c in enumerate(f)]
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                g[k] += a * g[k + 1]
        n, m = s.numerator, s.denominator
        return Poly._unchecked(tuple([Fraction(n * c, m * b ** (d - k)) for k, c in enumerate(g)]))

    def substitute_power(self, m: int) -> "Poly":
        """Return p(t^m) as a polynomial in t."""
        if m < 1:
            raise ValueError("substitution exponent must be >= 1")
        if self.is_zero:
            return self
        out = [Fraction(0)] * (self.degree * m + 1)
        for k, c in enumerate(self.coeffs):
            out[k * m] = c
        return Poly(out)

    def __repr__(self):
        return f"Poly[{poly_str(self, 'x')}]"


Poly.ZERO = Poly()
Poly.ONE = Poly.const(1)


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return None


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
        if num.is_zero:
            num, den = Poly(), Poly.ONE
        elif num.degree > 0 and den.degree > 0:
            r = _pair_ratfn(*_clear_all([num, den])[0])
            num, den = r.num, r.den
        elif den.coeffs[-1] != 1:
            lead = den.coeffs[-1]
            num, den = num * (1 / lead), den * (1 / lead)
        self.num, self.den = num, den

    ZERO: "RatFn"
    ONE: "RatFn"

    @staticmethod
    def const(c) -> "RatFn":
        return RatFn(Poly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den == Poly.ONE

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
        return hash(("RatFn", self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        return RatFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        out = RatFn.__new__(RatFn)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfn(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        # powers of a coprime pair are coprime and those of a monic
        # denominator are monic, so the result needs no gcd
        num, den = self.num, self.den
        if k < 0:
            if self.is_zero:
                raise DivisionByZero("zero to a negative power")
            scale = Poly.const(1 / num.leading)
            num, den, k = den * scale, num * scale, -k
        out = RatFn.__new__(RatFn)
        out.num, out.den = num ** k, den ** k
        return out

    def inverse(self) -> "RatFn":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        return RatFn(self.den, self.num)

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


RatFn.ZERO = RatFn(Poly())
RatFn.ONE = RatFn(Poly.ONE)


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


def _cancel(a, b):
    """a and b divided by their primitive gcd when both are non-constant."""
    if len(a) > 1 and len(b) > 1:
        g = _int_gcd(a, b)
        if len(g) > 1:
            return _int_divmod(a, g)[0], _int_divmod(b, g)[0]
    return a, b


def _pair_ratfn(num, den) -> RatFn:
    """The RatFn num/den: the one Q(x) normalizer.  One primitive gcd, then
    one rescale to a monic denominator."""
    if not num:
        return RatFn.ZERO
    num, den = _cancel(num, den)
    scale = Fraction(1, den[-1])
    out = RatFn.__new__(RatFn)
    out.num = Poly._unchecked(_scaled(num, scale))
    out.den = Poly._unchecked(_scaled(den, scale))
    return out


def _ratfn_pair(r: RatFn):
    return tuple(_clear_all([r.num, r.den])[0])


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
# Operation surface


def rf_arith(a: RatFn, b: RatFn, op: str) -> RatFn:
    """Exact field arithmetic; ``op`` is one of add, sub, mul, div."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def rf_diff(a: RatFn) -> RatFn:
    return a.derivative()


def rf_eval(a: RatFn, x0) -> Fraction:
    return a(x0)


def rf_substitute_power(a: RatFn, m: int) -> RatFn:
    return a.substitute_power(m)


# ---------------------------------------------------------------------------
# Parsing

# Bounds on hostile input.  Parentheses and unary signs nest the recursive
# descent (up to six Python frames a level), and one power can multiply the
# degree and the coefficient size of its base by its exponent.  An integer
# literal may run a little past the interpreter's default 4,300-digit
# conversion limit, so that printed coefficients of that size re-parse.
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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()^+\-*/]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ParseError(f"unexpected character {tail[0]!r} in {text!r}")
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


class _RatFnParser:
    """Recursive descent for integers, one variable, + - * / ^ and parens.
    Subexpressions are unnormalized integer pairs; ``parse`` normalizes once."""

    def __init__(self, tokens, var):
        self.tokens = tokens
        self.var = var
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value = self.take()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}")

    def nested(self, parse_inner):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels")
        value = parse_inner()
        self.depth -= 1
        return value

    def parse(self) -> RatFn:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError("trailing input after expression")
        return _pair_ratfn(*value)

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
                    f"unknown symbol {value!r}, expected variable {self.var!r}"
                )
            return [0, 1], [1]
        if kind == "op" and value == "(":
            inner = self.nested(self.expr)
            self.expect_op(")")
            return inner
        raise ParseError("unexpected end of expression" if kind is None else f"unexpected token {value!r}")


def parse_ratfn(text: str, var: str = "x") -> RatFn:
    """Parse a rational function string such as ``(x^2+1)/(2*x)``."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _RatFnParser(tokens, var).parse()


def rat_str(q: Fraction) -> str:
    """``str(q)``, also for numbers past the interpreter's digit limit."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


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
        raise ParseError(f"invalid rational constant {text!r}")
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
        raise ParseError(f"invalid rational constant {text!r}") from exc
    value *= Fraction(10) ** (-shift if exp.startswith("-") else shift)
    return -value if m.group("sign") == "-" else value


# ---------------------------------------------------------------------------
# Printing


def poly_str(p: Poly, var: str = "x") -> str:
    """Canonical string, highest degree first; reparses to the same value."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
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


def ratfn_str(r: RatFn, var: str = "x") -> str:
    """Canonical string form; integer-cleared num/den when den is nontrivial."""
    if r.is_zero:
        return "0"
    if r.den == Poly.ONE:
        return poly_str(r.num, var)
    (num, den), _ = _clear_all([r.num, r.den])
    return f"({poly_str(Poly(num), var)})/({poly_str(Poly(den), var)})"


# ---------------------------------------------------------------------------
# Root utilities


def _horner(ints, x):
    """Value at the integer x of an integer coefficient list."""
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def integer_roots(p: Poly):
    """Sorted integer roots of p, each once, found exactly at any size by
    p-adic Newton lifting (Loos 1983, SIAM J. Comput. 12, cut down to
    integer roots).

    p is cleared to a primitive integer list f; its factors of x give the
    root 0.  Then g = f/gcd(f, f') is squarefree with g(0) != 0, so every
    other integer root z divides g(0).  At the first odd prime q where every
    root of g mod q is simple, z mod q is one of those roots; each is lifted
    to a modulus m > 2|g(0)|, and its symmetric residue is kept when g
    vanishes there.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every integer as a root")
    f, _ = _clear(p.coeffs)
    k = next(i for i, c in enumerate(f) if c)
    roots = [0] if k else []
    f = f[k:]
    if len(f) < 2:
        return roots
    g = _int_divmod(f, _int_gcd(f, [i * c for i, c in enumerate(f)][1:]))[0]
    dg = [i * c for i, c in enumerate(g)][1:]
    q = 3
    while True:
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            residues = [r for r in range(q) if _horner(g, r) % q == 0]
            if all(_horner(dg, r) % q for r in residues):
                break
        q += 2
    bound = 2 * abs(g[0])
    for r in residues:
        m = q
        while m <= bound:
            m *= m
            r = (r - _horner(g, r) * pow(_horner(dg, r), -1, m)) % m
        z = r - m if 2 * r > m else r
        if _horner(g, z) == 0:
            roots.append(z)
    return sorted(roots)


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
