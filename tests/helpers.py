"""Shared fixtures and random generators for the test suite."""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from redform import (
    DiffSystem,
    ParseError,
    LieBasis,
    Mat,
    Poly,
    QQ,
    RF,
    RatFn,
    TruncSeries,
    constr_group,
    matrix,
    parse_construction,
    parse_ratfn,
    system,
)
from redform import ratfun
from redform.ratfun import ratfn_sqrt

END = parse_construction("tensor(base,dual(base))")


def rf(text, var="x"):
    return parse_ratfn(text, var)


def demo_system() -> DiffSystem:
    """The worked 2x2 system with an irrational exponential behavior."""
    return system("x", [["0", "1"], ["x", "1/(2*x)"]])


def weighted_swap() -> Mat:
    """The x-weighted swap endomorphism spanning a stable line in End."""
    return matrix("x", [["0", "1/x"], ["1", "0"]])


def diag_basis() -> LieBasis:
    return LieBasis(2, (Mat(QQ, [[1, 0], [0, -1]]),))


def reduced_demo() -> DiffSystem:
    return system("t", [["2*t^2", "0"], ["0", "-2*t^2"]])


# ---------------------------------------------------------------------------
# Random generators (seeded rng passed in by each test)

_COEFF_POOL = [-2, -1, -1, 1, 1, 2, 0, 3, Fraction(1, 2)]
_DEN_POOL = ["1", "1", "x", "x+1", "x-1"]


def rand_fraction(rng):
    return Fraction(rng.choice(_COEFF_POOL))


def rand_poly(rng, max_deg=2):
    deg = rng.randint(0, max_deg)
    return Poly([rand_fraction(rng) for _ in range(deg + 1)])


def rand_ratfn(rng, max_deg=2, var="x"):
    num = rand_poly(rng, max_deg)
    den = rf(rng.choice(_DEN_POOL), var).num
    return RatFn(num, den)


def rand_matrix(rng, n, max_deg=2, density=0.8):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < density:
                row.append(rand_ratfn(rng, max_deg))
            else:
                row.append(RatFn.ZERO)
        rows.append(row)
    return Mat(RF, rows)


def rand_invertible(rng, n, ops=None):
    """Random invertible matrix over the rational functions, built from
    elementary operations so the inverse stays cheap to compute."""
    p = [[RatFn.ONE if i == j else RatFn.ZERO for j in range(n)] for i in range(n)]
    if ops is None:
        ops = n + 2
    for _ in range(ops):
        kind = rng.randint(0, 2)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            factor = rand_ratfn(rng, 1)
            p[i] = [a + factor * b for a, b in zip(p[i], p[j])]
        elif kind == 1:
            scale = Fraction(rng.choice([1, 2, -1, 3, Fraction(1, 2)]))
            p[i] = [a * scale for a in p[i]]
        else:
            p[i], p[j] = p[j], p[i]
    return Mat(RF, p)


def rand_constant_matrix(rng, n):
    return Mat(QQ, [[rand_fraction(rng) for _ in range(n)] for _ in range(n)])


def rand_ordinary_system(rng, n, x0, max_deg=2):
    from redform import is_ordinary_point

    while True:
        sys_ = system("x", rand_matrix(rng, n, max_deg).data)
        if is_ordinary_point(sys_, x0):
            return sys_


def const_vec(values):
    return tuple(RatFn.const(v) for v in values)


# ---------------------------------------------------------------------------
# A tiny independent Gaussian elimination over Fraction or RatFn rows, used
# as an oracle where the production solver must not check itself.


def oracle_rref(rows):
    """Reduced row echelon form and pivot columns of a matrix over Q or Q(x)
    given as a list of row lists, by dense Gauss-Jordan elimination with
    field division; entries other than ``RatFn`` are taken as Fractions."""
    work = [[a if isinstance(a, RatFn) else Fraction(a) for a in r] for r in rows]
    cols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, len(work)) if work[k][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        work[r] = [a / pv for a in work[r]]
        for k in range(len(work)):
            if k != r and work[k][c] != 0:
                f = work[k][c]
                work[k] = [a - f * b for a, b in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def oracle_nullspace(rows):
    """Null space basis of a Fraction matrix given as a list of row lists."""
    if not rows:
        return []
    work, pivots = oracle_rref(rows)
    cols = len(work[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for rr, p in enumerate(pivots):
            vec[p] = -work[rr][f]
        basis.append(vec)
    return basis


def oracle_det(rows):
    """Determinant of a square matrix of Fractions or RatFns (or any
    commutative ring elements) by Laplace expansion along the first row."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * a * oracle_det(minor)
    return total


def oracle_poly_gcd(a, b):
    """Monic gcd of two polynomials by the Euclidean remainder sequence over
    Q, each remainder made monic; zero only when both are zero."""
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b = b.monic()
    return a.monic() if not a.is_zero else a


def oracle_poly_mul(a, b):
    """Product of two polynomials by the schoolbook convolution on Fractions."""
    if a.is_zero or b.is_zero:
        return Poly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(out)


def oracle_poly_sqrt(p):
    """Square root of a polynomial with a positive leading coefficient, or
    None: the top half of the root's coefficients from matching those of
    root^2 one at a time, then a trial squaring."""
    if p.is_zero:
        return Poly()
    if p.degree % 2 != 0 or p.leading < 0:
        return None
    lead_num, lead_den = math.isqrt(p.leading.numerator), math.isqrt(p.leading.denominator)
    if lead_num ** 2 != p.leading.numerator or lead_den ** 2 != p.leading.denominator:
        return None
    lead = Fraction(lead_num, lead_den)
    half = p.degree // 2
    root = [Fraction(0)] * (half + 1)
    root[half] = lead
    for k in range(half - 1, -1, -1):
        # match the coefficient of x^(k + half) in root^2
        acc = Fraction(0)
        for i in range(k + 1, half + 1):
            j = k + half - i
            if 0 <= j <= half:
                acc += root[i] * root[j]
        root[k] = (p.coeff(k + half) - acc) / (2 * lead)
    candidate = Poly(root)
    return candidate if oracle_poly_mul(candidate, candidate) == p else None


def oracle_eigenvalues_2x2(m):
    """Eigenvalues (tr +- sqrt(disc))/2 of a 2x2 matrix over Q(x) by the
    quadratic formula, or None when they are not rational functions."""
    (a, b), (c, d) = m.data
    tr = a + d
    root = ratfn_sqrt(tr * tr - RatFn.const(4) * (a * d - b * c))
    if root is None:
        return None
    half = RatFn.const(Fraction(1, 2))
    return [(tr + root) * half, (tr - root) * half]


def oracle_sym_group(s, r):
    """r-th symmetric power of the map with matrix s in the monomial basis:
    column beta expanded into every product of one entry per slot."""
    ring, d = s.ring, s.rows
    labels = list(combinations_with_replacement(range(d), r))
    index = {lbl: i for i, lbl in enumerate(labels)}
    out = [[ring.zero for _ in labels] for _ in labels]
    for col, beta in enumerate(labels):
        supports = [[k for k in range(d) if s.data[k][b] != ring.zero] for b in beta]
        for ks in product(*supports):
            coeff = ring.one
            for k, b in zip(ks, beta):
                coeff = coeff * s.data[k][b]
            row = index[tuple(sorted(ks))]
            out[row][col] = out[row][col] + coeff
    return Mat(ring, out)


def oracle_sym_lie(m, r):
    """r-th symmetric power of the derivation with matrix m: column beta is
    the sum over slots j of beta with slot j replaced by each k."""
    ring, d = m.ring, m.rows
    labels = list(combinations_with_replacement(range(d), r))
    index = {lbl: i for i, lbl in enumerate(labels)}
    out = [[ring.zero for _ in labels] for _ in labels]
    for col, beta in enumerate(labels):
        for j in range(r):
            for k in range(d):
                target = list(beta)
                target[j] = k
                row = index[tuple(sorted(target))]
                out[row][col] = out[row][col] + m.data[k][beta[j]]
    return Mat(ring, out)


def oracle_ext_group(s, r):
    """r-th exterior power of the map with matrix s: the r x r minors, each
    by Laplace expansion."""
    labels = list(combinations(range(s.rows), r))
    return Mat(
        s.ring,
        [[oracle_det([[s.data[i][j] for j in cols] for i in rows]) for cols in labels] for rows in labels],
    )


def oracle_ext_lie(m, r):
    """r-th exterior power of the derivation with matrix m: slot j of the
    increasing tuple replaced by k outside the rest, signed by the number of
    transpositions that move k back into increasing position."""
    ring, d = m.ring, m.rows
    labels = list(combinations(range(d), r))
    index = {lbl: i for i, lbl in enumerate(labels)}
    out = [[ring.zero for _ in labels] for _ in labels]
    for col, jtuple in enumerate(labels):
        for j in range(r):
            rest = jtuple[:j] + jtuple[j + 1 :]
            for k in range(d):
                if k in rest:
                    continue
                coeff = m.data[k][jtuple[j]]
                pos = sum(1 for e in rest if e < k)
                row = index[tuple(sorted(rest + (k,)))]
                out[row][col] = out[row][col] - coeff if (j - pos) % 2 else out[row][col] + coeff
    return Mat(ring, out)


def oracle_poly_shift(p, x0):
    """p(u + x0) by Horner's rule on ``Poly`` products."""
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = acc * Poly([x0, 1]) + Poly.const(c)
    return acc


def oracle_poly_divmod(a, b):
    """Quotient and remainder of a by a nonzero b by long division on the
    Fraction coefficients."""
    rem = list(a.coeffs)
    db = b.degree
    if len(rem) <= db:
        return Poly(), a
    quot = [Fraction(0)] * (len(rem) - db)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + db] / b.leading
        for j, y in enumerate(b.coeffs):
            rem[k + j] -= c * y
    return Poly(quot), Poly(rem[:db])


class _OracleParser(ratfun._RatFnParser):
    """The grammar of ``parse_ratfn`` with full ``RatFn`` arithmetic,
    normalized after every operation; only the token handling and the depth
    bound are inherited."""

    def parse(self) -> RatFn:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError("trailing input after expression")
        return value

    def expr(self) -> RatFn:
        value = self.term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.pos += 1
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> RatFn:
        value = self.factor()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "*/":
                self.pos += 1
                rhs = self.factor()
                if op == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero in expression")
                    value = value / rhs
            else:
                return value

    def factor(self) -> RatFn:
        kind, op = self.peek()
        if kind == "op" and op in "+-":
            self.pos += 1
            inner = self.nested(self.factor)
            return inner if op == "+" else -inner
        return self.power()

    def power(self) -> RatFn:
        base = self.atom()
        kind, op = self.peek()
        if kind == "op" and op == "^":
            self.pos += 1
            ekind, evalue = self.take()
            if ekind != "int":
                raise ParseError("exponent must be a non-negative integer")
            coeffs = base.num.coeffs + base.den.coeffs
            degree = max(base.num.degree, base.den.degree)
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
            if evalue * degree > ratfun._MAX_POWER_DEGREE or evalue * bits > ratfun._MAX_POWER_BITS:
                raise ParseError(
                    f"power too large: a power may reach degree {ratfun._MAX_POWER_DEGREE} "
                    f"and coefficients of {ratfun._MAX_POWER_BITS} bits"
                )
            return base ** evalue
        return base

    def atom(self) -> RatFn:
        kind, value = self.take()
        if kind == "int":
            return RatFn.const(value)
        if kind == "name":
            if value != self.var:
                raise ParseError(
                    f"unknown symbol {value!r}, expected variable {self.var!r}"
                )
            return RatFn(Poly.x())
        if kind == "op" and value == "(":
            inner = self.nested(self.expr)
            self.expect_op(")")
            return inner
        raise ParseError("unexpected end of expression" if kind is None else f"unexpected token {value!r}")


def oracle_parse_ratfn(text, var="x"):
    """``parse_ratfn`` with the same bounds and errors, on ``RatFn`` values."""
    tokens = ratfun._tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _OracleParser(tokens, var).parse()


def oracle_integer_roots(p):
    """Integer roots of a nonzero polynomial by divisor enumeration: clear it
    to coprime integers, strip the factors of x (0 is then a root), and test
    every divisor of the trailing coefficient, up to |a0| = 10^8, by exact
    evaluation on Fractions."""
    scale = 1
    for c in p.coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    ints = [int(c * scale) for c in p.coeffs]
    content = math.gcd(*ints)
    ints = [a // content for a in ints]
    roots = {0} if ints[0] == 0 else set()
    while ints[0] == 0:
        ints.pop(0)
    a0 = abs(ints[0])
    if a0 > 10 ** 8:
        raise ValueError("trailing coefficient too large for the oracle")
    if len(ints) > 1:
        for d in range(1, math.isqrt(a0) + 1):
            if a0 % d == 0:
                for z in (d, -d, a0 // d, -a0 // d):
                    if p(z) == 0:
                        roots.add(z)
    return sorted(roots)


def oracle_ansatz_rows(sys_, den, cap):
    """Coefficient rows of the rational-solution ansatz u/den, deg u <= cap,
    as dense Fraction lists, assembled from polynomial products.

    With P = clear*den*B a polynomial matrix, lead_a = clear*den and
    lead_b = clear*den', unknown u_(j,s) contributes to equation i the
    polynomial -P_ij*x^s + [i=j]*(s*lead_a*x^(s-1) - lead_b*x^s); row (i, k)
    holds the x^k coefficients, for k up to the largest degree of any such
    polynomial (at least 0)."""
    n = sys_.n
    scaled = sys_.mat.map_entries(lambda e: e * RatFn(den))
    clear = Poly.ONE
    for row in scaled.data:
        for e in row:
            clear = clear.lcm(e.den)
    poly_system = [[(e * RatFn(clear)).num for e in row] for row in scaled.data]
    lead_a = clear * den
    lead_b = clear * den.derivative()
    columns = []
    max_deg = 0
    for j in range(n):
        for s in range(cap + 1):
            eq_entries = []
            for i in range(n):
                poly = -(poly_system[i][j] * Poly.monomial(1, s))
                if i == j:
                    if s >= 1:
                        poly = poly + lead_a * Poly.monomial(s, s - 1)
                    poly = poly - lead_b * Poly.monomial(1, s)
                eq_entries.append(poly)
                max_deg = max(max_deg, poly.degree)
            columns.append(eq_entries)
    return [[col[i].coeff(k) for col in columns] for i in range(n) for k in range(max_deg + 1)]


def oracle_fundamental_series(sys_, x0, order):
    """Coefficient matrices C_0 = Id, ..., C_(order-1) of the normalized
    fundamental series at x0 by the full Taylor convolution
    (k+1)*C_(k+1) = sum_(i<=k) A_i*C_(k-i), with the A_i the Taylor
    coefficients of the entries of the system matrix from
    ``TruncSeries.from_ratfn``."""
    taylor_order = max(order - 1, 1)
    a_series = [
        [TruncSeries.from_ratfn(e, x0, taylor_order) for e in row] for row in sys_.mat.data
    ]
    a_coeffs = [
        Mat(QQ, [[e.coeff(k) for e in row] for row in a_series])
        for k in range(taylor_order)
    ]
    cs = [Mat.identity(QQ, sys_.n)]
    for k in range(order - 1):
        acc = Mat.zeros(QQ, sys_.n, sys_.n)
        for i in range(k + 1):
            acc = acc + a_coeffs[i] * cs[k - i]
        cs.append(acc.scale(Fraction(1, k + 1)))
    return cs


def series_poly_matrix(coeffs):
    """The truncated series sum C_k*u^k of coefficient matrices over Q as one
    matrix over Q(u) of polynomials in the local variable u = x - x0."""
    n, m = coeffs[0].rows, coeffs[0].cols
    return Mat(RF, [[RatFn(Poly([c.data[i][j] for c in coeffs])) for j in range(m)] for i in range(n)])


def truncated_coeffs(m, order):
    """The coefficient matrices of u^0, ..., u^(order-1) of the Taylor
    expansion at u = 0 of a matrix over Q(u)."""
    polys = [
        [e.num if e.den == Poly.ONE else Poly(TruncSeries.from_ratfn(e, 0, order).coeffs) for e in row]
        for row in m.data
    ]
    return [Mat(QQ, [[p.coeff(k) for p in row] for row in polys]) for k in range(order)]


def constr_series_agrees(c, u, uc):
    """Whether the coefficient matrices ``uc`` are those of Constr(U) through
    the truncation, U given by the coefficient matrices ``u`` with U(x0) = Id.

    For tensor(base,dual(base)), Constr(U) is U (x) U^-T; instead of
    inverting U over Q(u) the check is Uc*(I (x) U^T) == U (x) I mod
    u^order, equivalent because I (x) U^T is invertible mod u^order.  Any
    other construction is compared with ``constr_group`` of the polynomial
    matrix U, expanded at u = 0."""
    order = len(u)
    big, poly = series_poly_matrix(uc), series_poly_matrix(u)
    if c == END:
        eye = Mat.identity(RF, poly.rows)
        lhs, rhs = big * eye.kron(poly.transpose()), poly.kron(eye)
    else:
        lhs, rhs = big, constr_group(c, poly)
    return truncated_coeffs(lhs, order) == truncated_coeffs(rhs, order)
