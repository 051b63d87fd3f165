"""Linear-algebra construction functors at group and Lie-algebra level.

A construction is an expression tree over base, dual, tensor, sym(r), ext(r)
and dsum.  For an invertible matrix P, ``constr_group`` returns the matrix of
the induced map on the construction in its canonical basis; for an arbitrary
square matrix N, ``constr_lie`` returns the matrix of the induced derivation.
``constr_group`` is a group morphism, ``constr_lie`` a Lie-algebra morphism,
and the two are compatible: d/de constr_group(I + e*N) = constr_lie(N).

Canonical basis orders (fixed so every matrix is reproducible bit-exactly):

* tensor(c1, c2): pairs (i, j) in row-major lexicographic order, index
  i*dim(c2) + j;
* sym(r, c): non-decreasing index tuples in lexicographic order (monomial
  basis, no multinomial normalization);
* ext(r, c): strictly increasing index tuples in lexicographic order;
* dsum(c1, c2): the basis of c1 followed by the basis of c2;
* dual(c): the dual basis, indexed like the basis of c.

The endomorphism space is identified with tensor(base, dual(base)) through
row-major matrix flattening; this is the only built-in identification between
isomorphic constructions.

Both levels build sym(r) and ext(r) with the one routine ``_power``: the
group level expands the image of a basis tuple one slot at a time, the Lie
level replaces one slot at a time, and ``_place`` sorts (and for ext signs)
each resulting index tuple.  ``constr_dim`` owns the size of a
construction and bounds it; ``constr_vector`` checks a coordinate vector
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import DimensionMismatch, InvalidArity, ParseError
from .linalg import Mat
from .ratfun import _Parser, _quote, _tokenize


class _Node:
    """A construction node: ``name`` is its constructor in the text form and
    its dataclass fields, in order, are the constructor's arguments; the
    field ``r`` is a power of at least 1, every other one a construction."""

    name = ""

    def __post_init__(self):
        if getattr(self, "r", 1) < 1:
            raise InvalidArity(f"{self.name} power must be >= 1")

    def __str__(self):
        args = [str(getattr(self, f.name)) for f in fields(self)]
        return f"{self.name}({','.join(args)})" if args else self.name


@dataclass(frozen=True)
class Base(_Node):
    name = "base"


@dataclass(frozen=True)
class Dual(_Node):
    name = "dual"
    child: "Construction"


@dataclass(frozen=True)
class Tensor(_Node):
    name = "tensor"
    left: "Construction"
    right: "Construction"


@dataclass(frozen=True)
class Sym(_Node):
    name = "sym"
    r: int
    child: "Construction"


@dataclass(frozen=True)
class Ext(_Node):
    name = "ext"
    r: int
    child: "Construction"


@dataclass(frozen=True)
class DirectSum(_Node):
    name = "dsum"
    left: "Construction"
    right: "Construction"


Construction = Base | Dual | Tensor | Sym | Ext | DirectSum

END_CONSTRUCTION = Tensor(Base(), Dual(Base()))


# ---------------------------------------------------------------------------
# Parsing

_CONSTRUCTORS = {cls.name: cls for cls in (Base, Dual, Tensor, Sym, Ext, DirectSum)}


class _ConstructionParser(_Parser):
    noun = "construction expression"

    def node(self) -> Construction:
        kind, name = self.take()
        if kind != "name":
            raise ParseError(f"expected a constructor name, got {_quote(name)}")
        if name not in _CONSTRUCTORS:
            raise ParseError(f"unknown constructor {_quote(name)}")
        cls = _CONSTRUCTORS[name]
        args = []
        for k, slot in enumerate(fields(cls)):
            self.expect_op("," if k else "(")
            if slot.name != "r":
                args.append(self.nested(self.node))
                continue
            kind, r = self.take()
            if kind != "int" or r < 1:
                raise ParseError(f"{name} needs a positive integer power")
            args.append(r)
        if args:
            self.expect_op(")")
        return cls(*args)


def parse_construction(text: str) -> Construction:
    """Parse strings like ``tensor(base,dual(base))`` or ``ext(2,base)``,
    with the tokens and bounds of ``parse_ratfn``: at most 100 levels of
    nesting and 4,600-digit powers."""
    parser = _ConstructionParser(_tokenize(text))
    return parser.whole(parser.node)


# ---------------------------------------------------------------------------
# Dimensions and basis labels


# the largest sym/ext power; every node of a construction on an
# n-dimensional space has at most max(_MAX_DIM, n) dimensions
_MAX_DIM = 1000


def constr_dim(c: Construction, n: int) -> int:
    """Dimension of the construction applied to an n-dimensional space.

    A sym or ext power above 1,000, an ext power above its child's
    dimension, or a node of more than max(1000, n) dimensions raises
    InvalidArity.
    """
    if n < 1:
        raise InvalidArity("base dimension must be >= 1")
    if isinstance(c, Base):
        return n
    if isinstance(c, Dual):
        return constr_dim(c.child, n)
    if isinstance(c, Tensor):
        dim = constr_dim(c.left, n) * constr_dim(c.right, n)
    elif isinstance(c, DirectSum):
        dim = constr_dim(c.left, n) + constr_dim(c.right, n)
    elif isinstance(c, (Sym, Ext)):
        d = constr_dim(c.child, n)
        if c.r > _MAX_DIM:
            raise InvalidArity(f"{c.name} power above {_MAX_DIM}")
        if isinstance(c, Ext) and c.r > d:
            raise InvalidArity(f"ext({c.r}) exceeds child dimension {d}")
        dim = comb(d, c.r) if isinstance(c, Ext) else comb(d + c.r - 1, c.r)
    else:
        raise TypeError(f"not a construction: {c!r}")
    if dim > max(_MAX_DIM, n):
        raise InvalidArity(f"{c} exceeds {max(_MAX_DIM, n)} dimensions on a {n}-dimensional space")
    return dim


def lie_work(c: Construction, n: int) -> int:
    """Work units of one ``constr_lie(c, m)``, m n x n: the entries of every
    node's matrix, and for a sym or ext node the r slots, each against the
    child's dimension, of every basis tuple."""
    dim = constr_dim(c, n)
    work = dim * dim
    if isinstance(c, (Sym, Ext)):
        work += dim * c.r * constr_dim(c.child, n)
    return work + sum(lie_work(getattr(c, f.name), n) for f in fields(c) if f.name != "r")


def constr_vector(c: Construction, n: int, v) -> tuple:
    """``tuple(v)``, checked to have the construction's dimension."""
    v = tuple(v)
    dim = constr_dim(c, n)
    if len(v) != dim:
        raise DimensionMismatch(f"vector length {len(v)} != construction dim {dim}")
    return v


# ---------------------------------------------------------------------------
# Induced matrices


def _place(terms: dict, ks, coeff, alternating: bool):
    """Add coeff times the basis tuple ks to ``terms``, keyed by sorted(ks);
    for ext a tuple that repeats an index vanishes and the rest are signed by
    the parity of the sorting permutation."""
    if alternating:
        if len(set(ks)) < len(ks):
            return
        if sum(a > b for a, b in combinations(ks, 2)) % 2:
            coeff = -coeff
    key = tuple(sorted(ks))
    terms[key] = terms[key] + coeff if key in terms else coeff


def _power(m: Mat, r: int, alternating: bool, image) -> Mat:
    """Matrix of sym(r), or ext(r) when ``alternating``, induced by m; column
    beta is ``image(m, beta, alternating)``, a dict built by ``_place``."""
    labels = list((combinations if alternating else combinations_with_replacement)(range(m.rows), r))
    index = {lbl: i for i, lbl in enumerate(labels)}
    out = [[m.ring.zero] * len(labels) for _ in labels]
    for col, beta in enumerate(labels):
        for ks, coeff in image(m, beta, alternating).items():
            out[index[ks]][col] = coeff
    return Mat(m.ring, out)


def _group_image(s: Mat, beta, alternating: bool) -> dict:
    """s acts on every slot: the product of the slot images, expanded one
    slot at a time over the column supports."""
    terms = {(): s.ring.one}
    for b in beta:
        support = [(k, s.data[k][b]) for k in range(s.rows) if s.data[k][b] != s.ring.zero]
        prev, terms = terms, {}
        for ks, coeff in prev.items():
            for k, entry in support:
                _place(terms, ks + (k,), coeff * entry, alternating)
    return terms


def _lie_image(l: Mat, beta, alternating: bool) -> dict:
    """l acts as a derivation: it replaces one slot at a time."""
    terms = {}
    for j, b in enumerate(beta):
        for k in range(l.rows):
            if l.data[k][b] != l.ring.zero:
                _place(terms, beta[:j] + (k,) + beta[j + 1 :], l.data[k][b], alternating)
    return terms


def constr_group(c: Construction, p: Mat) -> Mat:
    """Matrix of the induced map on the construction, canonical basis.

    Dual nodes require invertibility and raise SingularGauge otherwise.
    """
    if not p.is_square:
        raise DimensionMismatch("construction input must be square")
    constr_dim(c, p.rows)  # validate node types and arities up front
    return _group(c, p)


def _group(c: Construction, p: Mat) -> Mat:
    if isinstance(c, Base):
        return p
    if isinstance(c, Dual):
        return _group(c.child, p).inv().transpose()
    if isinstance(c, Tensor):
        return _group(c.left, p).kron(_group(c.right, p))
    if isinstance(c, DirectSum):
        return _group(c.left, p).block_diag(_group(c.right, p))
    return _power(_group(c.child, p), c.r, isinstance(c, Ext), _group_image)


def constr_lie(c: Construction, n_mat: Mat) -> Mat:
    """Matrix of the induced derivation on the construction, canonical basis."""
    if not n_mat.is_square:
        raise DimensionMismatch("construction input must be square")
    constr_dim(c, n_mat.rows)  # validate node types and arities up front
    return _lie(c, n_mat)


def _lie(c: Construction, m: Mat) -> Mat:
    if isinstance(c, Base):
        return m
    if isinstance(c, Dual):
        return -_lie(c.child, m).transpose()
    if isinstance(c, Tensor):
        left = _lie(c.left, m)
        right = _lie(c.right, m)
        eye_l = Mat.identity(m.ring, left.rows)
        eye_r = Mat.identity(m.ring, right.rows)
        return left.kron(eye_r) + eye_l.kron(right)
    if isinstance(c, DirectSum):
        return _lie(c.left, m).block_diag(_lie(c.right, m))
    return _power(_lie(c.child, m), c.r, isinstance(c, Ext), _lie_image)


# ---------------------------------------------------------------------------
# The endomorphism module and its flattening


def vec_row_major(m: Mat):
    return tuple(e for row in m.data for e in row)


def mat_from_vec(vec, n: int, ring) -> Mat:
    vec = tuple(vec)
    if len(vec) != n * n:
        raise DimensionMismatch(f"cannot reshape length {len(vec)} into {n}x{n}")
    return Mat(ring, [vec[i * n : (i + 1) * n] for i in range(n)])
