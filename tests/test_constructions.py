"""Construction functors: dimensions, canonical bases, morphism laws."""

import math
import random
from fractions import Fraction

import pytest

from redform import (
    Base,
    DiffSystem,
    DirectSum,
    Dual,
    END_CONSTRUCTION,
    Ext,
    InvalidArity,
    Mat,
    ParseError,
    QQ,
    RF,
    Sym,
    Tensor,
    constr_dim,
    constr_group,
    constr_lie,
    gauge,
    parse_construction,
    system,
    vec_row_major,
)
from redform.linalg import mat_vec

from helpers import (
    demo_system,
    oracle_basis_labels,
    oracle_end_action,
    oracle_ext_group,
    oracle_ext_lie,
    oracle_sym_group,
    oracle_sym_lie,
    rand_constant_matrix,
    rand_invertible,
    rand_matrix,
    rf,
    weighted_swap,
)


class TestDimensions:
    def test_spec_values(self):
        assert constr_dim(parse_construction("tensor(base,dual(base))"), 2) == 4
        assert constr_dim(parse_construction("ext(2,base)"), 2) == 1
        assert constr_dim(parse_construction("sym(2,base)"), 3) == 6
        assert constr_dim(parse_construction("dsum(base,dual(base))"), 3) == 6

    def test_invalid_ext_arity(self):
        with pytest.raises(InvalidArity):
            constr_dim(parse_construction("ext(3,base)"), 2)


class TestSizeBound:
    def test_base_may_exceed_the_bound(self):
        assert constr_dim(Base(), 1001) == 1001

    def test_node_above_the_bound_raises(self):
        assert constr_dim(parse_construction("dsum(base,base)"), 500) == 1000
        with pytest.raises(InvalidArity):
            constr_dim(parse_construction("dsum(base,base)"), 600)

    def test_power_above_the_bound_raises(self):
        # on a 1-dimensional space every symmetric power has dimension 1
        assert constr_dim(Sym(1000, Base()), 1) == 1
        with pytest.raises(InvalidArity):
            constr_dim(Sym(1001, Base()), 1)

    @pytest.mark.parametrize("node, name", [(Sym, "sym"), (Ext, "ext")])
    def test_power_messages_name_the_node(self, node, name):
        # built directly, past the parser, which rejects sym(0,...) first
        with pytest.raises(InvalidArity) as exc:
            node(0, Base())
        assert str(exc.value) == f"{name} power must be >= 1"
        with pytest.raises(InvalidArity) as exc:
            constr_dim(node(1001, Base()), 2000)
        assert str(exc.value) == f"{name} power above 1000"

    def test_bound_is_checked_before_building(self):
        with pytest.raises(InvalidArity):
            constr_group(parse_construction("sym(40,sym(3,base))"), Mat.identity(RF, 2))
        with pytest.raises(InvalidArity):
            constr_lie(Sym(3_000_000, Base()), Mat.identity(RF, 1))

    def test_overlong_power_literal_is_parse_error(self):
        # 5,000 digits passes the interpreter's int conversion limit
        with pytest.raises(ParseError):
            parse_construction("sym(" + "9" * 5000 + ",base)")


class TestParsing:
    def test_roundtrip(self):
        for text in [
            "base",
            "dual(base)",
            "tensor(base,dual(base))",
            "sym(2,base)",
            "ext(2,tensor(base,base))",
            "dsum(base,ext(2,base))",
        ]:
            assert str(parse_construction(text)) == text

    def test_str_of_a_built_tree_reparses(self):
        for tree, text in [
            (Base(), "base"),
            (DirectSum(Tensor(Base(), Dual(Base())), Base()), "dsum(tensor(base,dual(base)),base)"),
            (Sym(3, Ext(2, DirectSum(Base(), Dual(Base())))), "sym(3,ext(2,dsum(base,dual(base))))"),
        ]:
            assert str(tree) == text and parse_construction(text) == tree

    def test_reject_junk(self):
        for text in ["", "tensor(base)", "sym(0,base)", "frob(base)", "base)"]:
            with pytest.raises((ParseError, InvalidArity)):
                parse_construction(text)

    def test_nesting_bound_matches_expressions(self):
        # the construction and expression grammars share one descent core
        # and its 100-level bound
        assert parse_construction("dual(" * 100 + "base" + ")" * 100) is not None
        assert rf("(" * 100 + "x" + ")" * 100) == rf("x")
        for depth in (101, 3000):
            with pytest.raises(ParseError, match="nested deeper than 100 levels"):
                parse_construction("dual(" * depth + "base" + ")" * depth)
            with pytest.raises(ParseError, match="nested deeper than 100 levels"):
                rf("(" * depth + "x" + ")" * depth)

    def test_nesting_counts_every_argument(self):
        deep = "dual(" * 99 + "base" + ")" * 99
        assert parse_construction(f"tensor(base,{deep})") == Tensor(Base(), parse_construction(deep))
        assert parse_construction(f"sym(2,{deep})") == Sym(2, parse_construction(deep))
        with pytest.raises(ParseError):
            parse_construction(f"dsum(base,dual({deep}))")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_construction, "dual(b@se)"),
            (parse_construction, "sym(2;base)"),
            (parse_construction, "tensor(base,base]"),
            (rf, "x @ 1"),
            (rf, "(x+1)]"),
        ],
    )
    def test_unexpected_character_is_parse_error(self, parse, text):
        with pytest.raises(ParseError, match="unexpected character"):
            parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unexpected end of construction expression"),
            ("dual(", "unexpected end of construction expression"),
            ("sym(2", "unexpected end of construction expression"),
            ("tensor(base)", "expected ',' in construction expression"),
            ("Base", "unknown constructor 'Base'"),
            ("(base)", "expected a constructor name, got '('"),
            ("ext(x,base)", "ext needs a positive integer power"),
            ("base,base", "trailing input after construction expression"),
            ("dual(b@se)", "unexpected character '@' at offset 6"),
            ("q" * 30, "unknown constructor 'qqqqqqqqqqqqqqqqqqqq'... (30 characters)"),
            # an integer past the interpreter's 4,300-digit str() limit
            ("1" * 4400, "expected a constructor name, got '11111111111111111111'... (4400 characters)"),
        ],
    )
    def test_malformed_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_construction(text)
        assert str(exc.value) == message


class TestBasisOrder:
    def test_tensor_row_major(self):
        labels = oracle_basis_labels(Tensor(Base(), Base()), 2)
        assert labels == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_sym_nondecreasing_lex(self):
        labels = oracle_basis_labels(Sym(2, Base()), 2)
        assert labels == ((0, 0), (0, 1), (1, 1))

    def test_ext_increasing_lex(self):
        labels = oracle_basis_labels(Ext(2, Base()), 3)
        assert labels == ((0, 1), (0, 2), (1, 2))

    @pytest.mark.parametrize(
        "text", ["tensor(base,dual(base))", "sym(2,base)", "ext(2,base)", "dsum(base,sym(2,dual(base)))"]
    )
    def test_labels_index_the_group_level_basis(self, text):
        # diag(2, 3, 5) acts on the basis vector of a label by the product of
        # its primes, a dual slot by the inverse
        primes = (2, 3, 5)

        def weight(label):
            if isinstance(label, int):
                return Fraction(primes[label])
            if label[0] == "*":
                return 1 / weight(label[1])
            if label[0] in ("L", "R"):
                return weight(label[1])
            return math.prod(weight(part) for part in label)

        c = parse_construction(text)
        image = constr_group(c, Mat(QQ, [[p if i == j else 0 for j, p in enumerate(primes)] for i in range(3)]))
        want = [weight(label) for label in oracle_basis_labels(c, 3)]
        assert image == Mat(QQ, [[w if i == j else 0 for j in range(len(want))] for i, w in enumerate(want)])


class TestGroupLevel:
    def test_identity_maps_to_identity(self):
        for text in ["dual(base)", "tensor(base,dual(base))", "sym(2,base)", "ext(2,base)"]:
            c = parse_construction(text)
            d = constr_dim(c, 3)
            assert constr_group(c, Mat.identity(RF, 3)) == Mat.identity(RF, d)

    def test_dual_is_inverse_transpose(self):
        rng = random.Random(5)
        p = rand_invertible(rng, 3)
        assert constr_group(Dual(Base()), p) == p.inv().transpose()

    def test_ext_top_power_is_determinant(self):
        rng = random.Random(6)
        p = rand_invertible(rng, 2)
        out = constr_group(Ext(2, Base()), p)
        assert out.rows == 1 and out[(0, 0)] == p.det()


class TestLieLevel:
    def test_dual_is_negative_transpose(self):
        a = demo_system().mat
        assert constr_lie(Dual(Base()), a) == -a.transpose()

    def test_end_module_matrix(self):
        a = demo_system().mat
        eye = Mat.identity(RF, 2)
        expected = a.kron(eye) - eye.kron(a.transpose())
        assert constr_lie(END_CONSTRUCTION, a) == expected

    def test_ext_two_is_trace(self):
        a = demo_system().mat
        out = constr_lie(Ext(2, Base()), a)
        assert out.rows == 1 and out[(0, 0)] == rf("1/(2*x)")


class TestEndAction:
    def test_weighted_swap_demo(self):
        a = demo_system()
        n1 = weighted_swap()
        expected = n1.map_entries(lambda e: rf("-1/(2*x)") * e)
        assert oracle_end_action(a, n1) == expected

    def test_identity_is_horizontal(self):
        a = demo_system()
        assert oracle_end_action(a, Mat.identity(RF, 2)).is_zero

    def test_zero_system_gives_derivative(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        f = rand_matrix(random.Random(9), 2)
        from redform.systems import mat_derivative

        assert oracle_end_action(zero, f) == mat_derivative(f)

    def test_flattening_identification(self):
        # vec(F' - [A,F]) = d/dx vec(F) - constr_lie(END, A) vec(F)
        rng = random.Random(10)
        a = demo_system()
        f = rand_matrix(rng, 2)
        lhs = vec_row_major(oracle_end_action(a, f))
        lie = constr_lie(END_CONSTRUCTION, a.mat)
        v = vec_row_major(f)
        image = mat_vec(lie, v)
        rhs = tuple(e.derivative() - image[i] for i, e in enumerate(v))
        assert lhs == rhs


CONSTRUCTIONS = [
    "dual(base)",
    "tensor(base,dual(base))",
    "sym(2,base)",
    "ext(2,base)",
]


class TestMorphismLaws:
    def test_group_law(self):
        rng = random.Random(40)
        for text in CONSTRUCTIONS:
            c = parse_construction(text)
            for _ in range(4):
                n = rng.choice([2, 3])
                p = rand_invertible(rng, n)
                q = rand_invertible(rng, n)
                assert constr_group(c, p * q) == constr_group(c, p) * constr_group(c, q)

    def test_lie_bracket_law(self):
        rng = random.Random(41)
        for text in CONSTRUCTIONS:
            c = parse_construction(text)
            for _ in range(4):
                n = rng.choice([2, 3])
                a = rand_matrix(rng, n)
                b = rand_matrix(rng, n)
                lhs = constr_lie(c, a * b - b * a)
                la, lb = constr_lie(c, a), constr_lie(c, b)
                assert lhs == la * lb - lb * la

    def test_lie_linearity(self):
        rng = random.Random(42)
        c = parse_construction("sym(2,base)")
        a = rand_matrix(rng, 2)
        b = rand_matrix(rng, 2)
        h = rf("x/(x+1)")
        scaled = a.map_entries(lambda e: h * e) + b
        assert constr_lie(c, scaled) == constr_lie(c, a).map_entries(lambda e: h * e) + constr_lie(c, b)

    def test_gauge_compatibility(self):
        rng = random.Random(43)
        for text in CONSTRUCTIONS:
            c = parse_construction(text)
            n = 2
            a = system("x", rand_matrix(rng, n).data)
            p = rand_invertible(rng, n)
            lhs = constr_lie(c, gauge(a, p).mat)
            big = DiffSystem("x", constr_lie(c, a.mat))
            rhs = gauge(big, constr_group(c, p)).mat
            assert lhs == rhs

    def test_nested_construction(self):
        rng = random.Random(44)
        c = parse_construction("ext(2,tensor(base,dual(base)))")
        p = rand_invertible(rng, 2)
        q = rand_invertible(rng, 2)
        assert constr_group(c, p * q) == constr_group(c, p) * constr_group(c, q)

    def test_double_dual_is_identity_functor(self):
        rng = random.Random(45)
        c = parse_construction("dual(dual(base))")
        p = rand_invertible(rng, 3)
        assert constr_group(c, p) == p
        n = rand_matrix(rng, 3)
        assert constr_lie(c, n) == n

    def test_higher_symmetric_power_laws(self):
        rng = random.Random(46)
        c = parse_construction("sym(3,base)")
        assert constr_dim(c, 2) == 4
        for _ in range(3):
            p = rand_invertible(rng, 2)
            q = rand_invertible(rng, 2)
            assert constr_group(c, p * q) == constr_group(c, p) * constr_group(c, q)
            a = rand_matrix(rng, 2)
            b = rand_matrix(rng, 2)
            la, lb = constr_lie(c, a), constr_lie(c, b)
            assert constr_lie(c, a * b - b * a) == la * lb - lb * la
        assert constr_group(c, Mat.identity(RF, 2)) == Mat.identity(RF, 4)

    def test_direct_sum_laws(self):
        rng = random.Random(47)
        c = parse_construction("dsum(base,dual(base))")
        for _ in range(3):
            p = rand_invertible(rng, 2)
            q = rand_invertible(rng, 2)
            assert constr_group(c, p * q) == constr_group(c, p) * constr_group(c, q)
            a = rand_matrix(rng, 2)
            b = rand_matrix(rng, 2)
            la, lb = constr_lie(c, a), constr_lie(c, b)
            assert constr_lie(c, a * b - b * a) == la * lb - lb * la

    def test_ext_three_leibniz_signs(self):
        # derivation on the top power of a 3-space is the trace
        rng = random.Random(48)
        a = rand_matrix(rng, 3)
        out = constr_lie(parse_construction("ext(3,base)"), a)
        trace = a.data[0][0] + a.data[1][1] + a.data[2][2]
        assert out.rows == 1 and out[(0, 0)] == trace


def _rand_pair(rng, ring, n):
    """An invertible matrix and an arbitrary one, both n x n over Q or Q(x)."""
    if ring == "RF":
        return rand_invertible(rng, n), rand_matrix(rng, n)
    p = rand_constant_matrix(rng, n)
    while p.det() == 0:
        p = rand_constant_matrix(rng, n)
    return p, rand_constant_matrix(rng, n)


class TestPowersAgainstOracles:
    @pytest.mark.parametrize("ring", ["QQ", "RF"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_sym_and_ext(self, ring, r):
        rng = random.Random(60 + r)
        for n in (1, 2, 3):
            for _ in range(2):
                p, m = _rand_pair(rng, ring, n)
                assert constr_group(Sym(r, Base()), p) == oracle_sym_group(p, r)
                assert constr_lie(Sym(r, Base()), m) == oracle_sym_lie(m, r)
                if r <= n:  # r == n is the top power
                    assert constr_group(Ext(r, Base()), p) == oracle_ext_group(p, r)
                    assert constr_lie(Ext(r, Base()), m) == oracle_ext_lie(m, r)

    @pytest.mark.parametrize("ring", ["QQ", "RF"])
    def test_nested_powers(self, ring):
        rng = random.Random(70)
        ext_sym = parse_construction("ext(2,sym(2,base))")
        sym_dual = parse_construction("sym(2,dual(base))")
        for n in (2, 3):
            p, m = _rand_pair(rng, ring, n)
            assert constr_group(ext_sym, p) == oracle_ext_group(oracle_sym_group(p, 2), 2)
            assert constr_lie(ext_sym, m) == oracle_ext_lie(oracle_sym_lie(m, 2), 2)
            assert constr_group(sym_dual, p) == oracle_sym_group(p.inv().transpose(), 2)
            assert constr_lie(sym_dual, m) == oracle_sym_lie(-m.transpose(), 2)
