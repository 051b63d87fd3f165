"""Seeded job mixes for the redform benchmark.

Every input is built here from the seed with exact ``Fraction`` arithmetic
and written as the JSON files the README documents; nothing in this module
imports redform, so the inputs do not change when the program does.  A job
is one ``redform`` command line plus its input files.

Each pool has a fixed composition (strata of job kind, size and options);
the seed only picks places, residue values, conjugating matrices and
evaluation points.  Sizes that set the cost of a job (system size, ansatz
width, series order) are fixed per stratum, so the mean cost of a pool
varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("harvest", "transform", "series")

# constructions named by the README, smallest first
BASE = "base"
DUAL = "dual(base)"
END = "tensor(base,dual(base))"
SYM2 = "sym(2,base)"
EXT2 = "ext(2,base)"
SYM2_END = "sym(2,tensor(base,dual(base)))"

PLACES = (0, 1, -1, 2)
HALF = Fraction(1, 2)


@dataclass
class Job:
    """One command; ``argv`` names its input files as ``{dir}/<name>``."""

    id: str
    kind: str
    argv: list
    files: dict
    # exit codes the generator knows to be right; None when it cannot tell
    expect: tuple | None = None
    # what the generator knows that the semantic re-check needs
    check: dict = field(default_factory=dict)

    def input_text(self) -> str:
        """Canonical text of everything the program sees, for the reference."""
        return json.dumps({"argv": self.argv, "files": self.files}, sort_keys=True)


# ---------------------------------------------------------------------------
# exact helpers: constants, polynomials (coefficient lists) and matrices


def q_str(c: Fraction) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 and c >= 0 else f"({c})"


def place_str(var: str, a) -> str:
    if a == 0:
        return var
    return f"({var}-{a})" if a > 0 else f"({var}+{-a})"


def poly_str(p, var: str) -> str:
    terms = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mono = "" if k == 0 else var if k == 1 else f"{var}^{k}"
        terms.append(q_str(c) if not mono else f"{q_str(c)}*{mono}")
    return " + ".join(terms) if terms else "0"


def poly_add(p, r):
    n = max(len(p), len(r))
    return [(p[k] if k < len(p) else 0) + (r[k] if k < len(r) else 0) for k in range(n)]


def poly_mul(p, r):
    out = [Fraction(0)] * max(len(p) + len(r) - 1, 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def poly_mat_mul(a, b):
    n = len(a)
    out = [[[Fraction(0)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = poly_add(out[i][j], poly_mul(a[i][k], b[k][j]))
    return out


def unimodular(rng: random.Random, n: int):
    """C = L*U with unit triangular L, U whose off-diagonal entries are +-1:
    an integer matrix with determinant one and, for every seed, the same
    (full) pattern of nonzero entries in C and C^-1."""
    lower = [[Fraction(1 if i == j else rng.choice((-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else rng.choice((-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    c = mat_mul(lower, upper)
    return c, mat_inv(c)


def mat_inv(m):
    n = len(m)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        pv = work[col][col]
        work[col] = [a / pv for a in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def triangular(rng: random.Random, diag, span=2):
    # nonzero couplings keep the solution structure the same from seed to seed
    offdiag = [v for v in range(-span, span + 1) if v]
    n = len(diag)
    return [
        [
            Fraction(diag[i]) if i == j else Fraction(rng.choice(offdiag)) if j > i else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]


@dataclass
class Fuchsian:
    """A = sum_k R_k / (x - a_k) with constant residues R_k."""

    places: tuple
    residues: tuple
    var: str = "x"

    @property
    def n(self) -> int:
        return len(self.residues[0])

    def entry(self, i: int, j: int) -> str:
        terms = [
            f"{q_str(r[i][j])}/{place_str(self.var, a)}"
            for a, r in zip(self.places, self.residues)
            if r[i][j] != 0
        ]
        return " + ".join(terms) if terms else "0"

    def to_json(self) -> dict:
        n = self.n
        return {"var": self.var, "n": n, "A": [[self.entry(i, j) for j in range(n)] for i in range(n)]}

    def taylor(self, x0: Fraction, order: int):
        """Taylor matrices A_k of A around x0, k < order (exact, redform-free)."""
        n = self.n
        out = []
        # 1/(x - a) = sum_k (-1)^k u^k / (x0 - a)^(k+1), u = x - x0
        factors = [1 / (x0 - a) for a in self.places]
        for _ in range(order):
            m = [[Fraction(0)] * n for _ in range(n)]
            for c, r in zip(factors, self.residues):
                for i in range(n):
                    for j in range(n):
                        m[i][j] += c * r[i][j]
            out.append(m)
            factors = [-c / (x0 - a) for c, a in zip(factors, self.places)]
        return out


def fuchsian(rng: random.Random, diags, span=2, slot=None) -> Fuchsian:
    """Residues conjugated by one constant matrix to triangular form.

    ``diags`` fixes the residue eigenvalues at each place; the seed only
    permutes them, the same way at every place, which keeps the eigenvalues
    of every construction (so the denominator and degree bounds, and with
    them the ansatz size and the verdict) the same.  With ``slot`` =
    (i, j), the places are the i-th ordered pair of PLACES and the order is
    the j-th permutation, both taken cyclically: consecutive slots walk
    through all of them, so a run sees nearly the same mix for every seed.
    """
    n = len(diags[0])
    orders = list(itertools.permutations(range(n)))
    if slot is None:
        places = tuple(rng.sample(PLACES, len(diags)))
        order = rng.choice(orders)
    else:
        pairs = list(itertools.permutations(PLACES, len(diags)))
        places, order = pairs[slot[0] % len(pairs)], orders[slot[1] % len(orders)]
    c, c_inv = unimodular(rng, n)
    residues = []
    for diag in diags:
        d = [Fraction(diag[k]) for k in order]
        residues.append(mat_mul(mat_mul(c, triangular(rng, d, span)), c_inv))
    return Fuchsian(places, tuple(residues))


# README worked example A = [[0, 1], [x, 1/(2x)]] with its stable-line
# endomorphism S = [[0, 1/x], [1, 0]], each entry as (const, x, 1/x) parts.
README_A = (((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 0, HALF)))
README_S = (((0, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 0)))


def conjugate_parts(m, c, c_inv):
    """C^-1 * M * C for M given entry-wise as (const, x, 1/x) coefficients."""
    n = len(m)
    return [
        [
            tuple(
                sum(
                    (c_inv[i][k] * m[k][l][part] * c[l][j] for k in range(n) for l in range(n)),
                    Fraction(0),
                )
                for part in range(3)
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def parts_str(parts, var="x") -> str:
    c0, c1, cm = parts
    terms = []
    if c0:
        terms.append(q_str(c0))
    if c1:
        terms.append(f"{q_str(c1)}*{var}")
    if cm:
        terms.append(f"{q_str(cm)}/{var}")
    return " + ".join(terms) if terms else "0"


def parts_matrix(m, var="x"):
    return [[parts_str(e, var) for e in row] for row in m]


def const_matrix(m):
    return [[str(Fraction(e)) for e in row] for row in m]


# ---------------------------------------------------------------------------
# workloads


# (n, residue diagonals per place) for the harvest systems; the diagonals
# are small integers and half-integers, so denominator bounds stay small
HARVEST_SYSTEMS = {
    "h2a": ((0, 1), (HALF, -HALF)),
    "h2b": ((1, -1), (0, 2)),
    "h3a": ((0, 1, HALF), (0, -1, 0)),
    "h3b": ((1, 0, 0), (HALF, -HALF, 1)),
    # the eigenvalue 5 at infinity outruns the degree caps below: for base
    # the verdict is bound-limited (exit 2), for dual(base) it is complete
    "h2c": ((2, 0), (3, HALF)),
}

# (kind, system, constructions, num_deg); the pool repeats this list
HARVEST_STRATA = (
    ("ratsols", "h2a", BASE, 4),
    ("ratsols", "h2c", BASE, 6),
    ("ratsols", "h3a", BASE, 8),
    ("ratsols", "h3b", DUAL, 6),
    ("ratsols", "h2b", END, 6),
    ("ratsols", "h3a", END, 4),
    ("ratsols", "h2a", SYM2, 8),
    ("ratsols", "h3b", EXT2, 4),
    ("ratsols", "h2a", SYM2_END, 4),
    ("eigenring", "h2b", END, 8),
    ("eigenring", "h3b", END, 4),
    ("harvest", "h2a", f"{BASE};{DUAL};{SYM2}", 6),
    ("harvest", "h3a", f"{DUAL};{EXT2}", 4),
    ("harvest", "h2c", f"{BASE};{DUAL}", 4),
    ("check-reduced", "h2b", f"{BASE};{DUAL}", 6),
    ("check-reduced", "h3b", f"{BASE};{END}", 4),
)


def slot_offsets(rng: random.Random, strata):
    """Per stratum, where its walk through places and orders starts."""
    return [(rng.randrange(1 << 16), rng.randrange(1 << 16)) for _ in strata]


def harvest_pool(rng: random.Random, reps: int):
    jobs = []
    offsets = slot_offsets(rng, HARVEST_STRATA)
    for rep in range(reps):
        for (kind, sys_name, constr, num_deg), (a, b) in zip(HARVEST_STRATA, offsets):
            system = fuchsian(rng, HARVEST_SYSTEMS[sys_name], slot=(a + rep, b + rep))
            jid = f"harvest-{len(jobs):03d}-{kind}"
            files = {"system.json": system.to_json()}
            argv = [kind, "--system", "{dir}/system.json", "--num-deg", str(num_deg)]
            if kind == "ratsols":
                argv += ["--constr", constr]
            elif kind in ("harvest", "check-reduced"):
                argv += ["--constrs", constr]
            jobs.append(
                Job(jid, kind, argv, files, (0, 2) if kind != "check-reduced" else (0, 1, 2))
            )
    return jobs


def _gauge_job(rng, jid, n):
    system = fuchsian(rng, [tuple(rng.choice((0, 1, -1, HALF)) for _ in range(n))] * 2, span=1)
    # P = product of elementary matrices with entries c*x^k: polynomial,
    # determinant one, so the gauge is always defined
    x = "x"
    p = [[[Fraction(int(i == j))] for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        e = [[[Fraction(int(r == s))] for s in range(n)] for r in range(n)]
        e[i][j] = [Fraction(0)] * rng.choice((0, 1)) + [Fraction(rng.choice((-1, 1, 2)))]
        p = poly_mat_mul(p, e)
    files = {
        "system.json": system.to_json(),
        "P.json": {"var": x, "M": [[poly_str(e, x) for e in row] for row in p]},
    }
    argv = ["gauge", "--system", "{dir}/system.json", "--P", "{dir}/P.json"]
    return Job(jid, "gauge", argv, files, (0,))


def _constr_job(rng, jid, mode, n, constr):
    if mode == "lie":
        system = fuchsian(rng, [tuple(rng.choice((0, 1, -1, HALF)) for _ in range(n))] * 2, span=1)
        m = system.to_json()["A"]
    else:
        # an invertible polynomial matrix, so dual() has an inverse to use
        c, _ = unimodular(rng, n)
        m = [[poly_str([c[i][j], Fraction(rng.randint(-1, 1)) if i < j else 0], "x") for j in range(n)] for i in range(n)]
    files = {"matrix.json": {"var": "x", "M": m}}
    argv = ["constr", "--constr", constr, "--matrix", "{dir}/matrix.json", "--mode", mode]
    return Job(jid, "constr", argv, files, (0,))


def _readme_conjugate(rng):
    c, c_inv = unimodular(rng, 2)
    a = conjugate_parts(README_A, c, c_inv)
    s = conjugate_parts(README_S, c, c_inv)
    return a, s


def _reduce_job(rng, jid, m):
    a, s = _readme_conjugate(rng)
    files = {
        "system.json": {"var": "x", "n": 2, "A": parts_matrix(a)},
        "semiinv.json": {"var": "x", "M": parts_matrix(s)},
    }
    argv = ["reduce", "--system", "{dir}/system.json", "--semiinv", "{dir}/semiinv.json", "--pullback", str(m)]
    return Job(jid, "reduce", argv, files, (0,))


def _wei_norman_job(rng, jid, n, decomposable):
    # a reduced system B = sum_j f_j(t) N_j over constant diagonal generators
    t = "t"
    gens = []
    for _ in range(n - 1 if n > 1 else 1):
        gens.append([[Fraction(rng.randint(-2, 2)) if i == j else Fraction(0) for j in range(n)] for i in range(n)])
    gens.append([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
    coeffs = []
    for _ in gens:
        k = rng.randint(1, 3)
        coeffs.append(f"{rng.choice((-2, -1, 1, 2, 3))}*{t}^{k} + {q_str(Fraction(rng.choice((-1, 1)), rng.randint(1, 3)))}/{place_str(t, rng.choice(PLACES))}")
    entries = [["0"] * n for _ in range(n)]
    for i in range(n):
        terms = [f"({f})*{q_str(g[i][i])}" for f, g in zip(coeffs, gens) if g[i][i] != 0]
        entries[i][i] = " + ".join(terms) if terms else "0"
    if not decomposable:
        # an off-diagonal entry no diagonal generator can reach
        entries[0][n - 1] = f"{rng.choice((1, 2))}*{t}"
    files = {
        "system.json": {"var": t, "n": n, "A": entries},
        "basis.json": {"n": n, "generators": [const_matrix(g) for g in gens]},
    }
    argv = ["wei-norman", "--system", "{dir}/system.json", "--basis", "{dir}/basis.json"]
    return Job(jid, "wei-norman", argv, files, (0,) if decomposable else (1,))


def _katz_job(rng, jid, stable):
    a, s = _readme_conjugate(rng)
    ident = [[(Fraction(int(i == j)), 0, 0) for j in range(2)] for i in range(2)]
    if stable:
        elements = [s, ident] if rng.random() < 0.5 else [s]
    else:
        # a constant nilpotent element: never carried into the span
        k = rng.choice((1, 2))
        nil = [[(0, 0, 0), (Fraction(k), 0, 0)], [(0, 0, 0), (0, 0, 0)]]
        elements = [nil, ident]
    files = {
        "system.json": {"var": "x", "n": 2, "A": parts_matrix(a)},
        "basis.json": {"var": "x", "elements": [parts_matrix(e) for e in elements]},
    }
    argv = ["katz-check", "--system", "{dir}/system.json", "--basis", "{dir}/basis.json"]
    return Job(jid, "katz-check", argv, files, (0,) if stable else (1,))


TRANSFORM_STRATA = (
    ("gauge", 3), ("gauge", 4), ("gauge", 3),
    ("constr", "group", 2, SYM2), ("constr", "group", 3, EXT2), ("constr", "group", 2, END),
    ("constr", "lie", 3, SYM2), ("constr", "lie", 2, END), ("constr", "lie", 3, DUAL),
    ("reduce", 2), ("reduce", 4), ("reduce", 2),
    ("wei-norman", 2, True), ("wei-norman", 3, True), ("wei-norman", 2, False),
    ("katz-check", True), ("katz-check", False), ("katz-check", True),
)


def transform_pool(rng: random.Random, reps: int):
    jobs = []
    for rep in range(reps):
        for stratum in TRANSFORM_STRATA:
            kind, *opts = stratum
            jid = f"transform-{len(jobs):03d}-{kind}"
            if kind == "gauge":
                jobs.append(_gauge_job(rng, jid, *opts))
            elif kind == "constr":
                jobs.append(_constr_job(rng, jid, *opts))
            elif kind == "reduce":
                jobs.append(_reduce_job(rng, jid, *opts))
            elif kind == "wei-norman":
                jobs.append(_wei_norman_job(rng, jid, *opts))
            else:
                jobs.append(_katz_job(rng, jid, *opts))
    return jobs


# (n, order); the residue eigenvalues at the two places are fixed per n
SERIES_STRATA = ((2, 40), (3, 30), (4, 20), (2, 30), (3, 20), (4, 30), (3, 40))
SERIES_DIAGS = ((0, 1, -1, HALF), (2, HALF, 0, -1))
SERIES_POINTS = (HALF, Fraction(3), Fraction(-1, 3), Fraction(5, 2), Fraction(3, 2), Fraction(-3, 2))


def series_pool(rng: random.Random, reps: int):
    jobs = []
    offsets = slot_offsets(rng, SERIES_STRATA)
    for rep in range(reps):
        for (n, order), (a, b) in zip(SERIES_STRATA, offsets):
            diags = [d[:n] for d in SERIES_DIAGS]
            system = fuchsian(rng, diags, span=1, slot=(a + rep, b + rep))
            x0 = SERIES_POINTS[(a + b + rep) % len(SERIES_POINTS)]
            jid = f"series-{len(jobs):03d}-series"
            argv = ["series", "--system", "{dir}/system.json", f"--x0={x0}", "--order", str(order)]
            jobs.append(Job(jid, "series", argv, {"system.json": system.to_json()}, (0,),
                            {"system": system, "x0": x0, "order": order}))
    return jobs


POOLS = {"harvest": harvest_pool, "transform": transform_pool, "series": series_pool}
REPS = {"harvest": 16, "transform": 24, "series": 24}


def make_pool(workload: str, seed: int):
    """The workload's job pool for the seed (same seed, same jobs)."""
    rng = random.Random(f"redform-bench/{workload}/{seed}")
    return POOLS[workload](rng, REPS[workload])


def warm_up_jobs(workload: str):
    """One job of each kind, the same for every seed: the first of each kind
    in one pass over the strata under a fixed seed of its own."""
    rng = random.Random(f"redform-bench/{workload}/warm-up")
    first = {}
    for job in POOLS[workload](rng, 1):
        first.setdefault(job.kind, job)
    return list(first.values())


def write_pool(jobs, root: Path):
    """Write every job's input files as ``root/<job id>.<name>`` (one flat
    directory: fewer file-system operations to time); return the argvs."""
    root.mkdir(parents=True)
    argvs = []
    for job in jobs:
        for name, payload in job.files.items():
            text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
            (root / f"{job.id}.{name}").write_text(text, encoding="utf-8")
        argvs.append([a.replace("{dir}/", f"{root}/{job.id}.") for a in job.argv])
    return argvs
