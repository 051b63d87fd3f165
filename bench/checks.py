"""Correctness gate: reference digests and semantic re-checks of payloads.

Every execution of a job is checked against three things:

* the exit codes the generator knows to be right for the job, if any;
* the first execution of the same job in the run (outputs are deterministic);
* for the default seed, the committed reference table of exit code and
  payload sha256, made with ``reference.py`` at the seed commit.

The first payload of each job is also re-checked for meaning, outside the
timed region, by a route that avoids the code path under test where it can.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_digest(job) -> str:
    return digest(job.input_text())


def canonical_json(payload) -> str:
    """The README's canonical form: sorted keys, indent 2, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int):
    """The reference table when ``seed`` is the one it was made for, else None."""
    path = reference_path(workload)
    if not path.exists():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))
    return table["jobs"] if table["seed"] == seed else None


class Checker:
    """Counts failed executions; ``rf`` is the imported redform package."""

    def __init__(self, jobs, reference, rf):
        self.jobs = jobs
        self.reference = reference
        self.rf = rf
        self.first = {}
        self.failures = {}

    def execution(self, k: int, code, text: str | None) -> str | None:
        """Reason the execution of job ``k`` failed, or None."""
        job = self.jobs[k]
        if code is None:
            return "raised"
        sha = digest(text)
        if job.expect is not None and code not in job.expect:
            return f"exit code {code}, expected one of {job.expect}"
        seen = self.first.setdefault(k, (code, sha, text))
        if seen[:2] != (code, sha):
            return "differs from the first execution of the same job"
        if self.reference is not None:
            ref = self.reference.get(job.id)
            if ref is None or ref["input"] != input_digest(job):
                return "no reference for these inputs"
            if (ref["exit"], ref["sha256"]) != (code, sha):
                return "exit code or payload differs from the reference"
        return None

    def count_failed(self, log) -> int:
        """Failed executions in ``log`` of (job index, seconds, reason):
        their own check failed, or the semantic re-check of their job did.
        Each failing job's first reason goes to stderr."""
        meaning = {k: self.semantic(k) for k in sorted(self.first)}
        failed = 0
        for k, _, reason in log:
            reason = reason or meaning.get(k)
            if reason is not None:
                self.failures.setdefault(k, reason)
                failed += 1
        for k, reason in sorted(self.failures.items()):
            print(f"FAILED {self.jobs[k].id}: {reason}", file=sys.stderr)
        return failed

    def semantic(self, k: int) -> str | None:
        """Re-check the first payload of job ``k`` for meaning."""
        code, _, text = self.first[k]
        job = self.jobs[k]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return "payload is not JSON"
        if canonical_json(payload) != text:
            return "payload does not re-parse to itself"
        try:
            return SEMANTIC.get(job.kind, _no_check)(self.rf, job, code, payload)
        except Exception as exc:  # a check that crashes is a failed check
            return f"semantic check raised {type(exc).__name__}: {exc}"


def _no_check(rf, job, code, payload):
    return None


def _system(rf, job):
    return rf.jsonio.system_from_json(job.files["system.json"])


def _vectors_are_solutions(rf, sys_, items):
    """Each (constr, [entry strings]) vector v has v' - B v = 0 (rate zero)."""
    for constr, entries in items:
        c = rf.parse_construction(constr)
        v = [rf.parse_ratfn(e, sys_.var) for e in entries]
        if [rf.ratfn_str(e, sys_.var) for e in v] != entries:
            return f"entries of a {constr} vector do not re-parse to themselves"
        rate = rf.check_semi_invariant(sys_, c, v)
        if rate is None or not rate.is_zero:
            return f"a {constr} basis vector is not a rational solution"
    return None


def _check_ratsols(rf, job, code, payload):
    items = [(payload["constr"], v) for v in payload["basis"]]
    return _vectors_are_solutions(rf, _system(rf, job), items)


def _check_eigenring(rf, job, code, payload):
    items = [("tensor(base,dual(base))", v) for v in payload["basis"]]
    return _vectors_are_solutions(rf, _system(rf, job), items)


def _check_harvest(rf, job, code, payload):
    items = [(r["constr"], v) for r in payload["results"] for v in r.get("basis", [])]
    return _vectors_are_solutions(rf, _system(rf, job), items)


def _check_reduced(rf, job, code, payload):
    items = [(iv["constr"], iv["v"]) for iv in payload["invariants"]]
    return _vectors_are_solutions(rf, _system(rf, job), items)


def _check_gauge(rf, job, code, payload):
    """P*B = A*P - P', which needs no inverse (gauge itself inverts P)."""
    a = _system(rf, job)
    _, p = rf.jsonio.matrix_from_json(job.files["P.json"])
    b = rf.jsonio.system_from_json(payload)
    dp = p.map_entries(lambda e: e.derivative())
    if p * b.mat != a.mat * p - dp:
        return "P*B != A*P - P'"
    return None


def _check_reduce(rf, job, code, payload):
    cert = rf.jsonio.certificate_from_json(payload)
    original = rf.jsonio.system_from_json(job.files["system.json"])
    if not cert.verify(original):
        return "reduction certificate does not verify"
    return None


def _check_wei_norman(rf, job, code, payload):
    """For a decomposable system, sum_j f_j N_j equals the system matrix."""
    if not payload["decomposable"]:
        return None
    sys_ = _system(rf, job)
    gens = job.files["basis.json"]["generators"]
    coeffs = [rf.parse_ratfn(f, sys_.var) for f in payload["coeffs"]]
    n = sys_.n
    for i in range(n):
        for j in range(n):
            acc = rf.RatFn.ZERO
            for f, g in zip(coeffs, gens):
                acc = acc + f * rf.RatFn.const(Fraction(g[i][j]))
            if acc != sys_.mat.data[i][j]:
                return "sum of coefficients times generators is not the system"
    return None


def _check_series(rf, job, code, payload):
    """(k+1) C_{k+1} = sum_s A_s C_{k-s} and C_0 = I, against the generator's
    own exact Taylor coefficients A_s (no redform arithmetic involved).

    The matrix identity is tested through fixed integer vectors u, w on both
    sides (u^T X w), which costs O(order^2 n) instead of O(order^2 n^3); a
    wrong coefficient passes only if its error is orthogonal to every pair.
    """
    system, x0, order = job.check["system"], job.check["x0"], job.check["order"]
    n = system.n
    cs = [[[Fraction(e) for e in row] for row in c] for c in payload["coeffs"]]
    if len(cs) != order or payload["x0"] != str(x0) or payload["n"] != n:
        return "series payload has the wrong shape"
    if cs[0] != [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]:
        return "series does not start at the identity"
    a = system.taylor(x0, order)
    for u, w in PROBES:
        u, w = u[:n], w[:n]
        ua = [[sum(u[i] * m[i][j] for i in range(n)) for j in range(n)] for m in a]
        cw = [[sum(m[i][j] * w[j] for j in range(n)) for i in range(n)] for m in cs]
        for k in range(order - 1):
            lhs = (k + 1) * sum(u[i] * cw[k + 1][i] for i in range(n))
            rhs = sum(sum(ua[s][j] * cw[k - s][j] for j in range(n)) for s in range(k + 1))
            if lhs != rhs:
                return f"series recurrence fails at order {k + 1}"
    return None


# (u, w) pairs for the series check, cut to the system size
PROBES = (((1, 2, -1, 3), (2, -1, 1, 1)), ((-3, 1, 2, 1), (1, 3, -2, 2)), ((1, 0, 1, -2), (1, 1, 0, 3)))


SEMANTIC = {
    "ratsols": _check_ratsols,
    "eigenring": _check_eigenring,
    "harvest": _check_harvest,
    "check-reduced": _check_reduced,
    "gauge": _check_gauge,
    "reduce": _check_reduce,
    "wei-norman": _check_wei_norman,
    "series": _check_series,
}
