"""Inputs and expected outputs of the benchmark workloads.

A workload is a list of ops. Each op is one ``mopsrel`` CLI call: an argv,
the text fed to it on stdin (or None), and a check that names any deviation
of the call's exit code and stdout from what this workload expects.

* ``cheb-d80`` and ``jacobi-generic-d40`` repeat one ``example`` call whose
  payload must hash to the sha256 recorded at the seed commit.
* ``inverse-mix`` is a seeded stream of ``classify``, ``inverse-check`` and
  ``constants`` calls, 1:1:1, over random gated documents (negative
  verdict) and a few positive documents built from the casebook reports.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

CHEB_ARGV = ["example", "chebyshev", "--depth", "80"]
JACOBI_ARGV = [
    "example", "jacobi-chain", "--alpha", "1/3", "--beta", "2/7",
    "--a1", "3", "--c1", "-5", "--depth", "40",
]

# sha256 of the stdout payloads at the seed commit; a payload that changes
# is a failed op (CLI payloads must stay byte-identical)
DIGESTS = {
    ("cheb-d80", False):
        "3941a3e1847613593b43f3adae47c012ab91e053b255c0ff55357289eaf3d609",
    ("jacobi-generic-d40", False):
        "315c82049b461f4d85023aa7f0371848a66e88c11f541f7b8694634e7451a79e",
    ("cheb-d80", True):
        "ac4ba8207480c58885d8f0911d4be956ee734689513bfbbc80df9a5072c128bf",
    ("jacobi-generic-d40", True):
        "434efd830e62b1d7bf10eb3d8f4b499bd4e675e4321d1d6e23eb6ea20979be40",
}

# the smoke-test sizes of the casebook workloads
SMALL_DEPTH = "8"

# random gated documents of inverse-mix: count and depth range
NEGATIVE_DOCS = 60
NEGATIVE_DEPTHS = (12, 200)
# positive documents: (case, jacobi parameters, depth band) per slot
POSITIVE_SLOTS = (
    ("chebyshev", None, (16, 24)),
    ("chebyshev", None, (28, 36)),
    ("jacobi-chain", ("1/2", "1/2", "2", "-2"), (16, 24)),
    ("jacobi-chain", ("1/3", "2/7", "3", "-5"), (16, 24)),
)
COMMANDS = ("classify", "inverse-check", "constants")

Check = Callable[[int, str], Optional[str]]


class Op(NamedTuple):
    argv: list
    stdin: Optional[str]
    check: Check


class Workload(NamedTuple):
    name: str
    ops: list  # one cycle; the run repeats it


# how strongly each workload's ops feel a slowdown of the host: the log of
# an op's time follows the log of the reference kernel's time with about
# this slope (measured at the seed commit over 30 s windows; run.Speed)
SENSITIVITY = {"cheb-d80": 0.8, "jacobi-generic-d40": 0.6, "inverse-mix": 0.9}


WORKLOADS = ("cheb-d80", "jacobi-generic-d40", "inverse-mix")


def build(name: str, seed: int, casebook, small: bool = False,
          digest: Optional[str] = None) -> Workload:
    """The workload's op cycle. ``casebook`` is the imported
    ``mopsrel.casebook`` module, used for the positive documents; ``small``
    selects the smoke-test size; ``digest`` overrides the expected payload
    digest of a casebook workload."""
    if name == "cheb-d80":
        argv = list(CHEB_ARGV)
    elif name == "jacobi-generic-d40":
        argv = list(JACOBI_ARGV)
    elif name == "inverse-mix":
        return Workload(name, _inverse_mix(random.Random(seed), casebook, small))
    else:
        raise ValueError(f"unknown workload {name!r}")
    if small:
        argv[-1] = SMALL_DEPTH
    expected = DIGESTS[(name, small)] if digest is None else digest
    return Workload(name, [Op(argv, None, _digest_check(expected))])


def payload_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _digest_check(expected: str) -> Check:
    def check(code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        got = payload_digest(stdout)
        if got != expected:
            return f"payload sha256 {got} differs from the recorded {expected}"
        return None
    return check


# ---------------------------------------------------------------- inverse-mix


def _random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if not nonzero or v != 0:
            return v


def _constants_admissible(beta, gamma, r, s, t) -> bool:
    """gamma~_1 and gamma~_2 of the induced recurrence are nonzero, so the
    closed-form constants exist and ``constants`` answers instead of
    refusing the input."""
    bt = [beta[n] + s[n] - s[n + 1] - r[n] + r[n + 1] for n in range(3)]
    for n in (1, 2):
        gt = (
            gamma[n - 1] + t[n] - t[n + 1]
            + s[n] * (s[n + 1] - s[n] - beta[n] + beta[n - 1])
            - r[n] * (r[n + 1] - r[n] - bt[n] + bt[n - 1])
        )
        if gt == 0:
            return False
    return True


def random_gated_instance(rng: random.Random, depth: int):
    """(beta, gamma, r, s, t) of a random recurrence and a relation that
    classifies as NonDegenerate23, with nonzero r_n, t_n (n >= 3) and
    gamma_n. The recipe of the test suite's random gated instance, plus a
    redraw of the rare instance whose closed-form constants do not exist."""
    while True:
        while True:
            r = [Fraction(0)] + [
                _random_fraction(rng, nonzero=n >= 3) for n in range(1, depth + 3)
            ]
            s = [Fraction(0)] + [_random_fraction(rng) for _ in range(depth + 2)]
            t = [Fraction(0), Fraction(0)] + [
                _random_fraction(rng, nonzero=n >= 3) for n in range(2, depth + 3)
            ]
            # NonDegenerate23: the gate and r_3, t_3 are nonzero
            if t[2] - r[2] * (s[1] - r[1]) != 0 and r[3] != 0 and t[3] != 0:
                break
        beta = [_random_fraction(rng) for _ in range(depth + 2)]
        gamma = [_random_fraction(rng, nonzero=True) for _ in range(depth + 2)]
        if _constants_admissible(beta, gamma, r, s, t):
            return beta, gamma, r, s, t


def _document(beta, gamma, r, s, t) -> str:
    def strs(seq):
        return [str(v) for v in seq]
    return json.dumps({
        "recurrence": {"beta": strs(beta), "gamma": strs(gamma)},
        "relation": {"r": strs(r), "s": strs(s), "t": strs(t)},
    })


def _positive_document(casebook, case, params, depth):
    """A casebook report's recurrence and relation as an input document,
    and the functional relation constants the casebook certified."""
    if case == "chebyshev":
        report = casebook.chebyshev_case(depth)
    else:
        alpha, beta, a1, c1 = (Fraction(v) for v in params)
        report = casebook.jacobi_chain(
            casebook.JacobiParams(alpha, beta), a1, c1, depth
        )
        if not report.ok:
            raise RuntimeError(f"jacobi_chain{params} is not admissible at depth {depth}")
    rec, rel, fr = report.u_rec, report.rel, report.constants
    text = _document(rec.beta, rec.gamma, rel.r, rel.s, rel.t)
    expected = {"lambda": str(fr.lam), "c": str(fr.c), "a": str(fr.a), "b": str(fr.b)}
    return text, expected


def _stratified_depths(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """One seeded depth in each of ``count`` equal strata of [lo, hi], so
    the total work of a document set barely depends on the seed."""
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def _inverse_mix(rng: random.Random, casebook, small: bool) -> list:
    n_neg = 6 if small else NEGATIVE_DOCS
    lo, hi = (12, 20) if small else NEGATIVE_DEPTHS
    docs = []  # (text, depth, expected functional relation or None)
    for depth in _stratified_depths(rng, n_neg, lo, hi):
        docs.append((_document(*random_gated_instance(rng, depth)), depth, None))
    for case, params, (dlo, dhi) in POSITIVE_SLOTS:
        depth = 8 if small else rng.randint(dlo, dhi)
        text, expected = _positive_document(casebook, case, params, depth)
        docs.append((text, depth, expected))
    ops = []
    for text, depth, expected in docs:
        for command in COMMANDS:
            argv = [command, "-"] if command == "classify" else [
                command, "--depth", str(depth), "-"
            ]
            ops.append(Op(argv, text, _mix_check(command, expected)))
    rng.shuffle(ops)
    return ops


def _mix_check(command: str, expected: Optional[dict]) -> Check:
    positive = expected is not None

    def check(code: int, stdout: str) -> Optional[str]:
        want = 0 if positive or command == "classify" else 1
        if code != want:
            return f"{command}: exit {code}, expected {want}"
        payload = json.loads(stdout)
        if command == "classify":
            if payload.get("tag") != "NonDegenerate23":
                return f"classify: tag {payload.get('tag')!r}"
            return None
        if command == "inverse-check":
            if payload.get("agree") is not True:
                return "inverse-check: the checkers disagree"
            if payload.get("is_mops") is not positive:
                return f"inverse-check: is_mops {payload.get('is_mops')!r}"
        elif payload["verdict_constants"]["is_mops"] is not positive:
            return "constants: unexpected verdict"
        if positive and payload.get("functional_relation") != expected:
            return (
                f"{command}: functional_relation {payload.get('functional_relation')} "
                f"differs from the certified {expected}"
            )
        return None
    return check
