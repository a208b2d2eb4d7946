"""Benchmark of the mopsrel CLI, driven in-process.

    python3 perfbench/run.py --workload cheb-d80 --seed 1 --seconds 30 --trace 0

One closed-loop client (one process, one thread) calls
``mopsrel.cli.main(argv)`` op after op, each only after the previous one
returned. stdout is the payload and is checked; stderr, which carries a
timestamp, is thrown away. Run from the root of a source checkout: the
package is imported from ``src/``, and the benchmark exits with code 2 and
no result when it is not there.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs each op
untraced and then traced (see ``tracer.py``) and reports per-layer metrics
per op. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import re
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
P90_MIN_OPS = 100  # p90 is printed only with at least ten samples beyond it
SAMPLE_INTERVAL_S = 0.25
REFERENCE_KERNEL_MS = 4.0

LAYER_METRICS = [
    ("poly.mul.calls", "calls/op"), ("poly.mul.self_ms", "ms/op"),
    ("poly.add.calls", "calls/op"), ("poly.add.self_ms", "ms/op"),
    ("poly.eq.calls", "calls/op"), ("poly.eq.self_ms", "ms/op"),
    ("poly.eval.self_ms", "ms/op"),
    ("functional.moments_from_recurrence.calls", "calls/op"),
    ("functional.moments_from_recurrence.self_ms", "ms/op"),
    ("functional.recurrence_from_moments.calls", "calls/op"),
    ("functional.recurrence_from_moments.self_ms", "ms/op"),
    ("functional.mops_from_recurrence.calls", "calls/op"),
    ("functional.mops_from_recurrence.self_ms", "ms/op"),
    ("functional.apply.calls", "calls/op"), ("functional.apply.self_ms", "ms/op"),
    ("functional.norm_squared.calls", "calls/op"),
    ("functional.norm_squared.self_ms", "ms/op"),
    ("functional.moment_ops.self_ms", "ms/op"),
    ("families.jacobi_recurrence.calls", "calls/op"),
    ("families.jacobi_recurrence.self_ms", "ms/op"),
    ("relation23.classify.calls", "calls/op"),
    ("relation23.classify.self_ms", "ms/op"),
    ("relation23.induced_recurrence.calls", "calls/op"),
    ("relation23.induced_recurrence.self_ms", "ms/op"),
    ("relation23.auxiliary_sequences.calls", "calls/op"),
    ("relation23.auxiliary_sequences.self_ms", "ms/op"),
    ("relation23.constant_sequences.calls", "calls/op"),
    ("relation23.constant_sequences.self_ms", "ms/op"),
    ("relation23.check_by_equations.self_ms", "ms/op"),
    ("relation23.check_by_constants.self_ms", "ms/op"),
    ("relation23.relation_constants.self_ms", "ms/op"),
    ("relation23.functional_identity.self_ms", "ms/op"),
    ("relation23.regularity_criterion.self_ms", "ms/op"),
    ("casebook.chebyshev_case.self_ms", "ms/op"),
    ("casebook.jacobi_chain.self_ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"), ("cli.parse.self_ms", "ms/op"),
    ("cli.emit.self_ms", "ms/op"),
    ("rational.parse.calls", "calls/op"), ("rational.format.calls", "calls/op"),
    ("size.max_coeff_bits", "bits"),
    ("trace.overhead_pct", "%"),
]

_RATIONAL = re.compile(r'"(-?\d+)(?:/(\d+))?"')


class Failures:
    """Counts ops that deviated and keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, reason) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def setup(name: str, seed: int, small: bool, digest):
    """Import the package afresh and build the workload's op cycle."""
    for module in [m for m in sys.modules if m == "mopsrel" or m.startswith("mopsrel.")]:
        del sys.modules[module]
    cli = importlib.import_module("mopsrel.cli")
    casebook = importlib.import_module("mopsrel.casebook")
    return cli, workloads.build(name, seed, casebook, small, digest)


def run_op(cli, op):
    """(exit code, stdout, seconds, error) of one in-process CLI call."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin or "")
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed op, not a crash
        code, error = None, f"{op.argv[0]}: raised {exc!r}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin = stdin
    return code, out.getvalue(), elapsed, error


def check_op(op, code, stdout, error):
    if error:
        return error
    try:
        return op.check(code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{op.argv[0]}: unreadable payload ({exc!r})"


def max_coeff_bits(stdout: str) -> int:
    bits = 0
    for match in _RATIONAL.finditer(stdout):
        for digits in match.groups():
            if digits is None:
                continue
            digits = digits.lstrip("-")
            if len(digits) > 4000:  # beyond int()'s default digit limit
                bits = max(bits, math.ceil(len(digits) * math.log2(10)))
            else:
                bits = max(bits, int(digits).bit_length())
    return bits


def reference_kernel() -> None:
    """Fixed small-Fraction arithmetic from the standard library, the
    yardstick of machine speed. It must never change: every reference time
    this benchmark reports is measured against it."""
    a, b = Fraction(1, 2), Fraction(-3, 4)
    for i in range(600):
        c = a * b + Fraction(i % 7, 5) - a
        a, b = b, Fraction(c.numerator % 97, (c.denominator % 89) + 1)


class Speed:
    """Converts wall time into reference time.

    A shared host's speed can swing by 1.7x within seconds. So the
    reference kernel is timed (best of three) after a timed item, at most
    every ``SAMPLE_INTERVAL_S``, and the items since the previous sample are
    scaled by ``(REFERENCE_KERNEL_MS / sample) ** sensitivity``: roughly,
    the wall time the item takes when the kernel takes
    ``REFERENCE_KERNEL_MS``. A workload's ops slow down by about this power
    of the kernel's slowdown (``workloads.SENSITIVITY``; see README.md).
    """

    def __init__(self, sensitivity: float):
        self.sensitivity = sensitivity
        self.factors: list = []  # one per timed item, in order
        self.samples_ms: list = []
        self._pending = 0
        self._last = -math.inf

    def timed(self) -> None:
        """Record one more timed item, and sample if it is time to."""
        self._pending += 1
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def sample(self) -> None:
        if not self._pending:
            return
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - start)
        self.samples_ms.append(best * 1000)
        factor = (REFERENCE_KERNEL_MS / (best * 1000)) ** self.sensitivity
        self.factors.extend([factor] * self._pending)
        self._pending = 0
        self._last = time.perf_counter()


def measure(cli, ops, seconds: float, failures: Failures, speed: Speed) -> list:
    """Wall latencies of ops run back to back, in whole cycles of the
    workload until ``seconds`` have passed, after one untimed warm-up op;
    ``speed`` gets one factor per latency."""
    code, out, _, error = run_op(cli, ops[0])
    failures.record(check_op(ops[0], code, out, error))
    latencies = []
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        for op in ops:
            code, out, elapsed, error = run_op(cli, op)
            failures.record(check_op(op, code, out, error))
            latencies.append(elapsed)
            speed.timed()
    speed.sample()
    return latencies


def measure_traced(cli, ops, seconds: float, failures: Failures, tracer: Tracer,
                   speed: Speed):
    """Each op untraced, then traced, over whole cycles of the workload, for
    about ``seconds`` and at least one cycle. Returns (untraced latencies,
    traced latencies, largest coefficient bits of any payload); ``speed``
    gets one factor per pair, and traced op ``k`` is ``tracer.op == k``."""
    plain, traced = [], []
    bits = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in ops:
            code, out, elapsed, error = run_op(cli, op)
            failures.record(check_op(op, code, out, error))
            plain.append(elapsed)
            tracer.op += 1
            tracer.install()
            try:
                t_code, t_out, t_elapsed, t_error = run_op(cli, op)
            finally:
                tracer.uninstall()
            reason = check_op(op, t_code, t_out, t_error)
            if reason is None and (t_code, t_out) != (code, out):
                reason = f"{op.argv[0]}: traced payload differs from the untraced one"
            failures.record(reason)
            traced.append(t_elapsed)
            speed.timed()
            bits = max(bits, max_coeff_bits(out))
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            speed.sample()
            return plain, traced, bits


def end_to_end(setup_times, setup_speed: Speed, latencies, speed: Speed) -> dict:
    """The gated metrics, in reference time (see ``Speed``)."""
    ref = [t * f for t, f in zip(latencies, speed.factors)]
    return {
        "setup_s": (statistics.median(
            t * f for t, f in zip(setup_times, setup_speed.factors)), "s"),
        "ops_per_s": (len(ref) / sum(ref), "1/s"),
        "op_p50_ms": (statistics.median(ref) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_figures(setup_times, latencies, speed: Speed) -> dict:
    """The same timings in plain wall time, and the tail where the run has
    enough ops for it; printed, not gated."""
    out = {
        "wall.setup_s": (statistics.median(setup_times), "s"),
        "wall.ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "wall.op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "reference_kernel_ms": (statistics.median(speed.samples_ms), "ms"),
    }
    if len(latencies) >= P90_MIN_OPS:
        ref = [t * f for t, f in zip(latencies, speed.factors)]
        out["op_p90_ms"] = (statistics.quantiles(ref, n=10)[-1] * 1000, "ms")
    return out


def per_layer(tracer: Tracer, plain, traced, bits, speed: Speed) -> dict:
    calls, self_s = tracer.layer_totals(speed.factors)
    n = len(traced)
    out = {}
    for name, unit in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = (calls[layer] / n, unit)
        elif kind == "self_ms":
            out[name] = (self_s[layer] * 1000 / n, unit)
    out["size.max_coeff_bits"] = (bits, "bits")
    out["trace.overhead_pct"] = (100 * (sum(traced) - sum(plain)) / sum(plain), "%")
    return out


def layer_map_findings(workload: str, metrics: dict) -> list:
    """The layer map's predictions for this workload, each confirmed or
    contradicted by the traced run."""
    value = {name: v for name, (v, _) in metrics.items()}
    self_ms = {n[: -len(".self_ms")]: v for n, v in value.items() if n.endswith(".self_ms")}
    findings = []
    if workload == "inverse-mix":
        findings.append(("poly.mul.calls is 0", value["poly.mul.calls"] == 0))
        total = sum(self_ms.values())
        share = sum(v for k, v in self_ms.items() if k.startswith(("relation23.", "cli.")))
        findings.append((f"relation23.* + cli.* carry most self time ({share / total:.0%})",
                         share > total / 2))
    elif workload == "jacobi-generic-d40":
        top = max(self_ms, key=self_ms.get)
        findings.append((f"poly.mul has the largest self time (largest: {top})",
                         top == "poly.mul"))
    elif workload == "cheb-d80":
        functional = {k: v for k, v in self_ms.items() if k.startswith("functional.")}
        top = max(functional, key=functional.get)
        findings.append((f"functional.moments_from_recurrence has the largest functional.* "
                         f"self time (largest: {top})",
                         top == "functional.moments_from_recurrence"))
    return findings


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              small: bool = False, digest=None, log=print) -> dict:
    """One run: set up ``SETUP_REPEATS`` times, measure, and return the
    result object. ``small`` and ``digest`` are the smoke test's size and
    expected-payload overrides."""
    importlib.import_module("mopsrel.cli")  # compiles bytecode if it must
    sensitivity = workloads.SENSITIVITY[workload]
    setup_times, setup_speed = [], Speed(sensitivity)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli, wl = setup(workload, seed, small, digest)
        setup_times.append(time.perf_counter() - start)
        setup_speed.timed()
        setup_speed.sample()
    failures, speed = Failures(), Speed(sensitivity)
    if trace:
        tracer = Tracer()
        latencies, traced, bits = measure_traced(
            cli, wl.ops, seconds, failures, tracer, speed)
        for target in sorted(set(tracer.missing)):
            print(f"perfbench: trace target {target} not found", file=sys.stderr)
        metrics = per_layer(tracer, latencies, traced, bits, speed)
    else:
        latencies = measure(cli, wl.ops, seconds, failures, speed)
        metrics = end_to_end(setup_times, setup_speed, latencies, speed)
    summary = {
        **end_to_end(setup_times, setup_speed, latencies, speed),
        **wall_figures(setup_times, latencies, speed),
        **metrics,
    }
    log(f"# {workload} seed={seed} trace={int(trace)}: {len(latencies)} timed ops, "
        f"{failures.attempted} attempted, {failures.failed} failed, "
        f"fail_ratio={failures.failed / failures.attempted:g}")
    for name, (value, unit) in summary.items():
        log(f"#   {name} = {value:.6g} {unit}")
    if trace:
        for claim, ok in layer_map_findings(workload, metrics):
            log(f"# layer map: {claim}: {'confirmed' if ok else 'CONTRADICTED'}")
    for reason in failures.reasons:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "mopsrel" / "__init__.py").is_file():
        print(f"perfbench: no mopsrel sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
