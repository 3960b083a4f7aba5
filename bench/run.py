"""The dgalgebra benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the program is imported from ``src/``.
With ``--trace 0`` the workload runs whole rounds until the timed calls add
up to S seconds (and at least ``MIN_OPS`` calls, so that ten or more fall
beyond p90) and reports the end-to-end metrics.  Reported times are scaled
to a nominal host speed by a probe run around every round (see
``probe_seconds``); the record line also holds the unscaled figures.  With ``--trace 1`` it runs
the workload's fixed rounds twice on fresh inputs, once plain and once with
the per-layer wrappers of ``tracer.py`` installed, and reports the per-layer
metrics and the tracing overhead.  Every answer is checked against
``reference.py`` (or, for ``corpus_cli``, the committed golden output); a
wrong answer or a raised exception is a failed operation.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary and a
``record`` line holding the run environment, sample counts, the answer
digest and the traffic properties.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

MIN_OPS = 100
SETUP_REPEATS = 7
# Timings are scaled to a host on which ``probe_seconds()`` reads this.
PROBE_NOMINAL_S = 0.010
PROBE_EVERY_S = 0.5  # of timed calls between probes
# Timed import in a fresh interpreter, followed by that interpreter's own probe.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dgalgebra, dgalgebra.cli; t = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); from run import probe_seconds; print(t, probe_seconds())"
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, scaled by that
    interpreter's probe; median of several."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-E", "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, probe = map(float, out.stdout.split())
        times.append(seconds * PROBE_NOMINAL_S / probe)
    return statistics.median(times)


def _probe_once(n: int = 14) -> None:
    """Exact row reduction of a fixed n x n ``Fraction`` matrix: the same
    kind of interpreter work as the program's, done by the benchmark's own code."""
    rows = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


def probe_seconds() -> float:
    """How fast the host runs right now: best of three probe runs.

    On a shared machine the speed of a core drifts by half again or more for
    minutes at a time, and a fixed program slows with it.  Dividing each
    timing by the probe taken around it, and multiplying by
    ``PROBE_NOMINAL_S``, removes that drift from the reported figures; the
    raw figures go to the record line.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Sample:
    """Every timed call of a run of whole rounds: its round, kind, latency
    and whether its answer was right."""

    rounds: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    segments: list = field(default_factory=list)  # probe segment of each call
    probes: list = field(default_factory=list)  # before each segment and after the last

    def scaled(self) -> list:
        """Latencies at nominal host speed, by the probes around their segment."""
        factor = [PROBE_NOMINAL_S * 2 / (a + b) for a, b in zip(self.probes, self.probes[1:])]
        return [x * factor[k] for k, x in zip(self.segments, self.latencies)]

    def round_seconds(self) -> list:
        out = [0.0] * (self.rounds[-1] + 1)
        for r, x in zip(self.rounds, self.latencies):
            out[r] += x
        return out

    def ops_per_s(self, latencies) -> float:
        return sum(self.ok) / sum(latencies)


def run_rounds(dg, workload, state, keep_going, tracer=None, keep_answers=0) -> Sample:
    """Run whole rounds while ``keep_going(rounds, op_seconds, attempted)``."""
    sample = Sample()
    rounds = 0
    op_seconds = 0.0
    since_probe = PROBE_EVERY_S
    while rounds == 0 or keep_going(rounds, op_seconds, len(sample.latencies)):
        for op in workload.round_ops(dg, state, rounds):
            if since_probe >= PROBE_EVERY_S:
                sample.probes.append(probe_seconds())
                since_probe = 0.0
            ok = True
            result = None
            start = time.perf_counter()
            try:
                with tracer.op() if tracer else contextlib.nullcontext():
                    result = op.call()
            except Exception:
                ok = False
                sample.failures.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
            elapsed = time.perf_counter() - start
            op_seconds += elapsed
            since_probe += elapsed
            sample.segments.append(len(sample.probes) - 1)
            if ok:
                try:
                    ok = bool(op.check(result))
                except Exception:
                    ok = False
                if not ok:
                    sample.failures.append(f"{op.kind}: wrong answer")
            sample.rounds.append(rounds)
            sample.kinds.append(op.kind)
            sample.latencies.append(elapsed)
            sample.ok.append(ok)
            if rounds < keep_answers:
                sample.answers.append([op.kind, op.answer(result) if ok else "FAILED"])
        rounds += 1
    sample.probes.append(probe_seconds())
    return sample


def digest(answers) -> str:
    """Order-free digest of the answers: the round order is seeded, the set is not."""
    lines = sorted(json.dumps(a, sort_keys=True) for a in answers)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dgalgebra").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(dg, workload, args):
    import_s = import_seconds()
    probe_before = probe_seconds()
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(dg)
        setup_times.append(time.perf_counter() - start)
    setup_program_s = statistics.median(setup_times) * PROBE_NOMINAL_S * 2 / (probe_before + probe_seconds())

    def keep_going(rounds, op_seconds, attempted):
        return rounds < workload.fixed_rounds or op_seconds < args.seconds or attempted < MIN_OPS

    sample = run_rounds(dg, workload, state, keep_going, keep_answers=workload.fixed_rounds)
    scaled = sample.scaled()
    attempted, failed = len(scaled), len(sample.failures)
    p90 = percentile(scaled, 90)
    values = {
        "ops_per_s": sample.ops_per_s(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1000,
        "latency_p90_ms": p90 * 1000,
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": import_s + setup_program_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    by_kind = {}
    for kind, x in zip(sample.kinds, scaled):
        by_kind.setdefault(kind, []).append(x)
    record = {
        "samples": attempted,
        "samples_beyond_p90": sum(1 for x in scaled if x > p90),
        "failed_ratio": failed / attempted,
        "raw": {
            "ops_per_s": sample.ops_per_s(sample.latencies),
            "latency_p50_ms": statistics.median(sample.latencies) * 1000,
            "latency_p90_ms": percentile(sample.latencies, 90) * 1000,
            "setup_program_s": statistics.median(setup_times),
        },
        "import_s": import_s,
        "setup_program_s": setup_program_s,
        "probe_ms": {"nominal": PROBE_NOMINAL_S * 1000, "median": statistics.median(sample.probes) * 1000,
                     "min": min(sample.probes) * 1000, "max": max(sample.probes) * 1000},
        "round_seconds": sample.round_seconds(),
        "median_ms_by_kind": {k: statistics.median(v) * 1000 for k, v in sorted(by_kind.items())},
        "answer_digest": digest(sample.answers),
        "digest_rounds": workload.fixed_rounds,
    }
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return metrics, attempted, sample.failures, record


def traced(dg, workload, args):
    from tracer import Tracer, dgalgebra_targets

    def fixed(rounds, op_seconds, attempted):
        return rounds < workload.fixed_rounds

    plain = run_rounds(dg, workload, workload.setup(dg), fixed)
    tracer = Tracer()
    with tracer.installed("dgalgebra", dgalgebra_targets(tracer)):
        sample = run_rounds(dg, workload, workload.setup(dg), fixed, tracer=tracer, keep_answers=workload.fixed_rounds)
    # self times at nominal host speed, by the traced phase's median probe
    values = layer_values(tracer, PROBE_NOMINAL_S / statistics.median(sample.probes))
    plain_rate, traced_rate = plain.ops_per_s(plain.scaled()), sample.ops_per_s(sample.scaled())
    values["trace.ops_per_s_untraced"] = (plain_rate, "1/s")
    values["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    values["trace.overhead_pct"] = ((plain_rate - traced_rate) / plain_rate * 100, "%")
    record = {
        "samples_untraced": len(plain.latencies),
        "samples_traced": len(sample.latencies),
        "rounds_per_phase": workload.fixed_rounds,
        "probe_ms": statistics.median(sample.probes) * 1000,
        "answer_digest": digest(sample.answers),
        "layers": {k: v for k, (v, _) in values.items()},
        "traffic": {
            "max_d_matrix": [tracer.matrix.d_rows, tracer.matrix.d_cols],
            "max_d_matrix_density": values["traffic.max_d_density"][0],
            "rref_density": values["linalg.rref.density"][0],
            "rref_max_coeff_bits": tracer.matrix.max_coeff_bits,
            "repeat_ratio": values["cohomology.repeat_ratio"][0],
        },
    }
    metrics = {k: metric(*values[k]) for k in PER_LAYER}
    failures = plain.failures + sample.failures
    return metrics, len(plain.latencies) + len(sample.latencies), failures, record


def layer_values(tracer, time_scale: float) -> dict:
    """Every per-layer figure of a traced run, as ``name -> (value, unit)``."""
    values = {}
    for layer, stats in tracer.layers.items():
        values[f"{layer}.calls"] = (stats.calls, "count")
        values[f"{layer}.self_s"] = (stats.self_ns / 1e9 * time_scale, "s")
    for name in COUNTERS:
        values[name] = (tracer.counters.get(name, 0), "count")
    m = tracer.matrix
    values["linalg.rref.cells"] = (m.cells, "count")
    values["linalg.rref.nnz"] = (m.nnz, "count")
    values["linalg.rref.density"] = (m.nnz / m.cells if m.cells else 0.0, "ratio")
    values["linalg.rref.max_coeff_bits"] = (m.max_coeff_bits, "bits")
    values["traffic.max_d_rows"] = (m.d_rows, "count")
    values["traffic.max_d_cols"] = (m.d_cols, "count")
    cells = m.d_rows * m.d_cols
    values["traffic.max_d_density"] = (m.d_nnz / cells if cells else 0.0, "ratio")
    values["cohomology.repeat_ratio"] = (tracer.repeats / tracer.asks if tracer.asks else 0.0, "ratio")
    return values


COUNTERS = [
    "classify.equations", "classify.families",
    "obstruction.verdict_yes", "obstruction.verdict_no", "obstruction.verdict_undetermined",
]
# The per-layer metrics of the last stdout line.  Self times appear there only
# for the layers every workload reaches; a layer a workload never calls would
# report a time of exactly zero on every run.  The record line holds them all.
PER_LAYER = [
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.cells", "linalg.rref.nnz",
    "linalg.rref.density", "linalg.rref.max_coeff_bits",
    "linalg.reduce.calls", "linalg.smith.calls",
    "cohomology.degree.calls", "cohomology.d_matrix.calls", "cohomology.is_coboundary.calls",
    "cohomology.class_coordinates.calls", "cohomology.induced_map.calls", "cohomology.repeat_ratio",
    "algebra.monomial_basis.calls", "algebra.monomial_basis.self_s",
    "algebra.mul.calls", "algebra.mul.self_s", "algebra.normalize_monomial.calls",
    "algebra.derivation.calls", "algebra.derivation.self_s", "algebra.morphism_apply.calls",
    "symbolic.mul.calls", "symbolic.substitute.calls",
    "classify.equations", "classify.families",
    "cylinder.alpha.calls", "cylinder.correction.calls",
    "obstruction.compute.calls", "obstruction.decide_homotopic.calls",
    "obstruction.decide_nullhomotopic.calls",
    "obstruction.verdict_yes", "obstruction.verdict_no", "obstruction.verdict_undetermined",
    "cli.main.calls",
    "traffic.max_d_rows", "traffic.max_d_cols", "traffic.max_d_density",
    "trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_pct",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dgalgebra" / "__init__.py").is_file():
        print(f"no dgalgebra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dgalgebra as dg
    import dgalgebra.cli  # noqa: F401  (the CLI workload calls dg.cli.main)

    if Path(dg.__file__).resolve().parent != SRC / "dgalgebra":
        print(f"imported dgalgebra from {dg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    run = traced if args.trace else end_to_end
    metrics, attempted, failures, record = run(dg, workload, args)

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    record["environment"] = environment(args)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"#   {name:40s} {m['value']:>16.6g} {m['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
