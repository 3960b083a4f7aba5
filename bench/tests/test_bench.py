"""Tests of the benchmark itself: deterministic generators, valid
presentations, an honest reference, and clean runs of every workload.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import dgalgebra as dg  # noqa: E402
import dgalgebra.cli  # noqa: E402,F401
import run  # noqa: E402
from reference import RefAlgebra  # noqa: E402
from tracer import Tracer, dgalgebra_targets  # noqa: E402
from workloads import (  # noqa: E402
    QUERY_DIMENSIONS,
    WORKLOADS,
    CoboundaryQueries,
    CohomologySweep,
    build,
    to_ref,
)

SEEDS = [0, 1, 7]


def specs(workload):
    if isinstance(workload, CohomologySweep):
        return workload.specs
    if isinstance(workload, CoboundaryQueries):
        return [workload.spec]
    return []


@pytest.mark.parametrize("cls", [CohomologySweep, CoboundaryQueries])
def test_generators_are_deterministic_per_seed(cls):
    for seed in SEEDS:
        assert specs(cls(seed)) == specs(cls(seed))
    assert specs(cls(1)) != specs(cls(2))


@pytest.mark.parametrize("cls", [CohomologySweep, CoboundaryQueries])
def test_generated_presentations_are_minimal_with_d_squared_zero(cls):
    for seed in SEEDS:
        for spec in specs(cls(seed)):
            algebra = build(dg, spec)
            assert dg.validate_presentation(algebra).ok
            ref = RefAlgebra(spec.generators, spec.images)
            for name, _ in spec.generators:
                assert not ref.d(ref.d(ref.from_factors([(1, [(name, 1)])])))


def test_query_presentation_is_elliptic_with_expected_cohomology():
    workload = CoboundaryQueries(3)
    algebra = build(dg, workload.spec)
    dims = [dg.cohomology_at_degree(algebra, n).dimension for n in range(9)]
    assert dims == QUERY_DIMENSIONS[:9]


def test_reference_signs_and_dimensions_agree_with_the_program():
    ref = RefAlgebra([("u", 2), ("x", 3), ("y", 3)], {"y": [(1, [("u", 2)])]})
    x = ref.from_factors([(1, [("x", 1)])])
    y = ref.from_factors([(1, [("y", 1)])])
    assert ref.mul(x, y) == {m: -c for m, c in ref.mul(y, x).items()}
    assert ref.mul(x, x) == {}
    # d(x*y) = -x*d(y) = -x*u^2, since |x| is odd
    assert ref.d(ref.mul(x, y)) == ref.from_factors([(-1, [("x", 1), ("u", 2)])])

    spec = CohomologySweep(5).specs[0]
    ref = RefAlgebra(spec.generators, spec.images)
    algebra = build(dg, spec)
    for n in range(10):
        assert ref.cohomology_dimension(n) == dg.cohomology_at_degree(algebra, n).dimension


def first_round(name, seed=11):
    workload = WORKLOADS[name](seed)
    return workload, workload.round_ops(dg, workload.setup(dg), 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_clean(name):
    workload = WORKLOADS[name](11)
    sample = run.run_rounds(dg, workload, workload.setup(dg), lambda *a: False, keep_answers=1)
    assert sample.failures == []
    assert all(sample.ok) and len(sample.ok) >= 11


def test_checks_reject_wrong_answers():
    _, ops = first_round("coboundary_queries")
    for op in ops:
        if op.kind.startswith("is_coboundary"):
            w = op.call()
            if w is not None:
                assert op.check(w) and not op.check(None) and not op.check(w * Fraction(2))
            else:
                assert op.check(None)
        elif op.kind.startswith("equals"):
            got = op.call()
            assert op.check(got) and not op.check(not got)
        elif op.kind == "nilpotency":
            k, w = op.call()
            assert op.check((k, w)) and not op.check(None) and not op.check((k, w * Fraction(-1)))
    _, ops = first_round("corpus_cli")
    code, out = ops[0].call()
    assert ops[0].check((code, out)) and not ops[0].check((code, out + " "))


def test_sweep_check_rejects_a_missing_representative():
    _, ops = first_round("cohomology_sweep")
    op = ops[4]
    h = op.call()
    assert h.dimension > 0 and op.check(h)
    h.representatives = h.representatives[1:]
    assert not op.check(h)


def test_witness_conversion_respects_the_reference_sign_rule():
    workload, _ = first_round("coboundary_queries")
    algebra = build(dg, workload.spec)
    ns = algebra.namespace()
    x = ns.y1 * ns.y2
    assert to_ref(workload.ref, x) == workload.ref.from_factors([(1, [("y1", 1), ("y2", 1)])])
    assert to_ref(workload.ref, ns.y2 * ns.y1) == {m: -c for m, c in to_ref(workload.ref, x).items()}


def test_tracer_counts_and_restores_the_program():
    original = dg.cohomology.is_coboundary
    mul = dg.algebra.Element.__mul__
    tracer = Tracer()
    workload, ops = first_round("coboundary_queries")
    with tracer.installed("dgalgebra", dgalgebra_targets(tracer)):
        assert dg.is_coboundary is not original
        for op in ops[:4]:
            with tracer.op():
                op.call()
    assert dg.cohomology.is_coboundary is original and dg.is_coboundary is original
    assert dg.algebra.Element.__mul__ is mul
    called = sum(tracer.layers[k].calls for k in ("cohomology.is_coboundary", "cohomology.class_coordinates"))
    assert called >= 1 and tracer.layers["linalg.rref"].calls >= 1
    assert tracer.asks >= called


def test_latencies_are_scaled_by_the_probes_around_them():
    sample = run.Sample(latencies=[0.1, 0.3], segments=[0, 1], ok=[True, True])
    sample.probes = [run.PROBE_NOMINAL_S, 3 * run.PROBE_NOMINAL_S, run.PROBE_NOMINAL_S]
    assert sample.scaled() == pytest.approx([0.05, 0.15])
    assert sample.ops_per_s(sample.scaled()) == pytest.approx(10.0)


def test_reported_metrics_match_benchmark_json(monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "MIN_OPS", 5)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "corpus_cli", "--seed", "2", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
