"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  An operation is one call into a public
``dgalgebra`` function, timed from outside; everything else (building the
inputs, checking the answer against ``reference``) happens between timed
calls.  Inputs come from the workload's seed alone.

A workload runs in rounds.  Every round holds the same fixed mix of
operation kinds (the seed picks the operands and their order), so the
latency distribution does not depend on where a run stops, as long as it
stops between rounds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from reference import RefAlgebra

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus_cli.json"


@dataclass
class Op:
    """One timed call: ``call()`` is timed, ``check(result)`` is not.

    ``answer(result)`` is a JSON-ready form of the result for the digest.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    answer: Callable[[Any], Any]


@dataclass
class Spec:
    """A presentation as plain data: ``images`` maps a generator name to
    ``(coefficient, [(name, exponent), ...])`` ordered products."""

    label: str
    generators: List[Tuple[str, int]]
    images: Dict[str, list]


def build(dg, spec: Spec):
    """The ``dgalgebra`` presentation of ``spec``, through the public API."""

    def differential(ns):
        return {name: product_sum(ns, terms) for name, terms in spec.images.items()}

    return dg.AlgebraPresentation.build(spec.generators, differential, label=spec.label)


def product_sum(ns, terms):
    """Sum of ordered products of the generator elements in ``ns``."""
    total = None
    for coeff, factors in terms:
        term = None
        for name, exp in factors:
            power = getattr(ns, name) ** exp
            term = power if term is None else term * power
        term = term * Fraction(coeff)
        total = term if total is None else total + term
    return total


def to_ref(ref: RefAlgebra, x) -> dict:
    """A ``dgalgebra`` element in the reference engine, re-signed by the
    reference's own product rule."""
    return ref.from_factors((c, m.factors) for m, c in x.terms.items())


def element_answer(x) -> list:
    if x is None:
        return None
    return sorted([[list(map(list, m.factors)), str(c)] for m, c in x.terms.items()])


def validated(dg, algebra):
    report = dg.validate_presentation(algebra)
    if not report.ok:
        raise ValueError(f"generated presentation {algebra!r} is invalid: {report}")
    return algebra


class Workload:
    name = ""
    fixed_rounds = 1  # rounds in the answer digest and in each traced-run phase

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *salt) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + salt)))

    def setup(self, dg):
        """Program-side set-up (load or build, and validate); timed as ``setup_s``."""
        raise NotImplementedError

    def round_ops(self, dg, state, r: int) -> List[Op]:
        raise NotImplementedError


# -- corpus_cli ------------------------------------------------------------------

CORPUS_COMMANDS = [
    ["check", "ex51.dga"],
    ["cohomology", "ex53.dga", "--max-degree", "30"],
    ["cohomology", "two_stage.dga", "--max-degree", "6", "--weights"],
    ["selfmaps", "ex51.dga"],
    ["selfmaps", "ex52.dga"],
    ["selfmaps", "ex53.dga"],
    ["classify", "ex51.dga", "ex51.dga"],
    ["nullhomotopic", "ex53.dga", "ex53.dga", "ex53_id.map", "--filtration", "degree"],
    ["homotopic", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_inv.map"],
    ["obstruction", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_id.map", "--v0", "x1,x2,y1,y2,y3"],
    ["family", "free_even.dga", "free_even_weighted.dga", "w_to_x.map", "--lambda", "2", "--count", "5"],
]

# morphism file -> (source, target) presentation files
CORPUS_MAPS = {
    "ex53_id.map": ("ex53.dga", "ex53.dga"),
    "ex53_inv.map": ("ex53.dga", "ex53.dga"),
    "w_to_x.map": ("free_even.dga", "free_even_weighted.dga"),
}


def run_cli(dg, argv: Sequence[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dg.cli.main(list(argv) + ["--json"])
    return code, out.getvalue()


class CorpusCli(Workload):
    """The README commands on the bundled corpus, in-process with ``--json``;
    exit code and stdout must match the committed golden byte for byte."""

    name = "corpus_cli"
    fixed_rounds = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))

    def setup(self, dg):
        loaded = {}
        for name in dg.corpus.names():
            if name.endswith(".dga"):
                parsed = dg.parse_presentation(dg.corpus.read(name))
                if parsed.presentation is None:
                    raise ValueError(f"{name}: {parsed.diagnostics}")
                loaded[name] = validated(dg, parsed.presentation)
        for name, (src, tgt) in CORPUS_MAPS.items():
            parsed = dg.parse_morphism(dg.corpus.read(name), loaded[src], loaded[tgt])
            if parsed.morphism is None or parsed.diagnostics:
                raise ValueError(f"{name}: {parsed.diagnostics}")
        return loaded

    def round_ops(self, dg, state, r):
        commands = list(CORPUS_COMMANDS)
        self.rng("round", r).shuffle(commands)
        ops = []
        for argv in commands:
            key = " ".join(argv)
            want = self.golden[key]
            ops.append(
                Op(
                    kind=argv[0],
                    call=lambda argv=argv: run_cli(dg, argv),
                    check=lambda got, want=want: list(got) == [want["exit"], want["stdout"]],
                    answer=lambda got, key=key: [key, got[0], got[1]],
                )
            )
        return ops


# -- cohomology_sweep --------------------------------------------------------------

SWEEP_TOP_DEGREE = 14
SWEEP_POOL = 12


def sweep_spec(rng: random.Random, i: int) -> Spec:
    """The ROADMAP probe shape with seeded roles and unit signs: degree-2
    cocycles A, B, C, E; degree-3 X, Y with dX = s1*A*C, dY = s2*B*C; a
    degree-4 z with dz = u*(s2*B*X - s1*A*Y), so that d(dz) = 0."""
    A, B, C = rng.sample(["a", "b", "c", "e"], 3)
    X, Y = rng.sample(["x", "y"], 2)
    s1, s2, u = (rng.choice((-1, 1)) for _ in range(3))
    return Spec(
        label=f"sweep{i}",
        generators=[("a", 2), ("b", 2), ("c", 2), ("e", 2), ("x", 3), ("y", 3), ("z", 4)],
        images={
            X: [(s1, [(A, 1), (C, 1)])],
            Y: [(s2, [(B, 1), (C, 1)])],
            "z": [(u * s2, [(B, 1), (X, 1)]), (-u * s1, [(A, 1), (Y, 1)])],
        },
    )


class CohomologySweep(Workload):
    """``cohomology_at_degree(A, n)`` for n = 0..N on a freshly built
    presentation per sweep, as ``dgalgebra cohomology --max-degree N`` does:
    each (presentation, degree) is asked once."""

    name = "cohomology_sweep"
    fixed_rounds = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng("pool")
        self.specs = [sweep_spec(rng, i) for i in range(SWEEP_POOL)]
        self.refs = [RefAlgebra(s.generators, s.images) for s in self.specs]

    def setup(self, dg):
        for spec in self.specs:
            validated(dg, build(dg, spec))
        return None

    def round_ops(self, dg, state, r):
        i = r % len(self.specs)
        algebra = build(dg, self.specs[i])
        ref = self.refs[i]

        def check(h, n):
            reps = [to_ref(ref, x) for x in h.representatives]
            return (
                h.degree == n
                and h.dimension == len(reps) == ref.cohomology_dimension(n)
                and all(not ref.d(x) for x in reps)
                and ref.independent_mod_boundaries(n, reps)
            )

        return [
            Op(
                kind=f"degree{n}",
                call=lambda n=n: dg.cohomology_at_degree(algebra, n),
                check=lambda h, n=n: check(h, n),
                answer=lambda h: [h.degree, h.dimension, [element_answer(x) for x in h.representatives]],
            )
            for n in range(SWEEP_TOP_DEGREE + 1)
        ]


# -- coboundary_queries ------------------------------------------------------------

QUERY_K = 4
# Elliptic pure algebras with a regular sequence of quadrics have H* of the
# exterior-algebra shape: dimensions 1,0,4,0,6,0,4,0,1 and zero above.
QUERY_DIMENSIONS = [1, 0, 4, 0, 6, 0, 4, 0, 1, 0, 0]
# (degree, count) per round of 32 calls.  The mix fixes where p50 and p90
# fall: p50 among the degree-6 calls, p90 among the degree-8 calls; the
# degree-10 call and the nilpotency search (degrees 2..10) weigh on ops_per_s.
COBOUNDARY_MIX = [(4, 8), (6, 8), (8, 6), (10, 1)]
EQUALS_MIX = [(4, 4), (6, 4)]
NILPOTENCY_MIX = 1
NILPOTENCY_BOUND = 5  # z**5 lies in H^10 = 0


def regular_quadrics(rng: random.Random) -> Tuple[List[Tuple[str, int]], Dict[str, list]]:
    """k even degree-2 and k odd degree-3 generators with random quadratic
    differentials, redrawn until the quadrics form a regular sequence."""
    evens = [f"a{i}" for i in range(1, QUERY_K + 1)]
    generators = [(a, 2) for a in evens] + [(f"y{i}", 3) for i in range(1, QUERY_K + 1)]
    pairs = [(p, q) for p in range(QUERY_K) for q in range(p, QUERY_K)]
    for _ in range(100):
        images = {}
        for i in range(1, QUERY_K + 1):
            terms = []
            for p, q in pairs:
                c = rng.randint(-2, 2)
                if c:
                    factors = [(evens[p], 2)] if p == q else [(evens[p], 1), (evens[q], 1)]
                    terms.append((c, factors))
            images[f"y{i}"] = terms
        if any(not t for t in images.values()):
            continue
        ref = RefAlgebra(generators, images)
        if [ref.cohomology_dimension(n) for n in range(len(QUERY_DIMENSIONS))] == QUERY_DIMENSIONS:
            return generators, images
    raise ValueError("no regular sequence of quadrics found")


@functools.lru_cache(maxsize=None)
def base_quadrics():
    """One draw for every seed: the cost of exact elimination swings by a
    quarter between random draws, more than the benchmark may spread."""
    return regular_quadrics(random.Random("coboundary_queries:base"))


def query_spec(rng: random.Random) -> Spec:
    """The base presentation under seeded sign changes a_i -> +-a_i and
    y_j -> +-y_j: an isomorphic algebra whose answers differ in sign but
    whose eliminations meet coefficients of the same sizes."""
    generators, images = base_quadrics()
    flip = {name: rng.choice((-1, 1)) for name, _ in generators}
    signed = {}
    for y, terms in images.items():
        signed[y] = []
        for c, factors in terms:
            for name, exp in factors:
                c *= flip[name] ** exp
            signed[y].append((c * flip[y], factors))
    return Spec("queries", generators, signed)


class CoboundaryQueries(Workload):
    """A stream of coboundary questions against one held elliptic
    presentation; most of them land on the same few degrees."""

    name = "coboundary_queries"
    fixed_rounds = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = query_spec(self.rng("presentation"))
        self.ref = RefAlgebra(self.spec.generators, self.spec.images)
        self.evens = [n for n, d in self.spec.generators if d == 2]

    def setup(self, dg):
        return validated(dg, build(dg, self.spec))

    def _monomial(self, rng, n: int) -> list:
        exps = [0] * QUERY_K
        for _ in range(n // 2):
            exps[rng.randrange(QUERY_K)] += 1
        return [(self.evens[i], e) for i, e in enumerate(exps) if e]

    def _cocycle(self, rng, n: int) -> list:
        """A monomial in the even generators, or one times a quadric d(y_i),
        so that about half the targets are coboundaries."""
        if rng.random() < 0.5:
            return [(rng.choice((-1, 1)), self._monomial(rng, n))]
        i = rng.randrange(QUERY_K)
        cofactor = self._monomial(rng, n - 4)
        return [(c, cofactor + factors) for c, factors in self.spec.images[f"y{i + 1}"]]

    def round_ops(self, dg, algebra, r):
        rng = self.rng("round", r)
        ref = self.ref
        ns = algebra.namespace()
        ops = []
        for n, count in COBOUNDARY_MIX:
            for _ in range(count):
                z = product_sum(ns, self._cocycle(rng, n))
                zr = to_ref(ref, z)
                ops.append(
                    Op(
                        kind=f"is_coboundary{n}",
                        call=lambda z=z: dg.is_coboundary(algebra, z),
                        check=lambda w, zr=zr: (
                            not ref.is_coboundary(zr) if w is None else ref.d(to_ref(ref, w)) == zr
                        ),
                        answer=element_answer,
                    )
                )
        for n, count in EQUALS_MIX:
            for _ in range(count):
                r1 = product_sum(ns, self._cocycle(rng, n))
                r2 = r1 + product_sum(ns, self._cocycle(rng, n))
                c1 = dg.CohomologyClass(algebra, n, r1)
                c2 = dg.CohomologyClass(algebra, n, r2)
                same = ref.is_coboundary(to_ref(ref, r1 - r2))
                ops.append(
                    Op(
                        kind=f"equals{n}",
                        call=lambda c1=c1, c2=c2: c1.equals(c2),
                        check=lambda got, same=same: got is same,
                        answer=lambda got: got,
                    )
                )
        for _ in range(NILPOTENCY_MIX):
            coeffs = [0] * QUERY_K
            while not any(coeffs):
                coeffs = [rng.randint(-2, 2) for _ in range(QUERY_K)]
            terms = [(c, [(a, 1)]) for c, a in zip(coeffs, self.evens) if c]
            z = product_sum(ns, terms)
            zr = ref.from_factors(terms)
            ops.append(
                Op(
                    kind="nilpotency",
                    call=lambda z=z: dg.nilpotency_witness(algebra, z, NILPOTENCY_BOUND),
                    check=lambda got, zr=zr: check_nilpotency(ref, zr, got),
                    answer=lambda got: None if got is None else [got[0], element_answer(got[1])],
                )
            )
        rng.shuffle(ops)
        return ops


def check_nilpotency(ref: RefAlgebra, z: dict, got) -> bool:
    """``got = (k, w)`` must have d(w) = z**k with no smaller power trivial;
    ``None`` must mean no power up to the bound is trivial."""
    k = NILPOTENCY_BOUND + 1 if got is None else got[0]
    for j in range(1, k):
        if ref.is_coboundary(ref.power(z, j)):
            return False
    return got is None or ref.d(to_ref(ref, got[1])) == ref.power(z, k)


WORKLOADS = {w.name: w for w in (CorpusCli, CohomologySweep, CoboundaryQueries)}
