"""Command-line interface.

Every command reads presentation/morphism files, prints a human report, and
with ``--json`` prints a deterministic machine report instead.  A ``.dga``
or ``.map`` file argument that does not exist on disk is read from the
bundled corpus by its basename, so ``dgalgebra check ex51.dga`` works from
anywhere.

Exit codes: 0 success, 2 parse error, 3 validation failure, 4 precondition
violation, 5 undetermined result or a constraint system outside the solver's
shape (``EXIT_CODES`` maps each error type to its code).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import corpus
from .algebra import AlgebraPresentation, Morphism, WeightAssignment, validate_presentation
from .classify import _equivalence_group, classify_homotopy_set
from .cohomology import cohomology_at_degree, weight_split_cohomology
from .cylinder import Homotopy
from .errors import (
    ClassificationIncomplete,
    DgaError,
    InvalidDecomposition,
    PreconditionViolated,
    UnsupportedShape,
    WeightsMissing,
)
from .obstruction import (
    Filtration,
    compute_obstruction,
    decide_homotopic,
    decide_nullhomotopic,
    make_decomposition,
)
from .parser import element_to_json, parse_morphism, parse_presentation
from .weights import verify_infinite_family

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_UNDETERMINED = 5


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        base = os.path.basename(path)
        if base.endswith((".dga", ".map")):
            return corpus.read(base)
    except FileNotFoundError:
        pass
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from None
    raise CliFailure(EXIT_PARSE, f"cannot read {path}")


def _load_presentation(path: str) -> AlgebraPresentation:
    result = parse_presentation(_read_file(path))
    if result.presentation is None:
        msgs = "\n".join(f"{path}:{d}" for d in result.diagnostics)
        raise CliFailure(EXIT_PARSE, msgs or f"{path}: parse failed")
    return result.presentation


def _load_valid_presentation(path: str) -> AlgebraPresentation:
    algebra = _load_presentation(path)
    report = validate_presentation(algebra)
    if not report.ok:
        raise CliFailure(EXIT_VALIDATION, f"{path}: {report}")
    return algebra


def _load_pair(load, first: str, second: str):
    """``load`` of both paths; a path named twice is loaded once."""
    x = load(first)
    return x, (x if second == first else load(second))


def _load_morphism(path: str, source, target) -> Morphism:
    result = parse_morphism(_read_file(path), source, target)
    if result.diagnostics:
        msgs = "\n".join(f"{path}:{d}" for d in result.diagnostics)
        raise CliFailure(EXIT_PARSE, msgs)
    if result.has_unknowns or result.morphism is None:
        raise CliFailure(
            EXIT_PRECONDITION, f"{path}: this command needs a fully specified morphism"
        )
    if not result.morphism.verified:
        bad = ", ".join(name for name, _ in result.morphism.chain_report())
        raise CliFailure(EXIT_PRECONDITION, f"{path}: not a chain map (fails at {bad})")
    return result.morphism


def _morphism_json(f: Morphism) -> dict:
    return {name: element_to_json(f.images[name]) for name in f.source.generator_names()}


def _homotopy_json(h: Homotopy) -> dict:
    return {
        "start": _morphism_json(h.start),
        "bars": {n: element_to_json(x) for n, x in sorted(h.bar_images.items())},
    }


def _emit(report: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(human)


# -- commands --------------------------------------------------------------------


def cmd_check(args) -> int:
    algebra = _load_presentation(args.file)
    report = validate_presentation(algebra)
    data = {
        "command": "check",
        "algebra": algebra.label,
        "ok": report.ok,
        "issues": [str(i) for i in report.issues],
    }
    _emit(data, args.json, str(report))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_cohomology(args) -> int:
    algebra = _load_valid_presentation(args.file)
    if args.weights:
        WeightAssignment.from_generators(algebra).require_valid()
    degrees = {}
    human = []
    for n in range(0, args.max_degree + 1):
        result = cohomology_at_degree(algebra, n)
        entry = {
            "dimension": result.dimension,
            "representatives": [element_to_json(r) for r in result.representatives],
        }
        if args.weights:
            split = weight_split_cohomology(algebra, n) if n >= 1 else {}
            entry["weight_split"] = {
                str(i): [element_to_json(r) for r in reps] for i, reps in split.items()
            }
        degrees[str(n)] = entry
        if result.dimension:
            reps = "; ".join(str(r) for r in result.representatives)
            human.append(f"H^{n}: dim {result.dimension}  [{reps}]")
    data = {"command": "cohomology", "algebra": algebra.label, "degrees": degrees}
    _emit(data, args.json, "\n".join(human) if human else "no cohomology in range")
    return EXIT_OK


def cmd_selfmaps(args) -> int:
    algebra = _load_valid_presentation(args.file)
    classification = classify_homotopy_set(algebra, algebra)
    if classification.kind != "finite":
        raise CliFailure(
            EXIT_UNDETERMINED,
            f"classification is {classification.kind}: {classification.certificate}",
        )
    group = _equivalence_group(algebra, classification)
    data = {
        "command": "selfmaps",
        "algebra": algebra.label,
        "families": [
            {
                "fixed": {k: str(v) for k, v in sorted(f.fixed.items())},
                "free": f.free,
                "dependent": {k: str(v) for k, v in sorted(f.dependent.items())},
            }
            for f in classification.families
        ],
        "classes": len(classification.classes),
        "representatives": [
            _morphism_json(c.representative) for c in classification.classes
        ],
        "group": group.label,
        "group_order": group.order,
    }
    human = (
        f"{len(classification.families)} solution families, "
        f"{len(classification.classes)} homotopy classes, "
        f"self-equivalence group: {group.label}"
    )
    _emit(data, args.json, human)
    return EXIT_OK


def cmd_classify(args) -> int:
    source, target = _load_pair(_load_valid_presentation, args.source, args.target)
    classification = classify_homotopy_set(source, target)
    data = {
        "command": "classify",
        "source": source.label,
        "target": target.label,
        "kind": classification.kind,
        "classes": classification.class_count,
        "representatives": [
            _morphism_json(c.representative) for c in classification.classes
        ],
    }
    if classification.kind == "finite":
        human = f"homotopy set is finite with {classification.class_count} classes"
        code = EXIT_OK
    elif classification.kind == "infinite":
        human = f"homotopy set is infinite: {classification.certificate}"
        data["certificate"] = {
            k: (element_to_json(v) if hasattr(v, "terms") else v)
            for k, v in (classification.certificate or {}).items()
        }
        code = EXIT_OK
    else:
        human = f"classification incomplete: {classification.certificate}"
        code = EXIT_UNDETERMINED
    _emit(data, args.json, human)
    return code


def cmd_nullhomotopic(args) -> int:
    source, target = _load_pair(_load_valid_presentation, args.source, args.target)
    f = _load_morphism(args.mapfile, source, target)
    if args.filtration == "stages":
        filtration = Filtration.from_generator_stages(source)
    else:
        filtration = Filtration.by_degree(source)
    result = decide_nullhomotopic(f, filtration)
    if result.nullhomotopic:
        data = {
            "command": "nullhomotopic",
            "verdict": "yes",
            "homotopy": _homotopy_json(result.homotopy),
        }
        _emit(data, args.json, "nullhomotopic: yes (bar witnesses computed)")
    else:
        failure = result.failure
        data = {
            "command": "nullhomotopic",
            "verdict": "no",
            "stage": failure.stage,
            "modified_map": _morphism_json(failure.modified_map),
            "obstruction": {
                w: element_to_json(c.representative)
                for w, c in failure.obstruction.classes.items()
            },
        }
        _emit(
            data,
            args.json,
            f"nullhomotopic: no; first obstructed stage {failure.stage}, "
            f"nonzero at {failure.obstruction.nonzero_generators()}",
        )
    return EXIT_OK


def cmd_homotopic(args) -> int:
    source, target = _load_pair(_load_valid_presentation, args.source, args.target)
    f, g = _load_pair(lambda path: _load_morphism(path, source, target), args.f, args.g)
    decision = decide_homotopic(f, g)
    data = {"command": "homotopic", "verdict": decision.verdict, "detail": decision.detail}
    if decision.yes:
        data["homotopy"] = _homotopy_json(decision.homotopy)
        _emit(data, args.json, f"homotopic: yes ({decision.detail})")
        return EXIT_OK
    if decision.no:
        cert = decision.certificate or {}
        if cert.get("kind") == "induced-map":
            data["certificate"] = {
                "kind": "induced-map",
                "degree": cert["degree"],
                "f_matrix": [[str(v) for v in row] for row in cert["f_matrix"]],
                "g_matrix": [[str(v) for v in row] for row in cert["g_matrix"]],
            }
        else:
            data["certificate"] = {
                "kind": cert.get("kind"),
                "nonzero_at": cert.get("nonzero_at"),
            }
        _emit(data, args.json, f"homotopic: no ({decision.detail})")
        return EXIT_OK
    _emit(data, args.json, f"homotopic: undetermined ({decision.detail})")
    return EXIT_UNDETERMINED


def cmd_obstruction(args) -> int:
    source, target = _load_pair(_load_valid_presentation, args.source, args.target)
    f, g = _load_pair(lambda path: _load_morphism(path, source, target), args.f, args.g)
    v0 = [s for s in args.v0.split(",") if s]
    unknown = set(v0) - set(source.generator_names())
    if unknown:
        raise InvalidDecomposition(f"unknown generators in V0: {sorted(unknown)}")
    decomposition = make_decomposition(source, [n for n in source.generator_names() if n not in v0])
    if any(f.images[n] != g.images[n] for n in decomposition.v0_ordered()):
        raise CliFailure(
            EXIT_PRECONDITION,
            "the maps differ on the chosen V0; supply maps agreeing there",
        )
    value = compute_obstruction(f, g, Homotopy.constant(f), decomposition)
    data = {
        "command": "obstruction",
        "v0": sorted(v0),
        "classes": {
            w: {
                "degree": c.degree,
                "representative": element_to_json(c.representative),
                "zero": c.is_zero(),
            }
            for w, c in value.classes.items()
        },
        "zero": value.is_zero(),
    }
    human_rows = [
        f"  {w}: degree {c.degree}, {'zero' if c.is_zero() else 'NONZERO'} "
        f"[{c.representative}]"
        for w, c in value.classes.items()
    ]
    _emit(data, args.json, "obstruction classes:\n" + "\n".join(human_rows))
    return EXIT_OK


def cmd_family(args) -> int:
    source, target = _load_pair(_load_valid_presentation, args.source, args.target)
    f = _load_morphism(args.f, source, target)
    side = "source" if args.weights_side == "src" else "target"
    report = verify_infinite_family(f, side, args.lam, args.count)
    data = {
        "command": "family",
        "side": side,
        "lambda": str(args.lam),
        "count": args.count,
        "stage": report.stage,
        "all_distinct": report.all_distinct,
        "pairs": [
            {
                "i": p.i,
                "j": p.j,
                "generator": p.generator,
                "weight": p.scale_weight,
                "scale_factor": str(p.scale_factor),
                "distinct": p.distinct,
            }
            for p in report.pairs
        ],
    }
    human = (
        f"{len(report.pairs)} composite pairs, all distinct: {report.all_distinct} "
        f"(normalised at stage {report.stage})"
    )
    _emit(data, args.json, human)
    return EXIT_OK if report.all_distinct else EXIT_UNDETERMINED


def _rational(text: str) -> Fraction:
    """argparse type for a rational such as ``2`` or ``-3/2``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgalgebra",
        description="exact computations with minimal differential graded-commutative algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a presentation file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cohomology", help="dimensions and representatives per degree")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--weights", action="store_true", help="include the weight split")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("selfmaps", help="solution families, homotopy classes, self-equivalences")
    p.add_argument("file")
    p.set_defaults(func=cmd_selfmaps)

    p = sub.add_parser("classify", help="homotopy set of maps between two presentations")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("nullhomotopic", help="decide homotopy to the zero map")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("mapfile")
    p.add_argument("--filtration", choices=["degree", "stages"], default="degree")
    p.set_defaults(func=cmd_nullhomotopic)

    p = sub.add_parser("homotopic", help="decide homotopy of two maps")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_homotopic)

    p = sub.add_parser("obstruction", help="obstruction table for a generator split")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--v0", required=True, help="comma-separated V0 generator names")
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("family", help="pairwise-distinct composites with scaling maps")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("f")
    p.add_argument("--lambda", dest="lam", type=_rational, required=True, help="scaling parameter (rational)")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--weights-side", choices=["src", "tgt"], default="tgt")
    p.set_defaults(func=cmd_family)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


_arg_parser = functools.cache(build_arg_parser)  # built on the first main() call

# An error exits with the code of the first class on its MRO listed here;
# a CliFailure carries its own code.
EXIT_CODES = {
    WeightsMissing: EXIT_PRECONDITION,
    PreconditionViolated: EXIT_PRECONDITION,
    ClassificationIncomplete: EXIT_PRECONDITION,
    UnsupportedShape: EXIT_UNDETERMINED,
    DgaError: EXIT_VALIDATION,
}


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliFailure, DgaError) as exc:
        print(str(exc), file=sys.stderr)
        if isinstance(exc, CliFailure):
            return exc.code
        return next(EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
