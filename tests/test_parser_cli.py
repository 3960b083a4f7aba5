"""Text format round-trips, diagnostics, CLI behaviour and exit codes."""

import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings

from dgalgebra import corpus, errors, validate_presentation
from dgalgebra.cli import main as cli_main
from dgalgebra.parser import (
    MAX_NESTING,
    MAX_POWER_BITS,
    Diagnostic,
    element_to_json,
    parse_morphism,
    parse_presentation,
    print_morphism,
    print_presentation,
)
from strategies import mutated_corpus_files


def test_corpus_files_parse_clean():
    for name in corpus.names():
        text = corpus.read(name)
        if name.endswith(".dga"):
            result = parse_presentation(text)
            assert result.presentation is not None, (name, result.diagnostics)


def test_round_trip_is_identity(ex51, ex52, ex53):
    for algebra in (ex51, ex52, ex53):
        text = print_presentation(algebra)
        again = parse_presentation(text).presentation
        assert again == algebra
        assert print_presentation(again) == text


def test_product_expression_expands(ex51):
    # the product form in the file equals the expanded second form
    g = ex51.namespace()
    expanded = (
        g.y1 * g.y2 * g.x2**2
        - g.y1 * g.y3 * g.x1 * g.x2
        + g.y2 * g.y3 * g.x1**2
        + g.x1**11
        + g.x2**9
    )
    assert ex51.differential_image("z") == expanded


def test_rational_coefficients_and_parens():
    text = """
algebra demo
generator u : 2
generator v : 3
d v = 3/2 * (u + u)^2 - 2*u^2
"""
    result = parse_presentation(text)
    assert result.presentation is not None
    A = result.presentation
    assert A.differential_image("v") == 4 * A.gen("u") ** 2


def test_degree_semantic_diagnostic_lives_in_validation():
    result = parse_presentation("algebra t\ngenerator x : 1\n")
    assert result.presentation is not None  # parse succeeds
    report = validate_presentation(result.presentation)
    assert not report.ok


def test_zero_degree_rejected_at_parse():
    result = parse_presentation("generator x : 0\n")
    assert result.presentation is None
    assert any("positive" in d.message for d in result.diagnostics)


def test_syntax_diagnostics_have_positions():
    result = parse_presentation("algebra a\ngenerator u : 2\nd u = u +\n")
    assert result.presentation is None
    assert result.diagnostics
    d = result.diagnostics[0]
    assert d.line == 3 and d.column >= 9


def test_unknown_identifier_diagnostic():
    result = parse_presentation("algebra a\ngenerator u : 2\nd u = w * w\n")
    assert result.presentation is None
    assert any("unknown identifier" in d.message for d in result.diagnostics)


@pytest.mark.parametrize(
    "line, column, digit",
    [("generator v : \u00b2", 15, "\u00b2"), ("d u = u^\u00b2", 9, "\u00b2"), ("d u = \u0662*u^2", 7, "\u0662")],
)
def test_non_ascii_digit_is_an_unexpected_character(line, column, digit):
    """Only ASCII 0-9 make an integer: a superscript two once raised
    ValueError from int(), and an Arabic-Indic two was read as 2."""
    result = parse_presentation(f"generator u : 2\n{line}\n")
    assert result.presentation is None
    assert result.diagnostics[0] == Diagnostic(2, column, f"unexpected character {digit!r}")


@pytest.mark.parametrize("image, column, digit", [("x1^\u00b2", 9, "\u00b2"), ("\u0662*x1", 6, "\u0662")])
def test_non_ascii_digit_in_a_morphism_is_an_unexpected_character(ex53, image, column, digit):
    result = parse_morphism(f"morphism m : ex53 -> ex53\nx1 = {image}\n", ex53, ex53)
    assert result.morphism is None
    assert result.diagnostics[0] == Diagnostic(2, column, f"unexpected character {digit!r}")


def test_morphism_parse_and_print(ex53):
    parsed = parse_morphism(corpus.read("ex53_inv.map"), ex53, ex53)
    assert parsed.ok
    # a file without unknowns has its images on the morphism only
    assert not parsed.has_unknowns and parsed.symbolic_images == {}
    f = parsed.morphism
    text = print_morphism(f, "involution")
    again = parse_morphism(text, ex53, ex53)
    assert again.morphism == f


def test_morphism_with_unknowns(ex53):
    text = """
morphism guess : ex53 -> ex53
unknown a
x1 = a * x1
"""
    parsed = parse_morphism(text, ex53, ex53)
    assert parsed.ok
    assert parsed.has_unknowns
    assert parsed.morphism is None
    assert sorted(parsed.symbolic_images["x1"].variables()) == ["a"]


def test_morphism_header_mismatch(ex51, ex53):
    parsed = parse_morphism(corpus.read("ex53_inv.map"), ex51, ex53)
    assert not parsed.ok


def test_json_element_encoding(ex52):
    g = ex52.namespace()
    x = g.x2 ** 2 * g.x1 - 2 * g.y1
    encoded = element_to_json(x)
    assert encoded == [
        ["1", [["x1", 1], ["x2", 2]]],
        ["-2", [["y1", 1]]],
    ]


# -- CLI ----------------------------------------------------------------------------


def run_cli(*args):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


MORPHISM_ENDS = {
    "ex53_id.map": ("ex53.dga", "ex53.dga"),
    "ex53_inv.map": ("ex53.dga", "ex53.dga"),
    "w_to_x.map": ("free_even.dga", "free_even_weighted.dga"),
}

# the V0 split that ``obstruction`` is given for each map file
OBSTRUCTION_V0 = {"ex53_id.map": "x1,x2,y1,y2,y3", "ex53_inv.map": "x1,x2,y1,y2,y3", "w_to_x.map": ""}


@given(mutated_corpus_files())
@settings(max_examples=300)
def test_mutated_corpus_files_give_diagnostics_or_dga_errors(mutated):
    """Format characters inserted into and deleted from the corpus files
    give diagnostics, a ``DgaError`` or an answer: never another exception.
    The CLI maps each failure to a documented exit code, with no traceback:
    ``check``, ``cohomology``, ``selfmaps`` and ``classify`` (against
    itself) on a presentation, and ``nullhomotopic``, ``homotopic`` and
    ``obstruction`` (against the intact map) and, on ``w_to_x.map``,
    ``family`` on a morphism file between its corpus ends."""
    name, text = mutated
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if name.endswith(".map"):
            ends = MORPHISM_ENDS[name]
            source, target = (parse_presentation(corpus.read(n)).presentation for n in ends)
            try:
                parse_morphism(text, source, target)
            except errors.DgaError:
                pass
            commands = [
                ["nullhomotopic", *ends, path],
                ["homotopic", *ends, path, name],
                ["obstruction", *ends, path, name, "--v0", OBSTRUCTION_V0[name]],
            ]
            if name == "w_to_x.map":
                commands.append(["family", *ends, path, "--lambda", "2", "--count", "2"])
        else:
            try:
                parse_presentation(text)
            except errors.DgaError:
                pass
            commands = [
                ["check", path],
                ["cohomology", path, "--max-degree", "6"],
                ["selfmaps", path],
                ["classify", path, path],
            ]
        for argv in commands:
            code, out, err = run_cli(*argv)
            assert code in (0, 2, 3, 4, 5), (argv, code, err)
            assert "Traceback" not in out + err


def test_cli_check_ok():
    code, out, _ = run_cli("check", corpus.path("ex53.dga"))
    assert code == 0
    assert "valid" in out


def test_cli_check_bundled_name_fallback():
    code, _, _ = run_cli("check", "ex51.dga")
    assert code == 0


def test_cli_check_invalid(tmp_path):
    bad = tmp_path / "bad.dga"
    bad.write_text("algebra b\ngenerator u : 2\ngenerator v : 3\nd v = u\n")
    code, out, _ = run_cli("check", str(bad), "--json")
    assert code == 3
    data = json.loads(out)
    assert data["ok"] is False and data["issues"]


def test_cli_parse_error(tmp_path):
    bad = tmp_path / "broken.dga"
    bad.write_text("generator ! : 2\n")
    code, _, err = run_cli("check", str(bad))
    assert code == 2
    assert "1:" in err


def run_cli_process(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "dgalgebra.cli", *args], capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("image", ["u^100000000", "(u+1)^3000"])
def test_cli_huge_power_stops_at_the_degree_bound(tmp_path, image):
    """The parser stops at the first product above |v| + 1 = 4, so the line
    fails validation like d v = u^3 instead of expanding the power."""
    path = tmp_path / "huge.dga"
    path.write_text(f"algebra t\ngenerator u : 2\ngenerator v : 3\nd v = {image}\n")
    proc = run_cli_process("check", str(path), timeout=30)
    assert proc.returncode == 3
    assert "v: degree-mismatch: d(v) is not homogeneous of degree 4" in proc.stdout


@pytest.mark.parametrize("image", ["u^100000000", "(u+1)^3000"])
def test_cli_huge_power_in_a_morphism_with_an_unknown_stops_at_the_degree_bound(tmp_path, image):
    """The same bound holds for an image line read with Poly coefficients."""
    (tmp_path / "s.dga").write_text("algebra s\ngenerator v : 4\n")
    (tmp_path / "t.dga").write_text("algebra t\ngenerator u : 2\n")
    (tmp_path / "m.map").write_text(f"morphism m : s -> t\nunknown a\nv = {image}\n")
    proc = run_cli_process("nullhomotopic", *(str(tmp_path / n) for n in ("s.dga", "t.dga", "m.map")), timeout=30)
    assert proc.returncode == 2
    assert "image of v has a degree-8 term; expected degree 4" in proc.stderr


def test_cli_huge_power_of_one_is_read_by_squaring(tmp_path):
    """A power of a degree-0 base is not stopped by the degree bound; read
    one product at a time, 1^100000000 would take about 20 minutes."""
    path = tmp_path / "one.dga"
    path.write_text("algebra t\ngenerator u : 2\ngenerator v : 3\nd v = 1^100000000 * u^2 - (-1)^99999999 * u^2\n")
    proc = run_cli_process("check", str(path), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "presentation valid" in proc.stdout


def test_cli_scalar_power_above_the_bit_bound_is_a_parse_error(tmp_path):
    path = tmp_path / "wide.dga"
    path.write_text("algebra t\ngenerator u : 2\ngenerator v : 3\nd v = 2^20000 * u^2\n")
    proc = run_cli_process("check", str(path), timeout=30)
    assert proc.returncode == 2
    assert f"4:9: power would exceed {MAX_POWER_BITS} bits of coefficients" in proc.stderr
    assert "Traceback" not in proc.stderr


def _read_image(ring, expr):
    """``expr`` read as the degree-4 value of one line: in Element
    arithmetic as a presentation's d line, or in SymbolicElement arithmetic
    as an image line of a morphism file that declares an unknown.  Returns
    the diagnostics and the value as an element (None on a diagnostic)."""
    if ring == "element":
        parsed = parse_presentation(f"generator u : 2\ngenerator v : 3\nd v = {expr}\n")
        return parsed.diagnostics, parsed.presentation and parsed.presentation.differential_image("v")
    source = parse_presentation("generator v : 4\n").presentation
    target = parse_presentation("generator u : 2\n").presentation
    parsed = parse_morphism(f"unknown a\nv = {expr}\n", source, target)
    image = parsed.symbolic_images.get("v")
    return parsed.diagnostics, None if parsed.diagnostics else image.evaluate({})


RINGS = ("element", "symbolic")


def test_scalar_power_bit_bound():
    for ring in RINGS:
        for power, ok in (
            (f"2^{MAX_POWER_BITS}", True),
            (f"2^{MAX_POWER_BITS + 1}", False),
            (f"(1/2)^{MAX_POWER_BITS + 1}", False),
            (f"(2^{MAX_POWER_BITS // 2})^2", True),
            (f"(2^{MAX_POWER_BITS // 2})^3", False),
            ("(-1)^100000000", True),
            ("0^100000000", True),
        ):
            assert (_read_image(ring, f"{power} * u^2")[0] == []) is ok, (ring, power)
        _, image = _read_image(ring, f"3^{MAX_POWER_BITS // 2} * u^2")
        assert image.terms.popitem()[1] == 3 ** (MAX_POWER_BITS // 2)


def test_power_of_an_unknown_polynomial_is_bounded(ex53):
    """(a + 1)^k has k + 1 coefficients of up to k bits each, so the bound
    stops it near k = 64; a single unknown only grows its exponent."""
    text = "morphism m : ex53 -> ex53\nunknown a\nx1 = {} * x1\n"
    for power, ok in (("(a+1)^63", True), ("(a+1)^64", False), ("(a+a+1)^4096", False), ("a^100000000", True)):
        result = parse_morphism(text.format(power), ex53, ex53)
        assert (result.diagnostics == []) is ok, power


def test_term_above_the_degree_rejects_the_line_even_if_it_cancels(ex53):
    """The bound stops the parse at u^3, so d v = u^3 - u^3 is rejected
    like d v = u^3 and not read as d v = 0; morphism lines are bounded by
    their generator's degree the same way."""
    text = "algebra t\ngenerator u : 2\ngenerator v : 3\nd v = {}\n"
    for image in ("u^3", "u^3 - u^3"):
        algebra = parse_presentation(text.format(image)).presentation
        assert algebra.differential_image("v") == algebra.gen("u") ** 3
        assert [i.kind for i in validate_presentation(algebra).issues] == ["degree-mismatch"]
    source = parse_presentation("algebra s\ngenerator w : 20\n").presentation
    result = parse_morphism("w = x1^3 - x1^3\n", source, ex53)
    assert [d.message for d in result.diagnostics] == [
        "image of w has a degree-30 term; expected degree 20"
    ]


def test_cli_directory_argument_is_a_read_error(tmp_path):
    proc = run_cli_process("check", str(tmp_path))
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_deeply_nested_expression_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.dga"
    deep.write_text("generator u : 2\ngenerator v : 3\nd v = " + "(" * 3000 + "u^2" + ")" * 3000 + "\n")
    proc = run_cli_process("check", str(deep))
    assert proc.returncode == 2
    assert "nested deeper than" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_expression_nesting_limit():
    # after "0 +" every "(" and every "-" opens one nesting level
    for ring in RINGS:
        for depth, ok in ((MAX_NESTING, True), (MAX_NESTING + 1, False)):
            for opening, closing in (("(", ")"), ("- ", "")):
                diagnostics, _ = _read_image(ring, f"0 + {opening * depth}u^2{closing * depth}")
                assert (diagnostics == []) is ok, (ring, depth, opening)


def test_cli_non_utf8_file_is_a_read_error(tmp_path):
    bad = tmp_path / "latin1.dga"
    bad.write_bytes("algebra caf\xe9\ngenerator u : 2\n".encode("latin-1"))
    proc = run_cli_process("check", str(bad))
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["generator u : \u00b2\n", "generator u : 2\ngenerator v : 5\nd v = \u0662*u^3\n"])
def test_cli_non_ascii_digit_is_a_parse_error(tmp_path, text):
    path = tmp_path / "digits.dga"
    path.write_text(text, encoding="utf-8")
    proc = run_cli_process("check", str(path))
    assert proc.returncode == 2
    assert "unexpected character" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_bare_name_outside_the_corpus_is_a_read_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli("check", "nosuch.dga")
    assert code == 2
    assert err.strip() == "cannot read nosuch.dga"


@pytest.mark.parametrize("name", ["ex51", "__init__.py"])
def test_cli_only_dga_and_map_names_fall_back_to_the_corpus(tmp_path, monkeypatch, name):
    """ex51.dga and __init__.py both lie in the corpus directory; neither
    basename here ends in .dga or .map."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli("check", name)
    assert code == 2
    assert err.strip() == f"cannot read {name}"


def test_cli_selfmaps_json():
    code, out, _ = run_cli("selfmaps", "ex51.dga", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == 2
    assert data["group"] == "trivial"


def test_cli_selfmaps_classifies_once(monkeypatch):
    from dgalgebra import classify, cli

    calls = []

    def counted(source, target):
        calls.append((source.label, target.label))
        return classify_homotopy_set(source, target)

    classify_homotopy_set = classify.classify_homotopy_set
    monkeypatch.setattr(classify, "classify_homotopy_set", counted)
    monkeypatch.setattr(cli, "classify_homotopy_set", counted)
    code, out, _ = run_cli("selfmaps", "ex51.dga", "--json")
    assert code == 0
    assert json.loads(out)["group"] == "trivial"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["homotopic", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_id.map"],
        ["obstruction", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_id.map", "--v0", "x1,x2,y1,y2,y3"],
    ],
    ids=["homotopic", "obstruction"],
)
def test_cli_reads_a_file_named_twice_once(monkeypatch, argv):
    from dgalgebra import cli

    read = []
    read_file = cli._read_file
    monkeypatch.setattr(cli, "_read_file", lambda path: read.append(path) or read_file(path))
    code, _, _ = run_cli(*argv)
    assert code == 0
    assert read == ["ex53.dga", "ex53_id.map"]


def test_cli_selfmaps_ex53():
    code, out, _ = run_cli("selfmaps", "ex53.dga", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == 3
    assert data["group"] == "Z2"


def test_cli_cohomology():
    code, out, _ = run_cli("cohomology", "ex53.dga", "--max-degree", "24", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degrees"]["12"]["dimension"] == 1
    assert data["degrees"]["12"]["representatives"] == [[["1", [["x2", 1]]]]]


def test_cli_cohomology_weights():
    code, out, _ = run_cli(
        "cohomology", "two_stage.dga", "--max-degree", "6", "--weights", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["degrees"]["2"]["weight_split"] == {"0": [[["1", [["u", 1]]]]]}


def test_cli_homotopic_no_certificate():
    code, out, _ = run_cli(
        "homotopic", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_inv.map", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "no"
    assert data["certificate"]["degree"] == 12
    assert data["certificate"]["f_matrix"] == [["1"]]
    assert data["certificate"]["g_matrix"] == [["-1"]]


def test_cli_homotopic_yes():
    code, out, _ = run_cli(
        "homotopic", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_id.map", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"


def test_cli_nullhomotopic_verdicts(tmp_path):
    zero_map = tmp_path / "zero.map"
    zero_map.write_text("morphism z : ex53 -> ex53\nx1 = 0\n")
    code, out, _ = run_cli(
        "nullhomotopic", "ex53.dga", "ex53.dga", str(zero_map), "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"

    code, out, _ = run_cli(
        "nullhomotopic", "ex53.dga", "ex53.dga", "ex53_id.map", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "no"
    assert data["stage"] == 10
    assert data["obstruction"] == {"x1": [["1", [["x1", 1]]]]}


def test_cli_nullhomotopic_stage_filtration():
    code, out, _ = run_cli(
        "nullhomotopic",
        "two_stage.dga",
        "two_stage.dga",
        corpus.path("two_stage.dga") + ".nomap",
        "--json",
    )
    # nonexistent map file: parse failure
    assert code == 2


def test_cli_obstruction_table(tmp_path):
    code, out, _ = run_cli(
        "obstruction",
        "ex53.dga",
        "ex53.dga",
        "ex53_id.map",
        "ex53_id.map",
        "--v0",
        "x1,x2,y1,y2,y3",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["zero"] is True
    assert data["classes"]["z"]["degree"] == 119


def test_cli_family():
    code, out, _ = run_cli(
        "family",
        "free_even.dga",
        "free_even_weighted.dga",
        "w_to_x.map",
        "--lambda",
        "2",
        "--count",
        "5",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_distinct"] is True
    assert len(data["pairs"]) == 15
    factors = {(p["i"], p["j"]): p["scale_factor"] for p in data["pairs"]}
    assert factors[(0, 1)] == "-3"
    assert factors[(4, 5)] == "-768"


FAMILY_ARGS = ("family", "free_even.dga", "free_even_weighted.dga", "w_to_x.map")


@pytest.mark.parametrize("lam", ["1/0", "abc"])
def test_cli_family_bad_lambda_is_a_usage_error(lam):
    proc = run_cli_process(*FAMILY_ARGS, "--lambda", lam)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "not a rational number" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_family_needs_a_positive_count():
    proc = run_cli_process(*FAMILY_ARGS, "--lambda", "2", "--count", "0")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "count must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_obstruction_rejects_unknown_v0_names():
    code, out, err = run_cli(
        "obstruction", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_id.map",
        "--v0", "x1,x2,y1,y2,y3,bogus", "--json",
    )
    assert code == 3
    assert out == ""
    assert "unknown generators in V0: ['bogus']" in err


def test_cli_classify_infinite():
    code, out, _ = run_cli("classify", "free_even.dga", "free_even_weighted.dga", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "infinite"


def test_cli_classify_finite():
    code, out, _ = run_cli("classify", "ex51.dga", "ex51.dga", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "finite" and data["classes"] == 2


def test_cli_json_deterministic():
    _, out1, _ = run_cli("selfmaps", "ex53.dga", "--json")
    _, out2, _ = run_cli("selfmaps", "ex53.dga", "--json")
    assert out1 == out2


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dgalgebra.cli", "check", "ex52.dga"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


# machine-output schemas, one per command (shared element encoding)
ELEMENT_SCHEMA = {
    "type": "array",
    "items": {
        "type": "array",
        "prefixItems": [
            {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
            {
                "type": "array",
                "items": {
                    "type": "array",
                    "prefixItems": [{"type": "string"}, {"type": "integer", "minimum": 1}],
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        ],
        "minItems": 2,
        "maxItems": 2,
    },
}

MORPHISM_SCHEMA = {
    "type": "object",
    "additionalProperties": ELEMENT_SCHEMA,
}

COMMAND_SCHEMAS = {
    "check": {
        "type": "object",
        "required": ["command", "ok", "issues"],
        "properties": {
            "command": {"const": "check"},
            "ok": {"type": "boolean"},
            "issues": {"type": "array", "items": {"type": "string"}},
        },
    },
    "selfmaps": {
        "type": "object",
        "required": ["command", "classes", "group", "families", "representatives"],
        "properties": {
            "classes": {"type": "integer", "minimum": 0},
            "group": {"type": "string"},
            "representatives": {"type": "array", "items": MORPHISM_SCHEMA},
        },
    },
    "cohomology": {
        "type": "object",
        "required": ["command", "degrees"],
        "properties": {
            "degrees": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "required": ["dimension", "representatives"],
                    "properties": {
                        "dimension": {"type": "integer", "minimum": 0},
                        "representatives": {"type": "array", "items": ELEMENT_SCHEMA},
                    },
                },
            }
        },
    },
    "homotopic": {
        "type": "object",
        "required": ["command", "verdict"],
        "properties": {
            "verdict": {"enum": ["yes", "no", "undetermined"]},
        },
    },
    "nullhomotopic": {
        "type": "object",
        "required": ["command", "verdict"],
        "properties": {"verdict": {"enum": ["yes", "no"]}},
    },
    "family": {
        "type": "object",
        "required": ["command", "all_distinct", "pairs"],
    },
    "obstruction": {
        "type": "object",
        "required": ["command", "classes", "zero"],
    },
    "classify": {
        "type": "object",
        "required": ["command", "kind"],
        "properties": {"kind": {"enum": ["finite", "infinite", "incomplete"]}},
    },
}


def test_json_outputs_schema_validate():
    import jsonschema

    runs = [
        ("check", ["check", "ex51.dga"]),
        ("selfmaps", ["selfmaps", "ex53.dga"]),
        ("cohomology", ["cohomology", "ex53.dga", "--max-degree", "24"]),
        ("homotopic", ["homotopic", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_inv.map"]),
        ("nullhomotopic", ["nullhomotopic", "ex53.dga", "ex53.dga", "ex53_id.map"]),
        (
            "obstruction",
            [
                "obstruction", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_id.map",
                "--v0", "x1,x2,y1,y2,y3",
            ],
        ),
        (
            "family",
            [
                "family", "free_even.dga", "free_even_weighted.dga", "w_to_x.map",
                "--lambda", "2", "--count", "3",
            ],
        ),
        ("classify", ["classify", "ex51.dga", "ex51.dga"]),
    ]
    for command, argv in runs:
        code, out, err = run_cli(*argv, "--json")
        assert code == 0, (command, err)
        data = json.loads(out)
        jsonschema.validate(data, COMMAND_SCHEMAS[command])


def test_cli_homotopic_undetermined_exit_code(tmp_path):
    src = tmp_path / "src.dga"
    src.write_text(
        "algebra src\ngenerator a : 4\ngenerator w : 7\nd w = a^2\n"
    )
    tgt = tmp_path / "tgt.dga"
    tgt.write_text(
        "algebra tgt\ngenerator s : 3\ngenerator b : 4\ngenerator t : 7\nd t = b^2\n"
    )
    fmap = tmp_path / "f.map"
    fmap.write_text("morphism f : src -> tgt\na = b\nw = t\n")
    gmap = tmp_path / "g.map"
    gmap.write_text("morphism g : src -> tgt\na = b\nw = t + s*b\n")
    code, out, _ = run_cli(
        "homotopic", str(src), str(tgt), str(fmap), str(gmap), "--json"
    )
    assert code == 5
    assert json.loads(out)["verdict"] == "undetermined"


def test_cli_precondition_exit_code_for_unknown_morphism(tmp_path):
    fmap = tmp_path / "open.map"
    fmap.write_text("morphism f : ex53 -> ex53\nunknown a\nx1 = a*x1\n")
    code, _, err = run_cli(
        "homotopic", "ex53.dga", "ex53.dga", str(fmap), "ex53_id.map"
    )
    assert code == 4
    assert "fully specified" in err


def test_cli_precondition_exit_code_for_missing_weights():
    code, _, err = run_cli("cohomology", "ex51.dga", "--max-degree", "5", "--weights")
    assert code == 4


def test_cli_weights_need_weight_homogeneous_differential(tmp_path):
    bad = tmp_path / "bad.dga"
    bad.write_text("algebra bad\ngenerator u : 2 weight 1\ngenerator v : 3 weight 5\nd v = u^2\n")
    for max_degree in ("4", "0"):  # checked before the first degree
        code, out, err = run_cli(
            "cohomology", str(bad), "--max-degree", max_degree, "--weights", "--json"
        )
        assert code == 4
        assert out == ""
        assert "weight 5" in err


def test_cli_stage_filtration(tmp_path):
    fmap = tmp_path / "null.map"
    fmap.write_text("morphism z : two_stage -> two_stage\nu = 0\nv = 0\n")
    code, out, _ = run_cli(
        "nullhomotopic",
        "two_stage.dga",
        "two_stage.dga",
        str(fmap),
        "--filtration",
        "stages",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"


def test_cli_cohomology_reports_zero_degrees():
    code, out, _ = run_cli("cohomology", "ex53.dga", "--max-degree", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degrees"]["3"]["dimension"] == 0
    assert data["degrees"]["0"]["dimension"] == 1


# Each command with the name in ``dgalgebra.cli`` that its work goes through.
COMMAND_CALLS = [
    (["check", "ex51.dga"], "validate_presentation"),
    (["cohomology", "ex53.dga", "--max-degree", "3"], "cohomology_at_degree"),
    (["selfmaps", "ex51.dga"], "classify_homotopy_set"),
    (["classify", "ex51.dga", "ex51.dga"], "classify_homotopy_set"),
    (["nullhomotopic", "ex53.dga", "ex53.dga", "ex53_id.map"], "decide_nullhomotopic"),
    (["homotopic", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_inv.map"], "decide_homotopic"),
    (
        ["obstruction", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_id.map", "--v0", "x1,x2,y1,y2,y3"],
        "compute_obstruction",
    ),
    (
        ["family", "free_even.dga", "free_even_weighted.dga", "w_to_x.map", "--lambda", "2"],
        "verify_infinite_family",
    ),
]


@pytest.mark.parametrize("argv, name", COMMAND_CALLS, ids=[c[0][0] for c in COMMAND_CALLS])
@pytest.mark.parametrize(
    "error, code",
    [
        (errors.WeightsMissing, 4),
        (errors.PreconditionViolated, 4),
        (errors.ClassificationIncomplete, 4),
        (errors.UnsupportedShape, 5),
        (errors.NonRationalRoot, 3),
        (errors.DegreeMismatch, 3),
        (errors.LemmaViolation, 3),
        (errors.DgaError, 3),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_cli_exit_code_of_each_error_in_each_command(monkeypatch, argv, name, error, code):
    from dgalgebra import cli

    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, name, fail)
    assert run_cli(*argv) == (code, "", "injected\n")


def test_cli_builds_its_parser_once(monkeypatch):
    import argparse

    assert run_cli("check", "ex51.dga")[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        assert run_cli("check", "ex51.dga")[0] == 0
    assert built == []


TWO_STAGE = "algebra two_stage\ngenerator u : 2\ngenerator v : 3\n"
MAP_HEAD = "morphism f : two_stage -> two_stage\n"


@pytest.mark.parametrize(
    "kind, text, line, column, message",
    [
        ("dga", TWO_STAGE + "d v = u^2\nd v = 0\n", 5, 3, "second differential for v (first on line 4)"),
        ("dga", "generator u : 2 weight 1 weight 3\n", 1, 26, "option weight given twice"),
        ("map", MAP_HEAD + "u = u\nu = 2*u\nv = 4*v\n", 3, 1, "second image for u (first on line 2)"),
        ("map", MAP_HEAD + "unknown u\nu = u\nv = v\n", 2, 9, "unknown u is a generator of the target"),
        ("map", MAP_HEAD + "unknown t\nunknown t\nu = t*u\nv = t^2*v\n", 3, 9, "unknown t declared twice"),
        ("dga", "algebra two_stage extra words\ngenerator u : 2\n", 1, 19,
         "unexpected token 'extra'; usage: algebra <name>"),
        ("map", MAP_HEAD + "unknown t junk more\nu = u\nv = v\n", 2, 11,
         "unexpected token 'junk'; usage: unknown <id>"),
        ("map", "morphism f : two_stage -> two_stage extra\nu = u\nv = v\n", 1, 37,
         "unexpected token 'extra'; usage: morphism <name> : <source> -> <target>"),
        ("map", "morphism f : a -> b extra\nu = u\nv = v\n", 1, 21,
         "unexpected token 'extra'; usage: morphism <name> : <source> -> <target>"),
    ],
    ids=[
        "second-d-line", "repeated-option", "second-image", "unknown-is-a-generator", "unknown-twice",
        "algebra-trailing", "unknown-trailing", "morphism-trailing", "morphism-trailing-sets-no-names",
    ],
)
def test_contradictory_input_is_a_positioned_diagnostic(tmp_path, kind, text, line, column, message):
    path = tmp_path / f"input.{kind}"
    path.write_text(text)
    if kind == "dga":
        result = parse_presentation(text)
        argv = ["check", str(path)]
    else:
        two_stage = parse_presentation(TWO_STAGE + "d v = u^2\n").presentation
        result = parse_morphism(text, two_stage, two_stage)
        argv = ["nullhomotopic", "two_stage.dga", "two_stage.dga", str(path)]
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [(line, column, message)]
    assert run_cli(*argv) == (2, "", f"{path}:{line}:{column}: {message}\n")
