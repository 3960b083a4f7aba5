"""Line-oriented text format for presentations and morphisms.

Presentation files::

    algebra <name>
    generator <id> : <degree> [weight <w>] [stage <n>]
    d <id> = <expr>

Morphism files::

    morphism <name> : <source-name> -> <target-name>
    unknown <id>
    <id> = <expr>

Expressions are rational-coefficient arithmetic over generator identifiers
(and declared unknowns in morphism files) with ``+ - * ^`` and parentheses;
``^`` binds tighter than ``*`` and applies to an identifier, a literal or a
parenthesised sub-expression.  Rational literals are written ``p/q``.  ``#``
starts a comment.  Parsing collects positioned diagnostics instead of
raising; semantic conditions such as minimality live in
``validate_presentation``, not here.  Contradictory input is a diagnostic,
never a silent override: a second ``d`` line or image line for one
generator, a repeated ``weight`` or ``stage`` option, and an unknown that
is declared twice or named like a target generator.  A header line
(``algebra``, ``morphism``, ``unknown``) with a missing or an extra token
sets nothing.

Expressions are evaluated in plain ``Element`` arithmetic, and in
``SymbolicElement`` arithmetic (``Poly`` coefficients) only in a morphism
file that declares unknowns.

Each ``d`` line and morphism image line is parsed with its target degree
as a bound, so hostile exponents such as ``(u+1)^3000`` cost work bounded
by that degree: the parser stops at the first product or power with a term
above the bound and returns that product as the line's value.  Its degree
check then rejects the line exactly as it rejects ``d v = u^3``, even where
such terms would have cancelled later (``d v = u^3 - u^3``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2
from typing import Dict, List, Optional, Tuple, Union

from .algebra import AlgebraPresentation, Element, Generator, Morphism, _power
from .errors import DgaError
from .symbolic import Poly, SymbolicElement

MAX_NESTING = 100  # levels of parentheses and unary minus signs in an expression
MAX_POWER_BITS = 4096  # coefficient bits of a power of a degree-0 base

Value = Union[Element, SymbolicElement]  # what an expression evaluates to


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.message}"


@dataclass
class Token:
    kind: str  # ident, int, symbol, end
    text: str
    line: int
    column: int


_DIGITS = "0123456789"  # not str.isdigit, which also accepts "²" and "٢"


def _tokenize_line(text: str, line_no: int, diagnostics: List[Diagnostic]) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line_no, col))
            i = j
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", text[i:j], line_no, col))
            i = j
            continue
        if text.startswith("->", i):
            tokens.append(Token("symbol", "->", line_no, col))
            i += 2
            continue
        if ch in "+-*^()=:/,":
            tokens.append(Token("symbol", ch, line_no, col))
            i += 1
            continue
        diagnostics.append(Diagnostic(line_no, col, f"unexpected character {ch!r}"))
        i += 1
    tokens.append(Token("end", "", line_no, len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive descent over one line's tokens.

    Identifiers resolve to generators of the algebra or, when allowed, to
    declared unknowns.  Every value is built by ``lift`` from a plain
    element: the identity when no unknowns are declared, so the line is
    read in ``Element`` arithmetic, and ``SymbolicElement.from_element``
    when some are, so it is read with ``Poly`` coefficients.
    """

    def __init__(self, tokens, algebra: AlgebraPresentation, unknowns, diagnostics, max_degree: int):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.unknowns = unknowns
        self.lift = SymbolicElement.from_element if unknowns else lambda x: x
        self.diagnostics = diagnostics
        self.max_degree = max_degree
        self.failed = False
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def error(self, token: Token, message: str):
        if not self.failed:
            self.diagnostics.append(Diagnostic(token.line, token.column, message))
        self.failed = True

    def parse(self) -> Optional[Value]:
        try:
            value = self.expression()
        except _AboveDegree as stop:
            return None if self.failed else stop.value
        t = self.peek()
        if t.kind != "end":
            self.error(t, f"unexpected {t.text!r} after expression")
        return None if self.failed else value

    def product(self, a: Value, b: Value) -> Value:
        """``a * b``; stops the parse when it has a term above the bound."""
        value = a * b
        if any(m.degree > self.max_degree for m in value.terms):
            raise _AboveDegree(value)
        return value

    def expression(self) -> Value:
        negate = False
        t = self.peek()
        if t.kind == "symbol" and t.text in "+-":
            self.take()
            negate = t.text == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            t = self.peek()
            if t.kind == "symbol" and t.text in "+-":
                self.take()
                rhs = self.term()
                value = value + (-rhs if t.text == "-" else rhs)
            else:
                return value

    def term(self) -> Value:
        value = self.power()
        while True:
            t = self.peek()
            if t.kind == "symbol" and t.text == "*":
                self.take()
                value = self.product(value, self.power())
            else:
                return value

    def power(self) -> Value:
        base = self.atom()
        t = self.peek()
        if t.kind == "symbol" and t.text == "^":
            self.take()
            e = self.take()
            if e.kind != "int":
                self.error(e, "exponent must be a non-negative integer")
                return base
            k = int(e.text)
            if _power_too_large(base, k):
                self.error(e, f"power would exceed {MAX_POWER_BITS} bits of coefficients")
                return base
            return _power(self.product, base, k, self.lift(self.algebra.one()))
        return base

    def atom(self) -> Value:
        t = self.take()
        if t.kind == "int":
            value = int(t.text)
            nxt = self.peek()
            if nxt.kind == "symbol" and nxt.text == "/":
                self.take()
                den = self.take()
                if den.kind != "int" or int(den.text) == 0:
                    self.error(den, "denominator must be a nonzero integer")
                    return self.lift(self.algebra.zero())
                value = Fraction(value, int(den.text))
            return self.lift(self.algebra.scalar(value))
        if t.kind == "ident":
            if t.text in self.algebra._by_name:
                return self.lift(self.algebra.gen(t.text))
            if t.text in self.unknowns:
                return SymbolicElement.unknown_times(t.text, self.algebra.one())
            self.error(t, f"unknown identifier {t.text!r}")
            return self.lift(self.algebra.zero())
        if t.kind == "symbol" and t.text in ("(", "-"):
            if self.depth == MAX_NESTING:
                self.error(t, f"expression nested deeper than {MAX_NESTING} levels")
                return self.lift(self.algebra.zero())
            self.depth += 1
            if t.text == "-":
                value = -self.atom()
            else:
                value = self.expression()
                closing = self.take()
                if not (closing.kind == "symbol" and closing.text == ")"):
                    self.error(closing, "expected ')'")
            self.depth -= 1
            return value
        self.error(t, f"expected a term, found {t.text!r}" if t.text else "unexpected end of line")
        return self.lift(self.algebra.zero())


def _power_too_large(base: Value, k: int) -> bool:
    """Whether the coefficients of ``base**k`` would take more than
    ``MAX_POWER_BITS`` bits in all, by an estimate for a base of degree 0;
    powers of a positive-degree base are stopped by the degree bound.

    With t coefficients (t > 1 only with unknowns) of at most h bits, each
    coefficient of the power has at most ``k * (h + log2 t)`` bits, and the
    power has at most ``(k + 1)**(t - 1)`` terms.
    """
    if not k or any(m.degree for m in base.terms):
        return False
    coefficients = [
        c for v in base.terms.values() for c in (v.terms.values() if isinstance(v, Poly) else (v,))
    ]
    if not coefficients:
        return False
    t = len(coefficients)
    height = max(log2(max(abs(c.numerator), c.denominator)) for c in coefficients) + log2(t)
    return bool(height) and log2(k * height) + (t - 1) * log2(k + 1) > log2(MAX_POWER_BITS)


class _AboveDegree(Exception):
    """Stops an expression parse at a product with a term above the bound."""

    def __init__(self, value: Value):
        super().__init__("term above the expected degree")
        self.value = value


@dataclass
class PresentationParse:
    presentation: Optional[AlgebraPresentation]
    diagnostics: List[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.presentation is not None and not self.diagnostics


def _lines(text: str, diagnostics: List[Diagnostic]):
    """``(line number, tokens)`` for each line of ``text`` that has a token."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no, diagnostics)
        if tokens[0].kind != "end":
            yield line_no, tokens


def _fits(tokens: List[Token], *words: str) -> bool:
    """Whether the tokens after a line's first one start with ``words``:
    ``ident`` or ``int`` for a token of that kind, else a symbol's text.
    The final ``end`` token matches no word, so a short line does not fit."""
    return all(t.kind == w if w in ("ident", "int") else t.text == w for t, w in zip(tokens[1:], words))


_Assignments = Dict[str, Tuple[List[Token], int, int]]  # name -> (expression tokens, line, column)


def _assign(assignments: _Assignments, name: Token, expression: List[Token], what: str, diagnostics) -> None:
    """Record ``name = expression``; a second one for the same name is a
    diagnostic, never an override."""
    if name.text in assignments:
        first = assignments[name.text][1]
        diagnostics.append(
            Diagnostic(name.line, name.column, f"second {what} for {name.text} (first on line {first})")
        )
    else:
        assignments[name.text] = (expression, name.line, name.column)


def _evaluate(assignments: _Assignments, source, target, unknowns, shift: int, unknown_message: str, diagnostics):
    """``(name, value, line, column)`` for each recorded expression that
    parses in ``target``, bounded by the degree of the generator ``name`` of
    ``source`` plus ``shift``; a name that is not a generator of ``source``
    gets the diagnostic ``unknown_message`` instead."""
    for name, (tokens, line_no, col) in assignments.items():
        if name not in source._by_name:
            diagnostics.append(Diagnostic(line_no, col, f"{unknown_message} {name!r}"))
            continue
        value = _ExprParser(tokens, target, unknowns, diagnostics, source.degree_of(name) + shift).parse()
        if value is not None:
            yield name, value, line_no, col


def parse_presentation(text: str) -> PresentationParse:
    diagnostics: List[Diagnostic] = []
    name = ""
    gen_specs: List[Tuple[Generator, int]] = []  # (generator, line)
    d_lines: _Assignments = {}

    for line_no, tokens in _lines(text, diagnostics):
        head = tokens[0]
        if head.kind != "ident":
            diagnostics.append(Diagnostic(line_no, head.column, "expected a keyword"))
        elif head.text == "algebra":
            if _header(tokens, "algebra <name>", diagnostics, "ident"):
                name = tokens[1].text
        elif head.text == "generator":
            spec = _parse_generator_line(tokens, line_no, diagnostics)
            if spec is not None:
                gen_specs.append((spec, line_no))
        elif head.text == "d":
            if not _fits(tokens, "ident", "="):
                diagnostics.append(
                    Diagnostic(line_no, head.column, "usage: d <generator> = <expression>")
                )
            else:
                _assign(d_lines, tokens[1], tokens[3:], "differential", diagnostics)
        else:
            diagnostics.append(
                Diagnostic(line_no, head.column, f"unknown directive {head.text!r}")
            )

    names = [g.name for g, _ in gen_specs]
    for (g, line_no) in gen_specs:
        if names.count(g.name) > 1:
            diagnostics.append(
                Diagnostic(line_no, 1, f"duplicate generator {g.name}")
            )
            return PresentationParse(None, diagnostics)
    if diagnostics:
        return PresentationParse(None, diagnostics)

    algebra = AlgebraPresentation.unsealed([g for g, _ in gen_specs], label=name)
    for gen_name, image, _, _ in _evaluate(
        d_lines, algebra, algebra, (), 1, "differential for unknown generator", diagnostics
    ):
        algebra._set_differential(gen_name, algebra.element(image.terms))
    if diagnostics:
        return PresentationParse(None, diagnostics)
    return PresentationParse(algebra.seal(), diagnostics)


def _header(tokens: List[Token], usage: str, diagnostics, *words: str) -> bool:
    """Whether a header line is its keyword followed by exactly ``words``
    (as for ``_fits``).  If not, the line must set nothing; its one
    diagnostic is the usage, at the keyword for a line that does not fit
    and at the first extra token for one that fits and goes on."""
    if not _fits(tokens, *words):
        diagnostics.append(Diagnostic(tokens[0].line, tokens[0].column, f"usage: {usage}"))
        return False
    extra = tokens[len(words) + 1]
    if extra.kind != "end":
        diagnostics.append(Diagnostic(extra.line, extra.column, f"unexpected token {extra.text!r}; usage: {usage}"))
        return False
    return True


def _parse_generator_line(tokens, line_no, diagnostics) -> Optional[Generator]:
    # generator <id> : <degree> [weight <w>] [stage <n>]
    if not _fits(tokens, "ident", ":", "int"):
        diagnostics.append(
            Diagnostic(line_no, tokens[0].column, "usage: generator <id> : <degree> [weight <w>] [stage <n>]")
        )
        return None
    name = tokens[1].text
    degree = int(tokens[3].text)
    if degree < 1:
        diagnostics.append(
            Diagnostic(line_no, tokens[3].column, f"degree must be positive, got {degree}")
        )
        return None
    options: Dict[str, int] = {}
    pos = 4
    while tokens[pos].kind != "end":
        key = tokens[pos]
        val = tokens[pos + 1] if pos + 1 < len(tokens) else None
        if key.kind == "ident" and key.text in ("weight", "stage") and val is not None and val.kind == "int":
            if key.text in options:
                diagnostics.append(Diagnostic(line_no, key.column, f"option {key.text} given twice"))
                return None
            options[key.text] = int(val.text)
            pos += 2
        else:
            diagnostics.append(
                Diagnostic(line_no, key.column, f"unexpected token {key.text!r} in generator options")
            )
            return None
    try:
        return Generator(name, degree, options.get("weight"), options.get("stage"))
    except DgaError as exc:
        diagnostics.append(Diagnostic(line_no, tokens[1].column, str(exc)))
        return None


@dataclass
class MorphismParse:
    """A parsed morphism file.  ``morphism`` is set when the file declares no
    unknowns and has no diagnostics; ``symbolic_images`` holds the images
    only when the file declares unknowns, and is empty otherwise."""

    morphism: Optional[Morphism]
    name: str
    source_name: str
    target_name: str
    unknowns: List[str]
    symbolic_images: Dict[str, SymbolicElement]
    diagnostics: List[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def has_unknowns(self) -> bool:
        return bool(self.unknowns)


def parse_morphism(
    text: str, source: AlgebraPresentation, target: AlgebraPresentation
) -> MorphismParse:
    diagnostics: List[Diagnostic] = []
    name = src_name = tgt_name = ""
    unknowns: List[str] = []
    image_lines: _Assignments = {}

    for line_no, tokens in _lines(text, diagnostics):
        head = tokens[0]
        if head.text == "morphism":
            usage = "morphism <name> : <source> -> <target>"
            if _header(tokens, usage, diagnostics, "ident", ":", "ident", "->", "ident"):
                name, src_name, tgt_name = tokens[1].text, tokens[3].text, tokens[5].text
                for side, token, algebra in (("source", tokens[3], source), ("target", tokens[5], target)):
                    if algebra.label and token.text != algebra.label:
                        diagnostics.append(Diagnostic(
                            line_no, token.column, f"{side} {token.text!r} does not match algebra {algebra.label!r}"
                        ))
        elif head.text == "unknown":
            unknown = tokens[1]
            if not _header(tokens, "unknown <id>", diagnostics, "ident"):
                continue
            if unknown.text in unknowns:
                diagnostics.append(Diagnostic(line_no, unknown.column, f"unknown {unknown.text} declared twice"))
            elif unknown.text in target._by_name:
                diagnostics.append(
                    Diagnostic(line_no, unknown.column, f"unknown {unknown.text} is a generator of the target")
                )
            else:
                unknowns.append(unknown.text)
        elif head.kind == "ident" and _fits(tokens, "="):
            _assign(image_lines, head, tokens[2:], "image", diagnostics)
        else:
            diagnostics.append(
                Diagnostic(line_no, head.column, "expected 'morphism', 'unknown' or '<generator> = <expression>'")
            )

    images: Dict[str, Value] = {}
    for gen_name, image, line_no, col in _evaluate(
        image_lines, source, target, set(unknowns), 0, "image for unknown source generator", diagnostics
    ):
        expected = source.degree_of(gen_name)
        for m in image.terms:
            if m.degree != expected:
                diagnostics.append(
                    Diagnostic(
                        line_no,
                        col,
                        f"image of {gen_name} has a degree-{m.degree} term; expected degree {expected}",
                    )
                )
        images[gen_name] = image if unknowns else target.element(image.terms)

    morphism = None
    if not diagnostics and not unknowns:
        morphism = Morphism(source, target, images)
    symbolic_images = images if unknowns else {}
    return MorphismParse(
        morphism, name, src_name, tgt_name, unknowns, symbolic_images, diagnostics
    )


# -- printing -------------------------------------------------------------------


def print_presentation(algebra: AlgebraPresentation) -> str:
    """Canonical text form; parsing it back reproduces the presentation."""
    lines = []
    if algebra.label:
        lines.append(f"algebra {algebra.label}")
    for g in algebra.generators:
        opts = ""
        if g.weight is not None:
            opts += f" weight {g.weight}"
        if g.stage is not None:
            opts += f" stage {g.stage}"
        lines.append(f"generator {g.name} : {g.degree}{opts}")
    for g in algebra.generators:
        lines.append(f"d {g.name} = {algebra.differential_image(g.name)}")
    return "\n".join(lines) + "\n"


def print_morphism(f: Morphism, name: str = "f") -> str:
    lines = [
        f"morphism {name} : {f.source.label or 'source'} -> {f.target.label or 'target'}"
    ]
    for g in f.source.generators:
        lines.append(f"{g.name} = {f.images[g.name]}")
    return "\n".join(lines) + "\n"


def element_to_json(x: Element) -> list:
    """Canonical JSON form: [[coefficient, [[generator, exponent], ...]], ...]."""
    return [
        [str(c), [[n, e] for n, e in m.factors]]
        for m, c in x.sorted_terms()
    ]
