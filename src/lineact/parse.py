"""Textual forms: homeomorphism expressions and action-specification files.

Expression grammar (prefix notation, case-insensitive names):

    identity
    affine(a, b)                  a, b rationals/decimals/constants, a > 0
    oddpower(p, fwd|root)         odd p >= 3
    unitpowerladder(k, +1|-1)
    boundedconjugate(expr)
    inverse(expr)
    compose(expr, expr, ...)      two or more factors, outermost first: one
                                  flat node, identity factors dropped

Scalar literals: integers, rationals ``p/q``, decimal strings (exact), and
the named constants ``sqrt2``, ``sqrt3``, ``pi``, ``e`` materialized at the
current working precision.  The grammar lives in :func:`lineact.reals.parse_real`
and is shared with the CLI's points, windows and ``--alpha``.

Action-specification files: a ``group`` header line followed by one ``gen``
line per generator, e.g. ::

    group bs 1 -2
    gen g = unitpowerladder(2, +1)
    gen f = affine(1, 1)

Parse errors carry the line and column of the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .homeo import (
    Affine,
    BoundedConjugate,
    HomeoExpr,
    Identity,
    Inverse,
    OddPower,
    UnitPowerLadder,
    compose,
)
from . import reals
from .reals import Real
from .words import Presentation
from .actions import Action

__all__ = ["ParseError", "parse_real", "parse_expr", "parse_action_file"]


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str, start_line: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = start_line, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "(),":
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "(),":
            j += 1
        tokens.append(_Token(text[i:j], line, col))
        col += j - i
        i = j
    return tokens


def parse_real(text: str, line: int = 1, column: int = 1) -> Real:
    """Parse a scalar literal; a bad one raises ParseError at (line, column)."""
    try:
        return reals.parse_real(text)
    except ValueError as exc:
        raise ParseError(str(exc), line, column) from None


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError(f"expected {what}, found end of input",
                             last.line, last.column)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next(repr(text))
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.column)
        return tok

    def parse_expr(self) -> HomeoExpr:
        tok = self.next("an expression")
        name = tok.text.lower()
        if name == "identity":
            return Identity()
        if name == "affine":
            self.expect("(")
            a = self.scalar()
            self.expect(",")
            b = self.scalar()
            self.expect(")")
            try:
                return Affine(a, b)
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.column) from None
        if name == "oddpower":
            self.expect("(")
            p = self.integer()
            self.expect(",")
            d = self.next("'fwd' or 'root'")
            if d.text not in ("fwd", "root"):
                raise ParseError("direction must be fwd or root", d.line, d.column)
            self.expect(")")
            try:
                return OddPower(p, d.text == "root")
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.column) from None
        if name == "unitpowerladder":
            self.expect("(")
            k = self.integer()
            self.expect(",")
            s = self.integer()
            self.expect(")")
            try:
                return UnitPowerLadder(k, s)
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.column) from None
        if name == "boundedconjugate":
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            return BoundedConjugate(inner)
        if name == "inverse":
            self.expect("(")
            child = self.parse_expr()
            self.expect(")")
            return Inverse(child)
        if name == "compose":
            self.expect("(")
            parts = [self.parse_expr()]
            while True:
                tok2 = self.next("',' or ')'")
                if tok2.text == ")":
                    break
                if tok2.text != ",":
                    raise ParseError(f"expected ',' or ')', found {tok2.text!r}",
                                     tok2.line, tok2.column)
                parts.append(self.parse_expr())
            if len(parts) < 2:
                raise ParseError("compose needs at least two factors",
                                 tok.line, tok.column)
            return compose(*parts)
        raise ParseError(f"unknown expression head {tok.text!r}",
                         tok.line, tok.column)

    def scalar(self) -> Real:
        tok = self.next("a number")
        return parse_real(tok.text, tok.line, tok.column)

    def integer(self) -> int:
        tok = self.next("an integer")
        text = tok.text
        if text.startswith("+"):
            text = text[1:]
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"expected an integer, found {tok.text!r}",
                             tok.line, tok.column) from None


def parse_expr(text: str, start_line: int = 1) -> HomeoExpr:
    parser = _Parser(_tokenize(text, start_line))
    expr = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing token {trailing.text!r}",
                         trailing.line, trailing.column)
    return expr


def parse_action_file(text: str) -> Action:
    """Parse a full action specification: group header plus gen bindings."""
    header: Optional[tuple[_Token, list[_Token]]] = None
    gens: list[tuple[str, HomeoExpr, _Token]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = _tokenize(raw, lineno)
        # token columns for this line are correct since raw is one line
        head = toks[0]
        if head.text == "group":
            if header is not None:
                raise ParseError("duplicate group header", head.line, head.column)
            header = (head, toks[1:])
        elif head.text == "gen":
            if len(toks) < 3 or toks[2].text != "=":
                raise ParseError("gen line must read 'gen <name> = <expr>'",
                                 head.line, head.column)
            name = toks[1].text
            sub = _Parser(toks[3:])
            expr = sub.parse_expr()
            if sub.peek() is not None:
                t = sub.peek()
                raise ParseError(f"unexpected trailing token {t.text!r}",
                                 t.line, t.column)
            gens.append((name, expr, head))
        else:
            raise ParseError(f"unknown directive {head.text!r}",
                             head.line, head.column)
    if header is None:
        raise ParseError("missing group header", 1, 1)
    head, params = header
    labels = tuple(name for name, _, _ in gens)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate generator names", head.line, head.column)
    presentation = _build_presentation(head, params, labels)
    images = {name: expr for name, expr, _ in gens}
    return Action(presentation, images)


def _build_presentation(head: _Token, params: list[_Token],
                        labels: tuple[str, ...]) -> Presentation:
    if not params:
        raise ParseError("group header needs a family name", head.line, head.column)
    family = params[0].text
    args = params[1:]

    def arg_int(i: int) -> int:
        if i >= len(args):
            raise ParseError("missing group parameter", head.line, head.column)
        try:
            return int(args[i].text)
        except ValueError:
            raise ParseError(f"bad group parameter {args[i].text!r}",
                             args[i].line, args[i].column) from None

    from .words import UnsupportedPresentation

    try:
        if family == "free":
            rank = arg_int(0)
            _check_rank(rank, labels, head)
            return Presentation.free(rank, labels)
        if family in ("abelian", "free_abelian"):
            rank = arg_int(0)
            _check_rank(rank, labels, head)
            return Presentation.free_abelian(rank, labels)
        if family == "bs":
            one, n = arg_int(0), arg_int(1)
            if one != 1:
                raise ParseError("only B(1,n) is supported",
                                 args[0].line, args[0].column)
            _check_rank(2, labels, head)
            return Presentation.baumslag_solitar(n, labels)
        if family == "ladder":
            name = tuple(arg_int(i) for i in range(len(args)))
            _check_rank(len(name) + 1, labels, head)
            return Presentation.ladder(name, labels)
    except UnsupportedPresentation as exc:
        raise ParseError(str(exc), head.line, head.column) from None
    raise ParseError(f"unknown group family {family!r}",
                     params[0].line, params[0].column)


def _check_rank(rank: int, labels: tuple[str, ...], head: _Token):
    if len(labels) != rank:
        raise ParseError(
            f"group of rank {rank} declared but {len(labels)} gen lines found",
            head.line, head.column,
        )
