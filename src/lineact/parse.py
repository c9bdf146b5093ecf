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
the named constants ``sqrt2`` and ``sqrt3``, exact values of Q(sqrt2) and
Q(sqrt3), and ``pi`` and ``e``, enclosures at the current working
precision.  The grammar lives in :func:`lineact.reals.parse_real` and is
shared with the CLI's points, windows and ``--alpha``.

Action-specification files: a ``group`` header line followed by one ``gen``
line per generator, e.g. ::

    group bs 1 -2
    gen g = unitpowerladder(2, +1)
    gen f = affine(1, 1)

Parse errors carry the line and column of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
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


# A token is one bracket or comma, or a maximal run of anything else that is
# not whitespace; only "\n" starts a new line.
_TOKEN = re.compile(r"[(),]|[^\s(),]+")


def _tokenize(text: str) -> list[_Token]:
    return [_Token(m.group(), line, m.start() + 1)
            for line, row in enumerate(text.split("\n"), start=1)
            for m in _TOKEN.finditer(row)]


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
        if name in _NODES:
            node, readers = _NODES[name]
            self.expect("(")
            args = []
            for read in readers:
                if args:
                    self.expect(",")
                args.append(read(self))
            self.expect(")")
            try:
                return node(*args)
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.column) from None
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

    def parse_all(self) -> HomeoExpr:
        """One expression that must use up every token."""
        expr = self.parse_expr()
        trailing = self.peek()
        if trailing is not None:
            raise ParseError(f"unexpected trailing token {trailing.text!r}",
                             trailing.line, trailing.column)
        return expr

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

    def root(self) -> bool:
        tok = self.next("'fwd' or 'root'")
        if tok.text not in ("fwd", "root"):
            raise ParseError("direction must be fwd or root", tok.line, tok.column)
        return tok.text == "root"


def _unit_ladder(k: int, s: int) -> UnitPowerLadder:
    """A ladder generator or its inverse; other factors are simplify's."""
    if s not in (1, -1):
        raise ValueError("ladder direction s must be +1 or -1")
    return UnitPowerLadder(k, s)


# Heads with a fixed argument list: the node and one reader per argument.
_NODES = {
    "affine": (Affine, (_Parser.scalar, _Parser.scalar)),
    "oddpower": (OddPower, (_Parser.integer, _Parser.root)),
    "unitpowerladder": (_unit_ladder, (_Parser.integer, _Parser.integer)),
    "boundedconjugate": (BoundedConjugate, (_Parser.parse_expr,)),
    "inverse": (Inverse, (_Parser.parse_expr,)),
}


def parse_expr(text: str) -> HomeoExpr:
    return _Parser(_tokenize(text)).parse_all()


def parse_action_file(text: str) -> Action:
    """Parse a full action specification: group header plus gen bindings."""
    header: Optional[tuple[_Token, list[_Token]]] = None
    gens: list[tuple[str, HomeoExpr]] = []
    for _, line in groupby(_tokenize(text), key=attrgetter("line")):
        toks = list(line)
        if toks[0].text.startswith("#"):
            continue
        head = toks[0]
        if head.text == "group":
            if header is not None:
                raise ParseError("duplicate group header", head.line, head.column)
            header = (head, toks[1:])
        elif head.text == "gen":
            if len(toks) < 4 or toks[2].text != "=":
                raise ParseError("gen line must read 'gen <name> = <expr>'",
                                 head.line, head.column)
            gens.append((toks[1].text, _Parser(toks[3:]).parse_all()))
        else:
            raise ParseError(f"unknown directive {head.text!r}",
                             head.line, head.column)
    if header is None:
        raise ParseError("missing group header", 1, 1)
    head, params = header
    labels = tuple(name for name, _ in gens)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate generator names", head.line, head.column)
    presentation = _build_presentation(head, params, labels)
    return Action(presentation, dict(gens))


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
    except ValueError as exc:
        raise ParseError(str(exc), head.line, head.column) from None
    raise ParseError(f"unknown group family {family!r}",
                     params[0].line, params[0].column)


def _check_rank(rank: int, labels: tuple[str, ...], head: _Token):
    if len(labels) != rank:
        raise ParseError(
            f"group of rank {rank} declared but {len(labels)} gen lines found",
            head.line, head.column,
        )
