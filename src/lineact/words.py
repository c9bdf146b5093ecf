"""Words over group presentations, normal forms, and word-ball enumeration.

Supported presentation families: free groups, free abelian groups, the
Baumslag-Solitar groups B(1,n) = <a,b | ba = a^n b>, and two-step "ladder"
presentations f_i f_{i+1} f_i^-1 = f_{i+1}^(n_i) with n_i = +-1 and trivial
deeper conjugation (supported up to three generators).

Normal forms are exact and total for every supported family:

* free: the freely reduced word itself;
* free abelian: the exponent vector;
* B(1,n): the affine pair (m, t) in Z x Z[1/|n|] under a -> (0,1),
  b -> (1,0) with (m1,t1)(m2,t2) = (m1+m2, t1 + n^m1 * t2);
* ladder: the exponent tuple of the normal ordering f_0^a f_1^b (f_2^c).

Word balls enumerate all distinct group elements of word length <= L in
shortlex order (letter order: first generator, its inverse, second
generator, ...), keeping the shortlex-first representative word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional, Sequence

__all__ = [
    "UnknownGenerator",
    "UnsupportedPresentation",
    "Presentation",
    "GroupElement",
    "reduce_letters",
    "normal_form_key",
    "multiply",
    "walk",
    "ball",
    "free_reduced_words",
    "parse_word",
]


class UnknownGenerator(Exception):
    pass


class UnsupportedPresentation(Exception):
    pass


Letter = tuple[int, int]  # (generator index, nonzero exponent)


def _reduce(pairs: Sequence[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            out.pop()
            if s:
                out.append((g, s))
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class Presentation:
    """A presentation from one of the supported families."""

    kind: str                      # 'free' | 'free_abelian' | 'bs' | 'ladder'
    rank: int
    n: Optional[int] = None        # B(1,n) twist
    name: tuple[int, ...] = ()     # ladder conjugation signs, length rank-1
    labels: tuple[str, ...] = ()

    @staticmethod
    def free(rank: int, labels: Optional[Sequence[str]] = None) -> "Presentation":
        return Presentation("free", rank, labels=_mk_labels(rank, labels))

    @staticmethod
    def free_abelian(rank: int, labels: Optional[Sequence[str]] = None) -> "Presentation":
        return Presentation("free_abelian", rank, labels=_mk_labels(rank, labels))

    @staticmethod
    def baumslag_solitar(n: int, labels: Optional[Sequence[str]] = None) -> "Presentation":
        if n == 0:
            raise UnsupportedPresentation("B(1,0) is not a valid twist")
        return Presentation("bs", 2, n=n, labels=_mk_labels(2, labels))

    @staticmethod
    def ladder(name: Sequence[int], labels: Optional[Sequence[str]] = None) -> "Presentation":
        name = tuple(name)
        if any(s not in (1, -1) for s in name):
            raise UnsupportedPresentation("ladder name entries must be +-1")
        k = len(name) + 1
        if k > 3:
            raise UnsupportedPresentation(
                "ladder presentations beyond three generators are not "
                "determined by their name; refusing to guess"
            )
        if labels is None:
            labels = tuple(f"f{i}" for i in range(k))
        return Presentation("ladder", k, name=name, labels=_mk_labels(k, labels))

    def __post_init__(self):
        if len(self.labels) != self.rank:
            raise ValueError("label count must match rank")
        if len(set(self.labels)) != self.rank:
            raise ValueError("generator labels must be distinct")

    def generator_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownGenerator(f"no generator named {label!r}") from None

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def generator(self, i: int, e: int = 1) -> "GroupElement":
        if not 0 <= i < self.rank:
            raise UnknownGenerator(f"generator index {i} out of range")
        return GroupElement(self, ((i, e),) if e else ())

    def relations(self) -> list[tuple["GroupElement", "GroupElement"]]:
        """Defining relations as (lhs, rhs) word pairs."""
        rels = []
        if self.kind == "free":
            return rels
        if self.kind == "free_abelian":
            for i in range(self.rank):
                for j in range(i + 1, self.rank):
                    gi, gj = self.generator(i), self.generator(j)
                    rels.append((multiply(gi, gj), multiply(gj, gi)))
            return rels
        if self.kind == "bs":
            a, b = self.generator(0), self.generator(1)
            lhs = multiply(b, a)
            rhs = multiply(self.generator(0, self.n), b)
            rels.append((lhs, rhs))
            return rels
        if self.kind == "ladder":
            for i, s in enumerate(self.name):
                fi, fj = self.generator(i), self.generator(i + 1)
                lhs = multiply(multiply(fi, fj), fi.inverse())
                rels.append((lhs, self.generator(i + 1, s)))
            if self.rank == 3:
                f0, f2 = self.generator(0), self.generator(2)
                rels.append((multiply(f0, f2), multiply(f2, f0)))
            return rels
        raise UnsupportedPresentation(self.kind)

    def describe(self) -> str:
        if self.kind == "free":
            return f"free group of rank {self.rank}"
        if self.kind == "free_abelian":
            return f"free abelian group of rank {self.rank}"
        if self.kind == "bs":
            return f"Baumslag-Solitar group B(1,{self.n})"
        return f"ladder group with name {self.name}"


def _mk_labels(rank: int, labels: Optional[Sequence[str]]) -> tuple[str, ...]:
    if labels is not None:
        return tuple(labels)
    defaults = "abcdefgh"
    if rank <= len(defaults):
        return tuple(defaults[:rank])
    return tuple(f"x{i}" for i in range(rank))


@dataclass(frozen=True)
class GroupElement:
    """A freely reduced word over a presentation's generators."""

    presentation: Presentation
    word: tuple[Letter, ...]

    def __post_init__(self):
        for g, e in self.word:
            if not 0 <= g < self.presentation.rank:
                raise UnknownGenerator(f"generator index {g} out of range")
            if e == 0:
                raise ValueError("zero exponent in a reduced word")

    @property
    def is_identity_word(self) -> bool:
        return not self.word

    def length(self) -> int:
        return sum(abs(e) for _, e in self.word)

    def inverse(self) -> "GroupElement":
        return GroupElement(
            self.presentation,
            tuple((g, -e) for g, e in reversed(self.word)),
        )

    def letters(self) -> Iterator[tuple[int, int]]:
        """Single letters (gen, +-1), leftmost first."""
        for g, e in self.word:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield (g, step)

    def exponent_sum(self, i: int) -> int:
        return sum(e for g, e in self.word if g == i)

    def __str__(self) -> str:
        if not self.word:
            return "1"
        parts = []
        for g, e in self.word:
            lab = self.presentation.labels[g]
            parts.append(lab if e == 1 else f"{lab}^{e}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self}>"


def reduce_letters(p: Presentation, letters: Sequence[Letter]) -> GroupElement:
    """Freely reduce a raw letter sequence; applies no relations."""
    for g, _ in letters:
        if not 0 <= g < p.rank:
            raise UnknownGenerator(f"generator index {g} out of range")
    return GroupElement(p, _reduce(letters))


def multiply(u: GroupElement, v: GroupElement) -> GroupElement:
    if u.presentation != v.presentation:
        raise ValueError("elements live over different presentations")
    return GroupElement(u.presentation, _reduce(u.word + v.word))


# ---------------------------------------------------------------------------
# normal forms


def _bs_pair(p: Presentation, w: GroupElement) -> tuple[int, Fraction]:
    n = p.n
    m, t = 0, Fraction(0)
    for g, e in w.word:
        if g == 0:
            t += Fraction(n) ** m * e
        else:
            m += e
    return (m, t)


def _ladder_fold(p: Presentation, w: GroupElement) -> tuple[int, ...]:
    # Normal ordering f_0^a f_1^b (f_2^c), folded letter by letter.  Moving
    # f_g^e left past f_{g+1}'s power twists that exponent by n_g^e; f_0 and
    # f_2 commute.
    acc = [0] * p.rank
    for g, e in w.word:
        if e % 2 and g < len(p.name):
            acc[g + 1] *= p.name[g]
        acc[g] += e
    return tuple(acc)


def normal_form_key(p: Presentation, w: GroupElement):
    """A hashable canonical form; equal keys iff equal group elements."""
    if p.kind == "free":
        return ("free", w.word)
    if p.kind == "free_abelian":
        return ("fa", tuple(w.exponent_sum(i) for i in range(p.rank)))
    if p.kind == "bs":
        return ("bs", _bs_pair(p, w))
    if p.kind == "ladder":
        return ("ladder", _ladder_fold(p, w))
    raise UnsupportedPresentation(p.kind)


def bs_pair(w: GroupElement) -> tuple[int, Fraction]:
    """The affine pair (m, t) of a Baumslag-Solitar word."""
    if w.presentation.kind != "bs":
        raise UnsupportedPresentation("affine pairs exist only for B(1,n)")
    return _bs_pair(w.presentation, w)


# ---------------------------------------------------------------------------
# enumeration


def _letter_order(p: Presentation) -> list[Letter]:
    out = []
    for i in range(p.rank):
        out.append((i, 1))
        out.append((i, -1))
    return out


def walk(p: Presentation, radius: int, dedup: bool, carry: Any = None,
         step: Optional[Callable[[Letter, Any], Any]] = None
         ) -> Iterator[tuple[GroupElement, Any]]:
    """Yield (word, carry) over the radius-L ball in shortlex order.

    The identity comes first, carrying ``carry``.  Words grow on the left and
    ``letter * w`` carries ``step(letter, carry of w)`` (or ``carry`` itself
    when there is no step).  With ``dedup`` on, only the shortlex-first word
    of each group element is kept and extended, judged by
    :func:`normal_form_key`; with it off, every freely reduced word is.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    ident = p.identity()
    yield ident, carry
    seen = {normal_form_key(p, ident)} if dedup else None
    frontier = [(ident, carry)]
    letters = _letter_order(p)
    for _ in range(radius):
        nxt = []
        for lg, le in letters:
            for w, c in frontier:
                # left extension keeps words freely reduced and shortlex sorted
                if w.word and w.word[0][0] == lg and (w.word[0][1] > 0) != (le > 0):
                    continue
                w2 = GroupElement(p, _reduce(((lg, le),) + w.word))
                if dedup:
                    key = normal_form_key(p, w2)
                    if key in seen:
                        continue
                    seen.add(key)
                c2 = c if step is None else step((lg, le), c)
                nxt.append((w2, c2))
                yield w2, c2
        # words generated above are lex within this length by construction
        frontier = nxt


def ball(p: Presentation, radius: int) -> list[GroupElement]:
    """All distinct elements of word length <= radius, in shortlex order,
    each as its shortlex-first word (normal-form dedup)."""
    return [w for w, _ in walk(p, radius, True)]


def free_reduced_words(p: Presentation, radius: int,
                       include_identity: bool = False) -> Iterator[GroupElement]:
    """All freely reduced words of length <= radius, shortlex order.

    Unlike :func:`ball`, no relations are applied: the same group element may
    appear under several words.  Certificate sweeps walk these same words
    (``walk`` with dedup off), which makes their verdict lists robust to
    normal-form errors.
    """
    words = walk(p, radius, False)
    if not include_identity:
        next(words)
    for w, _ in words:
        yield w


# ---------------------------------------------------------------------------
# parsing


def parse_word(p: Presentation, text: str) -> GroupElement:
    """Parse 'a^2 b^-1 a' style words over the presentation's labels."""
    letters: list[Letter] = []
    for tok in text.split():
        if tok in ("1", "e"):
            continue
        if "^" in tok:
            lab, _, exp = tok.partition("^")
            try:
                e = int(exp)
            except ValueError:
                raise ValueError(f"bad exponent in token {tok!r}") from None
        else:
            lab, e = tok, 1
        letters.append((p.generator_index(lab), e))
    return reduce_letters(p, letters)
