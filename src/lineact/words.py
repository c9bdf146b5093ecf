"""Words over group presentations, normal forms, and word-ball enumeration.

Supported presentation families: free groups, free abelian groups, the
Baumslag-Solitar groups B(1,n) = <a,b | ba = a^n b>, and two-step "ladder"
presentations f_i f_{i+1} f_i^-1 = f_{i+1}^(n_i) with n_i = +-1 and trivial
deeper conjugation (supported up to three generators).

Normal forms are exact and total.  A word's key folds its family's
left-multiplication rule (key(l . w) from key(w), l = (g, e)) right to left:

* free: the freely reduced word itself;
* free abelian: the exponent vector; l adds e to coordinate g;
* B(1,n): (m, t) with w = (x -> n^m x + t) under a = x+1, b = nx; a^e adds
  e to t, b^e adds e to m and multiplies t by n^e;
* ladder: the exponents of the normal ordering f_0^a f_1^b (f_2^c); f_g^e
  adds e n_{g-1} to coordinate g if coordinate g-1 is odd, else e.

Word balls enumerate all distinct group elements of word length <= L in
shortlex order (letter order: first generator, its inverse, second
generator, ...), keeping the shortlex-first representative word, whose key
the walk carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterator, Optional, Sequence

__all__ = [
    "Presentation",
    "GroupElement",
    "reduce_letters",
    "normal_form_key",
    "key_rule",
    "multiply",
    "walk",
    "ball",
    "free_reduced_words",
    "parse_word",
]


Letter = tuple[int, int]  # (generator index, nonzero exponent)


def _reduce(pairs: Sequence[Letter]) -> tuple[Letter, ...]:
    out: tuple[Letter, ...] = ()
    for letter in reversed(pairs):
        if letter[1]:
            out = _prepend(letter, out)
    return out


def _prepend(letter: Letter, word: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The freely reduced word letter . word, for a freely reduced word."""
    g, e = letter
    if word and word[0][0] == g:
        s = word[0][1] + e
        return ((g, s),) + word[1:] if s else word[1:]
    return (letter,) + word


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
            raise ValueError("B(1,0) is not a valid twist")
        return Presentation("bs", 2, n=n, labels=_mk_labels(2, labels))

    @staticmethod
    def ladder(name: Sequence[int], labels: Optional[Sequence[str]] = None) -> "Presentation":
        name = tuple(name)
        if any(s not in (1, -1) for s in name):
            raise ValueError("ladder name entries must be +-1")
        k = len(name) + 1
        if k > 3:
            raise ValueError(
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
            raise ValueError(f"no generator named {label!r}") from None

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def generator(self, i: int, e: int = 1) -> "GroupElement":
        if not 0 <= i < self.rank:
            raise ValueError(f"generator index {i} out of range")
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
        raise ValueError(self.kind)

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
                raise ValueError(f"generator index {g} out of range")
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
            raise ValueError(f"generator index {g} out of range")
    return GroupElement(p, _reduce(letters))


def multiply(u: GroupElement, v: GroupElement) -> GroupElement:
    if u.presentation != v.presentation:
        raise ValueError("elements live over different presentations")
    return GroupElement(u.presentation, _reduce(u.word + v.word))


# ---------------------------------------------------------------------------
# normal forms


@lru_cache(maxsize=64)
def key_rule(p: Presentation) -> tuple[str, Any, Callable[[Letter, Any], Any]]:
    """(tag, identity key, rule) of p's family: rule(l, k) is the key of
    l . w for a letter l = (g, e) and the key k of w, and a word's
    normal_form_key is (tag, its key)."""
    if p.kind == "free":
        return "free", (), _prepend
    if p.kind == "bs":
        n, q = p.n, Fraction(p.n)
        # n^e stays an int for n = +-1, where Fraction arithmetic and hashing
        # would dominate the walks
        twist = (lambda e: n ** (e % 2)) if n in (1, -1) else (lambda e: q ** e)

        def bs(letter, k):
            (g, e), (m, t) = letter, k
            return (m, t + e) if g == 0 else (m + e, t * twist(e))
        return "bs", (0, 0), bs
    if p.kind in ("free_abelian", "ladder"):
        name = p.name or (1,) * p.rank   # free abelian: every twist is +1

        def ladder(letter, k):
            g, e = letter
            if g and k[g - 1] % 2:
                e *= name[g - 1]
            return k[:g] + (k[g] + e,) + k[g + 1:]
        return "fa" if p.kind == "free_abelian" else "ladder", (0,) * p.rank, ladder
    raise ValueError(p.kind)


def normal_form_key(p: Presentation, w: GroupElement):
    """A hashable canonical form; equal keys iff equal group elements: the
    fold of :func:`key_rule` over w's letters, right to left."""
    tag, key, rule = key_rule(p)
    for letter in reversed(w.word):
        key = rule(letter, key)
    return tag, key


def bs_pair(w: GroupElement) -> tuple[int, Fraction]:
    """The affine pair (m, t) of a Baumslag-Solitar word."""
    if w.presentation.kind != "bs":
        raise ValueError("affine pairs exist only for B(1,n)")
    m, t = normal_form_key(w.presentation, w)[1]
    return m, Fraction(t)


# ---------------------------------------------------------------------------
# enumeration


def walk(p: Presentation, radius: int, dedup: bool, carry: Any = None,
         step: Optional[Callable[[Letter, Any], Any]] = None
         ) -> Iterator[tuple[GroupElement, Any]]:
    """Yield (word, carry) over the radius-L ball in shortlex order.

    The identity comes first, carrying ``carry``.  Words grow on the left and
    ``letter * w`` carries ``step(letter, carry of w)`` (or ``carry`` itself
    when there is no step).  With ``dedup`` on, only the shortlex-first word
    of each group element is kept and extended: each frontier word carries
    its normal-form key, and ``letter * w`` takes its key from w's by
    :func:`key_rule`.  With it off, every freely reduced word is, which is
    what dedup keeps in a free group.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    ident = p.identity()
    yield ident, carry
    _, key, rule = key_rule(p)
    dedup = dedup and p.kind != "free"
    seen = {key}
    frontier = [(ident.word, key, carry)]   # keys are tracked with dedup on
    letters = [(i, s) for i in range(p.rank) for s in (1, -1)]
    for _ in range(radius):
        nxt = []
        for letter in letters:
            lg, le = letter
            for word, k, c in frontier:
                # left extension keeps words freely reduced and shortlex sorted
                if word and word[0][0] == lg and (word[0][1] > 0) != (le > 0):
                    continue
                if dedup:
                    k = rule(letter, k)
                    if k in seen:
                        continue
                    seen.add(k)
                word2 = _prepend(letter, word)
                c2 = c if step is None else step(letter, c)
                nxt.append((word2, k, c2))
                yield GroupElement(p, word2), c2
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
    appear under several words.  Certificate sweeps give each of these
    words its element's verdict when the relations are proved, which is only
    as sound as the normal form that property tests check.
    """
    words = walk(p, radius, False)
    if not include_identity:
        next(words)
    for w, _ in words:
        yield w


# ---------------------------------------------------------------------------
# parsing


def parse_word(p: Presentation, text: str) -> GroupElement:
    """Parse 'a^2 b^-1 a' style words over the presentation's labels;
    '1', as the identity prints, is no letter."""
    letters: list[Letter] = []
    for tok in text.split():
        if tok == "1":
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
