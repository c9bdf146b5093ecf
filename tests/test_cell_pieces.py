"""An exact extension cell evaluates as one integer Moebius step on its
piece (``homeo._eval_pieces``), and that gives the tree path's value, byte
for byte: exact values of Q(sqrt r) have one canonical form.  Every other
point, and a cell map with no pieces, takes the tree path."""

import random
from fractions import Fraction

import pytest

from lineact import homeo
from lineact.actions import (
    Action,
    ExtensionSpec,
    conjugate_into_unit,
    direct_product_extension,
    gallery,
    random_element,
)
from lineact.homeo import (
    Affine,
    BoundedConjugate,
    ExtensionCell,
    HorizonExceeded,
    Identity,
    UnitPowerLadder,
    _cell_pieces,
    compose,
    evaluate,
)
from lineact.parse import parse_action_file
from lineact.reals import Real
from lineact.words import Presentation

R = Real.rational
NON_COMMUTING = "group free_abelian 2\ngen a = affine(2, 0)\ngen b = affine(1, 1)\n"
POINTS_PER_SPEC = 2000


def _spec(name: str) -> ExtensionSpec:
    if name == "sqrt2":
        return direct_product_extension(
            conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2")), coset_label="t")
    if name == "ex_1_1":
        return direct_product_extension(conjugate_into_unit(gallery("ex_1_1")), coset_label="t")
    if name == "non_commuting":
        return direct_product_extension(
            conjugate_into_unit(parse_action_file(NON_COMMUTING)), coset_label="t")
    if name == "sign_flipping":
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        return ExtensionSpec(inner, Presentation.free(3, labels=("t", "a", "b")), "t",
                             lambda j, w: w if j % 2 == 0 else w.inverse())
    return direct_product_extension(
        conjugate_into_unit(gallery("ex_1_2", alpha="pi")), coset_label="t")


def _tree(spec: ExtensionSpec, w, x: Real) -> Real:
    j = x.floor_ceil()[0][0]
    return evaluate(spec.cell_expr(j, w), x - R(j)).shift(j)


def _same(y: Real, z: Real):
    assert (y.kind, str(y)) == (z.kind, str(z))
    assert y.bounds() == z.bounds() if y.kind == "tracked-real" else y == z


def _break_point(r: int, brk: tuple[int, int, int], j: int) -> Real:
    p, q, s = brk
    return R(p, s) + R(q, s) * (Real.sqrt3() if r == 3 else Real.sqrt2()) + R(j)


def _words(spec: ExtensionSpec, rng: random.Random) -> list:
    p = spec.inner_action.presentation
    gens = [p.generator(i) for i in range(p.rank)]
    return gens + [g.inverse() for g in gens] + [random_element(p, rng, 4) for _ in range(6)]


@pytest.mark.parametrize("name", ["sqrt2", "ex_1_1", "non_commuting", "sign_flipping", "pi"])
def test_exact_cells_match_the_tree_path(name):
    spec = _spec(name)
    rng = random.Random(40)
    n = spec.horizon
    words = _words(spec, rng)
    images: list[Real] = []   # exact images, drawn again as points
    kinds = set()
    count = 0
    while count < POINTS_PER_SPEC:
        w = rng.choice(words)
        j = rng.randint(-n, n)
        kind = rng.choice(["rational", "integer", "half", "edge", "break", "image"])
        if kind == "rational":
            x = R(j) + R(rng.randint(0, 999), 1000)
        elif kind == "integer":
            x = R(j)
        elif kind == "half":
            x = R(2 * j + 1, 2)
        elif kind == "edge":
            x = R(rng.choice([-n, n])) + R(rng.randint(0, 99), 100)
        elif kind == "image" and images:
            x = rng.choice(images)
        else:
            pieces = spec.cell_map(j, w)[1]
            if pieces is None or not pieces[1]:
                continue
            x = _break_point(pieces[0], rng.choice(pieces[1]), j)
        if abs(x.floor_ceil()[0][0]) > n:
            continue
        y = evaluate(ExtensionCell(spec, w), x)
        _same(y, _tree(spec, w, x))
        if y.kind != "tracked-real" and abs(y.floor_ceil()[0][0]) <= n:
            images.append(y)
        kinds.add((kind, y.kind))
        count += 1
    if name == "pi":   # b translates by pi: its cells have no pieces
        assert spec.cell_map(0, words[1])[1] is None
        assert ("rational", "tracked-real") in kinds
    else:
        assert {k for k, _ in kinds} == {"rational", "integer", "half", "edge", "break", "image"}
        if name in ("sqrt2", "sign_flipping"):
            assert ("image", "exact-quadratic") in kinds


@pytest.mark.parametrize("name", ["sqrt2", "ex_1_1", "non_commuting", "sign_flipping"])
def test_every_break_evaluates_exactly(name):
    spec = _spec(name)
    rng = random.Random(7)
    for w in _words(spec, rng):
        for j in (-spec.horizon, -1, 0, 3, spec.horizon):
            r, breaks, mats = spec.cell_map(j, w)[1]
            assert len(mats) == len(breaks) + 1
            for brk in breaks:
                x = _break_point(r, brk, j)
                _same(evaluate(ExtensionCell(spec, w), x), _tree(spec, w, x))


def _without_pieces(monkeypatch):
    monkeypatch.setattr(homeo, "_eval_pieces", lambda pieces, x, j: None)


@pytest.mark.parametrize("name", ["sqrt2", "sign_flipping", "pi"])
def test_one_cell_past_the_horizon_raises_on_both_paths(name, monkeypatch):
    spec = _spec(name)
    w = spec.inner_action.presentation.generator(1)
    n = spec.horizon
    xs = [R(n + 1), R(2 * n + 3, 2), R(-n - 1) + R(1, 3), Real.sqrt2() - R(n + 2)]
    messages = []
    for x in xs:
        with pytest.raises(HorizonExceeded) as exc:
            evaluate(ExtensionCell(spec, w), x)
        messages.append(str(exc.value))
    _without_pieces(monkeypatch)
    for x, msg in zip(xs, messages):
        with pytest.raises(HorizonExceeded, match=f"^{msg}$"):
            evaluate(ExtensionCell(spec, w), x)
    assert messages[0] == f"cell {n + 1} beyond the configured horizon {n}"


def test_other_points_fall_back_to_the_tree(monkeypatch):
    spec = _spec("sqrt2")
    w = spec.inner_action.presentation.generator(1)
    pieces = spec.cell_map(2, w)[1]
    assert pieces[0] == 2   # b translates by sqrt2 inside the conjugate
    tracked = Real.tracked_from_fraction(Fraction(7, 3))
    sqrt3_point = Real.sqrt3() + R(1)
    across = Real.hull(R(29, 10), R(31, 10))   # an enclosure across cells 2 and 3
    for x in (tracked, sqrt3_point):
        assert homeo._eval_pieces(pieces, x, 2) is None
    # rational pieces take a sqrt3 point's radicand
    ex11 = _spec("ex_1_1")
    a = ex11.inner_action.presentation.generator(0)
    y = homeo._eval_pieces(ex11.cell_map(2, a)[1], sqrt3_point + R(1, 2), 2)
    assert y.kind == "exact-quadratic"
    _same(y, _tree(ex11, a, sqrt3_point + R(1, 2)))
    got = [evaluate(ExtensionCell(spec, w), x) for x in (tracked, sqrt3_point, across)]
    _without_pieces(monkeypatch)
    for x, y in zip((tracked, sqrt3_point, across), got):
        _same(y, evaluate(ExtensionCell(spec, w), x))
    assert got[0].kind == "tracked-real" and got[2].kind == "tracked-real"


def test_pieces_compile_at_first_evaluation_and_stay_cached():
    spec = _spec("sqrt2")
    w = spec.inner_action.presentation.generator(1)
    spec.cell_expr(0, w)
    assert [len(e) for e in spec._cell_cache.values()] == [1]   # simplify compiles nothing
    evaluate(ExtensionCell(spec, w), R(1, 3))
    (entry,) = spec._cell_cache.values()
    assert spec.cell_map(5, w)[1] is entry[1] is not None


def test_uncompilable_cells_have_no_pieces():
    pi = _spec("pi")
    s = pi.inner_action.presentation.generator(1)
    ladder = conjugate_into_unit(
        Action(Presentation.free_abelian(1, labels=("s",)), {"s": UnitPowerLadder(1, 1)}))
    sqrt2, sqrt3 = Affine(R(1), Real.sqrt2()), Affine(R(1), Real.sqrt3())
    assert _cell_pieces(pi.cell_expr(0, s)) is None           # a tracked coefficient
    assert _cell_pieces(ladder.image("s")) is None            # another node
    assert _cell_pieces(compose(sqrt2, BoundedConjugate(sqrt3))) is None   # two radicands
    assert _cell_pieces(compose(sqrt2, BoundedConjugate(sqrt2)))[0] == 2
    assert _cell_pieces(Identity()) == (0, [], [(1, 0, 0, 0, 0, 0, 1, 0)])
