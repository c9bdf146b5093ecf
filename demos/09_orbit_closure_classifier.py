"""Classification of orbit-closure shapes.

For an action by exact affine maps whose relations are proved, the orbit
closure's class (a fixed point, a discrete sequence or a dense fill) is
decided exactly and printed with its basis: the Q-rank of the translation
lengths, or a dilation that shrinks a translation.  No finite orbit sample
proves a class, so every other action reads undecided, printed with its
sample's figures.
"""

from lineact import (
    Action,
    Interval,
    Presentation,
    classify_orbit_closure,
    gallery,
)
from lineact.homeo import Identity
from lineact.reals import Real


def show(label, cls):
    if cls.basis is not None:
        detail = f"certified: {cls.basis}"
    else:
        ev = cls.evidence
        detail = "sampled: " + ", ".join(
            f"{k}={ev[k]:.4f}" if isinstance(ev[k], float) else f"{k}={ev[k]}"
            for k in ("count", "coverage_gap", "min_gap")
            if k in ev
        )
    print(f"{label:34s} -> {cls.kind:18s} ({detail})")


p = Presentation.free_abelian(1, labels=("a",))
trivial = Action(p, {"a": Identity()})
show("identity action at 0",
     classify_orbit_closure(trivial, 0, 8, Interval.closed(-5, 5)))

show("unit translations at 0",
     classify_orbit_closure(gallery("ex_1_1"), 0, 10, Interval.closed(-5, 5)))

show("sqrt(2) translations at 0, radius 60",
     classify_orbit_closure(gallery("ex_1_2", alpha="sqrt2"), 0, 60,
                            Interval.closed(0, 1)))

show("3/2 translations at 0, radius 20",
     classify_orbit_closure(gallery("ex_1_2", alpha="3/2"), 0, 20,
                            Interval.closed(0, 1)))

show("dyadic translations at 0, radius 12",
     classify_orbit_closure(gallery("ex_1_3", n=2), 0, 12,
                            Interval.closed(0, 1)))

show("power-map orbit of 1/3, radius 8",
     classify_orbit_closure(gallery("klein_bottle"), Real.rational(1, 3), 8,
                            Interval.closed(0, 1)))
