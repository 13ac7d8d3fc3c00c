"""The benchmark's workloads: seeded lists of `python -m primelab` cells.

A workload is a list of cell templates plus a menu of values for each knob
the templates name.  The seed picks one value per knob and, for workloads
whose cells are independent, the order of the cells.  Seed 0 is the
canonical pass: every knob takes the first value of its menu (the ROADMAP's
canonical cells) and the cells run in the listed order.  Every menu entry has
its own expected rows in the oracle (see oracle.py).

The menus keep the work of a pass nearly the same for every seed, so that
runs on different seeds can be compared with one another.  Cells that share
a knob also share the tables they read, so the number and size of cached
table files do not depend on the seed either.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[str, ...]
    knobs: dict[str, tuple[str, ...]]
    # "fresh": each pass gets a new, empty PRIMELAB_CACHE_DIR;
    # "warm": set-up fills one cache dir and every pass reads it;
    # None: PRIMELAB_CACHE_DIR is unset.
    cache: str | None
    # False when the order of the cells is part of what the workload tests.
    shuffle: bool

    def pick(self, seed: int) -> list[list[str]]:
        """The argument lists of one pass for this seed."""
        if seed == 0:
            values = {knob: menu[0] for knob, menu in self.knobs.items()}
            order = list(self.cells)
        else:
            rng = random.Random(f"{self.name}:{seed}")
            values = {knob: rng.choice(menu) for knob, menu in self.knobs.items()}
            order = list(self.cells)
            if self.shuffle:
                rng.shuffle(order)
        return [template.format(**values).split() for template in order]

    def variants(self) -> list[list[str]]:
        """Every distinct cell any seed can produce (for the oracle)."""
        seen: dict[str, list[str]] = {}
        names = list(self.knobs)
        for combo in itertools.product(*(self.knobs[n] for n in names)):
            values = dict(zip(names, combo))
            for template in self.cells:
                argv = template.format(**values).split()
                seen.setdefault(" ".join(argv), argv)
        return list(seen.values())


WORKLOADS = {
    w.name: w
    for w in (
        # The 1e7 sieve, the cache write and the 1e7 multiplicative walk
        # dominate.  The lemma needs tables up to top + 1, which misses the
        # exact-n_max cache the first sieve wrote; the last sieve reads back.
        Workload(
            name="ladder_1e7",
            cells=(
                "sieve --n-max {top}",
                "lemma --which 2 --ladder {rungs},{top}",
                "sieve --n-max {top}",
            ),
            knobs={
                "top": ("1e7", "9.9e6"),
                "rungs": ("1e3,1e5", "1e4,1e6", "1e3,1e6"),
            },
            cache="fresh",
            shuffle=False,
        ),
        # Tables only come from disk here; the time goes to lambda_R ranges,
        # correlation and window sums, Euler products and process start-up.
        Workload(
            name="cells_1e6_warm",
            cells=(
                "correlate --n 1e6 --r-exp 0.25 --pattern {pair}",
                "moments --k 3 --lambda {lam} --r-exp 0.2 --n 1e6",
                "correlate --n 5e5 --r {mixed_r} --pattern {pair} --mixed --primed-range",
                "moments --psi --centered --n 1e6 --k 3 --h {h}",
                "omega --n 1e5 --h 50 --r 1e3 --rho {rho} --c couple",
                "singular --pattern {tuple}",
                "lemma --which 4 --ladder 1e4,1e5 --params j={j},variant=log",
                "moments --first-moment --n 1e6 --h {h}",
            ),
            knobs={
                "pair": ("0:1,2:1", "0:1,4:1", "0:1,6:1"),
                "lam": ("1.0", "1.1"),
                "mixed_r": ("1000", "950", "900"),
                "h": ("20", "24"),
                "rho": ("0.3", "0.25", "0.35"),
                "tuple": ("0:1,2:1", "0:1,2:1,6:1", "0:1,4:1,6:1"),
                "j": ("2", "4", "6"),
            },
            cache="warm",
            shuffle=True,
        ),
    )
}
