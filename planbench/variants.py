"""Seeded problem draws over the shipped ``cube_org`` domain.

Each draw is the text of an ``.ehatp`` problem.  It picks the anticipation
budget K (2 to 6), communication on or off, one or two robot cubes, the
partner pairing, and the optional ``any_box``, ``main_first`` and
``transparent`` facts.  The same seed always gives the same texts.

Two robot cubes make a draw several times slower than one, and every
optional fact moves the cost of a draw by a fixed share, so a plain random
sample of thirty draws costs visibly more under some seeds than under
others.  The draws are therefore stratified so that every seed costs about
the same: each (cubes, K, communication) cell is drawn a fixed number of
times, and the two communication settings of one (cubes, K) pair take
complementary optional facts and pairings.  One-cube cells are drawn twice
and two-cube cells once.  The run's median solve then falls inside the
dense one-cube group; with equal groups it fell in the gap between them, or
between the two-cube draws with K = 2 and the rest, and moved by a third
from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# (robot cubes, draws per (K, communication) cell)
STRATA = ((("c_r",), 2), (("c_r", "c_y"), 1))
K_RANGE = range(2, 7)
HUMAN_CUBE = "c_w"
BOXES = ("box_1", "box_2")


@dataclass(frozen=True)
class Draw:
    name: str
    k: int
    comm: bool
    robot_cubes: tuple[str, ...]
    partners: tuple[tuple[str, str], ...]
    flags: tuple[str, ...]

    def text(self) -> str:
        task_r = "organize_both" if len(self.robot_cubes) == 2 else "organize"
        init = [f"on({c}, mt)" for c in self.robot_cubes]
        init += [f"on({HUMAN_CUBE}, ot)", "empty(box_1)", "empty(box_2)",
                 "main(box_1)", "spare(box_2)"]
        init += [f"partner({a}, {b})" for a, b in self.partners]
        init += list(self.flags)
        lines = [f"problem {self.name} {{",
                 "  domain cube_org",
                 f"  k {self.k}",
                 f"  communication {'on' if self.comm else 'off'}",
                 "  robot at mt",
                 "  human at mt",
                 f"  task R {task_r}",
                 "  task H organize_h",
                 "  init {"]
        lines += [f"    {fact}" for fact in init]
        lines += ["  }", "}"]
        return "\n".join(lines) + "\n"


def _pairings(cubes: tuple[str, ...]) -> list[tuple[tuple[str, str], ...]]:
    """Every symmetric partner relation in which each cube has one partner."""
    out = [tuple((c, c) for c in cubes)]
    for a, b in itertools.combinations(cubes, 2):
        rest = tuple((c, c) for c in cubes if c not in (a, b))
        out.append(((a, b), (b, a)) + rest)
    return out


def draws(seed: int) -> list[Draw]:
    rng = random.Random(seed)
    out: list[Draw] = []
    for robot, reps in STRATA:
        cubes = robot + (HUMAN_CUBE,)
        optional = ([f"{p}({c})" for p in ("any_box", "main_first") for c in cubes]
                    + [f"transparent({b})" for b in BOXES])
        pairings = _pairings(cubes)
        for k in K_RANGE:
            for _ in range(reps):
                flags = [f for f in optional if rng.random() < 0.5]
                complement = [f for f in optional if f not in flags]
                pick = rng.randrange(len(pairings))
                mirror = (pick + len(pairings) // 2) % len(pairings)
                for comm, fl, pi in ((False, flags, pick), (True, complement, mirror)):
                    out.append(Draw(f"v{len(out)}", k, comm, robot,
                                    pairings[pi], tuple(fl)))
    rng.shuffle(out)
    return out
