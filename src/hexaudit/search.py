"""Heuristic search for line sets satisfying configurable axiom subsets.

The point axiom forces degree q+1 at every covered point and the plane
axiom forces those q+1 lines to be coplanar, so moves are made at pencil
granularity: a move picks a point P and a plane through it and adds all
q+1 lines of the plane through P, rejecting early any move that would
push a point past degree q+1, a plane past q+1 lines or a solid past
2q+1 lines.  "Dirty" points (degree strictly between 0 and q+1) are
repaired first, inside the plane their current lines already span.

Every candidate in a clean state is re-validated with the independent
audit module before being reported.  Runs are fully reproducible from
the recorded seed (Python's Mersenne Twister); the log embeds generator
name, seed and spec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .audit import AxiomConfig, audit
from .lineset import LineSet
from .pg import PG, projective_space
from .polygon import find_kgon

MODES = ("randomized-greedy", "local-swap")
TARGETS = ("pentagon", "span-lt-6", "any")

GENERATOR_NAME = "python-random-mt19937"


@dataclass(frozen=True)
class SearchSpec:
    n: int
    q: int
    axioms: AxiomConfig
    mode: str = "randomized-greedy"
    seed: int = 0
    budget: int = 1000
    target: str = "pentagon"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2 for pencil moves, got {self.n}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        if self.budget <= 0:
            raise ValueError("budget must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpec":
        """Spec from a JSON object; unknown or missing keys, integer fields
        that are not JSON integers and axioms that are not a list of
        strings are refused."""
        if not isinstance(d, dict):
            raise ValueError("a search spec must be a JSON object")
        names = {f.name for f in fields(cls)}
        for key, value in d.items():
            if key not in names:
                raise ValueError(f"unknown key {key!r}")
            if key in ("n", "q", "seed", "budget") and type(value) is not int:
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in ("n", "q", "axioms"):
            if key not in d:
                raise ValueError(f"missing required key {key!r}")
        return cls(
            n=d["n"],
            q=d["q"],
            axioms=AxiomConfig.from_names(d["axioms"]),
            mode=d.get("mode", "randomized-greedy"),
            seed=d.get("seed", 0),
            budget=d.get("budget", 1000),
            target=d.get("target", "pentagon"),
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "axioms": list(self.axioms.enabled()),
            "mode": self.mode,
            "seed": self.seed,
            "budget": self.budget,
            "target": self.target,
        }


@dataclass
class SearchResult:
    found: LineSet | None
    log: str
    iterations: int
    restarts: int
    best_score: int
    candidates_checked: int = 0


class _State:
    """Degrees and plane/solid line counts of the chosen lines, under caps."""

    def __init__(self, space: PG, q: int):
        self.space = space
        self.q = q
        self.chosen: set = set()
        self.degree: dict[int, int] = {}
        self.plane_counts: dict[bytes, int] = {}
        self.solid_counts: dict[bytes, int] = {}
        self._memo: dict = {}

    def _incidence(self, key):
        """(counter, its keys on the line, cap) for points, planes and solids."""
        inc = self._memo.get(key)
        if inc is None:
            space, q = self.space, self.q

            def through(d):
                if d > space.n:
                    return ()
                return tuple(
                    bytes(x for row in rows for x in row)
                    for rows in space.subspaces_through_rows(key, d)
                )

            inc = (
                (self.degree, space.line_point_indices(key), q + 1),
                (self.plane_counts, through(2), q + 1),
                (self.solid_counts, through(3), 2 * q + 1),
            )
            self._memo[key] = inc
        return inc

    def line_pts(self, key):
        return self._incidence(key)[0][1]

    def _count(self, keys, step: int) -> bool:
        """Shift every count on the lines by step, deleting counts that reach
        0; True if some count passes its cap."""
        over = False
        for key in keys:
            for counts, subs, cap in self._incidence(key):
                for s in subs:
                    c = counts.get(s, 0) + step
                    if c:
                        counts[s] = c
                        if c > cap:
                            over = True
                    else:
                        del counts[s]
        return over

    def try_add(self, keys) -> bool:
        """Add the new lines as one move; undo it and return False if it
        would push a point, plane or solid past its cap."""
        assert self.chosen.isdisjoint(keys)
        if self._count(keys, 1):
            self._count(keys, -1)
            return False
        self.chosen.update(keys)
        return True

    def remove(self, keys) -> None:
        self.chosen.difference_update(keys)
        self._count(keys, -1)

    def dirty_points(self) -> list[int]:
        q = self.q
        return sorted(p for p, d in self.degree.items() if 0 < d < q + 1)

    def score(self) -> int:
        """Distance to a (Pt)/(Pl)/(Sd)-clean state; 0 means clean."""
        q = self.q
        s = sum(q + 1 - d for d in self.degree.values() if 0 < d < q + 1)
        s += sum(1 for c in self.plane_counts.values() if 1 < c < q + 1)
        s += sum(
            1
            for c in self.solid_counts.values()
            if c not in (0, 1, q + 1, 2 * q + 1)
        )
        return s


def _pencil_move(state: _State, point_idx: int, plane_rows) -> bool:
    """Add the missing lines of the pencil at the point inside the plane;
    False if none is missing or the caps refuse them."""
    space = state.space
    pencil = space.pencil(space.points[point_idx], plane_rows)
    missing = [key for key in pencil if key not in state.chosen]
    return bool(missing) and state.try_add(missing)


def _target_met(ls: LineSet, target: str) -> bool:
    if target == "any":
        return True
    if target == "pentagon":
        return find_kgon(ls, 5) is not None
    if target == "span-lt-6":
        return ls.span_dim() < 6
    raise ValueError(target)


def run(spec: SearchSpec) -> SearchResult:
    """Run the search; returns a validated candidate or None plus a log."""
    space = projective_space(spec.n, spec.q)
    rng = random.Random(spec.seed)
    q = spec.q
    state = _State(space, q)
    log_lines = [
        "hexaudit search log",
        f"generator: {GENERATOR_NAME}",
        f"seed: {spec.seed}",
        f"spec: n={spec.n} q={spec.q} mode={spec.mode} budget={spec.budget} "
        f"target={spec.target} axioms={','.join(spec.axioms.enabled())}",
    ]
    best_score = None
    iterations = 0
    restarts = 0
    candidates = 0
    found: LineSet | None = None

    def fresh_plane_rows(point_idx):
        point = space.points[point_idx]
        planes = space.subspaces_through_rows((point,), 2)
        return planes[rng.randrange(len(planes))]

    while iterations < spec.budget and found is None:
        iterations += 1
        dirty = state.dirty_points()
        moved = False
        if dirty:
            p = dirty[rng.randrange(len(dirty))]
            lines_at_p = [key for key in state.chosen if p in state.line_pts(key)]
            rows = [r for key in lines_at_p for r in key]
            span = space.rref(rows)
            if len(span) == 2:
                candidates_planes = space.subspaces_through_rows(span, 2)
                plane_rows = candidates_planes[rng.randrange(len(candidates_planes))]
            elif len(span) == 3:
                plane_rows = span
            else:
                plane_rows = None
            if plane_rows is not None:
                moved = _pencil_move(state, p, plane_rows)
            if not moved:
                # Unrepairable point: drop its lines and start over there.
                state.remove(lines_at_p)
                restarts += 1
                moved = True
        else:
            if state.chosen and state.score() == 0:
                candidates += 1
                ls = LineSet(space, sorted(state.chosen), canonical=True)
                rep = audit(ls, spec.axioms)
                if rep.passed and _target_met(ls, spec.target):
                    found = ls
                    log_lines.append(
                        f"hit: iteration={iterations} lines={len(ls)}"
                    )
                    break
                if spec.mode == "local-swap":
                    # Perturb: remove a random full pencil and keep going.
                    full = sorted(
                        p for p, d in state.degree.items() if d == q + 1
                    )
                    if full:
                        p = full[rng.randrange(len(full))]
                        state.remove(
                            [k for k in state.chosen if p in state.line_pts(k)]
                        )
                        moved = True
            if not moved:
                covered = {p for p, d in state.degree.items() if d > 0}
                pool = [i for i in range(len(space.points)) if i not in covered]
                if not pool:
                    break
                p = pool[rng.randrange(len(pool))]
                _pencil_move(state, p, fresh_plane_rows(p))
        sc = state.score()
        if best_score is None or sc < best_score:
            best_score = sc
    log_lines.append(f"iterations: {iterations}")
    log_lines.append(f"restarts: {restarts}")
    log_lines.append(f"candidates_checked: {candidates}")
    log_lines.append(f"best_score: {best_score if best_score is not None else -1}")
    log_lines.append(f"outcome: {'found' if found is not None else 'none'}")
    return SearchResult(
        found=found,
        log="\n".join(log_lines) + "\n",
        iterations=iterations,
        restarts=restarts,
        best_score=best_score if best_score is not None else -1,
        candidates_checked=candidates,
    )
