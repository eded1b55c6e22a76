"""Heuristic search for line sets satisfying configurable axiom subsets.

The point axiom forces degree q+1 at every covered point and the plane
axiom forces those q+1 lines to be coplanar, so moves are made at pencil
granularity: a move picks a point P and a plane through it and adds all
q+1 lines of the plane through P.  The lines are counted at every point
and in every subspace dimension whose count rules the spec's axioms name
(``audit.count_rules``), and a move is rejected early if it would push a
count past the smallest upper end of its rules: a point past degree q+1
always, a plane past q+1 lines under (Pl), a solid past 2q+1 under (Sd).
"Dirty" points (degree strictly between 0 and q+1) are repaired first,
inside the plane their current lines already span.

Every candidate in a clean state is re-validated with the independent
audit module before being reported.  Runs are fully reproducible from
the recorded seed (Python's Mersenne Twister); the log embeds generator
name, seed and spec.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .audit import AxiomConfig, audit, axiom_allowed, count_rules, rejected
from .lineset import LineSet
from .pg import PG, projective_space
from .polygon import find_kgon

MODES = ("randomized-greedy", "local-swap")
TARGETS = ("pentagon", "span-lt-6", "any")

GENERATOR_NAME = "python-random-mt19937"


class SearchSpec(NamedTuple("SearchSpec", [
    ("n", int), ("q", int), ("axioms", AxiomConfig), ("mode", str),
    ("seed", int), ("budget", int), ("target", str),
])):
    """A search run's space, axioms, mode, seed, budget and target."""

    __slots__ = ()

    def __new__(cls, n: int, q: int, axioms: AxiomConfig, mode: str = "randomized-greedy",
                seed: int = 0, budget: int = 1000, target: str = "pentagon"):
        if n < 2:
            raise ValueError(f"n must be at least 2 for pencil moves, got {n}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        if budget <= 0:
            raise ValueError("budget must be positive")
        return super().__new__(cls, n, q, axioms, mode, seed, budget, target)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``'s checks; ``_replace`` calls this too."""
        return cls(*iterable)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpec":
        """Spec from a JSON object; unknown or missing keys, integer fields
        that are not JSON integers and axioms that are not a list of
        strings are refused."""
        if not isinstance(d, dict):
            raise ValueError("a search spec must be a JSON object")
        for key, value in d.items():
            if key not in cls._fields:
                raise ValueError(f"unknown key {key!r}")
            if key in ("n", "q", "seed", "budget") and type(value) is not int:
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in ("n", "q", "axioms"):
            if key not in d:
                raise ValueError(f"missing required key {key!r}")
        return cls(**{**d, "axioms": AxiomConfig.from_names(d["axioms"])})

    def to_dict(self) -> dict:
        return {**self._asdict(), "axioms": list(self.axioms.enabled())}


class SearchResult(NamedTuple):
    found: LineSet | None
    log: str
    iterations: int
    restarts: int
    best_score: int
    candidates_checked: int = 0


class _State:
    """Line counts of the chosen lines in every dimension that the spec's
    count rules name, points always among them under (Pt): every move is a
    pencil.  Each count has the smallest upper end of its rules as a cap."""

    def __init__(self, space: PG, axioms: AxiomConfig):
        self.space = space
        q = space.q
        rules = {0: {"Pt": axiom_allowed("Pt", q)}, **count_rules(axioms, q)}
        rules = {d: rs for d, rs in rules.items() if d <= space.n}
        self.caps = {d: min(map(max, rs.values())) for d, rs in rules.items()}
        self._rejected = {d: rejected(rs, self.caps[d]) for d, rs in rules.items()}
        self.counts: dict[int, dict] = {d: {} for d in rules}
        self.degree = self.counts[0]
        self.chosen: set = set()
        self._memo: dict = {}

    def _incidence(self, key):
        """(counter, its keys on the line, cap) per counted dimension.
        Subspaces are keyed by the bytes of their rows: row tuples took a
        PG(6, 2) search (Pt, Pl, Sd, 4d, seed 3, budget 3000, target any)
        from 71 to 360 MB peak RSS and 5.7 to 8.1 s (2-core VM, Py 3.11.7)."""
        inc = self._memo.get(key)
        if inc is None:
            space = self.space

            def through(d):
                if not d:
                    return space.line_point_indices(key)
                return tuple(
                    bytes(x for row in rows for x in row)
                    for rows in space.subspaces_through_rows(key, d)
                )

            inc = self._memo[key] = tuple(
                (counts, through(d), self.caps[d]) for d, counts in self.counts.items()
            )
        return inc

    def lines_at(self, point_idx: int) -> list:
        """The chosen lines through the point."""
        return [k for k in self.chosen if point_idx in self._incidence(k)[0][1]]

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
        would push some count past its cap."""
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
        return sorted(p for p, c in self.degree.items() if c in self._rejected[0])

    def score(self) -> int:
        """Distance to a state that every counted rule accepts, 0 when clean:
        the lines missing at the covered points, plus the subspaces whose
        count a rule rejects."""
        full = self.caps[0]
        s = sum(full - c for c in self.degree.values())
        for d, counts in self.counts.items():
            if d:
                s += sum(map(self._rejected[d].__contains__, counts.values()))
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
    state = _State(space, spec.axioms)
    log_lines = [
        "hexaudit search log",
        f"generator: {GENERATOR_NAME}",
        f"seed: {spec.seed}",
        f"spec: n={spec.n} q={spec.q} mode={spec.mode} budget={spec.budget} "
        f"target={spec.target} axioms={','.join(spec.axioms.enabled())}",
    ]
    best_score = None
    iterations = restarts = candidates = 0
    found: LineSet | None = None

    def pick(rows):
        """A random plane through the rows of a point or a line."""
        return rng.choice(space.subspaces_through_rows(rows, 2))

    while iterations < spec.budget:
        iterations += 1
        dirty = state.dirty_points()
        if dirty:
            p = rng.choice(dirty)
            lines_at_p = state.lines_at(p)
            span = space.rref([r for key in lines_at_p for r in key])
            plane = pick(span) if len(span) == 2 else span if len(span) == 3 else None
            if plane is None or not _pencil_move(state, p, plane):
                # Unrepairable point: drop its lines and start over there.
                state.remove(lines_at_p)
                restarts += 1
        else:
            clean = state.chosen and state.score() == 0
            if clean:
                candidates += 1
                ls = LineSet(space, state.chosen)
                if audit(ls, spec.axioms).passed and _target_met(ls, spec.target):
                    found = ls
                    log_lines.append(f"hit: iteration={iterations} lines={len(ls)}")
                    break
            if clean and spec.mode == "local-swap":
                # Perturb: remove a random pencil (no point is dirty, so
                # every covered point is full) and keep going.
                state.remove(state.lines_at(rng.choice(sorted(state.degree))))
            else:
                pool = [i for i in range(len(space.points)) if i not in state.degree]
                if not pool:
                    break
                p = rng.choice(pool)
                _pencil_move(state, p, pick((space.points[p],)))
        sc = state.score()
        if best_score is None or sc < best_score:
            best_score = sc
    log_lines += [
        f"iterations: {iterations}",
        f"restarts: {restarts}",
        f"candidates_checked: {candidates}",
        f"best_score: {best_score}",
        f"outcome: {'found' if found is not None else 'none'}",
    ]
    return SearchResult(
        found=found,
        log="\n".join(log_lines) + "\n",
        iterations=iterations,
        restarts=restarts,
        best_score=best_score,
        candidates_checked=candidates,
    )
