"""The intersection-number auditor.

For a line set L and each relevant dimension d, the auditor needs the
multiset of counts |L_U| over the d-subspaces U meeting L, that is,
containing at least one line of L; every axiom admits count zero, so
the other subspaces never matter.  ``"dedup_scheme": "multiplicity-sum"``
in the report is the report-format name for this multiset, kept byte
for byte so that reports stay comparable.

The counts come from a dual-hyperplane bitset kernel that runs in one
process:

* Every hyperplane h, a point of the dual space indexed through the
  ambient point table, gets an int bitmask B[h] of the lines of L inside
  it.  The masks are filled by walking the points of each line's
  annihilator, ``nullspace(key)``.
* A d-subspace U is cut out by the n-d rows of its annihilator's RREF,
  so |L_U| is the popcount of the AND of B over those rows.
* Annihilator RREFs are enumerated pivot set first.  Once the pivots are
  fixed the rows are independent, so the walk goes row by row, carries
  the partial AND, and skips every completion once it reaches 0.
* The canonical basis of U, the nullspace of the annihilator rows, is
  computed only for subspaces whose count violates an axiom; the
  byte-minimal one is the witness.

Two slower count sources are kept as referees and must give identical
reports: closure enumeration (every d-subspace through every line,
hashed, in ``_closure_counts``) and the naive full enumeration of all
d-subspaces (``naive_audit``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .lineset import LineSet
from .pg import Subspace

DEDUP_SCHEME = "multiplicity-sum"

AXIOM_ORDER = ("Pt", "Pl", "Sd", "Sd'", "4d", "Hp", "Hp'", "To", "6d")

_ALIASES = {
    **{a.lower(): a for a in AXIOM_ORDER},
    "sdp": "Sd'", "sdprime": "Sd'", "hpp": "Hp'", "hpprime": "Hp'",
}


@dataclass(frozen=True)
class AxiomConfig:
    """Which intersection-number axioms the audit should check: a set of
    canonical names from ``AXIOM_ORDER``."""

    names: frozenset = frozenset()

    def __post_init__(self):
        if not self.names:
            raise ValueError("at least one axiom flag must be set")
        unknown = self.names - set(AXIOM_ORDER)
        if unknown:
            raise ValueError(f"unknown axiom name: {min(unknown)!r}")

    @classmethod
    def all(cls) -> "AxiomConfig":
        return cls(frozenset(AXIOM_ORDER))

    @classmethod
    def main_theorem(cls) -> "AxiomConfig":
        """(Pt), (Pl), (Sd), (4d), (Hp), (Hp'), (To): the exhaustive suite."""
        return cls(frozenset(("Pt", "Pl", "Sd", "4d", "Hp", "Hp'", "To")))

    @classmethod
    def from_names(cls, names) -> "AxiomConfig":
        canonical = set()
        for name in names:
            key = _ALIASES.get(name.strip().lower())
            if key is None:
                raise ValueError(f"unknown axiom name: {name!r}")
            canonical.add(key)
        return cls(frozenset(canonical))

    def enabled(self) -> tuple[str, ...]:
        return tuple(a for a in AXIOM_ORDER if a in self.names)


def axiom_allowed(axiom: str, q: int):
    """Allowed nonzero counts (set) or upper bound (int) for one axiom."""
    if axiom == "Pt":
        return {q + 1}
    if axiom == "Pl":
        return {1, q + 1}
    if axiom == "Sd":
        return {1, q + 1, 2 * q + 1}
    if axiom == "Sd'":
        return 2 * q + 1
    if axiom == "4d":
        return q**3 - q**2 + 4 * q
    if axiom == "Hp":
        return q**3 + 3 * q**2 + 3 * q
    if axiom == "Hp'":
        return q**4 - q**3 + 3 * q**2 + 2 * q
    raise ValueError(f"axiom {axiom!r} has no per-subspace count rule")


_AXIOM_DIM = {"Pl": 2, "Sd": 3, "Sd'": 3, "4d": 4, "Hp": 5, "Hp'": 5}


@dataclass
class AuditReport:
    n: int
    q: int
    num_lines: int
    num_points: int
    span_dim: int
    axioms: tuple[str, ...]
    verdicts: dict = dc_field(default_factory=dict)
    witnesses: dict = dc_field(default_factory=dict)
    histograms: dict = dc_field(default_factory=dict)
    dedup_scheme: str = DEDUP_SCHEME

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "totals": {
                "lines": self.num_lines,
                "points": self.num_points,
                "span_dim": self.span_dim,
            },
            "dedup_scheme": self.dedup_scheme,
            "axioms": list(self.axioms),
            "verdicts": {a: self.verdicts[a] for a in self.axioms},
            "witnesses": {
                a: (
                    None
                    if self.witnesses.get(a) is None
                    else [list(row) for row in self.witnesses[a]]
                )
                for a in self.axioms
            },
            "histograms": {
                str(d): {str(c): m for c, m in sorted(hist.items())}
                for d, hist in sorted(self.histograms.items())
            },
        }


def _violates(rule, c: int) -> bool:
    return c not in rule if isinstance(rule, set) else c > rule


# -- count sources --
#
# A count source is called as ``source(d, bad)`` and returns the
# histogram {|L_U|: number of U} over the d-subspaces U meeting L, plus
# (canonical basis of U, |L_U|) for at least every U whose count is in
# ``bad``.


class _DualCounts:
    """The dual-hyperplane bitset kernel (see the module docstring)."""

    def __init__(self, ls: LineSet):
        self.ls = ls
        self._choices: dict = {}

    @cached_property
    def masks(self) -> list[int]:
        """B[h], the bitmask of the lines inside hyperplane h."""
        space = self.ls.space
        index = space.point_index
        masks = [0] * len(space.points)
        for li, key in enumerate(self.ls.lines):
            bit = 1 << li
            for h in Subspace(space, space.nullspace(key), canonical=True).points():
                masks[index[h]] |= bit
        return masks

    def _row_choices(self, pivot: int, free: tuple[int, ...]):
        """Hyperplanes h with B[h] != 0 among the RREF rows with this pivot
        and these free columns, and their masks, as two parallel tuples."""
        memo = self._choices.get((pivot, free))
        if memo is not None:
            return memo
        space = self.ls.space
        index, masks = space.point_index, self.masks
        hyps = []
        row = [0] * space.width
        row[pivot] = 1
        for vals in itertools.product(range(space.q), repeat=len(free)):
            for j, v in zip(free, vals):
                row[j] = v
            h = index[tuple(row)]
            if masks[h]:
                hyps.append(h)
        memo = self._choices[(pivot, free)] = (
            tuple(hyps), tuple(masks[h] for h in hyps)
        )
        return memo

    def __call__(self, d: int, bad: frozenset):
        space = self.ls.space
        width = space.width
        k = space.n - d
        if k == 0:
            m = len(self.ls.lines)
            rows = space.whole_space().rows
            return {m: 1}, ([(rows, m)] if m in bad else [])
        tally: Counter = Counter()
        update = tally.update
        flagged = []
        last = k - 1

        def walk(levels, depth, acc, hyps_so_far):
            hyps, ms = levels[depth]
            if depth == last:
                cs = list(map(int.bit_count, map(acc.__and__, ms)))
                update(cs)
                if bad and not bad.isdisjoint(cs):
                    flagged.extend(
                        (hyps_so_far + (h,), c) for h, c in zip(hyps, cs) if c in bad
                    )
                return
            for h, m in zip(hyps, ms):
                a = acc & m
                if a:
                    walk(levels, depth + 1, a, hyps_so_far + (h,))

        full = (1 << len(self.ls.lines)) - 1
        for pivots in itertools.combinations(range(width), k):
            levels = [
                self._row_choices(
                    p, tuple(j for j in range(p + 1, width) if j not in pivots)
                )
                for p in pivots
            ]
            # Rows are independent: put the longest choice list innermost,
            # where the AND and popcount run in C over the whole list.
            levels.sort(key=lambda lv: len(lv[0]))
            walk(levels, 0, full, ())
        tally.pop(0, None)
        points = space.points
        bases = [
            (space.nullspace([points[h] for h in hyps]), c) for hyps, c in flagged
        ]
        return dict(tally), bases


def _closure_counts(ls: LineSet, d: int) -> dict[bytes, int]:
    """Map (flattened canonical basis) -> |L_U| over d-subspaces meeting L,
    by hashing every d-subspace through every line (the closure referee)."""
    if d == ls.n:
        # The whole space: every line is inside it.
        rows = ls.space.whole_space().rows
        return {bytes(x for row in rows for x in row): len(ls.lines)}
    counts: dict[bytes, int] = {}
    get = counts.get
    for key in ls.lines:
        for rows in ls.space.subspaces_through_rows(key, d):
            b = bytes(x for row in rows for x in row)
            counts[b] = get(b, 0) + 1
    return counts


def _naive_counts(ls: LineSet, d: int) -> dict[bytes, int]:
    """The same map by testing every d-subspace of the space."""
    counts: dict[bytes, int] = {}
    for sub in ls.space.enumerate_subspaces(d):
        c = len(ls.lines_in(sub))
        if c:
            counts[bytes(x for row in sub.rows for x in row)] = c
    return counts


def _dict_source(ls: LineSet, counts_of):
    """A count source over a full ``counts_of(ls, d)`` map per dimension."""
    width = ls.space.width

    def source(d: int, bad: frozenset):
        counts = counts_of(ls, d)
        hist: dict[int, int] = {}
        for c in counts.values():
            hist[c] = hist.get(c, 0) + 1
        flagged = [
            (tuple(tuple(b[i : i + width]) for i in range(0, len(b), width)), c)
            for b, c in counts.items()
            if c in bad
        ]
        return hist, flagged

    return source


def default_threads() -> int:
    """The audit runs in one process, so this is always 1."""
    return 1


def _audit(ls: LineSet, cfg: AxiomConfig, source) -> AuditReport:
    """Audit the enabled axioms, taking per-dimension counts from ``source``."""
    if not ls.lines:
        raise ValueError("cannot audit an empty line set")
    q = ls.q
    report = AuditReport(
        n=ls.n,
        q=q,
        num_lines=len(ls.lines),
        num_points=len(ls.point_lines),
        span_dim=ls.span_dim(),
        axioms=cfg.enabled(),
    )
    enabled = set(cfg.enabled())
    if "Pt" in enabled:
        hist: dict[int, int] = {}
        for line_ids in ls.point_lines.values():
            hist[len(line_ids)] = hist.get(len(line_ids), 0) + 1
        report.histograms[0] = hist
        bad_pts = sorted(
            pi for pi, line_ids in ls.point_lines.items() if len(line_ids) != q + 1
        )
        report.verdicts["Pt"] = not bad_pts
        report.witnesses["Pt"] = (
            None if not bad_pts else (ls.space.points[bad_pts[0]],)
        )
    dims = sorted({_AXIOM_DIM[a] for a in enabled if a in _AXIOM_DIM})
    for d in dims:
        rules = {
            a: axiom_allowed(a, q) for a in report.axioms if _AXIOM_DIM.get(a) == d
        }
        if d > ls.n:
            # No such subspaces in this ambient space: vacuously satisfied.
            for a in rules:
                report.verdicts[a] = True
                report.witnesses[a] = None
            continue
        bad = frozenset(
            c
            for c in range(1, len(ls.lines) + 1)
            if any(_violates(rule, c) for rule in rules.values())
        )
        hist, flagged = source(d, bad)
        report.histograms[d] = hist
        for a, rule in rules.items():
            hits = [rows for rows, c in flagged if _violates(rule, c)]
            report.verdicts[a] = not hits
            report.witnesses[a] = min(hits) if hits else None
    if "To" in enabled:
        bound = q**5 + q**4 + q**3 + q**2 + q + 1
        report.verdicts["To"] = len(ls.lines) <= bound
        report.witnesses["To"] = None
    if "6d" in enabled:
        report.verdicts["6d"] = q > 3 or report.span_dim >= 6
        report.witnesses["6d"] = None
    return report


def audit(ls: LineSet, cfg: AxiomConfig) -> AuditReport:
    """Audit the enabled axioms; verdicts, witnesses and count histograms.

    Per-dimension counts come from the dual-hyperplane kernel; the (To)
    and (6d) verdicts come from the totals.
    """
    return _audit(ls, cfg, _DualCounts(ls))


def naive_audit(ls: LineSet, cfg: AxiomConfig) -> AuditReport:
    """Oracle audit by full subspace enumeration; must match `audit` exactly."""
    return _audit(ls, cfg, _dict_source(ls, _naive_counts))


@dataclass
class ExpansionReport:
    lines_in_m: int
    meets_unique_s: bool | None
    alpha: int | None
    alpha_at_most_q: bool | None
    bound: int
    holds: bool


def expansion_bound(ls: LineSet, m: Subspace, l) -> ExpansionReport:
    """Check the line-count expansion inequality for a line leaving ``m``.

    With L_M the lines inside m and l a line of L meeting m in exactly
    one point: if l meets no line of L_M, |L| >= q|L_M| + 1; if it meets
    a line s with a (alpha = number of full-pencil points of m on s),
    |L| >= q|L_M| - alpha q^2 + alpha q + 1.
    """
    from .polygon import _full_pencil_points

    if isinstance(l, Subspace):
        lrows = l.rows
    else:
        lrows = ls.space.rref(l)
    if lrows not in ls:
        raise ValueError("l is not a line of the set")
    lsub = Subspace(ls.space, lrows, canonical=True)
    inter = ls.space.meet(lsub, m)
    if inter.projdim != 0:
        raise ValueError("l must meet the subspace in exactly one point")
    q = ls.q
    in_m = [ls.lines[li] for li in sorted(ls.lines_in(m))]
    lm = len(in_m)
    l_pts = set(ls.space.line_point_indices(lrows))
    meeting = [
        key
        for key in in_m
        if l_pts & set(ls.space.line_point_indices(key))
    ]
    if not meeting:
        bound = q * lm + 1
        return ExpansionReport(lm, None, None, None, bound, len(ls.lines) >= bound)
    s = meeting[0]
    special = _full_pencil_points(ls, m)
    alpha = sum(1 for p in ls.space.line_point_indices(s) if p in special)
    bound = q * lm - alpha * q**2 + alpha * q + 1
    return ExpansionReport(
        lines_in_m=lm,
        meets_unique_s=len(meeting) == 1,
        alpha=alpha,
        alpha_at_most_q=alpha <= q,
        bound=bound,
        holds=len(ls.lines) >= bound,
    )


@dataclass
class HyperplaneConsequenceReport:
    vacuous: bool
    bound: int
    best_count: int | None
    hyperplane: Subspace | None
    span_dim_at_most_6: bool

    @property
    def ok(self) -> bool:
        return self.vacuous or (
            self.best_count is not None and self.best_count >= self.bound
        )


def hyperplane_consequence_check(ls: LineSet) -> HyperplaneConsequenceReport:
    """If the set has a pentagon, a 5-space through its span must carry at
    least q^4 - q^3 + 3q^2 + 2q + 1 lines; also the whole set must span at
    most a 6-space.  Preconditions (Pt), (Pl), (Sd), (To) are the caller's.
    """
    from .polygon import find_kgon, pentagon_span_check

    q = ls.q
    bound = q**4 - q**3 + 3 * q**2 + 2 * q + 1
    sdim_ok = ls.span_dim() <= 6
    gon = find_kgon(ls, 5)
    if gon is None:
        return HyperplaneConsequenceReport(True, bound, None, None, sdim_ok)
    u = pentagon_span_check(ls, gon).span
    best, best_h = -1, None
    if u.projdim < 5 <= ls.n:
        for h in ls.space.subspaces_through(u, 5):
            c = len(ls.lines_in(h))
            if c > best:
                best, best_h = c, h
    return HyperplaneConsequenceReport(False, bound, best, best_h, sdim_ok)
