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
  it, and every line l a bitmask H[l] of the hyperplanes containing it.
  H comes from one walk (``_orthogonal_walk``) over the set's sorted
  distinct rows, on the space's bit-sliced point table: consecutive rows
  share the partial sums of their common prefix.  B is H transposed while
  |L| times the hyperplane count is at most ``TRANSPOSE_CELLS``; above it,
  the same walk runs over every hyperplane, on the lines' bit-sliced rows.
* A d-subspace U is cut out by the n-d rows of its annihilator's RREF,
  so |L_U| is the popcount of the AND of B over those rows.
* Annihilator RREFs are enumerated pivot set first.  Once the pivots are
  fixed the rows are independent, so the walk goes row by row, carries
  the partial AND, and skips every completion once it holds fewer than
  two lines.  Every line lies in the same number of d-subspaces, so the
  count of U with |L_U| = 1 follows, and every axiom admits count 1.
* Every shape's walk stops at the prefixes of all its rows but the last
  two, and completes them there.  Without the grid below, the row above
  the last loops over its choices and completes each longer prefix
  against the last row.  A prefix of few lines marks each H[l] once and
  twice over the last row's hyperplanes; only those marked twice hold
  two or more lines, and only they are popcounted.  A prefix of many
  lines adds each H[l] into bit-sliced counters over the row's
  hyperplanes, and the histogram comes from one mask per count value, so
  the row costs no Python work per hyperplane; when the row is short for
  the prefix, the AND and popcount run over it in C instead, as they do
  when there is one row (d = n-1).
* With three rows or more, a shape whose last two rows have a small
  product grid of choices, below rows with many choices, completes them
  together: each line l gets a product mask P[l], the cells (i1, i2) of
  the grid whose two hyperplanes contain l, built once per shape, and
  each prefix adds its lines' P[l] into the same bit-sliced counters, so
  it costs one ripple carry per line.
* An axiom's witness is the byte-minimal canonical basis among the
  subspaces whose counts it rejects.  A larger first pivot P1, the
  leading column of the basis's first row, always gives a byte-smaller
  basis, so the witness lies among the rejected U of the largest P1, and
  only those get a basis: the nullspace of U's annihilator rows.  P1 is
  the number of leading annihilator rows that are the unit vectors e_0,
  e_1, ...: U lies in x_0 = ... = x_{c-1} = 0 exactly when e_0 .. e_{c-1}
  are in the annihilator's span, and an RREF row with pivot i < c is then
  e_i itself.  A hyperplane's basis is read straight from its one row
  (``_hyperplane_basis``), so no witness at d = n-1 needs a nullspace.
* Planes (d = 2) skip the walk.  Two lines of a plane meet, so
  every plane of c >= 2 lines is spanned by the C(c, 2) pairs of lines
  through a common point, each counted at that point; H[l] & H[m], the
  hyperplanes through the pair's plane, is the plane's key, and c follows
  from the pairs per key.  Each line of such a plane is in c - 1 of its
  pairs, so the pairs holding the key's first line give c again, and the
  two counts must agree.  A flagged plane's P1 is the smaller first
  pivot of two of its lines, and its basis, where one is needed, the
  RREF of those two lines.  The keys are kept until all pairs are
  counted: one int of a bit per hyperplane for each plane of two or more
  lines.

The naive full enumeration of all d-subspaces (``naive_audit``) and the
tests' closure enumeration (every d-subspace through every line) are
kept as referees and must give identical reports.
Every histogram, from any source, must pass two pair-count identities
(``_check_pair_counts``) that do not depend on the source.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .errors import InternalConsistencyError
from .lineset import LineSet
from .pg import bit_slices, gaussian_binomial

DEDUP_SCHEME = "multiplicity-sum"

# The theorem's hypotheses, in report order.  A per-subspace axiom maps to
# its dimension d and, as a function of q, the nonzero counts |L_U| it
# allows on a d-subspace U; (Pt) is d = 0, the lines through a point.
# ``c in allowed`` and ``max(allowed)`` work on the sets and the ranges.
# (To) and (6d) map to None and a rule on the totals: q, the number of
# lines and the dimension of their span.
AXIOMS = {
    "Pt": (0, lambda q: {q + 1}),
    "Pl": (2, lambda q: {1, q + 1}),
    "Sd": (3, lambda q: {1, q + 1, 2 * q + 1}),
    "Sd'": (3, lambda q: range(1, 2 * q + 2)),
    "4d": (4, lambda q: range(1, q**3 - q**2 + 4 * q + 1)),
    "Hp": (5, lambda q: range(1, q**3 + 3 * q**2 + 3 * q + 1)),
    "Hp'": (5, lambda q: range(1, q**4 - q**3 + 3 * q**2 + 2 * q + 1)),
    "To": (None, lambda q, lines, span: lines <= (q**6 - 1) // (q - 1)),
    "6d": (None, lambda q, lines, span: q > 3 or span >= 6),
}

_ALIASES = {
    **{a.lower(): a for a in AXIOMS},
    "sdp": "Sd'", "sdprime": "Sd'", "hpp": "Hp'", "hpprime": "Hp'",
}


class AxiomConfig(NamedTuple("AxiomConfig", [("names", frozenset)])):
    """Which intersection-number axioms the audit should check: a set of
    canonical names from ``AXIOMS``."""

    __slots__ = ()

    def __new__(cls, names: frozenset = frozenset()):
        if not names:
            raise ValueError("at least one axiom flag must be set")
        unknown = names - AXIOMS.keys()
        if unknown:
            raise ValueError(f"unknown axiom name: {min(unknown)!r}")
        return super().__new__(cls, names)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``'s checks; ``_replace`` calls this too."""
        return cls(*iterable)

    @classmethod
    def all(cls) -> "AxiomConfig":
        return cls(frozenset(AXIOMS))

    @classmethod
    def from_names(cls, names) -> "AxiomConfig":
        """Config from a list, tuple or set of axiom names or aliases."""
        if not isinstance(names, (list, tuple, set, frozenset)):
            raise ValueError(f"axioms must be a list of strings, got {names!r}")
        canonical = set()
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"axioms must be a list of strings, got item {name!r}")
            key = _ALIASES.get(name.strip().lower())
            if key is None:
                raise ValueError(f"unknown axiom name: {name!r}")
            canonical.add(key)
        return cls(frozenset(canonical))

    def enabled(self) -> tuple[str, ...]:
        return tuple(a for a in AXIOMS if a in self.names)


def axiom_allowed(axiom: str, q: int):
    """The nonzero counts one per-subspace axiom allows, from ``AXIOMS``."""
    d, allowed = AXIOMS.get(axiom, (None, None))
    if d is None:
        raise ValueError(f"axiom {axiom!r} has no per-subspace count rule")
    return allowed(q)


def count_rules(cfg: AxiomConfig, q: int) -> dict:
    """The enabled per-subspace count rules by dimension, {d: {axiom: rule}},
    in increasing d and in report order; (Pt) is d = 0."""
    rules: dict = {}
    for a in cfg.enabled():
        d, allowed = AXIOMS[a]
        if d is not None:
            rules.setdefault(d, {})[a] = allowed(q)
    return dict(sorted(rules.items()))


def rejected(rules: dict, top: int) -> frozenset:
    """The counts 1..top that some rule of ``rules`` rejects."""
    counts = frozenset(range(1, top + 1))
    return frozenset().union(*(counts.difference(r) for r in rules.values()))


class AuditReport(NamedTuple):
    n: int
    q: int
    num_lines: int
    num_points: int
    span_dim: int
    axioms: tuple[str, ...]
    verdicts: dict
    witnesses: dict
    histograms: dict

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
            "dedup_scheme": DEDUP_SCHEME,
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


# -- count sources --
# A count source is called as ``source(d, bad)`` and returns three things:
# the histogram {|L_U|: number of U} over the d-subspaces U meeting L;
# (P1, handle, |L_U|) for at least every U whose count is in ``bad``, P1
# being the first pivot of U's canonical basis; and the function that
# turns a handle into that basis.

# How the last annihilator row is completed for a prefix of p lines and a
# row of F hyperplanes: p < CROWDED_LINES marks the hyperplanes seen once
# and twice; otherwise the map runs when LINEWISE_RATIO * p >= F, else the
# bit-sliced counters.  Per-row costs in process (2-core VM), marking
# against the counters: 13 against 18 us at p = 21 and 37 against 25 us at
# p = 25 on H(4) d = 3, 50 against 52 us at p = 31 and 89 against 56 us at
# p = 36 on H(5) d = 3.  The map against the counters on H(4) d = 4: 109
# against 126 us at F/p 2-3, 76 against 53 us at 3-4, 419 against 121 us
# at 8-16.
CROWDED_LINES = 24
LINEWISE_RATIO = 3

# When a shape of k >= 3 rows completes its last two rows together over
# their product grid: the rows above them have at least GRID_MIN_PREFIXES
# choices in all, which reuse each product mask, and the grid has at most
# GRID_MAX_CELLS cells, which keeps its counters short ints.  Per shape in
# process (2-core VM), marking against the grid, by choice counts:
# [81, 81, 81] 10.2 against 3.6 ms, [27, 81, 81] 5.3 against 2.4 ms,
# [27, 27, 27] 1.0 against 1.0 ms, but [9, 81, 81] 1.1 against 1.7 ms
# on H(3) d = 3; [64, 64, 64] 8.0 against 7.5 ms on H(4) d = 3; on H(5)
# d = 3, [125, 125, 125] (15 625 cells) 39 against 45 ms and [25, 25, 25]
# 1.5 against 7.8 ms.
GRID_MIN_PREFIXES = 27
GRID_MAX_CELLS = 1 << 13

# B is H transposed when |L| times M, the hyperplane count, is at most this,
# and walked above it; the transposition's strings hold twice this in bytes.
# The transposition costs about 4 ns per cell, the walk mostly a step per
# hyperplane, dearer as q grows, so the crossover rises with q.  In process
# (2-core VM, Python 3.11.7, best of 3-7), transposed against walked, by
# |L| x M: PG(6, 3) 0.66M 2.2 against 2.4 ms, 2.2M 7.5 against 5.1 ms;
# PG(10, 2) 1.0M 3.9 against 4.0 ms, 2.0M 7.5 against 5.0 ms; PG(6, 4)
# 1.9M 6.8 against 9.5 ms, 3.0M 10.5 against 10.5 ms, H(4)'s 7.5M 27.5
# against 13.7 ms; PG(6, 5) 7.8M 30 against 39 ms, 19.5M 90 against 48 ms.
# Small sets gain most: the 30 sets of the ``candidate-sets`` benchmark
# (|L| x M <= 8 001) take 0.74 ms for B transposed against 4.1 ms walked
# (in process, best of 30).
TRANSPOSE_CELLS = 1 << 21


def _step(part, col, f, gf) -> list[int]:
    """The partial-sum masks after adding f times one coordinate, whose
    slices are ``col``: ``part[s]`` holds the vectors whose sum so far is s."""
    if not f:
        return part
    add, mf, new = gf.add_table, gf.mul_table[f], [0] * gf.q
    for s, m in enumerate(part):
        if m:
            row = add[s]
            for a, vs in enumerate(col):
                new[row[mf[a]]] |= m & vs
    return new


def _orthogonal_walk(sl, forms, gf):
    """Yield, for each of the sorted distinct ``forms`` in order, the
    bitmask of the vectors v with form . v == 0, the vectors being those of
    the slices ``sl``.  A form shares the partial sums of its common prefix
    with the form before it, and of the last coordinate's sums only 0 is
    made."""
    w, q = len(sl), gf.q
    mul, neg, inv = gf.mul_table, gf.neg_table, gf.inv_table
    # zero[f][s]: the a with s + f * a == 0
    zero = [None] + [[mul[neg[s]][inv[f]] for s in range(q)] for f in range(1, q)]
    last = sl[-1]
    parts = [[sum(sl[0])] + [0] * (q - 1)]  # one coordinate's slices hold all
    prev = (None,) * w
    for form in forms:
        k = w - 1
        while prev[:k] != form[:k]:
            k -= 1
        del parts[k + 1:]
        for j in range(k, w - 1):
            parts.append(_step(parts[j], sl[j], form[j], gf))
        part, f = parts[-1], form[-1]
        if f:
            r = 0
            for m, a in zip(part, zero[f]):
                if m:
                    r |= m & last[a]
            yield r
        else:
            yield part[0]
        prev = form


def _sliced_counts(acc: int, line_hyps, family: int) -> list[int]:
    """Bit-sliced counters over the hyperplanes of ``family``: bit h of
    ``sl[i]`` is bit i of the number of lines of ``acc`` in hyperplane h.
    Each line adds ``line_hyps[l] & family`` with a ripple carry."""
    sl: list[int] = []
    while acc:
        top = acc.bit_length() - 1
        carry = line_hyps[top] & family
        acc ^= 1 << top
        for i, s in enumerate(sl):
            sl[i] = s ^ carry
            carry &= s
            if not carry:
                break
        else:
            if carry:
                sl.append(carry)
    return sl


def _value_masks(sl: list[int], family: int):
    """(c, mask of the hyperplanes of ``family`` whose counters read c) for
    every count c >= 2 that occurs, split slice by slice from the top."""
    stack = [(len(sl) - 1, family, 0)] if len(sl) > 1 else []
    while stack:
        i, m, c = stack.pop()
        if i < 0:
            yield c, m
        elif i or c:  # with c == 0 at slice 0 only counts 0 and 1 are left
            hi = m & sl[i]
            if hi:
                stack.append((i - 1, hi, c | 1 << i))
            lo = m ^ hi
            if lo:
                stack.append((i - 1, lo, c))


def _hyperplane_basis(h, gf) -> tuple[tuple[int, ...], ...]:
    """The canonical basis of the hyperplane h . x = 0, without elimination:
    with e the last nonzero coordinate of h, its rows are
    e_j - (h_j / h_e) e_e for j != e, in order of j."""
    e = len(h) - 1
    while not h[e]:
        e -= 1
    a = gf.mul_table[gf.neg_table[gf.inv_table[h[e]]]]
    rows = []
    for j, x in enumerate(h):
        if j != e:
            row = [0] * len(h)
            row[j], row[e] = 1, a[x]
            rows.append(tuple(row))
    return tuple(rows)


def _runs(hyps) -> list[tuple[int, int, int]]:
    """(start, mask, position) for each run of consecutive indices in the
    ascending ``hyps``: bits start.. of a mask over all indices, cut by
    ``mask``, are the bits position.. of its compaction onto ``hyps``."""
    runs = []
    for pos, h in enumerate(hyps):
        if runs and runs[-1][0] + runs[-1][1] == h:
            runs[-1][1] += 1
        else:
            runs.append([h, 1, pos])
    return [(start, (1 << n) - 1, pos) for start, n, pos in runs]


class _ProductMasks(dict):
    """P[l] for each line l, built on first use, over the grid of the
    choices of two annihilator rows: bit i1 * F2 + i2 is set when l lies in
    hyperplanes ``first[i1]`` and ``second[i2]``, F2 being ``len(second)``.
    ``cells`` is the whole grid and ``cell(t)`` bit t's two hyperplanes."""

    def __init__(self, line_hyps, first: tuple, second: tuple):
        super().__init__()
        self.line_hyps, self.first, self.second = line_hyps, first, second
        self.runs = _runs(first), _runs(second)
        self.cells = (1 << len(first) * len(second)) - 1

    def cell(self, t: int) -> tuple[int, int]:
        i1, i2 = divmod(t, len(self.second))
        return self.first[i1], self.second[i2]

    def __missing__(self, l: int) -> int:
        h, f2 = self.line_hyps[l], len(self.second)
        runs1, runs2 = self.runs
        d1 = d2 = 0
        for s, m, p in runs1:
            d1 |= (h >> s & m) << p
        for s, m, p in runs2:
            d2 |= (h >> s & m) << p
        grid = 0
        while d1:
            t = d1.bit_length() - 1
            grid |= d2 << t * f2
            d1 ^= 1 << t
        self[l] = grid
        return grid


class _DualCounts:
    """The dual-hyperplane bitset kernel (see the module docstring)."""

    def __init__(self, ls: LineSet):
        self.ls = ls
        self._choices: dict = {}

    @cached_property
    def masks(self) -> list[int]:
        """B[h], the bitmask of the lines inside hyperplane h.

        Up to ``TRANSPOSE_CELLS`` lines times hyperplanes, B is H transposed:
        each H[l] as M binary digits, last line first, so that every M-th
        digit from digit M-1-h reads bit h of each H[l], line 0 last.  Above
        it the hyperplanes are walked in point order, over slices whose bits
        0..|L|-1 are the x rows of the lines and the bits above the y rows:
        one orthogonal set r gives B[h] = r & (r >> |L|).
        """
        space, lines = self.ls.space, self.ls.lines
        nl, m = len(lines), len(space.points)
        if self.transposes:
            spec = f"0{m}b"
            data = "".join([format(h, spec) for h in reversed(self.line_hyperplanes)])
            return [int(data[i::m], 2) for i in range(m - 1, -1, -1)]
        rows = itertools.chain((x for x, _ in lines), (y for _, y in lines))
        sl = bit_slices(rows, space.width, space.q)
        # r >> nl has only the low nl bits
        return [r & (r >> nl) for r in _orthogonal_walk(sl, space.points, space.gf)]

    @property
    def transposes(self) -> bool:
        """Whether ``masks`` reads B from H's transpose: |L| times the
        hyperplane count is at most ``TRANSPOSE_CELLS``."""
        return len(self.ls.lines) * len(self.ls.space.points) <= TRANSPOSE_CELLS

    @cached_property
    def identity(self) -> tuple:
        """The unit vectors e_0 .. e_n, the whole space's canonical basis."""
        w = self.ls.space.width
        return tuple(tuple(int(i == j) for j in range(w)) for i in range(w))

    @cached_property
    def line_hyperplanes(self) -> list[int]:
        """H[l], the bitmask of the hyperplanes containing line l: the AND
        of the hyperplanes orthogonal to its two rows, walked over the set's
        sorted distinct rows and the space's point slices."""
        space, lines = self.ls.space, self.ls.lines
        rows = sorted({p for key in lines for p in key})
        through = dict(zip(rows, _orthogonal_walk(space.point_slices, rows, space.gf)))
        return [through[x] & through[y] for x, y in lines]

    def _row_choices(self, pivot: int, free: tuple[int, ...]):
        """The RREF rows h with this pivot and these free columns and B[h] != 0:
        a tuple, their masks as a parallel tuple, and a bitmask over h."""
        memo = self._choices.get((pivot, free))
        if memo is None:
            masks = self.masks
            rows = self.ls.space.rref_row_indices(pivot, free)
            hyps = tuple(itertools.compress(rows, map(masks.__getitem__, rows)))
            memo = self._choices[(pivot, free)] = (
                hyps, tuple(map(masks.__getitem__, hyps)), sum(1 << h for h in hyps)
            )
        return memo

    def _meeting_planes(self) -> dict:
        """{H[l] & H[m]: [pairs, l, m, pairs holding l]} over the pairs of
        lines (l, m) through each point: the hyperplanes through the plane
        the pair spans, the number of pairs that span it, the first such
        pair, and how many of them hold that pair's l."""
        line_hyps = self.line_hyperplanes
        planes: dict = {}
        for ids in self.ls.point_lines.values():
            for i, l in enumerate(ids):
                hl = line_hyps[l]
                for m in ids[i + 1:]:
                    key = hl & line_hyps[m]
                    entry = planes.get(key)
                    if entry is None:
                        entry = planes[key] = [0, l, m, 0]
                    entry[0] += 1
                    if entry[1] == l or entry[1] == m:
                        entry[3] += 1
        return planes

    def _planes(self, bad: frozenset):
        """Counts >= 2 at d = 2 and the flagged planes, handled by a pair of
        their lines, from ``_meeting_planes``: two lines of a plane meet, so
        a plane of c >= 2 lines is spanned by C(c, 2) pairs, each at its
        common point, and each of its lines is in c - 1 of them.  A pair
        lost, or counted under another plane's key, breaks that."""
        lines = self.ls.lines
        tally: Counter = Counter()
        flagged = []
        for pairs, l, m, at_l in self._meeting_planes().values():
            c = at_l + 1
            if c * (c - 1) // 2 != pairs:
                raise InternalConsistencyError(
                    f"d = 2: a plane of {c} lines is spanned by {pairs} meeting pairs"
                )
            tally[c] += 1
            if c in bad:
                flagged.append((min(lines[l][0].index(1), lines[m][0].index(1)), (l, m), c))
        rref = self.ls.space.rref
        return tally, flagged, lambda lm: rref(lines[lm[0]] + lines[lm[1]])

    def _walk(self, k: int, bad: frozenset):
        """Counts >= 2 over the subspaces cut out by k >= 1 annihilator
        rows, and the flagged ones, handled by their rows' point indices."""
        space = self.ls.space
        nlines = len(self.ls.lines)
        tally: Counter = Counter()
        flagged = []
        masks = self.masks

        def mapped(acc, hyps, ms, rows):
            """Complete the prefix by every row of ``hyps``, AND and popcount
            in C."""
            cs = list(map(int.bit_count, map(acc.__and__, ms)))
            tally.update(filter((1).__lt__, cs))
            if bad and not bad.isdisjoint(cs):
                flagged.extend(
                    (rows + (h,), c) for h, c in zip(hyps, cs) if c in bad
                )

        if k == 1:
            # Each hyperplane is its own annihilator.
            mapped((1 << nlines) - 1, range(len(masks)), masks, ())
        else:
            line_hyps = self.line_hyperplanes

            def tallied(sl, family, rows, cell):
                """Tally the counters' values >= 2 over ``family`` and flag
                the bits of rejected counts, bit t as the rows ``cell(t)``."""
                for c, m in _value_masks(sl, family):
                    tally[c] += m.bit_count()
                    if c in bad:
                        while m:
                            t = m.bit_length() - 1
                            flagged.append((rows + cell(t), c))
                            m ^= 1 << t

            def walk(depth, acc, rows):
                if depth < k - 2:
                    hyps, ms, _ = levels[depth]
                    for h, m in zip(hyps, ms):
                        a = acc & m
                        if a & (a - 1):
                            walk(depth + 1, a, rows + (h,))
                    return
                # Every shape completes its prefix of k - 2 rows here.
                if products is not None:
                    # The last two rows at once, over their whole grid.
                    cells = products.cells
                    tallied(_sliced_counts(acc, products, cells), cells, rows, products.cell)
                    return
                # The row above the last completes each of its prefixes.
                hyps, ms, _ = levels[depth]
                last, last_ms, family = levels[-1]
                for h, m in zip(hyps, ms):
                    a = acc & m
                    if not a & (a - 1):
                        continue
                    if a.bit_count() >= CROWDED_LINES:
                        if LINEWISE_RATIO * a.bit_count() >= len(last):
                            mapped(a, last, last_ms, rows + (h,))
                        else:
                            sl = _sliced_counts(a, line_hyps, family)
                            tallied(sl, family, rows + (h,), lambda t: (t,))
                        continue
                    seen = twice = 0
                    x = a
                    while x:
                        top = x.bit_length() - 1
                        hs = line_hyps[top] & family
                        twice |= seen & hs
                        seen |= hs
                        x ^= 1 << top
                    # Only the hyperplanes marked twice hold two or more lines.
                    while twice:
                        t = twice.bit_length() - 1
                        c = (a & masks[t]).bit_count()
                        tally[c] += 1
                        if c in bad:
                            flagged.append((rows + (h, t), c))
                        twice ^= 1 << t

            for shape in space.rref_shapes(k):
                levels = [self._row_choices(p, free) for p, free in shape]
                # Rows are independent: put the longest choice lists last,
                # the rows that are completed for all their choices at once.
                levels.sort(key=lambda lv: len(lv[0]))
                first, second = levels[-2][0], levels[-1][0]
                grid = (
                    k >= 3
                    and math.prod(len(lv[0]) for lv in levels[:-2]) >= GRID_MIN_PREFIXES
                    and len(first) * len(second) <= GRID_MAX_CELLS
                )
                products = _ProductMasks(line_hyps, first, second) if grid else None
                walk(0, (1 << nlines) - 1, ())
        points = space.points
        units = list(map(space.point_index.__getitem__, self.identity))

        def first_pivot(hyps):
            """How many of e_0, e_1, ... in turn are rows: U's first pivot."""
            p1 = 0
            while units[p1] in hyps:
                p1 += 1
            return p1

        return (
            tally,
            [(first_pivot(hyps), hyps, c) for hyps, c in flagged],
            (lambda hyps: _hyperplane_basis(points[hyps[0]], space.gf)) if k == 1
            else (lambda hyps: space.nullspace([points[h] for h in hyps])),
        )

    def __call__(self, d: int, bad: frozenset):
        space = self.ls.space
        k = space.n - d
        nlines = len(self.ls.lines)
        if k == 0:
            whole = [(0, (), nlines)] if nlines in bad else []
            return {nlines: 1}, whole, lambda _: self.identity
        if 1 in bad:
            raise InternalConsistencyError(f"an axiom at d = {d} rejects count 1")
        tally, flagged, basis = self._planes(bad) if d == 2 else self._walk(k, bad)
        # Every line lies in [n-1, d-1]_q d-subspaces, so the incidences
        # (line, U) number nlines times that; the rest have |L_U| = 1.
        ones = nlines * gaussian_binomial(space.n - 1, d - 1, space.q) - sum(
            c * m for c, m in tally.items()
        )
        if ones < 0:
            raise InternalConsistencyError(
                f"d = {d}: the subspaces with two or more lines hold more"
                f" line incidences than the {nlines} lines have"
            )
        if ones:
            tally[1] = ones
        return dict(tally), flagged, basis


def _naive_counts(ls: LineSet, d: int) -> dict:
    """The same map by testing every d-subspace of the space."""
    counts = {}
    for rows in ls.space.enumerate_subspaces(d):
        c = len(ls.lines_in(rows))
        if c:
            counts[rows] = c
    return counts


def _dict_source(ls: LineSet, counts_of):
    """A count source over a full ``counts_of(ls, d)`` map per dimension."""

    def source(d: int, bad: frozenset):
        counts = counts_of(ls, d)
        flagged = [(rows[0].index(1), rows, c) for rows, c in counts.items() if c in bad]
        return dict(Counter(counts.values())), flagged, lambda rows: rows

    return source


def default_threads() -> int:
    """The audit runs in one process, so this is always 1."""
    return 1


def _check_pair_counts(ls: LineSet, d: int, hist: dict, meeting: int) -> None:
    """Raise unless the histogram at d >= 2 agrees with the lines: each line
    lies in [n-1, d-1]_q d-subspaces, and each pair of lines spans a plane,
    in [n-2, d-2]_q of them, if it is one of the ``meeting`` pairs, else a
    solid, in [n-3, d-3]_q."""
    n, q, nl = ls.n, ls.q, len(ls.lines)
    if sum(c * m for c, m in hist.items()) != nl * gaussian_binomial(n - 1, d - 1, q):
        raise InternalConsistencyError(f"d = {d}: histogram fails the line-incidence identity")
    pairs = meeting * gaussian_binomial(n - 2, d - 2, q) + (
        nl * (nl - 1) // 2 - meeting
    ) * gaussian_binomial(n - 3, d - 3, q)
    if sum(c * (c - 1) // 2 * m for c, m in hist.items()) != pairs:
        raise InternalConsistencyError(f"d = {d}: histogram fails the line-pair identity")


def _witness(d: int, top: int, handles: list, basis, bases: dict):
    """The byte-minimal basis of the subspaces ``handles``, all of first
    pivot ``top``, each basis made once into ``bases``."""
    for h in handles:
        if h not in bases:
            bases[h] = basis(h)
    w = min(map(bases.__getitem__, handles))
    if w[0].index(1) != top:
        raise InternalConsistencyError(f"d = {d}: a witness's first pivot is not {top}")
    return w


def _audit(ls: LineSet, cfg: AxiomConfig, source) -> AuditReport:
    """Audit the enabled axioms, taking the counts at d = 0, the lines
    through each point, from ``LineSet.point_lines`` and those at d >= 2
    from ``source``, checked by ``_check_pair_counts``.  Each axiom's
    witness is sought among its hits of the largest first pivot only: a
    larger first pivot always gives a byte-smaller basis."""
    if not ls.lines:
        raise ValueError("cannot audit an empty line set")
    q, nlines = ls.q, len(ls.lines)
    rules = count_rules(cfg, q)
    points, bad = ls.space.points, rejected(rules.get(0, {}), nlines)
    degrees: Counter = Counter()
    flagged_points = []
    for pi, ids in ls.point_lines.items():
        degrees[len(ids)] += 1
        if len(ids) in bad:
            flagged_points.append((points[pi].index(1), pi, len(ids)))
    # Two lines share one point at most, so the pairs that meet are counted
    # once, at their common point.
    meeting = sum(c * (c - 1) // 2 * m for c, m in degrees.items())
    verdicts, witnesses, histograms = {}, {}, {}
    for d, rs in rules.items():
        flagged = []  # with d > n there are no d-subspaces: every rule holds
        if d == 0:
            histograms[0], flagged = dict(degrees), flagged_points
            basis = lambda pi: (points[pi],)
        elif d <= ls.n:
            hist, flagged, basis = source(d, rejected(rs, nlines))
            _check_pair_counts(ls, d, hist, meeting)
            histograms[d] = hist
        bases: dict = {}  # shared by the axioms at d, as (Sd) and (Sd') share solids
        for a, allowed in rs.items():
            top = max((p1 for p1, _, c in flagged if c not in allowed), default=None)
            verdicts[a] = top is None
            witnesses[a] = None if top is None else _witness(
                d, top, [h for p1, h, c in flagged if p1 == top and c not in allowed],
                basis, bases,
            )
    span = ls.span_dim()
    for a in cfg.enabled():
        d, holds = AXIOMS[a]
        if d is None:
            verdicts[a], witnesses[a] = holds(q, nlines, span), None
    return AuditReport(
        n=ls.n,
        q=q,
        num_lines=nlines,
        num_points=len(ls.point_lines),
        span_dim=span,
        axioms=cfg.enabled(),
        verdicts=verdicts,
        witnesses=witnesses,
        histograms=histograms,
    )


def audit(ls: LineSet, cfg: AxiomConfig) -> AuditReport:
    """Audit the enabled axioms; verdicts, witnesses and count histograms.

    Counts at d >= 2 come from the dual-hyperplane kernel; the (To)
    and (6d) verdicts come from the totals.
    """
    return _audit(ls, cfg, _DualCounts(ls))


def naive_audit(ls: LineSet, cfg: AxiomConfig) -> AuditReport:
    """Oracle audit by full subspace enumeration; must match `audit` exactly."""
    return _audit(ls, cfg, _dict_source(ls, _naive_counts))
