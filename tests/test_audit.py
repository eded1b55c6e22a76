import hashlib
import itertools
import json
import random
from collections import Counter
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import hexaudit.audit as audit_module
from hexaudit.audit import (
    _ALIASES,
    AXIOMS,
    AxiomConfig,
    _audit,
    _dict_source,
    _DualCounts,
    _naive_counts,
    _sliced_counts,
    _value_masks,
    audit,
    axiom_allowed,
    count_rules,
    naive_audit,
    rejected,
)
from hexaudit.errors import InternalConsistencyError
from hexaudit.formats import dump_lineset, dumps_report, report_document
from hexaudit.hexagon import build
from hexaudit.lineset import LineSet
from hexaudit.pg import PG, bit_slices, gaussian_binomial, projective_space
from hexaudit.polygon import girth_and_diameter
from hexaudit.quadric import parabolic_quadric
from conftest import build_cached
from lemmas import MAIN_THEOREM, expansion_bound, hyperplane_consequence_check
from referees import PluckerCoords, closure_counts, contains, orthogonal, whole_space

# Benchmark goldens and inputs, read only: PGLS digests and report documents.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDENS = PERFBENCH / "goldens.json"

# SHA-256 of dumps_report(audit(H(4) projected into PG(5, 4), all
# axioms).to_dict()), recorded with the kernel that gives H4_REPORT_SHA256.
H4_PROJ5_REPORT_SHA256 = "0442d5f4faa0af595aa6a0f8dd3d3a0cf1911546da0b51cc477113f4badb4543"

# SHA-256 of dumps_report(audit(H(4), all axioms).to_dict()), recorded with
# the kernel that enumerated every subspace, before counts were derived.
H4_REPORT_SHA256 = "f5cf06486c4557f26a4ba6fc924ca7c1d03c2a963bb849a3d2fdcdc45e3e8c82"

# Module constants that send every last row of the kernel down one path:
# marking seen and twice ("line-wise"), the map, or the sliced counters,
# each with the product grid off; or, with k >= 3 rows, the last two rows
# over their product grid ("grid").
GRID_OFF = {"GRID_MIN_PREFIXES": 10**9}
ONE_PATH_CONSTANTS = {
    "line-wise": {**GRID_OFF, "CROWDED_LINES": 10**9},
    "map": {**GRID_OFF, "CROWDED_LINES": 0, "LINEWISE_RATIO": 10**9},
    "sliced": {**GRID_OFF, "CROWDED_LINES": 0, "LINEWISE_RATIO": 0},
    "grid": {"GRID_MIN_PREFIXES": 0, "GRID_MAX_CELLS": 10**9},
}
ONE_PATH = pytest.mark.parametrize(
    "constants", list(ONE_PATH_CONSTANTS.values()), ids=list(ONE_PATH_CONSTANTS)
)


def unit(space, i):
    return tuple(1 if j == i else 0 for j in range(space.width))


class TestAxiomConfig:
    def test_from_names_and_aliases(self):
        cfg = AxiomConfig.from_names(["Pt", "sd'", "HPPRIME"])
        assert cfg.enabled() == ("Pt", "Sd'", "Hp'")
        assert AxiomConfig.from_names(["sdp"]).enabled() == ("Sd'",)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            AxiomConfig.from_names(["Qt"])
        with pytest.raises(ValueError, match="unknown axiom name"):
            AxiomConfig(frozenset({"pt"}))

    @pytest.mark.parametrize(
        "names, item",
        [([1], "1"), (["Pt", None], "None"), ("Pt", "'Pt'")],
        ids=["int", "none", "bare-string"],
    )
    def test_non_string_names_rejected(self, names, item):
        with pytest.raises(ValueError, match="list of strings") as exc:
            AxiomConfig.from_names(names)
        assert item in str(exc.value)

    def test_every_alias_resolves(self):
        for alias, name in _ALIASES.items():
            assert AxiomConfig.from_names([alias]).names == {name}
            assert AxiomConfig.from_names([alias.upper()]).enabled() == (name,)
        assert set(_ALIASES.values()) == set(AXIOMS)

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            AxiomConfig()

    def test_empty_config_message(self):
        with pytest.raises(ValueError, match="^at least one axiom flag must be set$"):
            AxiomConfig()

    def test_replace_and_make_run_the_checks(self):
        with pytest.raises(ValueError, match="^at least one axiom flag must be set$"):
            AxiomConfig.all()._replace(names=frozenset())
        with pytest.raises(ValueError, match="^unknown axiom name: 'Qt'$"):
            AxiomConfig._make((frozenset({"Qt"}),))
        cfg = AxiomConfig.all()._replace(names=frozenset({"Pt", "To"}))
        assert cfg == AxiomConfig.from_names(["To", "Pt"]) and type(cfg) is AxiomConfig

    def test_value_semantics(self):
        """Equal configs compare and hash equal, so they work as dict keys."""
        a, b = AxiomConfig.from_names(["Pl", "pt"]), AxiomConfig(frozenset({"Pt", "Pl"}))
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != AxiomConfig.all() and a != a.names
        assert repr(a) == f"AxiomConfig(names={a.names!r})"

    def test_presets(self):
        assert AxiomConfig.all().enabled() == (
            "Pt", "Pl", "Sd", "Sd'", "4d", "Hp", "Hp'", "To", "6d",
        )
        assert MAIN_THEOREM.enabled() == (
            "Pt", "Pl", "Sd", "4d", "Hp", "Hp'", "To",
        )


class TestAllowedCounts:
    @pytest.mark.parametrize(
        "q, four_d, hp, hp_prime, total",
        [(2, 12, 26, 24, 63), (3, 30, 63, 87, 364), (4, 64, 124, 248, 1365),
         (5, 120, 215, 585, 3906)],
        ids=["2", "3", "4", "5"],
    )
    def test_sets_and_bounds(self, q, four_d, hp, hp_prime, total):
        """q**3 - q**2 + 4q, q**3 + 3q**2 + 3q, q**4 - q**3 + 3q**2 + 2q and
        (q**6 - 1) / (q - 1), evaluated by hand."""
        assert axiom_allowed("Pt", q) == {q + 1}
        assert axiom_allowed("Pl", q) == {1, q + 1}
        assert axiom_allowed("Sd", q) == {1, q + 1, 2 * q + 1}
        assert axiom_allowed("Sd'", q) == range(1, 2 * q + 2)
        assert axiom_allowed("4d", q) == range(1, four_d + 1)
        assert axiom_allowed("Hp", q) == range(1, hp + 1)
        assert axiom_allowed("Hp'", q) == range(1, hp_prime + 1)
        with pytest.raises(ValueError):
            axiom_allowed("To", q)
        _, to = AXIOMS["To"]
        assert to(q, total, 6) and not to(q, total + 1, 6)
        _, six_d = AXIOMS["6d"]
        assert six_d(q, total, 6) and six_d(q, total, 5) == (q > 3)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_every_subspace_rule_admits_one(self, q):
        """The dual kernel derives count 1 and never flags it."""
        for axiom, (d, allowed) in AXIOMS.items():
            if d is not None and d >= 2:
                assert 1 in allowed(q), axiom


    def test_count_rules_by_dimension(self):
        q = 2
        assert count_rules(AxiomConfig.all(), q) == {
            0: {"Pt": {3}},
            2: {"Pl": {1, 3}},
            3: {"Sd": {1, 3, 5}, "Sd'": range(1, 6)},
            4: {"4d": range(1, 13)},
            5: {"Hp": range(1, 27), "Hp'": range(1, 25)},
        }
        assert count_rules(AxiomConfig.from_names(["Pt", "To", "6d"]), q) == {0: {"Pt": {3}}}
        rules = count_rules(AxiomConfig.from_names(["Sd", "Sd'"]), q)[3]
        assert rejected(rules, 7) == {2, 4, 6, 7}


class TestCountIn:
    def test_whole_space(self, h2):
        assert len(h2.lines_in(whole_space(h2.space))) == 63

    def test_pencil_plane(self, h2):
        space = h2.space
        pi = next(iter(h2.point_lines))
        rows = [r for li in h2.point_lines[pi] for r in h2.lines[li]]
        assert len(space.rref(rows)) == 3
        assert len(h2.lines_in(rows)) == 3

    def test_empty_subspace(self, h2):
        assert len(h2.lines_in(())) == 0

    def test_ambient_mismatch(self, h2):
        with pytest.raises(ValueError, match="row width"):
            h2.lines_in(whole_space(projective_space(5, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 4), (4, 2), (4, 3)]),
        pairs=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=14,
        ),
        rows=st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), max_size=6),
    )
    def test_any_basis_equals_its_rref(self, space_key, pairs, rows):
        """Unnormalized, unreduced, repeated or zero rows: the ids of their
        RREF."""
        space = projective_space(*space_key)
        rows = [[x % space.q for x in r[:space.width]] for r in rows]
        ls = lineset_from_pairs(space_key, pairs)
        assert ls.lines_in(rows) == ls.lines_in(space.rref(rows))

    @settings(max_examples=40, deadline=None)
    @given(
        space_key=st.sampled_from([(4, 2), (4, 3), (5, 2)]),
        pairs=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=14,
        ),
        spanning=st.lists(st.integers(0, 10**6), max_size=5),
    )
    def test_matches_definition_by_points(self, space_key, pairs, spanning):
        """The lines inside u are those whose points all lie among u's."""
        space = projective_space(*space_key)
        pts = space.points
        keys = {
            space.rref((pts[a % len(pts)], pts[b % len(pts)]))
            for a, b in pairs
            if a % len(pts) != b % len(pts)
        }
        ls = LineSet(space, keys)
        u = space.rref([pts[i % len(pts)] for i in spanning])
        inside = {space.point_index[p] for p in space.subspace_points(u)}
        expected = {
            li for li, lpts in enumerate(ls.line_points) if set(lpts) <= inside
        }
        assert ls.lines_in(u) == expected


# Frozen count histograms for the full H(2) audit, keyed by subspace
# dimension (0 = points).  First derived by running the auditor, then
# cross-checked below against the naive full-enumeration oracle for the
# cheap dimensions.
H2_HISTOGRAMS = {
    0: {3: 63},
    2: {1: 1764, 3: 63},
    3: {1: 6111, 3: 903, 5: 189},
    4: {1: 378, 3: 1596, 5: 378, 7: 63, 9: 252},
    5: {9: 28, 15: 63, 21: 36},
}


class TestHexagonAudit:
    def test_h2_full_pass(self, h2):
        rep = audit(h2, AxiomConfig.all())
        assert rep.passed
        assert rep.num_lines == rep.num_points == 63
        assert rep.span_dim == 6
        assert all(w is None for w in rep.witnesses.values())
        assert rep.histograms == H2_HISTOGRAMS

    def test_h2_histograms_cover_all_incident_subspaces(self, h2):
        rep = audit(h2, AxiomConfig.all())
        # Every 4-space and every hyperplane of PG(6,2) meets H(2).
        assert sum(rep.histograms[4].values()) == 2667
        assert sum(rep.histograms[5].values()) == 127

    def test_h2_naive_crosscheck_cheap_dims(self, h2):
        cfg = AxiomConfig.from_names(["4d", "Hp", "Hp'"])
        fast = audit(h2, cfg)
        slow = naive_audit(h2, cfg)
        assert fast.histograms == slow.histograms
        assert fast.verdicts == slow.verdicts

    def test_determinism(self, h2):
        cfg = AxiomConfig.all()
        assert audit(h2, cfg).to_dict() == audit(h2, cfg).to_dict()


class TestViolations:
    def test_two_concurrent_lines_fail_pt(self):
        space = projective_space(3, 2)
        e = [unit(space, i) for i in range(4)]
        ls = LineSet(space, [(e[0], e[1]), (e[0], e[2])])
        rep = audit(ls, AxiomConfig.from_names(["Pt"]))
        assert not rep.passed
        assert rep.witnesses["Pt"] is not None

    def test_full_plane_fails_pl(self):
        """All 7 lines of a plane of PG(3,2): plane count 7 not in {1, 3}."""
        space = projective_space(3, 2)
        plane = space.rref([unit(space, 0), unit(space, 1), unit(space, 2)])
        pts = list(space.subspace_points(plane))
        lines = set()
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                lines.add(space.rref((a, b)))
        assert len(lines) == 7
        ls = LineSet(space, lines)
        rep = audit(ls, AxiomConfig.from_names(["Pl"]))
        assert not rep.passed
        witness = rep.witnesses["Pl"]
        assert witness is not None
        assert len(ls.lines_in(witness)) == 7

    def test_witness_is_canonically_minimal(self):
        space = projective_space(3, 2)
        plane = space.rref([unit(space, 0), unit(space, 1), unit(space, 2)])
        pts = list(space.subspace_points(plane))
        lines = {space.rref((pts[i], pts[j])) for i in range(7) for j in range(i + 1, 7)}
        ls = LineSet(space, lines)
        rep = naive_audit(ls, AxiomConfig.from_names(["Pl"]))
        assert audit(ls, AxiomConfig.from_names(["Pl"])).witnesses == rep.witnesses

    def test_vacuous_high_dimensions(self):
        space = projective_space(3, 2)
        e = [unit(space, i) for i in range(4)]
        ls = LineSet(space, [(e[0], e[1])])
        rep = audit(ls, AxiomConfig.from_names(["4d", "Hp", "Hp'"]))
        assert rep.passed
        assert rep.histograms == {}

    def test_empty_set_rejected(self):
        ls = LineSet(projective_space(3, 2), [])
        with pytest.raises(ValueError):
            audit(ls, AxiomConfig.from_names(["Pt"]))


def random_lineset(space, rng, max_lines=12):
    all_pts = space.points
    lines = set()
    for _ in range(rng.randrange(1, max_lines + 1)):
        a = all_pts[rng.randrange(len(all_pts))]
        b = all_pts[rng.randrange(len(all_pts))]
        if a == b:
            continue
        lines.add(space.rref((a, b)))
    if not lines:
        lines.add(space.rref((all_pts[0], all_pts[1])))
    return LineSet(space, lines)


class TestOracleEquivalence:
    def test_random_sets_pg42(self):
        space = projective_space(4, 2)
        rng = random.Random(20260823)
        cfg = AxiomConfig.all()
        for _ in range(10):
            ls = random_lineset(space, rng)
            fast = audit(ls, cfg)
            slow = naive_audit(ls, cfg)
            assert fast.histograms == slow.histograms
            assert fast.verdicts == slow.verdicts
            assert fast.witnesses == slow.witnesses


def closure_audit(ls, cfg):
    return _audit(ls, cfg, _dict_source(ls, closure_counts))


def lineset_from_pairs(space_key, pairs):
    """The lines joining each pair of point indices (mod the point count)."""
    space = projective_space(*space_key)
    pts = space.points
    keys = set()
    for a, b in pairs:
        a, b = a % len(pts), b % len(pts)
        if a != b:
            keys.add(space.rref((pts[a], pts[b])))
    if not keys:
        keys.add(space.rref((pts[0], pts[1])))
    return LineSet(space, keys)


@cache
def padded_h2():
    """H(2) zero-padded into PG(7, 2)."""
    return LineSet(
        projective_space(7, 2), [tuple(r + (0,) for r in key) for key in build_cached(2).lines]
    )


@cache
def padded_h2_closure(d):
    return closure_counts(padded_h2(), d)


def per_hyperplane_masks(ls):
    """Referee for ``_DualCounts.masks``: two ``orthogonal`` sums per
    hyperplane, over the x rows and over the y rows of the lines."""
    space, lines = ls.space, ls.lines
    xs = bit_slices((x for x, _ in lines), space.width, space.q)
    ys = bit_slices((y for _, y in lines), space.width, space.q)
    return [
        orthogonal(xs, h, space.gf) & orthogonal(ys, h, space.gf)
        for h in space.points
    ]


def per_row_line_hyperplanes(ls):
    """Referee for ``_DualCounts.line_hyperplanes``: the AND of two
    ``orthogonal`` sums over the point table, one per row of the line."""
    space = ls.space
    sl = bit_slices(space.points, space.width, space.q)
    return [orthogonal(sl, x, space.gf) & orthogonal(sl, y, space.gf) for x, y in ls.lines]


RANDOM_PAIRS = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=14
)


class TestDualKernel:
    """The dual-hyperplane kernel against the closure and naive referees,
    whole report dicts: histograms, verdicts and witnesses."""

    def test_masks_match_per_hyperplane_referee(self, h2, h3):
        for ls in (h2, h3, padded_h2()):
            kernel = _DualCounts(ls)
            assert kernel.transposes
            assert kernel.masks == per_hyperplane_masks(ls)

    @settings(max_examples=40, deadline=None)
    @given(space_key=st.sampled_from([(4, 2), (4, 3), (5, 2)]), pairs=RANDOM_PAIRS)
    def test_random_masks_match_per_hyperplane_referee(self, space_key, pairs):
        ls = lineset_from_pairs(space_key, pairs)
        kernel = _DualCounts(ls)
        assert kernel.transposes
        assert kernel.masks == per_hyperplane_masks(ls)

    def test_walked_masks_match_per_hyperplane_referee(self, h2, h3):
        with mock.patch.object(audit_module, "TRANSPOSE_CELLS", 0):
            for ls in (h2, h3, padded_h2()):
                kernel = _DualCounts(ls)
                assert not kernel.transposes
                assert kernel.masks == per_hyperplane_masks(ls)

    @settings(max_examples=40, deadline=None)
    @given(space_key=st.sampled_from([(4, 2), (4, 3), (5, 2)]), pairs=RANDOM_PAIRS)
    def test_random_walked_masks_match_per_hyperplane_referee(self, space_key, pairs):
        ls = lineset_from_pairs(space_key, pairs)
        with mock.patch.object(audit_module, "TRANSPOSE_CELLS", 0):
            kernel = _DualCounts(ls)
            assert not kernel.transposes
            assert kernel.masks == per_hyperplane_masks(ls)

    def test_h4_tables_match_referees_on_the_walk(self):
        ls = build_cached(4)
        kernel = _DualCounts(ls)
        assert not kernel.transposes
        assert kernel.line_hyperplanes == per_row_line_hyperplanes(ls)
        assert kernel.masks == per_hyperplane_masks(ls)

    def test_line_hyperplanes_match_per_row_referee(self, h2, h3):
        for ls in (h2, h3, padded_h2()):
            assert _DualCounts(ls).line_hyperplanes == per_row_line_hyperplanes(ls)

    @settings(max_examples=40, deadline=None)
    @given(space_key=st.sampled_from([(4, 2), (4, 3), (5, 2)]), pairs=RANDOM_PAIRS)
    def test_random_line_hyperplanes_match_per_row_referee(self, space_key, pairs):
        ls = lineset_from_pairs(space_key, pairs)
        assert _DualCounts(ls).line_hyperplanes == per_row_line_hyperplanes(ls)

    def test_h2_matches_naive(self, h2):
        cfg = AxiomConfig.all()
        assert audit(h2, cfg).to_dict() == naive_audit(h2, cfg).to_dict()

    @pytest.mark.parametrize("extra_line", [False, True])
    def test_h3_matches_closure_planes_and_hyperplanes(self, h3, extra_line):
        ls = h3
        if extra_line:
            # A line through a covered point outside the hexagon, so the
            # plane and hyperplane witnesses are non-trivial.
            space = h3.space
            key = next(
                space.rref((a, b))
                for a in (space.points[p] for p in h3.point_lines)
                for b in space.points
                if a != b and space.rref((a, b)) not in h3
            )
            ls = LineSet(space, h3.lines + (key,))
        cfg = AxiomConfig.from_names(["Pl", "Hp", "Hp'"])
        rep = audit(ls, cfg)
        assert rep.to_dict() == closure_audit(ls, cfg).to_dict()
        assert rep.passed != extra_line

    @ONE_PATH
    def test_h2_each_innermost_path_alone(self, h2, constants, monkeypatch):
        for name, value in constants.items():
            monkeypatch.setattr(audit_module, name, value)
        rep = audit(h2, AxiomConfig.all())
        assert rep.passed
        assert rep.histograms == H2_HISTOGRAMS

    def test_h3_report_matches_golden(self, h3):
        golden = json.loads(GOLDENS.read_text())["reports"]["h3"]
        rep = audit(h3, AxiomConfig.all())
        doc = report_document("audit", rep.to_dict(), source_text=dump_lineset(h3))
        doc.pop("version")
        assert doc == golden

    def test_h3_report_matches_golden_on_the_grid(self, h3, monkeypatch):
        """H(3) with every shape of three rows or more on the product grid."""
        for name, value in ONE_PATH_CONSTANTS["grid"].items():
            monkeypatch.setattr(audit_module, name, value)
        self.test_h3_report_matches_golden(h3)

    @pytest.mark.parametrize("n, q", [(4, 3), (6, 2)])
    def test_single_line_counts_come_from_the_identity(self, n, q):
        """One line lies in [n-1, d-1]_q d-subspaces, each holding only it."""
        space = projective_space(n, q)
        ls = LineSet(space, [(unit(space, 0), unit(space, 1))])
        rep = audit(ls, AxiomConfig.from_names(["Pl", "Sd", "4d", "Hp"]))
        assert rep.passed
        assert rep.histograms == {
            d: {1: gaussian_binomial(n - 1, d - 1, q)} for d in range(2, min(n, 5) + 1)
        }

    @settings(max_examples=25, deadline=None)
    @given(
        space_key=st.sampled_from([(4, 2), (4, 3), (5, 2)]),
        pairs=RANDOM_PAIRS,
    )
    def test_random_sets_match_closure_and_naive(self, space_key, pairs):
        self.check_random_set(space_key, pairs)

    # These sets and criterion 6's have at most 14 lines, fewer than
    # CROWDED_LINES, and at most two annihilator rows outside the planes'
    # own path: apart from d = n-1, which always takes the map, every last
    # row of theirs is marked unless the constants force another path, as
    # here; the grid, for k >= 3 rows only, never runs on them.
    @ONE_PATH
    @settings(max_examples=25, deadline=None)
    @given(
        space_key=st.sampled_from([(4, 2), (4, 3), (5, 2)]),
        pairs=RANDOM_PAIRS,
    )
    def test_random_sets_each_innermost_path_alone(self, constants, space_key, pairs):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in constants.items():
                mp.setattr(audit_module, name, value)
            self.check_random_set(space_key, pairs)

    # Random sets of PG(6, 2) have k = 3 annihilator rows at d = 3, and
    # H(2) zero-padded into PG(7, 2), with random lines added, k = 4 at
    # d = 3 and k = 3 at d = 4.
    @ONE_PATH
    @settings(max_examples=8, deadline=None)
    @given(
        padded=st.booleans(),
        pairs=RANDOM_PAIRS,
        names=st.sets(st.sampled_from(list(AXIOMS)), min_size=1),
    )
    def test_three_and_four_rows_match_closure(self, constants, padded, pairs, names):
        extra = lineset_from_pairs((7 if padded else 6, 2), pairs)
        if padded:
            h = padded_h2()
            added = LineSet(h.space, set(extra.lines) - set(h.lines))
            ls = LineSet(h.space, h.lines + added.lines)

            def counts_of(_, d):
                # The closure counts each line's subspaces, so they add.
                return padded_h2_closure(d) + closure_counts(added, d)
        else:
            ls, counts_of = extra, closure_counts
        cfg = AxiomConfig(frozenset(names))
        with pytest.MonkeyPatch.context() as mp:
            for name, value in constants.items():
                mp.setattr(audit_module, name, value)
            rep = audit(ls, cfg)
        assert rep.to_dict() == _audit(ls, cfg, _dict_source(ls, counts_of)).to_dict()

    @settings(max_examples=200, deadline=None)
    @given(
        line_hyps=st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=40),
        acc=st.integers(0, 2**40 - 1),
        family=st.integers(0, 2**40 - 1),
    )
    def test_sliced_counters_match_popcounts(self, line_hyps, acc, family):
        """Counter h reads |acc & B[h]| on the family and 0 off it, and
        ``_value_masks`` groups the family by every count >= 2."""
        acc &= (1 << len(line_hyps)) - 1
        masks = [
            sum(1 << li for li, hs in enumerate(line_hyps) if hs >> h & 1)
            for h in range(40)
        ]
        sl = _sliced_counts(acc, line_hyps, family)
        want = {}
        for h in range(40):
            c = (acc & masks[h]).bit_count() if family >> h & 1 else 0
            assert sum((s >> h & 1) << i for i, s in enumerate(sl)) == c
            if c > 1:
                want[c] = want.get(c, 0) | 1 << h
        assert dict(_value_masks(sl, family)) == want

    def test_overcounting_kernel_raises(self, h2, monkeypatch):
        """A negative count-1 entry is an internal error, not a histogram."""
        monkeypatch.setattr(audit_module, "gaussian_binomial", lambda n, k, q: 0)
        with pytest.raises(InternalConsistencyError, match="d = 2"):
            audit(h2, AxiomConfig.from_names(["Pl"]))

    @pytest.mark.parametrize(
        "corrupt",
        [
            # Lose one subspace of count c; its c lines become count-1 subspaces.
            lambda h, c: {**h, c: h[c] - 1, 1: h.get(1, 0) + c},
            # Count one subspace of count c as c+1, and one count-1 subspace less.
            lambda h, c: {**h, c: h[c] - 1, c + 1: h.get(c + 1, 0) + 1, 1: h[1] - 1},
        ],
        ids=["drop", "raise"],
    )
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pair_count_identity_catches_a_wrong_count(self, h2, corrupt, d):
        """A count source that keeps the line incidences but gets one
        subspace of two or more lines wrong breaks the pair identity."""
        kernel = _DualCounts(h2)

        def source(dim, bad):
            hist, *rest = kernel(dim, bad)
            if dim == d:
                wrong = corrupt(hist, min(c for c in hist if c >= 2))
                assert sum(c * m for c, m in wrong.items()) == sum(c * m for c, m in hist.items())
                hist = wrong
            return hist, *rest

        message = f"d = {d}: histogram fails the line-pair identity"
        with pytest.raises(InternalConsistencyError, match=message):
            _audit(h2, AxiomConfig.all(), source)

    @staticmethod
    def check_random_set(space_key, pairs):
        ls = lineset_from_pairs(space_key, pairs)
        cfg = AxiomConfig.all()
        dual = audit(ls, cfg).to_dict()
        assert dual == closure_audit(ls, cfg).to_dict()
        assert dual == naive_audit(ls, cfg).to_dict()


def plant(space, kind, picks):
    """Lines of one planted configuration on the points ``picks`` (indices
    mod the point count), or None if the points are degenerate for it."""
    pts = space.points
    x, y, z, w = (pts[i % len(pts)] for i in picks)
    if kind == "concurrent-off-plane":
        # Three lines through x that span a solid, not a plane.
        if len(space.rref([x, y, z, w])) != 4:
            return None
        return [space.rref((x, v)) for v in (y, z, w)]
    plane = space.rref([x, y, z])
    if len(plane) != 3:
        return None
    if kind == "triangle":
        # Three coplanar lines, no point on all three.
        return [space.rref(pair) for pair in ((x, y), (y, z), (x, z))]
    # "full-plane": every line of the plane.
    on = list(space.subspace_points(plane))
    return [space.rref(pair) for pair in itertools.combinations(on, 2)]


def drop_pair(planes):
    """One meeting pair of a plane is lost."""
    next(iter(planes.values()))[0] -= 1


def merge_keys(planes):
    """Two planes' pairs are counted under one key."""
    first, second = list(planes)[:2]
    planes[first][0] += planes.pop(second)[0]


class TestPlanesFromMeetingPairs:
    """d = 2 counts planes from the pairs of lines through each point, and
    checks each plane's pairs against its first line's as a check that
    can fail."""

    @settings(max_examples=40, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2)]),
        kind=st.sampled_from(["triangle", "full-plane", "concurrent-off-plane"]),
        picks=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
        pairs=RANDOM_PAIRS,
    )
    def test_matches_naive_with_planted_planes(self, space_key, kind, picks, pairs):
        """Histogram, and every flagged plane of two or more lines with its
        basis made on demand and its first pivot, as the naive enumeration
        of all planes gives them."""
        space = projective_space(*space_key)
        planted = plant(space, kind, picks)
        assume(planted is not None)
        ls = LineSet(space, [*lineset_from_pairs(space_key, pairs).lines, *planted])
        bad = frozenset(range(2, len(ls.lines) + 1))
        hist, flagged, basis = _DualCounts(ls)(2, bad)
        want_hist, want_flagged, want_basis = _dict_source(ls, _naive_counts)(2, bad)
        assert hist == want_hist
        bases = sorted((p1, basis(h), c) for p1, h, c in flagged)
        assert bases == sorted((p1, want_basis(h), c) for p1, h, c in want_flagged)
        assert all(p1 == rows[0].index(1) for p1, rows, _ in bases)
        if kind == "full-plane":
            assert hist[space.q**2 + space.q + 1] >= 1

    @pytest.mark.parametrize("mutate", [drop_pair, merge_keys])
    def test_wrong_pair_counts_raise(self, h2, mutate, monkeypatch):
        meeting_planes = _DualCounts._meeting_planes

        def wrong(kernel):
            planes = meeting_planes(kernel)
            mutate(planes)
            return planes

        monkeypatch.setattr(_DualCounts, "_meeting_planes", wrong)
        with pytest.raises(InternalConsistencyError, match="d = 2: a plane of 3 lines"):
            audit(h2, AxiomConfig.from_names(["Pl"]))


def seeded_lineset(n, q, count, seed):
    """``count`` distinct lines of PG(n, q), each joining two distinct points
    drawn by ``random.Random(seed)``."""
    space = projective_space(n, q)
    rng, pts = random.Random(seed), space.points
    keys = set()
    while len(keys) < count:
        a, b = rng.sample(range(len(pts)), 2)
        keys.add(space.join(pts[a], pts[b]))
    return LineSet(space, keys)


# SHA-256 of dumps_report(audit(seeded_lineset(n, q, count,
# f"dense-pg{n}-{q}"), all axioms).to_dict()), recorded when every
# violating subspace still got its canonical basis.
DENSE_REPORT_SHA256 = {
    (6, 2, 300): "6e278020a2320ce2f93af9110aa83e1672ec53c9209a360644e1ca8d000a3af6",
    (5, 3, 200): "ad283f3a263c56410502d6e146bc2ef4e1e0242f7e203580e40542260b0e5b8c",
}


class TestWitnessRanking:
    """Each axiom's witness is sought only among its hits of the largest
    first pivot; reports stay those of the search over every hit."""

    @pytest.mark.parametrize("n, q, count", list(DENSE_REPORT_SHA256))
    def test_dense_failing_sets_keep_their_reports(self, n, q, count):
        ls = seeded_lineset(n, q, count, f"dense-pg{n}-{q}")
        rep = audit(ls, AxiomConfig.all())
        assert not rep.passed
        digest = hashlib.sha256(dumps_report(rep.to_dict()).encode()).hexdigest()
        assert digest == DENSE_REPORT_SHA256[n, q, count]

    def test_dense_set_makes_few_nullspaces(self, monkeypatch):
        """300 random lines of PG(6, 2) flag thousands of subspaces, each of
        which once got a nullspace; now only the top class gets one.  The
        calls of two or more rows, below the hyperplanes, are counted."""
        calls = []
        nullspace = PG.nullspace

        def counted(space, rows):
            calls.append(rows)
            return nullspace(space, rows)

        monkeypatch.setattr(PG, "nullspace", counted)
        audit(seeded_lineset(6, 2, 300, "dense-pg6-2"), AxiomConfig.all())
        assert sum(len(rows) >= 2 for rows in calls) == 13

    @pytest.mark.parametrize(
        "n, q", [(4, 2), (4, 3), (3, 4), (2, 5), (2, 7), (2, 8), (2, 9)]
    )
    def test_hyperplane_basis_is_the_nullspace(self, n, q):
        """One row, a hyperplane's, takes ``nullspace``'s branch without
        elimination; the same row twice takes elimination.  Every point,
        every nonzero multiple of it, and the zero row."""
        space = projective_space(n, q)
        mul = space.gf.mul_table
        rows = [tuple(mul[c][a] for a in h) for h in space.points for c in range(1, q)]
        for h in rows + [(0,) * space.width]:
            assert space.nullspace([h]) == space.nullspace([h, h]), h

    def test_one_nullspace_per_hyperplane_witness(self, monkeypatch):
        """At d = n-1 each rejected hyperplane of the top class gets its
        basis from a one-row nullspace, without elimination: 60 random lines
        of PG(4, 3) fail (Sd) on 89 hyperplanes and (Sd') on 38, with two
        witnesses, and make only one-row nullspace calls and no rref call."""
        calls, rrefs = [], []
        nullspace, rref = PG.nullspace, PG.rref

        def counted(space, rows):
            calls.append(len(rows))
            return nullspace(space, rows)

        def counted_rref(space, rows):
            rrefs.append(rows)
            return rref(space, rows)

        ls = seeded_lineset(4, 3, 60, "dense-pg4-3")
        monkeypatch.setattr(PG, "nullspace", counted)
        monkeypatch.setattr(PG, "rref", counted_rref)
        cfg = AxiomConfig.from_names(["Sd", "Sd'"])
        rep = audit(ls, cfg)
        assert None not in (rep.witnesses["Sd"], rep.witnesses["Sd'"])
        assert rep.witnesses["Sd"] != rep.witnesses["Sd'"]
        assert calls and set(calls) == {1}
        assert rrefs == []
        monkeypatch.undo()
        assert rep.to_dict() == naive_audit(ls, cfg).to_dict()

    @settings(max_examples=30, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]),
        pairs=RANDOM_PAIRS,
        names=st.sets(st.sampled_from(list(AXIOMS)), min_size=1),
    )
    def test_random_failing_sets_match_naive_per_axiom_subset(self, space_key, pairs, names):
        """Ranking is per axiom, so any subset of the axioms must give the
        naive referee's report."""
        ls = lineset_from_pairs(space_key, pairs)
        cfg = AxiomConfig(frozenset(names))
        rep = audit(ls, cfg)
        assume(not rep.passed)
        assert rep.to_dict() == naive_audit(ls, cfg).to_dict()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_wrong_first_pivot_raises(self, d):
        """A source whose first pivots are one too large at d ranks the
        wrong class first, and the witness's own pivot gives it away."""
        ls = parabolic_quadrangle(2)
        kernel = _DualCounts(ls)

        def source(dim, bad):
            hist, flagged, *rest = kernel(dim, bad)
            if dim == d:
                flagged = [(p1 + 1, h, c) for p1, h, c in flagged]
            return hist, flagged, *rest

        with pytest.raises(InternalConsistencyError, match=f"d = {d}: a witness's first pivot"):
            _audit(ls, AxiomConfig.all(), source)


def test_h4_build_and_full_audit():
    """H(4) end to end: the PGLS bytes of the benchmark goldens, and the
    full audit passes with the recorded report bytes."""
    ls = build(4)
    pgls = json.loads(GOLDENS.read_text())["pgls_sha256"]["4"]
    assert hashlib.sha256(dump_lineset(ls).encode()).hexdigest() == pgls
    rep = audit(ls, AxiomConfig.all())
    assert rep.passed
    digest = hashlib.sha256(dumps_report(rep.to_dict()).encode()).hexdigest()
    assert digest == H4_REPORT_SHA256


class TestExpansionBound:
    def test_h2_pencil_plane(self, h2):
        space = h2.space
        pi = next(iter(h2.point_lines))
        rows = [r for li in h2.point_lines[pi] for r in h2.lines[li]]
        plane = space.rref(rows)
        plane_lines = {li for li in h2.point_lines[pi]}
        l = None
        for li, key in enumerate(h2.lines):
            if li in plane_lines:
                continue
            if len(space.rref(key + plane)) == len(plane) + 1:
                l = key
                break
        assert l is not None
        rep = expansion_bound(h2, plane, l)
        assert rep.lines_in_m == 3
        assert rep.holds
        if rep.alpha is not None:
            assert rep.alpha_at_most_q

    def test_rejects_foreign_line(self, h2):
        space = h2.space
        plane = (unit(space, 0), unit(space, 1), unit(space, 2))
        with pytest.raises(ValueError):
            expansion_bound(h2, plane, (unit(space, 0), unit(space, 4)))

    def test_rejects_contained_line(self, h2):
        space = h2.space
        key = h2.lines[0]
        with pytest.raises(ValueError):
            expansion_bound(h2, key, key)


class TestHyperplaneConsequence:
    def test_vacuous_on_hexagon(self, h2):
        rep = hyperplane_consequence_check(h2)
        assert rep.vacuous
        assert rep.ok
        assert rep.span_dim_at_most_6

    def test_mechanics_on_embedded_pentagon(self):
        """A bare pentagon in PG(6,2): the machinery reports the best
        hyperplane even though the fixture misses the structural bound."""
        space = projective_space(6, 2)
        e = [unit(space, i) for i in range(5)]
        ls = LineSet(space, [(e[i], e[(i + 1) % 5]) for i in range(5)])
        rep = hyperplane_consequence_check(ls)
        assert not rep.vacuous
        assert rep.best_count == 5
        assert rep.hyperplane is not None
        assert len(rep.hyperplane) == 6
        assert not rep.ok
        assert rep.span_dim_at_most_6


class TestFlatnessLemma:
    """Under (Pl) and (Sd) the lines through a point of degree 3 or more are
    coplanar.  Three concurrent lines L1, L2, L3 not in one plane span a
    solid; each plane <Li, Lj> holds two lines, so q+1 under (Pl), and two
    of these planes share only one Li, so the solid holds at least
    3(q+1) - 3 = 3q > 2q+1 lines, which (Sd) forbids."""

    @settings(max_examples=40, deadline=None)
    @given(
        space_key=st.sampled_from([(4, 2), (4, 3)]),
        corner=st.integers(0, 10**6),
        ends=st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
        pairs=RANDOM_PAIRS,
    )
    def test_three_concurrent_lines_off_a_plane_fail_pl_or_sd(
        self, space_key, corner, ends, pairs
    ):
        space = projective_space(*space_key)
        pts = space.points
        x, *ys = (pts[i % len(pts)] for i in (corner, *ends))
        assume(len(space.rref([x, *ys])) == 4)
        legs = [space.rref((x, y)) for y in ys]
        ls = LineSet(space, [*lineset_from_pairs(space_key, pairs).lines, *legs])
        rep = audit(ls, AxiomConfig.from_names(["Pl", "Sd"]))
        assert not (rep.verdicts["Pl"] and rep.verdicts["Sd"])


def collineation_image(ls, seed):
    """The image of the line set under a seeded random invertible matrix."""
    space, w = ls.space, ls.space.width
    add, mul = space.gf.add_table, space.gf.mul_table
    rng = random.Random(seed)
    m = [[0] * w]
    while len(space.rref(m)) < w:
        m = [[rng.randrange(space.q) for _ in range(w)] for _ in range(w)]

    def apply(v):
        out = [0] * w
        for a, row in zip(v, m):
            out = [add[o][mul[a][r]] for o, r in zip(out, row)]
        return tuple(out)

    return LineSet(space, [tuple(map(apply, key)) for key in ls.lines])


def projected_to_pg5(ls):
    """H(q) for even q projected from the nucleus e3 of its quadric: x3 is
    dropped."""
    lines = [tuple(r[:3] + r[4:] for r in key) for key in ls.lines]
    return LineSet(projective_space(5, ls.q), lines)


def failed(rep):
    return {a for a, ok in rep.verdicts.items() if not ok}


def lines_where(n, q, keep):
    """The lines of PG(n, q) whose RREF rows pass ``keep(space, rows)``, from
    ``enumerate_subspaces``."""
    space = projective_space(n, q)
    rows = [u for u in space.enumerate_subspaces(1) if keep(space, u)]
    return LineSet(space, rows)


def symplectic_quadrangle(q):
    """W(q): the lines of PG(3, q) on which the symplectic form
    x0y1 - x1y0 + x2y3 - x3y2 vanishes, in GF(q)'s tables."""

    def isotropic(space, u):
        (x, y), gf = u, space.gf
        mul, sub = gf.mul_table, gf.sub_table

        def p(i, j):
            return sub[mul[x[i]][y[j]]][mul[x[j]][y[i]]]

        return gf.add_table[p(0, 1)][p(2, 3)] == 0

    return lines_where(3, q, isotropic)


def parabolic_quadrangle(q):
    """Q(4, q): the lines of PG(4, q) inside the quadric
    x0x1 + x2x3 + x4^2 = 0, in GF(q)'s tables."""

    def inside(space, u):
        add, mul = space.gf.add_table, space.gf.mul_table
        return all(
            add[add[mul[p[0]][p[1]]][mul[p[2]][p[3]]]][mul[p[4]][p[4]]] == 0
            for p in space.subspace_points(u)
        )

    return lines_where(4, q, inside)


def dual_hexagon_pencils():
    """H(2)^D in its Grassmann embedding: the Plücker images of H(2)'s lines,
    three per pencil of H(2), in the order of the pencils' points.

    The images span a PG(13, 2) inside PG(20, 2), which is past the point
    bound, so the span is reduced here on the 21-coordinate vectors, over
    GF(2).  Its reduced rows lead at distinct columns, the pivot columns of
    the span's RREF, and an image's entries there are its coordinates.
    """
    h = build_cached(2)
    images = [PluckerCoords(h.space.gf, *key).vector() for key in h.lines]
    rows = []
    for v in images:
        for r in rows:
            if v[r.index(1)]:
                v = [a ^ b for a, b in zip(v, r)]
        if any(v):
            rows.append(v)
    pivots = sorted(r.index(1) for r in rows)
    coords = [tuple(v[p] for p in pivots) for v in images]
    return [[coords[i] for i in ids] for _, ids in sorted(h.point_lines.items())]


class TestControls:
    """Objects at the theorem's edges whose answers are known exactly."""

    @pytest.mark.parametrize("q", [2, 4])
    def test_hexagon_projected_into_pg5(self, q):
        """For even q, dropping x3 maps H(q) one to one onto a flat, full
        generalized hexagon of PG(5, q); (Sd) is what rejects it."""
        proj = projected_to_pg5(build_cached(q))
        rep = audit(proj, AxiomConfig.all())
        assert len(proj) == len(build_cached(q)) and proj.span_dim() == 5
        fails = {"Sd", "Sd'", "4d", "Hp", "Hp'"}
        if q == 2:
            fails.add("6d")  # (6d) asks for span 6 only when q <= 3
        assert failed(rep) == fails
        assert girth_and_diameter(proj) == (12, 6)
        if q == 2:
            text = dump_lineset(proj)
            assert text == (PERFBENCH / "inputs" / "h2-proj5.pgls").read_text()
            doc = report_document("audit", rep.to_dict(), source_text=text)
            doc.pop("version")
            assert doc == json.loads(GOLDENS.read_text())["reports"]["h2-proj5"]
        else:
            digest = hashlib.sha256(dumps_report(rep.to_dict()).encode()).hexdigest()
            assert digest == H4_PROJ5_REPORT_SHA256

    @pytest.mark.parametrize("q", [3, 4])
    def test_collineation_image_of_hexagon_keeps_the_report(self, q):
        """The report depends on the set only up to collineation; the image
        drives the kernel through other pivot sets."""
        h = build_cached(q)
        image = collineation_image(h, seed=q)
        assert image.lines != h.lines
        cfg = AxiomConfig.all()
        assert audit(image, cfg).to_dict() == audit(h, cfg).to_dict()

    @settings(max_examples=25, deadline=None)
    @given(
        space_key=st.sampled_from([(4, 2), (4, 3)]),
        pairs=RANDOM_PAIRS,
        seed=st.integers(0, 2**32),
    )
    def test_random_images_match_naive(self, space_key, pairs, seed):
        ls = lineset_from_pairs(space_key, pairs)
        image = collineation_image(ls, seed)
        cfg = AxiomConfig.all()
        rep = audit(image, cfg)
        assert rep.to_dict() == naive_audit(image, cfg).to_dict()
        before = audit(ls, cfg)
        assert (rep.histograms, rep.verdicts) == (before.histograms, before.verdicts)

    @pytest.mark.parametrize("q", [2, 3])
    def test_one_line_swap_fails_the_main_theorem(self, q):
        """H(q) with its first line replaced by an isotropic line that is
        not a hexagon line."""
        h = build_cached(q)
        extra = next(r for r in parabolic_quadric(q).isotropic_lines() if r not in h)
        swap = LineSet(h.space, h.lines[1:] + (extra,))
        rep = audit(swap, MAIN_THEOREM)
        assert failed(rep) == {"Pt", "Pl", "Sd"}
        (point,) = rep.witnesses["Pt"]
        assert len(swap.point_lines[swap.space.point_index[point]]) != q + 1

    def test_one_line_past_the_total_fails_to(self, h2):
        """(To) allows (q^6 - 1) / (q - 1) lines: H(2) has exactly 63, and
        H(2) with one more line of PG(6, 2) has 64."""
        extra = next(u for u in h2.space.enumerate_subspaces(1) if u not in h2)
        plus = LineSet(h2.space, h2.lines + (extra,))
        total = AxiomConfig.from_names(["To"])
        assert audit(h2, total).verdicts == {"To": True}
        assert audit(plus, total).verdicts == {"To": False}
        assert len(plus) == 64
        assert failed(audit(plus, AxiomConfig.all())) == {"Pt", "Pl", "Sd", "Sd'", "To"}

    @pytest.mark.parametrize("q, planes", [(2, {3: 15}), (3, {4: 40}), (4, {5: 85})])
    def test_symplectic_quadrangle(self, q, planes):
        """W(q) is flat: each plane of PG(3, q) holds exactly the q+1 lines
        through its pole.  The solid holds all (q+1)(q^2+1) lines, which
        (Sd) and (Sd') reject, and the span is 3, which (6d) rejects for
        q <= 3."""
        w = symplectic_quadrangle(q)
        cfg = AxiomConfig.all()
        rep = audit(w, cfg)
        assert len(w) == (q + 1) * (q**2 + 1)
        assert failed(rep) == {"Sd", "Sd'"} | ({"6d"} if q <= 3 else set())
        assert rep.histograms[2] == planes
        solid = whole_space(w.space)
        assert rep.witnesses == {a: None for a in cfg.enabled()} | {"Sd": solid, "Sd'": solid}
        if q == 2:
            assert rep.to_dict() == naive_audit(w, cfg).to_dict()

    @pytest.mark.parametrize(
        "q, planes", [(2, {2: 45, 1: 15}), (3, {2: 240, 1: 40}), (4, {2: 850, 1: 85})]
    )
    def test_parabolic_quadrangle(self, q, planes):
        """Q(4, q) is not flat: the q+1 lines through a point are a cone over
        a conic, and each two of them span a plane of two lines, which
        (Pl) rejects.  A hyperbolic solid section holds 2q+2 lines, past
        (Sd) and (Sd'); the whole PG(4, q) holds more than (4d) allows; and
        the span is 4, which (6d) rejects for q <= 3.  At q = 4, 10 of the
        850 planes of two lines have first pivot 1 and the rest 0, so the
        (Pl) witness is the least of those 10 bases over GF(4)."""
        ql = parabolic_quadrangle(q)
        cfg = AxiomConfig.all()
        rep = audit(ql, cfg)
        assert len(ql) == (q + 1) * (q**2 + 1)
        assert failed(rep) == {"Pl", "Sd", "Sd'", "4d"} | ({"6d"} if q <= 3 else set())
        assert rep.histograms[2] == planes
        e = [unit(ql.space, i) for i in range(5)]
        assert rep.witnesses == {a: None for a in cfg.enabled()} | {
            "Pl": (e[1], e[2], e[3]),
            "Sd": (e[0], e[1], e[2], e[3]),
            "Sd'": (e[0], e[1], e[2], e[3]),
            "4d": tuple(e),
        }
        if q == 4:
            _, flagged, _ = _DualCounts(ql)(2, frozenset({2}))
            assert Counter(p1 for p1, _, _ in flagged) == {0: 840, 1: 10}
        if q == 2:
            assert rep.to_dict() == naive_audit(ql, cfg).to_dict()

    def test_dual_hexagon(self):
        """H(2)^D has H(2)'s order and line count, but it spans PG(13, 2) and
        is not flat: each pencil of H(2) maps onto a line, and two lines of
        H(2)^D through a point span a plane of two lines, which (Pl)
        rejects.  The closure enumeration gives the same planes.  (Sd) is
        left out: the walk over its ten annihilator rows takes about 100 s."""
        space = projective_space(13, 2)
        pencils = dual_hexagon_pencils()
        assert all(len(space.rref(images)) == 2 for images in pencils)
        dual = LineSet(space, [space.rref(images) for images in pencils])
        assert (len(dual), len(dual.point_lines), dual.span_dim()) == (63, 63, 13)
        rep = audit(dual, AxiomConfig.from_names(["Pt", "Pl", "To"]))
        assert failed(rep) == {"Pl"}
        assert rep.histograms[2] == {2: 189, 1: 257607}
        assert rep.histograms[2] == Counter(closure_counts(dual, 2).values())
        e = [unit(space, i) for i in (8, 12, 13)]
        assert rep.witnesses == {"Pt": None, "Pl": tuple(e), "To": None}

    @pytest.mark.parametrize("n", [7, 8])
    def test_hexagon_embedded_in_a_larger_space(self, n):
        """H(2) zero-padded into PG(n, 2) and moved by a collineation keeps
        its verdicts.  Its span S is a PG(6, 2), and a d-space U sees the
        lines of U ∩ S; the d-spaces that meet S in a given e-space number
        2^((d-e)(6-e)) [n-6, d-e]_2, so each histogram is a sum over e."""
        q, h = 2, build_cached(2)
        pad = (0,) * (n - 6)
        padded = LineSet(
            projective_space(n, q), [tuple(r + pad for r in key) for key in h.lines]
        )
        image = collineation_image(padded, seed=n)
        cfg = AxiomConfig.all()
        rep, base = audit(image, cfg), audit(h, cfg)
        assert rep.span_dim == 6
        assert rep.verdicts == base.verdicts
        in_span = {**base.histograms, 1: {1: len(h)}, 6: {len(h): 1}}
        for d in range(2, 6):
            want: dict = {}
            for e in range(1, d + 1):
                ways = q ** ((d - e) * (6 - e)) * gaussian_binomial(n - 6, d - e, q)
                for c, m in in_span[e].items():
                    want[c] = want.get(c, 0) + ways * m
            assert rep.histograms[d] == want, d


class TestPointAxiomReferee:
    """(Pt) against degrees counted from each line's own basis: ``audit`` and
    ``naive_audit`` both take (Pt) from ``LineSet.point_lines``, so comparing
    them checks (Pt) against itself."""

    @staticmethod
    def check(ls):
        space = ls.space
        degrees = [sum(contains(space, key, p) for key in ls.lines) for p in space.points]
        hist: dict[int, int] = {}
        for c in filter(None, degrees):
            hist[c] = hist.get(c, 0) + 1
        bad = [i for i, c in enumerate(degrees) if c and c != ls.q + 1]
        rep = audit(ls, AxiomConfig.from_names(["Pt"]))
        assert rep.histograms == {0: hist}
        assert rep.verdicts == {"Pt": not bad}
        assert rep.witnesses == {"Pt": (ls.space.points[bad[0]],) if bad else None}

    def test_h2(self, h2):
        self.check(h2)

    def test_one_line_swap(self, h2):
        extra = next(r for r in parabolic_quadric(2).isotropic_lines() if r not in h2)
        swap = LineSet(h2.space, h2.lines[1:] + (extra,))
        self.check(swap)

    @settings(max_examples=60, deadline=None)
    @given(space_key=st.sampled_from([(3, 2), (4, 2), (4, 3)]), pairs=RANDOM_PAIRS)
    def test_random_sets(self, space_key, pairs):
        self.check(lineset_from_pairs(space_key, pairs))
