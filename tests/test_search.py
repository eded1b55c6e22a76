import hashlib
from collections import Counter

import pytest

from hexaudit.audit import AxiomConfig, audit
from hexaudit.formats import dump_lineset
from hexaudit.pg import projective_space
from hexaudit.search import (
    MODES,
    SearchSpec,
    _State,
    _pencil_move,
    _target_met,
    run,
)


def make_spec(**kw):
    base = dict(
        n=4,
        q=2,
        axioms=AxiomConfig.from_names(["Pt", "Pl", "Sd"]),
        mode="randomized-greedy",
        seed=11,
        budget=200,
        target="any",
    )
    base.update(kw)
    return SearchSpec(**base)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(mode="annealing")
        with pytest.raises(ValueError):
            make_spec(target="triangle")
        with pytest.raises(ValueError):
            make_spec(budget=0)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"n": 1}, "n must be at least 2 for pencil moves, got 1"),
            ({"mode": "annealing"}, f"mode must be one of {MODES}"),
            ({"target": "triangle"}, "target must be one of ('pentagon', 'span-lt-6', 'any')"),
            ({"budget": -3}, "budget must be positive"),
        ],
        ids=["n", "mode", "target", "budget"],
    )
    def test_validation_messages(self, kw, message):
        with pytest.raises(ValueError) as exc:
            make_spec(**kw)
        assert str(exc.value) == message

    def test_value_semantics(self):
        """Equal specs hash equal and work as dict keys; a changed field
        makes another spec."""
        a, b = make_spec(), SearchSpec.from_dict(make_spec().to_dict())
        assert hash(a) == hash(b) and {a: 1}[b] == 1
        assert a != make_spec(seed=12) and a != a.to_dict()
        assert repr(a).startswith("SearchSpec(n=4, q=2, axioms=AxiomConfig(")

    def test_dict_round_trip(self):
        spec = make_spec()
        again = SearchSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert again == spec

    def test_from_dict_defaults(self):
        spec = SearchSpec.from_dict({"n": 4, "q": 2, "axioms": ["Pt"]})
        assert spec.mode == "randomized-greedy"
        assert spec.seed == 0
        assert spec.target == "pentagon"

    def test_replace_and_make_run_the_checks(self):
        spec = SearchSpec(4, 2, AxiomConfig.all())
        with pytest.raises(ValueError, match="^budget must be positive$"):
            spec._replace(budget=0)
        with pytest.raises(ValueError, match="^n must be at least 2 for pencil moves, got 1$"):
            SearchSpec._make((1,) + spec[1:])
        again = spec._replace(seed=9)
        assert again == SearchSpec(4, 2, AxiomConfig.all(), seed=9) and type(again) is SearchSpec


PT_PL_SD = AxiomConfig.from_names(["Pt", "Pl", "Sd"])


class TestState:
    def test_counts_what_the_axioms_name(self):
        space = projective_space(4, 2)
        assert _State(space, AxiomConfig.from_names(["Pt"])).caps == {0: 3}
        state = _State(space, AxiomConfig.from_names(["Pt", "Pl", "Sd", "4d"]))
        assert state.caps == {0: 3, 2: 3, 3: 5, 4: 12}
        point = space.points[0]
        pencil = space.pencil(point, space.subspaces_through_rows((point,), 2)[0])
        assert state.try_add(pencil)
        # The pencil's plane holds 3 lines, each of the 3 solids through it
        # 3, and the whole space, the only 4-space, 3; every other plane or
        # solid through a pencil line holds that line alone.
        tallies = {d: Counter(c.values()) for d, c in state.counts.items()}
        assert tallies == {
            0: {3: 1, 1: 6}, 2: {3: 1, 1: 18}, 3: {3: 3, 1: 12}, 4: {3: 1}
        }
        # Points are counted under (Pt) even when the spec leaves it out,
        # and no dimension above the space's is counted.
        assert _State(space, AxiomConfig.from_names(["Hp", "To"])).caps == {0: 3}

    def test_pencil_move_respects_caps(self):
        space = projective_space(4, 2)
        state = _State(space, PT_PL_SD)
        point = space.points[0]
        plane_rows = space.subspaces_through_rows((point,), 2)[0]
        pencil = space.pencil(point, plane_rows)
        assert len(pencil) == 3
        assert _pencil_move(state, 0, plane_rows)
        assert sorted(state.chosen) == pencil
        # The pencil is complete: no move left at this point and plane.
        assert not _pencil_move(state, 0, plane_rows)
        assert state.degree[0] == 3
        assert state.score() > 0  # other pencil points are dirty

    def test_add_remove_round_trip(self):
        space = projective_space(4, 2)
        state = _State(space, PT_PL_SD)
        point = space.points[5]
        plane_rows = space.subspaces_through_rows((point,), 2)[0]
        pencil = space.pencil(point, plane_rows)
        assert state.try_add(pencil)
        state.remove(pencil)
        assert not state.chosen
        # Counts that return to 0 are deleted.
        assert state.counts == {0: {}, 2: {}, 3: {}}

    def test_degree_cap_blocks_overfull_point(self):
        space = projective_space(4, 2)
        state = _State(space, PT_PL_SD)
        point = space.points[0]
        planes = space.subspaces_through_rows((point,), 2)
        assert _pencil_move(state, 0, planes[0])
        before = (set(state.chosen), {d: dict(c) for d, c in state.counts.items()})
        # A second pencil at the same point would exceed degree q+1, and the
        # refused move leaves the state as it was.
        assert not _pencil_move(state, 0, planes[1])
        after = (state.chosen, state.counts)
        assert after == before


class TestTargets:
    def test_on_hexagon(self, h2):
        assert _target_met(h2, "any")
        assert not _target_met(h2, "pentagon")
        assert not _target_met(h2, "span-lt-6")


class TestRun:
    def test_replay_is_identical(self):
        spec = make_spec()
        a = run(spec)
        b = run(spec)
        assert a.log == b.log
        assert a.best_score == b.best_score
        assert (a.found is None) == (b.found is None)
        if a.found is not None:
            assert a.found.lines == b.found.lines

    def test_budget_respected_and_logged(self):
        spec = make_spec(budget=50, seed=3)
        res = run(spec)
        assert res.iterations <= 50
        assert "generator: python-random-mt19937" in res.log
        assert "seed: 3" in res.log
        assert res.log.endswith(("outcome: none\n", "outcome: found\n"))

    def test_found_candidate_is_audited(self):
        """Whatever the outcome, a reported set must re-pass the audit."""
        spec = make_spec(seed=19, budget=400)
        res = run(spec)
        if res.found is not None:
            rep = audit(res.found, spec.axioms)
            assert rep.passed
            assert _target_met(res.found, spec.target)

    def test_local_swap_mode_runs(self):
        res = run(make_spec(mode="local-swap", budget=100, seed=2))
        assert res.iterations <= 100

    def test_point_and_span_spec_checks_candidates_in_both_modes(self):
        """Under (Pt) and (6d) only points are capped, so the walk reaches
        clean states in PG(3, 2); (6d) rejects each, and the two modes go
        on from there differently."""
        axioms = AxiomConfig.from_names(["Pt", "6d"])
        logs = []
        for mode in MODES:
            res = run(make_spec(n=3, q=2, axioms=axioms, mode=mode, seed=0))
            assert res.found is None
            assert res.candidates_checked >= 1
            logs.append(res.log.splitlines())
        differ = [a for a, b in zip(*logs) if a != b]
        assert any(not line.startswith("spec: ") for line in differ)

    def test_logs_match_recorded_digest(self):
        """Pins the search across commits, where replay only compares two runs
        of the same code. The digest was recorded before `_State` was rebuilt
        around one incidence memo per line and before moves used `PG.pencil`;
        any change to the RNG call order, the moves, the caps or the log
        format shows here."""
        grid = [(4, 2, 0, 150), (4, 2, 1, 150), (6, 2, 1, 60), (6, 2, 2, 60)]
        specs = [
            make_spec(n=n, q=q, mode=mode, seed=seed, budget=budget)
            for mode in MODES
            for n, q, seed, budget in grid
        ]
        specs.append(make_spec(n=4, q=3, seed=0, budget=60))
        digest = hashlib.sha256()
        for spec in specs:
            res = run(spec)
            digest.update(res.log.encode())
            found = dump_lineset(res.found) if res.found is not None else "none\n"
            digest.update(found.encode())
        assert digest.hexdigest() == (
            "2c6e852b7d94f3ce4d5f520cf5dc6aecf3bdc538b19e71f323fc7b0cb54f8eda"
        )
