"""Acceptance suite: one criterion per test, one printed verdict line each."""

import itertools
import json
import random
import time

import numpy as np
import pytest

from hexaudit.audit import (
    AxiomConfig,
    audit,
    naive_audit,
)
from hexaudit.cli import main
from hexaudit.gf import is_prime_power
from hexaudit.hexagon import build, verify_flat_full
from hexaudit.lineset import LineSet
from hexaudit.pg import projective_space
from hexaudit.polygon import find_kgon, girth_and_diameter
from hexaudit.quadric import SectionType, parabolic_quadric
from hexaudit.search import SearchSpec, run as run_search
from hexaudit.srg import SrgParams, eigenvalues, q_feasible
from conftest import build_cached
from lemmas import MAIN_THEOREM, hyperplane_consequence_check, is_conference, pentagon_span_check
from referees import closure_counts

CLASSIFY4_Q2 = {
    "parabolic-Q4": 1344,
    "cone-over-elliptic": 378,
    "cone-over-hyperbolic": 630,
    "line-cone-over-conic": 315,
}


def verdict(num, desc, ok):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def test_criterion_1_construction_counts():
    parabolic_quadric.cache_clear()
    build_cached.cache_clear()
    results = {}
    for q, limit in ((2, 1.0), (3, 30.0)):
        t0 = time.perf_counter()
        ls = build(q)
        elapsed = time.perf_counter() - t0
        expected = q**5 + q**4 + q**3 + q**2 + q + 1
        results[q] = (
            len(ls) == expected
            and len(ls.point_lines) == expected
            and elapsed < limit
        )
    verdict(1, "construction counts and runtime", all(results.values()))


@pytest.mark.parametrize("q", [2, 3])
def test_criterion_2_full_audit(q):
    ls = build_cached(q)
    rep = audit(ls, MAIN_THEOREM)
    nonzero = lambda d: set(rep.histograms[d])  # noqa: E731
    ok = (
        rep.passed
        and nonzero(2) <= {1, q + 1}
        and nonzero(3) <= {1, q + 1, 2 * q + 1}
        and max(nonzero(4)) <= q**3 - q**2 + 4 * q
        and max(nonzero(5)) <= q**4 - q**3 + 3 * q**2 + 2 * q
    )
    verdict(2, f"full audit of H({q})", ok)


def test_criterion_3_four_case_lemma(h2):
    q = 2
    quad = parabolic_quadric(q)
    counts = closure_counts(h2, 4)
    bounds = {
        SectionType.PARABOLIC_Q4: q**2 + 1,
        SectionType.CONE_OVER_ELLIPTIC: q**2 + 1,
        SectionType.CONE_OVER_HYPERBOLIC: (q + 1) ** 2,
        SectionType.LINE_CONE_OVER_CONIC: (q + 1) ** 2,
    }
    hist = {}
    ok = True
    for rows in quad.space.enumerate_subspaces(4):
        kind, _ = quad.classify_section(rows)
        hist[kind.value] = hist.get(kind.value, 0) + 1
        if counts.get(rows, 0) > bounds[kind]:
            ok = False
    ok = ok and hist == CLASSIFY4_Q2
    verdict(3, "four-case 4-space lemma", ok)


@pytest.mark.parametrize("q", [2, 3])
def test_criterion_4_generalized_hexagon(q):
    ls = build_cached(q)
    ok = all(find_kgon(ls, k) is None for k in (3, 4, 5))
    ok = ok and find_kgon(ls, 6) is not None
    ok = ok and girth_and_diameter(ls) == (12, 6)
    rep = verify_flat_full(ls)
    ok = ok and rep.flat and rep.full and ls.span_dim() == 6
    verdict(4, f"generalized-hexagon properties of H({q})", ok)


def test_criterion_5_srg_gate():
    spectrum = sorted(
        set(
            int(round(v))
            for v in np.linalg.eigvalsh(petersen_adjacency())
        )
    )
    ok = spectrum == [-2, 1, 3]
    ok = ok and eigenvalues(SrgParams(10, 3, 0, 1)) == (1.0, -2.0)
    ok = ok and is_conference(SrgParams(5, 2, 0, 1))
    ok = ok and q_feasible(2)
    ok = ok and not any(
        q_feasible(q) for q in range(3, 1001) if is_prime_power(q)
    )
    verdict(5, "SRG feasibility gate", ok)


def petersen_adjacency():
    verts = list(itertools.combinations(range(5), 2))
    a = np.zeros((10, 10), dtype=int)
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            if not set(u) & set(v):
                a[i, j] = 1
    return a


def test_criterion_6_oracle_equivalence():
    space = projective_space(4, 2)
    rng = random.Random(424242)
    cfg = AxiomConfig.all()
    pts = space.points
    ok = True
    for _ in range(100):
        keys = set()
        for _ in range(rng.randrange(1, 13)):
            a, b = rng.sample(range(len(pts)), 2)
            keys.add(space.rref((pts[a], pts[b])))
        ls = LineSet(space, keys, canonical=True)
        fast = audit(ls, cfg).to_dict()
        slow = naive_audit(ls, cfg).to_dict()
        if json.dumps(fast["histograms"]) != json.dumps(slow["histograms"]):
            ok = False
            break
        if fast["verdicts"] != slow["verdicts"]:
            ok = False
            break
    verdict(6, "dual kernel vs naive audit oracle equivalence", ok)


def test_criterion_7_pentagon_machinery():
    q = 2
    axioms = AxiomConfig.from_names(["Pt", "Pl", "Sd"])
    candidates = []
    for seed in (1, 2, 3):
        spec = SearchSpec(
            n=6, q=q, axioms=axioms, seed=seed, budget=400, target="pentagon"
        )
        res = run_search(spec)
        if res.found is not None:
            candidates.append(res.found)
    if not candidates:
        print("criterion 7 (pentagon machinery): vacuous — no candidate")
        return
    ok = True
    for ls in candidates:
        gon = find_kgon(ls, 5)
        rep = pentagon_span_check(ls, gon)
        ok = ok and rep.dim_is_4 and rep.at_least_5q and rep.at_least_cubic_bound
        hrep = hyperplane_consequence_check(ls)
        ok = ok and hrep.ok
        with_to = audit(ls, AxiomConfig.from_names(["Pt", "Pl", "Sd", "To"]))
        if with_to.passed:
            ok = ok and ls.span_dim() <= 6
    verdict(7, "pentagon machinery", ok)


def test_criterion_8_determinism(tmp_path):
    a, b = tmp_path / "a.pgls", tmp_path / "b.pgls"
    main(["build", "--q", "2", "--out", str(a)])
    main(["build", "--q", "2", "--out", str(b)])
    ok = a.read_bytes() == b.read_bytes()

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["audit", "--in", str(a), "--out", str(r1)])
    main(["audit", "--in", str(a), "--out", str(r2)])
    ok = ok and r1.read_bytes() == r2.read_bytes()

    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "n": 4,
                "q": 2,
                "axioms": ["Pt", "Pl", "Sd"],
                "seed": 5,
                "budget": 150,
                "target": "any",
            }
        )
    )
    main(["search", "--spec", str(spec), "--out-prefix", str(tmp_path / "s1")])
    main(["search", "--spec", str(spec), "--out-prefix", str(tmp_path / "s2")])
    ok = ok and (
        (tmp_path / "s1.log").read_bytes() == (tmp_path / "s2.log").read_bytes()
    )
    verdict(8, "byte-identical determinism", ok)
