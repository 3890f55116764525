import random
from dataclasses import replace
from fractions import Fraction

import pytest

from braidcensus import analysis, census, closedform, coords, diagram, perms
from braidcensus.verify import MAX_FAILURES, SUITES, check_structure, check_symmetry, run_suite


def first_fuzz_tuples(seed, kmax, count):
    """The first tuples a fuzz suite draws: n in 1..8, then k, then the tuple."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)
        k = rng.randint(0, kmax)
        out.append(coords.random_coordinates(rng, n, k))
    return out


def test_suite_stops_after_max_failures(monkeypatch):
    real = closedform.g2
    monkeypatch.setattr(closedform, "g2", lambda k: real(k) + k % 2)
    result = run_suite("b2", kmax=20, threads=1)
    assert result["ok"] is False
    assert result["failures"] == [
        f"g(2,{k}) census={real(k)} closedform={real(k) + 1}" for k in (1, 3, 5, 7, 9)
    ]
    assert result["checked"] == 10  # k = 0 .. 9: the fifth failure ends the run


def test_unknown_suite_names_the_available_ones():
    with pytest.raises(ValueError, match="unknown suite 'nope'") as info:
        run_suite("nope")
    assert str(sorted(SUITES)) in str(info.value)


def test_cyclicity_translations_obey_the_cap(monkeypatch):
    monkeypatch.setattr(perms, "is_cyclic_translation", lambda n, a: True)
    result = run_suite("cyclicity", kmax=12)
    assert result["ok"] is False
    assert len(result["failures"]) == MAX_FAILURES
    assert all(f.startswith("T(") for f in result["failures"])


def test_fuzz_failures_name_their_tuples(monkeypatch):
    monkeypatch.setattr(diagram, "zone_noninterleaving", lambda g: False)
    result = run_suite("tightness", kmax=8)
    assert result["checked"] == MAX_FAILURES
    assert result["failures"] == [
        f"{c}: interleaving arcs inside one zone"
        for c in first_fuzz_tuples(20240602, 8, MAX_FAILURES)
    ]


def test_disconnected_witness_is_reported(monkeypatch):
    monkeypatch.setattr(diagram, "is_actual", lambda c: False)
    result = run_suite("witnesses", kmax=8)
    assert result["checked"] == MAX_FAILURES
    want = []
    for c in first_fuzz_tuples(20240601, 8, MAX_FAILURES):
        w = analysis.witness_a_for_s(coords.SVector(n=c.n, s=c.s[1:-1]), verify=False)
        want.append(f"{c}: witness construction produced a disconnected tuple {w}")
    assert result["failures"] == want


def test_cyclicity_cuts_are_checked(monkeypatch):
    monkeypatch.setattr(perms, "is_cyclic_translated_cut", lambda n, a, b, c: True)
    result = run_suite("cyclicity", kmax=12)
    want = [
        f"TCut({n},{a},{b},{c}): gcd says True, orbits say False"
        for n in range(1, 13)
        for a in range(n + 1)
        for b in range(n - a + 1)
        for c in range(n - a - b + 1)
        if perms.orbit_count(perms.TranslatedCut(n, a, b, c)) != 1
    ]
    assert result["ok"] is False
    assert result["failures"] == want[:MAX_FAILURES]


def test_b3_evaluators_must_agree(monkeypatch):
    real = closedform.g3_via_gamma
    monkeypatch.setattr(closedform, "g3_via_gamma", lambda k, table=None: real(k, table) + 1)
    result = run_suite("b3-closed-form", kmax=4, threads=1)
    want = []
    for k in range(5):
        g = closedform.g3_totient(k)
        want.append(f"g(3,{k}): totient={g} pairs={g} gamma={g + 1} census={g}")
    assert result == {"suite": "b3-closed-form", "ok": False, "checked": 5, "failures": want}


def test_theta_bridge_reports_a_wrong_gcd_verdict(monkeypatch):
    real = perms.theta_is_cyclic
    monkeypatch.setattr(perms, "theta_is_cyclic", lambda r: True)
    result = run_suite("theta-bridge", kmax=4)
    want = [
        f"{coords.validate(3, (0, 1, k, a2, ell, a3, 0))}: "
        "orbit map cyclic=False gcd=True connected=False"
        for k in range(1, 5)
        for ell in range(k + 1, 5)
        for a2 in range(2 * k + 2)
        for a3 in (0, 1)
        if not real(perms.B3Regime(k=k, ell=ell, a2=a2, a3=a3))
    ]
    assert result["ok"] is False
    assert result["failures"] == want[:MAX_FAILURES]


def test_bounds_suite_reports_counts_outside_the_sandwich(monkeypatch):
    monkeypatch.setattr(analysis, "upper_bound", lambda n, k: Fraction(0))
    result = run_suite("bounds", kmax=2, threads=1)
    assert result["checked"] == MAX_FAILURES
    assert result["failures"] == [
        "g(2,0)=1 outside [1, 0]",
        "g(2,1)=2 outside [1, 0]",
        "g(2,2)=2 outside [1, 0]",
        "g(3,0)=1 outside [1, 0]",
        "g(3,1)=4 outside [2, 0]",
    ]


def test_pruned_counts_must_match_plain(monkeypatch):
    real = census.count_table

    def off_by_one_when_pruned(n, kmax, *, threads=None, prune=False):
        return [replace(r, g=r.g + prune) for r in real(n, kmax, threads=threads, prune=prune)]

    monkeypatch.setattr(census, "count_table", off_by_one_when_pruned)
    result = run_suite("prune-consistency", kmax=1, threads=1)
    assert result["checked"] == MAX_FAILURES
    assert result["failures"] == [
        "g(1,0): plain=1 pruned=2",
        "g(1,1): plain=0 pruned=1",
        "g(2,0): plain=1 pruned=2",
        "g(2,1): plain=2 pruned=3",
        "g(3,0): plain=1 pruned=2",
    ]


def test_symmetry_suite_reports_a_wrong_half_turn(monkeypatch):
    tuples = first_fuzz_tuples(20240603, 8, 100)
    moved = [i for i, c in enumerate(tuples) if coords.sym_c(c) != c][:MAX_FAILURES]
    monkeypatch.setattr(coords, "sym_c", lambda c: c)
    result = run_suite("symmetry", kmax=8)
    assert result["checked"] == moved[-1] + 1
    assert result["failures"] == [
        f"{tuples[i]}: mirror maps do not commute into the half-turn" for i in moved
    ]


REAL_BUILD = diagram.build_arc_graph
ONE_STRAND = coords.validate(1, (0, 0, 0))


@pytest.mark.parametrize(
    "name, fake, message",
    [
        (
            "build_arc_graph",
            lambda c, closed_by_above=False: replace(REAL_BUILD(c), arcs=()),
            "node 0 has degree 0, expected 1",
        ),
        ("tightness_check", lambda g: False, "a minimal same-line arc misses its puncture"),
        # a closing that adds no closure arcs
        ("close_by_above", lambda g: replace(g, closed=True), "closed graph: node 0 has degree 1"),
        ("component_count", lambda g: len(g.arcs), "closing by above changed the component count"),
        (
            "zone_noninterleaving",
            lambda g: not g.closed,
            "closed graph: interleaving arcs inside one zone",
        ),
    ],
    ids=["degree", "tightness", "closed-degree", "component-count", "closed-interleaving"],
)
def test_structure_audit_names_each_fault(monkeypatch, name, fake, message):
    assert check_structure(ONE_STRAND) is None
    monkeypatch.setattr(diagram, name, fake)
    assert check_structure(ONE_STRAND) == message


@pytest.mark.parametrize(
    "module, name, fake, message",
    [
        (coords, "sym_v", lambda c: replace(c, a=(1, 1)), "a mirror map is not an involution"),
        (coords, "sym_c", lambda c: c, "mirror maps do not commute into the half-turn"),
        (diagram, "is_actual", lambda c: c.a[0] == 0, "connectivity not invariant under a mirror"),
    ],
    ids=["involution", "half-turn", "connectivity"],
)
def test_symmetry_audit_names_each_fault(monkeypatch, module, name, fake, message):
    c = coords.validate(2, (0, 0, 1, 0, 0))  # its vertical mirror has offsets (1, 1)
    assert check_symmetry(c) is None
    monkeypatch.setattr(module, name, fake)
    assert check_symmetry(c) == message
