import random

from braidcensus import analysis, closedform, coords, diagram, perms
from braidcensus.verify import MAX_FAILURES, run_suite


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
