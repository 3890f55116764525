"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The census-heavy
criteria share one session cache so each g(n, k) is computed once.
"""

import math
import random
import time
from collections import Counter

import pytest

from braidcensus.analysis import lower_bound, upper_bound, witness_a_for_s
from braidcensus.census import CensusCache, count_actual, count_table
from braidcensus.closedform import (
    g2,
    g3_totient,
    g3_via_c,
    g3_via_gamma,
    phi_hat,
    totient_sieve,
)
from braidcensus.coords import SVector, a_range_size, random_coordinates, validate
from braidcensus.diagram import is_actual
from braidcensus.perms import B3Regime, c_pair, orbit_count, theta, Translation, TranslatedCut
from braidcensus.verify import check_structure, check_symmetry


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def acceptance_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("census") / "acceptance.jsonl"
    return CensusCache(str(path))


@pytest.fixture(scope="session")
def g4_table(acceptance_cache):
    return {r.k: r.g for r in count_table(4, 40, cache=acceptance_cache)}


@pytest.fixture(scope="session")
def g5_table(acceptance_cache):
    return {r.k: r.g for r in count_table(5, 16, cache=acceptance_cache)}


def test_criterion_01_two_strand_oracle():
    started = time.perf_counter()
    bad = [
        k
        for k in range(201)
        if count_actual(2, k, threads=1).g != g2(k)
    ]
    elapsed = time.perf_counter() - started
    report(
        1,
        not bad and elapsed < 1.0,
        f"census g(2,k) equals the closed form for k <= 200 "
        f"(mismatches: {bad or 'none'}, {elapsed:.2f}s)",
    )


def test_criterion_02_three_strand_triple_agreement():
    started = time.perf_counter()
    table = totient_sieve(40)
    bad = []
    for k in range(31):
        values = {
            "census": count_actual(3, k, threads=1).g,
            "totient": g3_totient(k, table),
            "pairs": g3_via_c(k),
            "gamma": g3_via_gamma(k, table),
        }
        if len(set(values.values())) != 1:
            bad.append((k, values))
    elapsed = time.perf_counter() - started
    report(
        2,
        not bad and elapsed < 120.0,
        f"four evaluators agree on g(3,k) for k <= 30 "
        f"(mismatches: {bad or 'none'}, {elapsed:.2f}s single-threaded)",
    )


def test_criterion_03_pair_count_oracle():
    bad = []
    for k in range(26):
        for ell in range(k, 26):
            brute = sum(
                1
                for a1 in range(a_range_size(0, k))
                for a2 in range(a_range_size(k, ell))
                for a3 in range(a_range_size(ell, 0))
                if is_actual(validate(3, (0, a1, k, a2, ell, a3, 0)))
            )
            if brute != c_pair(k, ell):
                bad.append((k, ell, brute, c_pair(k, ell)))
    report(
        3,
        not bad,
        f"pair-count formula equals the diagram brute force for k,l <= 25 "
        f"(mismatches: {bad or 'none'})",
    )


def test_criterion_04_cyclicity_lemmas():
    bad = []
    checked = 0
    for n in range(1, 41):
        for a in range(n + 1):
            checked += 1
            if (math.gcd(a, n) == 1) != (orbit_count(Translation(n, a)) == 1):
                bad.append(("T", n, a))
        for a in range(n + 1):
            for b in range(n - a + 1):
                for c in range(n - a - b + 1):
                    checked += 1
                    fast = math.gcd(c - 1, b + 1) == 1
                    if fast != (orbit_count(TranslatedCut(n, a, b, c)) == 1):
                        bad.append(("TCut", n, a, b, c))
    report(
        4,
        not bad,
        f"gcd criteria match orbit counts on {checked} permutations, n <= 40 "
        f"(mismatches: {bad or 'none'})",
    )


def test_criterion_05_theta_bridge():
    bad = []
    checked = 0
    for k in range(1, 21):
        for ell in range(k + 1, 21):
            for a2 in range(2 * k + 2):
                for a3 in (0, 1):
                    checked += 1
                    perm = theta(B3Regime(k=k, ell=ell, a2=a2, a3=a3))
                    cyclic = perm is not None and len(
                        set(_orbit_reps(perm))
                    ) == 1
                    actual = is_actual(validate(3, (0, 1, k, a2, ell, a3, 0)))
                    if cyclic != actual:
                        bad.append((k, ell, a2, a3, cyclic, actual))
    report(
        5,
        not bad,
        f"orbit-map cyclicity equals diagram connectivity on {checked} cases, "
        f"k < l <= 20 (mismatches: {bad[:3] or 'none'})",
    )


def _orbit_reps(perm):
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        u = start
        while not seen[u]:
            seen[u] = True
            u = perm[u]
        yield start


def test_criterion_06_bounds_sandwich(g4_table, g5_table):
    bad = []
    for n, table in ((4, g4_table), (5, g5_table)):
        for k, g in table.items():
            if not (lower_bound(n, k) <= g and g <= upper_bound(n, k)):
                bad.append((n, k, g))
    report(
        6,
        not bad,
        f"binomial lower and exact-rational upper bounds hold for "
        f"(n=4, k <= 40) and (n=5, k <= 16) (violations: {bad or 'none'})",
    )


def test_criterion_07_witness_construction():
    rng = random.Random(52_2024)
    failures = 0
    for _ in range(10_000):
        n = rng.randint(1, 8)
        k = rng.randint(0, 30)
        interior = random_coordinates(rng, n, k).s[1:-1]
        c = witness_a_for_s(SVector(n=n, s=interior), verify=False)
        if not is_actual(c):
            failures += 1
    report(
        7,
        failures == 0,
        f"witness offsets yield connected tuples on 10^4 random s-vectors "
        f"(failures: {failures})",
    )


def test_criterion_08_reference_ratio_regression(g4_table, g5_table):
    # Reference counts from the braid-side oracle (tests/braid_oracle.py),
    # which counts braids through Artin's action on a free group and shares
    # no code with the census engine.  Its counts are lower bounds:
    #   python tests/braid_oracle.py 4 17 0  ->  g(4,17) >= 8518 (same at slack 1)
    #   python tests/braid_oracle.py 5 16 5  ->  g(5,16) >= 129226
    # They refute the ratios of an earlier dataset, 0.0788305 and 0.00414276,
    # which imply g(4,17) = 6584 and g(5,16) = 69504; see README.
    want4, want5 = 8518, 129226
    ratio4 = g4_table[17] / 17**4
    ratio5 = g5_table[16] / 16**6
    ok4 = abs(ratio4 - want4 / 17**4) <= 1e-5 and g4_table[17] == want4
    ok5 = abs(ratio5 - want5 / 16**6) <= 1e-5 and g5_table[16] == want5
    report(
        8,
        ok4 and ok5,
        f"reference ratios reproduced: g(4,17)/17^4 = {ratio4:.7f} "
        f"(g(4,17) = {g4_table[17]}, want {want4}/17^4 = {want4 / 17**4:.7f}), "
        f"g(5,16)/16^6 = {ratio5:.8f} "
        f"(g(5,16) = {g5_table[16]}, want {want5}/16^6 = {want5 / 16**6:.8f})",
    )


def test_criterion_09_three_strand_asymptotics():
    table = totient_sieve(1002)
    even = math.pi**2 * g3_totient(1000, table) / 1000**2
    odd = math.pi**2 * g3_totient(999, table) / 999**2
    ok = abs(even - 8) / 8 < 0.03 and abs(odd - 4) / 4 < 0.03
    report(
        9,
        ok,
        f"pi^2 g(3,k)/k^2 = {even:.4f} at k=1000 (within 3% of 8) and "
        f"{odd:.4f} at k=999 (within 3% of 4)",
    )


def test_criterion_10_totient_identities():
    table = totient_sieve(100_000)
    hat = phi_hat(40_002, table)
    bad = [
        k
        for k in range(1, 10_001)
        if hat[4 * k] != 2 * hat[2 * k] + hat[2 * k - 1]
        or hat[4 * k + 2] != 2 * hat[2 * k] + hat[2 * k + 1]
    ]
    n = 100_000
    summatory = table.summatory(n)
    target = 3 * n**2 / math.pi**2
    rel = abs(summatory - target) / target
    report(
        10,
        not bad and rel < 0.02,
        f"partial-sum doubling identities hold for k <= 10^4 "
        f"(violations: {bad[:3] or 'none'}); summatory totient at N=10^5 is "
        f"{summatory} vs 3N^2/pi^2 = {target:.0f} (relative gap {rel:.4f} < 0.02)",
    )


def test_criterion_11_structural_properties(acceptance_cache):
    rng = random.Random(11_2024)

    def audit(check):
        # check is a pure function of the tuple, and about a fifth of the
        # draws are distinct, so each distinct tuple is audited once and its
        # verdict counted for every draw of it
        draws = Counter()
        for _ in range(100_000):
            n = rng.randint(1, 6)
            k = rng.randint(0, 8)
            draws[random_coordinates(rng, n, k)] += 1
        return sum(m for c, m in draws.items() if check(c) is not None), len(draws)

    structure_bad, structure_distinct = audit(check_structure)
    sym_bad, sym_distinct = audit(check_symmetry)
    prune_bad = []
    for n in range(1, 6):
        plains = count_table(n, 12, cache=acceptance_cache)
        pruneds = count_table(n, 12, prune=True)
        prune_bad += [(n, p.k, p.g, q.g) for p, q in zip(plains, pruneds) if p.g != q.g]
    report(
        11,
        structure_bad == 0 and sym_bad == 0 and not prune_bad,
        f"10^5 fuzzed tuples ({structure_distinct} distinct) pass "
        f"degree/tightness/non-interleaving checks (failures: {structure_bad}), "
        f"10^5 ({sym_distinct} distinct) pass mirror-invariance "
        f"(failures: {sym_bad}), pruned census equals plain for n <= 5, "
        f"k <= 12 (mismatches: {prune_bad or 'none'})",
    )
