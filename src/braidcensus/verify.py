"""Self-check suites behind the CLI verify subcommand.

Each suite is a generator over a bounded search space: it yields None for
a check that passes, or a message naming the counterexample.  run_suite is
the one driver.  It counts the checks, keeps the first MAX_FAILURES
messages and stops there, and returns a plain dict the CLI serialises
directly.
"""

from __future__ import annotations

import inspect
import random
from typing import Callable, Iterator

from . import analysis, census, closedform, coords, diagram, perms

MAX_FAILURES = 5
FUZZ_TRIALS = 10_000
FUZZ_NMAX = 8
BOUNDS_NS = (2, 3, 4, 5)
PRUNE_NMAX = 5

Checks = Iterator[str | None]


def _census_table(
    n: int, kmax: int, threads: int | None, prune: bool = False
) -> list[int]:
    """g(n, k) for k = 0 .. kmax from one table."""
    records = census.count_table(n, kmax, threads=threads, prune=prune)
    return [r.g for r in records]


def verify_b2(kmax: int = 200, threads: int | None = None) -> Checks:
    """Census on 2 strands against the constant closed form."""
    for k, got in enumerate(_census_table(2, kmax, threads)):
        want = closedform.g2(k)
        yield None if got == want else f"g(2,{k}) census={got} closedform={want}"


def verify_b3_closed_form(kmax: int = 30, threads: int | None = None) -> Checks:
    """Triple agreement of the 3-strand evaluators, plus the census."""
    table = closedform.totient_sieve(kmax + 2)
    for k, via_census in enumerate(_census_table(3, kmax, threads)):
        via_totient = closedform.g3_totient(k, table)
        via_c = closedform.g3_via_c(k)
        via_gamma = closedform.g3_via_gamma(k, table)
        yield None if via_totient == via_c == via_gamma == via_census else (
            f"g(3,{k}): totient={via_totient} pairs={via_c} "
            f"gamma={via_gamma} census={via_census}"
        )


def verify_cyclicity(nmax: int = 40) -> Checks:
    """gcd criteria against orbit counting, exhaustively up to modulus nmax."""
    for n in range(1, nmax + 1):
        for a in range(n + 1):
            fast = perms.is_cyclic_translation(n, a)
            slow = perms.orbit_count(perms.Translation(n, a)) == 1
            yield None if fast == slow else f"T({n},{a}): gcd says {fast}, orbits say {slow}"
        for a in range(n + 1):
            for b in range(n - a + 1):
                for c in range(n - a - b + 1):
                    fast = perms.is_cyclic_translated_cut(n, a, b, c)
                    slow = perms.orbit_count(perms.TranslatedCut(n, a, b, c)) == 1
                    yield None if fast == slow else (
                        f"TCut({n},{a},{b},{c}): gcd says {fast}, orbits say {slow}"
                    )


def verify_theta_bridge(kmax: int = 20) -> Checks:
    """Cyclic orbit map iff connected tuple, for every reduced 3-strand case."""
    for k in range(1, kmax + 1):
        for ell in range(k + 1, kmax + 1):
            for a2 in range(2 * k + 2):
                for a3 in (0, 1):
                    regime = perms.B3Regime(k=k, ell=ell, a2=a2, a3=a3)
                    perm = perms.theta(regime)
                    cyclic = perm is not None and perms.orbit_count_of(perm) == 1
                    fast = perms.theta_is_cyclic(regime)
                    c = coords.validate(3, (0, 1, k, a2, ell, a3, 0))
                    actual = diagram.is_actual(c)
                    yield None if cyclic == fast == actual else (
                        f"{c}: orbit map cyclic={cyclic} gcd={fast} connected={actual}"
                    )


def verify_bounds(kmax: int = 10, threads: int | None = None) -> Checks:
    """Sandwich bounds on censused counts, exact arithmetic."""
    for n in BOUNDS_NS:
        for r in analysis.bounds_table(n, kmax, with_census=True, threads=threads):
            yield None if r.verdict else f"g({n},{r.k})={r.g} outside [{r.lower}, {r.upper}]"


def _fuzz(check: Callable, kmax: int, seed: int) -> Checks:
    """Run check on seeded random tuples, naming each failing tuple."""
    rng = random.Random(seed)
    for _ in range(FUZZ_TRIALS):
        n = rng.randint(1, FUZZ_NMAX)
        k = rng.randint(0, kmax)
        c = coords.random_coordinates(rng, n, k)
        problem = check(c)
        yield f"{c}: {problem}" if problem else None


def verify_witnesses(kmax: int = 30) -> Checks:
    """Witness construction yields a connected tuple on random s-vectors."""
    return _fuzz(_check_witness, kmax, 20240601)


def _check_witness(c: coords.VirtualCoordinates) -> str | None:
    w = analysis.witness_a_for_s(coords.SVector(n=c.n, s=c.s[1:-1]), verify=False)
    if diagram.is_actual(w):
        return None
    return f"witness construction produced a disconnected tuple {w}"


def verify_tightness(kmax: int = 20) -> Checks:
    """Structural invariants of reconstructed graphs on fuzzed tuples.

    Checks endpoint degrees, puncture placement on minimal same-line arcs,
    per-zone non-interleaving, and that closing by above never changes the
    component count.
    """
    return _fuzz(check_structure, kmax, 20240602)


def check_structure(c: coords.VirtualCoordinates) -> str | None:
    """One fuzzed tuple's structural audit; None when everything holds."""
    g = diagram.build_arc_graph(c)
    degrees = g.degrees()
    ends = (g.node(0, 1), g.node(c.n, 1))
    for v, d in enumerate(degrees):
        want = 1 if v in ends else 2
        if d != want:
            return f"node {v} has degree {d}, expected {want}"
    if not diagram.tightness_check(g):
        return "a minimal same-line arc misses its puncture"
    if not diagram.zone_noninterleaving(g):
        return "interleaving arcs inside one zone"
    closed = diagram.close_by_above(g)
    for v, d in enumerate(closed.degrees()):
        if d != 2:
            return f"closed graph: node {v} has degree {d}"
    if diagram.component_count(g) != diagram.component_count(closed):
        return "closing by above changed the component count"
    if not diagram.zone_noninterleaving(closed):
        return "closed graph: interleaving arcs inside one zone"
    return None


def verify_symmetry(kmax: int = 20) -> Checks:
    """Mirror maps: involutions, commutation, connectivity invariance."""
    return _fuzz(check_symmetry, kmax, 20240603)


def check_symmetry(c: coords.VirtualCoordinates) -> str | None:
    h = coords.sym_h(c)
    v = coords.sym_v(c)
    coords.validate(c.n, h.raw())
    coords.validate(c.n, v.raw())
    if coords.sym_h(h) != c or coords.sym_v(v) != c:
        return "a mirror map is not an involution"
    if coords.sym_h(v) != coords.sym_v(h) or coords.sym_h(v) != coords.sym_c(c):
        return "mirror maps do not commute into the half-turn"
    actual = diagram.is_actual(c)
    if diagram.is_actual(h) != actual or diagram.is_actual(v) != actual:
        return "connectivity not invariant under a mirror"
    return None


def verify_prune_consistency(kmax: int = 8, threads: int | None = None) -> Checks:
    """Pruned census equals plain census on a grid of (n, k)."""
    for n in range(1, PRUNE_NMAX + 1):
        plains = _census_table(n, kmax, threads)
        pruneds = _census_table(n, kmax, threads, prune=True)
        for k, (plain, pruned) in enumerate(zip(plains, pruneds)):
            yield None if plain == pruned else f"g({n},{k}): plain={plain} pruned={pruned}"


SUITES: dict[str, Callable[..., Checks]] = {
    "b2": verify_b2,
    "b3-closed-form": verify_b3_closed_form,
    "cyclicity": verify_cyclicity,
    "theta-bridge": verify_theta_bridge,
    "bounds": verify_bounds,
    "witnesses": verify_witnesses,
    "tightness": verify_tightness,
    "symmetry": verify_symmetry,
    "prune-consistency": verify_prune_consistency,
}


def run_suite(name: str, kmax: int | None = None, threads: int | None = None) -> dict:
    """Run one suite: count its checks and keep the first MAX_FAILURES messages.

    kmax goes to the suite's first parameter, its size bound, and threads
    only to the suites that take it.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    suite = SUITES[name]
    params = inspect.signature(suite).parameters
    kwargs = {}
    if kmax is not None:
        size = next(iter(params))
        if kmax < 0:
            raise ValueError(f"suite {name!r} needs {size} >= 0, got {kmax}")
        kwargs[size] = kmax
    if threads is not None and "threads" in params:
        kwargs["threads"] = threads
    checked = 0
    failures: list[str] = []
    for problem in suite(**kwargs):
        checked += 1
        if problem:
            failures.append(problem)
            if len(failures) == MAX_FAILURES:
                break
    return {"suite": name, "ok": not failures, "checked": checked, "failures": failures}
