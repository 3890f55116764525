import math

import pytest

from braidcensus.coords import CoordinateError, validate
from braidcensus.diagram import is_actual
from braidcensus.perms import (
    B3Regime,
    TranslatedCut,
    Translation,
    apply,
    as_permutation,
    b3_actual,
    c_pair,
    is_cyclic_translated_cut,
    is_cyclic_translation,
    orbit_count,
    orbit_count_of,
    theta,
    theta_is_cyclic,
    theta_spec,
)


def cycle_lengths(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        u = start
        while not seen[u]:
            seen[u] = True
            u = perm[u]
            length += 1
        out.append(length)
    return sorted(out)


class TestApply:
    def test_translation(self):
        assert apply(Translation(6, 3), 0) == 3

    def test_translated_cut_blocks(self):
        # underlying cut on Z_10 with blocks [2,5) and [5,9): 2 -> 6, 5 -> 2;
        # the trailing shift subtracts one
        tc = TranslatedCut(10, 2, 3, 4)
        assert apply(tc, 2) == 5
        assert apply(tc, 5) == 1

    def test_empty_swap_block_is_unit_shift(self):
        for n in range(1, 21):
            unit = as_permutation(Translation(n, 1))
            for a in range(n + 1):
                for b in range(n - a + 1):
                    assert as_permutation(TranslatedCut(n, a, b, 0)) == unit

    def test_always_bijective(self):
        for n in range(1, 12):
            for a in range(n + 1):
                assert sorted(as_permutation(Translation(n, a))) == list(range(n))
                for b in range(n - a + 1):
                    for c in range(n - a - b + 1):
                        perm = as_permutation(TranslatedCut(n, a, b, c))
                        assert sorted(perm) == list(range(n))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            apply(Translation(5, 2), 5)
        with pytest.raises(ValueError):
            TranslatedCut(5, 3, 2, 1)
        with pytest.raises(ValueError):
            Translation(5, 6)


class TestOrbits:
    def test_examples(self):
        assert orbit_count(Translation(6, 3)) == 3
        assert orbit_count(Translation(5, 2)) == 1
        assert orbit_count(Translation(4, 0)) == 4

    def test_translation_orbits_equal_gcd(self):
        for n in range(1, 25):
            for a in range(n + 1):
                assert orbit_count(Translation(n, a)) == math.gcd(a, n)


class TestCyclicity:
    def test_translation_examples(self):
        assert not is_cyclic_translation(6, 3)
        assert is_cyclic_translation(5, 2)
        assert is_cyclic_translation(1, 0)

    def test_cut_examples(self):
        for n in range(1, 10):
            for a in range(n + 1):
                for b in range(n - a + 1):
                    assert is_cyclic_translated_cut(n, a, b, 0)
        assert not is_cyclic_translated_cut(12, 0, 2, 4)
        assert is_cyclic_translated_cut(10, 3, 0, 5)

    def test_criteria_against_orbits_small(self):
        for n in range(1, 16):
            for a in range(n + 1):
                assert is_cyclic_translation(n, a) == (
                    orbit_count(Translation(n, a)) == 1
                )
                for b in range(n - a + 1):
                    for c in range(n - a - b + 1):
                        assert is_cyclic_translated_cut(n, a, b, c) == (
                            orbit_count(TranslatedCut(n, a, b, c)) == 1
                        )

    def test_cut_conjugate_to_unshifted(self):
        # sliding the cut start around never changes the cycle structure
        for n in range(1, 13):
            for a in range(n + 1):
                for b in range(n - a + 1):
                    for c in range(n - a - b + 1):
                        shifted = cycle_lengths(as_permutation(TranslatedCut(n, a, b, c)))
                        base = cycle_lengths(as_permutation(TranslatedCut(n, 0, b, c)))
                        assert shifted == base


class TestTheta:
    def test_translation_case(self):
        r = B3Regime(k=1, ell=2, a2=0, a3=0)
        assert theta_spec(r) == Translation(3, 2)
        assert theta_is_cyclic(r)

    def test_low_cut_case(self):
        r = B3Regime(k=3, ell=5, a2=3, a3=0)
        assert theta_spec(r) == TranslatedCut(6, 2, 2, 1)

    def test_high_cut_case(self):
        r = B3Regime(k=2, ell=3, a2=5, a3=0)
        assert theta_spec(r) == TranslatedCut(4, 1, 2, 1)

    def test_fixed_point_shortcut(self):
        r = B3Regime(k=2, ell=4, a2=3, a3=1)
        assert theta_spec(r) is None
        assert theta(r) is None
        assert not theta_is_cyclic(r)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            B3Regime(k=2, ell=2, a2=0, a3=0)
        with pytest.raises(ValueError):
            B3Regime(k=2, ell=3, a2=6, a3=0)
        with pytest.raises(ValueError):
            B3Regime(k=2, ell=3, a2=0, a3=2)

    def test_bridge_small(self):
        # cyclic orbit map <=> connected diagram, for every reduced case
        for k in range(1, 9):
            for ell in range(k + 1, 9):
                for a2 in range(2 * k + 2):
                    for a3 in (0, 1):
                        r = B3Regime(k=k, ell=ell, a2=a2, a3=a3)
                        perm = theta(r)
                        cyclic = perm is not None and orbit_count_of(perm) == 1
                        assert cyclic == theta_is_cyclic(r)
                        c = validate(3, (0, 1, k, a2, ell, a3, 0))
                        assert cyclic == is_actual(c), str(c)


class TestB3Actual:
    def test_trivial(self):
        assert b3_actual(0, 0, 0, 0, 0)

    def test_equal_heights_family(self):
        hits = [
            (a1, a2, a3)
            for a1 in (0, 1)
            for a2 in range(3)
            for a3 in (0, 1)
            if b3_actual(1, 1, a1, a2, a3)
        ]
        assert len(hits) == 6  # 2 (2k+1) at k = 1
        assert all((a1, a3) in ((0, 1), (1, 0)) for a1, _, a3 in hits)

    def test_coprime_criterion_case(self):
        assert b3_actual(1, 2, 1, 0, 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            b3_actual(1, 2, 2, 0, 0)
        with pytest.raises(ValueError):
            b3_actual(0, 2, 1, 0, 0)

    def test_matches_diagram_exhaustively(self):
        from braidcensus.coords import a_range_size

        for k in range(7):
            for ell in range(7):
                for a1 in range(a_range_size(0, k)):
                    for a2 in range(a_range_size(k, ell)):
                        for a3 in range(a_range_size(ell, 0)):
                            c = validate(3, (0, a1, k, a2, ell, a3, 0))
                            assert b3_actual(k, ell, a1, a2, a3) == is_actual(c), str(c)


class TestCPair:
    def test_examples(self):
        assert c_pair(0, 0) == 1
        assert c_pair(2, 2) == 10
        assert c_pair(1, 2) == 6

    def test_symmetry(self):
        for k in range(12):
            for ell in range(12):
                assert c_pair(k, ell) == c_pair(ell, k)

    def test_against_diagram_brute_force(self):
        from braidcensus.coords import a_range_size

        for k in range(9):
            for ell in range(k, 9):
                brute = sum(
                    1
                    for a1 in range(a_range_size(0, k))
                    for a2 in range(a_range_size(k, ell))
                    for a3 in range(a_range_size(ell, 0))
                    if is_actual(validate(3, (0, a1, k, a2, ell, a3, 0)))
                )
                assert c_pair(k, ell) == brute, (k, ell)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: Translation(0, 0), ValueError, id="translation-modulus"),
        pytest.param(lambda: TranslatedCut(0, 0, 0, 0), ValueError, id="cut-modulus"),
        pytest.param(lambda: TranslatedCut(3, -1, 0, 0), ValueError, id="cut-negative"),
        pytest.param(lambda: is_cyclic_translation(3, 4), ValueError, id="translation-a"),
        pytest.param(lambda: is_cyclic_translation(0, 0), ValueError, id="translation-modulus-0"),
        pytest.param(lambda: c_pair(-1, 2), ValueError, id="c_pair"),
        # 3-strand tuples are checked by coords.validate
        pytest.param(lambda: b3_actual(-1, 2, 0, 0, 0), CoordinateError, id="b3_actual-k"),
    ],
)
def test_bad_arguments_are_rejected(call, error):
    with pytest.raises(error):
        call()


def test_reimport_releases_the_old_module():
    # a module-level typing.Union alias is kept by typing's cache, which
    # would keep every re-imported copy of the module alive
    import os
    import subprocess
    import sys

    import braidcensus

    src = os.path.dirname(os.path.dirname(braidcensus.__file__))
    script = (
        "import gc, sys, weakref\n"
        "import braidcensus.perms\n"
        "ref = weakref.ref(braidcensus.perms.Translation)\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'braidcensus']:\n"
        "    del sys.modules[name]\n"
        "del braidcensus\n"
        "import braidcensus.perms\n"
        "gc.collect()\n"
        "print('alive' if ref() is not None else 'released')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "released"
