import math

import pytest

from braidcensus.closedform import (
    coprime_pair_count,
    f_half_totient,
    g2,
    g3_totient,
    g3_via_c,
    g3_via_gamma,
    gamma_term,
    phi_hat,
    series,
    totient_sieve,
)


def is_prime(m):
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


class TestTotient:
    def test_spot_values(self, phi_2000):
        assert phi_2000[1] == 1
        assert phi_2000[6] == 2
        assert phi_2000[12] == 4

    def test_primes(self, phi_2000):
        for p in range(2, 200):
            if is_prime(p):
                assert phi_2000[p] == p - 1

    def test_definition_small(self, phi_2000):
        for m in range(1, 120):
            assert phi_2000[m] == sum(1 for r in range(1, m + 1) if math.gcd(r, m) == 1)

    def test_multiplicative_on_coprime_pairs(self, phi_2000, rng):
        for _ in range(200):
            a = rng.randint(2, 40)
            b = rng.randint(2, 40)
            if math.gcd(a, b) == 1:
                assert phi_2000[a * b] == phi_2000[a] * phi_2000[b]

    def test_capacity_errors(self, phi_2000):
        with pytest.raises(IndexError):
            phi_2000[2001]
        with pytest.raises(IndexError):
            phi_2000[0]


class TestG2:
    def test_values(self):
        assert g2(0) == 1
        assert g2(5) == 2
        assert g2(10**6) == 2


class TestG3:
    def test_frozen_prefix(self, phi_2000):
        # 1, 4, 10, 16, 26, 28, 54: worked out by hand from the formula
        want = [1, 4, 10, 16, 26, 28, 54]
        assert [g3_totient(k, phi_2000) for k in range(7)] == want

    def test_gamma_terms(self, phi_2000):
        assert gamma_term(0, phi_2000) == 1
        assert gamma_term(1, phi_2000) == 4
        assert gamma_term(4, phi_2000) == 16
        assert g3_via_gamma(4, phi_2000) == 26

    def test_pair_sum_route(self):
        assert g3_via_c(0) == 1
        assert g3_via_c(1) == 4
        assert g3_via_c(2) == 10

    def test_triple_agreement(self, phi_2000):
        for k in range(501):
            a = g3_totient(k, phi_2000)
            assert a == g3_via_c(k) == g3_via_gamma(k, phi_2000), k


class TestSeries:
    def test_g2_series(self):
        assert series("G2", 6).coefficients == (1, 2, 2, 2, 2, 2, 2)

    def test_g3_matches_evaluator(self, phi_2000):
        table = series("G3", 200)
        for k in range(201):
            assert table[k] == g3_totient(k, phi_2000), k

    def test_b2_reindexing(self):
        table = series("B2", 11)
        for k in range(5):
            assert table[2 * k + 1] == g2(k)
        assert all(table[2 * k] == 0 for k in range(6))

    def test_b3_examples(self):
        table = series("B3", 10)
        assert table[2] == 1
        assert table[4] == 4

    def test_b3_reindexing(self):
        g3 = series("G3", 40)
        b3 = series("B3", 83)
        for k in range(41):
            assert b3[2 * k + 2] == g3[k]
        assert b3[0] == 0
        assert all(b3[j] == 0 for j in range(1, 84, 2))

    @pytest.mark.parametrize("kmax", range(6))
    def test_short_g3_and_b3(self, kmax):
        # kmax <= 2 is where F's lowest term z^3 and the -3z^2 tail meet the cut
        g3 = series("G3", kmax).coefficients
        assert g3 == tuple(g3_totient(k) for k in range(kmax + 1))
        b3 = series("B3", 2 * kmax + 2).coefficients
        assert b3[2::2] == g3
        assert b3[0] == 0 and not any(b3[1::2])

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            series("G4", 5)


class TestCoprimePairSeries:
    def test_examples(self):
        table = f_half_totient(10)
        assert table[3] == 2
        assert table[4] == 2
        assert table[7] == 6

    def test_against_pair_oracle(self, phi_2000):
        table = f_half_totient(2000)
        for m in range(3, 2001):
            assert table[m] == 2 * coprime_pair_count(m) == phi_2000[m], m


class TestPhiHat:
    def test_small_values(self, phi_2000):
        hat = phi_hat(10, phi_2000)
        assert hat[1] == 1          # phi(1)
        assert hat[2] == 1          # phi(2)
        assert hat[3] == 3          # phi(3) + phi(1)
        assert hat[4] == 3          # phi(4) + phi(2)
        assert hat[5] == 7          # phi(5) + phi(3) + phi(1)

    def test_doubling_identities(self, phi_2000):
        hat = phi_hat(2000, phi_2000)
        for k in range(1, 500):
            assert hat[4 * k] == 2 * hat[2 * k] + hat[2 * k - 1], k
            assert hat[4 * k + 2] == 2 * hat[2 * k] + hat[2 * k + 1], k


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: totient_sieve(5).summatory(6), IndexError, id="summatory-beyond"),
        pytest.param(lambda: totient_sieve(0), ValueError, id="totient_sieve-0"),
        pytest.param(lambda: g2(-1), ValueError, id="g2"),
        pytest.param(lambda: g3_totient(-1), ValueError, id="g3_totient"),
        pytest.param(lambda: g3_via_c(-1), ValueError, id="g3_via_c"),
        pytest.param(lambda: gamma_term(-1), ValueError, id="gamma_term"),
        pytest.param(lambda: g3_via_gamma(-1), ValueError, id="g3_via_gamma"),
        pytest.param(lambda: series("G2", -1), ValueError, id="series"),
        pytest.param(lambda: f_half_totient(2), ValueError, id="f_half_totient"),
        pytest.param(lambda: phi_hat(-1), ValueError, id="phi_hat"),
    ],
)
def test_bad_arguments_are_rejected(call, error):
    with pytest.raises(error):
        call()
