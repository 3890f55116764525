"""Number-theoretic closed forms for the 2- and 3-strand counts.

The per-k counts and their generating functions:

    g2(k) = 1 if k = 0 else 2
    G2(z) = (1 + z) / (1 - z)
    B2(z) = z (1 + z^2) / (1 - z^2)

    g3(k) = [k=0] + 2 (phi(k+2) - [k even] + 2 sum_{i=1..k//2} phi(k+3-2i)) [k>=1]
    G3(z) = 2 (1 + 2z - z^2) / (z^2 (1 - z^2)) * sum_{n>=3} phi(n) z^n
            + (1 - 3 z^2) / (1 - z^2)
    B3(z) = z^2 G3(z^2),   B2(z) = z G2(z^2)

g3 has two independent re-derivations: summing the pair counts c_pair over
antidiagonals, and the expansion g3(k) = sum_{i} gamma(k - 2i) with

    gamma(i) = [i=0] - 3[i=2] + 2 phi(i+2) [i>=1] + 4 phi(i+1) [i>=2]
               - 2 phi(i) [i>=3].

All series arithmetic is exact integer arithmetic on truncated coefficient
lists: G3's numerator is read off term by term, and division by (1 - z^2)
is a two-step prefix recurrence, never a float.  Python integers are
unbounded, so no overflow handling is needed.

A note on the constant term: the closed form for G3 above is stated with
the + (1 - 3 z^2) / (1 - z^2) tail, which gives g3(0) = 1 (the trivial
braid).  The sign-flipped variant (-1 + 3 z^2) that appears in one
restatement fails that check and is rejected.

TotientTable instances are immutable after construction and freely shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .perms import c_pair


@dataclass(frozen=True)
class TotientTable:
    """phi(1) .. phi(capacity), exact, from a standard multiplicative sieve."""

    capacity: int
    values: tuple[int, ...]

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= self.capacity:
            raise IndexError(
                f"phi({m}) outside table capacity 1..{self.capacity}"
            )
        return self.values[m]

    def summatory(self, upto: int) -> int:
        """sum of phi(m) for 1 <= m <= upto."""
        if upto > self.capacity:
            raise IndexError(f"summatory bound {upto} exceeds capacity {self.capacity}")
        return sum(self.values[1 : upto + 1])


def totient_sieve(capacity: int) -> TotientTable:
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    phi = list(range(capacity + 1))
    for p in range(2, capacity + 1):
        if phi[p] == p:  # p prime
            for multiple in range(p, capacity + 1, p):
                phi[multiple] -= phi[multiple] // p
    return TotientTable(capacity=capacity, values=tuple(phi))


def _totients(table: TotientTable | None, capacity: int) -> TotientTable:
    """table when it reaches capacity, else a fresh sieve up to capacity."""
    return table if table is not None and table.capacity >= capacity else totient_sieve(capacity)


def g2(k: int) -> int:
    """Braids on 2 strands with norm 2k + 1."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return 1 if k == 0 else 2


def g3_totient(k: int, table: TotientTable | None = None) -> int:
    """Braids on 3 strands with norm 2k + 2, by the totient formula."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 1
    phi = _totients(table, k + 2)
    acc = phi[k + 2] - (1 if k % 2 == 0 else 0)
    acc += 2 * sum(phi[k + 3 - 2 * i] for i in range(1, k // 2 + 1))
    return 2 * acc


def g3_via_c(k: int) -> int:
    """The same count as a sum of pair counts over one antidiagonal."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return sum(c_pair(i, k - i) for i in range(k + 1))


def gamma_term(i: int, table: TotientTable | None = None) -> int:
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    phi = _totients(table, i + 2)
    acc = 1 if i == 0 else 0
    acc -= 3 if i == 2 else 0
    if i >= 1:
        acc += 2 * phi[i + 2]
    if i >= 2:
        acc += 4 * phi[i + 1]
    if i >= 3:
        acc -= 2 * phi[i]
    return acc


def g3_via_gamma(k: int, table: TotientTable | None = None) -> int:
    """The same count via the gamma expansion."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    phi = _totients(table, k + 2)
    return sum(gamma_term(k - 2 * i, phi) for i in range(k // 2 + 1))


@dataclass(frozen=True)
class SeriesTable:
    """Exact integer coefficients of one series, index = power of z."""

    label: str
    coefficients: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.coefficients[k]


SERIES_LABELS = ("G2", "G3", "B2", "B3")


def series(label: str, kmax: int) -> SeriesTable:
    """Coefficients 0..kmax of one of the four closed-form series."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if label not in SERIES_LABELS:
        raise ValueError(f"unknown series label {label!r}; want one of {SERIES_LABELS}")
    family, n = label[0], int(label[1])
    coeffs = [g2(k) for k in range(kmax + 1)] if n == 2 else _g3_series(kmax)
    if family == "B":
        coeffs = _reindex_b(coeffs, n=n, kmax=kmax)
    return SeriesTable(label=label, coefficients=tuple(coeffs))


def _g3_series(kmax: int) -> list[int]:
    # G3(z) = (2 (1 + 2z - z^2) F(z) / z^2 + 1 - 3z^2) / (1 - z^2), F(z) = sum_{m>=3} phi(m) z^m
    f = f_half_totient(max(kmax + 2, 3))  # f[m] = phi(m) for m >= 3, 0 below
    tail = (1, 0, -3)
    coeffs = [
        2 * f[k + 2] + 4 * f[k + 1] - 2 * f[k] + (tail[k] if k < len(tail) else 0)
        for k in range(kmax + 1)
    ]
    for k in range(2, kmax + 1):  # divide by 1 - z^2: c_k += c_{k-2}
        coeffs[k] += coeffs[k - 2]
    return coeffs


def _reindex_b(g_coeffs: list[int], n: int, kmax: int) -> list[int]:
    # B_n(z) = z^(n-1) G_n(z^2): coefficient of z^(2k+n-1) is g_{n,k}
    out = [0] * (kmax + 1)
    for k, value in enumerate(g_coeffs):
        idx = 2 * k + n - 1
        if idx > kmax:
            break
        out[idx] = value
    return out


def f_half_totient(nmax: int) -> SeriesTable:
    """Doubled coefficients of the coprime-pair series, indices 3..nmax.

    The series sums z^(2u + v) over coprime pairs u, v >= 1; its n-th
    coefficient is phi(n)/2 for n >= 3, kept doubled here to stay integral.
    """
    if nmax < 3:
        raise ValueError(f"nmax must be >= 3, got {nmax}")
    phi = totient_sieve(nmax)
    coeffs = [0, 0, 0] + [phi[m] for m in range(3, nmax + 1)]
    return SeriesTable(label="2F", coefficients=tuple(coeffs))


def coprime_pair_count(n: int) -> int:
    """Brute-force oracle: pairs u, v >= 1 with 2u + v = n and gcd(u, v) = 1."""
    return sum(
        1 for u in range(1, (n - 1) // 2 + 1) if math.gcd(u, n - 2 * u) == 1
    )


def phi_hat(kmax: int, table: TotientTable | None = None) -> list[int]:
    """Alternating partial sums: phi_hat[k] = phi(k) + phi(k-2) + ... (down to 1 or 2).

    phi_hat[0] = 0.  These satisfy, for every k >= 1,
    phi_hat[4k] = 2 phi_hat[2k] + phi_hat[2k-1] and
    phi_hat[4k+2] = 2 phi_hat[2k] + phi_hat[2k+1].
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    phi = _totients(table, max(kmax, 1))
    out = [0] * (kmax + 1)
    for k in range(1, kmax + 1):
        out[k] = phi[k] + (out[k - 2] if k >= 2 else 0)
    return out
