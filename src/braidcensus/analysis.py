"""Bounds, witnesses, and asymptotic diagnostics around the census.

The exact sandwich, valid for every n >= 2 and k >= 0:

    C(k+n-2, n-2)  <=  g(n, k)  <=  2^n ((k+n-1)/(n-1))^(n-2) C(k+n-2, n-2)

with the upper bound kept as an exact rational so the comparison can never
be a float artifact.  The witness rule

    a_i = s_{i-1}  if s_{i-1} <= s_i,   a_i = s_i + 1  otherwise

turns any interior s-vector into a connected tuple, which is what makes
the lower bound tick (one connected tuple per composition).

Ratio series expose g(n, k) / k^(2(n-2)) and the (k+n)-shifted variant,
tagged with a configurable residue class of k for cluster inspection
(defaults: k mod 6 for n = 4, k mod 2 for n = 5).  For n = 3 the series
also carries pi^2 g / k^2, which approaches 8 over even k and 4 over odd
k.  Ratios are diagnostics; nothing asymptotic is asserted here.

Pure computations; census-backed series delegate any parallelism to the
census module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import census as census_mod
from .closedform import series
from .coords import SVector, VirtualCoordinates, count_s_vectors
from .diagram import is_actual


def lower_bound(n: int, k: int) -> int:
    """Compositions of k into n-1 parts; each yields one connected tuple."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    return count_s_vectors(n, k)


def upper_bound(n: int, k: int) -> Fraction:
    """2^n ((k+n-1)/(n-1))^(n-2) C(k+n-2, n-2), exact."""
    if n < 2 or k < 0:
        raise ValueError(f"need n >= 2 and k >= 0, got n={n}, k={k}")
    return Fraction(
        2**n * (k + n - 1) ** (n - 2) * math.comb(k + n - 2, n - 2),
        (n - 1) ** (n - 2),
    )


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    lower: int
    g: int | None
    upper: Fraction
    verdict: bool | None

    @staticmethod
    def build(n: int, k: int, g: int | None) -> "BoundReport":
        lo = lower_bound(n, k)
        hi = upper_bound(n, k)
        verdict = None if g is None else (lo <= g and g <= hi)
        return BoundReport(n=n, k=k, lower=lo, g=g, upper=hi, verdict=verdict)


def bounds_table(
    n: int,
    kmax: int,
    *,
    with_census: bool = False,
    threads: int | None = None,
    cache: "census_mod.CensusCache | None" = None,
) -> list[BoundReport]:
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if kmax < 0:
        raise ValueError(f"need kmax >= 0, got {kmax}")
    if with_census:
        records = census_mod.count_table(n, kmax, threads=threads, cache=cache)
        return [BoundReport.build(n, r.k, r.g) for r in records]
    return [BoundReport.build(n, k, None) for k in range(kmax + 1)]


def witness_a_for_s(sv: SVector, verify: bool = True) -> VirtualCoordinates:
    """The canonical connected tuple over an interior s-vector.

    With verify (the default), the connectivity claim is checked against
    the diagram reconstruction instead of being trusted.
    """
    s = sv.full()
    a = tuple(
        s[i - 1] if s[i - 1] <= s[i] else s[i] + 1 for i in range(1, sv.n + 1)
    )
    c = VirtualCoordinates(n=sv.n, s=s, a=a)
    if verify and not is_actual(c):
        raise AssertionError(f"witness construction produced a disconnected tuple {c}")
    return c


DEFAULT_RESIDUE = {4: 6, 5: 2}


@dataclass(frozen=True)
class RatioPoint:
    n: int
    k: int
    g: int
    ratio_k: float
    ratio_shift: float
    residue: int
    pi2_scaled: float | None = None  # pi^2 g / k^2, emitted for n = 3 only


RATIO_SOURCES = ("census", "closedform")


def ratio_series(
    n: int,
    kmax: int,
    *,
    source: str = "census",
    rho: int | None = None,
    threads: int | None = None,
    cache: "census_mod.CensusCache | None" = None,
) -> list[RatioPoint]:
    """Ratio points for k = 1 .. kmax from the census or the closed forms."""
    if source not in RATIO_SOURCES:
        raise ValueError(f"source must be one of {RATIO_SOURCES}, got {source!r}")
    if source == "closedform" and n not in (2, 3):
        raise ValueError(f"closed forms exist only for n in (2, 3), got n={n}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if rho is None:
        rho = DEFAULT_RESIDUE.get(n, 2)
    if rho < 1:
        raise ValueError(f"residue modulus must be >= 1, got {rho}")
    if kmax < 0:
        raise ValueError(f"need kmax >= 0, got {kmax}")
    if source == "closedform":
        values = series(f"G{n}", kmax).coefficients
    else:
        records = census_mod.count_table(n, kmax, threads=threads, cache=cache)
        values = [r.g for r in records]
    power = 2 * (n - 2)
    points = []
    for k in range(1, kmax + 1):
        g = values[k]
        point = RatioPoint(
            n=n,
            k=k,
            g=g,
            ratio_k=g / k**power,
            ratio_shift=g / (k + n) ** power,
            residue=k % rho,
            pi2_scaled=(math.pi**2 * g / k**2) if n == 3 else None,
        )
        points.append(point)
    return points


def ratios_csv(points: list[RatioPoint]) -> str:
    lines = ["n,k,g,ratio_k,ratio_shift,residue"]
    for p in points:
        lines.append(
            f"{p.n},{p.k},{p.g},{p.ratio_k!r},{p.ratio_shift!r},{p.residue}"
        )
    return "\n".join(lines) + "\n"
