"""Translations and translated cuts on Z_n, and the 3-strand reduction.

For coordinates (0, a1, k, a2, l, a3, 0) with 1 <= k < l and a1 = 1, the
question "is this tuple connected" reduces to "is an explicit permutation
of Z_{l+1} a single cycle".  That permutation is either a translation
T(n, a): u -> u - a, or a translated cut: a block swap followed by the
shift u -> u - 1.  Cyclicity has gcd criteria:

    T(n, a)            cyclic  iff  gcd(a, n) == 1
    TCut(n, a, b, c)   cyclic  iff  gcd(c - 1, b + 1) == 1

with gcd taken on absolute values and gcd(0, x) = |x| (math.gcd's
convention).  Each criterion is stated once, in is_cyclic_translation and
is_cyclic_translated_cut; theta_is_cyclic applies them to theta_spec, the
one description of the 3-strand orbit map.  Orbit counting by explicit
traversal serves as the oracle for both criteria.  b3_actual checks its
tuple with coords.validate, the one implementation of the admissibility
rule.  Everything here is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coords import sym_v, validate


@dataclass(frozen=True)
class Translation:
    """u -> u - a on Z_n."""

    n: int
    a: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be >= 1, got {self.n}")
        if not 0 <= self.a <= self.n:
            raise ValueError(f"need 0 <= a <= n, got a={self.a}, n={self.n}")


@dataclass(frozen=True)
class TranslatedCut:
    """Swap the blocks [a, a+b) and [a+b, a+b+c), then shift by -1.

    The underlying cut maps u to u+c on the first block, u-b on the second,
    and fixes everything else.
    """

    n: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be >= 1, got {self.n}")
        if min(self.a, self.b, self.c) < 0:
            raise ValueError("cut parameters must be non-negative")
        if self.a + self.b + self.c > self.n:
            raise ValueError(
                f"need a + b + c <= n, got {self.a}+{self.b}+{self.c} > {self.n}"
            )


PermSpec = Translation | TranslatedCut


def apply(spec: PermSpec, u: int) -> int:
    """Image of residue u (0 <= u < n) under the permutation."""
    if not 0 <= u < spec.n:
        raise ValueError(f"residue {u} out of range for modulus {spec.n}")
    if isinstance(spec, Translation):
        return (u - spec.a) % spec.n
    a, b, c = spec.a, spec.b, spec.c
    if a <= u < a + b:
        cut = u + c
    elif a + b <= u < a + b + c:
        cut = u - b
    else:
        cut = u
    return (cut - 1) % spec.n


def as_permutation(spec: PermSpec) -> list[int]:
    """The permutation materialised as an image array."""
    return [apply(spec, u) for u in range(spec.n)]


def orbit_count(spec: PermSpec) -> int:
    """Number of cycles, by explicit traversal (the brute-force oracle)."""
    return orbit_count_of(as_permutation(spec))


def orbit_count_of(perm: list[int]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        u = start
        while not seen[u]:
            seen[u] = True
            u = perm[u]
    return cycles


def is_cyclic_translation(n: int, a: int) -> bool:
    """gcd criterion for T(n, a) being a single cycle."""
    Translation(n, a)  # range checks
    return math.gcd(a, n) == 1


def is_cyclic_translated_cut(n: int, a: int, b: int, c: int) -> bool:
    """gcd criterion for TCut(n, a, b, c) being a single cycle."""
    TranslatedCut(n, a, b, c)  # range checks
    return math.gcd(c - 1, b + 1) == 1


@dataclass(frozen=True)
class B3Regime:
    """The reduced 3-strand case: tuple (0, 1, k, a2, l, a3, 0), 1 <= k < l.

    m = l - k >= 1; a2 ranges over 0..2k+1 and a3 over {0, 1}.  The
    half-offset a2/2 enters the cut parameters through its floor and
    ceiling, which theta_spec takes as integers.
    """

    k: int
    ell: int
    a2: int
    a3: int

    def __post_init__(self):
        if not 1 <= self.k < self.ell:
            raise ValueError(f"need 1 <= k < l, got k={self.k}, l={self.ell}")
        if not 0 <= self.a2 <= 2 * self.k + 1:
            raise ValueError(f"a2={self.a2} out of range 0..{2 * self.k + 1}")
        if self.a3 not in (0, 1):
            raise ValueError(f"a3 must be 0 or 1, got {self.a3}")

    @property
    def m(self) -> int:
        return self.ell - self.k


def theta_spec(r: B3Regime) -> PermSpec | None:
    """The orbit map of the regime as a permutation spec.

    Returns None in the a2 > 0, a3 = 1 case, where 0 is a fixed point and
    the map is never a single cycle (the modulus l+1 is at least 3).
    """
    k, m = r.k, r.m
    n = r.ell + 1
    if r.a2 == 0:
        return Translation(n, m + 1 - r.a3)
    if r.a3 == 1:
        return None
    if r.a2 <= k + 1:
        return TranslatedCut(n, (r.a2 + 1) // 2, m, k + 1 - r.a2)
    return TranslatedCut(n, k + 1 - r.a2 // 2, r.a2 - k - 1, m)


def theta(r: B3Regime) -> list[int] | None:
    """The orbit map materialised on Z_{l+1}, or None for the fixed-point case."""
    spec = theta_spec(r)
    return None if spec is None else as_permutation(spec)


def theta_is_cyclic(r: B3Regime) -> bool:
    """Single-cycle test via the gcd criteria; never materialises the map."""
    spec = theta_spec(r)
    if spec is None:
        return False
    if isinstance(spec, Translation):
        return is_cyclic_translation(spec.n, spec.a)
    return is_cyclic_translated_cut(spec.n, spec.a, spec.b, spec.c)


def b3_actual(k: int, ell: int, a1: int, a2: int, a3: int) -> bool:
    """Closed-form connectivity decision for (0, a1, k, a2, l, a3, 0).

    Covers all (k, l) by the case split: trivial and collapsed cases for
    k*l = 0 or k = l, the gcd criteria for 1 <= k < l with a1 = 1, the
    vertical mirror for a1 = 0, and tuple reversal for k > l.  Must agree
    with the diagram reconstruction on every input (tested exhaustively).
    """
    c = validate(3, (0, a1, k, a2, ell, a3, 0))  # CoordinateError, a ValueError
    if k > ell:
        return b3_actual(ell, k, a3, a2, a1)
    if ell == 0:
        return True  # k = l = 0: the all-zero tuple
    if k == 0:
        return (a2, a3) in ((0, 1), (1, 0))
    if k == ell:
        return (a1, a3) in ((0, 1), (1, 0))
    if a1 == 0:
        # vertical mirror onto the a1 = 1 branch; s is unchanged
        _, a2, a3 = sym_v(c).a
    return theta_is_cyclic(B3Regime(k=k, ell=ell, a2=a2, a3=a3))


def c_pair(k: int, ell: int) -> int:
    """Number of offset triples making (0, a1, k, a2, l, a3, 0) connected.

    Symmetric in (k, l).  For 0 < k < l with m = l - k:

        c_pair / 2 = sum_{t=1..k} [gcd(t, m+1) = 1] + [gcd(k+1, m) = 1]
                     + sum_{t=1..k+1} [gcd(t, m-1) = 1]
    """
    if k < 0 or ell < 0:
        raise ValueError(f"need k, l >= 0, got k={k}, l={ell}")
    if k > ell:
        k, ell = ell, k
    if ell == 0:
        return 1
    if k == 0:
        return 2
    if k == ell:
        return 2 * (2 * k + 1)
    m = ell - k
    half = sum(1 for t in range(1, k + 1) if math.gcd(t, m + 1) == 1)
    half += 1 if math.gcd(k + 1, m) == 1 else 0
    half += sum(1 for t in range(1, k + 2) if math.gcd(t, m - 1) == 1)
    return 2 * half
