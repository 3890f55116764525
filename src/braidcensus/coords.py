"""Integer coordinates of tight generalised curve diagrams on n strands.

A diagram on n strands meets the n-1 vertical reference lines L_1..L_{n-1}
in an odd number of points; writing 2*s_i + 1 for that count (and padding
with s_0 = s_n = 0 for the two endpoint markers) and recording one offset
a_i per vertical zone gives the interleaved tuple

    (s_0, a_1, s_1, a_2, ..., a_n, s_n).

A tuple is admissible ("virtual coordinates") exactly when

    s_0 = s_n = 0   and   0 <= a_i <= 2*min(s_{i-1}, s_i) + [s_{i-1} != s_i]

where [..] is 1 if the condition holds and 0 otherwise.  Every admissible
tuple is realised by a unique tight generalised diagram; the tuple belongs
to a braid exactly when that diagram is connected (see the diagram module).

interior_rows lists the interior s-vectors of each requested sum as plain
tuples, the census's work units; enumerate_s_vectors reads one such row and
wraps each entry in an SVector.

All values here are plain machine integers and all operations are pure,
so everything in this module is safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class CoordinateError(ValueError):
    """Raised for tuples violating the admissibility constraints.

    ``index`` is the position of the offending entry in the interleaved
    tuple (0-based), or None for dimension mismatches.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def a_range_size(s_left: int, s_right: int) -> int:
    """Number of admissible offsets for a zone between line counts s_left, s_right."""
    return 2 * min(s_left, s_right) + (1 if s_left != s_right else 0) + 1


@dataclass(frozen=True)
class VirtualCoordinates:
    """An admissible coordinate tuple, split into its s- and a-parts.

    s has length n+1 with s[0] == s[n] == 0; a has length n, a[i-1] being
    the offset of zone i.  Instances are immutable and hashable.
    """

    n: int
    s: tuple[int, ...]
    a: tuple[int, ...]

    @property
    def k(self) -> int:
        """Sum of the interior s-entries; the norm equals 2*k + n - 1."""
        return sum(self.s[1:-1])

    def raw(self) -> tuple[int, ...]:
        """The interleaved tuple (s_0, a_1, s_1, ..., a_n, s_n)."""
        out = [self.s[0]]
        for i in range(self.n):
            out.append(self.a[i])
            out.append(self.s[i + 1])
        return tuple(out)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.raw()) + ")"


def validate(n: int, raw: Sequence[int]) -> VirtualCoordinates:
    """Check an interleaved tuple and return it in typed form.

    Raises CoordinateError (with the violated index) on dimension
    mismatch, negative entries, nonzero boundary s, or an offset outside
    its admissible range.
    """
    if n < 1:
        raise CoordinateError(f"strand count must be >= 1, got {n}")
    raw = tuple(raw)
    if len(raw) != 2 * n + 1:
        raise CoordinateError(
            f"expected {2 * n + 1} entries for n={n}, got {len(raw)}"
        )
    for pos, value in enumerate(raw):
        if value < 0:
            raise CoordinateError(f"negative entry {value} at position {pos}", pos)
    s = raw[0::2]
    a = raw[1::2]
    if s[0] != 0:
        raise CoordinateError(f"s[0] must be 0, got {s[0]}", 0)
    if s[n] != 0:
        raise CoordinateError(f"s[{n}] must be 0, got {s[n]}", 2 * n)
    for i in range(1, n + 1):
        hi = a_range_size(s[i - 1], s[i]) - 1
        if a[i - 1] > hi:
            raise CoordinateError(
                f"a[{i}] = {a[i - 1]} out of range 0..{hi} "
                f"(between s={s[i - 1]} and s={s[i]})",
                2 * i - 1,
            )
    return VirtualCoordinates(n=n, s=s, a=a)


def parse_coords(text: str) -> VirtualCoordinates:
    """Parse the textual form "(s0,a1,s1,...,an,sn)"; whitespace is ignored."""
    stripped = "".join(text.split())
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise CoordinateError(f"coordinates must be parenthesised: {text!r}")
    body = stripped[1:-1]
    if not body:
        raise CoordinateError("empty coordinate tuple")
    parts = body.split(",")
    for part in parts:
        # int() alone also takes "+1", "1_0" and non-ASCII digits; the sign
        # is kept so that validate names the position of a negative entry
        if not re.fullmatch(r"-?[0-9]+", part):
            raise CoordinateError(f"non-integer entry {part!r} in {text!r}")
    values = [int(part) for part in parts]
    if len(values) % 2 == 0 or len(values) < 3:
        raise CoordinateError(f"tuple length must be odd and >= 3, got {len(values)}")
    return validate((len(values) - 1) // 2, values)


def norm(c: VirtualCoordinates) -> int:
    """Geometric norm of the tuple: n - 1 + 2 * (sum of interior s-entries)."""
    return c.n - 1 + 2 * c.k


def sym_h(c: VirtualCoordinates) -> VirtualCoordinates:
    """Horizontal mirror: reverse the interleaved tuple.  An involution."""
    return VirtualCoordinates(n=c.n, s=c.s[::-1], a=c.a[::-1])


def sym_v(c: VirtualCoordinates) -> VirtualCoordinates:
    """Vertical mirror: reflect each offset inside its admissible range.

    Keeps s and maps a_i to 2*min(s_{i-1}, s_i) + [s_{i-1} != s_i] - a_i.
    An involution.
    """
    a = tuple(
        a_range_size(c.s[i], c.s[i + 1]) - 1 - c.a[i] for i in range(c.n)
    )
    return VirtualCoordinates(n=c.n, s=c.s, a=a)


def sym_c(c: VirtualCoordinates) -> VirtualCoordinates:
    """Half-turn: the two mirrors composed (they commute)."""
    return sym_h(sym_v(c))


@dataclass(frozen=True)
class SVector:
    """A validated interior s-vector (s_1, ..., s_{n-1}).

    The census's work units carry the plain tuple s, from interior_rows.
    """

    n: int
    s: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.s) != self.n - 1:
            raise CoordinateError(
                f"interior vector for n={self.n} needs {self.n - 1} entries, "
                f"got {len(self.s)}"
            )
        for pos, value in enumerate(self.s):
            if value < 0:
                raise CoordinateError(f"negative entry {value} at position {pos}", pos)

    def full(self) -> tuple[int, ...]:
        """The padded vector (0, s_1, ..., s_{n-1}, 0)."""
        return (0,) + self.s + (0,)


def count_s_vectors(n: int, k: int) -> int:
    """Number of compositions of k into n-1 non-negative parts."""
    if n == 1:
        return 1 if k == 0 else 0
    return math.comb(k + n - 2, n - 2)


def interior_rows(n: int, ks: Iterable[int]) -> dict[int, list[tuple[int, ...]]]:
    """{k: every interior s-vector with sum k, as plain tuples}, for k in ks.

    Each row lists the compositions of k into n-1 non-negative parts in
    lexicographic order, the order enumerate_s_vectors yields them in, and
    the rows come in the order of ks.  They are built by halving: an
    m-part composition is an h-part head followed by an (m - h)-part tail,
    h = m // 2.  In order, the heads are the (h + 1)-part compositions of k
    with their last part, the sum the tail takes, removed, so each row is a
    concatenation of precomputed tuples with no per-tuple arithmetic.  A
    row of sum k needs the tails of every sum up to k, never more tuples
    than the row itself holds.
    """
    ks = list(ks)
    least = min(ks, default=0)
    if n < 1 or least < 0:
        raise CoordinateError(f"need n >= 1 and k >= 0, got n={n}, k={least}")
    return _compositions(n - 1, ks)


def _compositions(m: int, ks: Sequence[int]) -> dict[int, list[tuple[int, ...]]]:
    """{k: the m-part compositions of k in lexicographic order} for k in ks."""
    if m == 0:
        return {k: [()] if k == 0 else [] for k in ks}
    if m == 1:
        return {k: [(k,)] for k in ks}
    if m == 2:
        return {k: list(zip(range(k + 1), range(k, -1, -1))) for k in ks}
    h = m // 2
    tails = _compositions(m - h, range(max(ks, default=-1) + 1))
    heads = {k: tails[k] for k in ks} if m - h == h + 1 else _compositions(h + 1, ks)
    # the one-element loop slices each head once, not once per tail
    return {
        k: [head + t for c in row for head in (c[:h],) for t in tails[c[h]]]
        for k, row in heads.items()
    }


def enumerate_s_vectors(n: int, k: int) -> Iterator[SVector]:
    """Yield every interior s-vector with sum k, in lexicographic order.

    The order is part of the contract: the census partitions and caches
    work per s-vector, so it must be deterministic.  Row k of
    interior_rows(n, [k]) is built in full on the first next(), which
    raises its CoordinateError for n < 1 or k < 0.
    """
    for s in interior_rows(n, [k])[k]:
        yield SVector(n=n, s=s)


def count_a_tuples(sv: SVector) -> int:
    """Number of admissible offset tuples over a fixed s-vector."""
    s = sv.full()
    return math.prod(a_range_size(sl, sr) for sl, sr in zip(s, s[1:]))


def enumerate_a_tuples(sv: SVector) -> Iterator[VirtualCoordinates]:
    """Yield every admissible tuple over a fixed s-vector, a lexicographic."""
    s = sv.full()
    ranges = [range(a_range_size(sl, sr)) for sl, sr in zip(s, s[1:])]
    for a in itertools.product(*ranges):
        yield VirtualCoordinates(n=sv.n, s=s, a=a)


def random_coordinates(rng: random.Random, n: int, k: int) -> VirtualCoordinates:
    """A uniformly random s-composition with uniformly random offsets.

    Not uniform over all tuples with sum k (offset spaces differ in size);
    good enough for fuzzing, which only needs coverage.  For n = 1, where
    only k = 0 admits tuples, the requested k is ignored.
    """
    if n == 1 or k == 0:
        interior = (0,) * (n - 1)
    else:
        cuts = sorted(rng.randint(0, k) for _ in range(n - 2))
        bounds = [0] + cuts + [k]
        interior = tuple(bounds[i + 1] - bounds[i] for i in range(n - 1))
    s = (0,) + interior + (0,)
    a = tuple(
        rng.randrange(a_range_size(s[i - 1], s[i])) for i in range(1, n + 1)
    )
    return VirtualCoordinates(n=n, s=s, a=a)
