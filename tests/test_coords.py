import itertools
import math

import pytest

from braidcensus.coords import (
    CoordinateError,
    SVector,
    VirtualCoordinates,
    a_range_size,
    count_a_tuples,
    count_s_vectors,
    enumerate_a_tuples,
    enumerate_s_vectors,
    interior_rows,
    norm,
    parse_coords,
    random_coordinates,
    sym_c,
    sym_h,
    sym_v,
    validate,
)
from conftest import fuzz_coordinates


class TestValidate:
    def test_all_zero_is_valid(self):
        c = validate(2, (0, 0, 0, 0, 0))
        assert c.s == (0, 0, 0) and c.a == (0, 0)

    def test_generator_power_tuple_is_valid(self):
        c = validate(2, (0, 0, 1, 1, 0))
        assert c.k == 1

    def test_offset_above_range_reports_index(self):
        with pytest.raises(CoordinateError) as err:
            validate(2, (0, 1, 0, 0, 0))
        assert err.value.index == 1
        assert "a[1]" in str(err.value)

    def test_dimension_mismatch(self):
        with pytest.raises(CoordinateError):
            validate(2, (0, 0, 1, 1, 0, 0))

    def test_negative_entry(self):
        with pytest.raises(CoordinateError) as err:
            validate(2, (0, 0, -1, 1, 0))
        assert err.value.index == 2

    def test_nonzero_boundary(self):
        with pytest.raises(CoordinateError) as err:
            validate(2, (1, 0, 1, 0, 0))
        assert err.value.index == 0
        with pytest.raises(CoordinateError) as err:
            validate(2, (0, 0, 1, 0, 2))
        assert err.value.index == 4

    def test_single_strand(self):
        c = validate(1, (0, 0, 0))
        assert c.n == 1
        with pytest.raises(CoordinateError):
            validate(1, (0, 1, 0))

    def test_fuzz_matches_direct_recheck(self, rng):
        # random raw tuples, some valid, some not: validate() must agree
        # with re-deriving the inequalities by hand
        for _ in range(3000):
            n = rng.randint(1, 5)
            raw = [rng.randint(0, 4) for _ in range(2 * n + 1)]
            s, a = raw[0::2], raw[1::2]
            expected = (
                s[0] == 0
                and s[n] == 0
                and all(
                    0 <= a[i - 1] <= 2 * min(s[i - 1], s[i]) + (s[i - 1] != s[i])
                    for i in range(1, n + 1)
                )
            )
            try:
                validate(n, raw)
                assert expected, raw
            except CoordinateError:
                assert not expected, raw


class TestParse:
    def test_round_trip(self):
        c = parse_coords("(0,0,2,3,1,0,0)")
        assert str(c) == "(0,0,2,3,1,0,0)"
        assert c.n == 3

    def test_whitespace_ignored(self):
        assert parse_coords(" ( 0 , 0 , 1 ,\t1 , 0 ) ").raw() == (0, 0, 1, 1, 0)

    def test_rejects_unbalanced(self):
        with pytest.raises(CoordinateError):
            parse_coords("0,0,1,1,0")

    def test_rejects_even_length(self):
        with pytest.raises(CoordinateError):
            parse_coords("(0,0,1,1)")

    @pytest.mark.parametrize("entry", ["\u0660", "0_0", "+0", ""])
    def test_rejects_entries_that_are_not_ascii_decimal(self, entry):
        with pytest.raises(CoordinateError, match="non-integer entry"):
            parse_coords(f"(0,{entry},0)")

    def test_negative_entry_is_named_by_position(self):
        with pytest.raises(CoordinateError, match="negative entry -1 at position 1"):
            parse_coords("(0,-1,0)")


class TestNorm:
    def test_trivial_braid(self):
        assert norm(validate(3, (0,) * 7)) == 2

    def test_single_crossing(self):
        assert norm(validate(2, (0, 0, 1, 1, 0))) == 3

    def test_three_strand_example(self):
        assert norm(validate(3, (0, 0, 2, 3, 1, 0, 0))) == 8

    def test_parity_invariant(self, rng):
        for c in fuzz_coordinates(rng, 500):
            assert (norm(c) - (c.n - 1)) % 2 == 0


class TestSymmetries:
    def test_sym_h_example(self):
        assert sym_h(validate(2, (0, 0, 1, 1, 0))).raw() == (0, 1, 1, 0, 0)

    def test_sym_v_example(self):
        assert sym_v(validate(2, (0, 0, 1, 1, 0))).raw() == (0, 1, 1, 0, 0)

    def test_all_zero_fixed(self):
        c = validate(4, (0,) * 9)
        assert sym_h(c) == c and sym_v(c) == c

    def test_involutions_commutation_validity(self, rng):
        for c in fuzz_coordinates(rng, 800):
            h, v = sym_h(c), sym_v(c)
            validate(c.n, h.raw())
            validate(c.n, v.raw())
            assert sym_h(h) == c
            assert sym_v(v) == c
            assert sym_h(v) == sym_v(h) == sym_c(c)


class TestEnumeration:
    def test_s_vectors_small(self):
        got = [sv.s for sv in enumerate_s_vectors(3, 2)]
        assert got == [(0, 2), (1, 1), (2, 0)]

    def test_s_vectors_two_strands(self):
        assert [sv.s for sv in enumerate_s_vectors(2, 5)] == [(5,)]

    def test_s_vector_count_matches_binomial(self):
        assert sum(1 for _ in enumerate_s_vectors(5, 10)) == 286
        for n in range(1, 6):
            for k in range(8):
                assert sum(1 for _ in enumerate_s_vectors(n, k)) == count_s_vectors(n, k)
                if n >= 2:
                    assert count_s_vectors(n, k) == math.comb(k + n - 2, n - 2)

    def test_single_strand_edge(self):
        assert [sv.s for sv in enumerate_s_vectors(1, 0)] == [()]
        assert list(enumerate_s_vectors(1, 3)) == []

    def test_s_vectors_on_many_strands(self):
        got = [sv.s for sv in enumerate_s_vectors(1200, 1)]
        assert len(got) == 1199
        assert got[0] == (0,) * 1198 + (1,)
        assert got[-1] == (1,) + (0,) * 1198

    def test_enumeration_reads_row_k_of_the_table(self):
        for n, k in [(1, 0), (1, 2), (2, 7), (5, 6), (9, 3)]:
            got = list(enumerate_s_vectors(n, k))
            assert got == [SVector(n=n, s=s) for s in interior_rows(n, [k])[k]]

    def test_mirror_representatives_are_half_the_space(self):
        # one tuple per sym_v pair, and the central tuple as its own
        for n in range(1, 6):
            for k in range(6):
                for sv in enumerate_s_vectors(n, k):
                    kept = sum(1 for c in enumerate_a_tuples(sv) if c.a <= sym_v(c).a)
                    assert kept == (count_a_tuples(sv) + 1) // 2, sv

    def test_a_tuples_over_unit_s(self):
        sv = SVector(n=2, s=(1,))
        tuples = list(enumerate_a_tuples(sv))
        assert len(tuples) == 4
        assert sorted(t.a for t in tuples) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_a_tuples_all_zero(self):
        assert len(list(enumerate_a_tuples(SVector(n=4, s=(0, 0, 0))))) == 1

    def test_a_tuples_product_of_ranges(self):
        sv = SVector(n=3, s=(1, 2))
        tuples = list(enumerate_a_tuples(sv))
        assert len(tuples) == 16 == count_a_tuples(sv)
        assert {t.a[0] for t in tuples} == {0, 1}
        assert {t.a[1] for t in tuples} == {0, 1, 2, 3}
        assert {t.a[2] for t in tuples} == {0, 1}

    def test_a_tuples_lexicographic(self):
        sv = SVector(n=3, s=(1, 1))
        tuples = [t.a for t in enumerate_a_tuples(sv)]
        assert tuples == sorted(tuples)

    def test_every_enumerated_tuple_is_valid(self, rng):
        for _ in range(50):
            n = rng.randint(1, 5)
            k = rng.randint(0, 5)
            for sv in enumerate_s_vectors(n, k):
                for c in enumerate_a_tuples(sv):
                    validate(n, c.raw())


def stars_and_bars(n, k):
    """Compositions of k into n - 1 parts: n - 2 bars among k + n - 2 slots."""
    if n == 1:
        return [()] if k == 0 else []
    end = k + n - 2
    out = []
    for bars in itertools.combinations(range(end), n - 2):
        cuts = (-1, *bars, end)
        out.append(tuple(b - a - 1 for a, b in zip(cuts, cuts[1:])))
    return out


class TestInteriorRows:
    def test_matches_stars_and_bars(self):
        for n in range(1, 10):
            table = interior_rows(n, range(13))
            assert table == {k: stars_and_bars(n, k) for k in range(13)}, n
            assert list(table) == list(range(13))
            for k in (0, 1, 5, 12):
                assert interior_rows(n, [k]) == {k: table[k]}
            rows = interior_rows(n, [5, 0, 3])
            assert list(rows.items()) == [(k, table[k]) for k in (5, 0, 3)]

    def test_single_strand(self):
        assert interior_rows(1, [0]) == {0: [()]}
        assert interior_rows(1, range(5)) == {0: [()], 1: [], 2: [], 3: [], 4: []}

    def test_no_rows_asked(self):
        assert interior_rows(5, []) == {}

    def test_wide_shapes(self):
        assert interior_rows(1000, [0]) == {0: [(0,) * 999]}
        rows = interior_rows(1200, [0, 1])
        assert rows[0] == [(0,) * 1199]
        assert rows[1] == [(0,) * i + (1,) + (0,) * (1198 - i) for i in reversed(range(1199))]

    def test_one_long_row(self):
        assert interior_rows(3, [3000]) == {3000: [(i, 3000 - i) for i in range(3001)]}

    def test_bad_shapes_name_the_arguments(self):
        for n, ks, k in [(0, [0], 0), (3, [-1], -1), (3, [2, -1, 4], -1)]:
            with pytest.raises(CoordinateError, match=f"n={n}, k={k}$"):
                interior_rows(n, ks)


def test_range_size_table():
    assert a_range_size(0, 0) == 1
    assert a_range_size(0, 3) == 2
    assert a_range_size(2, 2) == 5
    assert a_range_size(2, 5) == 6


def test_random_coordinates_are_valid(rng):
    for _ in range(500):
        n = rng.randint(1, 7)
        k = rng.randint(0, 12)
        c = random_coordinates(rng, n, k)
        validate(n, c.raw())
        assert c.k == (k if n > 1 else 0)


def test_raw_round_trip(rng):
    for c in fuzz_coordinates(rng, 200):
        assert validate(c.n, c.raw()) == c
        assert isinstance(c, VirtualCoordinates)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: validate(0, (0,)), id="validate-n0"),
        pytest.param(lambda: parse_coords("()"), id="parse-empty"),
        pytest.param(lambda: SVector(n=3, s=(1,)), id="svector-length"),
        pytest.param(lambda: SVector(n=3, s=(1, -1)), id="svector-negative"),
        pytest.param(lambda: list(enumerate_s_vectors(0, 0)), id="enumerate-n0"),
        pytest.param(lambda: list(enumerate_s_vectors(3, -1)), id="enumerate-k-1"),
    ],
)
def test_bad_input_raises_coordinate_error(call):
    with pytest.raises(CoordinateError):
        call()
