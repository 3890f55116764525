import math
from fractions import Fraction

import pytest

from braidcensus import analysis
from braidcensus.analysis import (
    BoundReport,
    bounds_table,
    lower_bound,
    ratio_series,
    ratios_csv,
    upper_bound,
    witness_a_for_s,
)
from braidcensus.census import count_actual
from braidcensus.coords import SVector, random_coordinates
from braidcensus.diagram import is_actual


class TestBounds:
    def test_lower_examples(self):
        assert lower_bound(3, 2) == 3
        assert lower_bound(2, 1) == 1
        assert lower_bound(5, 10) == 286

    def test_lower_degenerate(self):
        assert lower_bound(1, 0) == 1
        assert lower_bound(1, 4) == 0

    def test_upper_examples(self):
        assert upper_bound(2, 1) == 4
        assert upper_bound(3, 2) == 48
        assert upper_bound(4, 0) == 16

    def test_upper_is_exact_rational(self):
        value = upper_bound(4, 1)
        assert isinstance(value, Fraction)
        assert value == Fraction(2**4 * 4**2 * 3, 3**2)

    def test_upper_requires_two_strands(self):
        with pytest.raises(ValueError):
            upper_bound(1, 3)

    def test_sandwich_small(self):
        for n in (2, 3, 4):
            for k in range(7):
                g = count_actual(n, k, threads=1).g
                report = BoundReport.build(n, k, g)
                assert report.verdict, report

    def test_bounds_table_without_census(self):
        reports = bounds_table(3, 4)
        assert all(r.g is None and r.verdict is None for r in reports)
        assert [r.k for r in reports] == list(range(5))


class TestWitness:
    def test_example_descending_tail(self):
        c = witness_a_for_s(SVector(n=3, s=(2, 1)))
        assert c.raw() == (0, 0, 2, 2, 1, 1, 0)

    def test_example_all_zero(self):
        c = witness_a_for_s(SVector(n=4, s=(0, 0, 0)))
        assert c.raw() == (0,) * 9

    def test_example_mixed(self):
        c = witness_a_for_s(SVector(n=4, s=(1, 3, 2)))
        assert c.raw() == (0, 0, 1, 1, 3, 3, 2, 1, 0)

    def test_random_witnesses_are_connected(self, rng):
        for _ in range(500):
            n = rng.randint(1, 8)
            k = rng.randint(0, 30)
            sv = SVector(n=n, s=random_coordinates(rng, n, k).s[1:-1])
            c = witness_a_for_s(sv, verify=False)
            assert is_actual(c), str(c)

    def test_disconnected_witness_is_caught(self, monkeypatch):
        sv = SVector(n=3, s=(2, 1))
        monkeypatch.setattr(analysis, "is_actual", lambda c: False)
        with pytest.raises(AssertionError, match="disconnected"):
            witness_a_for_s(sv)
        assert witness_a_for_s(sv, verify=False).raw() == (0, 0, 2, 2, 1, 1, 0)


class TestRatios:
    def test_three_strand_parity_limits(self):
        points = ratio_series(3, 1000, source="closedform")
        by_k = {p.k: p for p in points}
        assert abs(by_k[1000].pi2_scaled - 8) / 8 < 0.03
        assert abs(by_k[999].pi2_scaled - 4) / 4 < 0.03

    def test_census_source_small(self):
        points = ratio_series(2, 5, source="census", threads=1)
        assert [p.g for p in points] == [2, 2, 2, 2, 2]
        assert points[0].ratio_k == 2.0  # k^0 = 1
        assert points[0].pi2_scaled is None

    def test_residue_defaults(self):
        points = ratio_series(3, 12, source="closedform")
        assert {p.residue for p in points} <= {0, 1}
        points4 = ratio_series(2, 12, source="closedform", rho=6)
        assert {p.residue for p in points4} == set(range(6))

    def test_source_validation(self):
        with pytest.raises(ValueError):
            ratio_series(4, 5, source="closedform")
        with pytest.raises(ValueError):
            ratio_series(3, 5, source="guesswork")

    def test_csv_shape(self):
        points = ratio_series(3, 4, source="closedform")
        text = ratios_csv(points)
        lines = text.strip().split("\n")
        assert lines[0] == "n,k,g,ratio_k,ratio_shift,residue"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[:3] == ["3", "1", "4"]
        assert float(first[3]) == 4.0
        assert float(first[4]) == pytest.approx(4 / 16)


def test_ratio_shift_uses_k_plus_n():
    points = ratio_series(3, 3, source="closedform")
    p = points[-1]
    assert p.ratio_shift == pytest.approx(p.g / (3 + 3) ** 2)
    assert p.pi2_scaled == pytest.approx(math.pi**2 * p.g / 9)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: lower_bound(0, 1), id="lower_bound-n0"),
        pytest.param(lambda: lower_bound(2, -1), id="lower_bound-k-1"),
        pytest.param(lambda: ratio_series(4, 3, rho=0), id="ratio_series-rho0"),
        pytest.param(lambda: bounds_table(1, 3, with_census=True), id="bounds_table-n1"),
        pytest.param(lambda: ratio_series(1, 3, threads=1), id="ratio_series-n1"),
    ],
)
def test_bad_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
