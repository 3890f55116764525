import random
from dataclasses import replace

import pytest

from braidcensus.coords import enumerate_a_tuples, enumerate_s_vectors, validate
from braidcensus.diagram import (
    CLOSURE,
    CROSS,
    LEFT_BOX,
    RIGHT_BOX,
    STRAIGHT,
    Partition,
    build_arc_graph,
    close_by_above,
    component_count,
    is_actual,
    tightness_check,
    zone_noninterleaving,
)
from conftest import fuzz_coordinates


def arc_set(g):
    return {(min(a.u, a.v), max(a.u, a.v), a.zone, a.kind) for a in g.arcs}


class TestBuild:
    def test_all_zero_is_a_path(self):
        g = build_arc_graph(validate(2, (0, 0, 0, 0, 0)))
        assert g.node_count == 3
        assert arc_set(g) == {(0, 1, 1, CROSS), (1, 2, 2, CROSS)}
        assert component_count(g) == 1

    def test_single_crossing_tuple(self):
        # nodes: c(0,1)=0, c(1,1..3)=1..3, c(2,1)=4
        g = build_arc_graph(validate(2, (0, 0, 1, 1, 0)))
        assert arc_set(g) == {
            (1, 2, 1, RIGHT_BOX),
            (0, 3, 1, CROSS),
            (1, 4, 2, STRAIGHT),
            (2, 3, 2, LEFT_BOX),
        }
        # punctures on c(1,1)-c(1,2) and c(1,2)-c(1,3)
        punctured = [
            tuple(sorted((g.arcs[i].u, g.arcs[i].v))) for i in g.puncture_arcs
        ]
        assert punctured == [(1, 2), (2, 3)]
        assert component_count(g) == 1

    def test_two_component_tuple(self):
        g = build_arc_graph(validate(2, (0, 1, 1, 1, 0)))
        assert component_count(g) == 2

    def test_three_strand_two_component_tuple(self):
        g = build_arc_graph(validate(3, (0, 0, 1, 0, 0, 0, 0)))
        assert component_count(g) == 2

    def test_figure_tuple_is_connected(self):
        g = build_arc_graph(validate(3, (0, 0, 2, 3, 1, 0, 0)))
        assert component_count(g) == 1


class TestIsActual:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_generator_powers(self, k):
        assert is_actual(validate(2, (0, 0, k, 1, 0)))
        assert is_actual(validate(2, (0, 1, k, 0, 0)))

    def test_trivial_braid(self):
        assert is_actual(validate(2, (0, 0, 0, 0, 0)))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_non_braids(self, k):
        assert not is_actual(validate(2, (0, 1, k, 1, 0)))
        assert not is_actual(validate(2, (0, 0, k, 0, 0)))

    def test_two_strand_law_exhaustive(self):
        # for k >= 1 exactly the two offset tuples {0,1} in either order work
        for k in range(1, 31):
            for a1 in (0, 1):
                for a2 in (0, 1):
                    c = validate(2, (0, a1, k, a2, 0))
                    assert is_actual(c) == ((a1, a2) in ((0, 1), (1, 0)))

    def test_agrees_with_the_labelled_graph(self):
        # is_actual runs its union-find on the bare arc pairs; the labelled
        # graph's component count is the definition it must agree with
        admissible = [
            c
            for n in range(1, 5)
            for k in range(5)
            for sv in enumerate_s_vectors(n, k)
            for c in enumerate_a_tuples(sv)
        ]
        fuzzed = list(fuzz_coordinates(random.Random(2023), 2000, nmax=8, kmax=20))
        verdicts = set()
        for c in admissible + fuzzed:
            want = component_count(build_arc_graph(c)) == 1
            assert is_actual(c) == want, c
            verdicts.add(want)
        assert len(admissible) == 680 and verdicts == {False, True}


class TestStructure:
    def test_degrees_open(self, rng):
        for c in fuzz_coordinates(rng, 400):
            g = build_arc_graph(c)
            deg = g.degrees()
            ends = {g.node(0, 1), g.node(c.n, 1)}
            for v, d in enumerate(deg):
                assert d == (1 if v in ends else 2)

    def test_closed_graphs_are_two_regular(self, rng):
        for c in fuzz_coordinates(rng, 400):
            g = build_arc_graph(c, closed_by_above=True)
            assert all(d == 2 for d in g.degrees())

    def test_closed_graph_extends_the_open_one(self, rng):
        for c in fuzz_coordinates(rng, 400, nmax=8, kmax=12):
            g = build_arc_graph(c)
            closed = build_arc_graph(c, closed_by_above=True)
            assert closed == close_by_above(g) and closed.closed and not g.closed
            m = len(g.arcs)
            assert closed.arcs[:m] == g.arcs
            # the closure path: c(0,1), the closure node of each interior
            # line in turn, then c(n,1), one arc per zone
            path = [g.node(0, 1), *range(g.node_count, closed.node_count), g.node(c.n, 1)]
            assert closed.arcs[m:] == tuple(
                (path[i - 1], path[i], i, CLOSURE) for i in range(1, c.n + 1)
            )
            assert closed.puncture_arcs == g.puncture_arcs
            assert closed.places[: g.node_count] == g.places
            assert (g.node_count, closed.node_count) == (len(g.places), len(closed.places))
            # closing builds a new graph and leaves the open one as built
            assert g == build_arc_graph(c)

    def test_closing_preserves_component_count(self, rng):
        for c in fuzz_coordinates(rng, 400):
            assert component_count(build_arc_graph(c)) == component_count(
                build_arc_graph(c, closed_by_above=True)
            )

    def test_noninterleaving(self, rng):
        for c in fuzz_coordinates(rng, 400):
            assert zone_noninterleaving(build_arc_graph(c))
            assert zone_noninterleaving(build_arc_graph(c, closed_by_above=True))

    @pytest.mark.parametrize("closed", [False, True])
    def test_swapped_endpoints_interleave(self, closed):
        # zone 1 holds the box arc c(1,1)-c(1,2) inside the cross arc
        # c(0,1)-c(1,3); swapping their right ends makes them interleave
        g = build_arc_graph(validate(2, (0, 0, 1, 1, 0)), closed_by_above=closed)
        box, cross = (
            next(i for i, a in enumerate(g.arcs) if a.zone == 1 and a.kind == kind)
            for kind in (RIGHT_BOX, CROSS)
        )
        arcs = list(g.arcs)
        arcs[box] = arcs[box]._replace(v=g.arcs[cross].v)
        arcs[cross] = arcs[cross]._replace(v=g.arcs[box].v)
        assert zone_noninterleaving(g)
        assert not zone_noninterleaving(replace(g, arcs=tuple(arcs)))

    def test_tightness_examples(self):
        assert tightness_check(build_arc_graph(validate(2, (0, 0, 1, 1, 0))))
        assert tightness_check(build_arc_graph(validate(2, (0, 0, 0, 0, 0))))

    def test_tightness_fuzz(self, rng):
        for c in fuzz_coordinates(rng, 400):
            assert tightness_check(build_arc_graph(c))

    def test_tightness_fails_on_a_moved_puncture(self):
        g = build_arc_graph(validate(2, (0, 0, 1, 1, 0)))
        cross = next(i for i, a in enumerate(g.arcs) if a.zone == 1 and a.kind == CROSS)
        moved = replace(g, puncture_arcs=(cross, *g.puncture_arcs[1:]))
        assert tightness_check(g)
        assert not tightness_check(moved)

    def test_tightness_rejects_closed_graphs(self):
        g = build_arc_graph(validate(2, (0, 0, 1, 1, 0)), closed_by_above=True)
        with pytest.raises(ValueError):
            tightness_check(g)

    def test_actuality_mirror_invariant(self, rng):
        from braidcensus.coords import sym_h, sym_v

        for c in fuzz_coordinates(rng, 300):
            a = is_actual(c)
            assert is_actual(sym_h(c)) == a
            assert is_actual(sym_v(c)) == a

    def test_puncture_placement_for_each_zone_shape(self, rng):
        # the module docstring's three puncture rules, checked by node pair
        shapes = set()
        for c in fuzz_coordinates(rng, 400, nmax=8, kmax=12):
            for closed in (False, True):
                g = build_arc_graph(c, closed_by_above=closed)
                assert len(g.puncture_arcs) == c.n
                for i in range(1, c.n + 1):
                    sl, sr, ai = c.s[i - 1], c.s[i], c.a[i - 1]
                    b = ai + abs(sl - sr)
                    if sl > sr:
                        want = {g.node(i - 1, b), g.node(i - 1, b + 1)}
                    elif sr > sl:
                        want = {g.node(i, b), g.node(i, b + 1)}
                    else:
                        want = {g.node(i - 1, ai + 1), g.node(i, ai + 1)}
                    shapes.add((sl > sr) - (sl < sr))
                    arc = g.arcs[g.puncture_arcs[i - 1]]
                    assert {arc.u, arc.v} == want and arc.zone == i, (c, i)
        assert shapes == {-1, 0, 1}

    def test_arcs_run_in_drawing_order(self, rng):
        # render_svg draws each arc from u to v as it stands: a straight,
        # cross or closure arc runs from line zone - 1 to line zone, and a
        # box arc has u below v on the line it bulges from
        for c in fuzz_coordinates(rng, 400, nmax=8, kmax=12):
            for closed in (False, True):
                g = build_arc_graph(c, closed_by_above=closed)
                for arc in g.arcs:
                    (iu, ju), (iv, jv) = g.line_of(arc.u), g.line_of(arc.v)
                    if arc.kind in (LEFT_BOX, RIGHT_BOX):
                        line = arc.zone - 1 if arc.kind == LEFT_BOX else arc.zone
                        assert iu == iv == line and ju < jv, (c, closed, arc)
                    else:
                        assert (iu, iv) == (arc.zone - 1, arc.zone), (c, closed, arc)

    @pytest.mark.parametrize("closed", [False, True])
    def test_line_of_inverts_node(self, rng, closed):
        for c in fuzz_coordinates(rng, 100):
            g = build_arc_graph(c, closed_by_above=closed)
            for i in range(c.n + 1):
                for j in range(1, 2 * c.s[i] + 2):
                    assert g.line_of(g.node(i, j)) == (i, j)
            # the closure nodes of lines 1 .. n-1 follow the line nodes and
            # sit one step above each line's top point
            lines = g.node(c.n, 1) + 1
            tops = [g.line_of(v) for v in range(lines, g.node_count)]
            assert tops == ([(i, 2 * c.s[i] + 2) for i in range(1, c.n)] if closed else [])
            assert g.node_count == lines + (c.n - 1 if closed else 0)


class TestPartition:
    def test_basicunion(self):
        p = Partition(5)
        assert p.count == 5
        assert p.union(0, 1)
        assert not p.union(1, 0)
        assert p.union(2, 3)
        assert p.count == 3
        assert p.find(1) == p.find(0)
        assert p.find(2) == p.find(3) != p.find(4)

    def test_union_all_returns_the_class_count(self):
        p = Partition(6)
        assert p.union_all([(0, 1), (1, 2), (2, 0), (4, 5)]) == 3 == p.count
        assert p.find(0) == p.find(1) == p.find(2) != p.find(3)
        assert p.find(4) == p.find(5) != p.find(3)
        assert p.union_all([]) == 3
        assert p.union_all(iter([(3, 5), (2, 4)])) == 1 == p.count
        assert not p.union(0, 5)

    def test_reset(self):
        p = Partition(4)
        p.union(0, 1)
        p.union(2, 3)
        p.reset()
        assert p.count == 4
        assert all(p.find(i) == i for i in range(4))


def test_single_strand_graphs():
    open_g = build_arc_graph(validate(1, (0, 0, 0)))
    assert component_count(open_g) == 1
    closed_g = build_arc_graph(validate(1, (0, 0, 0)), closed_by_above=True)
    assert all(d == 2 for d in closed_g.degrees())
    assert component_count(closed_g) == 1
