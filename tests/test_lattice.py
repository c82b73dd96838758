import dataclasses
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from setmarkov import (
    ConsistentOrdering,
    DiscreteFlow,
    GroundGrid,
    IndexedSet,
    close_under_intersection,
    default_ordering,
    embed_chain,
    enumerate_consistent_orderings,
    extremal_representation,
    flow_from_ordering,
    left_neighbourhoods,
    ordering_free_left_neighbourhood,
)
from setmarkov.errors import (
    ChainEmbeddingError,
    ConfigError,
    EmptyRootError,
    OrderingOverflowError,
    TableSizeError,
)
from setmarkov import lattice
from setmarkov.lattice import Trace

from helpers import (
    brute_force_orderings,
    exhaustive_chain_embedding,
    fixed_point_closure,
    minimal_cover_search,
)


def cells(g, *idx):
    return IndexedSet.from_cells(g, idx)


class TestIndexedSet:
    def test_set_algebra(self, grid2):
        a = cells(grid2, 0, 1)
        b = cells(grid2, 0, 2)
        assert (a | b).cells() == [0, 1, 2]
        assert (a & b).cells() == [0]
        assert (a - b).cells() == [1]
        assert (a & b).issubset(a)

    def test_lower_layer_validation(self, grid2):
        IndexedSet.from_cells(grid2, [0, 1], lower_layer=True)  # {(0,0),(0,1)}
        with pytest.raises(ConfigError):
            IndexedSet.from_cells(grid2, [1], lower_layer=True)

    def test_rectangle_is_lower_layer(self, grid4):
        r = IndexedSet.rectangle(grid4, (2, 1))
        assert r.lower_layer
        assert r.size == 6

    def test_complement(self, grid2):
        a = cells(grid2, 0, 3)
        assert a.complement().cells() == [1, 2]


class TestClosure:
    def test_two_generators(self, grid2, lattice3):
        # one pairwise intersection closes the family
        assert [m.cells() for m in lattice3.members] == [[0], [0, 1], [0, 2]]
        assert lattice3.min_set.cells() == [0]

    def test_singleton_already_closed(self, grid2):
        lat = close_under_intersection([cells(grid2, 0)])
        assert len(lat.members) == 1

    def test_staircase_closure_matches_fixed_point_oracle(self, grid4, staircase_corners):
        rects = [IndexedSet.rectangle(grid4, c) for c in staircase_corners]
        lat = close_under_intersection(rects)
        oracle = fixed_point_closure({r.mask for r in rects})
        assert {m.mask for m in lat.members} == oracle
        lat.validate()

    def test_empty_root_rejected(self, grid2):
        with pytest.raises(EmptyRootError):
            close_under_intersection([cells(grid2, 0), cells(grid2, 1)])

    def test_closure_cap(self, monkeypatch):
        # three generators close to seven members: their three pairwise
        # intersections, then {0}
        g = GroundGrid((4,))
        gens = [cells(g, 0, 1, 2), cells(g, 0, 1, 3), cells(g, 0, 2, 3)]
        monkeypatch.setattr(lattice, "CLOSURE_CAP", 7)
        assert len(close_under_intersection(gens)) == 7
        monkeypatch.setattr(lattice, "CLOSURE_CAP", 6)
        with pytest.raises(TableSizeError, match="exceeds 6 members"):
            close_under_intersection(gens)

    def test_deterministic_member_order(self, grid2):
        lat = close_under_intersection([cells(grid2, 0, 2), cells(grid2, 0, 1)])
        sizes = [m.size for m in lat.members]
        assert sizes == sorted(sizes)


class TestConsistentOrderings:
    def test_chain_has_single_ordering(self, grid2):
        lat = close_under_intersection([
            cells(grid2, 0), cells(grid2, 0, 1), cells(grid2, 0, 1, 2)])
        assert len(enumerate_consistent_orderings(lat)) == 1

    def test_incomparable_pair_has_two(self, lattice3):
        got = enumerate_consistent_orderings(lattice3)
        oracle = brute_force_orderings([m.mask for m in lattice3.members])
        assert [o.positions for o in got] == oracle
        assert len(got) == 2

    def test_three_incomparable_sets_give_six(self):
        g = GroundGrid((4,))
        lat = close_under_intersection([
            cells(g, 0, 1), cells(g, 0, 2), cells(g, 0, 3)])
        got = enumerate_consistent_orderings(lat)
        assert len(got) == 6
        oracle = brute_force_orderings([m.mask for m in lat.members])
        assert [o.positions for o in got] == oracle

    def test_staircase_has_sixteen(self, lattice6):
        assert len(enumerate_consistent_orderings(lattice6)) == 16

    def test_overflow_cap(self, lattice6, monkeypatch):
        monkeypatch.setattr(lattice, "ORDERING_CAP", 3)
        with pytest.raises(OrderingOverflowError, match="more than 3 "):
            enumerate_consistent_orderings(lattice6)

    def test_leading_orderings_count_past_what_they_list(self, lattice6, monkeypatch):
        every = enumerate_consistent_orderings(lattice6)
        orders, total = lattice.leading_orderings(lattice6, 4)
        assert [o.positions for o in orders] == [o.positions for o in every[:4]]
        assert total == 16
        # past the cap the count stops at ORDERING_CAP + 1, and listing
        # more than the cap raises
        monkeypatch.setattr(lattice, "ORDERING_CAP", 10)
        assert lattice.leading_orderings(lattice6, 4)[1] == 11
        assert len(lattice.leading_orderings(lattice6, 10)[0]) == 10
        with pytest.raises(OrderingOverflowError, match="more than 10 "):
            lattice.leading_orderings(lattice6, 11)

    def test_subset_precedence_enforced(self, lattice3):
        with pytest.raises(ConfigError):
            ConsistentOrdering(lattice3, (1, 0, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_enumeration_matches_brute_force(self, data):
        g = GroundGrid((2, 3))
        base = data.draw(st.integers(0, g.cell_count - 1))
        gen_count = data.draw(st.integers(1, 3))
        gens = []
        for _ in range(gen_count):
            extra = data.draw(st.sets(st.integers(0, g.cell_count - 1), max_size=4))
            gens.append(IndexedSet.from_cells(g, {base} | extra))
        lat = close_under_intersection(gens)
        if len(lat.members) > 6:
            return
        got = [o.positions for o in enumerate_consistent_orderings(lat)]
        assert got == brute_force_orderings([m.mask for m in lat.members])


class TestLeftNeighbourhoods:
    def test_three_set_example(self, orderings3):
        lefts = left_neighbourhoods(orderings3[0])
        assert [c.cells() for c in lefts.sets] == [[0], [1], [2]]

    def test_chain_gives_differences(self, grid2):
        lat = close_under_intersection([
            cells(grid2, 0), cells(grid2, 0, 1), cells(grid2, 0, 1, 2)])
        lefts = left_neighbourhoods(default_ordering(lat))
        assert [c.cells() for c in lefts.sets] == [[0], [1], [2]]

    def test_ordering_independent_multiset(self, orderings3):
        m1 = sorted(c.mask for c in left_neighbourhoods(orderings3[0]).sets)
        m2 = sorted(c.mask for c in left_neighbourhoods(orderings3[1]).sets)
        assert m1 == m2

    def test_partition_property(self, lattice6):
        for o in enumerate_consistent_orderings(lattice6):
            lefts = left_neighbourhoods(o)
            union = 0
            total = 0
            for c in lefts.sets:
                assert c.mask & union == 0 or c.mask == lefts.sets[0].mask
                union |= c.mask
                total += c.size
            assert union == lattice6.union_mask
            assert total == bin(lattice6.union_mask).count("1")

    def test_prefix_identity(self, lattice6):
        for o in enumerate_consistent_orderings(lattice6):
            lefts = left_neighbourhoods(o)
            acc = 0
            for i, c in enumerate(lefts.sets):
                acc |= c.mask
                assert acc == o.prefix_masks[i]

    def test_ordering_free_formula_agrees(self, lattice6):
        for o in enumerate_consistent_orderings(lattice6):
            lefts = left_neighbourhoods(o)
            for pos, c in zip(o.positions, lefts.sets):
                if pos == 0:
                    continue  # the minimal set is its own neighbourhood by convention
                free = ordering_free_left_neighbourhood(lattice6, lattice6.members[pos])
                assert free.mask == c.mask


class TestExtremalRepresentation:
    def test_nested_pair(self, grid2):
        a, b = cells(grid2, 0), cells(grid2, 0, 1)
        assert extremal_representation([a, b]) == [b]

    def test_incomparable_pair_kept(self, grid2):
        a, b = cells(grid2, 0, 1), cells(grid2, 0, 2)
        assert extremal_representation([a, b]) == [a, b]

    def test_redundant_subset_dropped(self, grid2):
        a, b, c = cells(grid2, 0, 1), cells(grid2, 0, 2), cells(grid2, 0)
        got = extremal_representation([a, b, c])
        assert got == [a, b]
        # greedy removal agrees with an exhaustive minimal-cover search
        covers = minimal_cover_search([a.mask, b.mask, c.mask])
        assert sorted(s.mask for s in got) in [sorted(ms := [m for i, m in
                      enumerate([a.mask, b.mask, c.mask]) if i in combo])
                      for combo in covers]

    def test_empty_input(self):
        assert extremal_representation([]) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 63), min_size=1, max_size=5))
    def test_properties(self, masks):
        g = GroundGrid((6,))
        parts = [IndexedSet(g, m) for m in masks]
        got = extremal_representation(parts)
        total = 0
        for p in parts:
            total |= p.mask
        union = 0
        for p in got:
            union |= p.mask
        assert union == total
        for i, p in enumerate(got):
            rest = 0
            for j, q in enumerate(got):
                if j != i:
                    rest |= q.mask
            assert p.mask & ~rest != 0


class TestEmbedChain:
    def test_two_element_chain(self, grid2, lattice3):
        chain = [cells(grid2, 0), cells(grid2, 0, 1, 2)]
        ordering, idx = embed_chain(chain, lattice3)
        assert idx == (0, 2)
        for b, i in zip(chain, idx):
            assert ordering.prefix_masks[i] == b.mask
        hits = exhaustive_chain_embedding([c.mask for c in chain],
                                          [m.mask for m in lattice3.members])
        assert (ordering.positions, idx) in hits

    def test_full_union_chain(self, lattice3, grid2):
        ordering, idx = embed_chain([cells(grid2, 0, 1, 2)], lattice3)
        assert idx == (len(lattice3.members) - 1,)

    def test_minimal_chain(self, lattice3, grid2):
        _, idx = embed_chain([cells(grid2, 0)], lattice3)
        assert idx == (0,)

    def test_not_monotone_rejected(self, grid2, lattice3):
        with pytest.raises(ChainEmbeddingError):
            embed_chain([cells(grid2, 0, 1), cells(grid2, 0, 2)], lattice3)

    def test_not_member_union_rejected(self, grid2, lattice3):
        with pytest.raises(ChainEmbeddingError):
            embed_chain([cells(grid2, 0, 3)], lattice3)

    def test_staircase_chains(self, lattice6):
        for o in enumerate_consistent_orderings(lattice6)[:4]:
            chain = [o.prefix_set(i) for i in (1, 3, 5)]
            ordering, idx = embed_chain(chain, lattice6)
            for b, i in zip(chain, idx):
                assert ordering.prefix_masks[i] == b.mask


class TestFlows:
    def test_flow_trace_values(self, orderings3, uniform2):
        flow = flow_from_ordering(orderings3[0])
        assert [s.cells() for s in flow.stages] == [[0], [0, 1], [0, 1, 2]]
        trace = Trace.along_flow(uniform2, flow)
        assert trace.values.tolist() == pytest.approx([0.25, 0.5, 0.75])

    def test_trace_midpoint_interpolation(self, orderings3, uniform2):
        trace = Trace.along_flow(uniform2, flow_from_ordering(orderings3[0]))
        assert trace(0.5) == pytest.approx(0.375)

    def test_single_member_flow_constant(self, grid2, uniform2):
        lat = close_under_intersection([cells(grid2, 0)])
        flow = flow_from_ordering(default_ordering(lat))
        assert len(flow.stages) == 1
        assert Trace.along_flow(uniform2, flow)(0.0) == pytest.approx(0.25)

    def test_flow_trace_is_the_piecewise_linear_trace(self, orderings3, uniform2):
        flow = flow_from_ordering(orderings3[0])
        trace = Trace.along_flow(uniform2, flow)
        assert trace.times.tolist() == list(flow.times)
        assert trace.slope(1.0, "-") == pytest.approx(0.25)
        assert trace.breakpoints(0.5, 2.0) == [0.5, 1.0, 2.0]

    def test_flow_holds_only_times_and_stages(self, orderings3):
        # a kernel reads a flow through the trace of its own measure
        assert [f.name for f in dataclasses.fields(DiscreteFlow)] == ["times", "stages"]
        assert list(inspect.signature(flow_from_ordering).parameters) == ["ordering"]

    def test_stages_monotone_required(self, grid2):
        with pytest.raises(ConfigError):
            DiscreteFlow((0.0, 1.0), (cells(grid2, 0, 1), cells(grid2, 0)))

    def test_trace_nondecreasing(self, lattice6, uniform4):
        for o in enumerate_consistent_orderings(lattice6)[:6]:
            vals = Trace.along_flow(uniform4, flow_from_ordering(o)).values.tolist()
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
