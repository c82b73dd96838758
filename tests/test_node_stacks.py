"""The matrix flow semigroups build all Gauss nodes of a segment as one
stack: ``matrices`` and ``generator_matrices`` against the one-time
``matrix`` and ``generator_matrix`` and the entry-by-entry references of
``helpers``, and ``generator_integral`` and ``leg_generator_integral``
against their node-by-node references, bit for bit."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from setmarkov import (
    CellMeasure,
    CompoundPoissonKernel,
    EmpiricalKernel,
    FddSpec,
    GroundGrid,
    IndexedSet,
    close_under_intersection,
    construction,
)
from setmarkov.config import load_config
from setmarkov.errors import ConfigError
from setmarkov.generators import (
    GAUSS_NODES,
    EmpiricalFlowSemigroup,
    MatrixSemigroup,
    generator_integral,
    leg_generator_integral,
    system_along_flow,
)
from setmarkov.lattice import Trace, flow_from_ordering
from setmarkov.quadrature import gauss_segment

from helpers import (
    ref_empirical_generator_matrix,
    ref_empirical_matrix,
    ref_generator_integral,
    ref_jump_generator_matrix,
    ref_jump_matrix,
    ref_leg_generator_integral,
)

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def _exhausted_spec(weights, cells):
    """Empirical n = 3 on a chain of cell sets of the 2x2 grid, one set of
    which holds all the mass."""
    grid = GroundGrid((2, 2))
    lattice = close_under_intersection([IndexedSet.from_cells(grid, c) for c in cells])
    return FddSpec(lattice, EmpiricalKernel(3, CellMeasure(grid, weights, "probability")))


def _spec(name):
    if name == "exhausted":
        # the trace reads 0.5, 1, 1: from knot 1 on the stage holds all the
        # mass and does not grow, so the generator's rate is 0 over a mass
        # left of 0
        return _exhausted_spec([0.5, 0.5, 0.0, 0.0], [[0], [0, 1], [0, 1, 2]])
    if name == "exhausted_end":
        # the trace reads 0.1, 0.3, 1: only the last stage holds all the mass
        return _exhausted_spec([0.1, 0.2, 0.3, 0.4], [[0], [0, 1], [0, 1, 2, 3]])
    if name == "jumps_2_4":
        spec = load_config(str(CONFIGS / "compound_lattice3.json")).spec
        kernel = CompoundPoissonKernel(spec.kernel.lam, (2, 4), (0.6, 0.4))
        return FddSpec(spec.lattice, kernel)
    return load_config(str(CONFIGS / f"{name}.json")).spec


def _system(name):
    spec = _spec(name)
    return system_along_flow(spec.kernel, flow_from_ordering(spec.ordering))


SYSTEMS = ["empirical10_staircase", "corrupted_lattice3", "poisson_lattice4",
           "compound_lattice3", "jumps_2_4", "exhausted", "exhausted_end"]


def _bits(a) -> bytes:
    a = np.ascontiguousarray(a, dtype=float)
    return repr(a.shape).encode() + a.tobytes()


def _refs(system):
    if isinstance(system, EmpiricalFlowSemigroup):
        return ref_empirical_matrix, ref_empirical_generator_matrix
    return ref_jump_matrix, ref_jump_generator_matrix


def _times(system):
    """The knots, and the Gauss nodes of every knot segment."""
    knots = system.trace.times
    nodes = [gauss_segment(a, b, GAUSS_NODES)[0] for a, b in zip(knots, knots[1:])]
    return np.concatenate([knots, *nodes])


@pytest.mark.parametrize("name", SYSTEMS)
def test_stacked_builders_equal_the_one_time_builders_and_the_references(name):
    system = _system(name)
    ref_matrix, ref_generator = _refs(system)
    times = _times(system)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for t in system.trace.times:
            ss = times[times <= t]
            stack = system.matrices(ss, t)
            assert stack.shape == (len(ss),) + (len(system.states),) * 2
            for s, M in zip(ss, stack):
                assert _bits(M) == _bits(system.matrix(s, t)) == _bits(ref_matrix(system, s, t))
        for side in "+-":
            # the generator is undefined where a stage that holds all the
            # mass still grows
            vs = times[[not (system.exhausted(v) and system.trace.slope(v, side))
                        for v in times]]
            stack = system.generator_matrices(vs, side)
            for v, G in zip(vs, stack):
                assert _bits(G) == _bits(system.generator_matrix(v, side)) \
                    == _bits(ref_generator(system, v, side))


def test_an_exhausted_stage_has_rate_0_and_moves_nothing():
    system = _system("exhausted")
    nodes = gauss_segment(1.0, 2.0, GAUSS_NODES)[0]
    assert all(system.exhausted(v) for v in nodes)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert not system.generator_matrices(np.append(nodes, [1.0, 2.0])).any()
        assert (system.matrices(nodes, 2.0) == np.eye(4)).all()
        assert not generator_integral(system, 1.0, 2.0, system.basis()).any()
    # where such a stage still grows, the rate would divide by a mass of 0
    end = _system("exhausted_end")
    for grows, v, side in ((system, 1.0, "-"), (end, 2.0, "-"), (end, 2.0, "+")):
        with pytest.raises(ConfigError, match="generator undefined"):
            grows.generator_matrix(v, side)


@pytest.mark.parametrize("name", SYSTEMS)
def test_generator_integrals_equal_the_node_by_node_references(name):
    system = _system(name)
    knots = system.trace.times
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for h in (system.basis(), system.states.astype(float)):
            for knot_compose in (False, True):
                for s, t in ((knots[0], knots[-1]), (knots[1], knots[-1])):
                    got = generator_integral(system, s, t, h, knot_compose)
                    want = ref_generator_integral(system, s, t, h, knot_compose)
                    assert _bits(got) == _bits(want)
        for a, b in zip(knots, knots[1:]):
            got = leg_generator_integral(system, a, b)
            assert _bits(got) == _bits(ref_leg_generator_integral(system, a, b))


@pytest.mark.parametrize("name", ["empirical10_staircase", "compound_lattice3"])
def test_chunked_segments_equal_one_stack(monkeypatch, name):
    system = _system(name)
    dim = len(system.states)
    knots = system.trace.times
    h = system.basis()
    whole = generator_integral(system, knots[0], knots[-1], h, True)
    leg = leg_generator_integral(system, knots[0], knots[1])
    assert [len(c) for c in system.chunks(np.arange(GAUSS_NODES))] == [GAUSS_NODES]
    # room for 5 matrices a stack: 32 nodes in pieces of 5, 5, ..., 2
    monkeypatch.setattr(construction, "TABLE_CAP", 5 * dim * dim + dim)
    assert [len(c) for c in system.chunks(np.arange(GAUSS_NODES))] == [5] * 6 + [2]
    sizes = []
    banded = MatrixSemigroup._banded

    def spy(self, values):
        sizes.append(values.shape[0])
        return banded(self, values)

    monkeypatch.setattr(MatrixSemigroup, "_banded", spy)
    chunked = generator_integral(system, knots[0], knots[-1], h, True)
    assert _bits(chunked) == _bits(whole)
    assert _bits(chunked) == _bits(ref_generator_integral(system, knots[0], knots[-1], h, True))
    assert _bits(leg_generator_integral(system, knots[0], knots[1])) == _bits(leg)
    assert max(sizes) == 5
    # a cap below one matrix still builds one matrix a stack
    monkeypatch.setattr(construction, "TABLE_CAP", dim)
    assert [len(c) for c in system.chunks(np.arange(3))] == [1, 1, 1]


class TestArrayTrace:
    trace = Trace([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.6, 1.4])

    def test_arrays_read_what_each_time_reads(self):
        ts = np.concatenate([self.trace.times, np.linspace(0.0, 3.0, 29),
                             self.trace.times + 1e-13, self.trace.times[1:] - 1e-13])
        ts = ts[(ts >= 0.0) & (ts <= 3.0)]
        values = self.trace(ts)
        for side in "+-":
            slopes = self.trace.slope(ts, side)
            for t, v, d in zip(ts.tolist(), values, slopes):
                assert type(self.trace(t)) is float and v == self.trace(t)
                assert type(self.trace.slope(t, side)) is float and d == self.trace.slope(t, side)

    def test_the_knot_side_rule(self):
        knots = self.trace.times
        assert self.trace.slope(knots, "-").tolist() == pytest.approx([0.5, 0.5, 0.1, 0.8])
        assert self.trace.slope(knots, "+").tolist() == pytest.approx([0.5, 0.1, 0.8, 0.8])
        # within 1e-12 of a knot but off it, both sides read the segment the time is in
        for side in "+-":
            assert self.trace.slope(1.0 + 1e-13, side) == pytest.approx(0.1)
            assert self.trace.slope(1.0 - 1e-13, side) == pytest.approx(0.5)

    def test_the_domain_check_reads_every_time(self):
        assert self.trace(np.array([-1e-13, 3.0 + 1e-13])).tolist() == [0.0, 1.4]
        for bad in (np.array([0.5, 3.1]), np.array([[-0.1, 1.0]]), 3.1, np.nan):
            with pytest.raises(ConfigError, match="outside trace domain"):
                self.trace(bad)
        with pytest.raises(ConfigError, match="time 3.1 outside"):
            self.trace(np.array([0.5, 3.1]))

