import random
from fractions import Fraction

import numpy as np
import pytest

from twistamp import (
    FourVector,
    Graph,
    StructuralError,
    ValidationError,
    bowtie,
    box,
    cycle_basis,
    loop_number,
    route_momenta,
    spanning_trees,
    triangle,
)
from conftest import random_connected_graph, random_momenta


def test_loop_numbers():
    assert loop_number(triangle()) == 1
    assert loop_number(box()) == 1
    assert loop_number(bowtie()) == 2


def test_rejects_self_loop():
    with pytest.raises(StructuralError):
        Graph.build([1, 2], [(1, 1, 1, 1), (2, 1, 2, 1)])


def test_rejects_parallel_edges():
    with pytest.raises(StructuralError):
        Graph.build([1, 2, 3], [(1, 1, 2, 1), (2, 2, 1, 1), (3, 2, 3, 1)])


def test_rejects_disconnected():
    with pytest.raises(StructuralError):
        Graph.build([1, 2, 3, 4], [(1, 1, 2, 1), (2, 3, 4, 1)])
    with pytest.raises(StructuralError):  # V - 1 edges, one of them closing a cycle
        Graph.build([1, 2, 3, 4], [(1, 1, 2, 1), (2, 2, 3, 1), (3, 3, 1, 1)])


def test_rejects_nonpositive_mass():
    with pytest.raises(ValidationError):
        triangle(masses=(1, 0, 1))
    with pytest.raises(ValidationError):
        triangle(masses=(1, Fraction(-1, 2), 1))


def test_rejects_nonconserving_momenta():
    with pytest.raises(ValidationError):
        box(momenta={1: [1, 0, 0, 0]})


@pytest.mark.parametrize("eid", [1.9, 1.0, True, "1", Fraction(1), np.int64(1)])
def test_rejects_edge_id_that_is_no_python_int(eid):
    # int() used to read 1.9, True and "1" all as edge id 1
    with pytest.raises(ValidationError, match="edge id"):
        Graph.build([1, 2, 3], [(eid, 1, 2, 1), (2, 2, 3, 1), (3, 3, 1, 1)])


def test_edges_sorted_by_id():
    g = Graph.build(
        [1, 2, 3],
        [(3, 3, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1)],
    )
    assert [e.id for e in g.edges] == [1, 2, 3]


def test_triangle_cycle_single_row():
    basis = cycle_basis(triangle())
    assert basis.n == 1
    (row,) = basis.loops
    assert all(abs(v) == 1 for v in row)


def test_box_cycle_row_of_ones():
    basis = cycle_basis(box())
    assert basis.loops == ((1, 1, 1, 1),)


def test_bowtie_rows_supported_on_own_triangle():
    basis = cycle_basis(bowtie())
    assert basis.n == 2
    supports = [tuple(1 if v else 0 for v in row) for row in basis.loops]
    assert sorted(supports) == [(0, 0, 0, 1, 1, 1), (1, 1, 1, 0, 0, 0)]
    assert np.linalg.matrix_rank(np.array(basis.loops)) == 2


def test_cycle_rows_are_circulations():
    rnd = random.Random(5)
    for _ in range(10):
        g = random_connected_graph(rnd)
        basis = cycle_basis(g)
        assert basis.n == loop_number(g)
        # signed incidence, +1 where an edge leaves a vertex, -1 where it enters
        inc = np.array(
            [[(e.source == v) - (e.target == v) for e in g.edges] for v in g.vertices]
        )
        for row in basis.loops:
            assert not (inc @ np.array(row)).any()
            assert set(row) <= {-1, 0, 1}
        if basis.n:
            assert np.linalg.matrix_rank(np.array(basis.loops)) == basis.n
        # independent oracle: the lexicographically first spanning tree is the
        # greedy lowest-id tree, and a fundamental basis is the identity on
        # the edges outside it
        tree = next(spanning_trees(g))
        chords = [i for i in range(g.n_edges) if i not in tree]
        assert np.array(basis.loops)[:, chords].tolist() == np.eye(basis.n).tolist()


def test_cycle_basis_deterministic():
    rnd = random.Random(11)
    g = random_connected_graph(rnd)
    assert cycle_basis(g).loops == cycle_basis(g).loops


def test_routing_zero_momenta_gives_zero_shifts():
    routing = route_momenta(box())
    assert all(s.is_zero() for s in routing.shifts.values())


def test_routing_box_opposite_pair_follows_tree_path():
    q = FourVector.make([1, 2, 0, Fraction(1, 2)])
    g = box(momenta={1: q, 3: -q})
    routing = route_momenta(g)
    # lowest-id tree is {e1, e2, e3}; the flow q enters at 1 and exits at 3,
    # so it rides e1 and e2 and leaves e3 and the closing edge e4 empty
    assert routing.of(1) == q
    assert routing.of(2) == q
    assert routing.of(3).is_zero()
    assert routing.of(4).is_zero()


def test_routing_conserves_at_every_vertex():
    rnd = random.Random(23)
    for _ in range(10):
        g = random_connected_graph(rnd)
        g = Graph.build(
            g.vertices,
            [(e.id, e.source, e.target, e.mass) for e in g.edges],
            random_momenta(rnd, g.vertices),
        )
        routing = route_momenta(g)  # route_momenta re-checks balance exactly
        tree = next(spanning_trees(g))
        for i, e in enumerate(g.edges):
            if i not in tree:
                assert routing.of(e.id).is_zero()
        balance = {v: FourVector.zero() for v in g.vertices}
        for e in g.edges:
            s = routing.of(e.id)
            balance[e.source] = balance[e.source] + s
            balance[e.target] = balance[e.target] - s
        for v in g.vertices:
            assert balance[v] == g.momentum(v)


def test_fourvector_algebra():
    a = FourVector.make([1, Fraction(1, 2), 0, -1])
    b = FourVector.make(["1/3", 1, 2, 0])
    assert (a + b) - b == a
    assert a.scaled(2).norm2() == 4 * a.norm2()
    assert a.dot(b) == Fraction(1, 3) + Fraction(1, 2) + 0 + 0
    assert sum([a, b], FourVector.zero()) == a + b
