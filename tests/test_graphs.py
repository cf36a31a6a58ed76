import pytest

from dpfcolor import (SimpleGraph, complete_graph, cycle_graph, gen_planar_triangulation,
                      path_graph)
from dpfcolor.graphs import _OwnedGraph


def test_basic_invariants():
    g = SimpleGraph(4, [(0, 1), (2, 1), (3, 0)])
    assert g.n == 4 and g.m == 3
    assert g.has_edge(1, 0) and g.has_edge(1, 2)
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.m
    assert all(u in g.adj[v] for (u, v) in g.edges)


def test_rejects_self_loop_and_unknown_vertex():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])


def test_duplicate_edges_collapse():
    g = SimpleGraph(3, [(0, 1), (1, 0)])
    assert g.m == 1


def test_induced_keeps_vertex_ids():
    g = complete_graph(5)
    sub = g.induced({1, 3, 4})
    assert sub.vertices == (1, 3, 4)
    assert sub.m == 3
    assert sub.has_edge(3, 4)


def test_delete_and_connectivity():
    g = path_graph(4)
    assert g.is_connected()
    assert not g.delete(1).is_connected()


def test_factories():
    assert complete_graph(4).m == 6
    assert cycle_graph(5).m == 5
    assert path_graph(6).m == 5
    assert complete_graph(0).n == 0


def test_equality():
    assert SimpleGraph(3, [(0, 1)]) == SimpleGraph(3, [(1, 0)])
    assert SimpleGraph(3, [(0, 1)]) != SimpleGraph(3, [(0, 2)])


def test_owned_graph_reads_its_vertices_off_its_dict():
    """A graph on a dict that its owner edits in place: its vertices and n
    follow the dict's keys, so they are never stale, and it equals the
    SimpleGraph on the same tables."""
    g = cycle_graph(5)
    adj = dict(g.adj)
    owned = _OwnedGraph(adj)
    assert owned == g and owned.vertices == g.vertices and owned.n == 5
    del adj[2]
    adj[1], adj[3] = adj[1] - {2}, adj[3] - {2}
    assert type(owned.vertices) is tuple and owned.vertices == (0, 1, 3, 4) and owned.n == 4
    assert owned == g.delete(2) and owned.m == 3


def test_edge_list_is_the_sorted_edge_set():
    """`edge_list` reads the rows in vertex order instead of sorting the
    edge set; both give the same list on stacked triangulations, on an
    induced subgraph with gaps in its vertex ids, with isolated vertices,
    and on an owned graph after deletions."""
    stacked = [gen_planar_triangulation(n, seed).graph for n, seed in
               [(3, 0), (4, 1), (10, 2), (57, 3), (300, 4)]]
    big = stacked[-1]
    adj = dict(big.adj)
    for v in (0, 7, 150, 299):
        for w in adj.pop(v):
            if w in adj:
                adj[w] = adj[w] - {v}
    owned = _OwnedGraph(adj)
    graphs = stacked + [
        big.induced(v for v in big.vertices if v % 3),
        SimpleGraph.on_vertices([9, 2, 40, 5, 17], [(40, 2), (9, 5)]),
        SimpleGraph(6),
        owned,
    ]
    for g in graphs:
        assert g.edge_list() == sorted(g.edges), g
    assert owned == big.induced(set(big.vertices) - {0, 7, 150, 299})
