import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import (
    Graph,
    GraphParseError,
    ValidationError,
    complete_graph,
    connected_components,
    cycle_graph,
    degrees,
    disjoint_union,
    eig_sym,
    erdos_renyi,
    incidence,
    is_connected,
    laplacian,
    parse_edge_list,
    path_graph,
    star_graph,
    to_edge_list,
)

from helpers import graphs


def test_laplacian_path3():
    L = laplacian(path_graph(3)).array
    assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_triangle():
    L = laplacian(complete_graph(3)).array
    assert np.array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_single_node():
    assert np.array_equal(laplacian(Graph(1)).array, [[0.0]])


def test_incidence_single_edge():
    inc = incidence(Graph(2, ((0, 1),))).entries
    assert np.array_equal(inc, [[-1], [1]])
    assert np.array_equal(inc @ inc.T, [[1, -1], [-1, 1]])


def test_incidence_path3():
    inc = incidence(path_graph(3)).entries
    assert np.array_equal(inc, [[-1, 0], [1, -1], [0, 1]])
    assert np.array_equal(inc @ inc.T, laplacian(path_graph(3)).array)


def test_degrees():
    assert degrees(star_graph(4)).tolist() == [3, 1, 1, 1]
    assert degrees(complete_graph(3)).tolist() == [2, 2, 2]
    assert degrees(Graph(4)).tolist() == [0, 0, 0, 0]


def test_parse_edge_list_basic():
    g = parse_edge_list("N 3\n0 1\n1 2")
    assert g == path_graph(3)


def test_parse_edge_list_comments_crlf_duplicates():
    g = parse_edge_list("# comment\r\nN 3\r\n0 1\r\n1 0\r\n\r\n1 2\r\n")
    assert g == path_graph(3)


def test_parse_edge_list_self_loop():
    with pytest.raises(ValidationError):
        parse_edge_list("N 2\n0 0")


def test_parse_edge_list_out_of_range():
    with pytest.raises(ValidationError):
        parse_edge_list("N 2\n0 5")


def test_parse_edge_list_malformed_line_number():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("N 3\n0 1\n1 two")
    assert exc.value.line_number == 3


def test_parse_edge_list_missing_header():
    with pytest.raises(GraphParseError):
        parse_edge_list("0 1\n1 2")


def test_parse_edge_list_comments_only_lacks_a_header():
    with pytest.raises(GraphParseError, match="missing 'N <num_nodes>' header") as exc:
        parse_edge_list("# nothing here\n\n# still nothing\n")
    assert exc.value.line_number == 1


def test_parse_edge_list_three_token_line():
    with pytest.raises(GraphParseError, match="expected 'u v'") as exc:
        parse_edge_list("N 3\n0 1 2\n")
    assert exc.value.line_number == 2


@pytest.mark.parametrize(
    "text, line",
    [("N 1_2\n0 1", 1), ("N +3\n0 1", 1), ("N ３\n0 1", 1),
     ("N 3\n0 ٢", 2), ("N 12\n1_0 2", 2), ("N 3\n+0 1", 2), ("N 3\n0 -", 2)],
)
def test_parse_edge_list_reads_ascii_integers_only(text, line):
    # int() would read each of these: 1_2 as 12, +3 as 3, ３ and ٢ as digits
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line_number == line


def test_parse_edge_list_negative_endpoint_reaches_range_check():
    with pytest.raises(ValidationError, match=r"edge \(0, -1\) out of range"):
        parse_edge_list("N 3\n0 -1")


@pytest.mark.parametrize(
    "args, name",
    [((3, ((0.5, 1),)), "edge endpoint 0.5"), ((3, ((0, 1.9),)), "edge endpoint 1.9"),
     ((3, ((True, 2),)), "edge endpoint True"), ((3, (("0", 1),)), "edge endpoint '0'"),
     ((2.5,), "num_nodes 2.5"), (("3",), "num_nodes '3'"), ((True,), "num_nodes True")],
)
def test_graph_refuses_non_integers(args, name):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer$"):
        Graph(*args)


def test_graph_accepts_numpy_integers_as_ints():
    g = Graph(np.int64(3), ((np.int64(2), np.int32(0)),))
    assert g == Graph(3, ((0, 2),))
    assert type(g.num_nodes) is int and all(type(x) is int for x in g.edges[0])


def test_edge_list_roundtrip():
    g = cycle_graph(5)
    assert parse_edge_list(to_edge_list(g)) == g


@pytest.mark.parametrize("edges", [((0, 1, 2),), ((0,),), (0,), ((0, 1), ()), 5])
def test_graph_refuses_an_edge_that_is_not_a_pair(edges):
    with pytest.raises(ValidationError, match="^every edge must be a pair of node indices"):
        Graph(3, edges)


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(0)
    with pytest.raises(ValidationError, match="cycle needs at least 3 nodes"):
        cycle_graph(2)
    with pytest.raises(ValidationError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValidationError):
        Graph(3, ((0, 3),))


def test_edges_normalized_and_deduped():
    g = Graph(3, ((2, 0), (0, 2), (1, 0)))
    assert g.edges == ((0, 1), (0, 2))


def test_connected_components():
    g = disjoint_union(path_graph(3), complete_graph(2))
    assert connected_components(g) == [[0, 1, 2], [3, 4]]
    assert not is_connected(g)
    assert is_connected(path_graph(4))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_laplacian_psd_zero_rowsums(g):
    L = laplacian(g)
    w = eig_sym(L).eigenvalues
    assert w[-1] >= -1e-10 * max(w[0], 1.0)
    assert np.abs(L.array.sum(axis=1)).max() == 0.0


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_incidence_identity_exact(g):
    inc = incidence(g).entries
    L = laplacian(g).array.astype(np.int64)
    assert np.array_equal(inc @ inc.T, L)


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(0, 2**31 - 1))
def test_incidence_sign_flip_irrelevant(g, seed):
    inc = incidence(g).entries.copy()
    rng = np.random.default_rng(seed)
    if inc.shape[1]:
        flips = rng.integers(0, 2, size=inc.shape[1]) * 2 - 1
        inc = inc * flips
    assert np.array_equal(inc @ inc.T, laplacian(g).array.astype(np.int64))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_degree_sum(g):
    assert degrees(g).sum() == 2 * g.num_edges


@given(graphs())
def test_vectorized_assembly_matches_edge_loop(g):
    lap = np.zeros((g.num_nodes, g.num_nodes), dtype=np.int64)
    inc = np.zeros((g.num_nodes, g.num_edges), dtype=np.int64)
    for col, (u, v) in enumerate(g.edges):
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
        inc[u, col] = -1
        inc[v, col] = 1
    assert np.array_equal(laplacian(g).array, lap.astype(float))
    assert incidence(g).entries.dtype == np.int64
    assert np.array_equal(incidence(g).entries, inc)
    assert degrees(g).dtype == np.int64
    assert np.array_equal(degrees(g), np.diag(lap))


def loop_erdos_renyi(n, p, seed):
    """The per-pair reference: one rng.random() per pair (i, j), i < j, in row order."""
    rng = np.random.default_rng(seed)
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p))


@pytest.mark.parametrize("n, p, seed", [(400, 10 / 399, 3), (150, 0.08, 1), (120, 0.08, 7),
                                        (30, 0.3, 3), (1, 0.5, 0), (2, 1.0, 0), (2, 0.0, 0),
                                        (9, 0.0, 4), (9, 1.0, 4), (1, 1.0, 5)])
def test_erdos_renyi_matches_per_pair_loop(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    assert g == loop_erdos_renyi(n, p, seed)
    assert g.num_edges == {0.0: 0, 1.0: n * (n - 1) // 2}.get(p, g.num_edges)


@pytest.mark.parametrize("n", [0, -3])
def test_erdos_renyi_without_nodes_raises_as_the_loop_does(n):
    with pytest.raises(ValidationError) as loop_err:
        loop_erdos_renyi(n, 0.5, 0)
    with pytest.raises(ValidationError, match=str(loop_err.value)):
        erdos_renyi(n, 0.5, seed=0)
