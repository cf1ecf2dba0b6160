"""The bulk edge-list parse and the bulk Graph validation against per-line and
per-edge references.

The references below read the edge-list grammar one line at a time and
validate a Graph one edge at a time, as the package did before both were
done in bulk. The properties require the same Graph, or the same exception
type, message and line number, on every text and every edge sequence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import (Graph, GraphParseError, PinnetError, ValidationError, connected_components,
                    erdos_renyi, is_connected, parse_edge_list, path_graph, to_edge_list)
from pinnet.graphs import _index, _int_text

from helpers import graphs


def reference_graph(num_nodes, edges):
    """(num_nodes, edges) of Graph(num_nodes, edges), checked edge by edge."""
    num_nodes = _index(num_nodes, "num_nodes")
    if num_nodes < 1:
        raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
    if num_nodes > 2**63 - 1:  # the int64 edge array's limit
        raise ValidationError(f"num_nodes must be at most 2^63 - 1, got {num_nodes}")
    seen = set()
    try:
        for u, v in edges:
            if not (type(u) is int and type(v) is int):
                u, v = _index(u, "edge endpoint"), _index(v, "edge endpoint")
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValidationError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
            seen.add((u, v) if u < v else (v, u))
    except (TypeError, ValueError) as exc:  # an edge that does not unpack to a pair
        raise ValidationError(f"every edge must be a pair of node indices: {exc}") from None
    return num_nodes, tuple(sorted(seen))


def reference_parse(text):
    """(num_nodes, edges) of parse_edge_list(text), read line by line."""
    num_nodes = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if num_nodes is None:
            if len(parts) != 2 or parts[0] != "N":
                raise GraphParseError(f"expected header 'N <num_nodes>', got {line!r}", lineno)
            try:
                num_nodes = _int_text(parts[1])
            except ValueError:
                raise GraphParseError(f"bad node count {parts[1]!r}", lineno) from None
            continue
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = _int_text(parts[0]), _int_text(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {line!r}", lineno) from None
        edges.append((u, v))
    if num_nodes is None:
        raise GraphParseError("missing 'N <num_nodes>' header", 1)
    return reference_graph(num_nodes, tuple(edges))


def reference_components(g):
    """Connected components by depth-first search over the edge tuple."""
    adj = [[] for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, comps = set(), []
    for start in range(g.num_nodes):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            node = stack.pop()
            comp.append(node)
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def outcome(fn, *args):
    """(num_nodes, edges) on success, (type, message, line number) on a PinnetError."""
    try:
        result = fn(*args)
    except PinnetError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    if isinstance(result, Graph):
        assert type(result.num_nodes) is int
        assert all(type(x) is int for edge in result.edges for x in edge)
        return result.num_nodes, result.edges
    return result


# ---------------------------------------------------------------------------
# edge-list texts

BAD_TOKENS = st.sampled_from(["+3", "1_0", "٢", "３", "x", "-", "--1", "1-", "1.0", "0x1", "²",
                              "99999999999999999999999"])
NOISY_TOKENS = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["007", "-0"]), BAD_TOKENS)
SEPARATORS = st.sampled_from([" ", "\t", "   ", " \t", "　", "\x1f", "\xa0"])
QUIET_LINES = st.sampled_from(["", "   ", "# comment", "  # indented", "#", "#0 1"])
NOISY_LINES = st.one_of(QUIET_LINES, st.lists(NOISY_TOKENS, max_size=4).map(" ".join))
NOISY_HEADERS = st.one_of(
    st.integers(-1, 12).map(lambda n: f"N {n}"),
    st.sampled_from(["N", "N 3 4", "n 3", "N x", "N +3", "N ３", "M 3", "N\t7",
                     "N 99999999999999999999999"]),
)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])
PADDING = st.sampled_from(["", " ", "\t", "　 "])


@st.composite
def edge_list_texts(draw):
    """Half the texts hold only well-formed lines (their edges may still be
    self-loops or out of range); the other half draw malformed tokens, lines
    and headers too."""
    noisy = draw(st.booleans())
    tokens = NOISY_TOKENS if noisy else st.integers(0, 9).map(str)
    edge_line = st.builds(lambda a, sep, b: a + sep + b, tokens, SEPARATORS, tokens)
    header = NOISY_HEADERS if noisy else st.integers(9, 12).map(lambda n: f"N {n}")

    def pad(line):
        return draw(PADDING) + line + draw(PADDING)

    lines = [pad(line) for line in draw(st.lists(QUIET_LINES, max_size=2))]
    if not noisy or draw(st.integers(0, 9)):  # one noisy text in ten has no header line
        lines.append(pad(draw(header)))
    body = draw(st.lists(st.one_of(edge_line, edge_line, edge_line,
                                   NOISY_LINES if noisy else QUIET_LINES), max_size=12))
    lines += [pad(line) for line in body]
    if body and draw(st.booleans()):  # repeat a line, reversed half the time
        line = body[draw(st.integers(0, len(body) - 1))].split()
        lines.append(" ".join(reversed(line) if draw(st.booleans()) else line))
    text = ""
    for line in lines:
        text += line + draw(NEWLINES)
    return text if draw(st.booleans()) else text.rstrip("\n")


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_parse_matches_the_per_line_reader(text):
    assert outcome(parse_edge_list, text) == outcome(reference_parse, text)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_parse_reads_every_written_graph(g, newline, comments):
    text = to_edge_list(g).replace("\n", newline)
    if comments:
        text = "# written\n\n" + text + "# end\n"
    assert parse_edge_list(text) == g
    assert outcome(parse_edge_list, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text, line", [
    ("N 3\n0 1\n1 two", 3), ("# c\n\nN 3\n0 1 2\n", 4), ("\n\nN x\n", 3), ("#\nM 3\n0 1", 2),
    ("N 3\r\n0 1\r\n\r\n1\r\n", 4), ("N 3\n0　1\n1 +2", 3), ("", 1), ("# only\n", 1),
])
def test_parse_errors_name_the_reference_line(text, line):
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line_number == line
    assert outcome(parse_edge_list, text) == outcome(reference_parse, text)


def test_a_malformed_line_wins_over_an_earlier_invalid_edge():
    # line 2 is a self-loop, line 4 does not parse: the parse error is reported
    text = "N 3\n1 1\n0 5\n0 x\n"
    assert outcome(parse_edge_list, text) == (
        GraphParseError, "line 4: non-integer endpoint in '0 x'", 4)
    assert outcome(reference_parse, text) == outcome(parse_edge_list, text)


def test_first_invalid_edge_is_reported_in_line_order():
    for text, message in [("N 3\n0 5\n1 1\n", "edge (0, 5) out of range for 3 nodes"),
                          ("N 3\n1 1\n0 5\n", "self-loop at node 1"),
                          ("N 3\n0 1\n2 99999999999999999999999\n2 2\n",
                           "edge (2, 99999999999999999999999) out of range for 3 nodes"),
                          ("N 2\n0 0\n0 99999999999999999999999\n", "self-loop at node 0")]:
        assert outcome(parse_edge_list, text) == (ValidationError, message, None)
        assert outcome(reference_parse, text) == (ValidationError, message, None)


def test_an_endpoint_past_int_digits_limit_is_a_parse_error():
    text = "N 3\n0 1\n1 " + "1" * 5000 + "\n"
    result = outcome(parse_edge_list, text)
    assert result[0] is GraphParseError and result[2] == 3
    assert result == outcome(reference_parse, text)


# ---------------------------------------------------------------------------
# Graph(...) inputs

ENDPOINTS = st.one_of(
    st.integers(-2, 9),
    st.integers(-2, 9).map(np.int64),
    st.integers(0, 9).map(np.int32),
    st.integers(0, 9).map(np.uint8),
    st.sampled_from([True, False, 0.5, 1.0, "0", None, np.bool_(True), np.float64(2.0), 2**70,
                     np.uint64(2**64 - 1)]),
)
PAIRS = st.one_of(
    st.tuples(ENDPOINTS, ENDPOINTS),
    st.tuples(ENDPOINTS, ENDPOINTS),
    st.lists(ENDPOINTS, min_size=2, max_size=2),
    st.tuples(ENDPOINTS),
    st.tuples(ENDPOINTS, ENDPOINTS, ENDPOINTS),
    st.sampled_from([5, "01", (), None]),
)
VALID_ENDPOINTS = st.one_of(st.integers(0, 9), st.integers(0, 9).map(np.int64),
                            st.integers(0, 9).map(np.int16))


NOISY_SIZES = st.one_of(st.integers(1, 10), st.sampled_from([0, -1, 10.0, True, np.int64(7)]))


@st.composite
def graph_inputs(draw, pairs, sizes=NOISY_SIZES):
    n = draw(sizes)
    edges = draw(st.lists(pairs, max_size=10))
    kind = draw(st.sampled_from(["tuple", "list", "iterator", "array"]))
    return n, edges, kind


def as_kind(edges, kind):
    if kind == "tuple":
        return tuple(edges)
    if kind == "iterator":
        return iter(list(edges))
    if kind == "array":
        try:
            return np.array(edges)
        except ValueError:  # ragged
            return tuple(edges)
    return list(edges)


@settings(max_examples=400, deadline=None)
@given(graph_inputs(PAIRS))
def test_graph_matches_the_per_edge_check(case):
    n, edges, kind = case
    assert outcome(Graph, n, as_kind(edges, kind)) == outcome(reference_graph, n, as_kind(edges, kind))


@settings(max_examples=200, deadline=None)
@given(graph_inputs(st.tuples(VALID_ENDPOINTS, VALID_ENDPOINTS).filter(lambda e: e[0] != e[1]),
                    st.sampled_from([10, 11, np.int64(10), np.int32(12)])))
def test_graph_of_integer_pairs_matches_the_per_edge_check(case):
    # valid: reversed and duplicated pairs, numpy endpoints, int arrays
    n, edges, kind = case
    edges = edges + edges[::-1][:3]
    assert outcome(Graph, n, as_kind(edges, kind)) == outcome(reference_graph, n, as_kind(edges, kind))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8])
def test_integer_edge_array_reads_as_its_rows(dtype):
    rows = np.array([[3, 1], [0, 2], [1, 3], [2, 0]], dtype=dtype)
    g = Graph(4, rows)
    assert g.edges == ((0, 2), (1, 3))
    assert g == Graph(4, ((0, 2), (1, 3)))


def test_edge_array_is_the_edge_tuple_read_only():
    g = Graph(5, ((4, 0), (2, 1), (0, 4), (3, 2)))
    assert g._edge_array.dtype == np.int64
    assert g._edge_array.tolist() == [list(e) for e in g.edges] == [[0, 4], [1, 2], [2, 3]]
    with pytest.raises(ValueError):
        g._edge_array[0, 0] = 1


def test_num_nodes_must_fit_int64():
    assert Graph(2**63 - 1).num_nodes == 2**63 - 1
    for make in (lambda: Graph(2**63), lambda: parse_edge_list("N 9223372036854775808\n0 1\n")):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == "num_nodes must be at most 2^63 - 1, got 9223372036854775808"


# ---------------------------------------------------------------------------
# connected components


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_components_match_depth_first_search(g):
    assert connected_components(g) == reference_components(g)
    assert is_connected(g) == (len(reference_components(g)) == 1)


@pytest.mark.parametrize("seed", range(4))
def test_components_of_sparse_and_relabelled_graphs(seed):
    rng = np.random.default_rng(seed)
    g = erdos_renyi(300, 1.2 / 299, seed=seed)
    assert connected_components(g) == reference_components(g)
    # a long path under a random labelling: many hooking rounds
    perm = rng.permutation(400)
    h = Graph(400, tuple((int(perm[u]), int(perm[v])) for u, v in path_graph(400).edges))
    assert connected_components(h) == reference_components(h) == [list(range(400))]
