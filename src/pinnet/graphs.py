"""Undirected simple graphs: Laplacian, incidence factorization, degrees.

A Graph is immutable after construction. It holds its validated edges twice,
as the public tuple of pairs and as one read-only (E, 2) int64 array that
every operation reads. laplacian(g) is built at the first call on g and
memoised on it as a read-only SymMatrix; every other operation is a pure
function. Two threads that ask for the same Laplacian at once may both build
it, and either equal result is kept, so sharing a Graph across threads is
safe. Nothing is cached by content: two Graphs with equal edges build two
Laplacians.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import GraphParseError, ValidationError
from .spectral import SymMatrix

_INT64_MAX = int(np.iinfo(np.int64).max)


def _index(value, name: str) -> int:
    """The integer rule for values: a Python or numpy integer; bools, floats
    and strings are refused with a ValidationError."""
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} {value!r} must be an integer")


def _int_text(token: str) -> int:
    """The integer rule for text: ASCII digits with an optional leading minus
    (no '+', '_', spaces or other scripts' digits); ValueError otherwise."""
    if token.isdigit() and token.isascii():
        return int(token)
    if token[:1] == "-" and token[1:].isdigit() and token.isascii():
        return int(token)
    raise ValueError(f"invalid integer {token!r}")


_int_text.__name__ = "int"  # argparse names a bad --budget "invalid int value", as before


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..num_nodes-1.

    num_nodes (at most 2^63 - 1) and every endpoint must be Python or numpy
    integers (True, 0.5 and "0" are refused, never converted), and every edge
    a pair. Edges are stored lexicographically sorted with u < v; duplicates
    collapse. An (E, 2) integer array is read as E edges.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...] = field(default=())
    _edge_array: np.ndarray = field(init=False, repr=False, compare=False)
    _laplacian: SymMatrix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        num_nodes = _index(self.num_nodes, "num_nodes")
        if num_nodes < 1:
            raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
        if num_nodes > _INT64_MAX:
            raise ValidationError(f"num_nodes must be at most 2^63 - 1, got {num_nodes}")
        lo, hi = _normalized(_checked_rows(self.edges, num_nodes))
        arr = np.stack((lo, hi), axis=1)
        arr.setflags(write=False)
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "_edge_array", arr)
        object.__setattr__(self, "edges", tuple(zip(lo.tolist(), hi.tolist())))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _check_edge(u: int, v: int, num_nodes: int) -> None:
    if u == v:
        raise ValidationError(f"self-loop at node {u}")
    if not (0 <= u < num_nodes and 0 <= v < num_nodes):
        raise ValidationError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")


def _checked_rows(edges, num_nodes: int) -> np.ndarray:
    """The edges as an (E, 2) int64 array in input order, every one checked:
    the first that is not a pair of integers, is a self-loop or is out of
    range raises, with the message an edge-by-edge check in order gives."""
    try:
        pairs = edges if isinstance(edges, (tuple, list, np.ndarray)) else tuple(edges)
    except TypeError as exc:  # not iterable
        raise ValidationError(f"every edge must be a pair of node indices: {exc}") from None
    rows = _integer_rows(pairs)
    if rows is None:
        rows = _rows_one_by_one(pairs, num_nodes)
    u, v = rows.T
    if len(rows) and ((u == v).any() or rows.min() < 0 or rows.max() >= num_nodes):
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= num_nodes)
        _check_edge(*rows[bad.argmax()].tolist(), num_nodes)
    return rows


def _integer_rows(pairs) -> np.ndarray | None:
    """The pairs as an (E, 2) int64 array, read in bulk, when each is a
    length-2 sequence of Python or numpy integers that fit in int64 (or pairs
    is an integer (E, 2) array); None for anything else."""
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind == "i" and pairs.shape[1:] == (2,):
        return pairs.astype(np.int64)
    try:
        if set(map(len, pairs)) - {2}:
            return None
        kinds = set(map(type, chain.from_iterable(pairs)))
        if not all(k is int or issubclass(k, np.integer) for k in kinds):
            return None
        return np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
    except (TypeError, OverflowError):
        return None


def _rows_one_by_one(pairs, num_nodes: int) -> np.ndarray:
    """_checked_rows edge by edge, for input the bulk read refuses: it raises
    at the first edge that is not a pair of integers or fails _check_edge."""
    rows = []
    try:
        for u, v in pairs:
            u, v = _index(u, "edge endpoint"), _index(v, "edge endpoint")
            _check_edge(u, v, num_nodes)
            rows.append((u, v))
    except (TypeError, ValueError) as exc:  # an edge that does not unpack to a pair
        raise ValidationError(f"every edge must be a pair of node indices: {exc}") from None
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _normalized(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows as (min, max) columns, lexicographically sorted without
    duplicates; input already in that order is not sorted again."""
    lo, hi = np.minimum(rows[:, 0], rows[:, 1]), np.maximum(rows[:, 0], rows[:, 1])
    ahead = _ahead(lo, hi)
    if not ahead.all():
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        keep = np.concatenate(([True], _ahead(lo, hi)))  # sorted: not ahead is a duplicate
        lo, hi = lo[keep], hi[keep]
    return lo, hi


def _ahead(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each pair (lo, hi) after the first is lexicographically above its predecessor."""
    return (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))


@dataclass(frozen=True)
class IncidenceMatrix:
    """Node-by-edge signed incidence matrix with entries in {-1, 0, +1}.

    Columns follow the graph's lexicographic edge order, oriented -1 at the
    smaller endpoint. The product with its own transpose is the Laplacian
    exactly, in integer arithmetic, for any orientation.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def laplacian(g: Graph) -> SymMatrix:
    """Combinatorial Laplacian L = D - A (symmetric PSD, zero row sums).

    Built at the first call on g; every later call returns the same
    read-only SymMatrix."""
    lap = g._laplacian
    if lap is None:
        lap = _assemble_laplacian(g)
        object.__setattr__(g, "_laplacian", lap)
    return lap


def _assemble_laplacian(g: Graph) -> SymMatrix:
    n = g.num_nodes
    u, v = g._edge_array.T
    lap = np.zeros((n, n))
    lap[u, v] = lap[v, u] = -1.0
    lap.flat[:: n + 1] = np.bincount(g._edge_array.ravel(), minlength=n)
    return SymMatrix._exact(lap)


def incidence(g: Graph) -> IncidenceMatrix:
    """Signed incidence factor of the Laplacian: entries @ entries.T == L."""
    u, v = g._edge_array.T
    cols = np.arange(g.num_edges)
    inc = np.zeros((g.num_nodes, g.num_edges), dtype=np.int64)
    inc[u, cols] = -1
    inc[v, cols] = 1
    return IncidenceMatrix(inc)


def degrees(g: Graph) -> np.ndarray:
    """Per-node edge counts; sums to twice the edge count."""
    deg = np.bincount(g._edge_array.ravel(), minlength=g.num_nodes).astype(np.int64)
    deg.setflags(write=False)
    return deg


def _component_roots(g: Graph) -> np.ndarray:
    """The smallest node of each node's component, by hooking and pointer
    jumping: every round hangs the larger root of each edge that joins two
    trees under the smaller one, then points every node at its root. A root
    only ever moves to a smaller node, so the rounds end."""
    u, v = g._edge_array.T
    root = np.arange(g.num_nodes)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    comps: dict[int, list[int]] = {}
    for node, root in enumerate(_component_roots(g).tolist()):
        comps.setdefault(root, []).append(node)
    return list(comps.values())


def is_connected(g: Graph) -> bool:
    return not _component_roots(g).any()


# The edge lines joined by "\n", each two integers in _int_text's rule with
# whitespace between them (\s is what str.split() splits on, and no line holds "\n").
_INT = r"-?[0-9]+"
_EDGE_LINES = re.compile(rf"(?:{_INT}[^\S\n]+{_INT}(?:\n{_INT}[^\S\n]+{_INT})*)?")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line "N <num_nodes>", then "u v" lines.

    Lines starting with '#' are comments; blank lines are ignored; duplicate
    edges collapse. Every integer is read by _int_text's rule: the edge lines
    are checked by one pattern over their join and converted in one pass.
    Raises GraphParseError with the line number of the first malformed line,
    and after a clean parse ValidationError on self-loops or out-of-range
    indices.
    """
    lines = list(map(str.strip, text.splitlines()))
    data = [line for line in lines if line and line[0] != "#"]
    if not data:
        raise GraphParseError("missing 'N <num_nodes>' header", 1)
    header = data[0].split()
    if len(header) != 2 or header[0] != "N":
        raise GraphParseError(f"expected header 'N <num_nodes>', got {data[0]!r}",
                              _line_number(lines, 0))
    try:
        num_nodes = _int_text(header[1])
    except ValueError:
        raise GraphParseError(f"bad node count {header[1]!r}", _line_number(lines, 0)) from None
    body = "\n".join(data[1:])
    try:
        values = list(map(int, body.split())) if _EDGE_LINES.fullmatch(body) else None
    except ValueError:  # more digits than int() reads, as _int_text finds too
        values = None
    if values is None:
        raise _edge_line_error(lines, data)
    try:
        edges = np.array(values, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # past int64, so out of range: Graph names the first such edge
        edges = tuple(zip(values[::2], values[1::2]))
    return Graph(num_nodes, edges)


def _line_number(lines: list[str], k: int) -> int:
    """The 1-based line number of the k-th non-blank, non-comment line."""
    numbers = (i for i, line in enumerate(lines, 1) if line and line[0] != "#")
    return next(islice(numbers, k, None))


def _edge_line_error(lines: list[str], data: list[str]) -> GraphParseError:
    """The error of the first edge line that is not two integers."""
    for k, line in enumerate(data[1:], start=1):
        parts = line.split()
        if len(parts) != 2:
            return GraphParseError(f"expected 'u v', got {line!r}", _line_number(lines, k))
        try:
            _int_text(parts[0]), _int_text(parts[1])
        except ValueError:
            return GraphParseError(f"non-integer endpoint in {line!r}", _line_number(lines, k))
    raise AssertionError("the edge lines match _EDGE_LINES")


def to_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list (round-trips through Graph equality)."""
    lines = [f"N {g.num_nodes}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Small constructors, used by tests and demo scripts.

def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError("cycle needs at least 3 nodes")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    return Graph(n, tuple((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) sample from a seeded generator (deterministic)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)  # pairs in row order, one draw each, as a per-pair loop draws
    keep = rng.random(iu.size) < p
    return Graph(n, np.stack((iu[keep], ju[keep]), axis=1))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Union with b's node indices shifted past a's (always disconnected)."""
    shifted = tuple((u + a.num_nodes, v + a.num_nodes) for u, v in b.edges)
    return Graph(a.num_nodes + b.num_nodes, a.edges + shifted)
