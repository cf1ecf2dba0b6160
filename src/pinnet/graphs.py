"""Undirected simple graphs: Laplacian, incidence factorization, degrees.

All values are immutable after construction and every operation is a pure
function, so they are safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphParseError, ValidationError
from .spectral import SymMatrix


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


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

    num_nodes and every endpoint must be Python or numpy integers (True, 0.5
    and "0" are refused, never converted), and every edge a pair. Edges are
    stored lexicographically sorted with u < v; duplicates collapse.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        num_nodes = _index(self.num_nodes, "num_nodes")
        if num_nodes < 1:
            raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
        seen = set()
        try:
            for u, v in self.edges:
                if not (type(u) is int and type(v) is int):
                    u, v = _index(u, "edge endpoint"), _index(v, "edge endpoint")
                if u == v:
                    raise ValidationError(f"self-loop at node {u}")
                if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                    raise ValidationError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
                seen.add(_normalize_edge(u, v))
        except (TypeError, ValueError) as exc:  # an edge that does not unpack to a pair
            raise ValidationError(f"every edge must be a pair of node indices: {exc}") from None
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


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


def _edge_array(g: Graph) -> np.ndarray:
    return np.array(g.edges, dtype=np.int64).reshape(-1, 2)


def laplacian(g: Graph) -> SymMatrix:
    """Combinatorial Laplacian L = D - A (symmetric PSD, zero row sums)."""
    u, v = _edge_array(g).T
    lap = np.zeros((g.num_nodes, g.num_nodes), dtype=np.int64)
    lap[u, v] = lap[v, u] = -1
    lap[np.diag_indices(g.num_nodes)] = -lap.sum(axis=1)
    return SymMatrix(lap.astype(float))


def incidence(g: Graph) -> IncidenceMatrix:
    """Signed incidence factor of the Laplacian: entries @ entries.T == L."""
    u, v = _edge_array(g).T
    cols = np.arange(g.num_edges)
    inc = np.zeros((g.num_nodes, g.num_edges), dtype=np.int64)
    inc[u, cols] = -1
    inc[v, cols] = 1
    return IncidenceMatrix(inc)


def degrees(g: Graph) -> np.ndarray:
    """Per-node edge counts; sums to twice the edge count."""
    deg = np.bincount(_edge_array(g).ravel(), minlength=g.num_nodes).astype(np.int64)
    deg.setflags(write=False)
    return deg


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    adj: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.num_nodes
    comps = []
    for start in range(g.num_nodes):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            node = stack.pop()
            comp.append(node)
            for nb in adj[node]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line "N <num_nodes>", then "u v" lines.

    Lines starting with '#' are comments; blank lines are ignored; duplicate
    edges collapse. Every integer is read by _int_text. Raises GraphParseError
    with the line number on malformed input and ValidationError on self-loops
    or out-of-range indices.
    """
    num_nodes = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if num_nodes is None:
            if len(parts) != 2 or parts[0] != "N":
                raise GraphParseError(
                    f"expected header 'N <num_nodes>', got {line!r}", lineno
                )
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
    return Graph(num_nodes, tuple(edges))


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
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return Graph(n, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Union with b's node indices shifted past a's (always disconnected)."""
    shifted = tuple((u + a.num_nodes, v + a.num_nodes) for u, v in b.edges)
    return Graph(a.num_nodes + b.num_nodes, a.edges + shifted)
