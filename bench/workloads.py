"""The four workloads: seeded inputs, the operation the loop times, and its check.

Each workload draws a pool of questions from the seed. The pool is a whole
number of *cycles*; one cycle holds a fixed mix of question classes, so any
run that stops at a cycle boundary has the same mix, and the percentiles of
two runs compare like with like. The loop issues pool[i % len(pool)] as
operation i.

Every class of a cycle is stratified too: pin counts, gain sides and graph
sizes step through fixed lists, and graphs are G(n, m) with an exact edge
count, so a new seed changes which graph and which nodes, not how much work
an operation does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import pinnet
from pinnet import cli


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in process; return its exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# input generation (numpy only; the program sees only the written files)


def gnm_connected(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Connected G(n, m) as a sorted (m, 2) edge array, resampled until connected."""
    iu, ju = np.triu_indices(n, 1)
    while True:
        pick = np.sort(rng.choice(iu.size, size=m, replace=False))
        edges = np.stack([iu[pick], ju[pick]], axis=1)
        if _connected(n, edges):
            return edges


def complete_edges(n: int) -> np.ndarray:
    return np.stack(np.triu_indices(n, 1), axis=1)


def _connected(n: int, edges: np.ndarray) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def write_graph(path: Path, n: int, edges: np.ndarray) -> None:
    lines = [f"N {n}"] + [f"{u} {v}" for u, v in edges.tolist()]
    path.write_text("\n".join(lines) + "\n")


def draw_saturated(rng: np.random.Generator, f_bound: float) -> tuple[float, float]:
    """a, b with |a| + |b| = f_bound and random signs."""
    a = float(rng.uniform(0.2, 0.8)) * f_bound * float(rng.choice([-1.0, 1.0]))
    b = (f_bound - abs(a)) * float(rng.choice([-1.0, 1.0]))
    return a, b


def scalar_config(graph_path: str, sigma: float, kappa: float, pinned, a: float, b: float, sim=None) -> dict:
    """Analysis config with Q = B = 1 and K = kappa, which meets the
    structural identity exactly."""
    doc = {
        "graph_path": graph_path,
        "sigma": sigma,
        "kappa": kappa,
        "pinned": list(pinned),
        "n": 1,
        "b": [[1.0]],
        "k": [[kappa]],
        "q": [[1.0]],
        "dynamics": {"kind": "scalar_saturated", "a": a, "b": b},
    }
    if sim is not None:
        doc["sim"] = sim
    return doc


class Workload:
    """A pool of questions drawn from a seed, the timed operation, its check.

    classes lists one cycle's question classes in the order they are issued;
    trace_cycles is how many cycles a traced run measures (a fixed amount of
    work, so its counts repeat exactly). scale < 1 shrinks the inputs for the
    benchmark's own tests.
    """

    classes: tuple
    trace_cycles: int

    @property
    def cycle(self) -> int:
        return len(self.classes)


# ---------------------------------------------------------------------------
# certify


@dataclass
class CertifyQuestion:
    num_nodes: int
    edges: np.ndarray
    sigma: float
    kappa: float
    pinned: tuple[int, ...]
    f_bound: float
    arrow: bool
    graph_path: str
    config_path: str


class Certify(Workload):
    """kappa <cfg> --json, then bounds <graph> --json; on K_n also the
    demo-02 arrow and all five bounds functions.

    One cycle: K_n, K_n, ER50 three times, ER200, ER400. The K_n sizes keep
    those operations faster than the ER50 ones, so the median falls in the
    middle of the ER50 class and the tail inside the ER400 class, away from
    the gaps between classes.
    """

    name = "certify"
    classes = ("complete", "complete", 50, 50, 50, 200, 400)
    pool_cycles = 10
    trace_cycles = 6
    mean_degree = 10
    complete_sizes = (4, 6, 8, 10, 12)

    def __init__(self, scale: float = 1.0):
        self.sizes = {c: c if c == "complete" else max(12, int(c * scale)) for c in self.classes}

    def setup(self, seed: int, workdir: Path) -> list[CertifyQuestion]:
        rng = np.random.default_rng(seed)
        pool = []
        seen: dict = {}
        for _ in range(self.pool_cycles):
            for cls in self.classes:
                k = seen[cls] = seen.get(cls, -1) + 1
                pool.append(self._draw(rng, workdir, len(pool), cls, k))
        return pool

    def _draw(self, rng, workdir: Path, idx: int, cls, k: int) -> CertifyQuestion:
        below = (k // 5) % 2 == 0
        sigma = float(rng.uniform(0.5, 2.0))
        f_bound = float(rng.uniform(0.05, 0.3)) * sigma
        if cls == "complete":
            n = self.complete_sizes[k % len(self.complete_sizes)]
            edges = complete_edges(n)
            pinned = (int(rng.integers(0, n)),)
            s = sigma * n
            margin = s - f_bound
            threshold = s * margin / (margin - sigma * (n - 1))
            kappa = s * float(rng.uniform(0.3, 0.9)) if below else threshold * float(rng.uniform(1.05, 3.0))
        else:
            n = self.sizes[cls]
            edges = gnm_connected(rng, n, n * self.mean_degree // 2)
            pinned = tuple(int(i) for i in rng.choice(n, size=1 + k % 5, replace=False))
            s = sigma * oracles.lambda_min_gt0(oracles.laplacian(n, edges))
            kappa = s * float(rng.uniform(0.3, 0.9) if below else rng.uniform(1.5, 4.0))
        graph_path = workdir / f"g{idx}.txt"
        config_path = workdir / f"c{idx}.json"
        write_graph(graph_path, n, edges)
        a, b = draw_saturated(rng, f_bound)
        config_path.write_text(json.dumps(scalar_config(graph_path.name, sigma, kappa, pinned, a, b)))
        return CertifyQuestion(
            n, edges, sigma, kappa, pinned, abs(a) + abs(b), cls == "complete",
            str(graph_path), str(config_path),
        )

    def reference(self, q: CertifyQuestion) -> dict:
        return oracles.certify_reference(q)

    def run(self, q: CertifyQuestion) -> dict:
        kappa_exit, kappa_out = cli_call(["kappa", q.config_path, "--json"])
        bounds_exit, bounds_out = cli_call([
            "bounds", q.graph_path, "--sigma", repr(q.sigma), "--kappa", repr(q.kappa),
            "--pinned", ",".join(map(str, q.pinned)), "--json",
        ])
        arrow = None
        if q.arrow:
            x = np.zeros(q.num_nodes)
            x[q.pinned[0]] = math.sqrt(q.kappa)
            g = pinnet.complete_graph(q.num_nodes)
            arr = pinnet.assemble_arrow(x, pinnet.incidence(g).entries.astype(float))
            arrow = [
                (r.bound_kind.value, r.bound_value, r.exact_value)
                for r in (
                    pinnet.lili_upper_max(arr),
                    pinnet.lili_lower_max(arr),
                    pinnet.smallest_nonzero_lower(arr),
                    pinnet.weyl_lower(arr),
                    pinnet.mathias_lower(arr),
                )
            ]
        return {
            "kappa_exit": kappa_exit, "kappa": kappa_out,
            "bounds_exit": bounds_exit, "bounds": bounds_out, "arrow": arrow,
        }

    def check(self, q: CertifyQuestion, ref: dict, out: dict) -> list[str]:
        answer = dict(out, kappa=json.loads(out["kappa"]), bounds=json.loads(out["bounds"]))
        return oracles.check_certify(ref, answer)


# ---------------------------------------------------------------------------
# select


@dataclass
class SelectQuestion:
    num_nodes: int
    edges: np.ndarray
    sigma: float
    kappa: float
    budget: int
    graph_path: str


class Select(Workload):
    """select <graph> --method greedy --budget 5 --json.

    One cycle: N=40 four times, then N=150. A N=150 operation costs about 25
    N=40 ones, so the large graphs set ops_per_s while the median and the
    tail fall inside the N=40 class, with enough samples there to be steady.
    """

    name = "select"
    classes = (40, 40, 40, 40, 150)
    pool_cycles = 3
    trace_cycles = 2
    budget = 5
    mean_degree = 8

    def __init__(self, scale: float = 1.0):
        self.sizes = {c: max(10, int(c * scale)) for c in self.classes}

    def setup(self, seed: int, workdir: Path) -> list[SelectQuestion]:
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.pool_cycles):
            for cls in self.classes:
                n = self.sizes[cls]
                degree = min(self.mean_degree, n // 3)  # reduced only at test scale
                edges = gnm_connected(rng, n, n * degree // 2)
                path = workdir / f"g{len(pool)}.txt"
                write_graph(path, n, edges)
                kappa = float(rng.uniform(2.0, 8.0))
                pool.append(SelectQuestion(n, edges, 1.0, kappa, self.budget, str(path)))
        return pool

    def reference(self, q: SelectQuestion) -> dict:
        return oracles.greedy_reference(q.num_nodes, q.edges, q.sigma, q.kappa, q.budget)

    def run(self, q: SelectQuestion) -> tuple[int, str]:
        return cli_call([
            "select", q.graph_path, "--sigma", repr(q.sigma), "--kappa", repr(q.kappa),
            "--budget", str(q.budget), "--method", "greedy", "--json",
        ])

    def check(self, q: SelectQuestion, ref: dict, out: tuple[int, str]) -> list[str]:
        return oracles.check_select(ref, out[0], json.loads(out[1]))


# ---------------------------------------------------------------------------
# simulate


@dataclass
class SimQuestion:
    num_nodes: int
    edges: np.ndarray
    sigma: float
    kappa: float
    pinned: tuple[int, ...]
    f_bound: float
    linear_a: float | None
    x0: np.ndarray
    s0: np.ndarray
    t_end: float
    steps: int
    config: object  # pinnet.SimConfig, built during setup


class Simulate(Workload):
    """simulate(config) then check_decay(traj), in process, on certified K_n.

    Configs are drawn as in acceptance test 4 (ScalarSaturated, one pin,
    kappa 20-60 times sigma*n, kept only if evaluate() certifies them), with
    a fixed step count. The last slot of each cycle is LinearDynamics, which
    the matrix exponential checks.
    """

    name = "simulate"
    classes = (3, 4, 5, 6, "linear")
    pool_cycles = 4
    trace_cycles = 4
    dt = 1e-3

    def __init__(self, scale: float = 1.0):
        self.steps = max(50, int(2000 * scale))

    def setup(self, seed: int, workdir: Path) -> list[SimQuestion]:
        rng = np.random.default_rng(seed)
        return [self._draw(rng, cls) for _ in range(self.pool_cycles) for cls in self.classes]

    def _draw(self, rng, cls) -> SimQuestion:
        one = np.eye(1)
        while True:
            n = int(rng.integers(3, 7)) if cls == "linear" else cls
            sigma = float(rng.choice([0.5, 1.0, 2.0]))
            f_bound = float(rng.uniform(0.02, 0.12)) * sigma
            if cls == "linear":
                linear_a = f_bound * float(rng.choice([-1.0, 1.0]))
                dyn = pinnet.LinearDynamics([[linear_a]])
                f_bound = abs(linear_a)
            else:
                linear_a = None
                a, b = draw_saturated(rng, f_bound)
                dyn = pinnet.ScalarSaturatedDynamics(a, b)
                f_bound = abs(a) + abs(b)
            node = int(rng.integers(0, n))
            kappa = float(rng.uniform(20.0, 60.0)) * sigma * n
            edges = complete_edges(n)
            spec = pinnet.PinnedSystemSpec(
                graph=pinnet.Graph(n, tuple(map(tuple, edges.tolist()))),
                sigma=sigma, kappa=kappa, b_matrix=one, k_matrix=kappa * one,
                q_matrix=pinnet.SymMatrix(one), pinned=(node,), f_bound=f_bound,
            )
            if not pinnet.evaluate(spec).verdict_theorem:
                continue
            x0 = rng.uniform(-1.0, 1.0, size=(n, 1))
            s0 = rng.uniform(-1.0, 1.0, size=1)
            t_end = self.steps * self.dt
            config = pinnet.SimConfig(spec, dyn, x0, s0, 0.0, t_end, self.dt)
            return SimQuestion(
                n, edges, sigma, kappa, (node,), f_bound, linear_a, x0, s0, t_end,
                self.steps, config,
            )

    def reference(self, q: SimQuestion) -> dict:
        return oracles.simulate_reference(q)

    def run(self, q: SimQuestion):
        traj = pinnet.simulate(q.config)
        return traj, pinnet.check_decay(traj)

    def check(self, q: SimQuestion, ref: dict, out) -> list[str]:
        traj, report = out
        return oracles.check_simulate(
            ref, traj.states, traj.reference, traj.lyapunov, np.eye(1), bool(report.ok)
        )


# ---------------------------------------------------------------------------
# simulate_export


@dataclass
class ExportQuestion:
    num_nodes: int
    state_dim: int
    steps: int
    t_end: float
    config_path: str
    csv_path: str


class SimulateExport(Workload):
    """simulate <cfg> --out <csv> in process: one ER network at N=200 for
    1000 steps, so the CSV export and the trajectory arrays dominate."""

    name = "simulate_export"
    classes = ("er200",)
    pool_cycles = 1
    trace_cycles = 3
    mean_degree = 10
    dt = 1e-3

    def __init__(self, scale: float = 1.0):
        self.num_nodes = max(12, int(200 * scale))
        self.steps = max(20, int(1000 * scale))

    def setup(self, seed: int, workdir: Path) -> list[ExportQuestion]:
        rng = np.random.default_rng(seed)
        n = self.num_nodes
        edges = gnm_connected(rng, n, n * self.mean_degree // 2)
        write_graph(workdir / "g.txt", n, edges)
        s = oracles.lambda_min_gt0(oracles.laplacian(n, edges))
        pinned = [int(i) for i in rng.choice(n, size=int(rng.integers(1, 3)), replace=False)]
        a, b = draw_saturated(rng, float(rng.uniform(0.05, 0.3)))
        t_end = self.steps * self.dt
        sim = {
            "t0": 0.0, "t_end": t_end, "dt": self.dt,
            "x0": {"seed": int(rng.integers(0, 2**31)), "low": -1.0, "high": 1.0},
            "s0": [float(rng.uniform(-1.0, 1.0))],
        }
        doc = scalar_config("g.txt", 1.0, 3.0 * s, pinned, a, b, sim)
        (workdir / "c.json").write_text(json.dumps(doc))
        return [ExportQuestion(n, 1, self.steps, t_end, str(workdir / "c.json"), str(workdir / "out.csv"))]

    def reference(self, q: ExportQuestion) -> None:
        return None

    def run(self, q: ExportQuestion) -> tuple[int, str]:
        return cli_call(["simulate", q.config_path, "--out", q.csv_path, "--json"])

    def check(self, q: ExportQuestion, ref, out: tuple[int, str]) -> list[str]:
        return oracles.check_export(q, out[0], json.loads(out[1]), q.csv_path)


WORKLOADS = {w.name: w for w in (Certify, Select, Simulate, SimulateExport)}
