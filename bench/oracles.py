"""Reference answers computed with plain numpy, and the checks that hold the
program's answers against them.

Nothing here imports pinnet: every reference is rebuilt from the raw inputs
the benchmark generated (node count, edge array, gains), so a defect in the
program cannot also hide in its oracle. Each ``check_*`` function returns a
list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import math

import numpy as np

RANK_RTOL = 1e-9          # rank cutoff the program documents for lambda_min>0
RANK_FLOOR = 1e-12
EXACT_RTOL = 1e-9         # exact eigenvalues against an independent eigvalsh
BOUND_ATOL = 1e-8         # a bound may overshoot the exact value by this much
SELECT_RTOL = 1e-10       # greedy objective against eigvalsh of the picked set
TIE_RTOL = 1e-10          # candidates this close to the best count as tied
LINEAR_RTOL = 1e-5        # RK4 final error against the matrix exponential
CSV_RTOL = 1e-12          # CSV last-sample errors against final_error_norm
VERDICT_MARGIN = 1e-12    # the exact verdict's documented comparison margin
CSV_HEADER = "t,node,component,x,e,V"


# ---------------------------------------------------------------------------
# linear algebra from the raw inputs


def laplacian(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """L = D - A from an (m, 2) integer edge array."""
    lap = np.zeros((num_nodes, num_nodes))
    u, v = edges[:, 0], edges[:, 1]
    np.add.at(lap, (u, u), 1.0)
    np.add.at(lap, (v, v), 1.0)
    np.add.at(lap, (u, v), -1.0)
    np.add.at(lap, (v, u), -1.0)
    return lap


def incidence(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Signed node-by-edge incidence, -1 at the smaller endpoint."""
    inc = np.zeros((num_nodes, len(edges)))
    cols = np.arange(len(edges))
    inc[edges[:, 0], cols] = -1.0
    inc[edges[:, 1], cols] = 1.0
    return inc


def smallest_positive(values: np.ndarray) -> float:
    """Smallest eigenvalue above the rank cutoff, from ascending eigvalsh output."""
    tol = max(RANK_RTOL * max(1.0, abs(values[-1])), RANK_FLOOR)
    return float(values[values > tol][0])


def lambda_min_gt0(matrix: np.ndarray) -> float:
    return smallest_positive(np.linalg.eigvalsh(matrix))


def pinned_operator(lap: np.ndarray, sigma: float, kappa: float, pinned) -> np.ndarray:
    op = sigma * lap
    idx = np.asarray(list(pinned), dtype=int)
    op[idx, idx] += kappa
    return op


def decay_threshold(f_bound: float, q: np.ndarray, b: np.ndarray) -> float:
    """2 f_bound ||Q|| / lambda_min(QB + B^T Q^T)."""
    qb = q @ b
    return 2.0 * f_bound * float(np.linalg.norm(q, 2)) / float(np.linalg.eigvalsh(qb + qb.T)[0])


def certificate_threshold(s: float, rhs: float, sigma: float, deg_sum: float):
    """Smallest certified kappa, or None where no kappa can certify.

    s is sigma lambda_min>0(L), rhs the decay threshold, deg_sum the pinned
    degree sum; the closed form is s (s - rhs) / (s - rhs - sigma deg_sum).
    """
    margin = s - rhs
    if margin <= 0.0:
        return None
    if deg_sum == 0.0:
        return s
    if margin <= sigma * deg_sum:
        return None
    return s * margin / (margin - sigma * deg_sum)


def _rel_close(value, ref: float, rtol: float) -> bool:
    return value is not None and abs(float(value) - ref) <= rtol * abs(ref)


def _lower_bound_ok(bound, exact: float) -> bool:
    """A lower bound holds when exact - bound >= -1e-8 (1 + |exact|)."""
    return bound is not None and exact - float(bound) >= -BOUND_ATOL * (1.0 + abs(exact))


# ---------------------------------------------------------------------------
# certify: kappa and bounds through the CLI, plus the arrow bounds on K_n


def certify_reference(q) -> dict:
    """Everything a certify answer is held against, for one question."""
    lap = laplacian(q.num_nodes, q.edges)
    deg = np.diag(lap)
    one = np.eye(1)
    s = q.sigma * lambda_min_gt0(lap)
    rhs = decay_threshold(q.f_bound, one, one)
    exact = lambda_min_gt0(pinned_operator(lap, q.sigma, q.kappa, q.pinned))
    threshold = certificate_threshold(s, rhs, q.sigma, float(deg[list(q.pinned)].sum()))
    ref = {
        "sigma_lambda": s,
        "rhs": rhs,
        "exact": exact,
        "verdict_exact": exact >= rhs - VERDICT_MARGIN * (1.0 + abs(rhs)),
        "kappa_exit": 0 if threshold is not None else 3,
        "certificate_defined": q.kappa > s,
        "step_exact": [
            lambda_min_gt0(pinned_operator(lap, q.sigma, q.kappa, q.pinned[: k + 1]))
            for k in range(len(q.pinned))
        ],
    }
    if q.arrow:
        # demo-02 arrow: column sqrt(kappa) e_i against the unscaled incidence
        x = np.zeros(q.num_nodes)
        x[q.pinned[0]] = math.sqrt(q.kappa)
        big_x = incidence(q.num_nodes, q.edges)
        block = big_x.T @ big_x
        arrow = np.empty((block.shape[0] + 1,) * 2)
        arrow[0, 0] = x @ x
        arrow[0, 1:] = arrow[1:, 0] = big_x.T @ x
        arrow[1:, 1:] = block
        w_block = np.linalg.eigvalsh(block)[::-1]
        tol = max(RANK_RTOL * max(1.0, abs(w_block[0])), RANK_FLOOR)
        rank = int((w_block > tol).sum())
        w_arrow = np.linalg.eigvalsh(arrow)[::-1]
        ref["arrow_top"] = float(w_arrow[0])
        ref["arrow_next"] = float(w_arrow[rank])
    return ref


ARROW_KINDS = (
    ("LiLiUpperMax", "upper", "arrow_top"),
    ("LiLiLowerMax", "lower", "arrow_top"),
    ("SmallestNonzeroLower", "lower", "arrow_next"),
    ("WeylLower", "lower", "arrow_next"),
    ("MathiasLower", "lower", "arrow_next"),
)


def check_certify(ref: dict, answer: dict) -> list[str]:
    """answer: kappa_exit, kappa (JSON dict), bounds_exit, bounds (JSON dict),
    arrow (list of (kind, bound, exact) or None)."""
    problems = []
    exact = ref["exact"]
    if answer["kappa_exit"] != ref["kappa_exit"]:
        problems.append(f"kappa exit {answer['kappa_exit']} != {ref['kappa_exit']}")
    if answer["bounds_exit"] != 0:
        problems.append(f"bounds exit {answer['bounds_exit']} != 0")
    rep = answer["kappa"]
    if not _rel_close(rep.get("exact_lambda"), exact, EXACT_RTOL):
        problems.append(f"exact_lambda {rep.get('exact_lambda')} != {exact!r}")
    if not _rel_close(rep.get("sigma_lambda"), ref["sigma_lambda"], EXACT_RTOL):
        problems.append(f"sigma_lambda {rep.get('sigma_lambda')} != {ref['sigma_lambda']!r}")
    if rep.get("verdict_exact") is not ref["verdict_exact"]:
        problems.append(f"verdict_exact {rep.get('verdict_exact')} != {ref['verdict_exact']}")
    if (rep.get("kappa_threshold") is None) != (ref["kappa_exit"] == 3):
        problems.append(f"kappa_threshold {rep.get('kappa_threshold')} disagrees with exit code")
    bnd = answer["bounds"]
    if not _rel_close(bnd.get("exact_lambda_min_gt0"), exact, EXACT_RTOL):
        problems.append(f"bounds exact {bnd.get('exact_lambda_min_gt0')} != {exact!r}")
    if not _rel_close(bnd.get("sigma_lambda_min_gt0"), ref["sigma_lambda"], EXACT_RTOL):
        problems.append(f"bounds sigma_lambda {bnd.get('sigma_lambda_min_gt0')} != {ref['sigma_lambda']!r}")
    for source, value in (("kappa", rep.get("iterative_bound")), ("bounds", bnd.get("iterative_bound"))):
        if (value is not None) != ref["certificate_defined"]:
            problems.append(f"{source} iterative_bound {value} defined != {ref['certificate_defined']}")
        elif value is not None and value > exact + BOUND_ATOL:
            problems.append(f"{source} iterative_bound {value} exceeds exact {exact!r}")
    steps = bnd.get("steps") or []
    if len(steps) != len(ref["step_exact"]):
        problems.append(f"{len(steps)} bound steps, expected {len(ref['step_exact'])}")
    for row, step_exact in zip(steps, ref["step_exact"]):
        if not _rel_close(row.get("exact"), step_exact, EXACT_RTOL):
            problems.append(f"step {row.get('step')} exact {row.get('exact')} != {step_exact!r}")
        for key in ("lili", "weyl", "mathias"):
            bound = row.get(key)
            if bound is None and key == "mathias":
                continue  # undefined at a degenerate gap, by contract
            if not _lower_bound_ok(bound, step_exact):
                problems.append(f"step {row.get('step')} {key} {bound} above exact {step_exact!r}")
    if "arrow_top" in ref:
        reports = answer.get("arrow") or []
        if [r[0] for r in reports] != [k[0] for k in ARROW_KINDS]:
            problems.append(f"arrow bound kinds {[r[0] for r in reports]}")
        for (kind, bound, value), (_, side, key) in zip(reports, ARROW_KINDS):
            if not _rel_close(value, ref[key], EXACT_RTOL):
                problems.append(f"{kind} exact {value} != {ref[key]!r}")
            slack = bound - value if side == "upper" else value - bound
            if slack < -BOUND_ATOL * (1.0 + abs(value)):
                problems.append(f"{kind} slack {slack:.3e} is negative")
    return problems


# ---------------------------------------------------------------------------
# select: greedy replay


def greedy_reference(num_nodes: int, edges: np.ndarray, sigma: float, kappa: float, budget: int) -> dict:
    """Replay greedy selection with eigvalsh. Each round records the
    candidates tied (within TIE_RTOL) for the best objective; the replay
    continues from the smallest of them."""
    op = sigma * laplacian(num_nodes, edges)
    chosen: list[int] = []
    tied_sets = []
    objective = lambda_min_gt0(op)
    for _ in range(budget):
        cands = [c for c in range(num_nodes) if c not in chosen]
        vals = []
        for c in cands:
            op[c, c] += kappa
            vals.append(lambda_min_gt0(op))
            op[c, c] -= kappa
        vals = np.array(vals)
        best = float(vals.max())
        tied = [c for c, v in zip(cands, vals) if v >= best - TIE_RTOL * (1.0 + abs(best))]
        tied_sets.append(tied)
        chosen.append(tied[0])
        op[tied[0], tied[0]] += kappa
        objective = best
    return {"picks": chosen, "tied": tied_sets, "objective": objective}


def check_select(ref: dict, exit_code: int, answer: dict) -> list[str]:
    """Each pick must be the replay's argmax. Where candidates tie within
    round-off, any of them is accepted, and the rest of the answer can then
    legitimately differ from the replay, so it is not compared."""
    problems = []
    if exit_code != 0:
        problems.append(f"select exit {exit_code} != 0")
    if answer.get("method") != "greedy":
        problems.append(f"method {answer.get('method')!r} != 'greedy'")
    picks = answer.get("pinned") or []
    if len(picks) != len(ref["picks"]):
        return problems + [f"{len(picks)} picks, expected {len(ref['picks'])}"]
    for rnd, (pick, tied) in enumerate(zip(picks, ref["tied"])):
        if pick not in tied:
            problems.append(f"pick {rnd + 1} is node {pick}, argmax is {tied}")
            return problems
        if len(tied) > 1:
            return problems
    if not _rel_close(answer.get("objective"), ref["objective"], SELECT_RTOL):
        problems.append(f"objective {answer.get('objective')} != {ref['objective']!r}")
    return problems


# ---------------------------------------------------------------------------
# simulate: Lyapunov decay and the linear matrix exponential


def linear_final_error(q) -> np.ndarray:
    """exp(T M) e0 for e' = M e, M = a I - sigma L - kappa P (scalar states),
    through eigh of the symmetric M."""
    lap = laplacian(q.num_nodes, q.edges)
    m = q.linear_a * np.eye(q.num_nodes) - pinned_operator(lap, q.sigma, q.kappa, q.pinned)
    w, v = np.linalg.eigh(m)
    e0 = (q.s0[None, :] - q.x0)[:, 0]
    return v @ (np.exp(q.t_end * w) * (v.T @ e0))


def simulate_reference(q) -> dict:
    """Certification by the closed form, and the exponential for linear runs."""
    lap = laplacian(q.num_nodes, q.edges)
    one = np.eye(1)
    s = q.sigma * lambda_min_gt0(lap)
    rhs = decay_threshold(q.f_bound, one, one)
    deg_sum = float(np.diag(lap)[list(q.pinned)].sum())
    threshold = certificate_threshold(s, rhs, q.sigma, deg_sum)
    return {
        "certified": threshold is not None and q.kappa >= threshold,
        "steps": q.steps,
        "final_error": None if q.linear_a is None else linear_final_error(q),
    }


def decays(lyapunov: np.ndarray) -> bool:
    """The documented decay contract: V falls across every sample where
    V > 1e-10 V(0), with a per-step slack of 1e-9 V(0)."""
    v0 = float(lyapunov[0])
    if v0 <= 0.0:
        return True
    active = lyapunov[:-1] > 1e-10 * v0
    return not np.any(active & (lyapunov[1:] >= lyapunov[:-1] + 1e-9 * v0))


def check_simulate(ref: dict, states, reference, lyapunov, q_matrix, decay_ok: bool) -> list[str]:
    """states (T, N, n), reference (T, n) and lyapunov (T,) from the
    trajectory; decay_ok is the program's own verdict."""
    problems = []
    if not ref["certified"]:
        problems.append("config is not certified by the closed-form threshold")
    if states.shape[0] != ref["steps"] + 1:
        problems.append(f"{states.shape[0] - 1} steps, expected {ref['steps']}")
        return problems
    errors = reference[:, None, :] - states
    v = np.einsum("tia,ab,tib->t", errors, q_matrix, errors)
    if not np.allclose(v, lyapunov, rtol=1e-12, atol=0.0):
        problems.append("Lyapunov values do not match the trajectory's errors")
    if not decay_ok:
        problems.append("check_decay failed on a certified config")
    if not decays(v):
        problems.append("V(t) does not decay on a certified config")
    if ref["final_error"] is not None:
        expected = ref["final_error"]
        rel = np.linalg.norm(errors[-1, :, 0] - expected) / np.linalg.norm(expected)
        if not rel <= LINEAR_RTOL:
            problems.append(f"final error off expm by {rel:.3e} relative")
    return problems


# ---------------------------------------------------------------------------
# simulate_export: the CSV written by `simulate --out`


def read_csv_shape(path, tail_rows: int, chunk: int = 1 << 20):
    """(header, row count, last tail_rows rows as field lists), reading in
    chunks so the check adds little to the process's peak memory."""
    newlines = 0
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip()
        fh.seek(0)
        while block := fh.read(chunk):
            newlines += block.count(b"\n")
        size = fh.tell()
        fh.seek(max(0, size - 256 * (tail_rows + 1)))
        tail = fh.read().decode().splitlines()[-tail_rows:]
    return header, newlines - 1, [line.split(",") for line in tail]


def check_export(q, exit_code: int, summary: dict, csv_path) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"simulate exit {exit_code} != 0")
    if summary.get("steps") != q.steps or summary.get("diverged") is not False:
        problems.append(f"summary steps {summary.get('steps')} diverged {summary.get('diverged')}")
        return problems
    per_sample = q.num_nodes * q.state_dim
    header, rows, tail = read_csv_shape(csv_path, per_sample)
    if header != CSV_HEADER:
        problems.append(f"CSV header {header!r}")
    if rows != (q.steps + 1) * per_sample:
        problems.append(f"CSV has {rows} rows, expected {(q.steps + 1) * per_sample}")
        return problems
    try:
        times = {float(r[0]) for r in tail}
        errors = np.array([float(r[4]) for r in tail])
    except (IndexError, ValueError):
        return problems + ["CSV tail rows are malformed"]
    if len(times) != 1 or not math.isclose(times.pop(), q.t_end, rel_tol=1e-12):
        problems.append("CSV last rows are not one sample at t_end")
    final = summary.get("final_error_norm")
    if not _rel_close(final, float(np.linalg.norm(errors)), CSV_RTOL):
        problems.append(f"CSV last-sample errors give {np.linalg.norm(errors)!r}, summary {final}")
    return problems
