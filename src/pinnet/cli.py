"""Command-line front-end: spectra, bounds, thresholds, selection, simulation.

Commands: spectrum, bounds, kappa, select, simulate. Every command accepts
--json (emit one JSON document on stdout and nothing else). kappa prints
criteria.evaluate's report; simulate adds its two verdicts to the run summary.

Exit codes: 0 success including negative findings, 2 input or validation
problems, 3 precondition-undefined outcomes, 4 numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import criteria, dynamics, selection
from .bounds import BoundKind, arrow_lower
from .errors import DegenerateGapError, PinnetError, PreconditionError, ValidationError
from .graphs import Graph, _int_text, degrees, is_connected, laplacian, parse_edge_list
from .spectral import SymMatrix, eig_values, lambda_min_gt0, lambda_min_gt0_sorted

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read graph file {path}: {exc}") from exc
    return parse_edge_list(text)


def _parse_pinned(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return ()
    try:
        return tuple(_int_text(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ValidationError(f"bad pinned list {raw!r}") from exc


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _fmt(value, digits=12):
    if value is None:
        return "undefined"
    return f"{value:.{digits}g}"


# ---------------------------------------------------------------------------
# config loading


_REQUIRED = object()


def _field(cfg: dict, path: str, convert, default=_REQUIRED):
    """convert(the value at the dotted path from the root config), or default
    when its last key is absent and a default is given; a missing or
    unconvertible value is a ValidationError that names the full path."""
    *sections, key = path.split(".")
    try:
        for section in sections:
            cfg = cfg[section]
        if default is not _REQUIRED and key not in cfg:
            return default
        return convert(cfg[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"config field {path!r} missing or malformed") from exc


def _integer(value) -> int:
    """A JSON integer; booleans, strings and other numbers are refused."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A JSON integer or float; booleans, strings and null are refused."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _string(value) -> str:
    """A JSON string; null, booleans and numbers are refused."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _array(value) -> np.ndarray:
    """A number or nested lists of numbers as a float array; booleans,
    strings and ragged lists are refused."""
    def numbers(v):
        return [numbers(x) for x in v] if isinstance(v, list) else _number(v)

    return np.array(numbers(value), dtype=float)


def _matrix_from(cfg: dict, key: str, n: int) -> np.ndarray:
    arr = _field(cfg, key, _array)
    if arr.shape != (n, n):
        raise ValidationError(f"config field {key!r} must be {n}x{n}, got {arr.shape}")
    return arr


def _dynamics_from(cfg: dict) -> dynamics.NodeDynamics:
    kind = _field(cfg, "dynamics.kind", _string)
    if kind == "linear":
        return dynamics.LinearDynamics(_field(cfg, "dynamics.matrix", _array))
    if kind == "scalar_saturated":
        a, b = _field(cfg, "dynamics.a", _number), _field(cfg, "dynamics.b", _number)
        return dynamics.ScalarSaturatedDynamics(a, b)
    raise ValidationError(f"unknown dynamics kind {kind!r}")


def load_analysis_config(path: str):
    """Parse the analysis config JSON into (spec, dynamics, the config itself)."""
    cfg_path = Path(path)
    try:
        cfg = json.loads(cfg_path.read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must be a JSON object")

    graph_path = _field(cfg, "graph_path", Path)
    if not graph_path.is_absolute():
        graph_path = cfg_path.parent / graph_path
    g = _load_graph(str(graph_path))

    n = _field(cfg, "n", _integer)
    dyn = _dynamics_from(cfg)
    f_bound = dyn.f_bound
    # null means absent
    override = _field(cfg, "f_bound_override", lambda v: v if v is None else _number(v),
                      default=None)
    if override is not None:
        if override < f_bound * (1.0 - 1e-12):
            print(
                f"warning: f_bound_override {override:.6g} is below the "
                f"closed-form bound {f_bound:.6g}",
                file=sys.stderr,
            )
        f_bound = override

    spec = criteria.PinnedSystemSpec(
        graph=g,
        sigma=_field(cfg, "sigma", _number),
        kappa=_field(cfg, "kappa", _number),
        b_matrix=_matrix_from(cfg, "b", n),
        k_matrix=_matrix_from(cfg, "k", n),
        q_matrix=SymMatrix(_matrix_from(cfg, "q", n)),
        pinned=_field(cfg, "pinned", lambda v: tuple(_integer(i) for i in v)),
        f_bound=f_bound,
    )
    return spec, dyn, cfg


def _sim_config_from(cfg: dict, spec, dyn) -> dynamics.SimConfig:
    x0 = _field(cfg, "sim.x0", lambda v: v if isinstance(v, dict) else _array(v))
    if isinstance(x0, dict):
        rng = _field(cfg, "sim.x0.seed", lambda v: np.random.default_rng(_integer(v)))
        low = _field(cfg, "sim.x0.low", _number, default=-1.0)
        high = _field(cfg, "sim.x0.high", _number, default=1.0)
        if not (low <= high and math.isfinite(high - low)):
            raise ValidationError(f"config field 'sim.x0' needs low <= high and a finite "
                                  f"high - low, got low {low!r} and high {high!r}")
        x0 = rng.uniform(low, high, size=(spec.graph.num_nodes, spec.state_dim))
    return dynamics.SimConfig(
        system=spec,
        dynamics=dyn,
        x0=x0,
        s0=_field(cfg, "sim.s0", _array),
        t0=_field(cfg, "sim.t0", _number),
        t_end=_field(cfg, "sim.t_end", _number),
        dt=_field(cfg, "sim.dt", _number),
    )


# ---------------------------------------------------------------------------
# commands


def _pinned_spectra(args):
    """The graph, the pins, and the descending eigenvalues of sigma L + kappa P and of L."""
    g = _load_graph(args.graph)
    pinned = _parse_pinned(args.pinned)
    op = criteria.pinned_operator(g, args.sigma, args.kappa, pinned)
    return g, pinned, eig_values(op), eig_values(laplacian(g))


def cmd_spectrum(args) -> int:
    g, pinned, op_w, lap_w = _pinned_spectra(args)
    payload = {
        "num_nodes": g.num_nodes,
        "num_edges": g.num_edges,
        "connected": is_connected(g),
        "lambda_min_gt0_laplacian": lambda_min_gt0_sorted(lap_w),
        "lambda_max_laplacian": float(lap_w[0]),
        "sigma": args.sigma,
        "kappa": args.kappa,
        "pinned": list(pinned),
        "lambda_min_gt0_pinned": lambda_min_gt0_sorted(op_w),
    }
    lines = [
        f"nodes: {g.num_nodes}  edges: {g.num_edges}  connected: {payload['connected']}",
        f"lambda_min>0(L) = {_fmt(payload['lambda_min_gt0_laplacian'])}",
        f"lambda_max(L)   = {_fmt(payload['lambda_max_laplacian'])}",
        f"lambda_min>0(sigma L + kappa P) = {_fmt(payload['lambda_min_gt0_pinned'])}"
        f"  (sigma={args.sigma:g}, kappa={args.kappa:g}, pinned={list(pinned)})",
    ]
    if args.full:
        spectrum = op_w.tolist()
        payload["spectrum_pinned"] = spectrum
        lines.append("spectrum(sigma L + kappa P): " + ", ".join(f"{v:.9g}" for v in spectrum))
    _emit(args, lines, payload)
    return EXIT_OK


_STEP_BOUNDS = {"lili": BoundKind.SMALLEST_NONZERO_LOWER, "weyl": BoundKind.WEYL_LOWER,
                "mathias": BoundKind.MATHIAS_LOWER}


def _step_rows(g, sigma, kappa, pinned, s, exact):
    """Per pin append: the arrow lower bounds and the exact lambda_min>0 after it.

    s and exact are lambda_min>0 before the first and after the last append.
    The bounds are computed as certificate_bound computes its terms: in units
    of 2^e, e the exponent of s, with the border weight sigma kappa deg_i in
    units of 2^(2e), so they neither underflow nor overflow at extreme scales.
    """
    deg = degrees(g)
    mus = [lambda_min_gt0(criteria.pinned_operator(g, sigma, kappa, pinned[:k]))
           for k in range(1, len(pinned))] + [exact]
    _, e = math.frexp(s)
    sigma_u, kappa_u = math.ldexp(sigma, -e), math.ldexp(kappa, -e)
    rows = []
    for step, (node, mu_prev, mu) in enumerate(zip(pinned, [s] + mus, mus), start=1):
        w = sigma_u * kappa_u * float(deg[node])
        row = {"step": step, "node": node, "degree": int(deg[node]), "exact": float(mu)}
        for key, kind in _STEP_BOUNDS.items():
            try:
                bound = arrow_lower(kind, kappa_u, math.ldexp(mu_prev, -e), w)
                row[key] = math.ldexp(float(bound), e)
            except DegenerateGapError:  # a degenerate Mathias gap
                row[key] = None
        rows.append(row)
    return rows


def cmd_bounds(args) -> int:
    g, pinned, op_w, lap_w = _pinned_spectra(args)
    sigma, kappa = args.sigma, args.kappa
    exact = lambda_min_gt0_sorted(op_w)
    s = sigma * lambda_min_gt0_sorted(lap_w)
    deg = degrees(g)
    payload = {
        "sigma": sigma,
        "kappa": kappa,
        "pinned": list(pinned),
        "sigma_lambda_min_gt0": s,
        "exact_lambda_min_gt0": exact,
    }
    lines = [
        f"sigma*lambda_min>0(L) = {_fmt(s)}",
        f"exact lambda_min>0(sigma L + kappa P) = {_fmt(exact)}",
    ]
    try:
        bound = criteria.certificate_bound(s, sigma, kappa, deg[list(pinned)])
    except PreconditionError:
        payload["iterative_bound"] = None
        payload["iterative_bound_reason"] = (
            f"undefined (kappa {kappa:g} <= sigma*lambda_min>0(L) {s:g})"
        )
        lines.append(f"iterative bound: {payload['iterative_bound_reason']}")
    else:
        payload["iterative_bound"] = bound
        payload["iterative_bound_slack"] = exact - bound
        lines.append(
            f"iterative bound = {_fmt(bound)}   slack = {_fmt(exact - bound)}"
        )
    rows = _step_rows(g, sigma, kappa, pinned, s, exact)
    payload["steps"] = rows
    if rows:
        lines.append("per-step bounds (from the column-append sequence):")
        lines.append(f"{'step':>4} {'node':>4} {'deg':>4} {'weyl':>14} {'mathias':>14} {'lili':>14} {'exact':>14}")
        for r in rows:
            mathias_txt = f"{r['mathias']:>14.6g}" if r["mathias"] is not None else f"{'-':>14}"
            lines.append(
                f"{r['step']:>4} {r['node']:>4} {r['degree']:>4} "
                f"{r['weyl']:>14.6g} {mathias_txt} "
                f"{r['lili']:>14.6g} {r['exact']:>14.6g}"
            )
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_kappa(args) -> int:
    spec, _, _ = load_analysis_config(args.config)
    report = criteria.evaluate(spec)
    payload = report.to_dict()
    lines = [
        f"structural_ok: {report.structural_ok}"
        f"  (identity residual {_fmt(report.identity_residual, 6)},"
        f" lambda_min(QB+B^TQ^T) {_fmt(report.qb_lambda_min, 6)})",
        f"connected: {report.connected}   flags: {list(report.flags)}",
        f"sigma*lambda_min>0(L): {_fmt(report.sigma_lambda)}",
        f"rhs_threshold: {_fmt(report.rhs_threshold)}",
        f"f_condition_ok: {report.f_condition_ok}",
        f"iterative_bound at kappa={spec.kappa:g}: {_fmt(report.iterative_bound)}",
        f"kappa_threshold: {_fmt(report.kappa_threshold)}",
        f"exact lambda_min>0(sigma L + kappa P): {_fmt(report.exact_lambda)}",
        f"verdict_theorem: {report.verdict_theorem}",
        f"verdict_exact: {report.verdict_exact}",
    ]
    for name, reason in report.reasons.items():
        lines.append(f"  {name}: {reason}")
    _emit(args, lines, payload)
    if report.kappa_threshold is None:
        reason = report.reasons.get("kappa_threshold", "kappa_threshold undefined")
        print(f"kappa_threshold undefined: {reason}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def cmd_select(args) -> int:
    g = _load_graph(args.graph)
    fn = {
        selection.GREEDY: selection.greedy_select,
        selection.DEGREE: selection.degree_select,
        selection.EXHAUSTIVE: selection.exhaustive_select,
    }[args.method]
    result = fn(g, args.sigma, args.kappa, args.budget)
    payload = {
        "method": result.method,
        "pinned": list(result.pinned),
        "objective": result.objective,
        "evaluations": result.evaluations,
    }
    lines = [
        f"method: {result.method}",
        f"pinned: {list(result.pinned)}",
        f"objective lambda_min(sigma L + kappa P) = {_fmt(result.objective)}",
        f"evaluations: {result.evaluations}",
    ]
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec, dyn, cfg = load_analysis_config(args.config)
    config = _sim_config_from(cfg, spec, dyn)
    if args.out:
        try:  # an unwritable target fails before the run, not after it
            open(args.out, "a").close()
        except OSError as exc:
            raise ValidationError(f"cannot write trajectory CSV {args.out}: {exc}") from exc
    report = criteria.evaluate(spec)
    traj = dynamics.simulate(config)
    if args.out:
        dynamics.write_trajectory_csv(traj, args.out)
    summary = {
        **dynamics.trajectory_summary(traj),
        "diverged": traj.diverged_at is not None,
        "diverged_at": traj.diverged_at,
        "verdict_theorem": report.verdict_theorem,
        "verdict_exact": report.verdict_exact,
        "csv": args.out,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")

    parser = argparse.ArgumentParser(
        prog="pinnet",
        description="Pinning-controllability analysis of coupled oscillator networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="Laplacian and pinned spectra")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--pinned", default="", help="comma-separated node indices")
    p.add_argument("--full", action="store_true", help="print the full pinned spectrum")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("bounds", parents=[common], help="certificate bounds vs exact values")
    p.add_argument("graph")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--pinned", default="")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("kappa", parents=[common], help="criterion report and gain threshold")
    p.add_argument("config", help="analysis config JSON")
    p.set_defaults(handler=cmd_kappa)

    p = sub.add_parser("select", parents=[common], help="choose pinned nodes under a budget")
    p.add_argument("graph")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--budget", type=_int_text, required=True)
    p.add_argument(
        "--method",
        choices=[selection.GREEDY, selection.DEGREE, selection.EXHAUSTIVE],
        default=selection.GREEDY,
    )
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("simulate", parents=[common], help="integrate and verify decay")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p.set_defaults(handler=cmd_simulate)

    return parser


_PARSER = build_parser()  # the grammar never changes, so every main() call reuses it


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except PinnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            return EXIT_INPUT
        return EXIT_PRECONDITION if isinstance(exc, PreconditionError) else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
