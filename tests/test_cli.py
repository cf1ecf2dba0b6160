import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinnet
from pinnet import cli
from pinnet import (
    complete_graph,
    erdos_renyi,
    kappa_threshold,
    path_graph,
    star_graph,
    to_edge_list,
)
from pinnet.cli import main
from pinnet.dynamics import MAX_WORKERS, MIN_ROWS_PER_WORKER

from helpers import break_eigh, break_eigvalsh, no_convergence, scalar_spec


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name):
        path = tmp_path / name
        path.write_text(to_edge_list(g))
        return str(path)

    return write


def config_doc(graph_path, sigma, kappa, pinned, dynamics, n=1, sim=None, **extra):
    doc = {
        "graph_path": graph_path,
        "sigma": sigma,
        "kappa": kappa,
        "pinned": list(pinned),
        "n": n,
        "b": np.eye(n).tolist(),
        "k": (kappa * np.eye(n)).tolist(),
        "q": np.eye(n).tolist(),
        "dynamics": dynamics,
    }
    if sim is not None:
        doc["sim"] = sim
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_spectrum_path3(graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    code, payload = run_json(capsys, ["spectrum", path, "--json"])
    assert code == 0
    assert payload["lambda_min_gt0_laplacian"] == pytest.approx(1.0)
    assert payload["lambda_max_laplacian"] == pytest.approx(3.0)
    assert payload["connected"] is True


def test_spectrum_complete4(graph_file, capsys):
    path = graph_file(complete_graph(4), "k4.txt")
    code, payload = run_json(capsys, ["spectrum", path, "--json"])
    assert code == 0
    assert payload["lambda_min_gt0_laplacian"] == pytest.approx(4.0)


def test_spectrum_full_pinned(graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    code, payload = run_json(
        capsys, ["spectrum", path, "--sigma", "1", "--kappa", "2", "--pinned", "0", "--full", "--json"]
    )
    assert code == 0
    assert len(payload["spectrum_pinned"]) == 3
    assert payload["lambda_min_gt0_pinned"] == pytest.approx(min(payload["spectrum_pinned"]))


def test_spectrum_human_output(graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    assert main(["spectrum", path]) == 0
    out = capsys.readouterr().out
    assert "lambda_min>0(L)" in out


def test_malformed_graph_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("N 2\n0 zero\n")
    assert main(["spectrum", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_graph_exits_2(tmp_path, capsys):
    assert main(["spectrum", str(tmp_path / "nope.txt")]) == 2


@pytest.mark.parametrize("command", ["bounds", "spectrum"])
@pytest.mark.parametrize("pinned", ["7", "-1", "0,0"])
def test_bad_pinned_exits_2(graph_file, capsys, command, pinned):
    path = graph_file(complete_graph(5), "k5.txt")
    assert main([command, path, "--kappa", "50", "--pinned", pinned]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pinned ind" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--sigma", "0", "--kappa", "2", "--pinned", "0"],
        ["spectrum", "--sigma", "0"],
        ["spectrum", "--sigma", "-1"],
        ["spectrum", "--kappa", "-1", "--pinned", "0"],
        ["bounds", "--sigma", "-1", "--kappa", "2", "--pinned", "0"],
        ["bounds", "--kappa", "-1", "--pinned", "0"],
    ],
    ids=["bounds-sigma0", "spectrum-sigma0", "spectrum-sigma-1", "spectrum-kappa-1",
         "bounds-sigma-1", "bounds-kappa-1"],
)
def test_bad_gains_exit_2(graph_file, capsys, argv):
    path = graph_file(path_graph(4), "p4.txt")
    assert main([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


def test_bounds_path3(graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    code, payload = run_json(
        capsys, ["bounds", path, "--sigma", "1", "--kappa", "5", "--pinned", "1", "--json"]
    )
    assert code == 0
    assert payload["iterative_bound"] == pytest.approx(-0.7416573867739416, abs=1e-9)
    assert payload["exact_lambda_min_gt0"] == pytest.approx(0.6833752096446002, abs=1e-9)
    assert payload["iterative_bound"] <= payload["exact_lambda_min_gt0"]
    (step,) = payload["steps"]
    assert step["node"] == 1 and step["degree"] == 2
    assert step["lili"] <= step["exact"] + 1e-9
    assert step["weyl"] <= step["lili"] + 1e-12


def test_bounds_below_pole(graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    code, payload = run_json(
        capsys, ["bounds", path, "--kappa", "0.5", "--pinned", "1", "--json"]
    )
    assert code == 0
    assert payload["iterative_bound"] is None
    assert "kappa" in payload["iterative_bound_reason"]


def test_bounds_degenerate_mathias_gap_prints_null(graph_file, capsys):
    # K3 at kappa 3 = lambda_min>0(L): |c - lambda_r| = 0 leaves Mathias vacuous
    path = graph_file(complete_graph(3), "k3.txt")
    code, payload = run_json(capsys, ["bounds", path, "--kappa", "3", "--pinned", "0", "--json"])
    assert code == 0
    (step,) = payload["steps"]
    assert step["mathias"] is None
    assert step["lili"] is not None and step["weyl"] is not None
    assert payload["iterative_bound"] is None


def test_bounds_empty_pinned(graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    code, payload = run_json(capsys, ["bounds", path, "--kappa", "5", "--json"])
    assert code == 0
    assert payload["iterative_bound"] == pytest.approx(payload["exact_lambda_min_gt0"])
    assert payload["steps"] == []


def certified_k3_config(tmp_path, graph_file, kappa=20.0, fb=(0.2, 0.1), sim=None):
    path = graph_file(complete_graph(3), "k3.txt")
    doc = config_doc(
        path,
        sigma=1.0,
        kappa=kappa,
        pinned=[0],
        dynamics={"kind": "scalar_saturated", "a": fb[0], "b": fb[1]},
        sim=sim,
    )
    return write_config(tmp_path, doc)


def test_kappa_certified(tmp_path, graph_file, capsys):
    cfg = certified_k3_config(tmp_path, graph_file)
    code, payload = run_json(capsys, ["kappa", cfg, "--json"])
    assert code == 0
    # threshold for K3, one pinned node of degree 2, rhs = 0.3
    expected = 3.0 * 2.7 / 0.7
    assert payload["kappa_threshold"] == pytest.approx(expected, rel=1e-9)
    assert payload["verdict_theorem"] is True
    assert payload["verdict_exact"] is True
    assert payload["structural_ok"] is True


def test_kappa_threshold_unattainable_exits_3(tmp_path, graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    doc = config_doc(path, 1.0, 3.0, [0], {"kind": "scalar_saturated", "a": 0.4, "b": 0.1})
    cfg = write_config(tmp_path, doc)
    code = main(["kappa", cfg, "--json"])
    captured = capsys.readouterr()
    assert code == 3
    payload = json.loads(captured.out)
    assert payload["kappa_threshold"] is None
    assert "degree sum" in captured.err


def test_kappa_unpinned_component_exits_3(tmp_path, graph_file, capsys):
    path = graph_file(pinnet.disjoint_union(complete_graph(5), complete_graph(5)), "2k5.txt")
    doc = config_doc(path, 1.0, 300.0, [0], {"kind": "scalar_saturated", "a": 0.3, "b": 0.2})
    cfg = write_config(tmp_path, doc)
    code = main(["kappa", cfg, "--json"])
    captured = capsys.readouterr()
    assert code == 3
    payload = json.loads(captured.out)
    assert payload["verdict_theorem"] is False
    assert payload["verdict_exact"] is False
    assert payload["reasons"]["unpinned_component"] == "component {5..9} has no pinned node"
    assert "component {5..9} has no pinned node" in captured.err


def test_kappa_f_condition_fails_exits_3(tmp_path, graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    doc = config_doc(path, 1.0, 3.0, [0], {"kind": "scalar_saturated", "a": 1.0, "b": 0.5})
    cfg = write_config(tmp_path, doc)
    code = main(["kappa", cfg, "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert "rhs_threshold" in captured.err
    assert json.loads(captured.out)["f_condition_ok"] is False


def test_kappa_non_finite_sigma_exits_2(tmp_path, graph_file, capsys):
    path = graph_file(complete_graph(3), "k3.txt")
    doc = config_doc(path, 1.0, 20.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1})
    doc["sigma"] = float("nan")
    cfg = write_config(tmp_path, doc)  # json writes the NaN literal, which json.loads accepts
    assert main(["kappa", cfg, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma must be finite" in captured.err


def test_kappa_structural_violation_exits_0(tmp_path, graph_file, capsys):
    path = graph_file(complete_graph(3), "k3.txt")
    doc = config_doc(path, 1.0, 20.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1})
    doc["k"] = [[40.0]]  # breaks QK + K^T Q^T = kappa (QB + B^T Q^T)
    cfg = write_config(tmp_path, doc)
    code, payload = run_json(capsys, ["kappa", cfg, "--json"])
    assert code == 0
    assert payload["structural_ok"] is False
    assert payload["verdict_theorem"] is False


def test_unreadable_config_exits_2(tmp_path, capsys):
    # a directory cannot be read as a file
    assert main(["kappa", str(tmp_path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot read config" in captured.err


@pytest.mark.parametrize("text, message", [("{not json", "is not valid JSON"),
                                           ("[1, 2]", "must be a JSON object")])
def test_malformed_config_document_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["kappa", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def k5_linear_config(tmp_path, graph_file, c):
    """K5 pinned at node 0 with sigma, kappa, K and f_bound = ||A|| all scaled by c."""
    path = graph_file(complete_graph(5), "k5.txt")
    doc = config_doc(path, c, 10.0 * c, [0], {"kind": "linear", "matrix": [[0.5 * c]]})
    return write_config(tmp_path, doc, name=f"k5_{c!r}.json")


def test_kappa_certificate_is_scale_free(tmp_path, graph_file, capsys):
    # sigma kappa deg_i underflows at 1e-300 and overflows at 1e160 unless the
    # certificate is computed in units of a power of two
    runs = {}
    for c in (1.0, 1e-300, 1e160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["kappa", k5_linear_config(tmp_path, graph_file, c), "--json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        runs[c] = strict_json(captured.out)
    unit = runs.pop(1.0)
    assert unit["iterative_bound"] == 0.6992647456322789
    assert unit["kappa_threshold"] == pytest.approx(45.0, rel=1e-12)
    assert (unit["verdict_theorem"], unit["verdict_exact"]) == (False, True)
    for c, payload in runs.items():
        for key in ("iterative_bound", "kappa_threshold"):
            assert payload[key] / c == pytest.approx(unit[key], rel=1e-12)
        for key in ("verdict_theorem", "verdict_exact", "structural_ok", "reasons"):
            assert payload[key] == unit[key]


def test_bounds_step_rows_are_scale_free(graph_file, capsys):
    # sigma kappa deg_i underflows at 1e-300 and overflows at 1e160 unless the
    # per-step rows are computed in units of a power of two, as the certificate is
    path = graph_file(complete_graph(5), "k5.txt")
    runs = {}
    for c in (1.0, 2.0**-990, 2.0**500, 1e-300, 1e160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bounds", path, "--pinned", "0,1,2", "--sigma", repr(c),
                         "--kappa", repr(10.0 * c), "--json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        runs[c] = strict_json(captured.out)["steps"]
    unit = runs.pop(1.0)
    assert [row["mathias"] is None for row in unit] == [False] * 3
    for c, rows in runs.items():
        assert [row["node"] for row in rows] == [0, 1, 2]
        for row, want in zip(rows, unit):
            # round-off alone puts the tight first Li-Li row 2e-15 above exact
            assert row["lili"] <= row["exact"] * (1.0 + 1e-8), (c, row)
            for key in ("weyl", "mathias", "lili", "exact"):
                if c in (2.0**-990, 2.0**500):  # exact scaling
                    assert row[key] == c * want[key], (c, key)
                else:
                    assert row[key] / c == pytest.approx(want[key], rel=1e-12), (c, key)


def test_f_bound_override_warning_is_scale_free(tmp_path, graph_file, capsys):
    path = graph_file(complete_graph(5), "k5.txt")
    for c in (1.0, 1e-300):
        doc = config_doc(path, c, 10.0 * c, [0], {"kind": "linear", "matrix": [[0.5 * c]]})
        for override, warns in ((0.0, True), (0.5 * c, False)):
            doc["f_bound_override"] = override
            code = main(["kappa", write_config(tmp_path, doc), "--json"])
            captured = capsys.readouterr()
            assert code == 0
            assert ("below the closed-form bound" in captured.err) == warns, (c, override)


def test_linear_dynamics_config_simulates(tmp_path, graph_file, capsys):
    sim = {"t0": 0.0, "t_end": 2.0, "dt": 0.01, "x0": {"seed": 3}, "s0": [0.5]}
    path = graph_file(complete_graph(3), "k3.txt")
    doc = config_doc(path, 1.0, 20.0, [0], {"kind": "linear", "matrix": [[0.3]]}, sim=sim)
    code = main(["simulate", write_config(tmp_path, doc)])
    summary = strict_json(capsys.readouterr().out)
    assert code == 0
    assert summary["verdict_theorem"] is True and summary["verdict_exact"] is True
    assert summary["decayed"] is True and summary["diverged"] is False


def test_kappa_f_bound_override_warning(tmp_path, graph_file, capsys):
    path = graph_file(complete_graph(3), "k3.txt")
    doc = config_doc(path, 1.0, 20.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1})
    doc["f_bound_override"] = 0.05  # below the closed-form value 0.3
    cfg = write_config(tmp_path, doc)
    code = main(["kappa", cfg, "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err


def test_select_star(graph_file, capsys):
    path = graph_file(star_graph(4), "s4.txt")
    code, greedy = run_json(
        capsys, ["select", path, "--kappa", "10", "--budget", "1", "--method", "greedy", "--json"]
    )
    assert code == 0
    code, best = run_json(
        capsys, ["select", path, "--kappa", "10", "--budget", "1", "--method", "exhaustive", "--json"]
    )
    assert code == 0
    assert greedy["pinned"] == best["pinned"]
    assert greedy["objective"] == pytest.approx(best["objective"])
    assert greedy["evaluations"] == 4


def test_select_text_reports_evaluations(graph_file, capsys):
    path = graph_file(star_graph(4), "s4.txt")
    assert main(["select", path, "--kappa", "10", "--budget", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "evaluations: 7"


def test_tol_option_removed(graph_file, tmp_path, capsys):
    doc = config_doc(graph_file(complete_graph(5), "k5.txt"), 1.0, 45.0, (0,),
                     {"kind": "scalar_saturated", "a": 0.3, "b": 0.2})
    cfg = write_config(tmp_path, doc)
    for command in ("kappa", "simulate"):
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_select_budget_zero(graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    code, payload = run_json(
        capsys, ["select", path, "--kappa", "5", "--budget", "0", "--json"]
    )
    assert code == 0
    assert payload["pinned"] == []
    assert payload["objective"] == 0.0


def test_select_budget_too_big_exits_2(graph_file, capsys):
    path = graph_file(path_graph(3), "p3.txt")
    assert main(["select", path, "--kappa", "5", "--budget", "7"]) == 2


def test_select_guard_exits_3(graph_file, capsys):
    path = graph_file(path_graph(50), "p50.txt")
    code = main(
        ["select", path, "--kappa", "5", "--budget", "25", "--method", "exhaustive"]
    )
    assert code == 3


def test_simulate_certified_decay(tmp_path, graph_file, capsys):
    sim = {
        "t0": 0.0,
        "t_end": 3.0,
        "dt": 0.01,
        "x0": {"seed": 7, "low": -1.0, "high": 1.0},
        "s0": [0.2],
    }
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)
    out_csv = str(tmp_path / "traj.csv")
    code = main(["simulate", cfg, "--out", out_csv])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert summary["decayed"] is True
    assert summary["verdict_theorem"] is True
    assert summary["verdict_exact"] is True
    assert summary["diverged"] is False
    header = open(out_csv).readline().strip()
    assert header == "t,node,component,x,e,V"


def test_simulate_zero_initial_error(tmp_path, graph_file, capsys):
    sim = {
        "t0": 0.0,
        "t_end": 1.0,
        "dt": 0.01,
        "x0": [[0.2], [0.2], [0.2]],
        "s0": [0.2],
    }
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)
    code = main(["simulate", cfg])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["decayed"] is True
    assert summary["final_error_norm"] <= 1e-10


def test_simulate_divergence_exits_0(tmp_path, graph_file, capsys):
    path = graph_file(path_graph(2), "p2.txt")
    doc = config_doc(
        path,
        sigma=1.0,
        kappa=0.0,
        pinned=[],
        dynamics={"kind": "scalar_saturated", "a": 2.0, "b": 0.0},
        sim={"t0": 0.0, "t_end": 40.0, "dt": 0.01, "x0": [[2.0], [-1.0]], "s0": [0.5]},
    )
    cfg = write_config(tmp_path, doc)
    code = main(["simulate", cfg])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["diverged"] is True
    assert summary["decayed"] is False
    assert summary["diverged_at"] > 0


def test_simulate_diverged_run_not_decayed(tmp_path, graph_file, capsys):
    # the first RK4 step overflows; the one-sample partial run must not read as decayed
    sim = {"t0": 0.0, "t_end": 1.0, "dt": 0.01, "x0": {"seed": 7}, "s0": [0.2]}
    cfg = certified_k3_config(tmp_path, graph_file, kappa=1e15, sim=sim)
    code = main(["simulate", cfg])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["diverged"] is True
    assert summary["steps"] == 0
    assert summary["decayed"] is False


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_simulate_huge_x0_prints_strict_json(tmp_path, graph_file, capsys):
    # the only finite sample holds the error 1e200, whose square overflows a float
    path = graph_file(path_graph(3), "p3.txt")
    sim = {"t0": 0.0, "t_end": 1.0, "dt": 0.01, "x0": [1e200, 0.0, 0.0], "s0": [0.0]}
    doc = config_doc(path, 1.0, 1.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1},
                     sim=sim)
    code = main(["simulate", write_config(tmp_path, doc), "--json"])
    summary = strict_json(capsys.readouterr().out)
    assert code == 0
    assert summary["final_error_norm"] == 1e200
    assert summary["diverged"] is True and summary["decayed"] is False


def test_simulate_norm_past_largest_float_prints_null(tmp_path, graph_file, capsys):
    # ||e(0)|| = 1.7e308 sqrt(2) exceeds the largest float: null, not Infinity
    path = graph_file(path_graph(3), "p3.txt")
    sim = {"t0": 0.0, "t_end": 1.0, "dt": 0.01, "x0": [1.7e308, 1.7e308, 0.0], "s0": [0.0]}
    doc = config_doc(path, 1.0, 1.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1},
                     sim=sim)
    code = main(["simulate", write_config(tmp_path, doc), "--json"])
    summary = strict_json(capsys.readouterr().out)
    assert code == 0
    assert summary["final_error_norm"] is None
    assert summary["diverged"] is True and summary["steps"] == 0


def test_simulate_overflowing_step_warns_of_nothing(tmp_path, graph_file, capsys):
    # the first step overflows; diverged_at reports it, so numpy must not warn too
    path = graph_file(path_graph(3), "p3.txt")
    sim = {"t0": 0.0, "t_end": 1.0, "dt": 0.01, "x0": [1.7e308, 1.7e308, 0.0], "s0": [0.0]}
    doc = config_doc(path, 1.0, 1.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1},
                     sim=sim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", write_config(tmp_path, doc), "--json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert strict_json(captured.out)["diverged"] is True


@pytest.mark.parametrize("k", [25.0, 20.0])
def test_kappa_structural_check_is_scale_free(tmp_path, graph_file, capsys, k):
    # QK + K^T Q^T = kappa (QB + B^T Q^T) fails at K = 25 and holds at K = 20
    # for every scale of Q: 1e-200 must not shrink the residual under a fixed floor
    path = graph_file(complete_graph(3), "k3.txt")
    runs = []
    for q in (1.0, 1e-200, 1e200):
        doc = config_doc(path, 1.0, 20.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1},
                         q=[[q]], k=[[k]])
        code = main(["kappa", write_config(tmp_path, doc), "--json"])
        payload = strict_json(capsys.readouterr().out)
        runs.append((code, *(payload[key] for key in
                             ("structural_ok", "verdict_theorem", "verdict_exact"))))
    assert runs[0][1] is (k == 20.0)
    assert runs == [runs[0]] * 3


def test_kappa_huge_q_matches_unit_q(tmp_path, graph_file, capsys):
    # the verdicts are invariant under scaling Q: ||Q|| = 1e200 must not
    # overflow, and lambda_min(QB + B^T Q^T) = 2e-200 is not degenerate
    path = graph_file(complete_graph(3), "k3.txt")
    runs = []
    for q in (1.0, 1e-200, 1e200):
        doc = config_doc(path, 1.0, 20.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1},
                         q=[[q]])
        code = main(["kappa", write_config(tmp_path, doc), "--json"])
        runs.append((code, strict_json(capsys.readouterr().out)))
    (unit_code, unit), *scaled = runs
    assert unit_code == 0
    for code, payload in scaled:
        assert code == unit_code
        for key in ("verdict_theorem", "verdict_exact", "structural_ok"):
            assert payload[key] == unit[key]
        assert payload["rhs_threshold"] == pytest.approx(unit["rhs_threshold"], rel=1e-12)


def test_simulate_non_finite_dynamics_exits_2(tmp_path, graph_file, capsys):
    path = graph_file(complete_graph(3), "k3.txt")
    sim = {"t0": 0.0, "t_end": 1.0, "dt": 0.01, "x0": {"seed": 7}, "s0": [0.2]}
    doc = config_doc(path, 1.0, 20.0, [0], {"kind": "scalar_saturated", "a": float("nan"), "b": 0.1},
                     sim=sim, f_bound_override=0.3)
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "field, value",
    [("pinned", [0.9]), ("pinned", "01"), ("pinned", [True]), ("pinned", ["0"]),
     ("n", 1.7), ("n", True), ("n", "1"), ("x0.seed", 1.5), ("x0.seed", True), ("x0.seed", -1)],
)
def test_integer_config_fields_strict(tmp_path, graph_file, capsys, field, value):
    sim = {"t0": 0.0, "t_end": 0.1, "dt": 0.01, "x0": {"seed": 7}, "s0": [0.2]}
    doc = json.loads(Path(certified_k3_config(tmp_path, graph_file, sim=sim)).read_text())
    if field == "x0.seed":
        doc["sim"]["x0"]["seed"] = value
    else:
        doc[field] = value
    cfg = write_config(tmp_path, doc, "strict.json")
    commands = ["simulate"] if field == "x0.seed" else ["kappa", "simulate"]  # kappa ignores sim
    for command in commands:
        assert main([command, cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed" in captured.err


STRICT_SIM = {"t0": 0.0, "t_end": 2.0, "dt": 0.5, "x0": {"seed": 7, "low": -1.0}, "s0": [0.2]}


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f, text in [("sigma", "1.0"), ("kappa", "20"), ("f_bound_override", "0.3"),
                            ("dynamics.a", "0.2"), ("dynamics.b", "0.1"), ("sim.t0", "0"),
                            ("sim.t_end", "2"), ("sim.dt", "0.5"), ("sim.x0.low", "-1")]
     for v in (True, text)]
    + [(f, v) for f in ("b", "q", "sim.s0") for v in ([[True]], [["1"]])],
)
def test_number_config_fields_strict(tmp_path, graph_file, capsys, field, value):
    # each value would read as a valid number through float() or np.asarray
    doc = json.loads(Path(certified_k3_config(tmp_path, graph_file, sim=STRICT_SIM)).read_text())
    *sections, key = field.split(".")
    target = doc
    for section in sections:
        target = target[section]
    target[key] = value
    cfg = write_config(tmp_path, doc, "strict.json")
    commands = ["simulate"] if sections[:1] == ["sim"] else ["kappa", "simulate"]  # kappa ignores sim
    for command in commands:
        assert main([command, cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config field {field!r} missing or malformed" in captured.err


@pytest.mark.parametrize("field", ["b", "dynamics.b", "sim.x0.seed", "sim.dt", "dynamics"])
def test_config_error_names_the_full_path(tmp_path, graph_file, capsys, field):
    # the top-level b matrix and dynamics.b are told apart
    doc = json.loads(Path(certified_k3_config(tmp_path, graph_file, sim=STRICT_SIM)).read_text())
    *sections, key = field.split(".")
    target = doc
    for section in sections:
        target = target[section]
    del target[key]
    cfg = write_config(tmp_path, doc, "missing.json")
    assert main(["simulate", cfg]) == 2
    shown = "dynamics.kind" if field == "dynamics" else field
    assert capsys.readouterr().err == f"error: config field {shown!r} missing or malformed\n"


@pytest.mark.parametrize("kind", [None, True, 3])
def test_dynamics_kind_must_be_a_string(tmp_path, graph_file, capsys, kind):
    # str() would read each as a name: "unknown dynamics kind 'None'"
    doc = json.loads(Path(certified_k3_config(tmp_path, graph_file, sim=STRICT_SIM)).read_text())
    doc["dynamics"]["kind"] = kind
    cfg = write_config(tmp_path, doc, "kind.json")
    for command in ("kappa", "simulate"):
        assert main([command, cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config field 'dynamics.kind' missing or malformed\n"


@pytest.mark.parametrize("sim", [None, [], "sim", {"t0": 0.0}])
def test_missing_or_malformed_sim_block_names_sim_x0(tmp_path, graph_file, capsys, sim):
    doc = json.loads(Path(certified_k3_config(tmp_path, graph_file)).read_text())
    if sim is not None:
        doc["sim"] = sim
    cfg = write_config(tmp_path, doc, "nosim.json")
    assert main(["simulate", cfg]) == 2
    assert capsys.readouterr().err == "error: config field 'sim.x0' missing or malformed\n"


@pytest.mark.parametrize(
    "low, high",
    [(1.0, -1.0), (float("nan"), 1.0), (-float("inf"), 1.0), (-1.0, float("inf")),
     (-1e308, 1e308), (1e308, -1e308)],
)
def test_simulate_bad_random_x0_bounds_exit_2(tmp_path, graph_file, capsys, low, high):
    sim = {"t0": 0.0, "t_end": 0.1, "dt": 0.01, "x0": {"seed": 1, "low": low, "high": high},
           "s0": [0.2]}
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)  # json writes NaN and Infinity
    assert main(["simulate", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config field 'sim.x0' needs low <= high")


def test_simulate_equal_random_x0_bounds(tmp_path, graph_file, capsys):
    sim = {"t0": 0.0, "t_end": 0.1, "dt": 0.01, "x0": {"seed": 1, "low": 2.0, "high": 2.0},
           "s0": [0.2]}
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)
    out_csv = tmp_path / "x0.csv"
    assert main(["simulate", cfg, "--out", str(out_csv)]) == 0
    first = out_csv.read_text().splitlines()[1:4]
    assert [row.split(",")[3] for row in first] == ["2.0"] * 3


def test_spectrum_bytes_stable_per_thread_count(tmp_path):
    path = tmp_path / "er300.txt"
    path.write_text(to_edge_list(erdos_renyi(300, 0.05, seed=4)))
    src = str(Path(pinnet.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "1", "2", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "pinnet.cli", "spectrum", str(path), "--json", "--full"],
            env=env, capture_output=True, check=True, timeout=120,
        ).stdout
        assert len(json.loads(out)["spectrum_pinned"]) == 300
        outputs.setdefault(threads, set()).add(out)
    assert all(len(outs) == 1 for outs in outputs.values())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control")
def test_simulate_csv_bytes_stable_per_cpu_affinity(tmp_path, graph_file):
    # 301 samples of 40 nodes: the export forks a worker per usable CPU (affinity and any
    # cgroup CPU quota, up to MAX_WORKERS), so an unpinned run on two or more CPUs writes its
    # ranges in parallel
    sim = {"t0": 0.0, "t_end": 3.0, "dt": 0.01, "x0": {"seed": 5}, "s0": [0.2]}
    doc = config_doc(graph_file(erdos_renyi(40, 0.2, seed=2), "er40.txt"), 1.0, 20.0, [0],
                     {"kind": "scalar_saturated", "a": 0.2, "b": 0.1}, sim=sim)
    cfg = write_config(tmp_path, doc)
    cpus = os.sched_getaffinity(0)
    usable = pinnet.dynamics._quota_cpus(len(cpus))
    workers = min(usable, MAX_WORKERS, 40 * 301 // MIN_ROWS_PER_WORKER)
    assert pinnet.dynamics._workers(40 * 301) == workers
    src = str(Path(pinnet.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        csvs = []
        for pinned in (True, False):
            out_csv = tmp_path / f"{threads}-{pinned}.csv"
            argv = ["simulate", cfg, "--out", str(out_csv), "--json"]
            done = subprocess.run(
                [sys.executable, "-m", "pinnet.cli", *argv],
                env=env, capture_output=True, check=True, timeout=120,
                preexec_fn=(lambda: os.sched_setaffinity(0, {min(cpus)})) if pinned else None,
            )
            assert done.stderr == b""
            assert strict_json(done.stdout.decode())["csv"] == str(out_csv)  # one document
            csvs.append(out_csv.read_bytes())
        assert csvs[0] == csvs[1] and csvs[0].count(b"\r\n") == 1 + 40 * 301


@pytest.mark.parametrize("gains", [["--sigma", "1e308", "--kappa", "1"],
                                   ["--sigma", "8e307", "--kappa", "1.5e308", "--pinned", "1"]])
def test_spectrum_overflowing_operator_reports_only_the_finiteness_error(graph_file, capsys, gains):
    # sigma deg_i, or sigma deg_i + kappa, overflows: the finiteness check is the one
    # report, numpy warns of nothing
    path = graph_file(path_graph(3), "p3.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectrum", path, *gains, "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: matrix entries must be finite\n")


@pytest.mark.parametrize("x0", [[[0.1], [float("nan")], [0.3]], [[0.1], [0.2]]])
def test_simulate_bad_x0_exits_2(tmp_path, graph_file, capsys, x0):
    sim = {"t0": 0.0, "t_end": 1.0, "dt": 0.01, "x0": x0, "s0": [0.2]}
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)
    assert main(["simulate", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x0 must" in captured.err


def test_main_reuses_one_parser(graph_file, capsys, monkeypatch):
    def rebuild():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    path = graph_file(path_graph(3), "p3.txt")
    assert [main(["spectrum", path, "--json"]) for _ in range(3)] == [0, 0, 0]
    outs = capsys.readouterr().out
    assert outs.count("lambda_min_gt0_laplacian") == 3


@pytest.mark.parametrize(
    "nodes, argv, code, broken_solver",
    [(3, ["select", "--kappa", "2", "--budget", "1"], 0, False),
     (3, ["spectrum", "--pinned", "9"], 2, False),
     (30, ["select", "--kappa", "2", "--budget", "15", "--method", "exhaustive"], 3, False),
     (3, ["spectrum"], 3, False),
     (3, ["bounds", "--kappa", "2", "--pinned", "0"], 3, False),
     (3, ["select", "--kappa", "2", "--budget", "0"], 0, False),
     (3, ["spectrum", "--kappa", "2", "--pinned", "0"], 4, True)],
    ids=["ok", "validation", "precondition", "edgeless", "edgeless_bounds", "edgeless_budget_0",
         "numerical"],
)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, nodes, argv, code,
                                           broken_solver):
    # edgeless graphs: L has no nonzero eigenvalue, so lambda_min>0 is undefined,
    # while select's lambda_min(sigma L + kappa P) is 0.0 with no pin
    if broken_solver:
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    path = tmp_path / "edgeless.txt"
    path.write_text(f"N {nodes}\n")
    assert main([argv[0], str(path), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") if code else captured.err == ""
    if code:
        assert captured.out == ""


def test_failed_values_only_guard_exits_4(tmp_path, graph_file, capsys, monkeypatch):
    cfg = certified_k3_config(tmp_path, graph_file)
    path = graph_file(path_graph(5), "p5.txt")
    break_eigvalsh(monkeypatch)
    for argv in (["kappa", cfg, "--json"], ["spectrum", path, "--kappa", "2", "--pinned", "0"]):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eigenvalues miss the trace or Frobenius identity")


def test_failed_residual_guard_exits_4_where_eigenvectors_are_read(tmp_path, graph_file, capsys,
                                                                 monkeypatch):
    cfg = certified_k3_config(tmp_path, graph_file)
    path = graph_file(path_graph(5), "p5.txt")
    break_eigh(monkeypatch)
    assert main(["select", path, "--kappa", "2", "--budget", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eigendecomposition residual")
    # kappa and spectrum read eigenvalues only, so they never call eigh
    assert main(["kappa", cfg, "--json"]) == 0
    assert main(["spectrum", path, "--kappa", "2", "--pinned", "0", "--full", "--json"]) == 0


@pytest.mark.parametrize("pinned", ["1_0", "\u0661", "+1", "\uff11"])
def test_pinned_list_reads_ascii_integers_only(graph_file, capsys, pinned):
    # int() would read 1_0 as 10 and the Arabic-Indic and fullwidth digits as 1
    path = graph_file(complete_graph(12), "k12.txt")
    assert main(["spectrum", path, "--kappa", "2", "--pinned", pinned]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad pinned list {pinned!r}\n"


@pytest.mark.parametrize("budget", ["1_0", "+2", "\u0662", " 2"])
def test_budget_reads_ascii_integers_only(graph_file, capsys, budget):
    path = graph_file(path_graph(12), "p12.txt")
    with pytest.raises(SystemExit) as exc:
        main(["select", path, "--kappa", "2", "--budget", budget, "--method", "degree"])
    assert exc.value.code == 2
    assert f"argument --budget: invalid int value: {budget!r}" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["greedy", "degree", "exhaustive"])
@pytest.mark.parametrize("n, budget", [(3, 3), (1, 1)])
def test_select_on_edgeless_and_one_node_graphs(tmp_path, capsys, method, n, budget):
    path = tmp_path / "edgeless.txt"
    path.write_text(f"N {n}\n")
    code, payload = run_json(capsys, ["select", str(path), "--kappa", "2", "--budget",
                                      str(budget), "--method", method, "--json"])
    assert code == 0
    assert (payload["pinned"], payload["objective"]) == (list(range(n)), 2.0)


def test_simulate_missing_sim_block_exits_2(tmp_path, graph_file, capsys):
    cfg = certified_k3_config(tmp_path, graph_file, sim=None)
    assert main(["simulate", cfg]) == 2


@pytest.mark.parametrize("target", ["missing-dir/run.csv", "."])
def test_simulate_unwritable_out_exits_2_before_the_run(tmp_path, graph_file, capsys, monkeypatch,
                                                        target):
    # a missing directory and a directory: both refused before any step is taken
    sim = {"t0": 0.0, "t_end": 1.0, "dt": 0.01, "x0": {"seed": 7}, "s0": [0.2]}
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)
    monkeypatch.setattr(pinnet.dynamics, "simulate", lambda config: pytest.fail("integrated"))
    code = main(["simulate", cfg, "--out", str(tmp_path / target), "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write trajectory CSV {tmp_path / target}")


def test_simulate_unallocatable_horizon_exits_2(tmp_path, graph_file, capsys):
    # 1e299 steps: numpy refuses the arrays' size before allocating anything
    sim = {"t0": 0.0, "t_end": 0.1, "dt": 1e-300, "x0": {"seed": 7}, "s0": [0.2]}
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)
    code = main(["simulate", cfg, "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot allocate the samples of 1e+299 steps")


@pytest.mark.parametrize("t0, t_end, dt", [(0.0, 1e300, 1e-300), (-1e308, 1e308, 1.0)])
def test_simulate_overflowing_step_count_exits_2(tmp_path, graph_file, capsys, t0, t_end, dt):
    sim = {"t0": t0, "t_end": t_end, "dt": dt, "x0": {"seed": 7}, "s0": [0.2]}
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)
    code = main(["simulate", cfg, "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: the step count (t_end - t0) / dt")


def test_byte_reproducibility(tmp_path, graph_file, capsys):
    sim = {
        "t0": 0.0,
        "t_end": 1.0,
        "dt": 0.01,
        "x0": {"seed": 123},
        "s0": [0.2],
    }
    cfg = certified_k3_config(tmp_path, graph_file, sim=sim)
    outs = []
    csvs = []
    for run in range(2):
        out_csv = tmp_path / f"run{run}.csv"
        assert main(["simulate", cfg, "--out", str(out_csv)]) == 0
        captured = capsys.readouterr()
        # the CSV path differs between runs; normalize it away
        summary = json.loads(captured.out)
        summary.pop("csv")
        outs.append(json.dumps(summary, sort_keys=True))
        csvs.append(out_csv.read_bytes())
    assert outs[0] == outs[1]
    assert csvs[0] == csvs[1]


def test_threshold_round_trip_through_cli(tmp_path, graph_file, capsys):
    # kappa exactly at the library threshold certifies through the CLI too
    spec = scalar_spec(complete_graph(3), 1.0, 1.0, (0,), 0.3)
    kthr = kappa_threshold(spec)
    cfg = certified_k3_config(tmp_path, graph_file, kappa=kthr)
    code, payload = run_json(capsys, ["kappa", cfg, "--json"])
    assert code == 0
    assert payload["verdict_theorem"] is True
    assert payload["iterative_bound"] >= payload["rhs_threshold"] - 1e-9


MALFORMED = st.one_of(
    st.text(max_size=8),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(allow_nan=True), st.text(max_size=3)), max_size=4),
    st.none(),
    st.just(float("nan")),
)
CONFIG_FIELDS = ["graph_path", "sigma", "kappa", "pinned", "n", "b", "k", "q", "dynamics",
                 "f_bound_override", "sim"]
NESTED_FIELDS = ["sim.t0", "sim.t_end", "sim.dt", "sim.x0", "sim.s0",
                 "dynamics.kind", "dynamics.a", "dynamics.b"]


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(CONFIG_FIELDS + NESTED_FIELDS), value=MALFORMED,
       command=st.sampled_from(["kappa", "simulate"]))
def test_malformed_config_field_never_raises(tmp_path_factory, field, value, command):
    tmp = tmp_path_factory.mktemp("cfg")
    (tmp / "k3.txt").write_text(to_edge_list(complete_graph(3)))
    sim = {"t0": 0.0, "t_end": 0.1, "dt": 0.01, "x0": {"seed": 1}, "s0": [0.2]}
    doc = config_doc("k3.txt", 1.0, 20.0, [0], {"kind": "scalar_saturated", "a": 0.2, "b": 0.1},
                     sim=sim)
    section, _, key = field.rpartition(".")
    (doc[section] if section else doc)[key] = value
    cfg = write_config(tmp, doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, cfg, "--json"])
    assert code in (0, 2, 3, 4)
