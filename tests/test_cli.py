import contextlib
import io
import json
import os
import subprocess
import sys
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
    assert payload["objective"] == pytest.approx(1.0)


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
     (3, ["select", "--kappa", "2", "--budget", "0"], 3, False),
     (3, ["spectrum", "--kappa", "2", "--pinned", "0"], 4, True)],
    ids=["ok", "validation", "precondition", "edgeless", "edgeless_bounds", "edgeless_budget_0",
         "numerical"],
)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, nodes, argv, code,
                                           broken_solver):
    # edgeless graphs: L has no nonzero eigenvalue, so lambda_min>0 is undefined
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
