"""The benchmark's own tests: oracles reject corrupted answers, the tracer
counts what the program does exactly, and every workload runs end to end at
a tiny size.

    python3 -m pytest bench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import pinnet
import run
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _pool(workload, tmp_path, seed=5):
    return workload.setup(seed, tmp_path)


def _answer(workload, q):
    out = workload.run(q)
    ref = workload.reference(q)
    assert workload.check(q, ref, out) == []
    return ref, out


# ---------------------------------------------------------------------------
# oracles reject corrupted answers


@pytest.fixture(scope="module")
def certify_cases(tmp_path_factory):
    """An ER question with two or more pins and a K_n question, both with
    kappa above sigma*lambda_min>0(L) so the certificate is defined."""
    wl = workloads.Certify(scale=0.1)
    pool = _pool(wl, tmp_path_factory.mktemp("certify"))
    above = [q for q in pool if wl.reference(q)["certificate_defined"]]
    er = next(q for q in above if not q.arrow and len(q.pinned) >= 2)
    complete = next(q for q in above if q.arrow)
    return wl, [(q, *_answer(wl, q)) for q in (er, complete)]


def _corrupt_certify(out, key, edit):
    bad = copy.deepcopy(out)
    doc = json.loads(bad[key])
    edit(doc)
    bad[key] = json.dumps(doc)
    return bad


def _scale(doc, key, factor):
    doc[key] *= factor


@pytest.mark.parametrize("corrupt", [
    lambda o: _corrupt_certify(o, "kappa", lambda d: _scale(d, "exact_lambda", 1 + 1e-6)),
    lambda o: _corrupt_certify(o, "kappa", lambda d: d.update(verdict_exact=not d["verdict_exact"])),
    lambda o: _corrupt_certify(o, "bounds", lambda d: _scale(d, "exact_lambda_min_gt0", 1 - 1e-6)),
    lambda o: _corrupt_certify(o, "bounds", lambda d: d["steps"][0].update(lili=d["steps"][0]["exact"] + 1e-3)),
    lambda o: _corrupt_certify(o, "bounds", lambda d: d["steps"].pop()),
    lambda o: dict(o, kappa_exit=3 - o["kappa_exit"]),
])
def test_certify_oracle_rejects(certify_cases, corrupt):
    wl, cases = certify_cases
    for q, ref, out in cases:
        assert wl.check(q, ref, corrupt(out)), "corrupted answer passed"


def test_certify_oracle_rejects_iterative_bound_above_exact(certify_cases):
    wl, cases = certify_cases
    for q, ref, out in cases:
        for key in ("kappa", "bounds"):
            bad = _corrupt_certify(out, key, lambda d: d.update(iterative_bound=ref["exact"] + 1e-6))
            assert wl.check(q, ref, bad)


def test_certify_oracle_rejects_negative_arrow_slack(certify_cases):
    wl, cases = certify_cases
    q, ref, out = next(c for c in cases if c[0].arrow)
    for i, (kind, bound, exact) in enumerate(out["arrow"]):
        bad = copy.deepcopy(out)
        shift = 1e-4 if kind == "LiLiUpperMax" else -1e-4
        bad["arrow"][i] = (kind, exact - shift, exact)
        assert wl.check(q, ref, bad), kind


@pytest.fixture(scope="module")
def select_case(tmp_path_factory):
    wl = workloads.Select(scale=0.3)
    q = _pool(wl, tmp_path_factory.mktemp("select"))[0]
    ref, out = _answer(wl, q)
    return wl, q, ref, out


def _select_edit(out, edit):
    doc = json.loads(out[1])
    edit(doc)
    return out[0], json.dumps(doc)


def test_select_oracle_rejects_perturbed_objective(select_case):
    wl, q, ref, out = select_case
    assert wl.check(q, ref, _select_edit(out, lambda d: _scale(d, "objective", 1 + 1e-8)))


def test_select_oracle_rejects_swapped_picks(select_case):
    wl, q, ref, out = select_case
    def swap(d):
        d["pinned"][0], d["pinned"][1] = d["pinned"][1], d["pinned"][0]
    assert wl.check(q, ref, _select_edit(out, swap))


@pytest.mark.parametrize("edges, best", [
    ([(i, i + 1) for i in range(4)], [2]),                # path: the centre wins alone
    ([(i, (i + 1) % 5) for i in range(5)], list(range(5))),  # cycle: every node ties
])
def test_select_oracle_accepts_exactly_the_tied_picks(edges, best):
    ref = oracles.greedy_reference(5, np.sort(np.array(edges), axis=1), 1.0, 0.5, 1)
    assert ref["tied"][0] == best
    answer = {"method": "greedy", "objective": ref["objective"]}
    for node in range(5):
        assert (oracles.check_select(ref, 0, dict(answer, pinned=[node])) == []) == (node in best)


@pytest.fixture(scope="module")
def simulate_cases(tmp_path_factory):
    wl = workloads.Simulate(scale=0.05)
    pool = _pool(wl, tmp_path_factory.mktemp("simulate"))
    return wl, [(q, *_answer(wl, q)) for q in (pool[0], pool[4])]  # saturated, linear


class _Traj:
    def __init__(self, traj, **override):
        for name in ("states", "reference", "lyapunov"):
            setattr(self, name, np.array(override.get(name, getattr(traj, name))))


def test_simulate_oracle_rejects_failed_decay_verdict(simulate_cases):
    wl, cases = simulate_cases
    for q, ref, (traj, report) in cases:
        report = copy.copy(report)
        report.ok = False
        assert wl.check(q, ref, (traj, report))


def test_simulate_oracle_rejects_rising_lyapunov(simulate_cases):
    wl, cases = simulate_cases
    q, ref, (traj, report) = cases[0]
    states = traj.states.copy()
    states[2] = states[1] - 10.0  # the error jumps up after one step
    bad = _Traj(traj, states=states)
    bad.lyapunov = np.einsum("tia,tia->t", bad.reference[:, None, :] - states, bad.reference[:, None, :] - states)
    assert wl.check(q, ref, (bad, report))


def test_simulate_oracle_rejects_truncated_or_off_trajectory(simulate_cases):
    wl, cases = simulate_cases
    q, ref, (traj, report) = cases[1]
    short = _Traj(traj, states=traj.states[:-1], reference=traj.reference[:-1], lyapunov=traj.lyapunov[:-1])
    assert wl.check(q, ref, (short, report))
    states = traj.states.copy()
    states[-1] *= 1.0 + 1e-3
    off = _Traj(traj, states=states)
    err = off.reference[:, None, :] - states
    off.lyapunov = np.einsum("tia,tia->t", err, err)
    assert wl.check(q, ref, (off, report))


@pytest.fixture()
def export_case(tmp_path):
    wl = workloads.SimulateExport(scale=0.05)
    q = _pool(wl, tmp_path)[0]
    ref, out = _answer(wl, q)
    return wl, q, ref, out


def test_export_oracle_rejects_truncated_csv(export_case):
    wl, q, ref, out = export_case
    lines = Path(q.csv_path).read_bytes().splitlines(keepends=True)
    Path(q.csv_path).write_bytes(b"".join(lines[:-1]))
    assert wl.check(q, ref, out)


def test_export_oracle_rejects_bad_header(export_case):
    wl, q, ref, out = export_case
    text = Path(q.csv_path).read_text()
    Path(q.csv_path).write_text(text.replace("t,node", "time,node", 1))
    assert wl.check(q, ref, out)


def test_export_oracle_rejects_mismatched_final_error(export_case):
    wl, q, ref, out = export_case
    doc = json.loads(out[1])
    doc["final_error_norm"] *= 1 + 1e-9
    assert wl.check(q, ref, (out[0], json.dumps(doc)))


# ---------------------------------------------------------------------------
# tracer


@pytest.fixture()
def tracer():
    t = tracing.Tracer()
    t.install()
    t.op = 0
    yield t
    t.op = None
    t.restore()


def _scalar_spec(g, kappa, pinned):
    one = np.eye(1)
    return pinnet.PinnedSystemSpec(g, 1.0, kappa, one, kappa * one, pinnet.SymMatrix(one), pinned, 0.1)


def _eigh_calls(spans):
    return sum(rec[0].startswith("numpy.linalg.") for rec in spans)


def test_evaluate_runs_sixteen_dense_solves(tracer):
    g = pinnet.erdos_renyi(30, 0.3, seed=3)
    spec = _scalar_spec(g, 4.0, (0, 1))
    assert _eigh_calls(tracer.spans) == 1  # the constructor's positive-definiteness check
    pinnet.evaluate(spec)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["criteria.evaluate.calls"] == 1
    assert metrics["criteria.eigh_per_evaluate"] == 16
    assert metrics["spectral.eigh.calls"] == 17


def test_greedy_solve_count_matches_formula_and_repeats(tracer):
    g = pinnet.erdos_renyi(120, 0.08, seed=7)
    counts = []
    for _ in range(2):
        start = len(tracer.spans)
        result = pinnet.greedy_select(g, 1.0, 5.0, 3)
        counts.append(_eigh_calls(tracer.spans[start:]))
        assert len(result.pinned) == 3
    assert counts == [120 * 3 - 3 * 2 // 2 + 1] * 2 == [358, 358]


def test_rebound_names_are_wrapped_then_restored():
    originals = (pinnet.graphs.laplacian, pinnet.spectral.lambda_min_gt0, np.linalg.eigh,
                 pinnet.spectral.SymMatrix.__init__)
    t = tracing.Tracer()
    t.install()
    try:
        assert pinnet.criteria.laplacian is not originals[0]
        assert pinnet.criteria.laplacian is pinnet.graphs.laplacian
        assert pinnet.selection.lambda_min_gt0 is pinnet.cli.lambda_min_gt0 is pinnet.lambda_min_gt0
        assert pinnet.selection.lambda_min_gt0.__wrapped__ is originals[1]
        assert np.linalg.eigh is not originals[2]
    finally:
        t.restore()
    assert (pinnet.criteria.laplacian, pinnet.selection.lambda_min_gt0, np.linalg.eigh,
            pinnet.spectral.SymMatrix.__init__) == originals
    assert pinnet.cli.lambda_min_gt0 is originals[1]


def test_benchmark_numpy_work_is_not_counted(tracer):
    np.linalg.eigvalsh(np.eye(3))
    tracer.op = None
    pinnet.lambda_min(np.eye(3))
    assert tracer.spans == []


def test_self_time_excludes_children(tracer):
    pinnet.greedy_select(pinnet.cycle_graph(8), 1.0, 5.0, 2)
    selfs = tracing._self_times(tracer.spans)
    roots = [i for i, rec in enumerate(tracer.spans) if rec[3] == -1]
    assert all(s >= -1e-9 for s in selfs)
    assert sum(selfs) == pytest.approx(sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots))


# ---------------------------------------------------------------------------
# the runner


def test_tail_latency_rule():
    assert run.tail_latency([float(i) for i in range(30)]) == (19.0, pytest.approx(200 / 3), 10)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_end_to_end_at_tiny_size(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)], scale=0.05)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    env = json.loads(lines[-2])["environment"]
    assert env["seed"] == 3 and env["workload"] == name and env["blas_threads"] is not None


def test_benchmark_json_lists_the_runner_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
