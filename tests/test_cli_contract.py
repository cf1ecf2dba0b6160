"""The CLI contract, as one table of command lines and one shared check.

Each row is a command line, its exit code, the start of its stderr ("" for
an empty stderr) and, optionally, a check of its JSON document.
Every row, every trial of the seeded mutation property at the end, and every
exit-code test of test_cli.py (through its contract helper) passes the same
check:

  - the exit code is 0, 2, 3 or 4, and no traceback and no Python warning
    reaches stderr;
  - exit 0 with --json (simulate always) prints exactly one strict JSON
    document, with no NaN or Infinity;
  - exit 3 of kappa prints its report, and stderr ends in one line naming
    the undefined threshold;
  - every other exit 2, 3 or 4 leaves stdout empty, and stderr ends in one
    `error:` line;
  - before that last line stderr holds only pinnet's `warning:` lines or,
    for a command line argparse refuses, its usage.

Rows run in process through cli.main, in one directory that holds every
file in FILES, the files the command lines name.
"""

import contextlib
import copy
import io
import json
import math
import random
import traceback
import warnings
from collections import namedtuple

import pytest

from pinnet import (complete_graph, erdos_renyi, path_graph, star_graph, to_edge_list)
from pinnet.cli import main

FILES = {
    "p3.txt": to_edge_list(path_graph(3)),
    "k5.txt": to_edge_list(complete_graph(5)),
    "p30.txt": to_edge_list(path_graph(30)),
    "star40.txt": to_edge_list(star_graph(40)),
    "er40.txt": to_edge_list(erdos_renyi(40, 0.2, seed=2)),
    "er80.txt": to_edge_list(erdos_renyi(80, 0.1, seed=0)),
    "er120.txt": to_edge_list(erdos_renyi(120, 0.08, seed=7)),
    "edgeless.txt": "N 3\n",
    "bad_line.txt": "N 3\n0 1\n1 two\n",
}

# K5 pinned at node 0, Q = B = 1 and K = kappa, f(x) = 0.5 x: kappa_threshold 45
K5_CONFIG = {"graph_path": "k5.txt", "sigma": 1.0, "kappa": 10.0, "pinned": [0], "n": 1,
             "b": [[1.0]], "k": [[10.0]], "q": [[1.0]],
             "dynamics": {"kind": "linear", "matrix": [[0.5]]},
             "sim": {"t0": 0.0, "t_end": 0.1, "dt": 0.01, "x0": {"seed": 7}, "s0": [0.2]}}
SATURATED = {"kind": "scalar_saturated", "a": 0.2, "b": 0.1}


def with_fields(doc, changes):
    """A copy of doc with each dotted path in changes set to its value."""
    doc = copy.deepcopy(doc)
    for path, value in changes.items():
        *sections, key = path.split(".")
        target = doc
        for section in sections:
            target = target[section]
        target[key] = value
    return doc


def config(changes=(), **fields):
    """Registers K5_CONFIG with the dotted-path changes and fields in FILES
    and returns its file name."""
    name = f"config{len(FILES)}.json"
    FILES[name] = json.dumps(with_fields(K5_CONFIG, {**dict(changes), **fields}))
    return name


Run = namedtuple("Run", "code out err warnings")


def run_cli(argv):
    """main(argv) as a process would end it: an escaping exception is exit 1
    with its traceback on stderr, and every Python warning is kept."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        except Exception:
            code = 1
            err.write(traceback.format_exc())
    return Run(code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught])


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def check_contract(argv, run):
    """The shared check (module docstring); returns the JSON document, if any."""
    where = (argv, run)
    assert run.code in (0, 2, 3, 4) and "Traceback" not in run.err, where
    assert run.warnings == [], where
    command = argv[0]
    *before, last = run.err.splitlines() or [""]
    assert all(line.startswith(("warning: ", "usage: ", " ")) for line in before), where
    if run.code == 0 or (run.code == 3 and command == "kappa"):
        doc = strict_json(run.out) if "--json" in argv or command == "simulate" else None
        assert run.code == 0 or last.startswith("kappa_threshold undefined: "), where
        return doc
    assert run.out == "" and "error: " in last, where
    return None


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    for name, content in FILES.items():
        (path / name).write_text(content)
    return path


def lili_sound(doc):
    # round-off alone puts the tight first Li-Li row 2e-15 above exact on K5
    exact = doc["exact_lambda_min_gt0"]
    assert doc["steps"] and doc["iterative_bound"] <= exact * (1 + 1e-8)
    assert all(row["lili"] <= row["exact"] * (1 + 1e-8) for row in doc["steps"])


def certified_exactly(doc):
    assert doc["verdict_exact"] is True and "singular_operator" not in doc["reasons"]


def has(**expected):
    def check(doc):
        assert {key: doc[key] for key in expected} == expected

    return check


def row(id, argv, code, err="", expect=None):
    return pytest.param(argv, code, err, expect, id=id)


HUGE_X0 = {"graph_path": "p3.txt", "kappa": 1.0, "k": [[1.0]], "dynamics": SATURATED,
           "sim.x0": [1e200, 0, 0], "sim.s0": [0.0], "sim.t_end": 1.0}
ER80 = {"graph_path": "er80.txt", "kappa": 1e10, "pinned": [0, 3, 7], "k": [[1e10]],
        "dynamics.matrix": [[0.2]]}
BOUNDS_K5 = ["bounds", "k5.txt", "--pinned", "0", "--json"]
FINITE = "error: matrix entries must be finite"
QB_FINITE = "error: kappa (QB + B^T Q^T) must be finite"
SUBNORMAL_SIGMA = "error: sigma must not be subnormal (below 2^-1022), got 1e-320"

ROWS = [
    row("spectrum-p3", ["spectrum", "p3.txt", "--json"], 0),
    # an edgeless graph's Laplacian has no nonzero eigenvalue: a precondition outcome
    row("spectrum-edgeless", ["spectrum", "edgeless.txt", "--json"], 3,
        "error: no nonzero eigenvalue: all 3 are zero by structure"),
    # sigma deg_i, or sigma deg_i + kappa, overflows: the gain rule is the one report
    row("spectrum-sigma-1e308", ["spectrum", "p3.txt", "--sigma", "1e308", "--kappa", "1",
                                 "--json"], 2, FINITE),
    row("spectrum-sigma-8e307-kappa-1.5e308",
        ["spectrum", "p3.txt", "--sigma", "8e307", "--kappa", "1.5e308", "--pinned", "1",
         "--json"], 2, FINITE),
    # select refuses the gains spectrum refuses, though the structure fixes its objective
    row("select-sigma-1e308-budget-0", ["select", "p3.txt", "--sigma", "1e308", "--kappa", "1",
                                        "--budget", "0", "--json"], 2, FINITE),
    row("kappa-sigma-1e-320", ["kappa", config(sigma=1e-320), "--json"], 2, SUBNORMAL_SIGMA),
    row("bounds-sigma-1e-320", ["bounds", "k5.txt", "--pinned", "0", "--sigma", "1e-320",
                                "--kappa", "5"], 2, SUBNORMAL_SIGMA),
    row("select-kappa-1e-320", ["select", "k5.txt", "--kappa", "1e-320", "--budget", "1"], 2,
        "error: kappa must not be subnormal"),
    # the picks of test_greedy_screen_is_scale_free's 2^-30 gains, at unit gains
    row("select-er120", ["select", "er120.txt", "--kappa", "5", "--budget", "3", "--json"], 0,
        expect=has(pinned=[56, 101, 7])),
    # the mutation property's finds: at kappa 1e308 the greedy screen's kappa^2 terms
    # overflow (each candidate is then solved), so does kappa (QB + B^T Q^T), and a
    # refused f_bound_override is not warned of first
    row("select-k5-kappa-1e308", ["select", "k5.txt", "--kappa", "1e308", "--budget", "2",
                                  "--json"], 0, expect=has(pinned=[0, 1])),
    row("kappa-1e308", ["kappa", config(kappa=1e308), "--json"], 2, QB_FINITE),
    row("kappa-huge-q-and-b", ["kappa", config(q=[[1e200]], b=[[1e200]])], 2, QB_FINITE),
    row("kappa-f-bound-override-minus-inf", ["kappa", config(f_bound_override=-math.inf)], 2,
        "error: f_bound must be non-negative, got -inf"),
    # a malformed edge line is an input error that names its line
    row("spectrum-bad-line", ["spectrum", "bad_line.txt", "--json"], 2,
        "error: line 3: non-integer endpoint in '1 two'"),
    # the Li-Li term stays below the exact value at a gap whose square overflows
    row("bounds-k5-kappa-1e160", BOUNDS_K5 + ["--kappa", "1e160"], 0, expect=lili_sound),
    row("bounds-k5-kappa-1e300", BOUNDS_K5 + ["--kappa", "1e300"], 0, expect=lili_sound),
    # kappa / s near 1e310: in units of s, kappa overflowed (NaN on the star, a
    # traceback on the path); in units of max(s, kappa) both rows are finite
    row("bounds-star40-sigma-1e-305", ["bounds", "star40.txt", "--pinned", "0", "--sigma",
                                       "1e-305", "--kappa", "1e3", "--json"], 0),
    row("bounds-p30-sigma-1e-305", ["bounds", "p30.txt", "--pinned", "0", "--sigma", "1e-305",
                                    "--kappa", "1e3", "--json"], 0),
    # zero is decided by structure: ER(80) pinned at (0, 3, 7) and kappa 1e10 certifies
    # exactly; exit 3 only because kappa_threshold saturates
    row("kappa-er80-1e10", ["kappa", config(ER80), "--json"], 3, "kappa_threshold undefined: ",
        expect=certified_exactly),
    # a run whose first step overflows: diverged_at reports it, numpy warns of nothing,
    # and an error norm past the largest float is null, not Infinity
    row("simulate-huge-x0", ["simulate", config(HUGE_X0), "--json"], 0,
        expect=has(diverged=True, decayed=False, final_error_norm=1e200)),
    row("simulate-norm-past-largest-float",
        ["simulate", config(HUGE_X0, **{"sim.x0": [1.7e308, 1.7e308, 0]}), "--json"], 0,
        expect=has(diverged=True, steps=0, final_error_norm=None)),
    row("simulate-er40", ["simulate", config(graph_path="er40.txt", kappa=20.0, k=[[20.0]],
                                             dynamics=SATURATED, **{"sim.t_end": 3.0}),
                          "--json"], 0, expect=has(steps=300, diverged=False)),
]


@pytest.mark.parametrize("argv, code, err, expect", ROWS)
def test_cli_contract(files_dir, monkeypatch, argv, code, err, expect):
    monkeypatch.chdir(files_dir)
    run = run_cli(argv)
    doc = check_contract(argv, run)
    assert run.code == code, run
    assert run.err.startswith(err) if err else run.err == "", run
    if expect is not None:
        expect(doc)


# The mutation property: each trial changes one field of K5_CONFIG (kappa,
# simulate) or one flag of a K5 command line (spectrum, bounds, select).
JUNK = [None, "abc", [[1.0], [1.0, 2.0]], math.nan, math.inf, -math.inf, 10**400]
GAINS = [1e-320, 1e-305, 1.0, 1e160, 1e308]
PINS = [[5], [-1], [0, 0]]
CONFIG_FIELDS = ["sigma", "kappa", "pinned", "n", "b", "k", "q", "dynamics.kind",
                 "dynamics.matrix", "f_bound_override"]
SIM_FIELDS = ["sim.t0", "sim.t_end", "sim.dt", "sim.x0", "sim.s0"]
FLAG_COMMANDS = {
    "spectrum": ["spectrum", "k5.txt", "--sigma", "1", "--kappa", "10", "--pinned", "0"],
    "bounds": ["bounds", "k5.txt", "--sigma", "1", "--kappa", "10", "--pinned", "0,1"],
    "select": ["select", "k5.txt", "--sigma", "1", "--kappa", "10", "--budget", "2"],
}
MUTATION_SEED, MUTATION_TRIALS = 2028, 800


def mutant(rng, path):
    """One mutated command line; a config it reads is written to path."""
    command = rng.choice(["kappa", "simulate", "spectrum", "bounds", "select"])
    if command in FLAG_COMMANDS:
        argv = list(FLAG_COMMANDS[command])
        slot = rng.choice(range(3, len(argv), 2))
        values = ["None", "abc", "nan", "inf", "-inf", "1e400"]
        if argv[slot - 1] in ("--sigma", "--kappa"):
            values += [repr(g) for g in GAINS]
        elif argv[slot - 1] == "--pinned":
            values += ["5", "-1", "0,0"]
        argv[slot] = rng.choice(values)
        return argv + rng.choice([["--json"], []])
    field = rng.choice(CONFIG_FIELDS + (SIM_FIELDS if command == "simulate" else []))
    values = JUNK + (GAINS if field in ("sigma", "kappa") else PINS if field == "pinned" else [])
    path.write_text(json.dumps(with_fields(K5_CONFIG, {field: rng.choice(values)})))
    return [command, path.name, "--json"]


def test_mutated_inputs_keep_the_contract(files_dir, monkeypatch):
    # a fixed, seeded set of trials, in well under 2 s
    monkeypatch.chdir(files_dir)
    rng = random.Random(MUTATION_SEED)
    for trial in range(MUTATION_TRIALS):
        argv = mutant(rng, files_dir / "mutant.json")
        config = (files_dir / "mutant.json").read_text() if argv[1] == "mutant.json" else None
        try:
            check_contract(argv, run_cli(argv))
        except (AssertionError, ValueError) as exc:  # ValueError: not strict JSON
            raise AssertionError(f"trial {trial}: {argv} {config}") from exc
