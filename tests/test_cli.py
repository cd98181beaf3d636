"""CLI: golden-file byte equality, exit-code contract, determinism."""

import collections
import json
import os
import random
import re
import shlex
import subprocess
import sys

import pytest

from dunklalg.cherednik import CherednikContext
from dunklalg.cli import main
from dunklalg.coxeter import build_root_system
from dunklalg.suites import run_suite

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name,argv", [
    ("nf_d1x1_a1.txt", ["normal-form", "D[1]*x[1]", "--group", "A", "--rank", "2"]),
    ("nf_m13m24_so.txt", ["normal-form", "M[1,3]*M[2,4]", "--group", "A", "--rank", "4",
                          "--mode", "so"]),
    ("nf_comm_zero.txt", ["normal-form", "x[1]*x[2] - x[2]*x[1]", "--group", "A", "--rank", "3"]),
    ("nf_rho_a2.json", ["normal-form", "rho", "--group", "A", "--rank", "2",
                        "--format", "json"]),
    ("verify_pfaffian_a4.json", ["verify", "pfaffian", "--group", "A", "--rank", "4",
                                 "--format", "json"]),
    ("verify_so3_a3.txt", ["verify", "so3-example", "--group", "A", "--rank", "3",
                           "--format", "text"]),
    ("verify_relso_b2.json", ["verify", "relations-so", "--group", "B", "--rank", "2",
                              "--format", "json"]),
    ("basis_so_a4_d2.txt", ["basis", "--mode", "so", "--group", "A", "--rank", "4",
                            "--degree", "2", "--format", "text"]),
    ("basis_gl_a2_d2.json", ["basis", "--mode", "gl", "--group", "A", "--rank", "2",
                             "--degree", "2", "--format", "json"]),
    ("centre_gl_a2_d2.json", ["centre", "--mode", "gl", "--group", "A", "--rank", "2",
                              "--degree", "2", "--format", "json"]),
    ("verify_pbw_a3.txt", ["verify", "pbw", "--group", "A", "--rank", "3"]),
    ("verify_pbw_a4_d4.json", ["verify", "pbw", "--group", "A", "--rank", "4", "--degree", "4",
                               "--format", "json"]),
])
def test_golden(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert out == golden(name)
    assert code == 0


# (golden, argv, exit code); the ids leave out the exit code
HASH_SEED_CASES = [
    ("centre_gl_a2_d2.json", ["centre", "--mode", "gl", "--group", "A", "--rank", "2",
                              "--degree", "2", "--format", "json"], 0),
    ("verify_relso_b2.json", ["verify", "relations-so", "--group", "B", "--rank", "2",
                              "--format", "json"], 0),
    ("nf_m13m24_so.txt", ["normal-form", "M[1,3]*M[2,4]", "--group", "A", "--rank", "4",
                          "--mode", "so"], 0),
    ("nf_d1x1_a1.txt", ["normal-form", "D[1]*x[1]", "--group", "A", "--rank", "2"], 0),
    ("centre_so_b2_d4.txt", ["centre", "--mode", "so", "--group", "B", "--rank", "2",
                             "--degree", "4"], 1),
]


@pytest.mark.parametrize("name,argv,code", HASH_SEED_CASES,
                         ids=["%s-argv%d" % (case[0], k) for k, case in enumerate(HASH_SEED_CASES)])
def test_golden_does_not_depend_on_the_hash_seed(name, argv, code):
    # interned coefficients and group elements hash by address, which
    # differs from process to process; no output may follow an order read
    # from such hashes, nor from the text memos keyed by them (so-mode
    # render, canonical_str). The B2 centre holds words with many group
    # tails and exits 1 by design (see test_golden_centre_so_b2)
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "dunklalg.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stdout) == (code, golden(name)), seed


def test_golden_centre_so_b2(capsys):
    # two coupling symbols: the only golden whose basis vectors pass through
    # multivariate denominator clearing; the honest discrepancy exits 1
    code, out = run(capsys, "centre", "--mode", "so", "--group", "B", "--rank", "2",
                    "--degree", "4")
    assert out == golden("centre_so_b2_d4.txt")
    assert code == 1


@pytest.mark.parametrize("name,argv", [
    ("centre_so_b3_d2.txt", ["--mode", "so", "--group", "B", "--rank", "3", "--degree", "2"]),
    ("centre_gl_b2_d3.txt", ["--mode", "gl", "--group", "B", "--rank", "2", "--degree", "3"]),
])
def test_golden_centre_two_symbol_coefficients(capsys, name, argv):
    # basis vectors whose coefficients are polynomials in both couplings
    # (g1*g2, 2*g1^2 + 2*g2^2, 8*g1^2*g2 - 8*g2^3); both report the honest
    # dimension discrepancy and exit 1
    code, out = run(capsys, "centre", *argv)
    assert out == golden(name)
    assert code == 1


def test_golden_centre_so_a4(capsys):
    # the first centre at N = 4: dimension 2, spanned by 1 and HOmega
    code, out = run(capsys, "centre", "--mode", "so", "--group", "A", "--rank", "4",
                    "--degree", "3")
    assert out == golden("centre_so_a4_d3.txt")
    assert code == 0


def test_centre_solves_once(capsys, monkeypatch):
    from dunklalg import cli, subalgebra, suites

    calls = []

    def counted(*args):
        calls.append(args)
        return subalgebra.centralizer(*args)

    monkeypatch.setattr(cli, "centralizer", counted)
    monkeypatch.setattr(suites, "centralizer", counted)
    code, out = run(capsys, "centre", "--mode", "gl", "--group", "A", "--rank", "2",
                    "--degree", "2", "--format", "json")
    assert out == golden("centre_gl_a2_d2.json")
    assert code == 0 and len(calls) == 1


def test_centre_above_the_degree_bound_is_a_usage_error(capsys):
    # commutators of degree-12 unknowns reach degree 13, past the bound 12
    code = main(["centre", "--degree", "12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("group", ["B", "D"])
def test_so3_example_outside_type_a_is_a_usage_error(capsys, group):
    # the example is stated with type-A pairings
    code = main(["verify", "so3-example", "--group", group, "--rank", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_readme_cli_examples(capsys):
    with open(README, "r", encoding="utf-8") as fh:
        block = fh.read().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    commands = [line for line in lines if line.startswith("dunklalg ")]
    assert len(commands) == 6
    outputs = []
    for line in commands:
        code, out = run(capsys, *shlex.split(line)[1:])
        assert code == 0, line
        outputs.append(out)
    # the first example shows its output as a comment on the next line
    assert "# " + outputs[0] == lines[lines.index(commands[0]) + 1] + "\n"


def test_readme_library_sketch_runs():
    with open(README, "r", encoding="utf-8") as fh:
        block = fh.read().split("## Library sketch\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_identical_invocations_identical_bytes(capsys):
    argv = ["verify", "pfaffian", "--group", "A", "--rank", "4", "--format", "json"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_exit_code_contract(capsys):
    code, _ = run(capsys, "verify", "so3-example", "--group", "A", "--rank", "3")
    assert code == 0
    # honest failure: the B2 centralizer is larger than the expected power count
    code, out = run(capsys, "verify", "centre", "--group", "B", "--rank", "2",
                    "--mode", "so", "--degree", "2")
    assert code == 1
    assert "fail" in out
    code, _ = run(capsys, "normal-form", "M[1,,2]", "--group", "A", "--rank", "3")
    assert code == 2
    code, _ = run(capsys, "normal-form", "x[9]", "--group", "A", "--rank", "3")
    assert code == 2
    for group in ("A", "B"):
        code, out = run(capsys, "normal-form", "s[1,1]", "--group", group, "--rank", "2")
        assert (code, out) == (2, "")


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "pfaffian", "--group", "A", "--rank", "4",
                    "--format", "json", "--out", str(path))
    assert code == 0
    assert path.read_text() == out == golden("verify_pfaffian_a4.json")


@pytest.mark.parametrize("argv", [
    ["normal-form", "M[1,3]*M[2,4]", "--rank", "4", "--mode", "so"],
    ["basis", "--mode", "gl", "--rank", "2", "--format", "json"],
    ["verify", "so3-example", "--rank", "3"],
    ["centre", "--mode", "gl", "--rank", "2", "--degree", "1"],
], ids=["normal-form", "basis", "verify", "centre"])
def test_out_file_equals_stdout(tmp_path, capsys, argv):
    path = tmp_path / "out.txt"
    code, out = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize("argv", [
    ["normal-form", "M[1,3]*M[2,4]", "--rank", "4", "--mode", "so"],
    ["verify", "pfaffian", "--group", "A", "--rank", "4"],
    ["basis", "--mode", "gl", "--rank", "2"],
    ["centre", "--mode", "gl", "--rank", "2", "--degree", "1"],
], ids=["normal-form", "verify", "basis", "centre"])
def test_timing_flag_adds_field(capsys, argv):
    _, plain = run(capsys, *argv, "--format", "json")
    code, out = run(capsys, *argv, "--format", "json", "--timing")
    assert code == 0
    data = json.loads(out)
    keys = list(data)
    assert keys.index("timing") == keys.index("counts") + 1
    data.pop("timing")
    assert data == json.loads(plain) and list(data) == list(json.loads(plain))
    # in text, only the commands that print their report show the time,
    # on the line after its status
    _, plain = run(capsys, *argv)
    _, out = run(capsys, *argv, "--timing")
    lines = out.splitlines(keepends=True)
    timing = [k for k, line in enumerate(lines) if line.startswith("timing: ")]
    assert len(timing) == (argv[0] in ("verify", "centre"))
    for k in timing:
        assert lines[k - 1].startswith("status: ")
        del lines[k]
    assert "".join(lines) == plain


def test_every_usage_error_is_a_value_error():
    # main turns each into exit 2 with one except ValueError clause
    from dunklalg.cherednik import OddRank, WrongRootSystem
    from dunklalg.coxeter import InvalidRootSystem, UnsupportedRank
    from dunklalg.exactmath import ContextMismatch
    from dunklalg.expr import EvalError, ExprSyntaxError
    from dunklalg.subalgebra import DegreeBound

    for cls in (ExprSyntaxError, EvalError, DegreeBound, UnsupportedRank,
                InvalidRootSystem, WrongRootSystem, OddRank, ContextMismatch):
        assert issubclass(cls, ValueError), cls.__name__


def test_numeric_coupling_mode(capsys):
    code, out = run(capsys, "normal-form", "D[1]*x[1]", "--group", "A", "--rank", "2",
                    "--numeric-g", "1/2")
    assert code == 0
    assert out == "x1*D1 + 1 + 1/2*s(12)\n"
    # wrong number of coupling values for the orbit count
    code, _ = run(capsys, "normal-form", "D[1]*x[1]", "--group", "A", "--rank", "2",
                  "--numeric-g", "1/2,3")
    assert code == 2


def test_custom_group_config(tmp_path, capsys):
    config = {
        "rank": 2,
        "roots": [["1", "-1"]],
        "orbits": [1],
        "label": "A1-custom",
    }
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, "normal-form", "D[1]*x[1]", "--group", "custom:%s" % path,
                    "--rank", "2")
    assert code == 0
    assert out == "x1*D1 + 1 + g*s(12)\n"


def _config(tmp_path, name, roots, orbits, label):
    path = tmp_path / name
    path.write_text(json.dumps({"rank": len(roots[0]), "roots": roots, "orbits": orbits,
                                "label": label}))
    return "custom:%s" % path


def _family_names(out):
    return [line.split()[0] for line in out.splitlines()[2:] if "instances=" in line]


def test_type_a_is_decided_by_the_roots_not_the_label(tmp_path, capsys):
    # a B2 labelled like type A runs only the five general gl families
    b2 = _config(tmp_path, "b2.json", [["1", "-1"], ["1", "1"], ["1", "0"], ["0", "1"]],
                 [1, 1, 2, 2], "Angled-B2")
    code, out = run(capsys, "verify", "relations-gl", "--group", b2, "--rank", "2")
    assert code == 0 and "status: pass" in out
    assert _family_names(out) == ["crosgl", "crosgl2", "relgln1", "herm-E", "rho-central"]
    # an A2 with a neutral label runs the type-A families and the restriction
    a2 = _config(tmp_path, "a2.json", [["1", "-1", "0"], ["1", "0", "-1"], ["0", "1", "-1"]],
                 [1, 1, 1], "custom")
    code, out = run(capsys, "verify", "relations-gl", "--group", a2, "--rank", "3")
    assert code == 0 and "status: pass" in out
    assert _family_names(out) == ["com-ES", "crosgl", "crosgl2", "relgln1", "relgln2",
                                  "herm-E", "rho-central"]
    code, out = run(capsys, "verify", "restriction", "--group", a2, "--rank", "3",
                    "--degree", "2")
    assert code == 0 and "status: pass" in out
    assert _family_names(out) == ["restriction", "gamma-pm"]


def test_io_error_exit_code(capsys):
    code = main(["verify", "pfaffian", "--group", "A", "--rank", "4",
                 "--format", "json", "--out", "/nonexistent-dir/report.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "io error" in captured.err


def test_verify_hamiltonian_and_restriction_wiring(capsys):
    code, out = run(capsys, "verify", "hamiltonian", "--group", "A", "--rank", "2",
                    "--degree", "2")
    assert code == 0 and "hamiltonian-identity" in out
    code, out = run(capsys, "verify", "restriction", "--group", "A", "--rank", "2",
                    "--degree", "2")
    assert code == 0 and "restriction" in out and "gamma-pm" in out


def test_numeric_mode_runs_whole_suites(capsys):
    code, out = run(capsys, "verify", "so3-example", "--group", "A", "--rank", "3",
                    "--numeric-g", "5/7")
    assert code == 0 and "pass" in out
    code, out = run(capsys, "verify", "crossing", "--group", "A", "--rank", "3",
                    "--numeric-g", "5/7")
    assert code == 0
    # g = -1/2 is singular, and the top-symbol certificate holds there too;
    # a negative first value needs the = form, or argparse reads a flag
    code, out = run(capsys, "verify", "pbw", "--group", "A", "--rank", "3",
                    "--numeric-g=-1/2")
    assert code == 0 and "status: pass" in out


@pytest.mark.parametrize("rank,degree", [(5, 6), (6, 4)])
def test_verify_pbw_past_the_embedded_range(capsys, rank, degree):
    # top degrees of 2,520 (so A5 d6) and 1,764 (so A6 d4) words; ranking
    # the embedded words took 30 s at so A4 d4 and did not finish so A5 d4
    # in 9 minutes
    code, out = run(capsys, "verify", "pbw", "--group", "A", "--rank", str(rank),
                    "--degree", str(degree))
    assert code == 0 and "status: pass" in out


def test_rank_one_degenerate_group(capsys):
    code, out = run(capsys, "normal-form", "H", "--group", "A", "--rank", "1")
    assert code == 0
    assert out == "-1/2*D1^2\n"


@pytest.mark.parametrize("argv,expected", [
    # A1 has no root, so no orbit and no coupling symbol
    (["normal-form", "g"], 2),
    (["verify", "restriction"], 2),
    (["verify", "relations-so"], 0),
    (["verify", "all"], 0),
])
def test_rank_one_has_no_coupling(capsys, argv, expected):
    code = main(argv + ["--group", "A", "--rank", "1"])
    captured = capsys.readouterr()
    assert code == expected
    assert "Traceback" not in captured.err
    if expected == 2:
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    else:
        assert captured.out.endswith("status: pass\n")


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_so_centre_at_rank_one(capsys, degree):
    # H_Omega is 0 at N = 1 (no M_ij, no roots): only its power 0 counts
    code, out = run(capsys, "verify", "centre", "--group", "A", "--rank", "1",
                    "--degree", str(degree), "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["status"] == "pass"
    assert data["counts"] == {"centre-so": 2}
    assert list(data["params"].items()) == [("degree", degree), ("mode", "so")]


@pytest.mark.parametrize("argv", [
    ["verify", "relations-so", "--degree", "2"],
    ["verify", "so3-example", "--degree", "3"],
    ["verify", "hamiltonian", "--mode", "so"],
    ["verify", "all", "--mode", "gl"],
])
def test_option_the_suite_does_not_take_is_a_usage_error(capsys, argv):
    # a degree or mode the suite does not read used to be ignored silently
    code = main(argv + ["--group", "A", "--rank", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_all_takes_a_degree(capsys):
    code, out = run(capsys, "verify", "all", "--group", "A", "--rank", "2", "--degree", "2")
    assert code == 0
    assert "param degree: 2\n" in out
    assert "hamiltonian-identity     instances=6      pass" in out
    assert out.endswith("status: pass\n")


SUITE_CENSUS = {
    ("all", "A", 3): (
        [("com-ss", 18), ("com-sii", 12), ("ai", 27), ("com-sx", 24), ("Sjjai/Sjjaj", 30),
         ("com-MS", 12), ("son", 81), ("son-rev", 81), ("centrality-so", 12),
         ("cros-quant", 81), ("cros-cyc-2", 81), ("cros-cyc-3", 243), ("cros-anticomm", 81),
         ("cros-class", 0), ("com-ES", 18), ("crosgl", 81), ("crosgl2", 162),
         ("relgln1", 81), ("relgln2", 48), ("herm-E", 15), ("rho-central", 12),
         ("restriction", 28), ("gamma-pm", 2), ("so3-example", 21), ("com-Mw", 27),
         ("amcoxcom", 81), ("amcoxcross", 81), ("m2-decomposition", 1), ("S-central", 3),
         ("hamiltonian-identity", 20)],
        {"degree": 3}),
    ("all", "B", 2): (
        [("amcoxcom", 16), ("amcoxcross", 16), ("com-Mw", 16), ("centrality-so", 7),
         ("m2-decomposition", 1), ("S-central", 4), ("hamiltonian-identity", 15),
         ("pfaffian", 1)],
        {"degree": 4}),
    ("relations-gl", "B", 3): (
        [("crosgl", 81), ("crosgl2", 162), ("relgln1", 81), ("herm-E", 15),
         ("rho-central", 18)],
        {}),
}


@pytest.mark.parametrize("suite,group,rank", list(SUITE_CENSUS), ids=lambda v: str(v))
def test_suite_census(suite, group, rank):
    # family order, names and instance counts of whole suites, and the params
    counts, params = SUITE_CENSUS[(suite, group, rank)]
    report = run_suite(suite, CherednikContext(build_root_system(group, rank)), group)
    assert list(report.counts().items()) == counts
    assert list(report.params.items()) == list(params.items())
    assert report.status == "pass"
    # a family that two suites share runs once
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))


def test_nonzero_residual_is_printed(capsys):
    # a deliberately wrong identity leaves a visible nonzero residual
    code, out = run(capsys, "normal-form", "[D[1], x[2]] - g*s[1,2]", "--group", "A",
                    "--rank", "2")
    assert code == 0
    assert out == "-2*g*s(12)\n"   # true commutator is -g*s(12)

@pytest.mark.parametrize("argv", [
    ["verify", "hamiltonian", "--group", "A", "--rank", "2", "--degree", "-1"],
    ["verify", "restriction", "--group", "A", "--rank", "2", "--degree", "-1"],
    ["basis", "--mode", "so", "--group", "A", "--rank", "3", "--degree", "-2"],
    ["centre", "--mode", "gl", "--group", "A", "--rank", "2", "--degree", "-1"],
])
def test_negative_degree_is_a_usage_error(capsys, argv):
    # a negative bound used to give an empty run reported as a pass
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--degree" in captured.err


@pytest.mark.parametrize("argv,expected", [
    # w(-2,-1) permutes the roots as the identity does, yet is not the identity
    (["normal-form", 'w"-1,-2"*w"2,1"', "--group", "A", "--rank", "2"], "w(-2,-1)\n"),
    (["normal-form", 'w"-1,-2"*w"-1,-2"', "--group", "A", "--rank", "2"], "1\n"),
    (["normal-form", 'w"-1,-2"*D[1]*w"-2,-1"*x[2]', "--group", "A", "--rank", "2"],
     "-x1*s(12)*D2 - g - s(12)\n"),
    # a diagram automorphism of D4 outside W(D4)
    (["normal-form", 'w"-1,2,3,4"*D[1]', "--group", "D", "--rank", "4"], "w(-1,2,3,4)*D1\n"),
])
def test_root_automorphisms_outside_w(capsys, argv, expected):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("config", [
    [1, 2],
    {"rank": 1, "roots": [["1"], ["2"]], "orbits": [1, 1]},
    {"rank": 2, "roots": 5, "orbits": [1]},
    {"rank": 1, "roots": [["1"]], "orbits": [1], "symbols": ["g1", "g2"]},
    {"rank": 1, "roots": [["1"]], "orbits": [1], "label": 5},
    {"rank": 1, "roots": [["1"]], "orbits": [-1]},
    {"rank": 3, "roots": [["1", "-1", "0"], ["1", "0", "-1"], ["0", "1", "-1"]],
     "orbits": [2, 2, 2]},
    {"rank": 2, "roots": [["1", "-1"], ["1", "1"], ["1", "0"], ["0", "1"]],
     "orbits": [1, 1, 3, 3]},
    {"rank": 0, "roots": [], "orbits": []},
    {"rank": -1, "roots": [], "orbits": []},
    {"rank": 2.7, "roots": [["1", "-1"]], "orbits": [1]},
    {"rank": 2, "roots": [["1", "-1"]], "orbits": [1.9]},
    {"rank": 2, "roots": [["1", "-1"], ["1", "1"], ["1", "0"], ["0", "1"]],
     "orbits": [1, 1, 2, 2], "symbols": ["g", "g"]},
])
def test_invalid_config_is_a_usage_error(tmp_path, capsys, config):
    # a JSON list used to raise TypeError; proportional roots e1 and 2e1
    # used to load and count the reflection s_e1 twice; a symbol list of the
    # wrong length, a non-string label or a negative orbit crashed later, when
    # used; orbit labels that skip a number made symbols no root used, and
    # the type-A families then read the unused orbit and reported FAIL; rank
    # 0 or -1 crashed `verify all` with a traceback, and a rank or orbit label
    # of 2.7 or 1.9 was truncated to 2 or 1; one name for two orbits printed
    # two independent couplings as g, and g in an expression reached only one
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    group = "custom:%s" % path
    for argv in (["normal-form", "D[1]*x[1]", "--group", group, "--rank", "1"],
                 ["verify", "all", "--group", group]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_division_by_zero_is_a_parse_error(capsys):
    code = main(["normal-form", "1/0", "--group", "A", "--rank", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


FUZZ_EXPRESSIONS = [
    "D[1]*x[1]", "[D[1], x[2]] - g*s[1,2]", "{x[1], D[2]}", "M[1,2]^2 + 3/4*Msq",
    "x[1]^2*D[2] - 1/2*g*s[1,2]", 'w"2,1"*D[1]*w"-1,-2"', "E[1,2]*E[2,1] - rho",
    "(x[1] + D[2])*(x[2] - 3/4)", "S[1,2]*Ssum + N*H", "HOmega - M[1,2]*M[1,2]",
    "1/2*x[1] - 3/2*g^2",
]
FUZZ_CONFIGS = [
    {"rank": 2, "roots": [["1", "-1"]], "orbits": [1], "label": "A1"},
    {"rank": 2, "roots": [["1", "0"], ["0", "1"], ["1", "-1"], ["1", "1"]],
     "orbits": [1, 1, 2, 2], "symbols": ["a", "b"], "label": "B2"},
]
FUZZ_ALPHABET = "[](){},*+-^/\" 0123xDMEswgHN"
FUZZ_VALUES = [0, 1, -1, 2, "1/2", "1/0", "x", "", [], {}, None, 2.5, True, [["1"]], ["1", "-1"]]


def _mutate(rng, text):
    """One edit: delete, insert, replace or swap one character, or change one
    digit or one operator (edits that often keep the input valid)."""
    k = rng.randrange(len(text) + 1)
    op = rng.randrange(6)
    if op >= 4:
        group = "0123" if op == 4 else "+-*"
        spots = [i for i, ch in enumerate(text) if ch in group]
        if spots:
            k = rng.choice(spots)
            return text[:k] + rng.choice(group) + text[k + 1:]
    if op == 0 and k < len(text):
        return text[:k] + text[k + 1:]
    if op == 1:
        return text[:k] + rng.choice(FUZZ_ALPHABET) + text[k:]
    if op == 2 and k < len(text):
        return text[:k] + rng.choice(FUZZ_ALPHABET) + text[k + 1:]
    if k + 1 < len(text):
        return text[:k] + text[k + 1] + text[k] + text[k + 2:]
    return text


def _mutate_config(rng, config):
    """Either one character edit of the JSON text, or one field (or one
    entry of the root list, or the whole config) replaced by a value from
    FUZZ_VALUES."""
    if rng.random() < 0.1:
        return json.dumps(rng.choice(FUZZ_VALUES))
    if rng.random() < 0.5:
        return _mutate(rng, json.dumps(config))
    config = json.loads(json.dumps(config))
    key = rng.choice(sorted(config))
    if key == "roots" and rng.random() < 0.6:
        row = rng.choice(config["roots"])
        row[rng.randrange(len(row))] = rng.choice(FUZZ_VALUES)
    else:
        config[key] = rng.choice(FUZZ_VALUES)
    return json.dumps(config)


def test_fuzzed_inputs_exit_cleanly(tmp_path, capsys):
    # mutated expressions, couplings and configs at rank 2: every run ends
    # with exit code 0, 1 or 2 and no traceback, and a rejection is one line
    rng = random.Random(20141)
    cases = []
    while len(cases) < 300:
        text = FUZZ_EXPRESSIONS[len(cases) % len(FUZZ_EXPRESSIONS)]
        for _ in range(rng.choice((1, 1, 2, 3))):
            text = _mutate(rng, text)
        if any(int(p) > 4 for p in re.findall(r"\^\s*(\d+)", text)):
            continue    # a valid high power is slow, not wrong; keep the run short
        argv = ["normal-form", "--group", rng.choice("AB"), "--rank", "2",
                "--mode", rng.choice(("cherednik", "cherednik", "so", "gl"))]
        if rng.random() < 0.2:
            argv.append("--numeric-g=" + _mutate(rng, rng.choice(("1/2", "3", "1,2"))))
        cases.append(argv + ["--", text])
    for k in range(150):
        path = tmp_path / ("c%d.json" % k)
        path.write_text(_mutate_config(rng, FUZZ_CONFIGS[k % len(FUZZ_CONFIGS)]))
        cases.append(["normal-form", "--group", "custom:%s" % path, "--rank", "2", "--",
                      rng.choice(FUZZ_EXPRESSIONS[:3])])
    codes = collections.Counter()
    for argv in cases:
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: no argv here should reach it
            code = ("argparse", exc.code)
        captured = capsys.readouterr()
        codes[code] += 1
        assert code in (0, 1, 2), (argv, code, captured.err)
        assert "Traceback" not in captured.err, argv
        if code == 2:
            assert captured.out == "", argv
            assert captured.err.count("\n") == 1, (argv, captured.err)
            assert captured.err.startswith("error: "), (argv, captured.err)
        else:
            assert captured.out and captured.err == "", argv
    assert codes[0] >= 40 and codes[2] >= 40, codes   # both paths are exercised
