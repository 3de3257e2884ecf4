import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from saito_forge.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

WORKED = ["--d", "5", "--alpha", "0", "--beta", "0",
          "--f1", "1", "--f2", "x^2+x*y+y^2"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_worked_instance(capsys):
    code, out = run(capsys, "construct", *WORKED)
    assert code == 0
    data = json.loads(out)
    assert data["F"] == "x^5 + x^2*y^3 + x*y^4 + y^5 + y^4*z"
    assert data["field"] == "q"


def test_construct_invalid_exits_2(capsys):
    code = main(["construct", "--d", "5", "--alpha", "1", "--beta", "0",
                 "--f1", "x+y", "--f2", "x+y"])
    err = capsys.readouterr().err
    assert code == 2
    assert "exponent_sum_bound" in err


def test_construct_random_reproducible(capsys):
    args = ["construct", "--d", "9", "--alpha", "1", "--beta", "1",
            "--seed", "7", "--field", "fp:1009"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_worked_instance(capsys):
    code, out = run(capsys, "verify", *WORKED)
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["irreducible"] is True
    assert data["saito"]["pass"] is True
    assert data["resolution"]["pass"] is True
    assert data["point_support"]["certified"] is True
    assert "timings" not in data


def test_verify_deterministic_bytes(capsys):
    args = ["verify", "--d", "7", "--alpha", "0", "--beta", "1",
            "--seed", "3", "--field", "fp:1009"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_differentiates_f_alone(monkeypatch, capsys):
    # the Saito stage and the Jacobian ladder take the gradient of F itself
    # and of no other form holding z
    from saito_forge.field import PrimeField
    from saito_forge.poly import Poly, parse
    calls = []
    real = Poly.partial

    def recording(self, var):
        if not self.is_bivariate():
            calls.append((self, var))
        return real(self, var)

    monkeypatch.setattr(Poly, "partial", recording)
    code, out = run(capsys, "verify", "--d", "8", "--alpha", "0", "--beta", "1",
                    "--seed", "1", "--field", "fp:1009")
    f = parse(json.loads(out)["instance"]["F"], PrimeField(1009))
    assert code == 0 and {g for g, _ in calls} == {f} and {var for _, var in calls} == set("xyz")


def test_verify_oracle_route_even_degree(capsys):
    code, out = run(capsys, "verify", "--d", "6", "--seed", "1",
                    "--field", "fp:1009", "--route", "oracle")
    assert code == 0
    data = json.loads(out)
    assert data["saito"]["route"] == "oracle"


def test_verify_mutated_instance_exits_1(tmp_path, capsys):
    inst = {
        "d": 5, "alpha": 0, "beta": 0, "field": "q",
        "F1": "1", "F2": "x^2 + x*y + y^2",
        "F": "x^2*y^3 + x*y^4 + y^5 + y^4*z",  # x^5 coefficient zeroed
    }
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(inst))
    code, out = run(capsys, "verify", "--in", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    assert "irreducible" in data["failures"]
    assert "resolution" in data["failures"]


def test_verify_stored_reducible_f_is_not_irreducible(tmp_path, capsys):
    inst = {
        "d": 5, "alpha": 0, "beta": 0, "field": "q",
        "F1": "1", "F2": "x^2 + x*y + y^2",
        "F": "x^5 + 2*x^4*y + x*y^3*z + 2*y^4*z",  # (x + 2y)(x^4 + y^3*z)
    }
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(inst))
    code, out = run(capsys, "verify", "--in", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["irreducible"] is False
    assert "irreducible" in data["failures"]


def test_verify_instance_file_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "inst.json"
    code = main(["construct", "--d", "7", "--alpha", "1", "--beta", "0",
                 "--seed", "5", "--field", "fp:1009", "--out", str(out_path)])
    assert code == 0
    code, out = run(capsys, "verify", "--in", str(out_path))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_syzygies_command(capsys):
    code, out = run(capsys, "syzygies", *WORKED, "--degree", "1")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 1


def test_hilbert_command(tmp_path, capsys):
    csv_path = tmp_path / "hf.csv"
    code, out = run(capsys, "hilbert", *WORKED, "--degree-bound", "9",
                    "--csv", str(csv_path))
    assert code == 0
    data = json.loads(out)
    assert data["hilbert_function"][0] == 1
    assert data["hilbert_function"][-1] == 12
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,hilbert_function"
    assert lines[-1] == "9,12"


def test_sweep_all_pass(capsys):
    code, out = run(capsys, "sweep", "--d", "5..7", "--trials", "2",
                    "--seed", "1", "--field", "fp:1009")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["total"] == 2 * (1 + 1 + 3)
    assert data["summary"]["fail"] == 0
    routes = {r["route"] for r in data["instances"]}
    assert routes == {"explicit_odd", "explicit_beta0", "oracle"}


def test_sweep_acceptance_range(capsys):
    # the flagship batch: every legal pair for 5 <= d <= 9, three trials
    code, out = run(capsys, "sweep", "--d", "5..9", "--trials", "3",
                    "--seed", "1", "--field", "fp:1009")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["total"] == 3 * (1 + 1 + 3 + 3 + 6)
    assert data["summary"]["pass"] == data["summary"]["total"]
    assert all(r["irreducible"] for r in data["instances"])


def test_sweep_deterministic_across_worker_counts(capsys, monkeypatch):
    args = ["sweep", "--d", "5..6", "--trials", "2", "--seed", "9",
            "--field", "fp:1009"]
    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    _, out1 = run(capsys, *args)
    monkeypatch.setenv("SAITO_FORGE_THREADS", "4")
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_sweep_empty_range(capsys):
    # no legal (alpha, beta) pair at d=5 has alpha = 1: bad input, not a pass
    assert main(["sweep", "--d", "5", "--alpha", "1", "--trials", "2",
                 "--field", "fp:1009"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "selects no instance" in captured.err


def test_sweep_drop_squarefree(capsys):
    code, out = run(capsys, "sweep", "--d", "9", "--alpha", "2", "--trials", "1",
                    "--seed", "2", "--field", "fp:1009", "--drop-squarefree")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["total"] >= 1
    for entry in data["instances"]:
        assert entry["square_free_F1"] is False
        assert "probe" in entry


def test_sweep_drop_squarefree_low_alpha_probes_anyway(capsys):
    # alpha <= 1 forces F1 square-free; the exploratory mode still reports
    # the observed syzygy degrees and always exits 0
    code, out = run(capsys, "sweep", "--d", "7", "--trials", "1", "--seed", "4",
                    "--field", "fp:1009", "--drop-squarefree")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["total"] == 3
    for entry in data["instances"]:
        assert entry["square_free_F1"] is True
        assert entry["probe"]["assembly"]["degrees"] == [1, 3, 3]


def test_export_macaulay2(tmp_path, capsys):
    path = tmp_path / "check.m2"
    code = main(["export", *WORKED, "--cas", "macaulay2", "--out", str(path)])
    assert code == 0
    text = path.read_text()
    assert "pdim module J == 1" in text
    assert "codim J == 2" in text
    assert "det A - (5) * F == 0" in text
    # deterministic output
    code = main(["export", *WORKED, "--cas", "macaulay2", "--out", str(tmp_path / "b.m2")])
    assert (tmp_path / "b.m2").read_text() == text


def test_export_mutated_instance_asserts_stored_f(tmp_path, capsys):
    inst = {"d": 5, "alpha": 0, "beta": 0, "field": "q", "F1": "1",
            "F2": "x^2 + x*y + y^2", "F": "x^2*y^3 + x*y^4 + y^5 + y^4*z"}
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(inst))
    code, out = run(capsys, "export", "--in", str(path), "--cas", "macaulay2")
    assert code == 0
    # the script pins the tampered F, so its det assertion fails externally
    assert "F = x^2*y^3 + x*y^4 + y^5 + y^4*z;" in out
    assert "det A - (5) * F == 0" in out


def test_export_cocoa(capsys):
    code, out = run(capsys, "export", *WORKED, "--cas", "cocoa")
    assert code == 0
    assert "Use R ::= QQ[x, y, z];" in out
    assert "HilbertFn(R/J, 9) <> 12" in out
    assert "det(A) <> (5) * F" in out


@pytest.mark.parametrize("command,route", [("verify", "explicit_odd"), ("export", "explicit_beta0")])
def test_named_closed_form_route_exits_2(command, route):
    # the closed-form route follows from d and beta, so --route names only auto and oracle
    proc = run_subprocess([command, "--d", "9", "--alpha", "1", "--beta", "0", "--seed", "1",
                           "--field", "fp:1009", "--route", route])
    assert proc.returncode == 2 and "Traceback" not in proc.stderr and proc.stdout == ""
    assert f"--route: invalid choice: '{route}'" in proc.stderr


@pytest.mark.parametrize("command", ["verify", "export"])
def test_route_help_lists_auto_and_oracle(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--route {auto,oracle}" in capsys.readouterr().out


def test_missing_arguments(capsys):
    code = main(["verify"])
    assert code == 2


def run_subprocess(argv, env=None, code=None):
    """Run the CLI (or the Python ``code``, given ``argv``) in a fresh
    interpreter, under -O when the tests run under -O."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    start = ["-c", code] if code else ["-m", "saito_forge.cli"]
    return subprocess.run([sys.executable, *(["-O"] if sys.flags.optimize else []), *start, *argv],
                          env={**os.environ, "PYTHONPATH": path, **(env or {})},
                          capture_output=True, text=True, timeout=60)


WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None\n"
                 "from saito_forge.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [
    ["verify", "--d", "9", "--field", "fp:1009"],
    ["verify", "--d", "8", "--field", "q"],
    ["sweep", "--d", "5..6"],
], ids=["verify-fp", "verify-q", "sweep"])
def test_runs_without_numpy(argv):
    proc = run_subprocess(argv, {"SAITO_FORGE_THREADS": "1"}, code=WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)


def test_import_leaves_numpy_out():
    proc = run_subprocess([], code="import sys, saito_forge.cli\n"
                                   "sys.exit('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_process_pool_out():
    # multiprocessing is imported by a pooled sweep, or a read of the name, only
    proc = run_subprocess([], code="import sys, concurrent.futures as cf, saito_forge.cli as cli\n"
                                   "loaded = 'concurrent.futures.process' in sys.modules\n"
                                   "sys.exit(loaded or cli.ProcessPoolExecutor is not cf.ProcessPoolExecutor)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv,env,files", [
    (["verify", "--degree-bound", "-1", *WORKED], {}, {}),
    (["verify", "--in", "{tmp}/absent.json"], {}, {}),
    (["verify", "--in", "{tmp}/partial.json"], {}, {"partial.json": '{"d": 5}'}),
    (["export", "--in", "{tmp}/bad.json"], {}, {"bad.json": '{"d": 5'}),
    (["sweep", "--d", "5", "--field", "fp:1009"], {"SAITO_FORGE_THREADS": "abc"}, {}),
    # the Hilbert function of the d=5 quotient first reaches 12 at t=4
    (["verify", "--degree-bound", "2", *WORKED], {}, {}),
    (["verify", "--in", "{tmp}/tampered.json", "--degree-bound", "3"], {},
     {"tampered.json": '{"d": 5, "alpha": 0, "beta": 0, "field": "q", "F1": "1", '
                       '"F2": "x^2 + x*y + y^2", "F": "x^5 + y^5"}'}),
    # t=4 passes that threshold, but x^N, y^N lie in J(F) only from N=5 on,
    # below the point-support bound 8: inconclusive, in both verify modes
    (["verify", "--degree-bound", "4", *WORKED], {}, {}),
    (["verify", "--in", "{tmp}/scaled.json", "--degree-bound", "4"], {},
     {"scaled.json": '{"d": 5, "alpha": 0, "beta": 0, "field": "q", "F1": "1", '
                     '"F2": "x^2 + x*y + y^2", '
                     '"F": "2*x^5 + 2*x^2*y^3 + 2*x*y^4 + 2*y^5 + 2*y^4*z"}'}),
    (["verify", "--in", "{tmp}/inhomogeneous.json"], {},
     {"inhomogeneous.json": '{"d": 5, "alpha": 0, "beta": 0, "field": "q", "F1": "1", '
                            '"F2": "x^2 + x*y + y^2", "F": "x^5 + y"}'}),
    # fp:7 fails the char policy p > 3d, so no random draw can succeed
    (["verify", "--d", "6", "--field", "fp:7", "--seed", "1"], {}, {}),
    (["sweep", "--d", "5..6", "--field", "fp:7"], {"SAITO_FORGE_THREADS": "1"}, {}),
    # an output path in a directory that does not exist cannot be written
    (["construct", *WORKED, "--out", "{tmp}/absent/x.json"], {}, {}),
    (["hilbert", *WORKED, "--csv", "{tmp}/absent/h.csv"], {}, {}),
    (["export", *WORKED, "--out", "{tmp}/absent/x.m2"], {}, {}),
    (["sweep", "--d", "abc"], {}, {}),
    (["sweep", "--d", "5.."], {}, {}),
    # a sweep that selects no instance must not read as a pass
    (["sweep", "--d", "9..5"], {}, {}),
    (["sweep", "--d", "5", "--trials", "0"], {}, {}),
    (["sweep", "--d", "5", "--trials", "-1"], {}, {}),
    (["sweep", "--d", "5", "--alpha", "7"], {}, {}),
    # a digit that is not ASCII, and an integer over Python's int-string limit
    (["construct", "--d", "7", "--f1", "1", "--f2", "²"], {}, {}),
    (["construct", "--d", "7", "--f1", "1", "--f2", "x^²"], {}, {}),
    (["construct", "--d", "7", "--f1", "1", "--f2", "x^" + "9" * 5000],
     {"PYTHONINTMAXSTRDIGITS": "4300"}, {}),
    (["verify", "--in", "{tmp}/digit.json"], {},
     {"digit.json": '{"d": 5, "alpha": 0, "beta": 0, "field": "q", "F1": "1", '
                    '"F2": "x^2 + x*y + y^2", "F": "x^²"}'}),
    # a stored F whose degree is not d: without the check it ran without end
    (["verify", "--in", "{tmp}/high.json"], {},
     {"high.json": '{"d": 5, "alpha": 0, "beta": 0, "field": "q", "F1": "1", '
                   '"F2": "x^2 + x*y + y^2", "F": "x^1000"}'}),
    # a negative degree means nothing; one above the ceiling 3d only costs
    # time and memory (these bounds ran for more than 10 s without one)
    (["syzygies", *WORKED, "--degree", "-1"], {}, {}),
    (["syzygies", *WORKED, "--degree", "16"], {}, {}),
    (["verify", "--d", "9", "--degree-bound", "100000"], {}, {}),
    (["hilbert", "--d", "9", "--degree-bound", "100000"], {}, {}),
    (["hilbert", *WORKED, "--degree-bound", "-1"], {}, {}),
], ids=["negative-degree-bound", "missing-file", "missing-keys", "not-json", "bad-threads",
        "low-degree-bound", "low-degree-bound-raw-f", "point-support-bound",
        "point-support-bound-raw-f", "raw-f-not-a-form",
        "char-policy-verify", "char-policy-sweep",
        "unwritable-out", "unwritable-csv", "unwritable-export", "range-not-a-number",
        "range-open", "range-reversed", "no-trials", "negative-trials", "alpha-out-of-range",
        "superscript-form", "superscript-exponent", "over-long-exponent", "superscript-stored-f",
        "raw-f-wrong-degree", "negative-degree", "degree-over-ceiling",
        "verify-bound-over-ceiling", "hilbert-bound-over-ceiling", "negative-hilbert-bound"])
def test_bad_input_exits_2_without_traceback(tmp_path, argv, env, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = run_subprocess([a.replace("{tmp}", str(tmp_path)) for a in argv], env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_over_long_exponent_without_int_string_limit_fails_validation():
    # with no int-string limit the exponent parses, and F2 has the wrong degree
    proc = run_subprocess(["construct", "--d", "7", "--f1", "1", "--f2", "x^" + "9" * 5000],
                          {"PYTHONINTMAXSTRDIGITS": "0"})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "f2_degree" in proc.stderr


def test_degree_ceiling_is_3d_and_named(capsys):
    # the ceiling itself is accepted; one above it is named in the message
    assert main(["hilbert", *WORKED, "--degree-bound", "15"]) == 0
    assert main(["syzygies", *WORKED, "--degree", "15"]) == 0
    capsys.readouterr()
    assert main(["syzygies", *WORKED, "--degree", "16"]) == 2
    assert "0..15" in capsys.readouterr().err


def test_point_support_bound_below_n_is_inconclusive(capsys):
    assert main(["verify", "--degree-bound", "4", *WORKED]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--degree-bound 4" in captured.err
    assert main(["verify", "--degree-bound", "5", *WORKED]) == 0


def test_export_unbuildable_route_exits_1_without_script(monkeypatch, capsys, tmp_path):
    from saito_forge import saito
    from saito_forge.column_system import RouteFailure

    def no_solution(system):
        raise RouteFailure("graded column system is inconsistent")

    monkeypatch.setattr(saito, "solve_column_system", no_solution)
    out = tmp_path / "check.m2"
    code = main(["export", "--d", "9", "--alpha", "1", "--beta", "1", "--seed", "1",
                 "--field", "fp:1009", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists() and captured.out == ""


def test_route_bug_is_not_reported_as_failed_check(monkeypatch):
    # only the route failures proper are written out as "pass": false; a
    # builtin error inside a route is a bug and propagates
    from saito_forge import saito

    def broken(system):
        raise ValueError("bug")

    monkeypatch.setattr(saito, "solve_column_system", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["verify", *WORKED])


def test_verify_reports_route_failure_without_traceback(monkeypatch, capsys):
    # the explicit routes solve a graded column system; make it inconsistent
    from saito_forge import saito
    from saito_forge.column_system import RouteFailure

    def no_solution(system):
        raise RouteFailure("graded column system is inconsistent")

    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    monkeypatch.setattr(saito, "solve_column_system", no_solution)
    code = main(["verify", *WORKED])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    data = json.loads(captured.out)
    assert data["saito"] == {"pass": False, "error": "graded column system is inconsistent"}
    assert data["resolution"]["pass"] and data["point_support"]["certified"]


def test_sweep_records_route_failure_and_continues(monkeypatch, capsys):
    from saito_forge import cli
    from saito_forge.column_system import RouteFailure

    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    argv = ["sweep", "--d", "5..7", "--seed", "1", "--field", "fp:1009"]
    code, out = run(capsys, *argv)
    assert code == 0
    clean = json.loads(out)["instances"]
    real = cli.build_saito_matrix

    def degenerate_at_6(inst, route="auto"):
        if inst.params.d == 6:
            raise RouteFailure("mu vanished")
        return real(inst, route)

    monkeypatch.setattr(cli, "build_saito_matrix", degenerate_at_6)
    code, out = run(capsys, *argv)
    assert code == 1
    data = json.loads(out)
    assert data["summary"]["fail"] == 1
    for before, after in zip(clean, data["instances"], strict=True):
        if after["d"] != 6:
            assert after == before
            continue
        assert after["route"] == "failed" and after["error"] == "mu vanished"
        assert after["pass"] is False and after["irreducible"] == before["irreducible"]


def test_sweep_records_failed_draw_and_continues(monkeypatch, capsys):
    from saito_forge import cli
    from saito_forge.family import ExhaustedRetries

    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    argv = ["sweep", "--d", "5..7", "--seed", "1", "--field", "fp:1009"]
    code, out = run(capsys, *argv)
    clean = json.loads(out)["instances"]
    real = cli.random_instance

    def exhausted_at_6(d, alpha, beta, seed, field):
        if d == 6:
            raise ExhaustedRetries("no valid instance")
        return real(d, alpha, beta, seed, field)

    monkeypatch.setattr(cli, "random_instance", exhausted_at_6)
    code, out = run(capsys, *argv)
    assert code == 1
    data = json.loads(out)
    assert data["summary"]["fail"] == 1
    for before, after in zip(clean, data["instances"], strict=True):
        if after["d"] != 6:
            assert after == before
            continue
        assert after == {"d": 6, "alpha": 0, "beta": 0, "seed": 1, "field": "fp:1009",
                         "route": "failed", "error": "no valid instance", "pass": False}


def test_sweep_records_failed_non_squarefree_draw(monkeypatch, capsys):
    from saito_forge import cli
    from saito_forge.family import ExhaustedRetries

    def exhausted(*args):
        raise ExhaustedRetries("no non-square-free instance")

    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    monkeypatch.setattr(cli, "random_non_squarefree_instance", exhausted)
    code, out = run(capsys, "sweep", "--d", "10", "--alpha", "2", "--drop-squarefree",
                    "--field", "fp:1009")
    assert code == 0
    entry, = json.loads(out)["instances"]
    assert entry["route"] == "failed" and entry["pass"] is False
    assert entry["error"] == "no non-square-free instance"


def test_worker_count_clamped_to_cpus_and_tasks(monkeypatch):
    # only the count is computed: no pool is ever built here
    from saito_forge import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("SAITO_FORGE_THREADS", "100000")
    assert cli._worker_count(50) == 4
    assert cli._worker_count(3) == 3
    assert cli._worker_count(0) == 1
    monkeypatch.setenv("SAITO_FORGE_THREADS", "0")
    assert cli._worker_count(50) == 1
    monkeypatch.delenv("SAITO_FORGE_THREADS")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._worker_count(50) == 8


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # the parser is built once per process; no call may leave an option set
    # for the next, so each report matches the one a fresh parser gives
    from saito_forge import cli

    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")
    calls = [["verify", "--d", "8", "--alpha", "1", "--beta", "0", "--seed", "2",
              "--field", "fp:1009", "--timings"],
             ["verify", "--d", "8", "--alpha", "1", "--beta", "0", "--seed", "2", "--field", "fp:1009"],
             ["sweep", "--d", "7..8", "--field", "fp:1009"],
             ["syzygies", *WORKED, "--degree", "3"]]

    def reports(fresh):
        out = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code, text = run(capsys, *argv)
            data = json.loads(text)
            out.append((code, sorted(data.pop("timings", {})), json.dumps(data)))
        return out

    shared = reports(fresh=False)
    assert shared == reports(fresh=True)
    assert [timed for _, timed, _ in shared] == [
        ["irreducible", "point_support", "resolution", "saito"], [], [], []]


def test_input_errors_share_one_base():
    from saito_forge.family import InvalidParams
    from saito_forge.field import FieldError, InputError
    from saito_forge.poly import PolyError

    assert all(issubclass(e, InputError) for e in (InvalidParams, PolyError, FieldError))
