import argparse
import os
import time

import pytest

import support
from bdnsat import cli, solver
from bdnsat.cli import main
from bdnsat.encoding import VarTable
from bdnsat.solver import MAX_TIMEOUT, UNKNOWN, SatResult


@pytest.fixture
def p1_file(tmp_path):
    path = tmp_path / "p1.lp"
    path.write_text(support.P1_SOURCE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_stats(self, capsys, p1_file):
        code, out, _ = run(capsys, "parse", p1_file)
        assert code == 0
        assert "atoms: 7" in out
        assert "rules: 8" in out
        assert "normal: no" in out
        assert "tautologies removed: 0" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "parse", "/nonexistent.lp")
        assert code == 1
        assert err.startswith("error:")

    def test_syntax_error_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.lp"
        bad.write_text("a.\nb :- ,c.\n")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 1
        assert "2:6" in err

    def test_usage_error_exits_one(self, capsys, p1_file):
        code, _, err = run(capsys, "solve", p1_file, "--mode", "bold",
                           "--atom", "b")
        assert code == 1
        assert "bold" in err


class TestParserReuse:
    def test_parser_built_once(self, capsys, p1_file, monkeypatch):
        cli._parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        code, out, _ = run(capsys, "solve", p1_file, "--mode", "brave",
                           "--atom", "b")
        assert code == 10
        n_built = len(built)
        assert n_built > 0
        code, out, _ = run(capsys, "backdoor", p1_file)
        assert code == 0
        assert out.splitlines() == ["a", "c", "h"]
        assert len(built) == n_built

    def test_no_stale_attributes(self, p1_file):
        cli._parser().parse_args(["solve", p1_file, "--mode", "brave",
                                  "--atom", "b"])
        args = cli._parser().parse_args(["backdoor", p1_file])
        assert not hasattr(args, "atom")
        assert args.func is cli._cmd_backdoor


class TestBackdoor:
    def test_p1_atoms_printed(self, capsys, p1_file):
        code, out, _ = run(capsys, "backdoor", p1_file)
        assert code == 0
        assert out.splitlines() == ["a", "c", "h"]

    def test_exact_output(self, capsys, p1_file, tmp_path):
        assert run(capsys, "backdoor", p1_file)[1] == "a\nc\nh\n"
        normal = tmp_path / "normal.lp"
        normal.write_text("a :- not b.\n")
        assert run(capsys, "backdoor", str(normal)) == (0, "", "")

    def test_none_within_budget(self, capsys, p1_file):
        code, out, _ = run(capsys, "backdoor", p1_file, "--max-k", "2")
        assert code == 0
        assert out.strip() == "none within 2"

    def test_budget_fails_fast(self, capsys, tmp_path):
        # the bounds of 200 disjoint pairs sum to 200, so no search is needed
        path = tmp_path / "pairs.lp"
        path.write_text("".join(f"a{i} | b{i}.\n" for i in range(200)))
        start = time.perf_counter()
        code, out, _ = run(capsys, "backdoor", str(path), "--max-k", "5")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out.strip() == "none within 5"

    def test_negative_max_k_is_usage_error(self, capsys, p1_file):
        code, out, err = run(capsys, "backdoor", p1_file, "--max-k", "-1")
        assert code == 1
        assert out == ""
        assert "--max-k" in err


class TestCheck:
    def test_known_answer_set(self, capsys, p1_file):
        code, out, _ = run(capsys, "check", p1_file, "--model", "b,c,g",
                           "--backdoor", "b,c,h")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "answer set: yes"
        assert lines[1] == "subset 1 {}: a,b,c,d"
        assert lines[2] == "subset 2 {c}: b,c"
        assert lines[4] == "subset 4 {b,c}: c"
        assert len(lines) == 9

    def test_auto_detected_backdoor(self, capsys, p1_file):
        code, out, _ = run(capsys, "check", p1_file, "--model", "b,c,g")
        assert code == 0
        assert out.splitlines()[0] == "answer set: yes"

    def test_rejection(self, capsys, p1_file):
        code, out, _ = run(capsys, "check", p1_file, "--model", "a,b,c,g")
        assert code == 0
        assert out.splitlines()[0] == "answer set: no"
        assert "fails at subset" in out
        # Pinned (detected backdoor a, c, h): the first failing subset.
        assert out.splitlines() == ["answer set: no", "fails at subset 3 {c}"]

    def test_non_model(self, capsys, p1_file):
        code, out, _ = run(capsys, "check", p1_file, "--model", "a")
        assert code == 0
        assert "not a model of its reduct" in out
        assert out.splitlines() == ["answer set: no",
                                    "not a model of its reduct"]

    def test_unknown_atom(self, capsys, p1_file):
        code, _, err = run(capsys, "check", p1_file, "--model", "zz")
        assert code == 1
        assert "zz" in err

    def test_bogus_backdoor(self, capsys, p1_file):
        code, _, err = run(capsys, "check", p1_file, "--model", "b,c,g",
                           "--backdoor", "b")
        assert code == 1
        assert "backdoor" in err


class TestEnumerate:
    def test_p1(self, capsys, p1_file):
        code, out, _ = run(capsys, "enumerate", p1_file)
        assert code == 0
        assert out.splitlines() == ["{a,c,g}", "{b,c,g}"]

    def test_above_old_atom_guard(self, capsys, tmp_path):
        big = tmp_path / "big.lp"
        big.write_text("".join(f"a{i}.\n" for i in range(21)))
        code, out, _ = run(capsys, "enumerate", str(big))
        assert code == 0
        assert out.splitlines() == [
            "{" + ",".join(sorted(f"a{i}" for i in range(21))) + "}"]

    def test_force_is_usage_error(self, capsys, p1_file):
        code, out, err = run(capsys, "enumerate", p1_file, "--force")
        assert code == 1
        assert out == ""
        assert "--force" in err and "Traceback" not in err

    @pytest.mark.parametrize("source, expected", [("", "{}\n"),
                                                  ("a :- not a.\n", "")])
    def test_empty_and_inconsistent(self, capsys, tmp_path, source, expected):
        path = tmp_path / "p.lp"
        path.write_text(source)
        assert run(capsys, "enumerate", str(path)) == (0, expected, "")

    def test_unknown_exits_30(self, capsys, p1_file, monkeypatch):
        def cut_after_first(cnf, project):
            yield next(solver.models(cnf, project))
            yield SatResult(UNKNOWN, diagnostics="timeout")
        monkeypatch.setattr(cli, "models", cut_after_first)
        code, out, _ = run(capsys, "enumerate", p1_file)
        assert code == 30
        assert out.splitlines()[1:] == ["unknown: timeout"]
        assert out.splitlines()[0] in ("{a,c,g}", "{b,c,g}")

    def test_matches_oracle(self, capsys, tmp_path):
        path = tmp_path / "p.lp"
        for program in support.corpus(2013, 60, max_atoms=7, max_rules=10):
            path.write_text(support.pretty(program))
            code, out, _ = run(capsys, "enumerate", str(path))
            assert code == 0
            expected = sorted(sorted(program.atom_names(m))
                              for m in support.enumerate_answer_sets(program))
            assert out.splitlines() == ["{" + ",".join(names) + "}"
                                        for names in expected]


class TestEncode:
    def test_writes_dimacs_and_map(self, capsys, p1_file, tmp_path):
        cnf_path = tmp_path / "query.cnf"
        map_path = tmp_path / "query.map"
        code, out, _ = run(capsys, "encode", p1_file, "--mode", "brave",
                           "--atom", "b", "--out", str(cnf_path),
                           "--map", str(map_path))
        assert code == 0
        # Pinned (detected backdoor a, c, h): a change to the encoding's
        # size must update these on purpose.
        assert out.splitlines() == ["blocks: 8", "variables: 31",
                                    "clauses: 95"]
        header = cnf_path.read_text().splitlines()[0].split()
        assert header[:2] == ["p", "cnf"]
        map_lines = map_path.read_text().splitlines()
        assert map_lines[0] == "v 1 a"
        assert int(header[2]) == len(map_lines)

    @pytest.mark.parametrize("out, map_", [("p1.lp", None),
                                            ("q.cnf", "q.cnf"),
                                            ("q.cnf", "p1.lp"),
                                            ("hard.lp", None),
                                            ("q.cnf", "hard.lp")])
    def test_same_path_writes_nothing(self, capsys, p1_file, tmp_path,
                                      monkeypatch, out, map_):
        monkeypatch.chdir(tmp_path)
        if "hard.lp" in (out, map_):  # a second name for p1.lp
            os.link("p1.lp", "hard.lp")
        (tmp_path / "q.cnf").write_text("keep\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        argv = ["encode", p1_file, "--mode", "brave", "--atom", "b",
                "--out", out] + (["--map", map_] if map_ else [])
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert "same file" in err and "Traceback" not in err
        after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert after == before

    def test_deterministic_across_runs(self, capsys, p1_file, tmp_path):
        outputs = []
        for i in range(2):
            path = tmp_path / f"q{i}.cnf"
            run(capsys, "encode", p1_file, "--mode", "skeptical", "--atom", "g",
                "--out", str(path))
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestSolve:
    def test_brave_yes(self, capsys, p1_file):
        code, out, _ = run(capsys, "solve", p1_file, "--mode", "brave",
                           "--atom", "b")
        assert code == 10
        assert out.startswith("yes")

    def test_brave_no(self, capsys, p1_file):
        code, out, _ = run(capsys, "solve", p1_file, "--mode", "brave",
                           "--atom", "e")
        assert code == 20

    def test_skeptical_yes(self, capsys, p1_file):
        code, out, _ = run(capsys, "solve", p1_file, "--mode", "skeptical",
                           "--atom", "g")
        assert code == 10

    def test_skeptical_no_prints_witness(self, capsys, p1_file):
        code, out, _ = run(capsys, "solve", p1_file, "--mode", "skeptical",
                           "--atom", "b")
        assert code == 20
        assert "{a,c,g}" in out

    def test_explicit_backdoor(self, capsys, p1_file):
        code, _, _ = run(capsys, "solve", p1_file, "--mode", "brave",
                         "--atom", "b", "--backdoor", "b,c,h")
        assert code == 10

    def test_env_var_solver(self, capsys, p1_file, monkeypatch, tmp_path):
        exe = tmp_path / "broken"
        exe.write_text("#!/bin/sh\nexit 3\n")
        exe.chmod(0o755)
        monkeypatch.setenv("BDNSAT_SOLVER", str(exe))
        code, out, _ = run(capsys, "solve", p1_file, "--mode", "brave",
                           "--atom", "b")
        assert code == 30
        assert out.startswith("unknown")

    def test_bad_model_value_is_error(self, capsys, p1_file, monkeypatch,
                                      tmp_path):
        exe = tmp_path / "bad_value"
        exe.write_text('#!/bin/sh\necho "s SATISFIABLE"\necho "v 1 abc 0"\n')
        exe.chmod(0o755)
        monkeypatch.setenv("BDNSAT_SOLVER", str(exe))
        code, out, err = run(capsys, "solve", p1_file, "--mode", "brave",
                             "--atom", "b")
        assert code == 1
        assert out == ""
        assert err == "error: solver printed a bad value 'abc'\n"

    def test_subset_guard_fails_fast(self, capsys, tmp_path):
        # detection of the 25-atom backdoor must not delay the 2^20 guard
        path = tmp_path / "pairs.lp"
        path.write_text("".join(f"a{i} | b{i}.\n" for i in range(25)))
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", str(path), "--mode", "brave",
                             "--atom", "a0")
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert out == ""
        assert "2^20 subset guard" in err

    # above 2.1e6 s an external solver's wait overflows
    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1", "3e6", "1e300"])
    def test_bad_timeout_is_usage_error(self, capsys, p1_file, timeout):
        code, out, err = run(capsys, "solve", p1_file, "--mode", "brave",
                             "--atom", "b", "--timeout", timeout)
        assert code == 1
        assert out == ""
        assert "--timeout" in err

    def test_maximum_timeout_reaches_external_solver(self, capsys, p1_file,
                                                     monkeypatch, tmp_path):
        exe = tmp_path / "says_unsat"
        exe.write_text('#!/bin/sh\necho "s UNSATISFIABLE"\n')
        exe.chmod(0o755)
        monkeypatch.setenv("BDNSAT_SOLVER", str(exe))
        code, out, _ = run(capsys, "solve", p1_file, "--mode", "brave",
                           "--atom", "b", "--timeout", str(MAX_TIMEOUT))
        assert code == 20
        assert out.startswith("no")

    def test_solve_builds_no_variable_names(self, capsys, p1_file,
                                            monkeypatch):
        def refuse(self):
            raise AssertionError("variable names built without --map")
        monkeypatch.setattr(VarTable, "names", refuse)
        code, out, _ = run(capsys, "solve", p1_file, "--mode", "brave",
                           "--atom", "b")
        assert code == 10
        assert out.startswith("yes")


class TestSolveMatchesOracle:
    def test_golden_corpus(self, capsys, tmp_path):
        import random

        from support import brave_atoms, pretty, skeptical_atoms

        rng = random.Random(321)
        for i in range(10):
            program = support.random_program(rng, max_atoms=5, max_rules=7)
            path = tmp_path / f"g{i}.lp"
            path.write_text(pretty(program))
            brave = brave_atoms(program)
            skeptical = skeptical_atoms(program)
            for atom_id in program.atoms:
                name = program.table.name_of(atom_id)
                code, _, _ = run(capsys, "solve", str(path), "--mode", "brave",
                                 "--atom", name)
                assert code == (10 if atom_id in brave else 20)
                code, _, _ = run(capsys, "solve", str(path), "--mode",
                                 "skeptical", "--atom", name)
                assert code == (10 if atom_id in skeptical else 20)


class TestStats:
    def test_table_shape(self, capsys, p1_file):
        code, out, _ = run(capsys, "stats", p1_file, p1_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["file", "atoms", "backdoor", "backdoor%",
                                    "tight"]
        assert len(lines) == 3
        assert lines[1] == lines[2]
        assert "42.86" in lines[1]

    def test_deterministic(self, capsys, p1_file):
        first = run(capsys, "stats", p1_file)
        second = run(capsys, "stats", p1_file)
        assert first == second
