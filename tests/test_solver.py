import random
import stat
import textwrap
import time
from itertools import combinations, product

import pytest

from bdnsat.formula import CnfFormula
from bdnsat.solver import (MAX_TIMEOUT, SAT, UNKNOWN, UNSAT, SatResult,
                           SolverConfig, SolverError, _check_model, models,
                           parse_solver_output, solve)


def cnf(n, clauses):
    return CnfFormula(n, [tuple(c) for c in clauses])


def truth_table_status(formula: CnfFormula) -> str:
    for bits in product([False, True], repeat=formula.n_vars):
        assignment = dict(enumerate(bits, start=1))
        if all(any(assignment[abs(l)] == (l > 0) for l in clause)
               for clause in formula.clauses):
            return SAT
    return UNSAT


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    """PHP(pigeons, holes): unsatisfiable whenever pigeons > holes."""
    def var(p, h):
        return p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    clauses += [(-var(p, h), -var(q, h)) for h in range(holes)
                for p, q in combinations(range(pigeons), 2)]
    return cnf(pigeons * holes, clauses)


def assert_total_and_satisfying(formula: CnfFormula, assignment) -> None:
    assert set(assignment) == set(range(1, formula.n_vars + 1))
    for clause in formula.clauses:
        assert any(assignment[abs(l)] == (l > 0) for l in clause)


class TestInternal:
    def test_unit_conflict(self):
        assert solve(cnf(1, [(1,), (-1,)]), SolverConfig()).status == UNSAT

    def test_single_clause_sat(self):
        result = solve(cnf(2, [(1, 2)]), SolverConfig())
        assert result.status == SAT
        assert set(result.assignment) == {1, 2}
        assert result.assignment[1] or result.assignment[2]

    def test_empty_cnf_sat(self):
        result = solve(cnf(3, []), SolverConfig())
        assert result.status == SAT
        assert len(result.assignment) == 3

    def test_pure_literal_and_propagation(self):
        # v1 pure positive, forces the rest through units
        result = solve(cnf(3, [(1, 2), (1, -2), (-2, 3)]), SolverConfig())
        assert result.status == SAT

    def test_random_3cnf_matches_truth_table(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(1, 8)
            m = rng.randint(1, 30)
            clauses = []
            for _ in range(m):
                size = rng.randint(1, 3)
                clause = tuple(rng.choice([-1, 1]) * rng.randint(1, n)
                               for _ in range(size))
                clauses.append(clause)
            formula = cnf(n, clauses)
            assert solve(formula, SolverConfig()).status == \
                truth_table_status(formula)

    def test_assignment_is_total_and_satisfying(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 10)
            clauses = [tuple({rng.choice([-1, 1]) * rng.randint(1, n)
                              for _ in range(rng.randint(1, 4))})
                       for _ in range(rng.randint(1, 20))]
            formula = cnf(n, clauses)
            result = solve(formula, SolverConfig())
            if result.status == SAT:
                assert_total_and_satisfying(formula, result.assignment)

    def test_wide_clauses_match_truth_table(self):
        # widths up to 6 make watches move; duplicate and complementary
        # literals reach the watch lists as given
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 12)
            clauses = []
            for _ in range(rng.randint(1, 40)):
                clause = [rng.choice([-1, 1]) * rng.randint(1, n)
                          for _ in range(rng.randint(1, 6))]
                if rng.random() < 0.2:
                    clause.append(rng.choice(clause))
                if rng.random() < 0.1:
                    clause.append(-rng.choice(clause))
                rng.shuffle(clause)
                clauses.append(clause)
            formula = cnf(n, clauses)
            result = solve(formula, SolverConfig())
            assert result.status == truth_table_status(formula)
            if result.status == SAT:
                assert_total_and_satisfying(formula, result.assignment)

    def test_tautology_alone_is_sat(self):
        result = solve(cnf(1, [(1, -1)]), SolverConfig())
        assert result.status == SAT
        assert set(result.assignment) == {1}

    def test_duplicate_literal_clause_against_unit(self):
        assert solve(cnf(2, [(2, 2), (-2,)]), SolverConfig()).status == UNSAT

    # clauses are watched as given: (status, model, decisions, conflicts,
    # propagations) for repeated and complementary literals
    @pytest.mark.parametrize("clauses, expected", [
        # the repeated literal fills both watch slots and still implies 2
        ([(-1, -1, 2), (1,), (-2,)], (UNSAT, None, 0, 1, 2)),
        # after -2 both watches hold 1, so 1 is not implied; -1 conflicts
        ([(1, 2, 1), (-2,), (-1,)], (UNSAT, None, 0, 1, 1)),
        ([(1, 2, 1), (-2,)], (SAT, {1: True, 2: False}, 1, 0, 1)),
        ([(1, -1, 2), (-2,)], (SAT, {1: True, 2: False}, 1, 0, 1)),
        ([(1, -1), (2,), (-2,)], (UNSAT, None, 0, 1, 1)),
    ])
    def test_unnormalised_clauses(self, clauses, expected):
        result = solve(cnf(2, clauses), SolverConfig())
        assert (result.status, result.assignment, result.decisions,
                result.conflicts, result.propagations) == expected

    def test_timeout_is_unknown(self):
        start = time.monotonic()
        result = solve(pigeonhole(9, 8), SolverConfig(timeout=0.2))
        assert time.monotonic() - start < 2.0
        assert result.status == UNKNOWN
        assert "timeout" in result.diagnostics

    def test_result_invariant(self):
        with pytest.raises(ValueError):
            SatResult(SAT, None)
        with pytest.raises(ValueError):
            SatResult(UNSAT, {1: True})


class TestModels:
    def test_one_model_per_projection(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 8)
            project = rng.randint(0, n)
            clauses = [tuple(rng.choice([-1, 1]) * rng.randint(1, n)
                             for _ in range(rng.randint(1, 3)))
                       for _ in range(rng.randint(1, 12))]
            formula = cnf(n, clauses)
            expected = {bits[:project]
                        for bits in product([False, True], repeat=n)
                        if all(any(bits[abs(l) - 1] == (l > 0) for l in c)
                               for c in clauses)}
            *found, last = models(formula, project)
            assert last.status == UNSAT
            for result in found:
                assert_total_and_satisfying(formula, result.assignment)
            projections = [tuple(r.assignment[v]
                                 for v in range(1, project + 1))
                           for r in found]
            assert len(projections) == len(set(projections))
            assert set(projections) == expected

    def test_one_deadline_for_the_whole_run(self):
        # 2^20 models: the deadline ends the listing, not each model
        start = time.monotonic()
        *found, last = models(cnf(20, []), 20, timeout=0.2)
        assert time.monotonic() - start < 2.0
        assert last.status == UNKNOWN and "timeout" in last.diagnostics
        assert 0 < len(found) < 1 << 20


class TestModelCheck:
    def test_missing_variable_rejected(self):
        with pytest.raises(SolverError, match="misses variable 2"):
            _check_model(cnf(2, [(1, 2)]), {1: True})

    def test_one_unsatisfied_clause_among_satisfied_rejected(self):
        formula = cnf(3, [(1, 2), (-1, 3), (2, -3), (-2, 3)])
        with pytest.raises(SolverError, match=r"clause \(2, -3\)"):
            _check_model(formula, {1: True, 2: False, 3: True})


class TestConfig:
    @pytest.mark.parametrize("executable", [None, "/bin/true"])
    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0, -1,
                                         MAX_TIMEOUT * 1.5, 3e6, 1e300])
    def test_bad_timeout_rejected(self, executable, timeout):
        with pytest.raises(ValueError, match="timeout"):
            SolverConfig(executable, timeout)


class TestCounters:
    def test_unit_conflict_needs_no_decision(self):
        result = solve(cnf(1, [(1,), (-1,)]), SolverConfig())
        assert result.decisions == 0
        assert result.conflicts == 1

    def test_pigeonhole_has_conflicts(self):
        result = solve(pigeonhole(5, 4), SolverConfig())
        assert result.status == UNSAT
        assert result.decisions > 0
        assert result.conflicts > 0
        assert result.propagations > 0

    def test_units_count_as_propagations(self):
        result = solve(cnf(3, [(1,), (-1, 2), (-2, 3)]), SolverConfig())
        assert result.status == SAT
        assert (result.decisions, result.conflicts) == (0, 0)
        assert result.propagations == 3

    def test_counts_are_deterministic(self):
        formula = pigeonhole(5, 4)
        first = solve(formula, SolverConfig())
        second = solve(formula, SolverConfig())
        assert (first.decisions, first.conflicts, first.propagations) == \
            (second.decisions, second.conflicts, second.propagations)


class TestOutputParsing:
    def test_sat_with_values(self):
        status, assignment = parse_solver_output(
            "c comment\ns SATISFIABLE\nv 1 -2\nv 3 0\n", 4)
        assert status == SAT
        assert assignment == {1: True, 2: False, 3: True, 4: False}

    def test_unsat(self):
        assert parse_solver_output("s UNSATISFIABLE\n", 2) == (UNSAT, None)

    def test_garbage_is_unknown(self):
        assert parse_solver_output("whatever\n", 1) == (UNKNOWN, None)

    def test_bad_value_names_the_token(self):
        with pytest.raises(SolverError, match="solver printed a bad value 'abc'"):
            parse_solver_output("s SATISFIABLE\nv 1 abc 0\n", 2)


def _write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


@pytest.fixture
def stub_solver(tmp_path):
    """Competition-format solver built on this package's own DPLL."""
    runner = tmp_path / "stub_solver.py"
    runner.write_text(textwrap.dedent("""\
        import sys
        from bdnsat.formula import CnfFormula
        from bdnsat.solver import SAT, SolverConfig, solve

        clauses, n = [], 0
        for line in open(sys.argv[1]):
            parts = line.split()
            if not parts or parts[0] in ("c", "p"):
                if parts and parts[0] == "p":
                    n = int(parts[2])
                continue
            lits = tuple(int(t) for t in parts if t != "0")
            if lits:
                clauses.append(lits)
        result = solve(CnfFormula(n, clauses), SolverConfig())
        if result.status == SAT:
            print("s SATISFIABLE")
            lits = [v if result.assignment[v] else -v for v in range(1, n + 1)]
            print("v " + " ".join(map(str, lits)) + " 0")
            sys.exit(10)
        print("s UNSATISFIABLE")
        sys.exit(20)
    """))
    return _write_script(tmp_path, "stub_solver",
                         f'exec python3 "{runner}" "$1"\n')


class TestExternal:
    def test_agrees_with_internal(self, stub_solver):
        rng = random.Random(7)
        config = SolverConfig(stub_solver, timeout=30)
        for _ in range(25):
            n = rng.randint(1, 6)
            clauses = [tuple({rng.choice([-1, 1]) * rng.randint(1, n)
                              for _ in range(rng.randint(1, 3))})
                       for _ in range(rng.randint(1, 12))]
            formula = cnf(n, clauses)
            external = solve(formula, config)
            internal = solve(formula, SolverConfig())
            assert external.status == internal.status
            assert external.decisions == external.conflicts == 0
            if external.status == SAT:
                assert len(external.assignment) == n

    def test_executable_selects_external(self, tmp_path):
        exe = _write_script(tmp_path, "says_unsat",
                            'echo "s UNSATISFIABLE"\n')
        formula = cnf(1, [(1,)])
        assert solve(formula, SolverConfig(exe)).status == UNSAT
        assert solve(formula, SolverConfig()).status == SAT

    def test_exit_code_20_without_status_line(self, tmp_path):
        exe = _write_script(tmp_path, "quiet20", "exit 20\n")
        result = solve(cnf(1, [(1,), (-1,)]), SolverConfig(exe))
        assert result.status == UNSAT

    def test_missing_executable_is_unknown(self, tmp_path):
        result = solve(cnf(1, [(1,)]),
                       SolverConfig(str(tmp_path / "nope")))
        assert result.status == UNKNOWN
        assert "process failure" in result.diagnostics

    def test_garbage_output_is_unknown(self, tmp_path):
        exe = _write_script(tmp_path, "garbage", "echo hello\nexit 0\n")
        result = solve(cnf(1, [(1,)]), SolverConfig(exe))
        assert result.status == UNKNOWN

    def test_timeout_is_unknown(self, tmp_path):
        exe = _write_script(tmp_path, "sleepy", "sleep 5\n")
        result = solve(cnf(1, [(1,)]),
                       SolverConfig(exe, timeout=0.2))
        assert result.status == UNKNOWN
        assert "timeout" in result.diagnostics

    def test_lying_sat_model_rejected(self, tmp_path):
        exe = _write_script(tmp_path, "liar",
                            'echo "s SATISFIABLE"\necho "v 1 0"\nexit 10\n')
        with pytest.raises(SolverError):
            solve(cnf(1, [(-1,)]), SolverConfig(exe))

    def test_environment_is_ignored(self, monkeypatch, tmp_path):
        # only the CLI reads BDNSAT_SOLVER; the library solves as configured
        exe = _write_script(tmp_path, "says_unsat",
                            'echo "s UNSATISFIABLE"\n')
        monkeypatch.setenv("BDNSAT_SOLVER", exe)
        result = solve(cnf(1, [(1,)]), SolverConfig())
        assert (result.status, result.assignment) == (SAT, {1: True})
