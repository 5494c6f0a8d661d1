import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bdnsat.formula import (And, CnfFormula, Iff, Not, Or, Var, conj, disj,
                            iff, imp, neg, tseitin_cnf)
from bdnsat.solver import SAT, UNSAT, SolverConfig, solve
from support import dimacs_text, evaluate, node_count, variables


def random_formula(rng: random.Random, n_vars: int, depth: int):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.1:
            return rng.random() < 0.5
        return Var(rng.randint(1, n_vars))
    kind = rng.choice(["and", "or", "not", "imp", "iff"])
    sub = lambda: random_formula(rng, n_vars, depth - 1)
    if kind == "not":
        return Not(sub())
    if kind == "imp":
        return Or((Not(sub()), sub()))
    if kind == "iff":
        return Iff(sub(), sub())
    children = tuple(sub() for _ in range(rng.randint(1, 4)))
    return And(children) if kind == "and" else Or(children)


def truth_table_satisfiable(formula, n_vars: int) -> bool:
    for bits in product([False, True], repeat=n_vars):
        if evaluate(formula, dict(enumerate(bits, start=1))):
            return True
    return False


class TestConstructors:
    def test_conj_folding(self):
        assert conj([]) is True
        assert conj([True, True]) is True
        assert conj([Var(1), False]) is False
        assert conj([Var(1), True]) == Var(1)
        assert conj([Var(1), Var(2)]) == And((Var(1), Var(2)))

    def test_disj_folding(self):
        assert disj([]) is False
        assert disj([False]) is False
        assert disj([Var(1), True]) is True
        assert disj([False, Var(2)]) == Var(2)
        assert disj([Var(1), Var(2)]) == Or((Var(1), Var(2)))

    def test_neg_imp_iff_folding(self):
        assert neg(True) is False
        assert neg(Not(Var(1))) == Var(1)
        assert imp(True, Var(1)) == Var(1)
        assert imp(False, Var(1)) is True
        assert imp(Var(1), False) == Not(Var(1))
        assert iff(Var(1), True) == Var(1)
        assert iff(False, Var(1)) == Not(Var(1))

    def test_imp_truth_table(self):
        for p, c in [(Var(1), Var(2)), (Not(Var(1)), Var(2)),
                     (And((Var(1), Var(2))), Or((Var(2), Not(Var(1)))))]:
            f = imp(p, c)
            for bits in product([False, True], repeat=2):
                assignment = dict(enumerate(bits, start=1))
                assert evaluate(f, assignment) == (
                    not evaluate(p, assignment) or evaluate(c, assignment))

    def test_nary_nodes_require_children(self):
        with pytest.raises(ValueError):
            And(())
        with pytest.raises(ValueError):
            Or(())

    def test_and_differs_from_or_over_equal_children(self):
        children = (Var(1), Var(2))
        assert And(children) != Or(children)
        assert And(children) == And(children)

    def test_node_count(self):
        f = And((Var(1), Not(Var(2))))
        assert node_count(f) == 4
        assert variables(f) == {1, 2}
        # Iff(Not(And(v1, Or(v2, v3))), Or(v1, Not(v4), True)):
        # 1 Iff + 1 Not + 1 And + 1 v1 + 1 Or + 2 (v2, v3)
        # + 1 Or + 1 v1 + 1 Not + 1 v4 + 1 True = 12 occurrences.
        f = Iff(Not(And((Var(1), Or((Var(2), Var(3)))))),
                Or((Var(1), Not(Var(4)), True)))
        assert node_count(f) == 12
        assert variables(f) == {1, 2, 3, 4}
        assert node_count(Var(5)) == 1
        assert variables(True) == set()


class TestBoolLeaves:
    def test_int_is_not_a_formula(self):
        with pytest.raises(TypeError):
            evaluate(1, {})
        with pytest.raises(TypeError):
            tseitin_cnf(1, 1)

    def test_folding_returns_bools(self):
        assert disj([True, Var(1)]) is True
        assert neg(False) is True

    def test_true_and_false_below_root_share_one_label(self):
        cnf = tseitin_cnf(Or((True, False, Var(1))), 1)
        # x1 and the shared true label 2; the root Or is one clause
        assert cnf.n_vars == 2
        assert cnf.clauses == [(2,), (2, -2, 1)]


class TestCnfInvariants:
    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError):
            CnfFormula(1, [()])
        with pytest.raises(ValueError, match="empty clause"):
            CnfFormula(2, [(1,), (-2,), ()])

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            CnfFormula(1, [(0,)])
        with pytest.raises(ValueError, match="literal 0 out of range"):
            CnfFormula(2, [(1, -2), (2, 0)])

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            CnfFormula(1, [(2,)])
        with pytest.raises(ValueError, match="literal -2 out of range"):
            CnfFormula(1, [(1,), (-2,)])


class TestTseitin:
    def test_single_variable_is_one_unit_clause(self):
        cnf = tseitin_cnf(Var(3), 3)
        assert cnf.clauses == [(3,)]
        assert cnf.n_vars == 3

    def test_implication_gate(self):
        cnf = tseitin_cnf(imp(Var(1), Var(2)), 2)
        assert cnf.n_vars == 2
        assert cnf.clauses == [(-1, 2)]

    def test_root_iff_of_or_is_its_gate(self):
        cnf = tseitin_cnf(Iff(Var(3), Or((Var(1), Var(2)))), 3)
        assert cnf.n_vars == 3
        assert cnf.clauses == [(3, -1), (3, -2), (-3, 1, 2)]

    def test_root_iff_of_and_is_its_gate(self):
        cnf = tseitin_cnf(Iff(Var(3), And((Var(1), Not(Var(2))))), 3)
        assert cnf.n_vars == 3
        assert cnf.clauses == [(-3, 1), (-3, -2), (3, -1, 2)]

    def test_root_or_is_one_clause(self):
        cnf = tseitin_cnf(Or((Var(1), Not(Var(2)), Var(3))), 3)
        assert cnf.n_vars == 3
        assert cnf.clauses == [(1, -2, 3)]

    def test_nested_root_and_is_flattened(self):
        cnf = tseitin_cnf(And((Var(1), And((Not(Var(2)), Var(3))))), 3)
        assert cnf.n_vars == 3
        assert cnf.clauses == [(1,), (-2,), (3,)]

    def test_iff_below_an_or_gets_a_label(self):
        cnf = tseitin_cnf(Or((Iff(Var(1), Var(2)), Var(3))), 3)
        assert cnf.n_vars == 4
        assert cnf.clauses == [(-4, -1, 2), (-4, 1, -2), (4, 1, 2),
                               (4, -1, -2), (4, 3)]

    def test_contradiction_unsat(self):
        cnf = tseitin_cnf(And((Var(1), Not(Var(1)))), 1)
        assert solve(cnf, SolverConfig()).status == UNSAT

    def test_constant_true_has_no_clauses(self):
        cnf = tseitin_cnf(conj([]), 4)
        assert cnf.clauses == []
        assert solve(cnf, SolverConfig()).status == SAT

    def test_constant_false_unsat(self):
        cnf = tseitin_cnf(False, 2)
        assert solve(cnf, SolverConfig()).status == UNSAT

    def test_constants_below_root_share_one_true_variable(self):
        cnf = tseitin_cnf(And((True, Not(False), Var(1))), 1)
        assert cnf.n_vars == 2  # x1 and the shared true variable
        assert (2,) in cnf.clauses
        assert solve(cnf, SolverConfig()).status == SAT
        cnf = tseitin_cnf(Or((False, False)), 1)
        assert cnf.n_vars == 2
        assert solve(cnf, SolverConfig()).status == UNSAT

    def test_deterministic_output(self):
        rng = random.Random(5)
        f = random_formula(rng, 6, 5)
        a = dimacs_text(tseitin_cnf(f, 6))
        b = dimacs_text(tseitin_cnf(f, 6))
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 100_000))
    def test_equisatisfiable_with_truth_table(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        f = random_formula(rng, n, rng.randint(1, 5))
        cnf = tseitin_cnf(f, n)
        result = solve(cnf, SolverConfig())
        expected = truth_table_satisfiable(f, n)
        assert (result.status == SAT) == expected
        if result.status == SAT:
            # CNF models project onto models of the original formula
            projected = {v: result.assignment[v] for v in range(1, n + 1)}
            assert evaluate(f, projected)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_every_formula_model_extends_to_cnf_model(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        f = random_formula(rng, n, rng.randint(1, 4))
        cnf = tseitin_cnf(f, n)
        for bits in product([False, True], repeat=n):
            assignment = dict(enumerate(bits, start=1))
            if not evaluate(f, assignment):
                continue
            # force the projection and check the CNF stays satisfiable
            forced = CnfFormula(cnf.n_vars,
                                cnf.clauses + [((v if val else -v),)
                                               for v, val in assignment.items()])
            assert solve(forced, SolverConfig()).status == SAT


class TestDimacs:
    def test_unit_clause_format(self):
        cnf = tseitin_cnf(Var(1), 1)
        assert dimacs_text(cnf) == "p cnf 1 1\n1 0\n"

    def test_header_counts(self):
        cnf = tseitin_cnf(Or((Var(1), Var(2))), 2)
        text = dimacs_text(cnf)
        header = text.splitlines()[0].split()
        assert header[:2] == ["p", "cnf"]
        assert int(header[3]) == len(cnf.clauses)
        assert all(line.endswith(" 0") for line in text.splitlines()[1:])
