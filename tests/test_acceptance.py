"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Every expected value is produced by a brute-force oracle or frozen from
the running example; none comes from the code paths under test.
"""
import random
import time
from itertools import combinations, product

import pytest

import support
from bdnsat import (AtomSet, find_backdoor, head_dependency_graph,
                    is_answer_set)
from support import (TruthAssignment, assignment_reduct, assignments_over,
                     brave_atoms, delete_atoms, enumerate_answer_sets,
                     evaluate, mincheck, naive_is_answer_set, node_count,
                     skeptical_atoms)
from bdnsat.encoding import QuerySpec, build_query
from bdnsat.formula import tseitin_cnf
from bdnsat.formula import Var, Not, And, Or, Iff
from bdnsat.solver import SAT, UNSAT, SolverConfig, solve

CORPUS_SEED = 2013
CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    return support.corpus(CORPUS_SEED, CORPUS_SIZE, max_atoms=7, max_rules=10)


def report(criterion: int, ok: bool, detail: str):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_example_fidelity():
    start = time.monotonic()
    p1 = support.p1()
    m = p1.atom_set(["b", "c", "g"])
    x = p1.atom_set(["b", "c", "h"])

    answer_both = naive_is_answer_set(p1, m) and bool(is_answer_set(p1, m, x))

    expected_reducts = {
        (0, 0, 0): "i :- g. a. g :- not i.",
        (0, 0, 1): "a. g :- not i.",
        (0, 1, 0): "a. g :- not i.",
        (0, 1, 1): "a. g :- not i.",
        (1, 0, 0): "a. i :- g. g :- not i.",
        (1, 0, 1): "a. g :- not i.",
        (1, 1, 0): "g :- not i.",
        (1, 1, 1): "g :- not i.",
    }
    reducts_match = True
    for bits, listing in expected_reducts.items():
        trues = [n for n, bit in zip(["b", "c", "h"], bits) if bit]
        tau = TruthAssignment(x, p1.atom_set(trues))
        from bdnsat import parse_program
        if not support.same_rules(assignment_reduct(p1, tau),
                                  parse_program(listing)):
            reducts_match = False

    fired_empty = mincheck(p1, m, x, AtomSet(0))
    fired_c = mincheck(p1, m, x, p1.atom_set(["c"]))
    fired_bc = mincheck(p1, m, x, p1.atom_set(["b", "c"]))
    conditions_match = ("a" in fired_empty and "c" in fired_c
                        and "c" in fired_bc)

    elapsed = time.monotonic() - start
    ok = answer_both and reducts_match and conditions_match and elapsed < 1.0
    report(1, ok,
           f"answer-set checks={answer_both}, reducts={reducts_match}, "
           f"conditions={conditions_match}, {elapsed:.2f}s")


def test_criterion_2_answer_set_check_equivalence(corpus):
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for program in corpus:
        x = find_backdoor(program).atoms
        for mask in support.subsets_of(program.atoms.mask):
            m = AtomSet(mask)
            checked += 1
            if bool(is_answer_set(program, m, x)) != \
                    naive_is_answer_set(program, m):
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 300
    report(2, ok, f"{len(corpus)} programs, {checked} candidate sets, "
                  f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_3_reduction_end_to_end(corpus):
    start = time.monotonic()
    mismatches = 0
    queries = 0
    for program in corpus:
        x = find_backdoor(program).atoms
        brave = brave_atoms(program)
        skeptical = skeptical_atoms(program)
        for atom_id in program.atoms:
            name = program.table.name_of(atom_id)
            queries += 2
            f, vt = build_query(program, x, QuerySpec("brave", name))
            cnf = tseitin_cnf(f, vt.n_reserved)
            if (solve(cnf, SolverConfig()).status == SAT) != (atom_id in brave):
                mismatches += 1
            f, vt = build_query(program, x, QuerySpec("skeptical", name))
            cnf = tseitin_cnf(f, vt.n_reserved)
            if (solve(cnf, SolverConfig()).status == UNSAT) != \
                    (atom_id in skeptical):
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 600
    report(3, ok, f"{queries} queries over {len(corpus)} programs, "
                  f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_strong_equals_deletion(corpus):
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for program in corpus:
        ids = list(program.atoms)
        for size in range(min(4, len(ids)) + 1):
            for combo in combinations(ids, size):
                x = AtomSet.of(combo)
                strong = all(assignment_reduct(program, tau).normal
                             for tau in assignments_over(x))
                deletion = delete_atoms(program, x).normal
                checked += 1
                if strong != deletion:
                    mismatches += 1
    elapsed = time.monotonic() - start
    report(4, mismatches == 0,
           f"{checked} backdoor candidates, {mismatches} mismatches, "
           f"{elapsed:.1f}s")


def test_criterion_5_detection_optimality(corpus):
    start = time.monotonic()
    mismatches = 0
    p1 = support.p1()
    if find_backdoor(p1).k != 3:
        mismatches += 1
    graphs = 0
    for program in corpus:
        graph = head_dependency_graph(program)
        graphs += 1
        if find_backdoor(program).k != \
                support.exhaustive_min_vertex_cover(graph):
            mismatches += 1
    rng = random.Random(77)
    for _ in range(120):
        program = support.random_program(rng, max_atoms=14, max_rules=14)
        graph = head_dependency_graph(program)
        if len(program.atoms) > 14:
            continue
        graphs += 1
        if find_backdoor(program).k != \
                support.exhaustive_min_vertex_cover(graph):
            mismatches += 1
    elapsed = time.monotonic() - start
    report(5, mismatches == 0,
           f"P1 minimum 3 plus {graphs} graphs up to 14 vertices, "
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_6_scaling_shape():
    start = time.monotonic()
    ks = list(range(1, 9))
    nodes = []
    clauses = []
    for k in ks:
        program = support.padded_backdoor_program(k)
        backdoor = find_backdoor(program)
        assert backdoor.k == k
        f, vt = build_query(program, backdoor.atoms, QuerySpec("brave", "s"))
        nodes.append(node_count(f))
        clauses.append(len(tseitin_cnf(f, vt.n_reserved).clauses))
    blocks = [float(1 << k) for k in ks]
    linear_ok = True
    worst = 0.0
    for ys in (nodes, clauses):
        slope, intercept = support.fit_line_relative(blocks, [float(y) for y in ys])
        for xv, yv in zip(blocks, ys):
            rel = abs(yv - (slope * xv + intercept)) / yv
            worst = max(worst, rel)
            if rel > 0.15:
                linear_ok = False

    sizes = [50, 100, 200, 400]
    ratios = []
    for n in sizes:
        program = support.chain_program(n)
        backdoor = find_backdoor(program)
        assert backdoor.k == 0
        f, vt = build_query(program, backdoor.atoms, QuerySpec("brave", "x1"))
        assert vt.n_blocks == 1
        ratios.append(node_count(f) / n ** 2)
    constant = ratios[0]
    quadratic_ok = all(r <= constant * 1.15 for r in ratios)

    elapsed = time.monotonic() - start
    ok = linear_ok and quadratic_ok
    report(6, ok,
           f"worst linear-fit deviation {worst * 100:.1f}% over k=1..8; "
           f"node/n^2 ratios {[f'{r:.2f}' for r in ratios]} for n=50..400, "
           f"{elapsed:.1f}s")


def test_criterion_7_tseitin_equisatisfiability():
    start = time.monotonic()
    rng = random.Random(4242)

    def random_formula(depth, n_vars):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.08:
                return rng.random() < 0.5
            return Var(rng.randint(1, n_vars))
        kind = rng.choice(["and", "or", "not", "imp", "iff"])
        if kind == "not":
            return Not(random_formula(depth - 1, n_vars))
        if kind == "imp":
            return Or((Not(random_formula(depth - 1, n_vars)),
                       random_formula(depth - 1, n_vars)))
        if kind == "iff":
            return Iff(random_formula(depth - 1, n_vars),
                       random_formula(depth - 1, n_vars))
        children = tuple(random_formula(depth - 1, n_vars)
                         for _ in range(rng.randint(1, 4)))
        return And(children) if kind == "and" else Or(children)

    mismatches = 0
    for _ in range(1000):
        n_vars = rng.randint(1, 12)
        formula = random_formula(rng.randint(1, 5), n_vars)
        truth_table_sat = any(
            evaluate(formula, dict(enumerate(bits, start=1)))
            for bits in product([False, True], repeat=n_vars))
        cnf = tseitin_cnf(formula, n_vars)
        cnf_sat = solve(cnf, SolverConfig()).status == SAT
        if truth_table_sat != cnf_sat:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 120
    report(7, ok, f"1000 formulas, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_8_containment_property(corpus):
    start = time.monotonic()
    violations = 0
    for program in corpus:
        x = find_backdoor(program).atoms
        covered = set()
        for tau in assignments_over(x & program.atoms):
            reduct = assignment_reduct(program, tau)
            for m in enumerate_answer_sets(reduct):
                covered.add(m | tau.true_atoms)
        if not enumerate_answer_sets(program) <= covered:
            violations += 1
    elapsed = time.monotonic() - start
    report(8, violations == 0,
           f"{len(corpus)} programs with verified backdoors, "
           f"{violations} containment violations, {elapsed:.1f}s")
