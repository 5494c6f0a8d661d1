import random

import pytest
from hypothesis import given, settings, strategies as st

import support
from bdnsat import (AtomSet, Program, find_backdoor, gl_reduct, is_answer_set,
                    least_model, parse_program)
from bdnsat import encoding
from bdnsat.encoding import (QuerySpec, VarTable, build_f_lm_block,
                             build_f_min_block, build_f_mod, build_program,
                             build_query, decode_model, write_var_map)
from bdnsat.formula import And, Not, Var, tseitin_cnf
from bdnsat.mincheck import backdoor_subsets, restrict_program
from bdnsat.solver import SAT, UNSAT, SolverConfig, solve
import io
from support import (brave_atoms, evaluate, mincheck, node_count, nodes,
                     skeptical_atoms, variables)


def solve_query(program, x, mode, atom):
    formula, vt = build_query(program, x, QuerySpec(mode, atom))
    cnf = tseitin_cnf(formula, vt.n_reserved)
    return solve(cnf, SolverConfig()), vt, cnf


class TestVarTable:
    def test_layout_is_injective_and_ordered(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        assert vt.p == 7  # min(8 rules, 7 atoms)
        assert vt.n_blocks == 8
        assert [vt.v(a).id for a in range(vt.n_atoms)] == list(range(1, 8))
        defined = []
        for i, xi in enumerate(backdoor_subsets(p1, x), start=1):
            before = len(vt.cells)
            f_lm, _ = build_f_lm_block(xi, i, vt)
            assert all(block == i and 1 <= layer <= vt.p
                       for block, layer, _ in vt.cells[before:])
            gates = f_lm.children if isinstance(f_lm, And) else [f_lm]
            defined += [gate.left.id for gate in gates if gate is not True]
        # u ids run from n+1 to n+len(cells) in cells order, each defined once
        assert defined == list(range(vt.n_atoms + 1,
                                     vt.n_atoms + len(vt.cells) + 1))
        assert vt.n_reserved == vt.n_atoms + len(vt.cells)
        assert sorted(vt.names()) == list(range(1, vt.n_reserved + 1))
        assert 0 < len(vt.cells) <= vt.n_blocks * vt.p * vt.n_atoms


class TestFMod:
    def test_fact_is_its_own_variable(self):
        p = parse_program("c.")
        vt = VarTable(p, AtomSet(0))
        assert build_f_mod(p, vt) == vt.v(p.table.id_of("c"))

    def test_constraint_is_negated_variable(self):
        p = parse_program(":- a.")
        vt = VarTable(p, AtomSet(0))
        f = build_f_mod(p, vt)
        a = p.table.id_of("a")
        assert evaluate(f, {vt.v(a).id: False})
        assert not evaluate(f, {vt.v(a).id: True})

    def test_p1_has_one_conjunct_per_rule(self, p1):
        vt = VarTable(p1, AtomSet(0))
        f = build_f_mod(p1, vt)
        assert isinstance(f, And) and len(f.children) == 8

    def test_p1_satisfied_by_known_model(self, p1):
        vt = VarTable(p1, AtomSet(0))
        f = build_f_mod(p1, vt)
        m = p1.atom_set(["b", "c", "g"])
        assignment = {vt.v(a).id: a in m for a in range(vt.n_atoms)}
        assert evaluate(f, assignment)

    @pytest.mark.parametrize("programs", [
        lambda: support.corpus(2013, 500, max_atoms=7, max_rules=10),
        lambda: [support.p1()],
    ], ids=["corpus", "p1"])
    def test_each_rule_is_one_clause(self, programs):
        # B-, the negated B+ and H share one clause, so F_mod needs no label
        for p in programs():
            vt = VarTable(p, AtomSet(0))
            cnf = tseitin_cnf(build_f_mod(p, vt), vt.n_reserved)
            assert len(cnf.clauses) == len(p.rules)
            assert cnf.n_vars == vt.n_reserved

    def test_matches_model_of_reduct_semantics(self):
        rng = random.Random(23)
        from bdnsat import is_model
        for _ in range(50):
            p = support.random_program(rng, max_atoms=5, max_rules=6)
            vt = VarTable(p, AtomSet(0))
            f = build_f_mod(p, vt)
            for mask in support.subsets_of(p.atoms.mask):
                m = AtomSet(mask)
                assignment = {vt.v(a).id: a in m for a in range(vt.n_atoms)}
                assert evaluate(f, assignment) == is_model(m, gl_reduct(p, m))


class TestFLm:
    def test_underivable_atoms_forced_false(self):
        # no rule has a head, so every layer variable must stay false
        p = parse_program(":- a, b.")
        vt = VarTable(p, AtomSet(0))
        f_lm, row = build_f_lm_block(AtomSet(0), 1, vt)
        assert row == [False, False]
        assert f_lm is True
        assert vt.cells == []

    def test_p1_block_one_derives_a_and_g(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        m = p1.atom_set(["b", "c", "g"])
        f_lm, up = build_f_lm_block(AtomSet(0), 1, vt)
        assignment = support.block_assignment(p1, x, AtomSet(0), 1, vt, m)
        assert evaluate(f_lm, assignment)
        expected = p1.atom_set(["a", "g"])
        for a in range(vt.n_atoms):
            assert evaluate(up[a], assignment) == (a in expected)

    def test_flipping_any_u_bit_breaks_the_chain(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        m = p1.atom_set(["b", "c", "g"])
        f_lm, _ = build_f_lm_block(AtomSet(0), 1, vt)
        assignment = support.block_assignment(p1, x, AtomSet(0), 1, vt, m)
        u_vars = sorted(variables(f_lm) - {vt.v(a).id for a in range(7)})
        assert u_vars
        for var in u_vars:
            flipped = dict(assignment)
            flipped[var] = not flipped[var]
            assert not evaluate(f_lm, flipped)

    def test_simulation_matches_least_model(self):
        # single block of a normal program computes the least model of the reduct
        rng = random.Random(31)
        for _ in range(40):
            p = support.random_program(rng, max_atoms=6, max_rules=8)
            x = find_backdoor(p).atoms
            vt = VarTable(p, x)
            subsets = backdoor_subsets(p, x)
            m = AtomSet(rng.getrandbits(len(p.table)) & p.atoms.mask)
            for i, xi in enumerate(subsets, start=1):
                f_lm, up = build_f_lm_block(xi, i, vt)
                assignment = support.block_assignment(p, x, xi, i, vt, m)
                assert evaluate(f_lm, assignment)
                reduct = gl_reduct(p, m)
                expected = least_model(restrict_program(reduct, x, xi))
                got = AtomSet.of(a for a in range(vt.n_atoms)
                                 if evaluate(up[a], assignment))
                assert got == expected

    def test_functional_determination(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        f_lm, _ = build_f_lm_block(AtomSet(0), 1, vt)
        m = p1.atom_set(["b", "c", "g"])
        units = [(vt.v(a).id if a in m else -vt.v(a).id,)
                 for a in range(vt.n_atoms)]
        cnf = tseitin_cnf(f_lm, vt.n_reserved)
        cnf.clauses.extend(units)
        first = solve(cnf, SolverConfig())
        assert first.status == SAT
        u_vars = sorted(variables(f_lm) - {vt.v(a).id for a in range(7)})
        assert u_vars
        blocking = tuple(-v if first.assignment[v] else v for v in u_vars)
        cnf.clauses.append(blocking)
        assert solve(cnf, SolverConfig()).status == UNSAT


def ring_program(entry: str, n: int):
    """A positive ring x1 -> ... -> xn -> x1 entered through `entry`."""
    rules = [entry] + [f"x{i + 1} :- x{i}." for i in range(1, n)]
    return parse_program("\n".join(rules + [f"x1 :- x{n}."]) + "\n")


families = pytest.mark.parametrize("programs", [
    lambda: support.corpus(2013, 500, max_atoms=7, max_rules=10),
    lambda: [ring_program(entry, n) for n in range(3, 12)
             for entry in ("x1 :- not y. y :- not x1.", "x1 | y.")],
    lambda: [support.chain_program(30)],
    lambda: [support.padded_backdoor_program(3)],
], ids=["corpus", "rings", "chain30", "padded3"])


class TestFoldedLayers:
    # With k = 0 the ring is entered through `not y`, so its cells fold to
    # v literals, not to constants, until the ring closes on itself.  With
    # k = 1 each block restricts `x1 | y.` to a fact or drops it.
    @pytest.mark.parametrize("entry, k", [("x1 :- not y. y :- not x1.", 0),
                                          ("x1 | y.", 1)])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_rings_with_v_dependent_entry(self, entry, k, n):
        p = ring_program(entry, n)
        x = find_backdoor(p).atoms
        assert len(x) == k
        brave, skeptical = brave_atoms(p), skeptical_atoms(p)
        for name in p.atom_names(p.atoms):
            a = p.table.id_of(name)
            for mode in ("brave", "skeptical"):
                result, vt, _ = solve_query(p, x, mode, name)
                if mode == "brave":
                    assert (result.status == SAT) == (a in brave)
                else:
                    assert (result.status == UNSAT) == (a in skeptical)
                if result.status == SAT:
                    assert is_answer_set(p, decode_model(result.assignment, vt), x)
        # the last row is the least model of each restricted reduct
        vt = VarTable(p, x)
        for i, xi in enumerate(backdoor_subsets(p, x), start=1):
            f_lm, up = build_f_lm_block(xi, i, vt)
            for mask in support.subsets_of(p.atoms.mask):
                m = AtomSet(mask)
                assignment = support.block_assignment(p, x, xi, i, vt, m)
                assert evaluate(f_lm, assignment)
                expected = least_model(restrict_program(gl_reduct(p, m), x, xi))
                assert AtomSet.of(a for a in range(vt.n_atoms)
                                  if evaluate(up[a], assignment)) == expected

    @pytest.mark.parametrize("program, atom",
                             [(support.chain_program(30), "x30"),
                              (support.padded_backdoor_program(3), "sink")],
                             ids=["chain30", "padded3"])
    def test_negation_free_programs_make_no_u(self, program, atom):
        x = find_backdoor(program).atoms
        vt = VarTable(program, x)
        for i, xi in enumerate(backdoor_subsets(program, x), start=1):
            restricted = restrict_program(program, x, xi)
            f_lm, row = build_f_lm_block(xi, i, vt)
            assert f_lm is True
            assert all(isinstance(cell, bool) for cell in row)
            assert AtomSet.of(a for a, cell in enumerate(row) if cell) == \
                least_model(restricted)
        assert vt.cells == []
        _, vt = build_query(program, x, QuerySpec("brave", atom))
        assert vt.n_reserved == vt.n_atoms

    @families
    def test_change_driven_layers_equal_full_recompute(self, programs):
        for p in programs():
            x = find_backdoor(p).atoms
            vt, ref = VarTable(p, x), VarTable(p, x)
            for i, xi in enumerate(backdoor_subsets(p, x), start=1):
                restricted = restrict_program(p, x, xi)
                assert build_f_lm_block(xi, i, vt) == \
                    support.full_recompute_f_lm_block(restricted, i, ref)
                assert vt.cells == ref.cells

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_chain_layers_do_linear_work(self, monkeypatch, n):
        # a full recompute makes n^2 + 1 conj calls: n layers of n atoms,
        # plus the final conjunction of the gates
        calls = 0
        conj = encoding.conj

        def counted(children):
            nonlocal calls
            calls += 1
            return conj(children)
        monkeypatch.setattr(encoding, "conj", counted)
        p = support.chain_program(n)
        vt = VarTable(p, AtomSet(0))
        f_lm, row = build_f_lm_block(AtomSet(0), 1, vt)
        assert f_lm is True and all(cell is True for cell in row)
        assert calls <= 2 * n + 1


class TestFMinBlock:
    def test_subset_premise_failure_satisfies_block(self, p1):
        # F_lm stays asserted when the premise fails: the block holds under
        # the simulated u values, and no longer once any u bit differs.
        # Block 5 (X_i = {h}) folds to v literals and makes no u variable;
        # block 3 (X_i = {b}) makes one.
        x = p1.atom_set(["b", "c", "h"])
        for xi_names, i, m_names, n_u in [(["h"], 5, ["b", "c", "g"], 0),
                                          (["b"], 3, ["a", "c", "g"], 1)]:
            vt = VarTable(p1, x)
            xi = p1.atom_set(xi_names)
            assert backdoor_subsets(p1, x)[i - 1] == xi  # counter order
            block = build_f_min_block(xi, i, vt)
            m = p1.atom_set(m_names)
            assert not xi.issubset(m)
            assignment = support.block_assignment(p1, x, xi, i, vt, m)
            assert evaluate(block, assignment)
            u_vars = sorted(variables(block) - {vt.v(a).id for a in range(7)})
            assert len(u_vars) == n_u
            for var in u_vars:
                flipped = dict(assignment)
                flipped[var] = not assignment[var]
                assert not evaluate(block, flipped)

    def test_known_model_fires_constraint_disjunct(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        m = p1.atom_set(["b", "c", "g"])
        block = build_f_min_block(AtomSet(0), 1, vt)
        assignment = support.block_assignment(p1, x, AtomSet(0), 1, vt, m)
        assert evaluate(block, assignment)
        outcome = mincheck(p1, m, x, AtomSet(0))
        assert "a" in outcome

    def test_block_truth_equals_mincheck(self):
        # the chain and the `x1 | y.` rings have constant-true cells in L,
        # where the accept condition (c) folds away
        rng = random.Random(41)
        from bdnsat import is_model
        programs = [support.random_program(rng, max_atoms=5, max_rules=7)
                    for _ in range(25)]
        programs += [support.chain_program(6)]
        programs += [ring_program(entry, n) for n in range(3, 7)
                     for entry in ("x1 :- not y. y :- not x1.", "x1 | y.")]
        for p in programs:
            x = find_backdoor(p).atoms
            vt = VarTable(p, x)
            subsets = backdoor_subsets(p, x)
            for mask in support.subsets_of(p.atoms.mask):
                m = AtomSet(mask)
                reduct = gl_reduct(p, m)
                if not is_model(m, reduct):
                    continue
                for i, xi in enumerate(subsets, start=1):
                    block = build_f_min_block(xi, i, vt)
                    assignment = support.block_assignment(p, x, xi, i, vt, m)
                    assert evaluate(block, assignment) == \
                        bool(mincheck(p, m, x, xi))

    @families
    def test_blocks_equal_reference_builder(self, programs):
        # the rule table restricted by masks builds, block for block, the
        # formula and u cells of the builder over restrict_program
        for p in programs():
            x = find_backdoor(p).atoms
            vt, ref = VarTable(p, x), VarTable(p, x)
            for i, xi in enumerate(backdoor_subsets(p, x), start=1):
                assert build_f_min_block(xi, i, vt) == \
                    support.reference_f_min_block(p, x, xi, i, ref)
                assert vt.cells == ref.cells


class TestBuildQuery:
    def test_p1_brave_b_satisfiable(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        result, vt, _ = solve_query(p1, x, "brave", "b")
        assert result.status == SAT
        m = decode_model(result.assignment, vt)
        assert p1.table.id_of("b") in m

    def test_single_fact_program(self):
        p = parse_program("a.")
        x = AtomSet(0)
        assert solve_query(p, x, "brave", "a")[0].status == SAT
        assert solve_query(p, x, "skeptical", "a")[0].status == UNSAT

    def test_block_count_is_two_to_the_k(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        _, vt, _ = solve_query(p1, x, "brave", "b")
        assert vt.n_blocks == 8

    def test_builds_no_restricted_program(self, p1, monkeypatch):
        # every block reads the one rule table of the VarTable
        restricts, programs = [], []
        init = Program.__init__

        def counted_init(self, *args, **kwargs):
            programs.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr("bdnsat.mincheck.restrict_program",
                            lambda *args: restricts.append(args)
                            or restrict_program(*args))
        monkeypatch.setattr(Program, "__init__", counted_init)
        x = p1.atom_set(["b", "c", "h"])
        _, vt = build_query(p1, x, QuerySpec("brave", "b"))
        assert vt.n_blocks == 8
        assert restricts == [] and programs == []

    def test_query_cnf_is_program_cnf_plus_unit(self):
        programs = support.corpus(2013, 500, max_atoms=7, max_rules=10)
        programs += [support.chain_program(30),
                     support.padded_backdoor_program(3)]
        for p in programs:
            x = find_backdoor(p).atoms
            formula, vt = build_program(p, x)
            base = tseitin_cnf(formula, vt.n_reserved)
            for a in p.atoms:
                v = vt.v(a).id
                for mode, lit in (("brave", v), ("skeptical", -v)):
                    query = QuerySpec(mode, p.table.name_of(a))
                    formula, vt = build_query(p, x, query)
                    cnf = tseitin_cnf(formula, vt.n_reserved)
                    assert cnf.n_vars == base.n_vars
                    assert cnf.clauses == base.clauses + [(lit,)]

    @families
    def test_negation_only_wraps_variables(self, programs):
        # a failed subset premise is its negated v literals, not a negated
        # And, so no Tseitin label stands for a gate only to be negated
        for p in programs():
            name = p.atom_names(p.atoms)[0]
            formula, _ = build_query(p, find_backdoor(p).atoms,
                                     QuerySpec("skeptical", name))
            assert all(isinstance(node.child, Var) for node in nodes(formula)
                       if isinstance(node, Not))

    def test_unknown_atom_rejected(self, p1):
        with pytest.raises(ValueError):
            build_query(p1, p1.atom_set(["b", "c", "h"]), QuerySpec("brave", "zz"))

    @pytest.mark.parametrize("mode", ["Brave", "cautious", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="brave or skeptical"):
            QuerySpec(mode, "a")

    def test_p1_encoding_size(self, p1):
        # Pinned: a change to the encoding's size must update these on purpose.
        x = p1.atom_set(["b", "c", "h"])
        formula, vt = build_query(p1, x, QuerySpec("brave", "b"))
        cnf = tseitin_cnf(formula, vt.n_reserved)
        assert node_count(formula) == 179
        assert (cnf.n_vars, len(cnf.clauses)) == (27, 83)

    @pytest.mark.parametrize("n", [1, 2, 30, 200])
    def test_chain_cnf_is_its_rules_plus_the_query(self, n):
        # k = 0 and every atom follows from the fact, so L is constant true,
        # and the one block's accept conditions fold to True: one clause per
        # rule and the query unit remain
        p = support.chain_program(n)
        formula, vt = build_query(p, AtomSet(0), QuerySpec("brave", f"x{n}"))
        cnf = tseitin_cnf(formula, vt.n_reserved)
        assert cnf.n_vars == n
        assert cnf.clauses == ([(1,)] + [(-i, i + 1) for i in range(1, n)]
                               + [(n,)])

    def test_v_fixes_the_whole_cnf_model(self, p1):
        # Every label and u variable is a function of v: a brave model is
        # the only one with its v values.
        rng = random.Random(3)
        programs = [p1] + [parse_program(support.random_program_source(rng))
                           for _ in range(40)]
        sat_queries = 0
        for p in programs:
            x = find_backdoor(p).atoms
            for name in p.atom_names(p.atoms):
                result, vt, cnf = solve_query(p, x, "brave", name)
                if result.status != SAT:
                    continue
                sat_queries += 1
                model = result.assignment
                units = [(v if model[v] else -v,)
                         for v in (vt.v(a).id for a in range(vt.n_atoms))]
                blocking = tuple(-v if model[v] else v
                                 for v in range(1, cnf.n_vars + 1))
                cnf.clauses.extend(units + [blocking])
                assert solve(cnf, SolverConfig()).status == UNSAT
        assert sat_queries == 57

    def test_unverified_backdoor_rejected(self, p1):
        with pytest.raises(ValueError):
            build_query(p1, AtomSet(0), QuerySpec("brave", "b"))

    def test_guard_on_block_count(self):
        source = "".join(f"a{i} | b{i}.\n" for i in range(21))
        p = parse_program(source)
        x = find_backdoor(p).atoms
        assert len(x) == 21
        with pytest.raises(ValueError):
            build_query(p, x, QuerySpec("brave", "a0"))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_oracle_on_random_programs(self, seed):
        rng = random.Random(seed)
        p = support.random_program(rng, max_atoms=5, max_rules=7)
        x = find_backdoor(p).atoms
        brave = brave_atoms(p)
        skeptical = skeptical_atoms(p)
        for name in p.atom_names(p.atoms):
            sat_brave = solve_query(p, x, "brave", name)[0].status == SAT
            unsat_skept = solve_query(p, x, "skeptical", name)[0].status == UNSAT
            assert sat_brave == (p.table.id_of(name) in brave)
            assert unsat_skept == (p.table.id_of(name) in skeptical)

    def test_dimacs_byte_identical_across_builds(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        texts = []
        for _ in range(2):
            formula, vt = build_query(p1, x, QuerySpec("skeptical", "g"))
            texts.append(support.dimacs_text(tseitin_cnf(formula, vt.n_reserved)))
        assert texts[0] == texts[1]

    def test_k_zero_single_block(self):
        p = parse_program("a :- not b. b :- not a.")
        x = AtomSet(0)
        formula, vt = build_query(p, x, QuerySpec("brave", "a"))
        assert vt.n_blocks == 1
        cnf = tseitin_cnf(formula, vt.n_reserved)
        assert solve(cnf, SolverConfig()).status == SAT


class TestDecodeAndMap:
    def test_decode_reads_v_vars(self, p1):
        vt = VarTable(p1, AtomSet(0))
        assignment = {v: False for v in range(1, vt.n_reserved + 1)}
        assignment[vt.v(p1.table.id_of("b")).id] = True
        assignment[vt.v(p1.table.id_of("g")).id] = True
        assert decode_model(assignment, vt) == p1.atom_set(["b", "g"])

    def test_decode_encode_identity_on_arbitrary_assignments(self, p1):
        vt = VarTable(p1, AtomSet(0))
        rng = random.Random(17)
        for _ in range(50):
            mask = rng.getrandbits(vt.n_atoms)
            assignment = {v: False for v in range(1, vt.n_reserved + 1)}
            for a in range(vt.n_atoms):
                assignment[vt.v(a).id] = bool(mask >> a & 1)
            assert decode_model(assignment, vt) == AtomSet(mask)

    def test_decode_requires_total_assignment(self, p1):
        vt = VarTable(p1, AtomSet(0))
        with pytest.raises(ValueError):
            decode_model({}, vt)

    def test_var_map_sidecar(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        formula, vt = build_query(p1, x, QuerySpec("brave", "b"))
        cnf = tseitin_cnf(formula, vt.n_reserved)
        buffer = io.StringIO()
        write_var_map(vt, cnf, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "v 1 a"
        assert lines[7] == "u 8 1 2 i"
        u_layers = [int(line.split()[3]) for line in lines if line[0] == "u"]
        assert len(u_layers) == len(vt.cells)
        assert all(1 <= layer <= vt.p for layer in u_layers)
        kinds = [line.split()[0] for line in lines]
        assert kinds == sorted(kinds, key=lambda k: {"v": 0, "u": 1, "t": 2}[k])
        assert len(lines) == cnf.n_vars
