import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import support
from bdnsat import (AtomSet, brave_atoms, find_backdoor, gl_reduct,
                    least_model, mincheck, parse_program, skeptical_atoms)
from bdnsat import encoding
from bdnsat.encoding import (QuerySpec, VarTable, build_f_lm_block,
                             build_f_min_block, build_f_mod, build_query,
                             decode_model, write_var_map)
from bdnsat.formula import (And, evaluate, node_count, tseitin_cnf,
                            variables)
from bdnsat.mincheck import backdoor_subsets, restrict_program
from bdnsat.solver import SAT, UNSAT, SolverConfig, solve
import io


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
        seen = set()
        for a in range(vt.n_atoms):
            seen.add(vt.v(a).id)
        max_v = max(seen)
        for block in range(1, vt.n_blocks + 1):
            for layer in range(vt.p + 1):
                for a in range(vt.n_atoms):
                    var = vt.u(block, layer, a).id
                    assert var > max_v
                    assert var not in seen
                    seen.add(var)
        assert vt.first_aux == max(seen) + 1
        assert len(seen) == vt.n_reserved

    def test_range_checks(self, p1):
        vt = VarTable(p1, AtomSet(0))
        with pytest.raises(ValueError):
            vt.u(2, 0, 0)
        with pytest.raises(ValueError):
            vt.u(1, vt.p + 1, 0)


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
        restricted = restrict_program(p, AtomSet(0), AtomSet(0))
        f_lm = build_f_lm_block(restricted, vt.layers(1), vt)
        for v_bits in product([False, True], repeat=2):
            assignment = {vt.v(a).id: v_bits[a] for a in range(2)}
            for layer in range(vt.p + 1):
                for a in range(2):
                    assignment[vt.u(1, layer, a).id] = False
            assert evaluate(f_lm, assignment)
            one_true = dict(assignment)
            one_true[vt.u(1, vt.p, 0).id] = True
            assert not evaluate(f_lm, one_true)

    def test_p1_block_one_derives_a_and_g(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        m = p1.atom_set(["b", "c", "g"])
        assignment = support.block_assignment(p1, x, AtomSet(0), 1, vt, m)
        f_lm = build_f_lm_block(restrict_program(p1, x, AtomSet(0)),
                                vt.layers(1), vt)
        assert evaluate(f_lm, assignment)
        expected = p1.atom_set(["a", "g"])
        for a in range(vt.n_atoms):
            assert assignment[vt.u(1, vt.p, a).id] == (a in expected)

    def test_flipping_any_u_bit_breaks_the_chain(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        m = p1.atom_set(["b", "c", "g"])
        assignment = support.block_assignment(p1, x, AtomSet(0), 1, vt, m)
        f_lm = build_f_lm_block(restrict_program(p1, x, AtomSet(0)),
                                vt.layers(1), vt)
        for var in sorted(variables(f_lm) - {vt.v(a).id for a in range(7)}):
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
                assignment = support.block_assignment(p, x, xi, i, vt, m)
                f_lm = build_f_lm_block(restrict_program(p, x, xi),
                                        vt.layers(i), vt)
                assert evaluate(f_lm, assignment)
                reduct = gl_reduct(p, m)
                expected = least_model(restrict_program(reduct, x, xi))
                got = AtomSet.of(a for a in range(vt.n_atoms)
                                 if assignment[vt.u(i, vt.p, a).id])
                assert got == expected

    def test_functional_determination(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        f_lm = build_f_lm_block(restrict_program(p1, x, AtomSet(0)),
                                vt.layers(1), vt)
        m = p1.atom_set(["b", "c", "g"])
        units = [(vt.v(a).id if a in m else -vt.v(a).id,)
                 for a in range(vt.n_atoms)]
        cnf = tseitin_cnf(f_lm, vt.n_reserved)
        cnf.clauses.extend(units)
        first = solve(cnf, SolverConfig())
        assert first.status == SAT
        u_vars = sorted(variables(f_lm) - {vt.v(a).id for a in range(7)})
        blocking = tuple(-v if first.assignment[v] else v for v in u_vars)
        cnf.clauses.append(blocking)
        assert solve(cnf, SolverConfig()).status == UNSAT


class TestFMinBlock:
    def test_subset_premise_failure_satisfies_block(self, p1):
        # F_lm stays asserted when the premise fails: the block holds under
        # the simulated u values, and no longer once any layer-p bit differs.
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        xi = p1.atom_set(["h"])  # block 5 in counter order
        block = build_f_min_block(p1, x, xi, 5, vt)
        m = p1.atom_set(["b", "c", "g"])  # h false
        assert p1.table.id_of("h") not in m
        assignment = support.block_assignment(p1, x, xi, 5, vt, m)
        assert evaluate(block, assignment)
        for a in range(vt.n_atoms):
            flipped = dict(assignment)
            var = vt.u(5, vt.p, a).id
            flipped[var] = not assignment[var]
            assert not evaluate(block, flipped)

    def test_known_model_fires_constraint_disjunct(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        vt = VarTable(p1, x)
        m = p1.atom_set(["b", "c", "g"])
        assignment = support.block_assignment(p1, x, AtomSet(0), 1, vt, m)
        block = build_f_min_block(p1, x, AtomSet(0), 1, vt)
        assert evaluate(block, assignment)
        outcome = mincheck(p1, m, x, AtomSet(0))
        assert "a" in outcome

    def test_block_truth_equals_mincheck(self):
        rng = random.Random(41)
        from bdnsat import is_model
        for _ in range(25):
            p = support.random_program(rng, max_atoms=5, max_rules=7)
            x = find_backdoor(p).atoms
            vt = VarTable(p, x)
            subsets = backdoor_subsets(p, x)
            for mask in support.subsets_of(p.atoms.mask):
                m = AtomSet(mask)
                reduct = gl_reduct(p, m)
                if not is_model(m, reduct):
                    continue
                for i, xi in enumerate(subsets, start=1):
                    assignment = support.block_assignment(p, x, xi, i, vt, m)
                    block = build_f_min_block(p, x, xi, i, vt)
                    assert evaluate(block, assignment) == \
                        bool(mincheck(p, m, x, xi))


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

    def test_restricts_once_per_block(self, p1, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return restrict_program(*args)
        monkeypatch.setattr(encoding, "restrict_program", spy)
        x = p1.atom_set(["b", "c", "h"])
        _, vt = build_query(p1, x, QuerySpec("brave", "b"))
        assert len(calls) == vt.n_blocks

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
        assert node_count(formula) == 1888
        assert (cnf.n_vars, len(cnf.clauses)) == (573, 1326)

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
        assert lines[7] == "u 8 1 0 a"
        kinds = [line.split()[0] for line in lines]
        assert kinds == sorted(kinds, key=lambda k: {"v": 0, "u": 1, "t": 2}[k])
        assert len(lines) == cnf.n_vars
