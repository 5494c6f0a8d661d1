import random

import pytest
from hypothesis import given, settings, strategies as st

import support
from bdnsat import (AtomSet, find_backdoor, gl_reduct, is_answer_set,
                    parse_program, restrict_program)
from bdnsat.mincheck import _subprocedure, backdoor_subsets
from support import mincheck, naive_is_answer_set


@pytest.fixture
def p1_setup(p1):
    return p1, p1.atom_set(["b", "c", "g"]), p1.atom_set(["b", "c", "h"])


class TestRestrictProgram:
    def test_reduct_restricted_under_empty_subset(self, p1_setup):
        p1, m, x = p1_setup
        reduct = gl_reduct(p1, m)
        restricted = restrict_program(reduct, x, AtomSet(0))
        # the fact c. leaves a fully empty rule, just as it does under
        # X1={b} below
        assert support.rule_names(restricted) == [
            (frozenset({"a"}), frozenset({"b"}), frozenset()),
            (frozenset(), frozenset({"a"}), frozenset()),
            (frozenset(), frozenset({"e"}), frozenset()),
            (frozenset({"a"}), frozenset(), frozenset()),
            (frozenset({"g"}), frozenset(), frozenset()),
            (frozenset(), frozenset(), frozenset()),
        ]

    def test_reduct_restricted_under_b(self, p1_setup):
        p1, m, x = p1_setup
        reduct = gl_reduct(p1, m)
        restricted = restrict_program(reduct, x, p1.atom_set(["b"]))
        triples = support.rule_names(restricted)
        assert triples == [
            (frozenset({"a"}), frozenset(), frozenset()),
            (frozenset(), frozenset({"a"}), frozenset()),
            (frozenset({"g"}), frozenset(), frozenset()),
            (frozenset(), frozenset(), frozenset()),
        ]

    def test_reduct_restricted_under_bc(self, p1_setup):
        p1, m, x = p1_setup
        reduct = gl_reduct(p1, m)
        restricted = restrict_program(reduct, x, p1.atom_set(["b", "c"]))
        assert support.rule_names(restricted) == [
            (frozenset({"g"}), frozenset(), frozenset())]

    def test_identity_when_unconstrained(self, p1):
        assert restrict_program(p1, AtomSet(0), AtomSet(0)) == p1

    def test_rejects_x1_outside_x(self, p1):
        with pytest.raises(ValueError):
            restrict_program(p1, p1.atom_set(["b"]), p1.atom_set(["c"]))

    def test_heads_leave_x(self, p1_setup):
        p1, m, x = p1_setup
        for x1 in backdoor_subsets(p1, x):
            base = restrict_program(p1, x, x1)
            assert all(r.head.isdisjoint(x) for r in base.rules)

    def test_commutes_with_gl_reduct(self):
        rng = random.Random(3)
        for _ in range(200):
            p = support.random_program(rng)
            x = find_backdoor(p).atoms
            m = AtomSet(rng.getrandbits(len(p.table)) & p.atoms.mask)
            for x1 in backdoor_subsets(p, x):
                a = restrict_program(gl_reduct(p, m), x, x1)
                b = gl_reduct(restrict_program(p, x, x1), m)
                assert a == b


class TestMinCheck:
    def test_empty_subset_fires_constraint_condition(self, p1_setup):
        p1, m, x = p1_setup
        outcome = mincheck(p1, m, x, AtomSet(0))
        assert outcome
        assert "a" in outcome

    def test_subset_c_fires_proper_subset_condition(self, p1_setup):
        p1, m, x = p1_setup
        outcome = mincheck(p1, m, x, p1.atom_set(["c"]))
        assert outcome
        assert "c" in outcome

    def test_subset_bc_fires_proper_subset_condition(self, p1_setup):
        p1, m, x = p1_setup
        outcome = mincheck(p1, m, x, p1.atom_set(["b", "c"]))
        assert outcome
        assert outcome == ("c",)

    def test_subset_h_fires_step_one(self, p1_setup):
        p1, m, x = p1_setup
        outcome = mincheck(p1, m, x, p1.atom_set(["h"]))
        assert outcome
        assert outcome == ("1",)

    def test_false_for_nonminimal_model(self, p1):
        # N = {a,b,c,g} is a model of its reduct but not a minimal one
        n = p1.atom_set(["a", "b", "c", "g"])
        x = p1.atom_set(["b", "c", "h"])
        outcome = mincheck(p1, n, x, p1.atom_set(["c"]))
        assert not outcome
        assert outcome == ()

    def test_rejects_non_model(self, p1):
        with pytest.raises(ValueError):
            mincheck(p1, AtomSet(0), p1.atom_set(["b", "c", "h"]), AtomSet(0))

    def test_rejects_unverified_backdoor(self, p1_setup):
        p1, m, _ = p1_setup
        with pytest.raises(ValueError):
            mincheck(p1, m, p1.atom_set(["b"]), AtomSet(0))

    def test_constraint_condition_iff_reduct_condition_on_corpus(self):
        # (a) and (d) fire together: the least model is closed under the
        # restricted rules, so L union X1 can only break a reduct rule
        # whose head lies in X minus X1, a constraint of the restricted
        # program.  The encoding leaves (d) out on this ground.
        runs = fired_d = 0
        for p in support.corpus(2013, 500, max_atoms=7, max_rules=10):
            x = find_backdoor(p).atoms
            subsets = backdoor_subsets(p, x)
            for mask in support.subsets_of(p.atoms.mask):
                m = AtomSet(mask)
                reduct = gl_reduct(p, m)
                for x1 in subsets:
                    if not x1.issubset(m):
                        continue
                    outcome = _subprocedure(reduct, m, x, x1)
                    assert ("a" in outcome) == ("d" in outcome)
                    runs += 1
                    fired_d += "d" in outcome
        assert runs > 0 and fired_d > 0

    def test_diagnostics_reproducible(self, p1_setup):
        p1, m, x = p1_setup
        for x1 in backdoor_subsets(p1, x):
            assert mincheck(p1, m, x, x1) == mincheck(p1, m, x, x1)


class TestIsAnswerSet:
    def test_p1_known_answer_set(self, p1_setup):
        p1, m, x = p1_setup
        result = is_answer_set(p1, m, x)
        assert result.is_answer_set
        assert result.model_of_reduct
        assert len(result.outcomes) == 8

    def test_full_atom_set_is_not_an_answer_set(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        result = is_answer_set(p1, p1.atoms, x)
        assert not result.is_answer_set
        assert naive_is_answer_set(p1, p1.atoms) is False

    def test_agreement_on_every_subset_of_p1(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        for mask in support.subsets_of(p1.atoms.mask):
            m = AtomSet(mask)
            assert bool(is_answer_set(p1, m, x)) == \
                naive_is_answer_set(p1, m)

    def test_subsets_match_assignments_on_corpus(self):
        # the acceptance criteria's corpus, each with its detected backdoor
        for p in support.corpus(2013, 500, max_atoms=7, max_rules=10):
            x = find_backdoor(p).atoms
            for y in (x, p.atoms, AtomSet(x.mask | 1 << len(p.table))):
                expected = [t.true_atoms
                            for t in support.assignments_over(y & p.atoms)]
                assert list(backdoor_subsets(p, y)) == expected

    def test_subset_enumeration_order(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        subsets = backdoor_subsets(p1, x)
        assert len(subsets) == 8
        assert subsets[0] == AtomSet(0)
        # ascending ids: c < b < h; counter bit 0 toggles c
        assert subsets[1] == p1.atom_set(["c"])
        assert subsets[2] == p1.atom_set(["b"])
        assert subsets[7] == p1.atom_set(["b", "c", "h"])

    def test_first_failure_is_smallest_index(self, p1):
        n = p1.atom_set(["a", "b", "c", "g"])
        x = p1.atom_set(["b", "c", "h"])
        result = is_answer_set(p1, n, x)
        assert not result.is_answer_set
        idx = result.first_failure
        assert all(result.outcomes[:idx])
        assert not result.outcomes[idx]

    def test_backdoor_guard(self, p1):
        p = parse_program("".join(f"a{i}.\n" for i in range(22)))
        with pytest.raises(ValueError):
            is_answer_set(p, AtomSet(0), p.atoms)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000))
    def test_soundness_against_naive_oracle(self, seed):
        rng = random.Random(seed)
        p = support.random_program(rng, max_atoms=8)
        x = find_backdoor(p).atoms
        for _ in range(12):
            m = AtomSet(rng.getrandbits(len(p.table)) & p.atoms.mask)
            assert bool(is_answer_set(p, m, x)) == \
                naive_is_answer_set(p, m)

    def test_subset_count_scales_with_backdoor(self):
        for k in range(5):
            source = "".join(f"a{i} | b{i}.\n" for i in range(k)) or "a0.\n"
            p = parse_program(source)
            x = find_backdoor(p).atoms
            assert len(x) == (k if k else 0)
            m = p.atom_set([f"a{i}" for i in range(k)] if k else ["a0"])
            result = is_answer_set(p, m, x)
            assert len(result.outcomes) == 2 ** len(x)
            assert result.is_answer_set
