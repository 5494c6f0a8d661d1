import random

import pytest
from hypothesis import given, settings, strategies as st

import support
from bdnsat import (AtomSet, ParseError, enumerate_answer_sets, gl_reduct,
                    is_model, least_model, parse_program, pretty,
                    remove_tautologies, satisfies)
from bdnsat.program import Program, Rule


def names(program, atom_set):
    return sorted(program.atom_names(atom_set))


class TestAtomSet:
    def test_ascending_iteration_and_ops(self):
        s = AtomSet.of([5, 1, 3])
        assert list(s) == [1, 3, 5]
        assert len(s) == 3
        assert 3 in s and 2 not in s
        assert list(s | AtomSet.of([2])) == [1, 2, 3, 5]
        assert list(s - AtomSet.of([3])) == [1, 5]
        assert (s & AtomSet.of([1, 2])) == AtomSet.of([1])
        assert AtomSet.of([1, 3]).issubset(s)
        assert not s.issubset(AtomSet.of([1, 3]))

    def test_immutable_and_hashable(self):
        s = AtomSet.of([1])
        with pytest.raises(AttributeError):
            s.mask = 7
        assert len({s, AtomSet.of([1])}) == 1


class TestParse:
    def test_single_rule(self):
        p = parse_program("a | c :- b.")
        assert len(p.rules) == 1
        r = p.rules[0]
        assert names(p, r.head) == ["a", "c"]
        assert names(p, r.pos_body) == ["b"]
        assert names(p, r.neg_body) == []

    def test_p1_shape(self, p1):
        assert len(p1.rules) == 8
        assert len(p1.atoms) == 7
        assert not p1.normal
        assert p1.tautologies_removed == 0

    def test_tautology_dropped_at_ingestion(self):
        p = parse_program("a :- a, not b.")
        assert len(p.rules) == 0
        assert len(p.atoms) == 0
        assert p.tautologies_removed == 1

    def test_first_appearance_ids(self, p1):
        assert p1.table.names == ("a", "c", "b", "g", "e", "h", "i")

    def test_comments_and_whitespace(self):
        p = parse_program("% intro\n a.  % fact\n\nb :- a.\n")
        assert len(p.rules) == 2

    def test_duplicate_head_atoms_deduplicated(self):
        p = parse_program("a | a :- b.")
        assert names(p, p.rules[0].head) == ["a"]
        assert p.duplicates_removed == 1

    def test_constraint(self):
        p = parse_program(":- a, not b.")
        r = p.rules[0]
        assert r.is_constraint
        assert names(p, r.pos_body) == ["a"]
        assert names(p, r.neg_body) == ["b"]

    @pytest.mark.parametrize("text", [":- .", "a | :- b.", "a :- b", "A.",
                                      "a..", "| a.", "a :- not."])
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_program(text)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("a.\nb :- ,c.\n")
        assert err.value.line == 2
        assert err.value.column == 6

    def test_not_is_reserved(self):
        with pytest.raises(ParseError):
            parse_program("not :- a.")

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="abcXY_019|,.:-% \n\t", max_size=60))
    def test_parser_never_crashes(self, text):
        try:
            parse_program(text)
        except ParseError:
            pass

    def test_roundtrip_p1(self, p1):
        assert support.same_rules(p1, parse_program(pretty(p1)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrip_random(self, seed):
        p = support.random_program(random.Random(seed))
        again = parse_program(pretty(p))
        assert support.same_rules(p, again)
        assert parse_program(pretty(again)) == again


class TestRuleClasses:
    def test_flags(self):
        p = parse_program("a | b :- c, not d. e.")
        assert not p.rules[0].is_normal
        assert p.rules[1].is_horn
        assert not p.rules[0].is_horn

    def test_empty_program_flags(self):
        p = parse_program("")
        assert p.normal and p.horn and p.negation_free and p.tight

    def test_p1_flags(self, p1):
        assert not p1.normal
        assert not p1.horn
        assert not p1.negation_free

    def test_p1_not_tight_matches_exhaustive_cycle_search(self, p1):
        assert support.positive_cycle_exists(p1)
        assert p1.tight is False

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_tight_matches_exhaustive_cycle_search(self, seed):
        p = support.random_program(random.Random(seed))
        assert p.tight == (not support.positive_cycle_exists(p))


class TestSatisfies:
    def test_p1_model(self, p1):
        assert is_model(p1.atom_set(["b", "c", "g"]), p1)

    def test_fact_unsatisfied_by_empty(self):
        p = parse_program("a.")
        assert not satisfies(AtomSet(0), p.rules[0])
        assert not is_model(AtomSet(0), p)

    def test_constraint_satisfied_by_empty(self):
        p = parse_program(":- a.")
        assert satisfies(AtomSet(0), p.rules[0])
        assert is_model(AtomSet(0), p)


class TestGlReduct:
    def test_p1_example(self, p1):
        reduct = gl_reduct(p1, p1.atom_set(["b", "c", "g"]))
        expected = parse_program("a | c :- b. c :- a. b | c :- e. a | b. g. c.")
        assert support.same_rules(reduct, expected)

    def test_negation_free_fixed_point(self):
        p = parse_program("a | b :- c. c.")
        assert gl_reduct(p, p.atom_set(["a", "c"])) == p

    def test_blocked_rule_dropped(self):
        p = parse_program("g :- not i.")
        assert len(gl_reduct(p, p.atom_set(["i"])).rules) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reduct_negation_free(self, seed):
        rng = random.Random(seed)
        p = support.random_program(rng)
        m = AtomSet(rng.getrandbits(len(p.table)))
        assert gl_reduct(p, m).negation_free


class TestRemoveTautologies:
    def test_p1_unchanged(self, p1):
        assert remove_tautologies(p1) == p1

    def test_self_supporting_rule_removed(self):
        p = parse_program("b.")
        table = p.table
        rule = Rule(table.set_of(["b"]), table.set_of(["b"]), AtomSet(0))
        doubled = Program(table, list(p.rules) + [rule])
        cleaned = remove_tautologies(doubled)
        assert [r for r in cleaned.rules] == list(p.rules)
        assert cleaned.tautologies_removed == 1

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 100_000))
    def test_preserves_answer_sets(self, seed):
        rng = random.Random(seed)
        source = support.random_program_source(rng, max_atoms=6, max_rules=6)
        p = parse_program(source)
        assert enumerate_answer_sets(remove_tautologies(p)) == enumerate_answer_sets(p)


class TestLeastModel:
    def test_chain(self):
        p = parse_program("a. b :- a.")
        assert names(p, least_model(p)) == ["a", "b"]

    def test_constraints_ignored(self):
        p = parse_program("a :- b. :- a. :- e. a. g.")
        assert names(p, least_model(p)) == ["a", "g"]

    def test_rejects_non_horn(self, p1):
        with pytest.raises(ValueError):
            least_model(p1)
        with pytest.raises(ValueError):
            least_model(parse_program("a :- not b."))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_operator_iteration(self, seed):
        horn = support.random_horn_program(random.Random(seed), max_atoms=8)
        assert least_model(horn) == support.tp_fixpoint(horn)

    def test_least_model_is_least(self):
        # least model is a model of the definite part and below every model
        rng = random.Random(7)
        for _ in range(200):
            horn = support.random_horn_program(rng, max_atoms=6, max_rules=6)
            lm = least_model(horn)
            definite = [r for r in horn.rules if not r.is_constraint]
            assert all(satisfies(lm, r) for r in definite)
            for mask in support.subsets_of(horn.atoms.mask):
                m = AtomSet(mask)
                if all(satisfies(m, r) for r in definite):
                    assert lm.issubset(m)
