import random

import pytest
from hypothesis import given, settings, strategies as st

import support
from bdnsat import (AtomSet, ParseError, gl_reduct, is_model, least_model,
                    parse_program, positive_sccs, satisfies)
from bdnsat.program import AtomTable, Program, Rule
from support import enumerate_answer_sets, pretty


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

    @pytest.mark.parametrize("text, message, line, column", [
        ("a.\r\nb $.", "unexpected character '$'", 2, 3),
        ("a.\rb $.", "unexpected character '$'", 1, 6),  # a lone CR is a blank
        ("A.", "unexpected character 'A'", 1, 1),
        ("a :- b :", "unexpected character ':'", 1, 8),
        ("a.\n\tb :- c d.", "expected 'dot', found 'd'", 2, 9),
        ("a :- b not c.", "expected 'dot', found 'not'", 1, 8),
        ("a :- b", "expected 'dot', found ''", 1, 7),
        ("a :- b % note", "expected 'dot', found ''", 1, 14),
        ("a :- b\r\n% c", "expected 'dot', found ''", 2, 4),
        ("a.\nb :- ,c.\n", "expected 'ident', found ','", 2, 6),
        ("a | .", "expected 'ident', found '.'", 1, 5),
        ("a.\r\nb :- not .", "expected 'ident', found '.'", 2, 10),
        ("a :- not", "expected 'ident', found ''", 1, 9),
        ("a.\n| b.", "expected rule, found '|'", 2, 1),
        ("a.\n\t.", "expected rule, found '.'", 2, 2),
        ("not :- a.", "'not' is reserved and cannot name an atom", 1, 1),
        ("a | not.", "'not' is reserved and cannot name an atom", 1, 5),
        ("a :- not not b.", "'not' is reserved and cannot name an atom", 1, 10),
        # the first error in reading order: the reserved word, not the '$'
        ("a :- not not$.", "'not' is reserved and cannot name an atom", 1, 10),
        ("a.\n  :- .", "rule with empty head and empty body", 2, 3),
        (":-\n.", "rule with empty head and empty body", 1, 1),
    ])
    def test_error_message_and_position(self, text, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == f"{line}:{column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)

    def test_well_formed_sources(self):
        tautologies = duplicates = 0
        for seed in range(2000):
            source, expected = support.well_formed_source(random.Random(seed))
            parsed = parse_program(source)
            assert parsed.table.names == expected.table.names, source
            assert parsed.rules == expected.rules, source
            assert parsed.tautologies_removed == expected.tautologies_removed
            assert parsed.duplicates_removed == expected.duplicates_removed
            tautologies += expected.tautologies_removed
            duplicates += expected.duplicates_removed
        assert tautologies and duplicates

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
        disjunctive = parse_program("a | b :- c, not d.")
        assert not disjunctive.normal and not disjunctive.horn
        assert parse_program("e.").horn

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

    def test_self_loop_is_not_tight(self):
        table = AtomTable(["a"])
        a = table.set_of(["a"])
        assert not Program(table, [Rule(a, a, AtomSet(0))]).tight

    @pytest.mark.parametrize("ring", [False, True])
    def test_long_chain_and_ring(self, ring):
        # 5,000 atoms: deeper than the default recursion limit
        n = 5000
        source = "".join(f"x{i} :- x{i - 1}.\n" for i in range(1, n))
        p = parse_program(source + (f"x0 :- x{n - 1}.\n" if ring else "x0.\n"))
        assert len(p.atoms) == n
        assert p.tight is not ring
        assert len(positive_sccs(p)) == (1 if ring else n)


class TestPositiveSccs:
    @pytest.fixture(scope="class")
    def corpus(self):
        # the acceptance criteria's corpus
        return support.corpus(2013, 500, max_atoms=7, max_rules=10)

    def test_partition_matches_mutual_reachability(self, corpus):
        for p in corpus:
            sccs = positive_sccs(p)
            assert sum(len(c) for c in sccs) == len(p.atoms)
            assert AtomSet.of(a for c in sccs for a in c) == p.atoms
            component = {a: c for c in sccs for a in c}
            reach = support.positive_reach(p)
            for a in p.atoms:
                for b in p.atoms:
                    assert (component[a] == component[b]) == \
                        (a == b or (b in reach[a] and a in reach[b]))

    def test_sinks_first_and_deterministic(self, p1):
        sccs = positive_sccs(p1)
        assert sccs == positive_sccs(p1)
        order = {a: i for i, c in enumerate(sccs) for a in c}
        for r in p1.rules:
            for h in r.head:
                assert all(order[b] <= order[h] for b in r.pos_body)


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
    """parse_program drops tautological rules as it reads them."""

    def test_p1_unchanged(self, p1):
        assert p1.tautologies_removed == 0
        assert len(p1.rules) == support.P1_SOURCE.count("\n")

    def test_self_supporting_rule_removed(self):
        p = parse_program("b.\nb :- b.\n")
        assert p.rules == parse_program("b.").rules
        assert p.tautologies_removed == 1

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 100_000))
    def test_preserves_answer_sets(self, seed):
        rng = random.Random(seed)
        source = support.random_program_source(rng, max_atoms=6, max_rules=6)
        source += support.tautologies_source(rng, max_atoms=6, max_rules=3)
        kept = support.program_keeping_tautologies(source)
        assert any(r.is_tautological for r in kept.rules)
        parsed = parse_program(source)

        def by_name(p):
            return {frozenset(p.atom_names(m)) for m in enumerate_answer_sets(p)}
        assert by_name(kept) == by_name(parsed)


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
