import random

import pytest
from hypothesis import given, settings, strategies as st

import support
from bdnsat import AtomSet, parse_program
from support import (brave_atoms, enumerate_answer_sets, naive_is_answer_set,
                     skeptical_atoms)


def as_names(program, answer_sets):
    return sorted(sorted(program.atom_names(m)) for m in answer_sets)


class TestEnumerate:
    def test_p1_known_answer_set(self, p1):
        answer_sets = enumerate_answer_sets(p1)
        assert p1.atom_set(["b", "c", "g"]) in answer_sets

    def test_fact_disjunction(self):
        p = parse_program("a | b.")
        assert as_names(p, enumerate_answer_sets(p)) == [["a"], ["b"]]

    def test_odd_loop_has_no_answer_set(self):
        p = parse_program("a :- not a.")
        assert enumerate_answer_sets(p) == set()

    def test_empty_program(self):
        p = parse_program("")
        assert enumerate_answer_sets(p) == {AtomSet(0)}

    def test_size_guard(self):
        names = [f"a{i}" for i in range(21)]
        p = parse_program("".join(f"{n}.\n" for n in names))
        with pytest.raises(ValueError):
            enumerate_answer_sets(p)
        assert len(enumerate_answer_sets(p, force=True)) == 1

    def test_every_returned_set_passes_membership_check(self):
        rng = random.Random(11)
        for _ in range(100):
            p = support.random_program(rng, max_atoms=6)
            for m in enumerate_answer_sets(p):
                assert naive_is_answer_set(p, m)


class TestNaiveIsAnswerSet:
    def test_p1_positive(self, p1):
        assert naive_is_answer_set(p1, p1.atom_set(["b", "c", "g"]))

    def test_p1_empty_set_rejected(self, p1):
        # the fact c. is unsatisfied
        assert not naive_is_answer_set(p1, AtomSet(0))

    def test_atoms_outside_program_rejected(self, p1):
        assert not naive_is_answer_set(p1, AtomSet.of([len(p1.table) + 3]))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000))
    def test_agrees_with_enumeration(self, seed):
        p = support.random_program(random.Random(seed), max_atoms=6)
        answer_sets = enumerate_answer_sets(p)
        for mask in support.subsets_of(p.atoms.mask):
            m = AtomSet(mask)
            assert naive_is_answer_set(p, m) == (m in answer_sets)


class TestBraveSkeptical:
    def test_p1(self, p1):
        assert sorted(p1.atom_names(brave_atoms(p1))) == ["a", "b", "c", "g"]
        assert sorted(p1.atom_names(skeptical_atoms(p1))) == ["c", "g"]

    def test_vacuous_skeptical_when_inconsistent(self):
        p = parse_program("a :- not a.")
        assert skeptical_atoms(p) == p.atoms
        assert brave_atoms(p) == AtomSet(0)
