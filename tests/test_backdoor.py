import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import support
from bdnsat import (AtomSet, find_backdoor, format_backdoor,
                    head_dependency_graph, parse_backdoor, parse_program,
                    vertex_cover_bounded, verify_strong_backdoor)
from bdnsat.program import Program, Rule
from support import (TruthAssignment, assignment_reduct, assignments_over,
                     delete_atoms, enumerate_answer_sets)


def edge_names(program, graph):
    return sorted((program.table.name_of(u), program.table.name_of(v))
                  for u, v in graph)


class TestHeadGraph:
    def test_p1_edges(self, p1):
        graph = head_dependency_graph(p1)
        assert edge_names(p1, graph) == [("a", "b"), ("a", "c"),
                                         ("c", "b"), ("h", "i")]

    def test_matches_pairwise_recheck(self, p1):
        graph = head_dependency_graph(p1)
        expected = set()
        for r in p1.rules:
            for u, v in combinations(sorted(r.head), 2):
                expected.add((u, v))
        assert set(graph) == expected

    def test_normal_program_has_no_edges(self):
        p = parse_program("a :- b. c. :- d.")
        assert head_dependency_graph(p) == ()

    def test_no_self_loops_after_dedup(self):
        p = parse_program("a | a :- b.")
        assert head_dependency_graph(p) == ()


class TestVertexCover:
    def test_p1_cover_sizes(self, p1):
        graph = head_dependency_graph(p1)
        cover = vertex_cover_bounded(graph, 3)
        assert cover is not None and len(cover) == 3
        assert all(u in cover or v in cover for u, v in graph)
        assert vertex_cover_bounded(graph, 2) is None

    def test_edgeless_graph(self):
        graph = ()
        assert vertex_cover_bounded(graph, 0) == AtomSet(0)

    def test_negative_budget(self):
        assert vertex_cover_bounded((), -1) is None

    def test_high_degree_kernelization_forces_hub(self):
        edges = tuple((0, v) for v in range(1, 6))
        graph = edges
        assert vertex_cover_bounded(graph, 1) == AtomSet.of([0])

    def test_deterministic(self, p1):
        graph = head_dependency_graph(p1)
        assert vertex_cover_bounded(graph, 5) == vertex_cover_bounded(graph, 5)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 100_000), st.integers(0, 4))
    def test_agrees_with_exhaustive_search(self, seed, k):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        all_edges = list(combinations(range(n), 2))
        edges = tuple(sorted(rng.sample(all_edges, rng.randint(0, len(all_edges)))))
        graph = edges
        cover = vertex_cover_bounded(graph, k)
        if cover is None:
            assert not support.has_cover_of_size(edges, k)
        else:
            assert len(cover) <= k
            assert all(u in cover or v in cover for u, v in edges)


def heads_program(heads, seed=0):
    """Facts with the given disjunctive heads, in a seeded shuffled order."""
    rng = random.Random(seed)
    heads = [rng.sample(head, len(head)) for head in heads]
    rng.shuffle(heads)
    return parse_program("".join(" | ".join(head) + ".\n" for head in heads))


def pairs(n, tag="m"):
    return [(f"{tag}{i}a", f"{tag}{i}b") for i in range(n)]


def path(n, tag="p"):
    return [(f"{tag}{i}", f"{tag}{i + 1}") for i in range(n - 1)]


def cycle(n, tag="c"):
    return [(f"{tag}{i}", f"{tag}{(i + 1) % n}") for i in range(n)]


def star(leaves, tag="s"):
    return [(f"{tag}hub", f"{tag}{i}") for i in range(leaves)]


def clique(n, tag="k"):
    return [tuple(f"{tag}{i}" for i in range(n))]


def triangles(n, tag="t"):
    return [(f"{tag}{i}a", f"{tag}{i}b", f"{tag}{i}c") for i in range(n)]


# heads and the closed-form minimum vertex cover of their head graph
CLOSED_FORMS = {
    "200 pairs": (pairs(200), 200),
    "path 41": (path(41), 41 // 2),
    "path 2001": (path(2001), 2001 // 2),
    "cycle 2000": (cycle(2000), 1000),
    "cycle 2001": (cycle(2001), 1001),
    "star 60": (star(60), 1),
    "clique 14": (clique(14), 13),
    "30 triangles": (triangles(30), 60),
}
CLOSED_FORMS["all of them"] = (
    [head for i, (heads, _) in enumerate(CLOSED_FORMS.values())
     for head in [tuple(f"g{i}_{a}" for a in h) for h in heads]],
    sum(size for _, size in CLOSED_FORMS.values()))


class TestClosedFormDetection:
    @pytest.mark.parametrize("name", list(CLOSED_FORMS))
    def test_minimum_size_fast(self, name):
        heads, size = CLOSED_FORMS[name]
        p = heads_program(heads)
        start = time.perf_counter()
        backdoor = find_backdoor(p)
        elapsed = time.perf_counter() - start
        assert backdoor.k == size
        assert verify_strong_backdoor(p, backdoor.atoms)
        assert elapsed < 2.0


class TestDisconnectedDifferential:
    @staticmethod
    def random_disconnected_program(rng):
        """2-4 connected components on at most 14 vertices, ids interleaved."""
        sizes = [2] * rng.randint(2, 4)
        for _ in range(rng.randint(0, 14 - len(sizes) * 2)):
            sizes[rng.randrange(len(sizes))] += 1
        names = [f"x{i}" for i in range(sum(sizes))]
        rng.shuffle(names)
        heads, start = [], 0
        for size in sizes:
            group = names[start:start + size]
            start += size
            tree = {(group[rng.randrange(i)], group[i]) for i in range(1, size)}
            extra = [e for e in combinations(group, 2)
                     if e not in tree and e[::-1] not in tree]
            heads += sorted(tree) + rng.sample(extra, rng.randint(0, len(extra)))
        return heads_program(heads, rng.randrange(1 << 30))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_exhaustive_minimum(self, seed):
        p = self.random_disconnected_program(random.Random(seed))
        graph = head_dependency_graph(p)
        minimum = support.exhaustive_min_vertex_cover(graph)
        assert find_backdoor(p).k == minimum
        for k in range(minimum - 2, minimum + 2):
            cover = vertex_cover_bounded(graph, k)
            assert (cover is None) == (k < minimum)
            if cover is not None:
                assert len(cover) <= k
                assert all(u in cover or v in cover for u, v in graph)


class TestDeleteAtoms:
    def test_p1_minus_backdoor_is_normal(self, p1):
        shrunk = delete_atoms(p1, p1.atom_set(["b", "c", "h"]))
        assert shrunk.normal
        assert len(shrunk.rules) == len(p1.rules)

    def test_delete_nothing(self, p1):
        assert delete_atoms(p1, AtomSet(0)) == p1

    def test_fact_can_become_empty_constraint(self):
        p = parse_program("a | b.")
        shrunk = delete_atoms(p, p.atom_set(["a", "b"]))
        assert len(shrunk.rules) == 1
        r = shrunk.rules[0]
        assert not r.head and not r.pos_body and not r.neg_body


class TestAssignmentReduct:
    # expected reducts, with tau written over (b, c, h)
    EXPECTED = {
        (0, 0, 0): "i :- g. a. g :- not i.",
        (0, 0, 1): "a. g :- not i.",
        (0, 1, 0): "a. g :- not i.",
        (0, 1, 1): "a. g :- not i.",
        (1, 0, 0): "a. i :- g. g :- not i.",
        (1, 0, 1): "a. g :- not i.",
        (1, 1, 0): "g :- not i.",
        (1, 1, 1): "g :- not i.",
    }

    @pytest.mark.parametrize("bits", sorted(EXPECTED))
    def test_p1_reducts_match_listings(self, p1, bits):
        domain = p1.atom_set(["b", "c", "h"])
        trues = [n for n, bit in zip(["b", "c", "h"], bits) if bit]
        tau = TruthAssignment(domain, p1.atom_set(trues))
        reduct = assignment_reduct(p1, tau)
        assert support.same_rules(reduct, parse_program(self.EXPECTED[bits]))

    def test_result_avoids_domain(self, p1):
        domain = p1.atom_set(["b", "c", "h"])
        for tau in assignments_over(domain):
            assert assignment_reduct(p1, tau).atoms.isdisjoint(domain)

    def test_domain_may_exceed_program_atoms(self):
        p = parse_program("a :- b.")
        domain = AtomSet.of([0, 1, 5])  # id 5 exists in no rule
        reduct = assignment_reduct(p, TruthAssignment(domain, AtomSet(0)))
        # the whole head lies inside the domain, so the rule is removed
        assert reduct.rules == ()

    def test_value_lookup(self, p1):
        domain = p1.atom_set(["b", "c"])
        tau = TruthAssignment(domain, p1.atom_set(["c"]))
        assert tau.value(p1.table.id_of("c"))
        assert not tau.value(p1.table.id_of("b"))
        with pytest.raises(ValueError):
            tau.value(p1.table.id_of("g"))

    def test_true_atoms_must_be_in_domain(self):
        with pytest.raises(ValueError):
            TruthAssignment(AtomSet.of([1]), AtomSet.of([2]))


class TestVerify:
    def test_p1_known_backdoor(self, p1):
        assert verify_strong_backdoor(p1, p1.atom_set(["b", "c", "h"]))

    def test_p1_empty_is_not_backdoor(self, p1):
        assert not verify_strong_backdoor(p1, AtomSet(0))

    def test_normal_program_empty_backdoor(self):
        p = parse_program("a :- b, not c. :- d.")
        assert verify_strong_backdoor(p, AtomSet(0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_strong_equals_deletion(self, seed):
        # every reduct normal <=> deletion result normal, |X| <= 4
        rng = random.Random(seed)
        p = support.random_program(rng, max_atoms=8)
        ids = list(p.atoms)
        x = AtomSet.of(rng.sample(ids, min(len(ids), rng.randint(0, 4))))
        strong = all(assignment_reduct(p, tau).normal
                     for tau in assignments_over(x))
        assert strong == delete_atoms(p, x).normal
        assert verify_strong_backdoor(p, x) == strong


class TestFindBackdoor:
    def test_p1_minimum_is_three(self, p1):
        backdoor = find_backdoor(p1, max_k=7)
        assert backdoor is not None and backdoor.k == 3
        assert verify_strong_backdoor(p1, backdoor.atoms)
        graph = head_dependency_graph(p1)
        assert support.exhaustive_min_vertex_cover(graph) == 3

    def test_p1_none_within_two(self, p1):
        assert find_backdoor(p1, max_k=2) is None

    def test_normal_program_needs_nothing(self):
        p = parse_program("a :- b, not c.")
        backdoor = find_backdoor(p)
        assert backdoor.k == 0

    def test_tautological_rule_rejected(self):
        # parse_program drops tautologies, so build the program directly
        p = parse_program("a | b :- c.")
        a, c = p.atom_set(["a"]), p.atom_set(["c"])
        tautology = Rule(p.rules[0].head, a | c, AtomSet(0))
        with pytest.raises(ValueError):
            find_backdoor(Program(p.table, [*p.rules, tautology]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_size_matches_exhaustive_minimum(self, seed):
        p = support.random_program(random.Random(seed), max_atoms=8)
        backdoor = find_backdoor(p)
        graph = head_dependency_graph(p)
        assert backdoor.k == support.exhaustive_min_vertex_cover(graph)


class TestContainmentProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_answer_sets_appear_among_reduct_answer_sets(self, seed):
        rng = random.Random(seed)
        p = support.random_program(rng, max_atoms=6, max_rules=8)
        x = find_backdoor(p).atoms
        covered = set()
        for tau in assignments_over(x & p.atoms):
            reduct = assignment_reduct(p, tau)
            for m in enumerate_answer_sets(reduct):
                covered.add(m | tau.true_atoms)
        assert enumerate_answer_sets(p) <= covered


class TestSerialization:
    def test_roundtrip(self, p1):
        x = p1.atom_set(["b", "c", "h"])
        text = format_backdoor(p1, x)
        assert text == "b\nc\nh\n"
        assert parse_backdoor(p1, text) == x
        assert parse_backdoor(p1, "b,c,h") == x
        assert parse_backdoor(p1, " b , c , h ") == x

    def test_unknown_atom_rejected(self, p1):
        with pytest.raises(ValueError):
            parse_backdoor(p1, "zz")
