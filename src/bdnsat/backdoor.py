"""Normality backdoors: detection via vertex cover, reducts, verification.

A set X of atoms is a strong backdoor to the class of normal programs iff
every truth-assignment reduct of the program under an assignment to X is
normal; for tautology-free programs this coincides with the deletion
variant (P - X normal), whose witnesses are exactly the vertex covers of
the head dependency graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .program import AtomSet, Program, Rule


@dataclass(frozen=True)
class HeadGraph:
    """Undirected graph joining atoms that share a rule head."""

    vertices: AtomSet
    edges: tuple[tuple[int, int], ...]  # sorted pairs u < v, deduplicated


@dataclass(frozen=True)
class Backdoor:
    """A verified strong backdoor to the class of normal programs."""

    atoms: AtomSet

    @property
    def k(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class TruthAssignment:
    """Total 0/1 assignment on a domain of atoms; negation is derived."""

    domain: AtomSet
    true_atoms: AtomSet

    def __post_init__(self):
        if not self.true_atoms.issubset(self.domain):
            raise ValueError("true_atoms must lie within the domain")

    @property
    def false_atoms(self) -> AtomSet:
        return self.domain - self.true_atoms

    def value(self, atom_id: int) -> bool:
        if atom_id not in self.domain:
            raise ValueError(f"atom {atom_id} outside assignment domain")
        return atom_id in self.true_atoms


def head_dependency_graph(program: Program) -> HeadGraph:
    """Edges between distinct atoms co-occurring in a non-tautological rule head."""
    edges = set()
    for rule in program.rules:
        if rule.is_tautological:
            continue
        for u, v in combinations(rule.head, 2):
            edges.add((u, v))
    return HeadGraph(program.atoms, tuple(sorted(edges)))


def vertex_cover_bounded(graph: HeadGraph, k: int) -> AtomSet | None:
    """A vertex cover of size <= k, or None if none exists.

    High-degree kernelization (any vertex of degree > k must be in the
    cover) followed by 2-way branching on the lexicographically smallest
    uncovered edge, lower-id endpoint first, so the result is deterministic.
    """
    if k < 0:
        return None

    def search(edges: tuple[tuple[int, int], ...], budget: int,
               chosen: int) -> int | None:
        while True:
            if not edges:
                return chosen
            if budget == 0:
                return None
            degrees: dict[int, int] = {}
            for u, v in edges:
                degrees[u] = degrees.get(u, 0) + 1
                degrees[v] = degrees.get(v, 0) + 1
            forced = [v for v in sorted(degrees) if degrees[v] > budget]
            if not forced:
                break
            vertex = forced[0]
            chosen |= 1 << vertex
            budget -= 1
            edges = tuple(e for e in edges if vertex not in e)
        u, v = edges[0]
        for vertex in (u, v):
            rest = tuple(e for e in edges if vertex not in e)
            result = search(rest, budget - 1, chosen | 1 << vertex)
            if result is not None:
                return result
        return None

    result = search(graph.edges, k, 0)
    return None if result is None else AtomSet(result)


def delete_atoms(program: Program, x: AtomSet) -> Program:
    """P - X: remove the atoms of x (and their negations) from every rule.

    No rule is dropped; rules may become empty, which keeps P - X
    unsatisfiable as a constraint set when a fact loses its whole head.
    """
    rules = [Rule(r.head - x, r.pos_body - x, r.neg_body - x)
             for r in program.rules]
    return Program(program.table, rules)


def assignment_reduct(program: Program, tau: TruthAssignment) -> Program:
    """Truth-assignment reduct: drop rules fixed by tau, strip domain literals.

    A rule goes if (i) its head meets the true atoms, (ii) its head lies
    inside the domain, (iii) its positive body meets the false atoms, or
    (iv) its negative body meets the true atoms.
    """
    x = tau.domain
    true_mask = tau.true_atoms.mask
    false_mask = tau.false_atoms.mask
    rules = []
    for r in program.rules:
        if (r.head.mask & true_mask
                or r.head.issubset(x)
                or r.pos_body.mask & false_mask
                or r.neg_body.mask & true_mask):
            continue
        rules.append(Rule(r.head - x, r.pos_body - x, r.neg_body - x))
    return Program(program.table, rules)


def assignments_over(x: AtomSet):
    """All truth assignments on x, in binary-counter order over ascending ids."""
    atoms = list(x)
    for counter in range(1 << len(atoms)):
        true_mask = 0
        for j, atom in enumerate(atoms):
            if counter >> j & 1:
                true_mask |= 1 << atom
        yield TruthAssignment(x, AtomSet(true_mask))


def verify_strong_backdoor(program: Program, x: AtomSet) -> bool:
    """True iff x is a strong normality backdoor of the (tautology-free) program.

    Strong and deletion backdoors coincide for the normal target class, so
    the check is whether P - X is normal.
    """
    return delete_atoms(program, x).normal


def find_backdoor(program: Program, max_k: int | None = None) -> Backdoor | None:
    """Smallest strong normality backdoor of size <= max_k, or None.

    Tries k = 0, 1, ... against the head dependency graph; the first cover
    found has minimum size.  max_k defaults to |at(P)|, for which a cover
    always exists.
    """
    if max_k is None:
        max_k = len(program.atoms)
    if any(r.is_tautological for r in program.rules):
        raise ValueError("find_backdoor requires a tautology-free program")
    graph = head_dependency_graph(program)
    for k in range(max_k + 1):
        cover = vertex_cover_bounded(graph, k)
        if cover is not None:
            if not verify_strong_backdoor(program, cover):
                raise AssertionError("vertex cover failed backdoor verification")
            return Backdoor(cover)
    return None


def format_backdoor(program: Program, x: AtomSet) -> str:
    """Serialize a backdoor: one atom name per line, sorted."""
    return "\n".join(sorted(program.atom_names(x))) + ("\n" if x else "")


def parse_backdoor(program: Program, text: str) -> AtomSet:
    """Read a backdoor from its line or comma separated serialization."""
    names = [n for chunk in text.replace(",", "\n").splitlines()
             for n in [chunk.strip()] if n]
    return program.atom_set(names)
