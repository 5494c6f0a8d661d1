"""Normality backdoors: detection via vertex cover, verification, serialization.

A set X of atoms is a strong backdoor to the class of normal programs iff
every truth-assignment reduct of the program under an assignment to X is
normal; for tautology-free programs this coincides with the deletion
variant (P - X normal), whose witnesses are exactly the vertex covers of
the head dependency graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .program import AtomSet, Program

Edges = tuple[tuple[int, int], ...]  # sorted pairs u < v, deduplicated


@dataclass(frozen=True)
class Backdoor:
    """A verified strong backdoor to the class of normal programs."""

    atoms: AtomSet

    @property
    def k(self) -> int:
        return len(self.atoms)


def head_dependency_graph(program: Program) -> Edges:
    """Sorted edges between distinct atoms co-occurring in a rule head.  The
    program must be tautology-free, which find_backdoor checks once."""
    edges = set()
    for rule in program.rules:
        for u, v in combinations(rule.head, 2):
            edges.add((u, v))
    return tuple(sorted(edges))


def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _take(adj: dict[int, set[int]], vertex: int) -> set[int]:
    """Delete vertex (if present), its edges and the vertices left isolated;
    return the neighbours it had."""
    neighbours = adj.pop(vertex, set())
    for w in neighbours:
        adj[w].discard(vertex)
        if not adj[w]:
            del adj[w]
    return neighbours


def _hub(adj: dict[int, set[int]]) -> int:
    """A vertex of maximum degree, lowest id on ties."""
    return max(adj, key=lambda u: (len(adj[u]), -u))


def _reduce(adj: dict[int, set[int]], budget: int, chosen: int) -> tuple[int, int]:
    """Reduce adj until no rule applies or the budget is overspent.

    A leaf's neighbour joins the cover mask chosen (an isolated edge gives its
    lower-id end); then a vertex of degree > budget does.  Returns the
    budget left and the mask.
    """
    leaves = sorted((v for v in adj if len(adj[v]) == 1), reverse=True)
    while budget >= 0 and adj:
        if leaves:
            leaf = leaves.pop()
            if leaf not in adj:
                continue
            (vertex,) = adj[leaf]
            if len(adj[vertex]) == 1:
                vertex = min(vertex, leaf)
        elif len(adj[vertex := _hub(adj)]) <= budget:
            break
        chosen, budget = chosen | 1 << vertex, budget - 1
        leaves += [w for w in _take(adj, vertex) if len(adj.get(w, ())) == 1]
    return budget, chosen


def _lower_bound(adj: dict[int, set[int]]) -> int:
    """Degree-1 picks and a greedy packing of vertex-disjoint cliques, in turn.

    Each clique grows from the lowest remaining id; a cover holds all but one
    of its vertices.  Cut to two vertices, the cliques form a matching.
    Empties adj.
    """
    bound = 0
    while adj:
        bound += _reduce(adj, len(adj), 0)[1].bit_count()
        clique, grow = [], set(adj)
        while grow:
            clique.append(min(grow))
            grow &= adj[clique[-1]]
        bound += max(len(clique) - 1, 0)
        for v in clique:
            _take(adj, v)
    return bound


def vertex_cover_bounded(edges: Edges, k: int) -> AtomSet | None:
    """A vertex cover of size <= k, or None if none exists.

    Depth-first search over an explicit stack.  Each node runs the reduction
    rules (see _reduce), and is pruned when more than budget^2 edges remain
    (Buss) or the lower bound exceeds the budget.  Otherwise it branches on
    a maximum-degree vertex v, lowest id on ties: v joins the cover, or else
    all of N(v) does.  Every branch spends budget, so the search is at most
    k deep; the result is deterministic.
    """
    stack = [(_adjacency(edges), k, 0)] if k >= 0 else []
    while stack:
        adj, budget, chosen = stack.pop()
        budget, chosen = _reduce(adj, budget, chosen)
        if budget >= 0 and not adj:
            return AtomSet(chosen)
        if (budget < 0 or sum(map(len, adj.values())) > 2 * budget * budget
                or _lower_bound({u: set(n) for u, n in adj.items()}) > budget):
            continue
        vertex = _hub(adj)
        other, hood = {u: set(n) for u, n in adj.items()}, sorted(adj[vertex])
        for w in hood:
            _take(other, w)
        stack.append((other, budget - len(hood), chosen | AtomSet.of(hood).mask))
        _take(adj, vertex)
        stack.append((adj, budget - 1, chosen | 1 << vertex))
    return None


def verify_strong_backdoor(program: Program, x: AtomSet) -> bool:
    """True iff x is a strong normality backdoor of the (tautology-free) program.

    Strong and deletion backdoors coincide for the normal target class, so
    the check is whether P - X is normal: no rule head keeps two atoms
    outside x.
    """
    outside = ~x.mask
    return all((r.head.mask & outside).bit_count() <= 1 for r in program.rules)


def _parts(edges: Edges) -> list[Edges]:
    """Connected components by ascending lowest atom, with all trees in one part
    where the first tree stands: the degree-1 rule covers a forest minimally
    without branching, so one search serves every tree."""
    adj, forest, parts = _adjacency(edges), [], []
    for start in sorted(adj):
        todo, vertices, part = [start], 0, []
        while todo:
            if (u := todo.pop()) in adj:
                vertices += 1
                todo += adj[u]
                part += [(u, w) for w in adj.pop(u) if u < w]
        if part and len(part) == vertices - 1:  # a tree
            if not forest:
                parts.append(forest)
            forest += sorted(part)
        elif part:
            parts.append(sorted(part))
    return list(map(tuple, parts))


def find_backdoor(program: Program, max_k: int | None = None) -> Backdoor | None:
    """Smallest strong normality backdoor of size <= max_k, or None.

    A minimum vertex cover of the head dependency graph, searched part by
    part (see _parts): each part tries k = its lower bound, k + 1, ... until
    vertex_cover_bounded finds a cover.  Detection gives up as soon as the
    sizes found plus the bounds of the parts still to come exceed max_k.
    max_k defaults to |at(P)|, for which a cover always exists.
    """
    if max_k is None:
        max_k = len(program.atoms)
    if any(r.is_tautological for r in program.rules):
        raise ValueError("find_backdoor requires a tautology-free program")
    parts = _parts(head_dependency_graph(program))
    bounds = [_lower_bound(_adjacency(part)) for part in parts]
    need, cover = sum(bounds), AtomSet(0)
    if need > max_k:
        return None
    for part, k in zip(parts, bounds):
        while (found := vertex_cover_bounded(part, k)) is None:
            k, need = k + 1, need + 1
            if need > max_k:
                return None
        cover |= found
    if not verify_strong_backdoor(program, cover):
        raise AssertionError("vertex cover failed backdoor verification")
    return Backdoor(cover)


def format_backdoor(program: Program, x: AtomSet) -> str:
    """Serialize a backdoor: one atom name per line, sorted."""
    return "\n".join(sorted(program.atom_names(x))) + ("\n" if x else "")


def parse_backdoor(program: Program, text: str) -> AtomSet:
    """Read a backdoor from its line or comma separated serialization."""
    names = [n for chunk in text.replace(",", "\n").splitlines()
             for n in [chunk.strip()] if n]
    return program.atom_set(names)
