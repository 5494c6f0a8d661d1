"""Shared corpus generation and independent reference computations for tests.

Everything here derives expected values straight from definitions
(fixpoint iteration, exhaustive search, truth tables) so the code under
test is never its own oracle.
"""
from __future__ import annotations

import io
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

from bdnsat import (AtomSet, AtomTable, Program, Rule, gl_reduct, is_model,
                    parse_program, verify_strong_backdoor)
from bdnsat.encoding import VarTable
from bdnsat.formula import (And, CnfFormula, Formula, Iff, Not, Or, Var, conj,
                            disj, emit_dimacs, iff, imp, neg)
from bdnsat.mincheck import _subprocedure, restrict_program

# --- brute-force answer-set oracles, straight from the definition ----------
#
# An answer set of P is a subset M of at(P) that is a minimal model of the GL
# reduct of P under M, minimality checked by testing every proper subset.
# They share no logic with the fixed-parameter machinery or the SAT pipeline.

ORACLE_ATOM_LIMIT = 20


def _reduct_masks(program: Program, m_mask: int) -> list[tuple[int, int]]:
    """(head, pos_body) masks of the GL reduct rules under m."""
    return [(r.head.mask, r.pos_body.mask) for r in program.rules
            if r.neg_body.mask & m_mask == 0]


def _is_model_of_masks(masks: list[tuple[int, int]], m_mask: int) -> bool:
    for head, pos in masks:
        if head & m_mask == 0 and pos & ~m_mask == 0:
            return False
    return True


def _minimal_model_of_reduct(masks: list[tuple[int, int]], m_mask: int) -> bool:
    if not _is_model_of_masks(masks, m_mask):
        return False
    if m_mask == 0:
        return True
    sub = (m_mask - 1) & m_mask
    while True:
        if _is_model_of_masks(masks, sub):
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & m_mask


def naive_is_answer_set(program: Program, m: AtomSet) -> bool:
    """Definition-level check: is m a minimal model of the GL reduct under m?"""
    if m.mask & ~program.atoms.mask:
        # atoms outside at(P) are never forced, so m cannot be minimal
        return False
    return _minimal_model_of_reduct(_reduct_masks(program, m.mask), m.mask)


def enumerate_answer_sets(program: Program, force: bool = False) -> set[AtomSet]:
    """All answer sets of program, by exhaustive search over subsets of at(P)."""
    n = len(program.atoms)
    if n > ORACLE_ATOM_LIMIT and not force:
        raise ValueError(
            f"program has {n} atoms, above the oracle guard of "
            f"{ORACLE_ATOM_LIMIT}; pass force=True to override")
    universe = program.atoms.mask
    answer_sets = set()
    m_mask = 0
    while True:
        if _minimal_model_of_reduct(_reduct_masks(program, m_mask), m_mask):
            answer_sets.add(AtomSet(m_mask))
        if m_mask == universe:
            break
        # next subset of the (possibly sparse) universe mask
        m_mask = (m_mask - universe) & universe
    return answer_sets


def brave_atoms(program: Program, force: bool = False) -> AtomSet:
    """Atoms contained in at least one answer set."""
    mask = 0
    for m in enumerate_answer_sets(program, force=force):
        mask |= m.mask
    return AtomSet(mask)


def skeptical_atoms(program: Program, force: bool = False) -> AtomSet:
    """Atoms contained in every answer set (all of at(P) if there are none)."""
    mask = program.atoms.mask
    for m in enumerate_answer_sets(program, force=force):
        mask &= m.mask
    return AtomSet(mask)


P1_SOURCE = """\
a | c :- b.
b :- c, not g.
c :- a.
b | c :- e.
h | i :- g, not c.
a | b.
g :- not i.
c.
"""

ATOM_POOL = tuple("abcdefghijklmnop")


def p1() -> Program:
    return parse_program(P1_SOURCE)


def dimacs_text(cnf: CnfFormula) -> str:
    out = io.StringIO()
    emit_dimacs(cnf, out)
    return out.getvalue()


def evaluate(formula: Formula, assignment: Mapping[int, bool]) -> bool:
    """Truth value under a total assignment of the referenced variables."""
    if isinstance(formula, bool):
        return formula
    if isinstance(formula, Var):
        return assignment[formula.id]
    if isinstance(formula, Not):
        return not evaluate(formula.child, assignment)
    if isinstance(formula, And):
        return all(evaluate(c, assignment) for c in formula.children)
    if isinstance(formula, Or):
        return any(evaluate(c, assignment) for c in formula.children)
    if isinstance(formula, Iff):
        return evaluate(formula.left, assignment) == evaluate(formula.right, assignment)
    raise TypeError(f"not a formula: {formula!r}")


def nodes(formula: Formula) -> Iterator[Formula]:
    """Every node occurrence, depth first, last child first."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, Iff):
            stack.append(node.left)
            stack.append(node.right)


def variables(formula: Formula) -> set[int]:
    return {node.id for node in nodes(formula) if isinstance(node, Var)}


def node_count(formula: Formula) -> int:
    return sum(1 for _ in nodes(formula))


def mincheck(program: Program, m: AtomSet, x: AtomSet,
             x1: AtomSet) -> tuple[str, ...]:
    """Run the subprocedure for one subset x1, validating its preconditions."""
    if not x1.issubset(x):
        raise ValueError("x1 must be a subset of x")
    if not verify_strong_backdoor(program, x):
        raise ValueError("x is not a strong normality backdoor")
    reduct = gl_reduct(program, m)
    if not is_model(m, reduct):
        raise ValueError("m is not a model of the GL reduct of the program under m")
    return _subprocedure(reduct, m, x, x1)


def random_program_source(rng: random.Random, max_atoms: int = 7,
                          max_rules: int = 10) -> str:
    """Random ground program text with mixed disjunction and negation."""
    n_atoms = rng.randint(2, max_atoms)
    names = list(ATOM_POOL[:n_atoms])
    lines = []
    for _ in range(rng.randint(1, max_rules)):
        head_size = rng.choices([0, 1, 2, 3], weights=[2, 5, 3, 1])[0]
        pos_size = rng.choices([0, 1, 2], weights=[4, 4, 2])[0]
        neg_size = rng.choices([0, 1, 2], weights=[5, 4, 1])[0]
        if head_size + pos_size == 0 and neg_size == 0:
            head_size = 1
        total = min(head_size + pos_size + neg_size, n_atoms)
        picked = rng.sample(names, total)
        head = picked[:head_size]
        pos = picked[head_size:head_size + pos_size]
        neg = picked[head_size + pos_size:]
        if not head and not pos and not neg:
            head = [rng.choice(names)]
        body = pos + [f"not {a}" for a in neg]
        if body:
            lines.append(f"{' | '.join(head)}{' ' if head else ''}:- {', '.join(body)}.")
        else:
            lines.append(f"{' | '.join(head)}.")
    return "\n".join(lines) + "\n"


def tautologies_source(rng: random.Random, max_atoms: int = 7,
                       max_rules: int = 3) -> str:
    """One or more random tautological rules: an atom of each positive body
    also stands in its head or its negative body."""
    names = list(ATOM_POOL[:max_atoms])
    lines = []
    for _ in range(rng.randint(1, max_rules)):
        head, pos, neg = (rng.sample(names, rng.randint(0, 2)) for _ in range(3))
        shared = rng.choice(names)
        pos.append(shared)
        (head if rng.random() < 0.5 else neg).append(shared)
        body = ", ".join(pos + [f"not {a}" for a in neg])
        lines.append(f"{' | '.join(head)}{' ' if head else ''}:- {body}.")
    return "\n".join(lines) + "\n"


def program_keeping_tautologies(source: str) -> Program:
    """Every rule of source, tautologies included, one rule per line.

    Reads only the rule shapes written by random_program_source and
    tautologies_source, by splitting at ':-', '|', ',' and 'not '.
    """
    triples = []
    for line in source.splitlines():
        head, _, body = line.rstrip(".").partition(":-")
        literals = [lit.strip() for lit in body.split(",") if lit.strip()]
        triples.append(([a.strip() for a in head.split("|") if a.strip()],
                        [lit for lit in literals if not lit.startswith("not ")],
                        [lit[4:] for lit in literals if lit.startswith("not ")]))
    table = AtomTable(dict.fromkeys(a for triple in triples
                                    for part in triple for a in part))
    return Program(table, [Rule(*(table.set_of(part) for part in triple))
                           for triple in triples])


WELL_FORMED_NAMES = ("a", "b", "c", "nota", "not_b", "notnot", "x1", "aB_9")
# between tokens; a gap after "not" must not be empty
GAPS = ("", " ", "  ", "\t", "\n", "\r\n", " % note\n", "\t%\r\n")
# after a rule's dot
RULE_ENDS = ("\n", "\r\n", "\n\n", " \r\n\r\n", "\t% c\n")


def well_formed_source(rng: random.Random,
                       max_rules: int = 8) -> tuple[str, Program]:
    """Random valid program text and the Program parse_program must return.

    The text repeats literals within a part, writes tautological rules,
    constraints, comments, blank lines, tabs, CRLF line ends and atom names
    that begin with "not", and may end in a comment with no newline.  The
    expected Program is derived from the generator's own name lists.
    """
    def gap(required: bool = False) -> str:
        return rng.choice(GAPS[1:] if required else GAPS)

    text, kept, tautologies, duplicates = [gap()], [], 0, 0
    for _ in range(rng.randint(0, max_rules)):
        head = rng.choices(WELL_FORMED_NAMES, k=rng.choice([0, 1, 1, 2, 3]))
        body = [(rng.random() < 0.4, rng.choice(WELL_FORMED_NAMES))  # (negated, atom)
                for _ in range(rng.choice([0, 1, 2, 3, 4]))]
        if rng.random() < 0.2:  # make it a tautology
            shared = rng.choice(WELL_FORMED_NAMES)
            body.insert(rng.randint(0, len(body)), (False, shared))
            if rng.random() < 0.5:
                head.append(shared)
            else:
                body.insert(rng.randint(0, len(body)), (True, shared))
        if not head and not body:
            head.append(rng.choice(WELL_FORMED_NAMES))
        rule = f"{gap()}|{gap()}".join(head)
        if body:
            rule += f"{gap()}:-{gap()}" + f"{gap()},{gap()}".join(
                f"not{gap(True)}{a}" if negated else a for negated, a in body)
        text.append(f"{rule}{gap()}.{rng.choice(RULE_ENDS)}")
        parts = [head] + [[a for negated, a in body if negated == n]
                          for n in (False, True)]
        duplicates += sum(len(p) - len(set(p)) for p in parts)
        if set(parts[1]) & (set(head) | set(parts[2])):
            tautologies += 1
        else:
            kept.append(parts)
    if rng.random() < 0.3:
        text.append("% end of file, no newline")
    table = AtomTable(dict.fromkeys(a for parts in kept for p in parts for a in p))
    rules = [Rule(*(table.set_of(p) for p in parts)) for parts in kept]
    return "".join(text), Program(table, rules, tautologies, duplicates)


def random_program(rng: random.Random, max_atoms: int = 7,
                   max_rules: int = 10) -> Program:
    while True:
        program = parse_program(random_program_source(rng, max_atoms, max_rules))
        if program.rules and program.atoms:
            return program


def random_horn_program(rng: random.Random, max_atoms: int = 8,
                        max_rules: int = 10) -> Program:
    n_atoms = rng.randint(1, max_atoms)
    names = list(ATOM_POOL[:n_atoms])
    lines = []
    for _ in range(rng.randint(1, max_rules)):
        head_size = rng.choices([0, 1], weights=[1, 6])[0]
        pos_size = rng.choices([0, 1, 2, 3], weights=[3, 4, 3, 1])[0]
        if head_size + pos_size == 0:
            head_size = 1
        picked = rng.sample(names, min(head_size + pos_size, n_atoms))
        head, pos = picked[:head_size], picked[head_size:]
        if pos:
            lines.append(f"{''.join(head)}{' ' if head else ''}:- {', '.join(pos)}.")
        else:
            lines.append(f"{head[0]}.")
    return parse_program("\n".join(lines) + "\n")


def corpus(seed: int, count: int, max_atoms: int = 7,
           max_rules: int = 10) -> list[Program]:
    rng = random.Random(seed)
    return [random_program(rng, max_atoms, max_rules) for _ in range(count)]


def rule_names(program: Program) -> list[tuple[frozenset, frozenset, frozenset]]:
    """Structural view of a program: rule triples as frozensets of atom names."""
    return [(frozenset(program.atom_names(r.head)),
             frozenset(program.atom_names(r.pos_body)),
             frozenset(program.atom_names(r.neg_body)))
            for r in program.rules]


def same_rules(left: Program, right: Program) -> bool:
    return sorted(rule_names(left)) == sorted(rule_names(right))


def pretty(program: Program) -> str:
    """Render a program in the input grammar, one rule per line, atoms by ascending id."""
    lines = []
    for rule in program.rules:
        names = program.table.name_of
        head = " | ".join(names(a) for a in rule.head)
        body = [names(a) for a in rule.pos_body]
        body += [f"not {names(a)}" for a in rule.neg_body]
        if body:
            lines.append(f"{head}{' ' if head else ''}:- {', '.join(body)}.")
        elif head:
            lines.append(f"{head}.")
        else:
            # outside the input grammar; only arises in programs built by atom
            # deletion, never from parsing
            lines.append(":-.")
    return "\n".join(lines) + ("\n" if lines else "")


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


def subsets_of(mask: int):
    """All submasks of mask, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def tp_fixpoint(program: Program) -> AtomSet:
    """Least model of the non-constraint part by naive operator iteration."""
    current = 0
    while True:
        step = current
        for r in program.rules:
            if r.head and r.pos_body.mask & ~current == 0:
                step |= r.head.mask
        if step == current:
            return AtomSet(current)
        current = step


def exhaustive_min_vertex_cover(edges: tuple[tuple[int, int], ...]) -> int:
    """Size of a minimum vertex cover, by subset enumeration over the endpoints."""
    vertices = sorted({v for e in edges for v in e})
    for size in range(len(vertices) + 1):
        for combo in combinations(vertices, size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return 0


def has_cover_of_size(edges: tuple[tuple[int, int], ...], k: int) -> bool:
    vertices = sorted({v for e in edges for v in e})
    for size in range(min(k, len(vertices)) + 1):
        for combo in combinations(vertices, size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                return True
    return not edges


def positive_reach(program: Program) -> dict[int, set[int]]:
    """Atoms reachable from each atom in the head -> pos-body graph, in one
    or more steps, by exhaustive search."""
    succ: dict[int, set[int]] = {}
    for r in program.rules:
        for x in r.head:
            succ.setdefault(x, set()).update(r.pos_body)
    reach = {}
    for start in program.atoms:
        frontier, seen = list(succ.get(start, ())), set()
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                frontier.extend(succ.get(node, ()))
        reach[start] = seen
    return reach


def positive_cycle_exists(program: Program) -> bool:
    """Exhaustive reachability check for a cycle in the head -> pos-body graph."""
    return any(a in reached for a, reached in positive_reach(program).items())


def simulate_block_layers(program: Program, x: AtomSet, xi: AtomSet,
                          m: AtomSet, p_layers: int,
                          n_atoms: int) -> list[int]:
    """Layer-by-layer derivation masks for one block, straight from the rules.

    Layer 0 is empty; layer j adds heads of restricted rules whose positive
    body lies in layer j-1 and whose negative body avoids m.
    """
    restricted = restrict_program(program, x, xi)
    layers = [0]
    for _ in range(p_layers):
        prev = layers[-1]
        cur = prev
        for r in restricted.rules:
            if not r.head:
                continue
            if r.neg_body.mask & m.mask:
                continue
            if r.pos_body.mask & ~prev == 0:
                cur |= r.head.mask
        layers.append(cur)
    return layers


def full_recompute_f_lm_block(restricted: Program, block: int,
                              vt: VarTable) -> tuple[Formula, list[Formula]]:
    """build_f_lm_block with every atom recomputed on every layer.

    The reference for the change-driven loop: same cell rules, same u
    order, but no readers index, so no atom is ever left out of a layer.
    """
    deriving: dict[int, list] = {a: [] for a in range(vt.n_atoms)}
    for r in restricted.rules:
        if r.head:
            (head_atom,) = r.head
            deriving[head_atom].append(r)
    row, last = [False] * vt.n_atoms, [None] * vt.n_atoms
    parts = []
    for j in range(1, vt.p + 1):
        prev, row = row, list(row)
        for a in range(vt.n_atoms):
            firings = [conj([prev[b] for b in r.pos_body]
                            + [neg(vt.v(b)) for b in r.neg_body])
                       for r in deriving[a]]
            if firings == last[a]:
                continue
            last[a] = firings
            row[a] = disj([prev[a]] + firings)
            if not isinstance(row[a], (bool, Var, Not)):
                u = vt.new_u(block, j, a)
                parts.append(iff(u, row[a]))
                row[a] = u
        if row == prev:
            break
    return conj(parts), row


def reference_f_lm_block(restricted: Program, block: int,
                         vt: VarTable) -> tuple[Formula, list[Formula]]:
    """build_f_lm_block over a restricted Program (restrict_program) instead
    of vt's rule table: the per-block construction the encoder replaced,
    kept as the reference for byte-identical blocks."""
    deriving: list[list] = [[] for _ in range(vt.n_atoms)]
    readers: list[list[int]] = [[] for _ in range(vt.n_atoms)]
    for r in restricted.rules:
        if r.head:
            (head_atom,) = r.head
            deriving[head_atom].append(
                (tuple(r.pos_body), [neg(vt.v(b)) for b in r.neg_body]))
            for b in r.pos_body:
                readers[b].append(head_atom)
    row, last = [False] * vt.n_atoms, [None] * vt.n_atoms
    todo = range(vt.n_atoms)
    parts = []
    for j in range(1, vt.p + 1):
        changed = []
        for a in todo:
            firings = [conj([row[b] for b in pos] + negs)
                       for pos, negs in deriving[a]]
            if firings == last[a]:
                continue
            last[a] = firings
            cell = disj([row[a]] + firings)
            if not isinstance(cell, (bool, Var, Not)):
                u = vt.new_u(block, j, a)
                parts.append(iff(u, cell))
                cell = u
            if cell != row[a]:
                changed.append((a, cell))
        if not changed:
            break
        todo = sorted({h for a, _ in changed for h in readers[a]})
        for a, cell in changed:
            row[a] = cell
    return conj(parts), row


def reference_f_min_block(program: Program, x: AtomSet, xi: AtomSet,
                          block: int, vt: VarTable) -> Formula:
    """build_f_min_block built from restrict_program(program, x, xi), with
    every accept disjunct read off the restricted Program's rules."""
    restricted = restrict_program(program, x, xi)
    f_lm, up = reference_f_lm_block(restricted, block, vt)
    failed_premise = [neg(vt.v(a)) for a in xi]
    f_a = [conj([neg(vt.v(b)) for b in r.neg_body] + [up[b] for b in r.pos_body])
           for r in restricted.rules if not r.head]
    f_b = [conj([neg(vt.v(a)), up[a]]) for a in range(vt.n_atoms) if a not in x]
    f_c = conj(imp(vt.v(a), up[a]) for a in range(vt.n_atoms) if a not in xi)
    return conj([f_lm, disj(failed_premise + f_a + f_b + [f_c])])


def block_assignment(program: Program, x: AtomSet, xi: AtomSet, block: int,
                     vt: VarTable, m: AtomSet) -> dict[int, bool]:
    """Assignment of all v variables and of block `block`'s u cells matching
    the simulation.  Call it after the block is built: it reads vt.cells."""
    layers = simulate_block_layers(program, x, xi, m, vt.p, vt.n_atoms)
    assignment = {vt.v(a).id: a in m for a in range(vt.n_atoms)}
    for var_id, (b, j, a) in enumerate(vt.cells, vt.n_atoms + 1):
        if b == block:
            assignment[var_id] = bool(layers[j] >> a & 1)
    return assignment


def padded_backdoor_program(k: int, pairs: int = 8, ballast: int = 30) -> Program:
    """Constant-size program whose smallest backdoor has exactly k atoms.

    k disjoint head disjunctions force a vertex cover of size k; the pairs
    above k degrade to normal rules of the same shape, and a ballast chain
    keeps the per-block encoding cost dominated by k-independent structure.
    Atom and rule counts do not depend on k.
    """
    assert 0 <= k <= pairs
    lines = ["s."]
    prev = "s"
    for j in range(1, ballast + 1):
        lines.append(f"c{j} :- {prev}.")
        prev = f"c{j}"
    for i in range(1, pairs + 1):
        lines.append(f"a{i} | b{i} :- s." if i <= k else f"b{i} :- s.")
    sink_body = ", ".join(f"a{i}, b{i}" for i in range(1, pairs + 1))
    lines.append(f"sink :- {sink_body}.")
    return parse_program("\n".join(lines) + "\n")


def chain_program(n_rules: int) -> Program:
    """Normal negation-free chain of n_rules rules over n_rules atoms."""
    lines = ["x1."]
    lines += [f"x{i + 1} :- x{i}." for i in range(1, n_rules)]
    return parse_program("\n".join(lines) + "\n")


def fit_line_relative(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Line minimizing the summed squared relative residuals ((ax+b-y)/y)^2.

    Appropriate when the acceptance bound is itself relative: plain least
    squares lets the largest points dictate the line and starves the small
    ones, whose absolute residuals are negligible.
    """
    us = [x / y for x, y in zip(xs, ys)]
    vs = [1.0 / y for y in ys]
    suu = sum(u * u for u in us)
    suv = sum(u * v for u, v in zip(us, vs))
    svv = sum(v * v for v in vs)
    su, sv = sum(us), sum(vs)
    det = suu * svv - suv * suv
    slope = (su * svv - sv * suv) / det
    intercept = (sv * suu - su * suv) / det
    return slope, intercept
