"""Compile brave/skeptical queries into a single propositional formula.

The formula is satisfiable iff some subset M of at(P), read off the v
variables, is an answer set meeting the query.  F_mod, one clause per rule,
says that M is a model of the reduct.  One block per subset X_i of the
backdoor reproduces the fixed-parameter minimality subprocedure
symbolically: layered u variables simulate the least-model computation of
the restricted reduct, and one accept clause holds if X_i is not in M, or
its least model L union X_i breaks a constraint (a), leaks out of M (b) or
covers M (c).  What does not depend on X_i is built once, in VarTable; a
block restricts it by the mask of X_i, with no restricted Program.  A
query adds its literal to the program formula as one more root conjunct.
Backdoor membership tests are compile-time constants and are folded away.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Literal

from .backdoor import verify_strong_backdoor
from .formula import Formula, Not, Var, conj, disj, iff, neg, CnfFormula
from .mincheck import backdoor_subsets
from .program import AtomSet, Program


class VarTable:
    """Variable ids, and the rule table that all blocks of a build share.

    Ids: v vars 1..n, then u vars in build order, then labels.  v returns
    the one Var of an atom and neg_v its one negated literal; new_u hands
    out each u variable and records its (block, layer, atom) cell.  A rule
    is the tuple (head mask, positive body, negative-body literals);
    deriving[a] lists the rules whose head outside the backdoor X is a,
    readers[b] their heads with b in the positive body, and constraints
    the rules with no head outside X.
    """

    def __init__(self, program: Program, backdoor_atoms: AtomSet):
        self.program = program
        self.n_atoms = len(program.table)
        self.p = min(len(program.rules), len(program.table))
        self.n_blocks = 1 << len(backdoor_atoms)
        self.cells: list[tuple[int, int, int]] = []
        self._v = [Var(a + 1) for a in range(self.n_atoms)]
        self.neg_v = [neg(v) for v in self._v]
        x = backdoor_atoms.mask
        self.outside_x = [a for a in range(self.n_atoms) if not x >> a & 1]
        self.constraints = []
        self.deriving = [[] for _ in range(self.n_atoms)]
        self.readers = [[] for _ in range(self.n_atoms)]
        for r in program.rules:
            head, pos = AtomSet(r.head.mask & ~x), tuple(r.pos_body)
            rule = (r.head.mask, pos, [self.neg_v[b] for b in r.neg_body])
            if not head:
                self.constraints.append(rule)
            for h in head:  # one atom when X is a strong backdoor
                self.deriving[h].append(rule)
                for b in pos:
                    self.readers[b].append(h)

    def v(self, atom_id: int) -> Var:
        return self._v[atom_id]

    def new_u(self, block: int, layer: int, atom_id: int) -> Var:
        self.cells.append((block, layer, atom_id))
        return Var(self.n_reserved)

    @property
    def n_reserved(self) -> int:
        return self.n_atoms + len(self.cells)

    def names(self) -> dict[int, str]:
        table = self.program.table
        out = {a + 1: f"v {table.name_of(a)}" for a in range(self.n_atoms)}
        for var_id, (block, layer, a) in enumerate(self.cells, self.n_atoms + 1):
            out[var_id] = f"u {block} {layer} {table.name_of(a)}"
        return out


@dataclass(frozen=True)
class QuerySpec:
    """A brave or skeptical membership query."""

    mode: Literal["brave", "skeptical"]
    atom: str

    def __post_init__(self):
        if self.mode not in ("brave", "skeptical"):
            raise ValueError("query mode must be brave or skeptical, "
                             f"got {self.mode!r}")


def build_f_mod(program: Program, vt: VarTable) -> Formula:
    """One clause per rule, `B- or not B+ or H`: M is a model of the reduct."""
    return conj(disj([vt.v(b) for b in r.neg_body]
                     + [vt.neg_v[b] for b in r.pos_body]
                     + [vt.v(h) for h in r.head]) for r in program.rules)


def build_f_lm_block(xi: AtomSet, block: int,
                     vt: VarTable) -> tuple[Formula, list[Formula]]:
    """Layered least-model simulation for one backdoor subset: (F_lm, last row).

    The program is restricted to X_i through vt's rule table: a rule whose
    head meets X_i is skipped, heads lose X, and the X_i atoms are read as
    true in row 0 and never recomputed, so conj folds them out of positive
    bodies.  Layer j derives an atom if it was already derived or some
    restricted rule with that head fires, its positive body read at layer
    j-1 and its negative body checked against the v variables (the
    symbolic GL reduct).  Layer p is the fixpoint.  A cell gets a u
    variable, defined by `u <-> cell`, only if it is new:
    - a constant or literal cell equals the gate it would have defined;
    - if an atom's firings equal, structurally, the list that last changed
      its cell, that cell already implies them, and layer values grow with
      j, so the cell at layer j is the one at j-1;
    - a layer equal to the one before it is the fixpoint, so the loop stops.
    Every u is defined over v and earlier cells, so v fixes every u.

    The work follows the changes (semi-naive evaluation): layer 1 computes
    every atom outside X, layer j > 1 only the readers of the cells changed
    at layer j-1, in ascending order, since any other atom would repeat the
    firings that last changed its cell.  Each read is of layer j-1, so the
    u variables, their order and every formula are those of a full
    recompute, and a chain of n atoms costs 2n firing computations, not
    n^2.  The last row is the least model L, so X_i reads false there.
    """
    skip = xi.mask
    row = [skip >> a & 1 == 1 for a in range(vt.n_atoms)]
    last, todo, parts = [None] * vt.n_atoms, vt.outside_x, []
    for j in range(1, vt.p + 1):
        changed = []
        for a in todo:
            firings = [conj([row[b] for b in pos] + negs)
                       for head_mask, pos, negs in vt.deriving[a]
                       if not head_mask & skip]
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
        todo = sorted({h for a, _ in changed for h in vt.readers[a]})
        for a, cell in changed:
            row[a] = cell
    return conj(parts), [False if skip >> a & 1 else c for a, c in enumerate(row)]


def build_f_min_block(xi: AtomSet, block: int, vt: VarTable) -> Formula:
    """Block formula: F_lm, and the accept clause of L union X_i.

    The clause is `OR_{a in X_i} not v_a or (a) or (b) or (c)`: the subset
    premise fails, or L union X_i (a) breaks a restricted constraint, (b)
    leaks out of M minus X on L, or (c) covers M, `v_a -> L_a` for a
    outside X_i.  Each (a) and (b) term is a disjunct of the clause itself.
    The paper's (c) asks for L union X_i = M, but the premise and not (b)
    give L union X_i <= M.  The paper's (d), a broken reduct rule whose
    head misses X_i, adds nothing: L is a fixpoint, so only a rule with its
    head in X can break, and its term is (a)'s.  F_lm, outside the clause,
    fixes the u variables as a function of v, so the v projections of the
    models stay and its `u <-> ...` gates become root clauses.
    """
    skip = xi.mask
    f_lm, up = build_f_lm_block(xi, block, vt)
    lux = [skip >> a & 1 == 1 or cell for a, cell in enumerate(up)]
    f_a = [conj(negs + [lux[b] for b in pos])
           for head_mask, pos, negs in vt.constraints if not head_mask & skip]
    f_b = [conj([vt.neg_v[a], lux[a]]) for a in vt.outside_x]
    f_c = conj(disj([vt.neg_v[a], c]) for a, c in enumerate(lux) if not skip >> a & 1)
    return conj([f_lm, disj([vt.neg_v[a] for a in xi] + f_a + f_b + [f_c])])


def build_program(program: Program, x: AtomSet) -> tuple[Formula, VarTable]:
    """F_mod and all minimality blocks: its v projections are the answer sets."""
    subsets = backdoor_subsets(program, x)  # guards 2^k before any building
    if not verify_strong_backdoor(program, x):
        raise ValueError("x is not a strong normality backdoor")
    vt = VarTable(program, x & program.atoms)
    return conj([build_f_mod(program, vt),
                 conj(build_f_min_block(xi, i + 1, vt)
                      for i, xi in enumerate(subsets))]), vt


def build_query(program: Program, x: AtomSet,
                query: QuerySpec) -> tuple[Formula, VarTable]:
    """The program formula plus the query literal, its last root conjunct."""
    atom_id = program.table.id_of(query.atom)
    if atom_id not in program.atoms:
        raise ValueError(f"query atom {query.atom!r} does not occur in the program")
    formula, vt = build_program(program, x)
    query_var = vt.v(atom_id)
    return conj([formula,
                 query_var if query.mode == "brave" else neg(query_var)]), vt


def decode_model(assignment: dict[int, bool], vt: VarTable) -> AtomSet:
    """Read the answer-set candidate off the v variables of a SAT model."""
    mask = 0
    for a in range(vt.n_atoms):
        try:
            if assignment[vt.v(a).id]:
                mask |= 1 << a
        except KeyError:
            raise ValueError(f"assignment misses variable v[{a}]") from None
    return AtomSet(mask)


def write_var_map(vt: VarTable, cnf: CnfFormula, out: IO[str]) -> None:
    """Sidecar map: 'v <id> <atom>', 'u <id> <block> <layer> <atom>', 't <id>'."""
    names = vt.names()
    for var_id in range(1, vt.n_reserved + 1):
        kind, rest = names[var_id].split(" ", 1)
        out.write(f"{kind} {var_id} {rest}\n")
    for var_id in range(vt.n_reserved + 1, cnf.n_vars + 1):
        out.write(f"t {var_id}\n")
