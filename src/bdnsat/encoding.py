"""Compile brave/skeptical queries into a single propositional formula.

The formula is satisfiable iff some subset M of at(P), read off the v
variables, is an answer set meeting the query.  One block per subset X_i
of the backdoor reproduces the fixed-parameter minimality subprocedure
symbolically: layered u variables simulate the least-model computation of
the restricted reduct, and disjuncts mirror its accept conditions ((c)
keeps only its L union X_i = M half; the rest repeats the premise and (b)).
A query adds its literal to the program formula as one more root conjunct.
Backdoor membership tests are compile-time constants and are folded away.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Literal

from .backdoor import verify_strong_backdoor
from .formula import Formula, Not, Var, conj, disj, iff, imp, neg, CnfFormula
from .mincheck import backdoor_subsets, restrict_program
from .program import AtomSet, Program


class VarTable:
    """Variable ids: v vars 1..n, then u vars in build order, then labels.

    v returns the one Var of an atom; new_u hands out each u variable and
    records its (block, layer, atom) cell.
    """

    def __init__(self, program: Program, backdoor_atoms: AtomSet):
        self.program = program
        self.n_atoms = len(program.table)
        self.p = min(len(program.rules), len(program.table))
        self.n_blocks = 1 << len(backdoor_atoms)
        self.cells: list[tuple[int, int, int]] = []
        self._v = [Var(a + 1) for a in range(self.n_atoms)]

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
    """One conjunct per rule: the v assignment is a model of the symbolic reduct."""
    parts = []
    for r in program.rules:
        premise = conj(neg(vt.v(b)) for b in r.neg_body)
        conclusion = disj([neg(vt.v(b)) for b in r.pos_body]
                          + [vt.v(b) for b in r.head])
        parts.append(imp(premise, conclusion))
    return conj(parts)


def build_f_lm_block(restricted: Program, block: int,
                     vt: VarTable) -> tuple[Formula, list[Formula]]:
    """Layered least-model simulation for one backdoor subset: (F_lm, last row).

    `restricted` is the program restricted to that subset (restrict_program).
    A layer is a row of formulas, one per atom.  Layer 0 is all false; layer
    j derives an atom if it was already derived or some restricted rule with
    that head fires, its positive body read at layer j-1 and its negative
    body checked against the v variables (the symbolic GL reduct).  Layer p
    is the fixpoint.  A cell gets a u variable, defined by `u <-> cell`,
    only if it is new:
    - a constant or literal cell equals the gate it would have defined;
    - if an atom's firings equal, structurally, the list that last changed
      its cell, that cell already implies them, and layer values grow with
      j, so the cell at layer j is the one at j-1;
    - a layer equal to the one before it is the fixpoint, so the loop stops.
    Every u is defined over v and earlier cells, so v fixes every u.  In a
    negation-free program every firing folds to a constant and no u is made.

    The work follows the changes (semi-naive evaluation).  Layer 1 computes
    every atom; layer j > 1 computes, in ascending order, only the readers
    of the cells that changed at layer j-1: the heads of the rules with such
    a cell in their positive body.  Any other atom reads the same cells as
    at layer j-1, so its firings equal the list that last changed its cell
    and the rule above would keep the cell anyway.  A layer's changed cells
    are written to the one row after the layer, so every read is of layer
    j-1, and the loop stops at the first layer that changes no cell.  The u
    variables, their order and every formula are therefore those of a full
    recompute, and a chain of n atoms costs 2n firing computations, not n^2.
    """
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


def build_f_min_block(program: Program, x: AtomSet, xi: AtomSet, block: int,
                      vt: VarTable) -> Formula:
    """Block formula: F_lm, and the subset premise fails or L is accepted.

    The accept disjuncts state that the simulated least model L (read at
    layer p) (a) breaks a restricted constraint, (b) leaks out of M minus
    X, (c) makes L union X_i equal M, or (d) breaks a rule of the reduct.
    The paper's (c) also accepts an overflow and asks for X_i inside M, but
    restriction clears X from the heads, so an overflow is the failed
    premise or (b), and X_i inside M is the premise: (c) needs only
    `v_a <-> L_a` for a outside X_i.  The paper puts F_lm under the premise;
    here it is asserted outside.  F_lm fixes the block's u variables as a
    function of v, so it holds for exactly one u assignment per v
    assignment, and the v projections of the models stay the same.  Its
    `u <-> ...` definitions then become root gate clauses in tseitin_cnf.
    """
    restricted = restrict_program(program, x, xi)
    subset_premise = conj(vt.v(a) for a in xi)
    f_lm, up = build_f_lm_block(restricted, block, vt)
    f_a = disj(conj([neg(vt.v(b)) for b in r.neg_body]
                    + [up[b] for b in r.pos_body])
               for r in restricted.rules if not r.head)
    f_b = disj(conj([neg(vt.v(a)), up[a]])
               for a in range(vt.n_atoms) if a not in x)
    f_c = conj(iff(vt.v(a), up[a]) for a in range(vt.n_atoms) if a not in xi)
    f_d_parts = []
    for r in program.rules:
        if r.head.mask & xi.mask:
            continue
        f_d_parts.append(conj(
            [neg(vt.v(a)) for a in r.neg_body]
            + [neg(up[a]) for a in r.head]
            + [up[b] for b in r.pos_body if b not in xi]))
    f_d = disj(f_d_parts)
    return conj([f_lm, disj([neg(subset_premise), f_a, f_b, f_c, f_d])])


def build_program(program: Program, x: AtomSet) -> tuple[Formula, VarTable]:
    """F_mod and all minimality blocks: its v projections are the answer sets."""
    subsets = backdoor_subsets(program, x)  # guards 2^k before any building
    if not verify_strong_backdoor(program, x):
        raise ValueError("x is not a strong normality backdoor")
    effective = x & program.atoms
    vt = VarTable(program, effective)
    return conj([build_f_mod(program, vt),
                 conj(build_f_min_block(program, effective, xi, i + 1, vt)
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
