"""Compile brave/skeptical queries into a single propositional formula.

The formula is satisfiable iff some subset M of at(P), read off the v
variables, is an answer set meeting the query.  One block per subset X_i
of the backdoor reproduces the fixed-parameter minimality subprocedure
symbolically: layered u variables simulate the least-model computation of
the restricted reduct, and four disjuncts mirror its accept conditions.
Backdoor membership tests are compile-time constants and are folded away.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Literal

from .backdoor import verify_strong_backdoor
from .formula import Formula, Var, conj, disj, iff, imp, neg, CnfFormula
from .mincheck import backdoor_subsets, restrict_program
from .program import AtomSet, Program


class VarTable:
    """Deterministic variable layout: v vars, then block-strided u vars, then labels.

    v[a] holds 1..n over the atom table; u vars for block i (1-based) and
    layer j (0..p) follow in one contiguous stride per block, so blocks can
    be built independently without coordination.
    """

    def __init__(self, program: Program, backdoor_atoms: AtomSet):
        self.program = program
        self.n_atoms = len(program.table)
        self.p = min(len(program.rules), len(program.table))
        self.n_blocks = 1 << len(backdoor_atoms)
        self.first_aux = (self.n_atoms
                          + self.n_blocks * (self.p + 1) * self.n_atoms + 1)

    def v(self, atom_id: int) -> Var:
        return Var(atom_id + 1)

    def u(self, block: int, layer: int, atom_id: int) -> Var:
        if not 1 <= block <= self.n_blocks:
            raise ValueError(f"block {block} out of range")
        if not 0 <= layer <= self.p:
            raise ValueError(f"layer {layer} out of range")
        offset = ((block - 1) * (self.p + 1) + layer) * self.n_atoms
        return Var(self.n_atoms + offset + atom_id + 1)

    def layers(self, block: int) -> list[list[Var]]:
        """The u variables of one block, indexed [layer][atom]."""
        return [[self.u(block, layer, a) for a in range(self.n_atoms)]
                for layer in range(self.p + 1)]

    @property
    def n_reserved(self) -> int:
        return self.first_aux - 1

    def names(self) -> dict[int, str]:
        table = self.program.table
        out = {a + 1: f"v {table.name_of(a)}" for a in range(self.n_atoms)}
        for block in range(1, self.n_blocks + 1):
            for layer, row in enumerate(self.layers(block)):
                for a, var in enumerate(row):
                    out[var.id] = f"u {block} {layer} {table.name_of(a)}"
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


def build_f_lm_block(restricted: Program, layers: list[list[Var]],
                     vt: VarTable) -> Formula:
    """Layered least-model simulation for one backdoor subset.

    `restricted` is the program restricted to that subset (restrict_program)
    and `layers` is its block's u variables (VarTable.layers).  Layer 0 is
    all-false; layer j derives an atom if it was already derived or some
    restricted rule with that head fires, its positive body read at layer
    j-1 and its negative body checked against the v variables (the symbolic
    GL reduct).  After p layers the fixpoint is reached.
    """
    deriving: dict[int, list] = {a: [] for a in range(vt.n_atoms)}
    for r in restricted.rules:
        if not r.head:
            continue
        (head_atom,) = tuple(r.head)
        deriving[head_atom].append(r)
    parts = []
    for a in range(vt.n_atoms):
        parts.append(neg(layers[0][a]))
        for j in range(1, vt.p + 1):
            prev = layers[j - 1]
            firings = [conj([prev[b] for b in r.pos_body]
                            + [neg(vt.v(b)) for b in r.neg_body])
                       for r in deriving[a]]
            parts.append(iff(layers[j][a], disj([prev[a]] + firings)))
    return conj(parts)


def build_f_min_block(program: Program, x: AtomSet, xi: AtomSet, block: int,
                      vt: VarTable) -> Formula:
    """Block formula: F_lm, and the subset premise fails or L is accepted.

    The four accept disjuncts state that the simulated least model L (read
    at layer p) breaks a restricted constraint, leaks out of M minus X,
    makes L union X_i improper in M, or breaks a rule of the reduct.  The
    paper puts F_lm under the premise; here it is asserted outside.  F_lm
    fixes the block's u variables as a function of v, so it holds for
    exactly one u assignment per v assignment, and the v projections of the
    models stay the same.  Its `u <-> ...` definitions then become root
    gate clauses in tseitin_cnf.
    """
    restricted = restrict_program(program, x, xi)
    layers = vt.layers(block)
    up = layers[vt.p]
    subset_premise = conj(vt.v(a) for a in xi)
    f_lm = build_f_lm_block(restricted, layers, vt)
    f_a = disj(conj([neg(vt.v(b)) for b in r.neg_body]
                    + [up[b] for b in r.pos_body])
               for r in restricted.rules if not r.head)
    f_b = disj(conj([neg(vt.v(a)), up[a]])
               for a in range(vt.n_atoms) if a not in x)
    equals_m = conj(vt.v(a) if a in xi else iff(vt.v(a), up[a])
                    for a in range(vt.n_atoms))
    overflows_m = disj(neg(vt.v(a)) if a in xi else conj([up[a], neg(vt.v(a))])
                       for a in range(vt.n_atoms))
    f_c = disj([equals_m, overflows_m])
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


def build_query(program: Program, x: AtomSet,
                query: QuerySpec) -> tuple[Formula, VarTable]:
    """F_mod and all minimality blocks, plus the query literal."""
    subsets = backdoor_subsets(program, x)  # guards 2^k before any building
    if not verify_strong_backdoor(program, x):
        raise ValueError("x is not a strong normality backdoor")
    atom_id = program.table.id_of(query.atom)
    if atom_id not in program.atoms:
        raise ValueError(f"query atom {query.atom!r} does not occur in the program")
    effective = x & program.atoms
    vt = VarTable(program, effective)
    query_var = vt.v(atom_id)
    return conj([build_f_mod(program, vt),
                 conj(build_f_min_block(program, effective, xi, i + 1, vt)
                      for i, xi in enumerate(subsets)),
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
    for var_id in range(vt.first_aux, cnf.n_vars + 1):
        out.write(f"t {var_id}\n")
