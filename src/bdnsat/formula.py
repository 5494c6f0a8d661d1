"""Boolean formula trees, Tseitin conversion to CNF, and DIMACS output.

Variables are positive integers (DIMACS ids) and constants are bools.
The raw node constructors never simplify; the lowercase builder functions
fold constants so that compile-time facts (backdoor membership, empty
conjunctions) disappear from the tree instead of becoming CNF variables.
Tseitin conversion does not fold again: a constant left below the root of
a raw tree becomes one shared CNF variable fixed to true.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Union


@dataclass(frozen=True)
class Var:
    id: int


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class _Nary:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError(f"{type(self).__name__} needs at least one child")


class And(_Nary):
    pass


class Or(_Nary):
    pass


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Union[bool, Var, Not, And, Or, Iff]


def _fold(node: type[_Nary], unit: bool, children: Iterable[Formula]) -> Formula:
    """Drop unit constants; the opposite constant absorbs; one child stands alone."""
    kept = []
    for child in children:
        if isinstance(child, bool):
            if child is not unit:
                return child
            continue
        kept.append(child)
    if len(kept) > 1:
        return node(tuple(kept))
    return kept[0] if kept else unit


def conj(children: Iterable[Formula]) -> Formula:
    """Conjunction with constant folding; empty conjunctions are true."""
    return _fold(And, True, children)


def disj(children: Iterable[Formula]) -> Formula:
    """Disjunction with constant folding; empty disjunctions are false."""
    return _fold(Or, False, children)


def neg(child: Formula) -> Formula:
    if isinstance(child, bool):
        return not child
    if isinstance(child, Not):
        return child.child
    return Not(child)


def imp(premise: Formula, conclusion: Formula) -> Formula:
    return disj([neg(premise), conclusion])


def iff(left: Formula, right: Formula) -> Formula:
    if isinstance(left, bool):
        return right if left else neg(right)
    if isinstance(right, bool):
        return left if right else neg(left)
    return Iff(left, right)


@dataclass
class CnfFormula:
    """Clause list over variables 1..n_vars."""

    n_vars: int
    clauses: list[tuple[int, ...]]

    def __post_init__(self):
        if not all(self.clauses):
            raise ValueError("empty clause")
        lits = set().union(*self.clauses)
        if lits and (0 in lits or max(lits) > self.n_vars
                     or -min(lits) > self.n_vars):
            bad = next(lit for clause in self.clauses for lit in clause
                       if lit == 0 or abs(lit) > self.n_vars)
            raise ValueError(f"literal {bad} out of range")


def tseitin_cnf(formula: Formula, n_reserved: int) -> CnfFormula:
    """Equisatisfiable CNF: gate clauses for the root, labels below it.

    The root gets no label: a root And asserts each child (nested root
    conjunctions flatten), a root Or is one clause of its children's
    literals, a root Iff(x, G) with G an And or Or is G's gate definition
    with x's literal as output, any other root Iff is two binary clauses,
    and anything else a unit clause.  Every composite node below gets a
    fresh label fixed by its full gate definition, so every model of the
    CNF restricted to the first n_reserved variables satisfies the formula,
    and every model of the formula extends to a CNF model.  A constant root
    gives no clauses (true) or one contradictory pair (false).  A constant
    below the root, which the folding builders never leave, maps to one
    shared label forced true by a unit clause.  Labels are allocated in
    preorder, left to right, so identical inputs give identical clauses.
    """
    clauses: list[tuple[int, ...]] = []
    next_aux = n_reserved + 1
    true_lit = 0

    def fresh() -> int:
        nonlocal next_aux
        aux = next_aux
        next_aux += 1
        return aux

    def define(out: int, node: _Nary) -> None:
        """Clauses for out <-> node: an Or is an And with signs flipped."""
        lits = [lit_of(c) for c in node.children]
        sign = 1 if isinstance(node, And) else -1
        for l in lits:
            clauses.append((-sign * out, sign * l))
        clauses.append(tuple([sign * out] + [-sign * l for l in lits]))

    def lit_of(node: Formula) -> int:
        nonlocal true_lit
        if isinstance(node, Var):
            return node.id
        if isinstance(node, Not):
            return -lit_of(node.child)
        if isinstance(node, _Nary):
            label = fresh()
            define(label, node)
            return label
        if isinstance(node, Iff):
            label = fresh()
            a, b = lit_of(node.left), lit_of(node.right)
            clauses.append((-label, -a, b))
            clauses.append((-label, a, -b))
            clauses.append((label, a, b))
            clauses.append((label, -a, -b))
            return label
        if isinstance(node, bool):
            if not true_lit:
                true_lit = fresh()
                clauses.append((true_lit,))
            return true_lit if node else -true_lit
        raise TypeError(f"cannot label {node!r}")

    def holds(node: Formula) -> None:
        if isinstance(node, And):
            for child in node.children:
                holds(child)
        elif isinstance(node, Or):
            clauses.append(tuple([lit_of(c) for c in node.children]))
        elif isinstance(node, Iff) and isinstance(node.right, _Nary):
            define(lit_of(node.left), node.right)
        elif isinstance(node, Iff):
            a, b = lit_of(node.left), lit_of(node.right)
            clauses.extend([(-a, b), (a, -b)])
        else:
            clauses.append((lit_of(node),))

    if formula is not True:
        holds(formula)
    return CnfFormula(next_aux - 1, clauses)


def emit_dimacs(cnf: CnfFormula, out: IO[str]) -> None:
    """Write DIMACS CNF: header then one zero-terminated clause per line."""
    out.write(f"p cnf {cnf.n_vars} {len(cnf.clauses)}\n")
    for clause in cnf.clauses:
        out.write(" ".join(map(str, clause)))
        out.write(" 0\n")
