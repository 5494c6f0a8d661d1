"""Fixed-parameter answer-set checking via a normality backdoor.

Given a verified strong backdoor X, a model M of the GL reduct is minimal
iff a linear-time subprocedure succeeds for every subset X1 of X.  The
subprocedure restricts the reduct, computes a least model L, and accepts
when one of five conditions rules out a counterexample model M' with
M' intersect X = X1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .backdoor import verify_strong_backdoor
from .program import (AtomSet, Program, Rule, gl_reduct, is_model,
                      least_model, satisfies)

SUBSET_ATOM_LIMIT = 20


@dataclass(frozen=True)
class AnswerSetCheck:
    """Aggregate result of the 2^k subset sweep.

    Each outcome lists, in checking order, the labels among "1", "a", "b",
    "c", "d" that held in one subprocedure run; several may hold at once
    and all are reported.  An empty outcome is a failed run.
    """

    model_of_reduct: bool
    subsets: tuple[AtomSet, ...]
    outcomes: tuple[tuple[str, ...], ...]

    def __bool__(self) -> bool:
        return self.is_answer_set

    @property
    def is_answer_set(self) -> bool:
        return self.model_of_reduct and all(self.outcomes)

    @property
    def first_failure(self) -> int | None:
        for i, outcome in enumerate(self.outcomes):
            if not outcome:
                return i
        return None


def restrict_program(program: Program, x: AtomSet, x1: AtomSet) -> Program:
    """Drop rules whose head meets x1; clear x from heads and x1 from positive bodies.

    Negative bodies are untouched.  Rules that end up completely empty are
    kept: they are unsatisfiable constraints and must stay visible.
    """
    if not x1.issubset(x):
        raise ValueError("x1 must be a subset of x")
    rules = []
    for r in program.rules:
        if r.head.mask & x1.mask:
            continue
        rules.append(Rule(r.head - x, r.pos_body - x1, r.neg_body))
    return Program(program.table, rules)


def _subprocedure(reduct: Program, m: AtomSet, x: AtomSet,
                  x1: AtomSet) -> tuple[str, ...]:
    """One MinCheck run against a precomputed GL reduct of the program under m."""
    fired: list[str] = []
    if not x1.issubset(m):
        return ("1",)
    restricted = restrict_program(reduct, x, x1)
    if not restricted.horn:
        raise AssertionError("restricted reduct is not Horn; backdoor unverified?")
    lm = least_model(restricted)
    # (a) the least model breaks a constraint of the restricted program
    if any(not satisfies(lm, r) for r in restricted.rules if r.is_constraint):
        fired.append("a")
    # (b) the least model leaves m minus x
    if lm.mask & ~(m.mask & ~x.mask):
        fired.append("b")
    # (c) the least model joined with x1 is not a proper subset of m
    lux = lm | x1
    if lux == m or lux.mask & ~m.mask:
        fired.append("c")
    # (d) the least model joined with x1 is not a model of the reduct
    if not is_model(lux, reduct):
        fired.append("d")
    return tuple(fired)


def backdoor_subsets(program: Program, x: AtomSet) -> tuple[AtomSet, ...]:
    """Subsets of x restricted to at(P), in binary-counter order over ascending ids.

    More than SUBSET_ATOM_LIMIT program atoms in x raise ValueError.
    """
    mask = x.mask & program.atoms.mask
    if mask.bit_count() > SUBSET_ATOM_LIMIT:
        raise ValueError(
            f"backdoor has {mask.bit_count()} program atoms, above the "
            f"2^{SUBSET_ATOM_LIMIT} subset guard")
    subsets = [0]
    while subsets[-1] != mask:  # the next submask of mask, ascending
        subsets.append((subsets[-1] - mask) & mask)
    return tuple(map(AtomSet, subsets))


def is_answer_set(program: Program, m: AtomSet, x: AtomSet) -> AnswerSetCheck:
    """Decide whether m is an answer set of program, using backdoor x.

    m must be a model of the GL reduct, and the subprocedure must succeed
    for every subset of x (2^|x intersect at(P)| of them).  Outcomes are
    reported per subset in enumeration order, so the smallest failing
    subset index is reproducible regardless of evaluation strategy.
    """
    subsets = backdoor_subsets(program, x)
    if not verify_strong_backdoor(program, x):
        raise ValueError("x is not a strong normality backdoor")
    reduct = gl_reduct(program, m)
    if not is_model(m, reduct):
        return AnswerSetCheck(False, subsets, ())
    return AnswerSetCheck(True, subsets, tuple(_subprocedure(reduct, m, x, x1)
                                               for x1 in subsets))
