"""Ground disjunctive logic programs: representation, parsing, reducts, least models.

A program is an ordered list of rules ``H :- B+, not B-`` over a fixed atom
table.  Atom ids are small dense integers assigned in order of first textual
appearance, so every downstream artifact (graphs, covers, formulas, DIMACS)
is deterministic.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class ParseError(ValueError):
    """Syntax or structural error in program text, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class AtomSet:
    """Immutable set of atom ids backed by an int bitmask.

    Membership is O(1); iteration yields ids in ascending order.  Set
    operations never inspect an atom table, so results stay valid in the
    owning program's id space.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("AtomSet is immutable")

    @classmethod
    def of(cls, ids: Iterable[int]) -> "AtomSet":
        mask = 0
        for i in ids:
            mask |= 1 << i
        return cls(mask)

    def __contains__(self, atom_id: int) -> bool:
        return bool(self.mask >> atom_id & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, AtomSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __and__(self, other: "AtomSet") -> "AtomSet":
        return AtomSet(self.mask & other.mask)

    def __or__(self, other: "AtomSet") -> "AtomSet":
        return AtomSet(self.mask | other.mask)

    def __sub__(self, other: "AtomSet") -> "AtomSet":
        return AtomSet(self.mask & ~other.mask)

    def issubset(self, other: "AtomSet") -> bool:
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "AtomSet") -> bool:
        return self.mask & other.mask == 0

    def __repr__(self) -> str:
        return f"AtomSet({{{', '.join(map(str, self))}}})"


EMPTY_SET = AtomSet(0)


class AtomTable:
    """Bijection between atom names and dense ids 0..n-1."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ValueError("duplicate atom names in table")

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown atom {name!r}") from None

    def name_of(self, atom_id: int) -> str:
        return self.names[atom_id]

    def __eq__(self, other) -> bool:
        return isinstance(other, AtomTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def set_of(self, names: Iterable[str]) -> AtomSet:
        return AtomSet.of(self.id_of(n) for n in names)

    def names_of(self, atoms: AtomSet) -> tuple[str, ...]:
        return tuple(self.names[i] for i in atoms)


@dataclass(frozen=True)
class Rule:
    """One rule: head atoms, positive body atoms, negative body atoms."""

    head: AtomSet
    pos_body: AtomSet
    neg_body: AtomSet

    @property
    def atoms(self) -> AtomSet:
        return AtomSet(self.head.mask | self.pos_body.mask | self.neg_body.mask)

    @property
    def is_tautological(self) -> bool:
        return not self.pos_body.isdisjoint(self.head | self.neg_body)

    @property
    def is_constraint(self) -> bool:
        return not self.head


class Program:
    """Ordered rules over a shared atom table, with derived class flags.

    Instances are immutable; programs derived by reducts or deletions share
    the original table so atom ids keep their meaning.
    """

    def __init__(self, table: AtomTable, rules: Iterable[Rule],
                 tautologies_removed: int = 0, duplicates_removed: int = 0):
        self.table = table
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.tautologies_removed = tautologies_removed
        self.duplicates_removed = duplicates_removed
        atoms_mask = 0
        normal = negation_free = True
        for r in self.rules:
            atoms_mask |= r.atoms.mask
            if len(r.head) > 1:
                normal = False
            if r.neg_body:
                negation_free = False
        self.atoms = AtomSet(atoms_mask)
        self.normal = normal
        self.horn = normal and negation_free
        self.negation_free = negation_free

    def __eq__(self, other) -> bool:
        return (isinstance(other, Program) and self.table == other.table
                and self.rules == other.rules)

    def __hash__(self) -> int:
        return hash((self.table, self.rules))

    @cached_property
    def tight(self) -> bool:
        """True iff every positive-dependency SCC is one atom with no self-loop."""
        return (all(len(c) == 1 for c in positive_sccs(self))
                and not any(r.head.mask & r.pos_body.mask for r in self.rules))

    def atom_set(self, names: Iterable[str]) -> AtomSet:
        return self.table.set_of(names)

    def atom_names(self, atoms: AtomSet) -> tuple[str, ...]:
        return self.table.names_of(atoms)


def positive_sccs(program: Program) -> list[AtomSet]:
    """SCCs of the positive dependency graph (head -> positive body), sinks
    first, by iterative Tarjan over atoms and successors in ascending id."""
    succ: dict[int, int] = {}
    for r in program.rules:
        for h in r.head:
            succ[h] = succ.get(h, 0) | r.pos_body.mask
    low, stack, sccs, closed = {-1: -1}, [], [], len(program.atoms) + 1
    # -1 is a virtual root over all atoms; its index -2 never equals its low
    work = [(-1, -2, 0, list(program.atoms)[::-1])]
    while work:
        v, index, height, todo = work[-1]  # todo: successors left, descending
        while todo and todo[-1] in low:  # a child is met here again on return
            low[v] = min(low[v], low[todo.pop()])
        if todo:
            w = todo[-1]
            work.append((w, len(low), len(stack), list(AtomSet(succ.get(w, 0)))[::-1]))
            low[w] = len(low)
            stack.append(w)
        else:
            work.pop()
            if low[v] == index:
                scc, stack[height:] = stack[height:], []
                low.update(dict.fromkeys(scc, closed))  # above every index
                sccs.append(AtomSet.of(scc))
    return sccs


# --- parsing ----------------------------------------------------------------

# Groups: 1 newline, 2 punctuation or end of text, 3 identifier, 4 a bad
# character; blanks and comments match no group.
_TOKEN_RE = re.compile(
    r"[ \t\r]+|%[^\n]*|(\n)|(:-|[|,.]|\Z)|([a-z][A-Za-z0-9_]*)|(.)")

# state -> {token: (next state, part its atom joins: 0 head, 1 positive body,
# 2 negative body)}.  Identifiers read as "ident", except "not", which marks a
# negative literal and is reserved everywhere else; "" is the end of text.
_MOVES = {
    "rule": {"ident": ("head", 0), ":-": ("lit", None), "": ("rule", None)},
    "head": {"|": ("atom", None), ":-": ("lit", None), ".": ("rule", None)},
    "atom": {"ident": ("head", 0)},
    "lit": {"ident": ("body", 1), "not": ("neg", None)},
    "neg": {"ident": ("body", 2)},
    "body": {",": ("lit", None), ".": ("rule", None)},
}
_EXPECTED = {"rule": "rule", "head": "'dot'", "body": "'dot'",
             "atom": "'ident'", "lit": "'ident'", "neg": "'ident'"}


def parse_program(text: str) -> Program:
    """Parse program text into a Program in one pass.

    Duplicate atoms within a rule part are dropped and counted, and
    tautological rules (pos body meets head or neg body) are dropped and
    counted.  Atom ids follow first appearance in the surviving rules, head
    before positive before negative body.  A syntax error raises ParseError
    at the first fault in reading order.
    """
    ids: dict[str, int] = {}
    rules, tautologies, duplicates = [], 0, 0
    state, parts, line, line_start = "rule", ([], [], []), 1, 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        if group == 1:
            line, line_start = line + 1, m.end()
            continue
        token, column = m.group(group), m.start() - line_start + 1
        if group == 4:
            raise ParseError(f"unexpected character {token!r}", line, column)
        kind = "ident" if group == 3 and token != "not" else token
        moves = _MOVES[state]
        if kind not in moves:
            if kind == "not" and "ident" in moves:
                raise ParseError("'not' is reserved and cannot name an atom",
                                 line, column)
            if state == "lit" and kind == "." and not any(parts):
                raise ParseError("rule with empty head and empty body", *start)
            raise ParseError(f"expected {_EXPECTED[state]}, found {token!r}",
                             line, column)
        if state == "rule":
            start = line, column
        state, part = moves[kind]
        if part is not None:
            parts[part].append(token)
        elif kind == ".":
            head, pos_body, neg_body = sets = [set(names) for names in parts]
            duplicates += sum(map(len, parts)) - sum(map(len, sets))
            if pos_body & (head | neg_body):
                tautologies += 1
            else:
                masks = [0, 0, 0]
                for i, names in enumerate(parts):
                    for name in names:
                        masks[i] |= 1 << ids.setdefault(name, len(ids))
                rules.append(Rule(*map(AtomSet, masks)))
            parts = ([], [], [])
    return Program(AtomTable(ids), rules, tautologies_removed=tautologies,
                   duplicates_removed=duplicates)


# --- semantics --------------------------------------------------------------

def satisfies(m: AtomSet, rule: Rule) -> bool:
    """True iff m satisfies the rule: (H u B-) meets m, or B+ is not contained in m."""
    if (rule.head.mask | rule.neg_body.mask) & m.mask:
        return True
    return rule.pos_body.mask & ~m.mask != 0


def is_model(m: AtomSet, program: Program) -> bool:
    return all(satisfies(m, r) for r in program.rules)


def gl_reduct(program: Program, m: AtomSet) -> Program:
    """GL reduct: drop rules whose negative body meets m, strip B- from the rest."""
    rules = []
    for r in program.rules:
        if r.neg_body.mask & m.mask:
            continue
        rules.append(Rule(r.head, r.pos_body, EMPTY_SET) if r.neg_body else r)
    return Program(program.table, rules)


def least_model(program: Program) -> AtomSet:
    """Least model of the non-constraint part of a Horn program.

    Worklist algorithm with per-rule counters of unsatisfied positive body
    atoms; linear in program size.  Constraints are ignored here; callers
    check the result against them if needed.
    """
    if not program.horn:
        raise ValueError("least_model requires a Horn program")
    rules = [r for r in program.rules if not r.is_constraint]
    counts = [len(r.pos_body) for r in rules]
    triggers: dict[int, list[int]] = {}
    for idx, r in enumerate(rules):
        for b in r.pos_body:
            triggers.setdefault(b, []).append(idx)
    derived = 0
    queue = [next(iter(r.head)) for r, c in zip(rules, counts) if c == 0]
    while queue:
        atom = queue.pop()
        bit = 1 << atom
        if derived & bit:
            continue
        derived |= bit
        for idx in triggers.get(atom, ()):
            counts[idx] -= 1
            if counts[idx] == 0:
                head_atom = next(iter(rules[idx].head))
                if not derived >> head_atom & 1:
                    queue.append(head_atom)
    return AtomSet(derived)
