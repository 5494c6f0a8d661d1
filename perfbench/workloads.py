"""Seeded inputs and independent reference answers for the benchmark workloads.

Each generator turns a seed and the parameters recorded in workloads.json
into cases (program text plus the answer known for it) and operations (one
CLI call on one case).  The references never touch bdnsat: sweep programs
are decided by a bitmask brute force over at most 7 atoms, and the chain,
ring, padded and head-graph families have closed-form answers.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

EXIT_YES = 10
EXIT_NO = 20


@dataclass(frozen=True)
class Case:
    """One generated program with its reference answer.

    answer_sets is set for query workloads, cover_size and edges for detect.
    group labels the case for per-group reporting (block count, size, family).
    """

    name: str
    text: str
    group: str
    answer_sets: tuple[frozenset[str], ...] = ()
    cover_size: int = 0
    edges: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Op:
    """One CLI call: solve a brave/skeptical query, or detect a backdoor."""

    case: Case
    mode: str = ""  # "brave" | "skeptical"; empty for backdoor detection
    atom: str = ""

    def argv(self, path: str, timeout: float) -> list[str]:
        if not self.mode:
            return ["backdoor", path]
        return ["solve", path, "--mode", self.mode, "--atom", self.atom,
                "--timeout", str(timeout)]

    def expected_exit(self) -> int:
        sets = self.case.answer_sets
        if self.mode == "brave":
            return EXIT_YES if any(self.atom in s for s in sets) else EXIT_NO
        return EXIT_YES if all(self.atom in s for s in sets) else EXIT_NO


def _rule_text(head, pos, neg) -> str:
    body = list(pos) + [f"not {a}" for a in neg]
    head_text = " | ".join(head)
    if not body:
        return f"{head_text}."
    return f"{head_text}{' ' if head else ''}:- {', '.join(body)}."


# --- sweep: random small programs, brute-force reference --------------------

def _random_rules(rng: random.Random, max_atoms: int, max_rules: int):
    """Criterion-3-shaped program: mixed disjunction, negation and constraints.

    Atoms within one rule are distinct, so no rule is tautological and every
    atom written is an atom of the parsed program.
    """
    names = [chr(ord("a") + i) for i in range(rng.randint(2, max_atoms))]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head_size = rng.choices([0, 1, 2, 3], weights=[2, 5, 3, 1])[0]
        pos_size = rng.choices([0, 1, 2], weights=[4, 4, 2])[0]
        neg_size = rng.choices([0, 1, 2], weights=[5, 4, 1])[0]
        if head_size + pos_size + neg_size == 0:
            head_size = 1
        picked = rng.sample(names, min(head_size + pos_size + neg_size,
                                       len(names)))
        rules.append((tuple(picked[:head_size]),
                      tuple(picked[head_size:head_size + pos_size]),
                      tuple(picked[head_size + pos_size:])))
    return rules


def _is_model(m: int, rule_masks) -> bool:
    return all(h & m or p & ~m or n & m for h, p, n in rule_masks)


def brute_force_answer_sets(rules) -> tuple[frozenset[str], ...]:
    """All answer sets by definition: models of the reduct with no smaller model.

    A set M is a model of the GL reduct P^M iff it is a classical model of P,
    so only classical models are tested for minimality, over their submasks.
    """
    atoms = sorted({a for rule in rules for part in rule for a in part})
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    masks = [tuple(sum(bit[a] for a in part) for part in rule)
             for rule in rules]
    found = []
    for m in range(1 << len(atoms)):
        if not _is_model(m, masks):
            continue
        reduct = [(h, p, 0) for h, p, n in masks if not n & m]
        sub = m
        while sub:  # every proper submask of m, down to the empty set
            sub = (sub - 1) & m
            if _is_model(sub, reduct):
                break
        else:
            found.append(frozenset(a for a in atoms if bit[a] & m))
    return tuple(found)


def min_cover_size(edges) -> int:
    """Smallest vertex cover by exhaustive search (sweep graphs have <= 7 atoms)."""
    vertices = sorted({v for e in edges for v in e})
    for size in range(len(vertices) + 1):
        for chosen in itertools.combinations(vertices, size):
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return 0


def sweep(rng: random.Random, quota: dict[str, int], programs: dict[str, int],
          rounds: int, max_atoms: int, max_rules: int, corpus_seed: int):
    """Random programs stratified by backdoor size, queried on every atom.

    The programs are drawn once, from corpus_seed; the run's seed renames
    their atoms, shuffles their rules and orders the queries.  So every seed
    sees the same program shapes, and every round (so every prefix of the
    run) the same backdoor-size mix.  Stratum k holds programs[k] programs;
    a round takes quota[k] queries from stratum k.  Programs with a backdoor
    size that names no stratum are drawn and discarded.
    """
    corpus = random.Random(corpus_seed)
    cases: list[Case] = []
    queries: dict[str, list[Op]] = {k: [] for k in quota}
    kept = dict.fromkeys(quota, 0)
    while any(kept[k] < programs[k] for k in quota):
        rules = _random_rules(corpus, max_atoms, max_rules)
        edges = {e for head, _, _ in rules
                 for e in itertools.combinations(sorted(head), 2)}
        k = str(min_cover_size(edges))
        if k not in quota or kept[k] == programs[k]:
            continue
        kept[k] += 1
        atoms = sorted({a for rule in rules for part in rule for a in part})
        rename = dict(zip(atoms, rng.sample(atoms, len(atoms))))
        rules = [tuple(tuple(rename[a] for a in part) for part in rule)
                 for rule in rules]
        rng.shuffle(rules)
        case = Case(f"sweep{len(cases)}",
                    "".join(_rule_text(*r) + "\n" for r in rules), f"k{k}",
                    brute_force_answer_sets(rules))
        cases.append(case)
        queries[k] += [Op(case, mode, a) for a in atoms
                       for mode in ("brave", "skeptical")]
    for stratum in queries.values():
        rng.shuffle(stratum)
    ops = []
    for r in range(rounds):
        batch = [queries[k][(r * n + i) % len(queries[k])]
                 for k, n in quota.items() for i in range(n)]
        rng.shuffle(batch)
        ops += batch
    return cases, ops


# --- chain: normal k = 0 programs, acyclic and one positive cycle -----------

def _prefix(rng: random.Random) -> str:
    return rng.choice("pqrswxyz")


def chain(rng: random.Random, sizes: list[int], rounds: int):
    """Chains x1. x2 :- x1. ... and the same chain closed by x1 :- xn.

    Round r uses sizes[r % len(sizes)].  x1 is a fact, so every atom of
    either shape is in the unique answer set: brave queries are SAT,
    skeptical queries UNSAT (both answer yes).
    """
    cases, ops = [], []
    for r in range(rounds):
        n = sizes[r % len(sizes)]
        for shape in ("chain", "ring"):
            x = _prefix(rng)
            rules = [((f"{x}1",), (), ())]
            rules += [((f"{x}{i + 1}",), (f"{x}{i}",), ()) for i in range(1, n)]
            if shape == "ring":
                rules.append(((f"{x}1",), (f"{x}{n}",), ()))
            rng.shuffle(rules)
            atoms = frozenset(f"{x}{i}" for i in range(1, n + 1))
            case = Case(f"{shape}{n}_{r}",
                        "".join(_rule_text(*t) + "\n" for t in rules),
                        shape, (atoms,))
            cases.append(case)
            ops.append(Op(case, "brave", f"{x}{rng.randint(1, n)}"))
            ops.append(Op(case, "skeptical", f"{x}{rng.randint(1, n)}"))
    return cases, ops


# --- blocks: padded programs whose smallest backdoor has exactly k atoms ----

def blocks(rng: random.Random, ks: list[int], pairs: int,
           ballasts: list[int], rounds: int):
    """k disjunctions a_i | b_i :- s, normal pairs above k, a ballast chain.

    Round r builds one program per k with ballast chain c1..cB,
    B = ballasts[r % len(ballasts)].  Answer sets: s, c1..cB, every b_i
    above k, and one of a_i, b_i for each i <= k (2^k sets).  So a
    disjunctive a_i is brave but not skeptical, cB is skeptical, and sink
    (needing every a_i and b_i) is in none.
    """
    cases, ops = [], []
    for r in range(rounds):
        ballast = ballasts[r % len(ballasts)]
        for k in ks:
            rules = [(("s",), (), ())]
            prev = "s"
            for j in range(1, ballast + 1):
                rules.append(((f"c{j}",), (prev,), ()))
                prev = f"c{j}"
            for i in range(1, pairs + 1):
                head = (f"a{i}", f"b{i}") if i <= k else (f"b{i}",)
                rules.append((head, ("s",), ()))
            sink_body = tuple(f"{c}{i}" for i in range(1, pairs + 1) for c in "ab")
            rules.append((("sink",), sink_body, ()))
            rng.shuffle(rules)
            base = {"s"} | {f"c{j}" for j in range(1, ballast + 1)} \
                | {f"b{i}" for i in range(k + 1, pairs + 1)}
            answer_sets = tuple(
                frozenset(base | {f"{c}{i + 1}" for i, c in enumerate(choice)})
                for choice in itertools.product("ab", repeat=k))
            case = Case(f"blocks{k}_{r}",
                        "".join(_rule_text(*t) + "\n" for t in rules),
                        f"k{k}", answer_sets)
            cases.append(case)
            ops += [Op(case, "brave", f"a{rng.randint(1, k)}"),
                    Op(case, "skeptical", f"c{ballast}"),
                    Op(case, "brave", "sink")]
    return cases, ops


# --- detect: head graphs with closed-form minimum vertex covers -------------

def _family(name: str, n: int):
    """Edges over vertex indices and the minimum cover size of the family."""
    if name == "matching":  # n disjoint edges
        return [(2 * i, 2 * i + 1) for i in range(n)], n
    if name == "path":  # n vertices
        return [(i, i + 1) for i in range(n - 1)], n // 2
    if name == "cycle":  # n vertices
        return [(i, (i + 1) % n) for i in range(n)], (n + 1) // 2
    if name == "star":  # n leaves around vertex 0
        return [(0, i) for i in range(1, n + 1)], 1
    if name == "clique":  # one head disjunction over n atoms
        return list(itertools.combinations(range(n), 2)), n - 1
    raise ValueError(f"unknown graph family {name!r}")


def detect(rng: random.Random, graphs: dict[str, list[int]], rounds: int):
    """One graph per family and round; round r uses the family's r-th size, cyclically."""
    cases, ops = [], []
    for r in range(rounds):
        for family, sizes in graphs.items():
            n = sizes[r % len(sizes)]
            edges, cover = _family(family, n)
            vertices = sorted({v for e in edges for v in e})
            names = [f"v{i}" for i in vertices]
            rng.shuffle(names)
            name = dict(zip(vertices, names))
            named = tuple((name[u], name[v]) for u, v in edges)
            if family == "clique":
                head = [name[v] for v in vertices]
                rng.shuffle(head)
                heads = [tuple(head)]
            else:
                heads = [tuple(rng.sample(e, 2)) for e in named]
                rng.shuffle(heads)
            case = Case(f"{family}{n}_{r}",
                        "".join(_rule_text(h, (), ()) + "\n" for h in heads),
                        family, cover_size=cover, edges=named)
            cases.append(case)
            ops.append(Op(case))
    return cases, ops


GENERATORS = {"sweep": sweep, "chain": chain, "blocks": blocks, "detect": detect}


def generate(workload: str, seed: int, params: dict):
    """Cases and operations of one workload; the same seed gives the same inputs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), **params)


class WrongVerdict(Exception):
    """The program's answer disagrees with the reference."""


def _witness(out: str) -> frozenset[str] | None:
    start, end = out.find("{"), out.find("}")
    if start < 0 or end < start:
        return None
    return frozenset(a for a in out[start + 1:end].split(",") if a)


def check(op: Op, code: int, out: str) -> None:
    """Raise WrongVerdict unless a decided answer agrees with the reference.

    Codes other than a verdict (unknown, error) are failures, not wrong
    answers, and are left to the caller to count.
    """
    case = op.case
    if not op.mode:
        cover = frozenset(out.split())
        if code == 0 and (len(cover) != case.cover_size
                          or any(u not in cover and v not in cover
                                 for u, v in case.edges)):
            raise WrongVerdict(f"backdoor {sorted(cover)} is not a minimum "
                               f"cover (size {case.cover_size})")
        return
    if code not in (EXIT_YES, EXIT_NO):
        return
    if code != op.expected_exit():
        raise WrongVerdict(f"{op.mode} {op.atom}: exit {code}, "
                           f"reference {op.expected_exit()}")
    witness = _witness(out)
    if witness is not None:
        if witness not in case.answer_sets:
            raise WrongVerdict(f"witness {sorted(witness)} is not an answer set")
        if (op.atom in witness) != (op.mode == "brave"):
            raise WrongVerdict(f"witness {sorted(witness)} does not settle "
                               f"{op.mode} {op.atom}")
