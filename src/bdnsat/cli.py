"""Command-line pipeline: parse, detect, check, enumerate, encode, solve, stats.

Verdict exit codes follow SAT-solver convention so the tool composes in
scripts: 10 = yes, 20 = no, 30 = unknown, 1 = error.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from typing import Sequence

from .backdoor import find_backdoor, format_backdoor, parse_backdoor
from .encoding import (QuerySpec, build_program, build_query, decode_model,
                       write_var_map)
from .formula import emit_dimacs, tseitin_cnf
from .mincheck import is_answer_set
from .program import AtomSet, ParseError, Program, parse_program
from .solver import (DEFAULT_TIMEOUT, MAX_TIMEOUT, SAT, UNSAT, SolverConfig,
                     SolverError, models, solve as solve_cnf, valid_timeout)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_YES = 10
EXIT_NO = 20
EXIT_UNKNOWN = 30

SOLVER_ENV_VAR = "BDNSAT_SOLVER"  # names an external solver; beats --solver


def _load(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def _resolve_backdoor(program: Program, spec: str | None) -> AtomSet:
    if spec is not None:
        return parse_backdoor(program, spec)
    backdoor = find_backdoor(program)
    assert backdoor is not None  # max_k defaults to |at(P)|, always coverable
    return backdoor.atoms


def _format_atoms(program: Program, atoms: AtomSet) -> str:
    return "{" + ",".join(sorted(program.atom_names(atoms))) + "}"


def _cmd_parse(args) -> int:
    program = _load(args.file)
    flag = lambda b: "yes" if b else "no"
    print(f"atoms: {len(program.atoms)}")
    print(f"rules: {len(program.rules)}")
    print(f"normal: {flag(program.normal)}")
    print(f"horn: {flag(program.horn)}")
    print(f"negation-free: {flag(program.negation_free)}")
    print(f"tight: {flag(program.tight)}")
    print(f"tautologies removed: {program.tautologies_removed}")
    print(f"duplicate literals removed: {program.duplicates_removed}")
    return EXIT_OK


def _cmd_backdoor(args) -> int:
    program = _load(args.file)
    backdoor = find_backdoor(program, args.max_k)
    if backdoor is None:
        print(f"none within {args.max_k}")
        return EXIT_OK
    print(format_backdoor(program, backdoor.atoms), end="")
    return EXIT_OK


def _cmd_check(args) -> int:
    program = _load(args.file)
    m = program.atom_set(_split_atoms(args.model))
    x = _resolve_backdoor(program, args.backdoor)
    result = is_answer_set(program, m, x)
    print(f"answer set: {'yes' if result.is_answer_set else 'no'}")
    if result.is_answer_set:
        for i, (subset, outcome) in enumerate(zip(result.subsets,
                                                  result.outcomes), start=1):
            fired = ",".join(outcome)
            print(f"subset {i} {_format_atoms(program, subset)}: {fired}")
    elif not result.model_of_reduct:
        print("not a model of its reduct")
    else:
        i = result.first_failure
        print(f"fails at subset {i + 1} "
              f"{_format_atoms(program, result.subsets[i])}")
    return EXIT_OK


def _witness(result, vt, program: Program, x: AtomSet) -> AtomSet:
    """The answer set read off a SAT result, re-checked against the program."""
    m = decode_model(result.assignment, vt)
    if not is_answer_set(program, m, x).is_answer_set:
        raise SolverError("decoded model failed the answer-set re-check")
    return m


def _cmd_enumerate(args) -> int:
    """Print the answer sets; on a timeout, those found, then `unknown`."""
    program = _load(args.file)
    x = _resolve_backdoor(program, None)
    formula, vt = build_program(program, x)
    cnf = tseitin_cnf(formula, vt.n_reserved)
    answer_sets = []
    for result in models(cnf, vt.n_atoms):
        if result.status == SAT:
            answer_sets.append(_witness(result, vt, program, x))
    for m in sorted(answer_sets, key=lambda s: sorted(program.atom_names(s))):
        print(_format_atoms(program, m))
    if result.status == UNSAT:
        return EXIT_OK
    print(f"unknown: {result.diagnostics}")
    return EXIT_UNKNOWN


def _build(args, program: Program):
    x = _resolve_backdoor(program, args.backdoor)
    query = QuerySpec(args.mode, args.atom)
    formula, vt = build_query(program, x, query)
    cnf = tseitin_cnf(formula, vt.n_reserved)
    return x, vt, cnf


def _cmd_encode(args) -> int:
    files = [("FILE", args.file), ("--out", args.out), ("--map", args.map)]
    for (first, path), (second, other) in itertools.combinations(files, 2):
        if other and (os.path.samefile(path, other)
                      if os.path.exists(path) and os.path.exists(other)
                      else os.path.realpath(path) == os.path.realpath(other)):
            raise ValueError(f"{second} {other!r} is the same file as {first}")
    program = _load(args.file)
    _, vt, cnf = _build(args, program)
    with open(args.out, "w", encoding="utf-8") as handle:
        emit_dimacs(cnf, handle)
    if args.map:
        with open(args.map, "w", encoding="utf-8") as handle:
            write_var_map(vt, cnf, handle)
    print(f"blocks: {vt.n_blocks}")
    print(f"variables: {cnf.n_vars}")
    print(f"clauses: {len(cnf.clauses)}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    program = _load(args.file)
    x, vt, cnf = _build(args, program)
    executable = os.environ.get(SOLVER_ENV_VAR) or args.solver
    result = solve_cnf(cnf, SolverConfig(executable, args.timeout))
    if result.status == SAT:
        witness = _format_atoms(program, _witness(result, vt, program, x))
        if args.mode == "brave":
            print(f"yes: {args.atom} is in answer set {witness}")
            return EXIT_YES
        print(f"no: answer set {witness} omits {args.atom}")
        return EXIT_NO
    if result.status == UNSAT:
        if args.mode == "brave":
            print(f"no: {args.atom} is in no answer set")
            return EXIT_NO
        print(f"yes: {args.atom} is in every answer set")
        return EXIT_YES
    print(f"unknown: {result.diagnostics}")
    return EXIT_UNKNOWN


def _cmd_stats(args) -> int:
    rows = []
    for path in args.files:
        program = _load(path)
        backdoor = find_backdoor(program)
        n = len(program.atoms)
        k = backdoor.k
        percent = 100.0 * k / n if n else 0.0
        rows.append((path, n, k, f"{percent:.2f}", "yes" if program.tight else "no"))
    header = ("file", "atoms", "backdoor", "backdoor%", "tight")
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        cells = [str(cell).ljust(widths[i]) if i == 0 else str(cell).rjust(widths[i])
                 for i, cell in enumerate(row)]
        print("  ".join(cells).rstrip())
    return EXIT_OK


def _split_atoms(spec: str) -> list[str]:
    return [name for name in (part.strip() for part in spec.split(",")) if name]


def _seconds(text: str) -> float:
    value = float(text)
    if valid_timeout(value):
        return value
    raise argparse.ArgumentTypeError(
        f"must be > 0 and <= {MAX_TIMEOUT:.0f}, got {text!r}")


def _size(text: str) -> int:
    value = int(text)
    if value >= 0:
        return value
    raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="bdnsat",
        description="Brave/skeptical reasoning for ground disjunctive "
                    "answer-set programs via a normality backdoor and SAT.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a program and print its stats")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("backdoor", help="print a smallest backdoor, sorted")
    p.add_argument("file")
    p.add_argument("--max-k", type=_size, default=None,
                   help="largest backdoor size to try (default: atom count)")
    p.set_defaults(func=_cmd_backdoor)

    p = sub.add_parser("check", help="decide whether a set is an answer set")
    p.add_argument("file")
    p.add_argument("--model", required=True,
                   help="comma-separated atom names")
    p.add_argument("--backdoor", default=None,
                   help="comma-separated backdoor atoms (default: detect)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="list every answer set, by SAT")
    p.add_argument("file")
    p.set_defaults(func=_cmd_enumerate)

    for name in ("encode", "solve"):
        p = sub.add_parser(name, help="compile a query to CNF"
                           + ("" if name == "encode" else " and solve it"))
        p.add_argument("file")
        p.add_argument("--mode", required=True, choices=("brave", "skeptical"))
        p.add_argument("--atom", required=True)
        p.add_argument("--backdoor", default=None)
        if name == "encode":
            p.add_argument("--out", required=True, help="DIMACS output path")
            p.add_argument("--map", default=None, help="variable map sidecar path")
            p.set_defaults(func=_cmd_encode)
        else:
            p.add_argument("--solver", default=None,
                           help="external SAT solver executable "
                                f"(${SOLVER_ENV_VAR} takes precedence)")
            p.add_argument("--timeout", type=_seconds, default=DEFAULT_TIMEOUT)
            p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("stats", help="backdoor-size report for several files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 0 for --help passes through
        return EXIT_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
