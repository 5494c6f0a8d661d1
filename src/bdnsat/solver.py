"""SAT solving: a built-in DPLL for hermetic runs, or an external process.

The internal solver is deliberately plain (unit propagation through watched
literals on the clauses as given, chronological backtracking, no clause
learning); it exists so the pipeline and tests run without any system
solver, and it can go on past a model to list them all.  It reports
decision, conflict and propagation counts; external results leave them at
0.  External solvers are invoked as ``<exe> <cnf-file>`` and read back in
SAT-competition output format.
"""
from __future__ import annotations

import os
import re
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Iterator

from .formula import CnfFormula, emit_dimacs

DEFAULT_TIMEOUT = 60.0
MAX_TIMEOUT = 1e6  # seconds; subprocess waits overflow near 2.1e6 s on Linux

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SatResult:
    status: str
    assignment: dict[int, bool] | None = None
    diagnostics: str = ""
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0  # implied literals

    def __post_init__(self):
        if (self.status == SAT) != (self.assignment is not None):
            raise ValueError("assignment present iff status is SAT")


def valid_timeout(seconds: float) -> bool:
    return 0 < seconds <= MAX_TIMEOUT  # false for nan too


@dataclass(frozen=True)
class SolverConfig:
    """Solve with ``executable`` when it is set, else with the internal DPLL."""

    executable: str | None = None
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not valid_timeout(self.timeout):
            raise ValueError(f"timeout must be > 0 and <= {MAX_TIMEOUT:.0f}, "
                             f"got {self.timeout!r}")


def solve(cnf: CnfFormula, config: SolverConfig) -> SatResult:
    """Run the configured solver and verify any model returned."""
    if not config.executable:
        return next(models(cnf, cnf.n_vars, config.timeout))
    result = _solve_external(cnf, config)
    if result.status == SAT:
        _check_model(cnf, result.assignment)
    return result


def _check_model(cnf: CnfFormula, assignment: dict[int, bool]) -> None:
    for var in range(1, cnf.n_vars + 1):
        if var not in assignment:
            raise SolverError(f"model misses variable {var}")
    true = {var if val else -var for var, val in assignment.items()}
    unsatisfied = next(filter(true.isdisjoint, cnf.clauses), None)
    if unsatisfied is not None:
        raise SolverError(f"model does not satisfy clause {unsatisfied}")


# --- internal DPLL ----------------------------------------------------------

def models(cnf: CnfFormula, project: int,
           timeout: float = DEFAULT_TIMEOUT) -> Iterator[SatResult]:
    """Internal DPLL: one checked model per assignment of variables 1..project.

    Yields the models, then UNSAT (none left) or UNKNOWN (the one deadline
    has passed); counters are totals so far.  Variables are decided in id
    order, so 1..project are set before any other; after a model the search
    drops the decisions above them and backtracks as after a conflict, so no
    projection repeats and the search tree is walked once.

    Each clause's first two literals are watched, as given.  A clause turns
    false only when its last non-false literal does, which is watched (maybe
    in both slots), so the conflict is found; a tautology never propagates
    or conflicts.  Copies of one last literal wait for the conflict
    (``(1, 2, 1)`` after ``-2``); the search stays sound (models pass
    ``_check_model``) and complete (backtracking is chronological).

    ``value`` and ``watches`` are indexed by literal: a negative literal
    indexes from the end of a list of length ``2n + 1``.
    """
    deadline = time.monotonic() + timeout
    n = cnf.n_vars
    value = [0] * (2 * n + 1)  # 0 unknown, 1 true, -1 false
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
    units = []
    for clause in cnf.clauses:
        if len(clause) == 1:
            units.append(clause[0])
        else:
            clause = list(clause)
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)

    trail: list[int] = []
    decisions: list[tuple[int, int, bool]] = []  # (var, trail length, flipped)
    n_decisions = n_conflicts = n_implied = 0

    def assign(lit: int) -> bool:
        """Set lit and propagate; on a conflict the trail is left to undo."""
        nonlocal n_implied
        if value[lit]:
            return value[lit] == 1
        value[lit], value[-lit] = 1, -1
        head = len(trail)
        trail.append(lit)
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            ws = watches[false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                clause = ws[i]
                i += 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                if value[first] == 1:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if value[other] != -1:
                        clause[1], clause[k] = other, false_lit
                        watches[other].append(clause)
                        break
                else:
                    ws[j] = clause
                    j += 1
                    if value[first] == -1:
                        del ws[j:i]
                        return False
                    value[first], value[-first] = 1, -1
                    trail.append(first)
                    n_implied += 1
            del ws[j:]
        return True

    def result(status: str) -> SatResult:
        model = None
        if status == SAT:
            model = {v: value[v] == 1 for v in range(1, n + 1)}
            _check_model(cnf, model)
        return SatResult(status, model,
                         diagnostics="timeout" if status == UNKNOWN else "",
                         decisions=n_decisions, conflicts=n_conflicts,
                         propagations=n_implied)

    for lit in units:
        fresh = not value[lit]
        if not assign(lit):
            n_conflicts += 1
            yield result(UNSAT)
            return
        n_implied += fresh

    next_var, limit = 1, n
    while True:
        while next_var <= n and value[next_var]:
            next_var += 1
        if next_var > n:
            yield result(SAT)
            ok, limit = False, project  # below the projection: no new model
        elif time.monotonic() > deadline:
            yield result(UNKNOWN)
            return
        else:
            n_decisions += 1
            decisions.append((next_var, len(trail), False))
            ok = assign(next_var)
            n_conflicts += not ok
        while not ok:
            while decisions and (decisions[-1][2] or decisions[-1][0] > limit):
                decisions.pop()
            limit = n
            if not decisions:
                yield result(UNSAT)
                return
            var, length, _ = decisions.pop()
            while len(trail) > length:
                lit = trail.pop()
                value[lit] = value[-lit] = 0
            decisions.append((var, length, True))
            ok = assign(-var)
            n_conflicts += not ok
            next_var = var  # every variable below a decision is assigned


# --- external solver --------------------------------------------------------

_STATUS_RE = re.compile(r"^s\s+(SATISFIABLE|UNSATISFIABLE)\s*$", re.M)
_VALUE_RE = re.compile(r"^v\s+(.*)$", re.M)


def parse_solver_output(stdout: str, n_vars: int) -> tuple[str, dict[int, bool] | None]:
    """Parse SAT-competition output: 's' status line and 'v' literal lines."""
    match = _STATUS_RE.search(stdout)
    if match is None:
        return UNKNOWN, None
    if match.group(1) == "UNSATISFIABLE":
        return UNSAT, None
    assignment: dict[int, bool] = {}
    for line in _VALUE_RE.findall(stdout):
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise SolverError(f"solver printed a bad value {token!r}") from None
            if lit == 0:
                continue
            assignment[abs(lit)] = lit > 0
    for var in range(1, n_vars + 1):
        assignment.setdefault(var, False)
    return SAT, assignment


def _solve_external(cnf: CnfFormula, config: SolverConfig) -> SatResult:
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", prefix="bdnsat-",
                                     delete=False) as handle:
        path = handle.name
        emit_dimacs(cnf, handle)
    try:
        try:
            proc = subprocess.run([config.executable, path],
                                  capture_output=True, text=True,
                                  timeout=config.timeout)
        except subprocess.TimeoutExpired:
            return SatResult(UNKNOWN, diagnostics=f"timeout after {config.timeout}s")
        except OSError as exc:
            return SatResult(UNKNOWN, diagnostics=f"process failure: {exc}")
        status, assignment = parse_solver_output(proc.stdout, cnf.n_vars)
        if status == UNKNOWN:
            # SAT-competition exit codes are also accepted as signals
            if proc.returncode == 20:
                status = UNSAT
            elif proc.returncode == 10:
                raise SolverError(
                    "solver signalled SAT via exit code but printed no model")
            else:
                return SatResult(UNKNOWN,
                                 diagnostics=_trim(proc.stdout + proc.stderr))
        return SatResult(status, assignment)
    finally:
        os.unlink(path)


def _trim(text: str, limit: int = 400) -> str:
    return text if len(text) <= limit else text[:limit] + "..."
