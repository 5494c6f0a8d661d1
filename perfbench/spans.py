"""Spans and counts recorded around bdnsat's public functions, from outside.

The tracer replaces module attributes with timing wrappers only while it is
installed, so the untraced measurement runs the program unmodified.  Spans
are kept in memory as (operation, name, start, end, parent) and written out
when the run ends.  A layer's self time is its spans' duration minus the
part covered by their child spans.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Counts that depend only on the input; two runs of one seed must agree.
SIZE_COUNTS = ("program.atoms", "program.rules", "backdoor.k",
               "backdoor.cover_calls", "encoding.blocks", "encoding.layers",
               "encoding.reserved_vars", "formula.cnf_vars",
               "formula.cnf_clauses", "formula.cnf_literals", "mincheck.subsets")

# Bookkeeping done inside the tracer is its own span, so it is charged to
# the tracing overhead and not to the self time of the enclosing layer.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """fn timed as a span called `name`; on_result(counts, result) records sizes."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self.op, name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (self.op, name, start, end, parent)
            if on_result is not None:
                self._bookkeeping(on_result, result)
            return result
        return traced

    def _bookkeeping(self, on_result, result) -> None:
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter()
        on_result(self.counts[self.op], result)
        self.spans.append((self.op, BOOKKEEPING, start, time.perf_counter(),
                           parent))

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (_, name, _, _, _), t in zip(self.spans, own):
            totals[name] += t
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for op, name, start, end, parent in self.spans:
                out.write(json.dumps({"op": op, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


def _count_parse(counts, program):
    counts["program.atoms"] += len(program.atoms)
    counts["program.rules"] += len(program.rules)


def _count_detect(counts, backdoor):
    if backdoor is not None:
        counts["backdoor.k"] += backdoor.k


def _count_cover(counts, cover):
    counts["backdoor.cover_calls"] += 1
    counts["backdoor.cover_hits"] += cover is not None


def _count_build(counts, result):
    _, vt = result
    counts["encoding.builds"] += 1
    counts["encoding.blocks"] += vt.n_blocks
    counts["encoding.layers"] += vt.p
    counts["encoding.reserved_vars"] += vt.n_reserved


def _count_cnf(counts, cnf):
    counts["formula.cnf_vars"] += cnf.n_vars
    counts["formula.cnf_clauses"] += len(cnf.clauses)
    counts["formula.cnf_literals"] += sum(map(len, cnf.clauses))


def _count_solve(counts, result):
    counts["solver." + result.status.lower()] += 1


def _count_recheck(counts, check):
    counts["mincheck.subsets"] += len(check.subsets)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layer entry points as bound where bdnsat calls them."""
    # Submodules by import path: the package re-exports a function that
    # shadows the `mincheck` submodule attribute.
    backdoor, cli, encoding, mincheck = (
        importlib.import_module(f"bdnsat.{name}")
        for name in ("backdoor", "cli", "encoding", "mincheck"))
    verify = ("backdoor.verify", None)
    targets = [
        (cli, "parse_program", "program.parse", _count_parse),
        (cli, "find_backdoor", "backdoor.detect", _count_detect),
        (cli, "build_query", "encoding.build", _count_build),
        (cli, "tseitin_cnf", "formula.tseitin", _count_cnf),
        (cli, "solve_cnf", "solver.solve", _count_solve),
        (cli, "is_answer_set", "mincheck.recheck", _count_recheck),
        (encoding.VarTable, "names", "encoding.names", None),
        (backdoor, "verify_strong_backdoor") + verify,
        (encoding, "verify_strong_backdoor") + verify,
        (mincheck, "verify_strong_backdoor") + verify,
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]
    cover = backdoor.vertex_cover_bounded
    try:
        for owner, attr, name, on_result in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                             on_result))

        # Cover calls are counted but not timed: their time is detection's.
        def counted_cover(*args, **kwargs):
            result = cover(*args, **kwargs)
            _count_cover(tracer.counts[tracer.op], result)
            return result
        backdoor.vertex_cover_bounded = counted_cover
        yield tracer.wrap("cli", cli.main)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        backdoor.vertex_cover_bounded = cover
