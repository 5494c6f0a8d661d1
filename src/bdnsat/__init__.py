"""Brave and skeptical reasoning for ground disjunctive answer-set programs.

Pipeline: parse a program, detect a smallest strong normality backdoor,
compile a membership query into one SAT instance, solve, and decode the
model back into an answer set.
"""

from .program import (AtomSet, AtomTable, ParseError, Program, Rule, gl_reduct,
                      is_model, least_model, parse_program, positive_sccs,
                      satisfies)
from .backdoor import (Backdoor, find_backdoor, format_backdoor,
                       head_dependency_graph, parse_backdoor,
                       vertex_cover_bounded, verify_strong_backdoor)
from .mincheck import (AnswerSetCheck, backdoor_subsets, is_answer_set,
                       restrict_program)
from .formula import CnfFormula, Formula, emit_dimacs, tseitin_cnf
from .encoding import (QuerySpec, VarTable, build_f_lm_block, build_f_min_block,
                       build_f_mod, build_program, build_query, decode_model,
                       write_var_map)
from .solver import (SAT, UNKNOWN, UNSAT, SatResult, SolverConfig, SolverError,
                     solve)

__version__ = "0.1.0"
