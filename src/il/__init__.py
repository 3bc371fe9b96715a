"""An optimizing mini compiler for IL, a first-order language with
tail calls and nondeterministic system calls.

Modules: syntax (AST, parser, printer, annotations), semantics
(small-step interpreter, anchors, traces), reach and tlive (analysis
inference plus inductive checkers), transform (uce and dve, and the
checked pipeline run_pass), equiv (bounded (bi)simulation game and a
trace-set oracle), harness (random differential testing), cli (the
`il` command).  The package itself exports only the names of the
README's Library example; everything else is imported from its module.
"""

from .equiv import check_sim
from .semantics import Config
from .syntax import parse_program, print_program
from .tlive import infer_tlive
from .transform import dve

__version__ = "0.1.0"

__all__ = [
    "Config",
    "check_sim",
    "dve",
    "infer_tlive",
    "parse_program",
    "print_program",
]
