"""P4All language front end: lexer, parser, AST, checker, pretty-printer.

The concrete syntax is the P4 subset used by the paper's examples plus the
four elastic extensions (symbolic values, symbolic arrays, bounded loops,
utility functions). A minimal elastic program::

    symbolic int rows;
    symbolic int cols;
    assume rows >= 1 && rows <= 4;

    struct metadata {
        bit<32>[rows] index;
        bit<32>[rows] count;
        bit<32> min;
    }

    register<bit<32>>[cols][rows] cms;

    action incr()[int i] {
        meta.index[i] = hash(i, hdr.flow_id);
        cms[i].add_read(meta.count[i], meta.index[i], 1);
    }

    control hash_inc(inout metadata meta) {
        apply {
            for (i < rows) { incr()[i]; }
        }
    }

    optimize rows * cols;
"""

from . import ast
from .errors import LexError, P4AllError, ParseError, SemanticError, SourceLocation
from .lexer import Lexer, tokenize
from .parser import Parser, parse_program
from .pretty import pretty_expr, pretty_program, pretty_stmt, pretty_type
from .symbols import (
    MetadataField,
    ProgramInfo,
    RegisterInfo,
    check_program,
    eval_static,
)

__all__ = [
    "ast",
    "LexError",
    "P4AllError",
    "ParseError",
    "SemanticError",
    "SourceLocation",
    "Lexer",
    "tokenize",
    "Parser",
    "parse_program",
    "pretty_expr",
    "pretty_program",
    "pretty_stmt",
    "pretty_type",
    "MetadataField",
    "ProgramInfo",
    "RegisterInfo",
    "check_program",
    "eval_static",
]
