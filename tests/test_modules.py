"""Size guard on the package's source files.

CPython's parser keeps a file's tokens in an array that doubles when it
fills, and the step from 8 192 to 16 384 tokens showed as about 0.45 MB more
peak RSS in every benchmark workload when ``solvers.py`` crossed it.  Each
module stays under that size; one that grows towards it is split.
"""

import tokenize
from pathlib import Path

import pytest

PARSER_TOKEN_STEP = 8192
MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "mllp").glob("*.py"))


def count_tokens(path: Path) -> int:
    """Tokens of a source file, without comments and blank-line newlines."""
    with open(path, encoding="utf-8") as fh:
        return sum(
            1 for tok in tokenize.generate_tokens(fh.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL)
        )


def test_every_module_is_found():
    assert {"solvers.py", "mixed.py", "markov.py", "classify.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_under_parser_token_step(path):
    assert count_tokens(path) < PARSER_TOKEN_STEP
