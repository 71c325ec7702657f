"""Size and import guards on the package's source files.

CPython's parser keeps a file's tokens in an array that doubles when it
fills, and the step from 8 192 to 16 384 tokens showed as about 0.45 MB more
peak RSS in every benchmark workload when ``solvers.py`` crossed it.  Each
module stays under that size; one that grows towards it is split.

No linter is a dependency, so the import guard is an ``ast`` walk: every
name a module imports is read somewhere in it, except the few listed in
:data:`UNUSED_IMPORTS`.
"""

import ast
import tokenize
from pathlib import Path

import pytest

PARSER_TOKEN_STEP = 8192
MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "mllp").glob("*.py"))

# Imports a module keeps without reading them: ``import mllp`` loads these
# submodules, and the bench's traced-run test checks that the ``fwht`` name
# bound in ``cimodels`` is put back after tracing.
UNUSED_IMPORTS = {
    "__init__.py": {"tables", "mll", "classify", "solvers", "cimodels", "catalog"},
    "cimodels.py": {"fwht"},
}


def count_tokens(path: Path) -> int:
    """Tokens of a source file, without comments and blank-line newlines."""
    with open(path, encoding="utf-8") as fh:
        return sum(
            1 for tok in tokenize.generate_tokens(fh.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL)
        )


def unused_imports(path: Path) -> set[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_every_module_is_found():
    assert {"solvers.py", "mixed.py", "markov.py", "classify.py", "census.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_under_parser_token_step(path):
    assert count_tokens(path) < PARSER_TOKEN_STEP


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_import(path):
    assert unused_imports(path) <= UNUSED_IMPORTS.get(path.name, set())
