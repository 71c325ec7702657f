"""Size and import guards on the package's source files.

CPython's parser keeps a file's tokens in an array that doubles when it
fills, and the step from 8 192 to 16 384 tokens showed as about 0.45 MB more
peak RSS in every benchmark workload when ``solvers.py`` crossed it.  Each
module stays under that size; one that grows towards it is split.

No linter is a dependency, so the import guard is an ``ast`` walk: every
name a module imports is read somewhere in it, except the few listed in
:data:`UNUSED_IMPORTS`.  A second walk finds every cache with no bound,
``functools.cache`` or ``lru_cache(maxsize=None)``: each must be listed,
with the reason its entries stay few, in :data:`UNBOUNDED_CACHES`.
"""

import ast
import tokenize
from pathlib import Path

import pytest

PARSER_TOKEN_STEP = 8192
MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "mllp").glob("*.py"))

# Imports a module keeps without reading them: ``import mllp`` loads these
# submodules, and the bench's traced-run test checks that the ``fwht`` name
# bound in ``cimodels`` and ``solvers`` is put back after tracing.
UNUSED_IMPORTS = {
    "__init__.py": {"tables", "mll", "classify", "solvers", "cimodels", "catalog"},
    "cimodels.py": {"fwht"},
    "solvers.py": {"fwht"},
}

# Caches without a bound, by module, each with what bounds its entries.
UNBOUNDED_CACHES = {
    "census.py": {
        "_relabelings": "one entry per variable count, at most MAX_VARS",
    },
    "tables.py": {
        "_hadamard": "one entry per power of two up to 256, the largest factor",
    },
    "classify.py": {
        "_inside": "one entry per margin of the variable sets classified",
        "_free_tests": "one entry per margin of the variable sets classified",
        "_down": "one entry per margin and submask of the variable sets classified",
    },
    "cli.py": {
        "build_parser": "no arguments: one entry",
    },
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


def _is_unbounded(decorator: ast.expr) -> bool:
    """``functools.cache``, ``cache``, or ``lru_cache`` called with a
    maxsize of None (by keyword or first argument)."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    if not isinstance(decorator, ast.Call):
        return name(decorator) == "cache"
    if name(decorator.func) == "cache":
        return True
    if name(decorator.func) != "lru_cache":
        return False
    size = [k.value for k in decorator.keywords if k.arg == "maxsize"]
    size += decorator.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in size)


def unbounded_caches(path: Path) -> set[str]:
    """Functions of the module decorated with a cache that has no bound."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_unbounded(d) for d in node.decorator_list)
    }


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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_unbounded_cache_is_listed(path):
    assert unbounded_caches(path) == set(UNBOUNDED_CACHES.get(path.name, {}))


@pytest.mark.parametrize("source, unbounded", [
    ("@functools.cache\ndef f(x): pass", True),
    ("@cache\ndef f(x): pass", True),
    ("@functools.lru_cache(maxsize=None)\ndef f(x): pass", True),
    ("@lru_cache(None)\ndef f(x): pass", True),
    ("@functools.lru_cache(maxsize=32)\ndef f(x): pass", False),
    ("@functools.lru_cache\ndef f(x): pass", False),
    ("@functools.lru_cache()\ndef f(x): pass", False),
    ("@property\ndef f(x): pass", False),
])
def test_unbounded_cache_walk(tmp_path, source, unbounded):
    path = tmp_path / "m.py"
    path.write_text(source + "\n", encoding="utf-8")
    assert unbounded_caches(path) == ({"f"} if unbounded else set())
