"""Per-layer tracing of mllp from outside the package.

:class:`Tracer` wraps the public functions named in :data:`WRAPPED` and
rebinds each wrapper in every ``mllp`` module that holds the original by
name (``fwht``, for one, is imported by name into ``tables``, ``mll``,
``solvers`` and ``cimodels``).  Every call records a span (name, start,
end, parent span, operation id, whether it raised, and a per-function
count) in memory; :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

WRAPPED = {
    "tables": ("fwht", "marginal_array"),
    "mll": ("lambda_array", "jacobian_array", "decompose_f"),
    "classify": ("classify", "interchange_closure"),
    "solvers": (
        "invert",
        "invert_hierarchical",
        "reconstruct_mixed",
        "invert_fixed_point",
        "invert_newton",
        "invert_cyclic",
        "stationary",
    ),
    "cimodels": ("model_member",),
    "cli": ("main",),
}

# Layers whose calls can fail inside a successful operation (fallbacks).
WITH_FAILED = ("solvers", "cimodels")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int
    failed: bool = False
    count: float = 0.0  # fwht: cells; interchange_closure: states; solvers: iterations


def _cells(args, kwargs, result) -> float:
    return float(result.size)


def _iterations(args, kwargs, result) -> float:
    return float(result.iterations)


def _closure_states(args, kwargs, result) -> float:
    return float(len(result))


COUNTS = {
    "tables.fwht": _cells,
    "classify.interchange_closure": _closure_states,
    "solvers.invert_fixed_point": _iterations,
    "solvers.invert_newton": _iterations,
}


def mllp_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mllp" or name.startswith("mllp."))
    ]


def bindings() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every loaded mllp module."""
    return {
        (mod.__name__, attr): id(val)
        for mod in mllp_modules()
        for attr, val in vars(mod).items()
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        homes = {h: importlib.import_module(f"mllp.{h}") for h in WRAPPED}
        modules = mllp_modules()
        for home_name, names in WRAPPED.items():
            home = homes[home_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{home_name}.{name}", original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def nesting_depths(spans: list[Span], name: str) -> list[int]:
    """Number of spans called ``name`` on each span's ancestor chain,
    itself included.  Parents precede children in ``spans``."""
    depth: list[int] = []
    for s in spans:
        base = depth[s.parent] if s.parent >= 0 else 0
        depth.append(base + (s.name == name))
    return depth


def layer_metrics(spans: list[Span], skip_ops: set[int], move_limit: int) -> dict:
    """Per-layer totals over the spans of operations not in ``skip_ops``."""
    selfs = self_times(spans)
    depths = nesting_depths(spans, "classify.classify")
    names = [f"{home}.{fn}" for home, fns in WRAPPED.items() for fn in fns]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    failed = dict.fromkeys(names, 0)
    counted = dict.fromkeys(COUNTS, 0.0)
    truncated = 0
    max_depth = 0
    for s, own, depth in zip(spans, selfs, depths):
        if s.op in skip_ops:
            continue
        calls[s.name] += 1
        self_s[s.name] += own
        failed[s.name] += s.failed
        if s.name in counted and not s.failed:
            counted[s.name] += s.count
        if s.name == "classify.interchange_closure" and s.count >= move_limit:
            truncated += 1
        max_depth = max(max_depth, depth)

    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        if name.split(".")[0] in WITH_FAILED:
            out[f"{name}.failed"] = failed[name]
    out["tables.fwht.cells"] = counted["tables.fwht"]
    out["classify.classify.max_depth"] = max_depth
    out["classify.closure_states"] = counted["classify.interchange_closure"]
    out["classify.closure_truncated"] = truncated
    for name in ("solvers.invert_fixed_point", "solvers.invert_newton"):
        out[f"{name}.iterations"] = counted[name]
        n = calls[name]
        out[f"{name}.success_ratio"] = (n - failed[name]) / n if n else 0.0
    return out
