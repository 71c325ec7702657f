"""Running operations under a wall-clock budget, and the end-to-end metrics.

The budget is a real-time interval timer in this process: when it fires,
the signal handler raises :class:`BudgetExceeded` inside the operation.
It derives from BaseException so that no ``except Exception`` in the code
under test can swallow it.

Host speed.  On a shared virtual machine the speed of this process drifts
between runs and within one: a fixed interpreter loop ran anywhere between
210 and 410 times a second on a 2-vCPU x86 guest, switching every few
seconds, which alone spread 20-second runs of the same inputs by 15-20 %.
So a short fixed loop, :func:`speed_probe`, runs just before and just after
every operation, outside the timed interval.  The end-to-end times are
reported at a fixed reference speed, at which the probe takes
:data:`PROBE_REF_S`: each operation's wall time is scaled by
``PROBE_REF_S / probe``.  The unscaled wall-clock figures are printed in
the report line next to them.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import time
from dataclasses import dataclass

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# A stack deeper than this when the budget runs out is runaway recursion:
# the deepest operation that completes uses fewer than 30 frames.
RECURSION_FRAMES = 60

PROBE_REF_S = 3e-4  # probe time at the reference speed (about that host's median)
PROBE_LOOPS = 4000


def speed_probe() -> float:
    """Seconds taken by a fixed pure-interpreter loop."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.perf_counter() - start


class BudgetExceeded(BaseException):
    def __init__(self, depth: int):
        super().__init__(f"stack depth {depth}")
        self.depth = depth


class Budget:
    """Wall-clock limit around a block: ``with budget.limit(seconds): ...``."""

    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            depth = 0
            while frame is not None:
                depth, frame = depth + 1, frame.f_back
            raise BudgetExceeded(depth)

    @contextlib.contextmanager
    def limit(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Record:
    op: int  # position in the pass
    seconds: float  # wall clock
    probe: float  # mean speed_probe() just before and just after
    failure: str | None  # None, or recursion / budget / solver / error / wrong
    detail: str = ""
    verdict: str = ""
    stopped: bool = False  # ended by the budget timer after budget_s of wall time


def run_op(index: int, op, budget: Budget, seconds: float, solver_errors) -> Record:
    """Run one operation, time it, classify any failure, check the output."""
    result = None
    failure, detail, stopped = None, "", False
    # Start every operation with empty young generations, so that when the
    # collector runs inside an operation does not depend on what ran before.
    gc.collect()
    before = speed_probe()
    start = time.perf_counter()
    try:
        with budget.limit(seconds):
            result = op.run()
    except BudgetExceeded as exc:
        stopped = True
        failure = "recursion" if exc.depth > RECURSION_FRAMES else "budget"
        detail = f"over {seconds} s at {exc}"
    except RecursionError as exc:
        failure, detail = "recursion", str(exc)
    except solver_errors as exc:
        failure, detail = "solver", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - any other raise is a counted failure
        failure, detail = "error", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    probe = (before + speed_probe()) / 2
    if failure is not None:
        return Record(index, elapsed, probe, failure, detail, failure, stopped)
    fault = op.check(result)
    if fault is not None:
        return Record(index, elapsed, probe, "wrong", fault, "wrong")
    return Record(index, elapsed, probe, None, "", op.verdict(result))


def run_passes(ops, budget_s: float, seconds: float, solver_errors, on_op=None):
    """Whole passes over ``ops``: at least one, then more while a pass as
    long as the last one would still end within ``seconds``."""
    budget = Budget()
    records: list[Record] = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(passes * len(ops) + i)
            records.append(run_op(i, op, budget, budget_s, solver_errors))
        passes += 1
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return records, passes


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(pass_size: int) -> float:
    """Highest ladder percentile that leaves TAIL_BEYOND samples of one pass
    above it; fixed per workload, so every run reports the same one."""
    fitting = [q for q in TAIL_LADDER if pass_size * (1 - q / 100) >= TAIL_BEYOND]
    return max(fitting, default=TAIL_LADDER[0])


def end_to_end(
    records: list[Record], pass_size: int, budget_s: float, scaled: bool = True
) -> dict:
    """Throughput over the time spent in operations (failed ones included),
    and latency percentiles in which a failed operation counts as at least
    the budget, above every operation that completed.  With ``scaled``,
    times are at the reference speed; otherwise they are wall clock.  An
    operation stopped by the budget keeps its wall time either way: the
    timer stops it after budget_s at any host speed."""
    failed = sum(r.failure is not None for r in records)
    times = [
        r.seconds * PROBE_REF_S / r.probe if scaled and not r.stopped else r.seconds
        for r in records
    ]
    charged = [
        max(t, budget_s) if r.failure is not None else t
        for r, t in zip(records, times)
    ]
    q = tail_percentile(pass_size)
    return {
        "throughput_ops_s": (len(records) - failed) / sum(times),
        "latency_p50_ms": percentile(charged, 50.0) * 1e3,
        "latency_tail_ms": percentile(charged, q) * 1e3,
        "tail_percentile": q,
        "failed": failed,
    }
