#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, for a speed claim.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds 101 102 ... [--out BENCH_N.json]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  For each
seed, ``bench/run.py --workload W --seed S --seconds SEC --trace 0`` runs
once in each checkout, one after the other: the parent first in even
pairs, the change first in odd ones.  SEC is ``run_seconds`` of the
change's ``BENCHMARK.json``, the same on both sides.  Prints, for every
end-to-end metric of the change's ``BENCHMARK.json``, each side's median
and inclusive quartiles over the pairs, the ratio of the medians and in
how many pairs the change was better (ties count for neither); then the
failed operations of each run, side by side.  With ``--out``, the workload's block is stored
under ``workloads`` in that JSON file, which is created if missing; other
workloads in it are kept.  Exits 1 when a run reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
HOST_KEYS = ("nproc", "python", "numpy", "threads", "probe_ref_s")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its report line and its result line."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    reports = [ln for ln in lines if ln.startswith("# report ")]
    if not reports or not lines or lines[-1].startswith("#"):
        raise RuntimeError(
            f"{checkout}: no result (exit {proc.returncode}): {proc.stderr[-500:]}"
        )
    return {
        "report": json.loads(reports[-1][len("# report "):]),
        "result": json.loads(lines[-1]),
    }


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def wins(parent: list[float], change: list[float], better: str) -> int:
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def workload_block(
    runs: dict, seeds: list[int], first: list[str], metrics: list
) -> dict:
    pairs = len(seeds)
    block = {
        "seeds": seeds,
        "pairs": pairs,
        "first_in_pair": first,
        "failed": {s: [r["result"]["failed"] for r in runs[s]] for s in SIDES},
        "attempted": {s: [r["result"]["attempted"] for r in runs[s]] for s in SIDES},
        "all_correct": all(r["result"]["correct"] for s in SIDES for r in runs[s]),
        "verdict_digest_equal_in_pairs": "{} of {}".format(
            sum(
                p["report"]["verdict_digest"] == c["report"]["verdict_digest"]
                for p, c in zip(runs["parent"], runs["change"])
            ),
            pairs,
        ),
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        values = {
            s: [r["result"]["metrics"][name]["value"] for r in runs[s]] for s in SIDES
        }
        block["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": summary(values["parent"]),
            "change": summary(values["change"]),
            "change_better_in_pairs": "{} of {}".format(
                wins(values["parent"], values["change"], metric["better"]), pairs
            ),
        }
    return block


def print_block(workload: str, block: dict) -> None:
    print(f"{workload}: {block['pairs']} pairs, seeds {block['seeds']}")
    for name, m in block["metrics"].items():
        p, c = m["parent"], m["change"]
        ratio = c["median"] / p["median"] if p["median"] else float("nan")
        print(
            f"  {name:18s} parent {p['median']:10.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  ratio {ratio:.3f}  better in {m['change_better_in_pairs']}"
            f"  (parent IQR {p['q3'] - p['q1']:.4g}, median gap "
            f"{abs(c['median'] - p['median']):.4g})"
        )
    for side in SIDES:
        failed, attempted = block["failed"][side], block["attempted"][side]
        print(f"  failed {side:6s} {failed} of {attempted}")
    print(f"  verdict digests equal in {block['verdict_digest_equal_in_pairs']} pairs,"
          f" all outputs correct: {block['all_correct']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for quartiles")

    config = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs: dict[str, list] = {s: [] for s in SIDES}
    first = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            run = run_once(checkouts[side], args.workload, seed, seconds)
            runs[side].append(run)
            res = run["result"]
            print(f"pair {i + 1} seed {seed} {side:6s} "
                  f"{res['metrics']['throughput_ops_s']['value']:.2f} ops/s, "
                  f"failed {res['failed']} of {res['attempted']}", flush=True)

    block = workload_block(runs, args.seeds, first, config["end_to_end"])
    print_block(args.workload, block)
    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        report = runs["change"][0]["report"]
        doc.setdefault("command", f"python3 bench/run.py --workload W --seed S "
                                  f"--seconds {seconds:g} --trace 0")
        doc.setdefault("report_host_line", {k: report[k] for k in HOST_KEYS})
        doc.setdefault("workloads", {})[args.workload] = block
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if block["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
