"""Benchmark for the subdirect library; see perfbench/README.md.

    python3 perfbench/run.py --workload verify-catalog --seed 1 \
        --seconds 50 --trace 0

Run from the repository root.  Every workload is a closed loop with one
client: one op at a time from one process, repeated in whole passes
over the same seeded inputs until the time is spent.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, recorded by wrapping the library's public functions from outside.
Every op's output is checked against perfbench/expected.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from tracer import SPAN_NAMES

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
EXPECTED = json.loads((HERE / "expected.json").read_text())

SETUP_FIRST = 5        # set-up processes before the first pass
OP_LIMIT_S = 60.0      # a process that runs longer is stopped and fails
HARD_LIMIT_S = 170.0   # the whole run stays under three minutes
clock = time.perf_counter


class Run:
    """Processes, results and failures of one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = clock()
        self.out = root / ".perfbench_out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # One client, one busy process: no idle BLAS threads at import.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.setup_specs: list = []
        self.setup_s = []
        self.rss_kb = []
        self.mismatches = []
        self.spans = 0

    def spawn(self, job: dict):
        """Run one worker; returns (result or None, wall seconds, stderr)."""
        left = HARD_LIMIT_S - (clock() - self.started)
        timeout = max(1.0, min(OP_LIMIT_S, left))
        if job.get("trace"):
            job["spans"] = str(self.out / f"spans-{self.spans}.bin")
            self.spans += 1
        start = clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(job)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, clock() - start, f"timed out after {timeout:.0f} s"
        wall = clock() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, wall, proc.stderr.strip()[-2000:]
        result = json.loads(lines[-1])
        self.rss_kb.append(result["rss_kb"])
        return result, wall, proc.stderr.strip()[-2000:]

    def setup(self) -> bool:
        """Time one set-up process; False if it failed."""
        result, _, err = self.spawn({"mode": "setup",
                                     "specs": self.setup_specs})
        if result is None:
            print(f"set-up failed: {err}", file=sys.stderr)
            return False
        self.setup_s.append(result["setup_s"])
        return True

    def mismatch(self, text: str) -> None:
        self.mismatches.append(text)
        print(f"MISMATCH: {text}", file=sys.stderr)

    def loop(self, one_pass) -> list:
        """Whole passes until the next would overrun the measuring time.

        A traced run alternates untraced and traced passes, so that their
        wall times give the tracing overhead.  An untraced run times one
        more set-up process after each pass, so that the set-up samples
        span the whole run rather than its first seconds.
        """
        deadline = clock() + self.seconds
        modes = (False, True) if self.trace else (False,)
        passes = []
        while True:
            for traced in modes:
                passes.append(one_pass(traced))
            if not self.trace and not self.setup():
                self.mismatch("a set-up process failed")
            walls = sorted(p["wall_s"] for p in passes)
            step = walls[len(walls) // 2] * len(modes)
            now = clock()
            if now + step > deadline or now - self.started + step > HARD_LIMIT_S:
                return passes


def _pass(wall, ops, traced, result=None) -> dict:
    """One pass; an op whose latency is None failed."""
    failed = sum(v is None for v in ops.values())
    return {"wall_s": wall, "ops": ops, "failed": failed, "traced": traced,
            "layers": (result or {}).get("layers"),
            "checks": (result or {}).get("checks")}


# -- workloads -----------------------------------------------------------------


def verify_catalog(run: Run, specs: dict) -> list:
    """One op is one sweep of all checks, in a fresh process."""
    want = EXPECTED["verify-catalog"]["checks"]
    selection = [specs[name] for name in inputs.VERIFY_GROUPS]

    def one_pass(traced: bool) -> dict:
        job = {"mode": "verify", "specs": selection, "trace": traced, "op": 0}
        result, wall, err = run.spawn(job)
        if result is None:
            print(f"verify sweep failed: {err}", file=sys.stderr)
            return _pass(wall, {"sweep": None}, traced)
        got = {name: checked for name, _, checked, _ in result["checks"]}
        bad = [name for name, passed, _, _ in result["checks"] if not passed]
        if bad or got != want:
            wrong = {k: v for k, v in got.items() if want.get(k) != v}
            run.mismatch(f"verify: failed checks {bad}, case counts {wrong}")
            return _pass(wall, {"sweep": None}, traced)
        return _pass(wall, {"sweep": result["sweep_s"]}, traced, result)

    return run.loop(one_pass)


def subdirects_pairs(run: Run, specs: dict) -> list:
    """One op is one analyze_subgroup call; a pass covers every pair."""
    want = EXPECTED["subdirects-pairs"]
    digests: dict = {}
    order = random.Random(run.seed)

    def one_pass(traced: bool) -> dict:
        job = {"mode": "subdirects", "seed": order.getrandbits(32),
               "trace": traced, "op": 0, "specs": specs,
               "pairs": inputs.SUBDIRECT_PAIRS, "out_dir": str(run.out)}
        result, wall, err = run.spawn(job)
        if result is None:
            print(f"subdirects pass failed: {err}", file=sys.stderr)
            return _pass(wall, {"pass": None}, traced)
        ops = result["latencies"]
        for label in want:
            got = result["pairs"].get(label, {"error": "pair not run"})
            if "error" in got:
                # enumerate_subdirect or write_records raised: one failed op
                ops[f"{label}/pair"] = None
            digest = got.pop("sha256", None)
            first = digests.setdefault(label, digest)
            if got != want[label] or digest != first:
                run.mismatch(f"subdirects {label}: {got} (report bytes "
                             f"{'same' if digest == first else 'differ'})")
        return _pass(wall, ops, traced, result)

    return run.loop(one_pass)


WORKLOADS = {
    "verify-catalog": (verify_catalog, inputs.VERIFY_GROUPS),
    "subdirects-pairs": (subdirects_pairs, inputs.PAIR_GROUPS),
}


# -- metrics ---------------------------------------------------------------------


def _merge(summaries: list):
    """Sum per-process tracer summaries."""
    if not summaries:
        return None
    total = {"calls": {}, "self_s": {}, "counters": {}}
    for s in summaries:
        for part in total:
            for key, value in s[part].items():
                total[part][key] = total[part].get(key, 0) + value
    return total


def nearest_rank(values: list, q: float) -> float:
    """q-quantile by nearest rank; a failed op (None) ranks above all."""
    ranked = sorted(OP_LIMIT_S if v is None else v for v in values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def op_latencies(passes: list) -> list:
    """Each op's median over its repetitions; None if any repetition failed.

    Every pass repeats the same ops on the same inputs, so the median
    over passes is a steady estimate of an op's cost, and the
    percentiles across ops still describe the op mix.
    """
    reps: dict = {}
    for p in passes:
        for key, value in p["ops"].items():
            reps.setdefault(key, []).append(value)
    return [None if None in values else statistics.median(values)
            for values in reps.values()]


def end_to_end(setup_s: list, passes: list, rss_kb: list) -> dict:
    latencies = op_latencies(passes)
    throughput = statistics.median(
        sum(v is not None for v in p["ops"].values()) / p["wall_s"]
        for p in passes)
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "ops_per_s": {"value": throughput, "unit": "1/s"},
        "op_ms_p50": {"value": nearest_rank(latencies, 0.5) * 1e3,
                      "unit": "ms"},
        "op_ms_p90": {"value": nearest_rank(latencies, 0.9) * 1e3,
                      "unit": "ms"},
        "peak_rss_mb": {"value": max(rss_kb) / 1024, "unit": "MB"},
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(passes: list) -> dict:
    """Per-pass means over the traced passes, plus the check times."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    total = _merge([p["layers"] for p in traced if p["layers"]]) or {
        "calls": {}, "self_s": {}, "counters": {}}
    c = total["counters"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = {
            "value": total["calls"].get(name, 0) / n, "unit": "count"}
        out[f"{name}.self_s"] = {
            "value": total["self_s"].get(name, 0.0) / n, "unit": "s"}
    counters = {
        "groups.mutual_commutator.pairs": (
            c.get("mutual_commutator_pairs", 0) / n, "count"),
        "groups.Subgroup.checked": (c.get("subgroup_checked", 0) / n, "count"),
        "groups.is_isomorphic.hit_ratio": (
            _ratio(c.get("iso_hits", 0), c.get("iso_calls", 0)), "ratio"),
        "products.direct_product.table_mb": (
            c.get("product_bytes", 0) / n / 2 ** 20, "MB"),
        "products.direct_product.hit_ratio": (
            _ratio(c.get("product_hits", 0), c.get("product_calls", 0)),
            "ratio"),
        "products.star_product.distinct_ratio": (
            _ratio(c.get("star_distinct", 0), c.get("star_calls", 0)),
            "ratio"),
        "homoracle.restriction_kernel_image_sizes.rows": (
            c.get("restriction_rows", 0) / n, "count"),
        "records.write_records.bytes": (c.get("report_bytes", 0) / n, "B"),
    }
    for name, (value, unit) in counters.items():
        out[name] = {"value": value, "unit": unit}
    # Check times come from the untraced sweeps, free of tracing overhead.
    checks: dict = {}
    for p in plain:
        for name, _, _, seconds in p["checks"] or ():
            checks.setdefault(name, []).append(seconds)
    for name in EXPECTED["verify-catalog"]["checks"]:
        out[f"verification.{name}.s"] = {
            "value": statistics.median(checks.get(name, [0.0])), "unit": "s"}
    out["trace.overhead_ratio"] = {
        "value": (statistics.median(p["wall_s"] for p in traced)
                  / statistics.median(p["wall_s"] for p in plain)),
        "unit": "ratio"}
    return out


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "subdirect" / "__init__.py").is_file():
        print(f"no subdirect sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2

    runner, group_names = WORKLOADS[args.workload]
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    specs = inputs.write_specs(group_names, args.seed, run.out / "specs")
    run.setup_specs = list(specs.values())
    for _ in range(SETUP_FIRST):
        if not run.setup():
            return 1
    passes = runner(run, specs)

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    timed = [p for p in passes if not p["traced"]]
    distinct = len(op_latencies(timed))
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"ops per pass={distinct} latency samples={distinct}x{len(timed)} "
          f"failed={failed}/{attempted} error_rate={failed / attempted:.4f} "
          f"mismatches={len(run.mismatches)} "
          f"wall={clock() - run.started:.1f}s")
    with open(run.out / "passes.json", "w") as fh:
        json.dump({"seed": args.seed, "setup_s": run.setup_s, "passes": [
            {k: p[k] for k in ("wall_s", "ops", "failed", "traced")}
            for p in passes]}, fh)
    metrics = (per_layer(passes) if args.trace
               else end_to_end(run.setup_s, timed, run.rss_kb))
    print(json.dumps({"correct": not run.mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
