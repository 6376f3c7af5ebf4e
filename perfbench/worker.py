"""One benchmark process: set-up timing, a verify sweep, or one
subdirects pass.  Run by run.py as

    python3 perfbench/worker.py '<job JSON>'

with the library's ``src`` directory on PYTHONPATH.  The last line of
standard output is a JSON object with the process's results.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

clock = time.perf_counter


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _start(job):
    """Import the library, then install the tracer if the job asks for it.

    Callers import library names only after this, so that the names they
    bind are the traced ones.
    """
    import subdirect  # noqa: F401
    import subdirect.cli  # noqa: F401

    if not job.get("trace"):
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.current_op = job["op"]
    tracer.install()
    return tracer


def _finish_trace(tracer, job, out: dict) -> None:
    if tracer is None:
        return
    tracer.uninstall()
    tracer.write(job["spans"])
    out["layers"] = tracer.summary()


def setup(job) -> dict:
    """Import the library and load the workload's groups from their specs."""
    start = clock()
    _start(job)
    from subdirect.specs import load_group

    for spec in job["specs"]:
        load_group(spec)
    return {"setup_s": clock() - start}


def verify(job) -> dict:
    """One sweep of every check over the selection, as `subdirect verify`."""
    tracer = _start(job)
    from subdirect.products import DEFAULT_PRODUCT_CAP
    from subdirect.specs import load_group
    from subdirect.verification import ALL_CHECKS, CheckContext

    groups = []
    for spec in job["specs"]:
        G = load_group(spec)
        G.validate()
        groups.append(G)
    ctx = CheckContext(groups, product_cap=DEFAULT_PRODUCT_CAP)
    checks = []
    start = clock()
    for check in ALL_CHECKS:
        t = clock()
        result = check(ctx)
        checks.append([result.name, result.passed, result.checked, clock() - t])
    out = {"sweep_s": clock() - start, "checks": checks}
    _finish_trace(tracer, job, out)
    return out


def _summary(records) -> dict:
    """The summary line `subdirect subdirects` prints."""
    primes = records[0].primes if records else []
    return {
        "count": len(records),
        "extensible_count": {
            str(p): sum(1 for r in records if r.per_prime[str(p)]["extensible"])
            for p in primes},
        "inconsistent_count": sum(1 for r in records if r.inconsistent),
    }


def subdirects(job) -> dict:
    """One pass over the pairs, as one `subdirect subdirects` call per pair.

    Each op is one analyze_subgroup call; its pair's factor caches are
    shared with the other ops of the pass.  Reports go to one JSONL file
    per pair.
    """
    tracer = _start(job)
    from subdirect.products import DEFAULT_PRODUCT_CAP, enumerate_subdirect
    from subdirect.records import analyze_subgroup, write_records
    from subdirect.specs import load_group

    groups = {name: load_group(spec) for name, spec in job["specs"].items()}
    rng = random.Random(job["seed"])
    out_dir = Path(job["out_dir"])
    latencies = {}
    pairs_out = {}
    for g, h in rng.sample(job["pairs"], len(job["pairs"])):
        G, H = groups[g], groups[h]
        label = f"{g}-{h}"
        path = out_dir / f"{label}.jsonl"
        try:
            subs = enumerate_subdirect(G, H, max_order=DEFAULT_PRODUCT_CAP)
        except Exception as exc:
            pairs_out[label] = {"error": repr(exc)}
            continue
        records = [None] * len(subs)
        for i in rng.sample(range(len(subs)), len(subs)):
            if tracer is not None:
                tracer.current_op = len(latencies)
            t = clock()
            try:
                records[i] = analyze_subgroup(subs[i])
                latencies[f"{label}/{i}"] = clock() - t
            except Exception:
                latencies[f"{label}/{i}"] = None
        done = [r for r in records if r is not None]
        try:
            write_records(path, done,
                          extra_header={"left": G.label, "right": H.label})
        except Exception as exc:
            pairs_out[label] = {"error": repr(exc)}
            continue
        pairs_out[label] = {**_summary(done),
                            "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    out = {"latencies": latencies, "pairs": pairs_out}
    _finish_trace(tracer, job, out)
    return out


MODES = {"setup": setup, "verify": verify, "subdirects": subdirects}


def main() -> int:
    job = json.loads(sys.argv[1])
    out = MODES[job["mode"]](job)
    out["rss_kb"] = _rss_kb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
