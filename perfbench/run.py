"""End-to-end benchmark of mhsums: one closed-loop client, seeded workloads.

    python3 perfbench/run.py --workload reduce_deep --seed 0 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  A run is a series of rounds.  Each round is a fresh worker
process (cold caches) that sends the workload's items one after another and
times each.  Rounds repeat until ``--seconds`` of rounds have run.  The first
round also checks every output (see perfbench/README.md).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
traced rounds, plus the tracing overhead.  Every metric is also printed on
its own line, with its unit, before that.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
FROZEN = BENCH / "digests.json"

SETUP_PROBES = 11  # extra interpreter starts, so setup_s is the median of many
DEADLINE_S = 160  # the whole run, set-up included, must end well within 180 s

UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "trace_overhead": "ratio",
    "ref_s": "s",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str):
    """Start a worker; return it with the seconds until it could take work."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, str(OUT)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),  # same string hashing in every round
    )
    ready = proc.stdout.readline()
    setup_s = perf_counter() - start
    if ready.strip() != "ready":
        proc.communicate()
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s


def run_round(workload: str, seed: int, mode: str, timeout: float) -> dict:
    start = perf_counter()
    proc, setup_s = spawn(workload, seed, mode)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a {mode} round ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} round failed with exit code {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result.update(mode=mode, setup_s=setup_s, wall_s=perf_counter() - start)
    return result


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def failures(rounds: "list[dict]", frozen: dict) -> "tuple[list[str | None], int]":
    """Why each item is wrong (None if it is right), and the number of failed
    item runs over all rounds."""
    first = rounds[0]
    wrong = list(first["errors"])
    for i, (key, digest) in enumerate(zip(first["keys"], first["digests"])):
        if wrong[i] is None and key in frozen and frozen[key] != digest:
            wrong[i] = "output differs from the frozen digest"
    failed = 0
    for r in rounds:
        for i, digest in enumerate(r["digests"]):
            if r["errors"][i] or wrong[i] or digest != first["digests"][i]:
                failed += 1
    return wrong, failed


def scaled(r: dict) -> "list[float]":
    """A round's item latencies at the reference speed: each one scaled by the
    mean of the reference times taken just before and just after it."""
    refs = r["refs"]
    return [
        lat * calibration.NOMINAL_S / ((refs[i] + refs[i + 1]) / 2) for i, lat in enumerate(r["latencies"])
    ]


def end_to_end(rounds: "list[dict]", setups: "list[float]") -> "tuple[dict, dict]":
    # Every round repeats the same items from the same cold start, so the
    # rounds are repeats of one measurement.  Each item's latency is the
    # median of its runs, each run scaled to the reference speed (see
    # calibration.py).  setup_s is the median start, not scaled: a process
    # start follows the reference work only loosely.
    n_items = len(rounds[0]["keys"])
    runs = [scaled(r) for r in rounds]
    typical = [statistics.median(run[i] for run in runs) for i in range(n_items)]
    raw = [statistics.median(r["latencies"][i] for r in rounds) for i in range(n_items)]

    def latency_metrics(lat):
        return {
            "items_per_s": n_items / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        }

    metrics = latency_metrics(typical)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_kb"] / 1024 for r in rounds)
    metrics["setup_s"] = statistics.median(setups)
    unscaled = dict(latency_metrics(raw), ref_s=statistics.median(x for r in rounds for x in r["refs"]))
    return metrics, unscaled


def per_layer(traced: "list[dict]", plain: "list[dict]") -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        metrics[name] = None if None in values else statistics.median_low(values)
    metrics["closedform.output_terms"] = traced[0]["output_terms"]
    metrics["closedform.output_bytes"] = traced[0]["output_bytes"]
    metrics["trace_overhead"] = (
        statistics.median(sum(scaled(r)) for r in traced) / statistics.median(sum(scaled(r)) for r in plain)
    )
    return metrics


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def measure(args) -> int:
    if not (ROOT / "src" / "mhsums" / "__init__.py").is_file():
        raise BenchError(f"no mhsums package under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    began = perf_counter()
    spawn(args.workload, args.seed, "probe")[0].wait()  # writes the bytecode caches
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup_s = spawn(args.workload, args.seed, "probe")
        proc.wait()
        setups.append(setup_s)

    # The first round also checks every output.  With --trace 1, traced and
    # untraced rounds alternate after it; the untraced ones only serve as the
    # overhead baseline.
    cycle = ["trace", "plain"] if args.trace else ["plain"]
    mode, rounds = "check", []
    window = perf_counter()
    while True:
        left = DEADLINE_S - (perf_counter() - began)
        rounds.append(run_round(args.workload, args.seed, mode, left))
        setups.append(rounds[-1]["setup_s"])
        mode = cycle[(len(rounds) - 1) % len(cycle)]
        alike = [r["wall_s"] for r in rounds if (r["mode"] == "trace") == (mode == "trace")]
        expect = max(alike or [rounds[-1]["wall_s"]])
        used = perf_counter() - window
        if len(rounds) > len(cycle) and (
            used + expect > args.seconds or perf_counter() - began + expect > DEADLINE_S
        ):
            break

    frozen = json.loads(FROZEN.read_text()).get(args.workload, {}) if FROZEN.is_file() else {}
    wrong, failed = failures(rounds, frozen)
    attempted = sum(len(r["keys"]) for r in rounds)
    plain = [r for r in rounds if r["mode"] != "trace"]
    traced = [r for r in rounds if r["mode"] == "trace"]
    unscaled = {}
    if args.trace:
        metrics, note = per_layer(traced, plain), f"{len(traced)} traced rounds"
    else:
        metrics, unscaled = end_to_end(plain, setups)
        note = (f"latency of {len(rounds[0]['keys'])} items, median of {len(plain)} rounds scaled to the "
                f"reference speed; setup_s median of {len(setups)} starts")

    first = rounds[0]
    digest = hashlib.sha256(
        "".join(f"{k}\t{d}\n" for k, d in sorted(zip(first["keys"], first["digests"]), key=str)).encode()
    ).hexdigest()
    matched = sum(1 for k, d in zip(first["keys"], first["digests"]) if frozen.get(k) == d)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": [{k: r[k] for k in ("mode", "loop_s", "loop_cpu_s", "setup_s", "peak_rss_kb")} for r in rounds],
        "items": len(first["keys"]),
        "src_lines": src_lines(),
        "output_digest": digest,
        "frozen_matched": matched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "unscaled": unscaled,
        "item_digests": dict(zip(first["keys"], first["digests"])),
    }
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {record['items']} items; {note}")
    print("  rounds: " + ", ".join(f"{r['mode']} {r['loop_s']:.3f} s" for r in rounds))
    for name, value in metrics.items():
        print(f"  {name:30s} {value} {unit(name)}")
    for name, value in unscaled.items():
        print(f"  unscaled {name:21s} {value} {unit(name)}")
    print(f"  {'fail_frac':30s} {failed / attempted} ratio ({failed} of {attempted} item runs failed)")
    print(f"  src_lines {record['src_lines']}; output_digest {digest}; "
          f"{matched} of {record['items']} items match a frozen digest")
    for key, why in zip(first["keys"], wrong):
        if why:
            print(f"  FAILED {key}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
