"""One benchmark round in a fresh interpreter, so every memo cache starts cold.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUT_DIR

MODE is ``probe`` (import the package, report ready, exit), ``plain``,
``check`` (plain, then check every output) or ``trace``.  The worker prints
``ready`` once ``mhsums`` is imported from the checkout's ``src/``, then runs
the workload's items back to back and prints one JSON line with the
results.  Only the loop over items is timed; before each item and after the
last one it also times the reference work of calibration.py.
"""

import contextlib
import io
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import mhsums

    if not Path(mhsums.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"mhsums was imported from {mhsums.__file__}, not from {SRC}")


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a request this way
        code = exc.code
    if code != 0:
        return out.getvalue(), f"exit code {code}: {err.getvalue().strip()}"
    return out.getvalue(), None


def main() -> int:
    workload, seed, mode, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    _import_package()
    print("ready", flush=True)
    if mode == "probe":
        return 0

    import hashlib
    import json
    import resource
    from time import perf_counter, process_time

    import mhsums.cli
    import mhsums.sums
    import mhsums.verify
    import tracing
    import workloads
    from calibration import reference_time

    checks = []
    if workload == "verify_deep":
        n = workloads.VERIFY_MAX_N
        checks = mhsums.verify.reduce_suite_checks(n) + mhsums.verify.sums_suite_checks(n)
        items = workloads.verify_deep(seed, [label for label, _ in checks])
    else:
        items = getattr(workloads, workload)(seed)
    # hn4 weights are built before the timed loop, like every other request
    requests = [
        ("hn4", mhsums.Polynomial(request[1])) if kind == "structured" and request[0] == "hn4" else request
        for kind, request, _ in items
    ]
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        checks = [(label, tracer.wrap(tracing.VERIFY_CHECK, fn, True)) for label, fn in checks]

    outputs, errors, latencies, refs = [], [], [], []
    loop_start, loop_cpu = perf_counter(), process_time()
    for i, ((kind, _, _), request) in enumerate(zip(items, requests)):
        if tracer is not None:
            tracer.item = i
        refs.append(reference_time())
        start = perf_counter()
        error = None
        try:
            if kind == "cli":
                output, error = _run_cli(mhsums.cli, request)
            elif kind == "structured":
                output = mhsums.sums.structured_form(*request)
            else:
                output = checks[request][1]()
                if not output[0]:
                    error = f"FAIL {output[1]}"
        except Exception as exc:  # an item that raises is a failed item, not a crash
            output, error = None, f"error: {exc!r}"
        latencies.append(perf_counter() - start)
        outputs.append(output)
        errors.append(error)
    refs.append(reference_time())
    loop_s, loop_cpu_s = perf_counter() - loop_start, process_time() - loop_cpu
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "loop_s": loop_s,
        "loop_cpu_s": loop_cpu_s,
        "latencies": latencies,
        "refs": refs,
        "peak_rss_kb": peak_rss_kb,
        "keys": [key for _, _, key in items],
        "digests": [
            hashlib.sha256(workloads.describe(o).encode()).hexdigest()[:16] if o is not None else None
            for o in outputs
        ],
        "output_bytes": sum(len(o) for o in outputs if isinstance(o, str)),
        "output_terms": sum(
            len(json.loads(o)["terms"]) for o in outputs if isinstance(o, str) and o.startswith('{"terms"')
        ),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        tracer.write_spans(out_dir / f"spans-{workload}.jsonl")
    if mode == "check":
        for i, item in enumerate(items):
            if errors[i] is None:
                try:
                    errors[i] = workloads.spot_check(item, outputs[i])
                except Exception as exc:  # an unreadable output is a wrong output
                    errors[i] = f"check error: {exc!r}"
    result["errors"] = errors
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
