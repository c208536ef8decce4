"""Benchmark of the rabinowitz engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...    # every workload, each in its own process

Run from anywhere inside a checkout of the repository; the program is
imported from ``src/`` next to this directory.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run reports the
per-layer ones.

Latencies are in reference units: each operation's time divided by the
mean time of the five calls of ``reference.reference`` nearest to it in the
run, which alternate with the operations.  See README.md for why.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MIN_OPS = 100          # so that at least 10 operations lie beyond p90
SETUP_REPEATS = 8      # extra set-ups, each in a fresh process, for setup_s
NEIGHBOURS = 2         # reference calls on each side used to normalise one op


def load_program():
    """Import the workloads (and so the program) from this checkout's src/."""
    if not (ROOT / "src" / "rabinowitz" / "__init__.py").is_file():
        sys.exit(f"error: no program at {ROOT / 'src' / 'rabinowitz'}")
    if not (ROOT / "scenarios").is_dir():
        sys.exit(f"error: no scenarios at {ROOT / 'scenarios'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def checked(wl, x, out) -> list[str]:
    """The problems ``wl.check`` finds in one output; output it cannot read is one."""
    try:
        return wl.check(x, out)
    except (ValueError, IndexError, KeyError, TypeError, AttributeError) as err:
        return [f"unreadable output: {err!r}"]


def timed_run(wl, seconds: float, probe):
    """Alternate reference calls and operations for ``seconds``, whole rounds.

    ``probe`` (one fresh set-up) runs SETUP_REPEATS times at even intervals
    between operations, so its median spans the run's changes of speed.
    """
    refs, ops, failed, problems, setups = [], [], 0, [], []
    clock = time.perf_counter
    gc.collect()
    gc.freeze()
    start = clock()
    end = start + seconds
    k = 0
    while k < MIN_OPS or clock() < end:
        due = start + seconds * (len(setups) + 0.5) / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and clock() >= due:
            setups.append(probe())
        for _ in range(wl.round_size):
            x = wl.input(k)
            a = clock()
            reference()
            b = clock()
            try:
                out = wl.op(x)
            except Exception:  # an operation that raises counts as failed
                c = clock()
                failed += 1
                traceback.print_exc()
            else:
                c = clock()
                problems += checked(wl, x, out)
            refs.append(b - a)
            ops.append(c - b)
            k += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(probe())
    return refs, ops, failed, problems, setups


def normalise(refs, ops):
    """Each op's time over the mean of the reference calls nearest to it.

    The machine switches between a fast and a slow state many times a
    second, so a mean of nearby calls tracks the mix of states an op ran in
    better than one call or a median, which picks one state.
    """
    out = []
    for i, t in enumerate(ops):
        out.append(t / statistics.fmean(refs[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]))
    return out


def setup_seconds(args) -> float:
    """Set-up time of one fresh process, measured inside it."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(args, wl, setup_s: float):
    refs, ops, failed, problems, setups = timed_run(wl, args.seconds, lambda: setup_seconds(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = normalise(refs, ops)
    setups.append(setup_s)
    metrics = {
        "latency_p50_ref": statistics.median(lat),
        "latency_p90_ref": statistics.quantiles(lat, n=10)[8],
        "ops_per_kref": 1000 * len(lat) / sum(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    print(f"{wl.name}: {len(ops)} ops, raw p50 {statistics.median(ops) * 1e3:.3f} ms, "
          f"reference median {statistics.median(refs) * 1e3:.3f} ms", file=sys.stderr)
    return len(ops), failed, problems, metrics


def traced_run(args, workloads, cls):
    """Fresh set-up plus a fixed batch, three times untraced and three traced.

    The counts and self times come from the first traced batch; the overhead
    ratio compares the median times.
    """
    from tracing import Tracer

    modules = [m for n, m in sys.modules.items() if n == "rabinowitz" or n.startswith("rabinowitz.")]

    def batch(tracer=None):
        if tracer is not None:
            tracer.install(modules + [workloads])
        t0 = time.perf_counter()
        try:
            wl = cls(ROOT, args.seed)
            outputs = [(x, wl.op(x)) for x in map(wl.input, range(cls.trace_ops))]
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        return seconds, wl, outputs

    refs = []
    for _ in range(31):
        a = time.perf_counter()
        reference()
        refs.append(time.perf_counter() - a)
    ref_s = statistics.median(refs)

    tracer = Tracer()
    seen = {"accepted": 0, "yielded": 0, "inductions": 0, "spanned": 0, "nonempty": 0,
            "loads": 0}

    def on_validate(result, stack):
        seen["accepted"] += not result

    def on_enumerate(result, stack):
        seen["yielded"] += len(result)

    def on_primitive(result, stack):
        if result.level_ceiling is not None:  # not the per-class (very negative) case
            seen["inductions"] += 1
            seen["spanned"] += result.level_ceiling - result.stop_level + 1
            seen["nonempty"] += len(result.theta_parts)

    def on_load(result, stack):
        seen["loads"] += "randomized.random_admissible_table" in stack

    tracer.observe("differentials.validate_entry", on_validate)
    tracer.observe("generators.enumerate_generators", on_enumerate)
    tracer.observe("vanishing.find_primitive", on_primitive)
    tracer.observe("differentials.load_table", on_load)
    untraced, traced = [], []
    for i in range(3):
        untraced.append(batch()[0])
        seconds, wl, outputs = batch(tracer if i == 0 else Tracer())
        traced.append(seconds)
        if i == 0:
            problems = [p for x, out in outputs for p in checked(wl, x, out)]
    tracer.write_spans(OUT / f"trace-{cls.name}-{args.seed}.json", ref_s)

    metrics = {"trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced)}
    for name in tracer.calls:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_ref"] = tracer.self_s[name] / ref_s

    def ratio(a, b):
        return a / b if b else 0.0

    calls = tracer.calls
    metrics["differentials.validate_entry.accept_ratio"] = ratio(
        seen["accepted"], calls["differentials.validate_entry"])
    metrics["generators.enumerate_generators.yield"] = ratio(
        seen["yielded"], calls["generators.enumerate_generators"])
    metrics["vanishing.levels_spanned"] = ratio(seen["spanned"], seen["inductions"])
    metrics["vanishing.levels_nonempty"] = ratio(seen["nonempty"], seen["inductions"])
    metrics["vanishing.level_yield"] = ratio(seen["nonempty"], seen["spanned"])
    metrics["randomized.load_attempts"] = ratio(
        seen["loads"], calls["randomized.random_admissible_table"])
    return len(outputs), 0, problems, metrics


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, and list the results."""
    results = {}
    for name in (w["name"] for w in spec()["workloads"]):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"{name}: exit {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    workloads = load_program()
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(ROOT, args.seed)  # the traced run builds its own, but imports happen here
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(setup_s)
        return 0
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        attempted, failed, problems, values = traced_run(args, workloads, cls)
    else:
        attempted, failed, problems, values = end_to_end(args, wl, setup_s)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
