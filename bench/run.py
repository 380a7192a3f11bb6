"""Benchmark for mooremix: one workload per run, in one process.

    python3 bench/run.py --workload prop3_n10 --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations until --seconds have passed,
checks the outputs against computations that share no code with mooremix,
and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run alternates untraced and traced rounds; its spans are written
to bench/runs/.  See bench/README.md for the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_mooremix():
    """Import mooremix from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import mooremix
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import mooremix from {SRC}: {exc}")
    if Path(mooremix.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: mooremix was imported from {mooremix.__file__}, not from {SRC}")


def measure(wl, inputs, seconds, tracer=None):
    """Run whole rounds until `seconds` have passed.  With a tracer, rounds
    alternate untraced and traced, and the run ends after a traced round.
    Returns (untraced walls, traced walls, outputs in round order, traced
    outputs)."""
    walls = {False: [], True: []}
    outs, traced_outs = [], []
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            with tracer.installed():
                t0 = time.perf_counter()
                out = wl.round(inputs)
                walls[True].append(time.perf_counter() - t0)
            tracer.end_round()
            traced_outs.append(out)
        else:
            t0 = time.perf_counter()
            out = wl.round(inputs)
            walls[False].append(time.perf_counter() - t0)
        outs.append(out)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return walls[False], walls[True], outs, traced_outs
        traced = tracer is not None and not traced


def layer_metrics(tracer, traced_outs, overhead_s):
    """Per-layer metrics, per traced round."""
    rounds = len(traced_outs)
    t = tracer.totals

    def per_round(name, attr):
        return getattr(t[name], attr) / rounds

    search_self = per_round("search.enumerate_classes", "self_s")
    nodes = sum(o.get("nodes", 0) for o in traced_outs) / rounds
    pruned = {
        k: sum(o.get("pruned", {}).get(k, 0) for o in traced_outs) / rounds
        for k in ("prune_ball", "prune_deficit", "reject_diameter")
    }
    classes = sum(len(o["classes"]) for o in traced_outs if "nodes" in o)
    canon_calls = per_round("canon.canonicalize", "calls")
    canon_self = per_round("canon.canonicalize", "self_s")
    m = {
        "search.self_s": (search_self, "s"),
        "search.nodes": (nodes, "count"),
        "search.prune_ball": (pruned["prune_ball"], "count"),
        "search.prune_deficit": (pruned["prune_deficit"], "count"),
        "search.reject_diameter": (pruned["reject_diameter"], "count"),
        "search.nodes_per_s": (nodes / search_self if search_self else 0.0, "1/s"),
        "search.regular_skeletons.calls": (per_round("search.regular_skeletons", "calls"), "count"),
        "search.regular_skeletons.self_s": (per_round("search.regular_skeletons", "self_s"), "s"),
        "canon.canonicalize.calls": (canon_calls, "count"),
        "canon.canonicalize.self_s": (canon_self, "s"),
        "canon.canonicalize.us_per_call": (1e6 * canon_self / canon_calls if canon_calls else 0.0, "us"),
        # a search that finds no class still pays for its calls
        "canon.calls_per_class": (tracer.canon_in_search / max(classes, 1), "calls/class"),
        "graph.distances_from.calls": (per_round("graph.distances_from", "calls"), "count"),
        "graph.distances_from.self_s": (per_round("graph.distances_from", "self_s"), "s"),
        "graph.tree_walk_counts.self_s": (per_round("graph.tree_walk_counts", "self_s"), "s"),
        "spectral.char_poly.self_s": (per_round("spectral.char_poly", "self_s"), "s"),
        "mgf.self_s": (per_round("mgf.dumps", "self_s") + per_round("mgf.loads", "self_s"), "s"),
        "bounds.improved_bound.self_s": (per_round("bounds.improved_bound", "self_s"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def write_trace(path, tracer, metrics):
    """Totals over all traced rounds, and the last traced round's spans as
    [name, parent index, start s, end s] from the round's first span."""
    spans = tracer.last_round
    t0 = spans[0][2] if spans else 0.0
    path.parent.mkdir(exist_ok=True)
    doc = {
        "metrics": metrics,
        "totals": {name: vars(t) for name, t in tracer.totals.items()},
        "spans": [[n, p, round(s - t0, 7), round(e - t0, 7)] for n, p, s, e in spans],
    }
    path.write_text(json.dumps(doc) + "\n")


def main(argv=None):
    args = parse_args(argv)
    import_mooremix()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - T0

    tracer = spans.Tracer(workloads.TRACE_TARGETS) if args.trace else None
    plain, traced, outs, traced_outs = measure(wl, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import checks

    errors = getattr(checks, wl.check)(outs[0], inputs)
    if any(out != outs[0] for out in outs):
        errors.append("rounds disagree: the same inputs gave different outputs")
    for e in errors:
        print(f"bench: {wl.name}: {e}", file=sys.stderr)

    if args.trace:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = layer_metrics(tracer, traced_outs, overhead)
        write_trace(BENCH / "runs" / f"trace-{wl.name}-seed{args.seed}.json", tracer, metrics)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(
        f"bench: {wl.name} seed={args.seed} rounds={len(plain)}+{len(traced)} traced "
        f"round_s={statistics.median(plain):.4f} setup_s={setup_s:.4f}",
        file=sys.stderr,
    )
    result = {
        "correct": not errors,
        "attempted": sum(out["ops"] for out in outs),
        "failed": 0,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
