"""End-to-end and per-layer benchmark of the Chortle reproduction.

One workload, as a benchmark driver runs it::

    python3 benchmarks/e2e/run.py --workload tree_dp --seed 3 --seconds 15 --trace 0

Every workload, each in a fresh subprocess, or ``--repeat N`` runs per
workload on seeds S..S+N-1 with a median/quartile spread report::

    python3 benchmarks/e2e/run.py [--seed S] [--trace 0|1] [--repeat N] [--smoke]

A run sets its workload up ``SETUP_REPEATS`` times (``setup_s`` is the
program's import time plus the median), then runs whole passes over the
workload's operations until ``--seconds`` have elapsed, then checks
every output outside the timed region.  It prints one
``name workload value unit`` line per metric (op latencies are each
op's median over the passes) and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (``--trace-file`` also
writes the spans as JSONL for ``chortle perf top|flame``).  The exit
code is 0 only when every output checked out.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The keys of workloads.WORKLOADS, known before the program is imported.
WORKLOAD_NAMES = ("tree_dp", "dag_cuts", "prove", "suite_jobs2")
SETUP_REPEATS = 3
DEFAULT_SECONDS = 15  # BENCHMARK.json's run_seconds

#: End-to-end metrics, reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("luts", "count"),
    ("depth", "levels"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, reported by ``--trace 1`` (see layers.py).
PER_LAYER = (
    ("blif.parse_s", "s"),
    ("blif.write_s", "s"),
    ("transform.sweep_s", "s"),
    ("transform.strash_s", "s"),
    ("transform.sweep_runs", "count"),
    ("transform.sweep_memo_hits", "count"),
    ("forest.build_s", "s"),
    ("forest.trees", "count"),
    ("tree_dp.self_s", "s"),
    ("tree_dp.decomp_candidates", "count"),
    ("tree_dp.minmap_entries", "count"),
    ("tree_dp.node_splits", "count"),
    ("substrate.emit_s", "s"),
    ("cuts.enumerate_s", "s"),
    ("cuts.nodes_enumerated", "count"),
    ("cuts.candidates", "count"),
    ("cuts.candidates_per_node", "ratio"),
    ("cutmap.cover_s", "s"),
    ("cutmap.exact_area_passes", "count"),
    ("binpack.map_s", "s"),
    ("depthbounded.map_s", "s"),
    ("sat.encode_s", "s"),
    ("sat.solve_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.prefilter_s", "s"),
    ("sat.sim_refutations", "count"),
    ("sat.proofs", "count"),
    ("pool.compute_s", "s"),
    ("pool.queue_wait_s", "s"),
    ("pool.pickle_bytes", "bytes"),
    ("pool.tasks", "count"),
    ("pool.subject_misses", "count"),
    ("pool.busy_frac", "fraction"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_ratio", "fraction"),
    ("trace_overhead_frac", "fraction"),
)


def tail(values):
    """The value ranked N-10 of N: the highest with ten samples beyond it."""
    if len(values) < 11:
        raise ValueError("a tail needs at least 11 samples, got %d" % len(values))
    return sorted(values)[len(values) - 11]


def peak_rss_mb():
    """The larger of this process's peak RSS and its reaped children's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def invert_first_output(text):
    """A mapped BLIF whose first output port computes the inverted function."""
    lines = text.splitlines()
    port = next(line.split()[1] for line in lines if line.startswith(".outputs"))
    inside = False
    for i, line in enumerate(lines):
        if line.startswith("."):
            inside = line.startswith(".names") and line.split()[-1] == port
        elif inside:
            cube, _, bit = line.rpartition(" ")
            lines[i] = ("%s %s" % (cube, "10"[int(bit)])).lstrip()
    return "\n".join(lines) + "\n"


def load_workloads():
    """Import the program under test from ``src``: (module, seconds taken).

    Exits with status 2, printing no result, when the checkout holds no
    program: an installed copy elsewhere must not be measured instead.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("error: no program under test at %s" % src, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print("error: cannot import the program under test: %s" % exc, file=sys.stderr)
        raise SystemExit(2) from None
    return workloads, time.perf_counter() - started


def measure(run_pass, seconds):
    """Whole passes until ``seconds`` have elapsed (at least one).

    Only the first pass keeps its outputs whole; the checks compare the
    others to it by fingerprint.
    """
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        result = run_pass()
        if passes:
            result.shrink()
        passes.append(result)
    return passes


def traced_passes(workload, ops, seconds):
    """Alternate untraced and traced passes; returns both lists."""
    import layers

    from repro.obs import capture

    untraced, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        untraced.append(workload.run_pass(ops))
        if workload.in_process:
            with layers.wrapped_layers(), capture() as sink:
                result = workload.run_pass(ops)
            records = list(sink.records)
        else:
            result, records = workload.run_pass(ops), []
        if len(untraced) > 1:
            untraced[-1].shrink()
        result.shrink()
        traced.append((result, records))
    return untraced, traced


def run_one(args):
    """Run one workload in this process; returns the exit code."""
    wl, import_s = load_workloads()
    workload = wl.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.setup(args.seed, args.smoke)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    if args.trace:
        untraced, traced = traced_passes(workload, ops, args.seconds)
        passes = untraced + [result for result, _ in traced]
    else:
        passes = measure(lambda: workload.run_pass(ops), args.seconds)
    rss = peak_rss_mb()

    if args.inject_fault:
        mapped = passes[0].outputs[0]
        passes[0].outputs[0] = mapped._replace(text=invert_first_output(mapped.text))
    verdict = workload.check(ops, passes, args.seed)

    # Each op's median over the passes: the sample count is the number of
    # ops, whatever the number of passes that fit in the time budget.
    latencies = [statistics.median(lats) for lats in zip(*(p.latencies for p in passes))]
    if args.trace:
        rows = [workload.layers(result, records) for result, records in traced]
        values = {
            name: statistics.median(row[name] for row in rows)
            for name, _unit in PER_LAYER[:-1]
        }
        values["trace_overhead_frac"] = (
            statistics.median(r.wall for r, _ in traced)
            / statistics.median(r.wall for r in untraced)
            - 1.0
        )
        if args.trace_file:
            write_trace(args.trace_file, [rec for _, recs in traced for rec in recs])
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall for r in passes),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail(latencies) * 1e3,
            "luts": verdict.luts,
            "depth": verdict.depth,
            "peak_rss_mb": rss,
        }
        units = END_TO_END

    for note in verdict.notes:
        print("FAIL %s %s" % (args.workload, note))
    print("ops %s %d count" % (args.workload, len(latencies)))
    print("passes %s %d count" % (args.workload, len(passes)))
    print(
        "ops_failed_frac %s %r fraction"
        % (args.workload, verdict.failed / verdict.attempted)
    )
    for name, unit in units:
        print("%s %s %r %s" % (name, args.workload, values[name], unit))
    print(
        json.dumps(
            {
                "correct": verdict.failed == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units
                },
            }
        )
    )
    return 0 if verdict.failed == 0 else 1


def write_trace(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def run_child(args, workload, seed):
    """One workload in a fresh process: (exit code, printed lines, result)."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_file:
        cmd += ["--trace-file", "%s.%s.jsonl" % (args.trace_file, workload)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, lines[:-1] if result else lines, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args):
    """Every selected workload in its own subprocess; returns the exit code."""
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    repeat = max(1, args.repeat)
    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        samples = {}
        for i in range(repeat):
            status, lines, result = run_child(args, workload, args.seed + i)
            for line in lines:
                print(line)
            if status != 0 or result is None:
                code = 1
                summary["correct"] = False
            if result is None:
                print("FAIL %s seed %d: no result (exit %d)" % (workload, args.seed + i, status))
                continue
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
                summary["metrics"]["%s.%s" % (workload, name)] = metric
        if repeat > 1:
            print("spread %s over seeds %d..%d: median [q1, q3] iqr/median"
                  % (workload, args.seed, args.seed + repeat - 1))
            for name, values in samples.items():
                q1, q2, q3 = quartiles(values)
                share = (q3 - q1) / q2 if q2 else 0.0
                print("  %-26s %14.6g [%.6g, %.6g] %.4f" % (name, q2, q1, q3, share))
    print(json.dumps(summary))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="with --trace 1: write spans as JSONL")
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload on successive seeds, with spreads")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one mapped circuit before the checks "
                             "(tree_dp, dag_cuts; for self-tests)")
    args = parser.parse_args(argv)
    if args.workload and not args.repeat:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
