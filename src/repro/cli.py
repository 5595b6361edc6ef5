"""Command-line interface.

Installed as ``chortle`` (also ``python -m repro``).  Subcommands::

    chortle map in.blif -k 4 -o out.blif          # Chortle mapping
    chortle map in.blif -k 4 --mapper mis         # MIS-style baseline
    chortle map in.blif -k 4 --mapper flowmap     # depth-optimal mapping
    chortle map in.blif -k 4 --mapper binpack     # fast bin-packing mapper
    chortle map in.blif --flow delay              # a registered flow
    chortle map in.blif --flow sweep,strash,chortle,merge   # custom flow
    chortle map in.blif --flow area --checked     # per-pass verification
    chortle flows                                 # registered flows + passes
    chortle map in.blif --trace trace.jsonl       # machine-readable spans
    chortle map in.blif --profile                 # stage timings on stderr
    chortle map in.blif --cache --jobs 4          # memo cache + parallel trees
    chortle profile in.blif -k 4                  # span tree + counters
    chortle explain 9symml -k 4                   # decision provenance report
    chortle explain in.blif --node n1 --format json   # one node, as JSON
    chortle map in.blif --explain                 # explanation alongside mapping
    chortle stats in.blif                         # network statistics
    chortle generate 9symml -o 9symml.blif        # synthetic MCNC stand-in
    chortle verify in.blif mapped.blif            # equivalence check
    chortle verify a.blif b.blif --method sat     # formal SAT proof
    chortle verify --cell adv_add24 --mapper cutmap   # map + prove a cell
    chortle verify --cell xor_mesh --per-lut      # localize a corrupted LUT
    chortle verify --corpus --semantic -o gate.json   # adversarial SAT gate
    chortle lint in.blif                          # static network audit
    chortle lint mapped.blif --mapped --semantic  # SAT-backed CHRT4xx rules
    chortle lint mapped.blif --mapped -k 4        # audit a mapped circuit
    chortle lint --suite --fail-on error          # lint the whole QoR sweep
    chortle lint --rules                          # print the rule catalogue
    chortle map in.blif --flow area --lint        # per-stage lint gating
    chortle qor record -o run.json                # persist a QoR sweep
    chortle qor diff base.json run.json           # classify QoR changes
    chortle qor gate base.json                    # re-run suite, fail on regress
    chortle qor report run.json                   # markdown QoR table
    chortle perf top                              # self-time hotspot table
    chortle perf flame -o out.folded              # folded stacks (speedscope)
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional, Sequence

from repro.blif import (
    blif_to_network,
    parse_blif_file,
    write_lut_circuit,
    write_network,
)
from repro.bench.mcnc import MCNC_PROFILES
from repro.errors import ReproError
from repro.flow import get_registry, mapper_names, resolve_mapper
from repro.network import network_stats
from repro.obs import (
    JsonLinesSink,
    capture,
    get_metrics,
    get_tracer,
    render_span_tree,
    span,
)
from repro.opt import factored_network_from_blif
from repro.verify import verify_equivalence


def _read_network(spec: str, factor: bool = False, minimize: bool = False):
    """The network an input names: a BLIF file, or an MCNC/adversarial cell.

    A path that exists is parsed as BLIF.  Otherwise an MCNC profile or
    adversarial preset name builds that cell directly (no BLIF round
    trip, so node names are the generator's).  ``factor`` and
    ``minimize`` rewrite BLIF tables, so they are errors on a cell.
    """
    if os.path.exists(spec):
        model = parse_blif_file(spec)
        if factor or minimize:
            return factored_network_from_blif(model, minimize=minimize)
        return blif_to_network(model)
    from repro.bench.adversarial import ADVERSARIAL_PRESETS, resolve_cell

    if spec in MCNC_PROFILES or spec in ADVERSARIAL_PRESETS:
        if factor or minimize:
            raise ReproError(
                "--factor and --minimize rewrite BLIF tables; %r is a cell "
                "name, not a BLIF file" % spec
            )
        return resolve_cell(spec)
    raise ReproError(
        "input %r is neither a BLIF file nor a known cell (MCNC profiles: "
        "%s; adversarial presets: %s)"
        % (
            spec,
            ", ".join(sorted(MCNC_PROFILES)),
            ", ".join(sorted(ADVERSARIAL_PRESETS)),
        )
    )


def _cli_cache(args: argparse.Namespace):
    """The node-table cache requested by --cache / --cache-dir, or None.

    ``--cache-dir`` implies caching and pre-loads any cache file a
    previous run saved there (:func:`_save_cli_cache` writes it back
    after mapping).
    """
    cache_dir = getattr(args, "cache_dir", None)
    if not (getattr(args, "cache", False) or cache_dir):
        return None
    from repro.perf.memo import get_cache

    cache = get_cache()
    if cache_dir:
        loaded = cache.load_disk(cache_dir)
        if loaded:
            print(
                "loaded %d cached node tables from %s" % (loaded, cache_dir),
                file=sys.stderr,
            )
    return cache


def _save_cli_cache(args: argparse.Namespace, cache) -> None:
    cache_dir = getattr(args, "cache_dir", None)
    if cache is not None and cache_dir:
        cache.save_disk(cache_dir)


def _resolve_cli_mapper(args: argparse.Namespace, cache=None):
    """The mapper named by ``--flow`` (which wins) or ``--mapper``.

    ``--checked [METHOD]`` and ``--lint`` verify or lint every stage, so
    they run the name as a flow; a raw mapper name runs as its one-stage
    flow.  ``cache`` and ``--jobs`` are the performance-layer options,
    forwarded to the map pass wherever it appears.
    """
    # --checked is an optional-value flag: None (off), or the verify
    # method "sim"/"sat"/"auto" (bare --checked means "sim").
    checked = getattr(args, "checked", None)
    return resolve_mapper(
        args.flow or args.mapper,
        args.k,
        checked=bool(checked),
        lint=bool(getattr(args, "lint", False)),
        cache=cache,
        jobs=int(getattr(args, "jobs", 1) or 1),
        explain=bool(getattr(args, "explain", False)),
        verify_method=checked or "sim",
    )


@contextlib.contextmanager
def _trace_sink(path: Optional[str]):
    """Attach a JSON-lines sink to the global tracer for the duration."""
    if not path:
        yield None
        return
    try:
        sink = JsonLinesSink(path)
    except OSError as exc:
        raise ReproError("cannot write trace file %r: %s" % (path, exc)) from exc
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        yield sink
    finally:
        tracer.remove_sink(sink)
        sink.close()


def _print_stage_table(sink, stream=None) -> None:
    """Per-stage timing table: self time (hottest first) plus totals.

    Self time — a stage's duration minus its children's — is the column
    that attributes cost; inclusive wrappers such as ``cli.map`` sink to
    the bottom instead of dominating the table.
    """
    from repro.obs.traceview import aggregate_by_name, build_span_tree

    stream = stream if stream is not None else sys.stderr
    stats = aggregate_by_name(build_span_tree(sink.records))
    if not stats:
        print("no spans recorded", file=stream)
        return
    width = max(len(stat.name) for stat in stats)
    print(
        "%-*s %10s %10s %7s" % (width, "stage", "self", "total", "count"),
        file=stream,
    )
    for stat in stats:
        print(
            "%-*s %8.3fms %8.3fms %7d"
            % (
                width,
                stat.name,
                stat.self_seconds * 1e3,
                stat.total_seconds * 1e3,
                stat.count,
            ),
            file=stream,
        )


def _cmd_map(args: argparse.Namespace) -> int:
    net = _read_network(args.input, args.factor, args.minimize)
    cache = _cli_cache(args)
    mapper = _resolve_cli_mapper(args, cache=cache)
    mapper_name = mapper.name
    counters_before = get_metrics().counters()
    # Timing is routed through the tracer: the run is wrapped in one
    # span and the elapsed time read back from the captured record.
    with _trace_sink(args.trace), capture() as sink:
        with span("cli.map", mapper=mapper_name, k=args.k):
            circuit = mapper.map(net)
        if args.verify:
            vectors = verify_equivalence(net, circuit)
            print(
                "verified against %d input vectors" % vectors,
                file=sys.stderr,
            )
    elapsed = sink.by_name("cli.map")[0].duration
    _save_cli_cache(args, cache)
    lint_failed = False
    if getattr(args, "lint", False):
        lint_failed = _report_map_lint(getattr(mapper, "diagnostics", []))
    if getattr(args, "explain", False):
        _report_map_explain(mapper, mapper_name, args)
    if args.profile:
        _print_stage_table(sink)
    _output(args.output, write_lut_circuit(circuit))
    if args.verilog:
        from repro.verilog import write_verilog

        _write_text(args.verilog, write_verilog(circuit))
    if args.report or args.json_report:
        from repro.report import build_report

        report = build_report(
            net,
            circuit,
            args.k,
            mapper=mapper_name,
            seconds=elapsed,
            pack_blocks=args.clb,
            counters=get_metrics().counter_delta(counters_before) or None,
        )
        print(
            report.to_json() if args.json_report else report.to_text(),
            file=sys.stderr,
        )
    else:
        print(
            "%s: %d LUTs (K=%d, %d counting inverters), depth %d, %.3fs"
            % (
                mapper_name,
                circuit.cost,
                args.k,
                circuit.num_luts,
                circuit.depth(),
                elapsed,
            ),
            file=sys.stderr,
        )
    return 1 if lint_failed else 0


def _report_map_explain(mapper, mapper_name: str, args: argparse.Namespace) -> None:
    """Print/save the decision provenance a ``map --explain`` run recorded."""
    from repro.obs.explain import render_explanation

    explanation = getattr(mapper, "explanation", None)
    if explanation is None:
        print(
            "explain: n/a (mapper %r records no decisions)" % mapper_name,
            file=sys.stderr,
        )
        return
    explain_json = getattr(args, "explain_json", None)
    if explain_json:
        explanation.save(explain_json)
        print("wrote explanation to %s" % explain_json, file=sys.stderr)
    print(render_explanation(explanation), file=sys.stderr)


def _report_map_lint(diagnostics) -> bool:
    """Print per-stage lint findings; True when any is error-severity."""
    from repro.analysis import ERROR, at_least, render_text

    if not diagnostics:
        print("lint: clean (no diagnostics)", file=sys.stderr)
        return False
    print(render_text(diagnostics), file=sys.stderr)
    return any(at_least(d.severity, ERROR) for d in diagnostics)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Map with tracing on and print the span tree + counter summary."""
    net = _read_network(args.input, args.factor, args.minimize)
    cache = _cli_cache(args)
    mapper = _resolve_cli_mapper(args, cache=cache)
    mapper_name = mapper.name
    registry = get_metrics()
    counters_before = registry.counters()
    # span() must be evaluated after capture() attaches its sink, or it
    # resolves to the no-op span and the root never reaches the tree.
    with _trace_sink(args.trace), capture() as sink, span(
        "cli.profile", mapper=mapper_name, k=args.k
    ):
        circuit = mapper.map(net)
    _save_cli_cache(args, cache)
    print(
        "%s: %d LUTs (K=%d), depth %d"
        % (mapper_name, circuit.cost, args.k, circuit.depth())
    )
    print()
    print("span tree:")
    records = sink.records
    if not args.trees:
        records = [r for r in records if r.name != "chortle.map_tree"]
    print(render_span_tree(records))
    print()
    print("counters:")
    delta = registry.counter_delta(counters_before)
    if not delta:
        print("  (none)")
    for name, value in sorted(delta.items()):
        print("  %-32s %d" % (name, value))
    print()
    print("stage self time (hottest first):")
    _print_stage_table(sink, stream=sys.stdout)
    profile = circuit.tree_profile()
    print()
    print("largest trees (cost-counted LUTs, from per-LUT provenance):")
    if profile:
        worst = sorted(profile.items(), key=lambda kv: (-kv[1], kv[0]))
        for tree, luts in worst[:10]:
            print("  %-32s %d" % (tree, luts))
    else:
        print("  n/a (mapper records no provenance)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Map with decision recording on and render the explanation."""
    from repro.obs.explain import render_explanation

    net = _read_network(args.input)
    mapper = _resolve_cli_mapper(args)
    mapper_name = mapper.name
    circuit = mapper.map(net)
    explanation = getattr(mapper, "explanation", None)
    if explanation is None:
        print(
            "%s: %d LUTs (K=%d), depth %d"
            % (mapper_name, circuit.cost, args.k, circuit.depth()),
            file=sys.stderr,
        )
        print(
            "explain: n/a (mapper %r records no decisions)" % mapper_name,
            file=sys.stderr,
        )
        return 1
    if args.node is not None and explanation.filter_node(args.node).trees == []:
        known = sorted(
            {d.node for tree in explanation.trees for d in tree.nodes}
        )
        raise ReproError(
            "no decision recorded for node %r in %s (%d recorded nodes; "
            "e.g. %s)"
            % (args.node, explanation.circuit, len(known),
               ", ".join(known[:5]) or "none")
        )
    if args.format == "json":
        exp = (
            explanation
            if args.node is None
            else explanation.filter_node(args.node)
        )
        text = exp.to_json() + "\n"
    else:
        text = render_explanation(explanation, node=args.node) + "\n"
    _output(args.output, text)
    if args.output:
        print("wrote %s" % args.output, file=sys.stderr)
    return 0


def _cmd_flows(args: argparse.Namespace) -> int:
    """List the registered flows and the passes a custom spec can use."""
    from repro.flow import PASSES

    registry = get_registry()
    width = max(len(name) for name in registry.names())
    print("registered flows:")
    for flow in registry.flows():
        print("  %-*s  %s" % (width, flow.name, flow.spec))
        if flow.description:
            print("  %-*s    %s" % (width, "", flow.description))
    print()
    print("passes for custom --flow specs (comma-separated):")
    for name in sorted(PASSES):
        p = PASSES[name]
        print(
            "  %-14s %s -> %s" % (name, p.input_domain, p.output_domain)
        )
    return 0


def _cmd_mappers(args: argparse.Namespace) -> int:
    """List every resolvable mapper with its capability flags."""
    from repro.flow import mapper_capabilities

    rows = mapper_capabilities()
    width = max(len(row.name) for row in rows)
    print(
        "%-*s  %-5s  %-10s  %-5s  %-7s  %s"
        % (width, "mapper", "kind", "provenance", "cache", "K", "description")
    )
    for row in rows:
        lo, hi = row.k_range
        k_range = "%d-%s" % (lo, hi if hi is not None else "")
        print(
            "%-*s  %-5s  %-10s  %-5s  %-7s  %s"
            % (
                width,
                row.name,
                row.kind,
                "yes" if row.records_provenance else "no",
                "yes" if row.cache_aware else "no",
                k_range,
                row.description,
            )
        )
    return 0


def _mapped_circuit_from_blif(path: str):
    """Parse an already-mapped BLIF file (one table per LUT) as a circuit."""
    from repro.core.lut import LUTCircuit

    model = parse_blif_file(path)
    circuit = LUTCircuit(model.name)
    for name in model.inputs:
        circuit.add_input(name)
    for table in model.tables:
        circuit.add_lut(table.output, tuple(table.inputs), table.truth_table())
    for out in model.outputs:
        circuit.set_output(out, out)
    return circuit


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Timing and wiring analysis of an already-mapped BLIF circuit."""
    from repro.analysis import analyze_timing, analyze_wiring

    circuit = _mapped_circuit_from_blif(args.input)
    timing = analyze_timing(circuit)
    wiring = analyze_wiring(circuit)
    print("%s: %d LUTs (%d counted), depth %d" % (
        circuit.name, circuit.num_luts, circuit.cost, timing.depth))
    print("critical path (port %r): %s" % (
        timing.critical_port, " -> ".join(timing.critical_path)))
    print("nets: %d, pins: %d, max fanout: %d, avg fanout: %.2f" % (
        wiring.num_nets, wiring.total_pins, wiring.max_fanout,
        wiring.average_fanout))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Rule-based static analysis of networks, circuits, and flows."""
    from repro.analysis import (
        FlowArtifacts,
        LintContext,
        all_rules,
        apply_baseline,
        at_least,
        lint_circuit,
        lint_flow,
        lint_network,
        load_baseline,
        render_json,
        render_text,
    )
    from repro.analysis.suite import lint_suite

    if args.rules:
        width = max(len(r.code) for r in all_rules())
        for rule in all_rules():
            print(
                "%-*s %-5s %-8s %-18s %s"
                % (width, rule.code, rule.severity, rule.domain, rule.name,
                   rule.summary)
            )
        return 0
    if not (args.files or args.cell or args.suite or args.spec):
        raise ReproError(
            "nothing to lint: give BLIF files, --cell, --suite, or --spec "
            "(or --rules for the catalogue)"
        )
    diagnostics = []
    for path in args.files:
        if args.mapped:
            circuit = _mapped_circuit_from_blif(path)
            ctx = LintContext(k=args.k, subject=path)
            diagnostics.extend(lint_circuit(circuit, ctx))
            if args.semantic:
                from repro.analysis import lint_semantic

                diagnostics.extend(lint_semantic(circuit, ctx))
        else:
            net = _read_network(path)
            diagnostics.extend(
                lint_network(net, LintContext(subject=path))
            )
    if args.spec:
        diagnostics.extend(
            lint_flow(FlowArtifacts(name="cli", spec=args.spec))
        )
    if args.cell or args.suite:
        ks = tuple(args.ks) if args.ks else ((args.k,) if args.cell else (2, 3, 4, 5))
        diagnostics.extend(
            lint_suite(
                circuits=args.cell or None,
                mappers=tuple(args.mappers),
                ks=ks,
                jobs=args.jobs,
                progress=bool(getattr(args, "progress", False)),
                semantic=bool(args.semantic),
            )
        )
    baseline = load_baseline(args.baseline) if args.baseline else None
    kept, suppressed = apply_baseline(diagnostics, baseline)
    report = (
        render_json(kept, suppressed=suppressed)
        if args.format == "json"
        else render_text(kept, suppressed=suppressed)
    )
    _output(args.output, report + "\n")
    if args.output:
        print("wrote %s" % args.output, file=sys.stderr)
    gating = [d for d in kept if at_least(d.severity, args.fail_on)]
    return 1 if gating else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    net = _read_network(args.input, args.factor)
    stats = network_stats(net)
    print(stats)
    print("fanin histogram: %s" % dict(sorted(stats.fanin_histogram.items())))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.adversarial import resolve_cell

    net = resolve_cell(args.profile)
    _output(args.output, write_network(net))
    print(str(network_stats(net)), file=sys.stderr)
    return 0


#: Mappers the adversarial corpus gate sweeps by default: every
#: registered algorithmic mapper that targets arbitrary K.
CORPUS_MAPPERS = ("chortle", "mis", "cutmap", "flowmap", "binpack")


def _format_counterexample(vector) -> str:
    if not vector:
        return "(none)"
    return " ".join("%s=%d" % (n, vector[n]) for n in sorted(vector))


def _verify_pair(golden, candidate, method: str) -> dict:
    """Pairwise equivalence verdict as a plain dict (text/JSON agnostic).

    ``sat`` always proves; ``auto`` simulates exhaustively up to the
    input limit and proves above it; ``sim`` is the historical
    simulation path, whose above-limit verdict is a flagged sample.
    """
    from repro.errors import VerificationError
    from repro.verify import EXHAUSTIVE_LIMIT

    num_inputs = len(golden.inputs)
    prove = method == "sat" or (
        method == "auto" and num_inputs > EXHAUSTIVE_LIMIT
    )
    try:
        if prove:
            from repro.sat.miter import check_equivalence

            verdict = check_equivalence(golden, candidate).to_dict()
            verdict.update(inputs=num_inputs, proved=True, sampled=False)
            return verdict
        covered = verify_equivalence(golden, candidate, method="sim")
    except VerificationError as exc:
        # A simulated mismatch, or an interface mismatch under any method.
        return {
            "equivalent": False,
            "method": "sat" if prove else "sim",
            "inputs": num_inputs,
            "detail": str(exc),
        }
    return {
        "equivalent": True,
        "method": covered.mode,
        "inputs": num_inputs,
        "vectors": int(covered),
        "proved": covered.proved,
        "sampled": covered.sampled,
    }


def _print_verify_verdict(verdict: dict) -> None:
    """Human-readable verdict: stdout keeps the historical one-liner."""
    if verdict["equivalent"]:
        print("equivalent")
        if verdict.get("sampled"):
            print(
                "warning: verdict is a %d-vector random sample, not a "
                "proof (use --method sat or auto)" % verdict.get("vectors", 0),
                file=sys.stderr,
            )
        else:
            how = (
                "SAT proof over %d output port(s)" % verdict["checked_outputs"]
                if verdict["method"] == "sat"
                else "exhaustive over %d vectors" % verdict.get("vectors", 0)
            )
            print("proved: %s" % how, file=sys.stderr)
        return
    print("NOT equivalent")
    if verdict.get("failing_output") is not None:
        print(
            "output %r differs (expected %d, got %d)"
            % (
                verdict["failing_output"],
                verdict["expected"],
                verdict["actual"],
            ),
            file=sys.stderr,
        )
        print(
            "counterexample: %s"
            % _format_counterexample(verdict.get("counterexample")),
            file=sys.stderr,
        )
    elif verdict.get("detail"):
        print(verdict["detail"], file=sys.stderr)


def _verify_per_lut(golden, circuit) -> dict:
    """Per-LUT cone verdict as a dict, printed alongside the whole check."""
    from repro.sat.miter import check_per_lut

    result = check_per_lut(golden, circuit)
    verdict = result.to_dict()
    if result.equivalent:
        print(
            "per-LUT: %d cone(s) proved (%d inverted, %d skipped)"
            % (
                result.checked_luts,
                len(result.inverted_luts),
                result.skipped_luts,
            ),
            file=sys.stderr,
        )
    else:
        print(
            "per-LUT: LUT %r is corrupted (expected %d, got %d)"
            % (result.failing_lut, result.expected, result.actual),
            file=sys.stderr,
        )
        print(
            "counterexample: %s"
            % _format_counterexample(result.counterexample),
            file=sys.stderr,
        )
    return verdict


def _verify_corpus(args: argparse.Namespace) -> int:
    """The sat-gate sweep: adversarial corpus x mappers, formally checked.

    Every cell must SAT-prove equivalent; with ``--semantic`` every
    mapped circuit additionally runs the CHRT4xx rules and any
    error-severity finding fails the gate.  Writes the row-per-cell JSON
    artifact to ``-o`` and exits 1 on the first-class failures only
    (inequivalence, semantic errors), never on warnings.
    """
    import json
    import time

    from repro.bench.adversarial import ADVERSARIAL_PRESETS, resolve_cell
    from repro.flow.mappers import supports_k
    from repro.sat.miter import check_equivalence

    cells = list(args.cell or ADVERSARIAL_PRESETS)
    rows = []
    failures = 0
    for name in cells:
        net = resolve_cell(name)
        for mapper_name in args.mappers:
            if not supports_k(mapper_name, args.k):
                continue
            started = time.perf_counter()
            circuit = resolve_mapper(mapper_name, args.k).map(net)
            result = check_equivalence(net, circuit)
            row = {
                "cell": name,
                "mapper": mapper_name,
                "k": args.k,
                "inputs": len(net.inputs),
                "luts": circuit.cost,
                "seconds": round(time.perf_counter() - started, 4),
                **result.to_dict(),
            }
            if args.semantic:
                from repro.analysis import ERROR, at_least, lint_mapping

                diags = lint_mapping(
                    net, circuit, k=args.k, semantic=True,
                    subject="%s[k=%d,%s]" % (name, args.k, mapper_name),
                )
                errors = [d for d in diags if at_least(d.severity, ERROR)]
                row["semantic_findings"] = len(diags)
                row["semantic_errors"] = len(errors)
                for diag in errors:
                    print("SEMANTIC %s" % diag, file=sys.stderr)
            ok = result.equivalent and not row.get("semantic_errors")
            if not ok:
                failures += 1
            print(
                "%-8s %-16s %-9s %3d in %4d LUTs %7.3fs%s"
                % (
                    "OK" if ok else "FAIL",
                    name,
                    mapper_name,
                    row["inputs"],
                    row["luts"],
                    row["seconds"],
                    ""
                    if result.equivalent
                    else "  output %r differs" % result.failing_output,
                )
            )
            rows.append(row)
    summary = {
        "k": args.k,
        "cells": cells,
        "mappers": list(args.mappers),
        "checked": len(rows),
        "failures": failures,
        "semantic": bool(args.semantic),
        "rows": rows,
    }
    if args.output:
        _write_text(args.output, json.dumps(summary, indent=2) + "\n")
        print("wrote %s" % args.output, file=sys.stderr)
    print(
        "sat gate: %d cell(s) checked, %d failure(s)" % (len(rows), failures)
    )
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Formal/simulated equivalence checking: files, cells, or the corpus."""
    import json

    if args.corpus:
        return _verify_corpus(args)
    if args.cell:
        if args.files:
            raise ReproError("--cell and positional BLIF files are exclusive")
        if len(args.cell) != 1:
            raise ReproError("pairwise verify takes exactly one --cell")
        from repro.bench.adversarial import resolve_cell

        golden = resolve_cell(args.cell[0])
        candidate = resolve_mapper(args.mapper, args.k).map(golden)
    elif len(args.files) == 2:
        golden = _read_network(args.files[0])
        if args.per_lut:
            candidate = _mapped_circuit_from_blif(args.files[1])
        else:
            candidate = _read_network(args.files[1])
    else:
        raise ReproError(
            "verify needs two BLIF files, --cell NAME, or --corpus"
        )
    verdict = _verify_pair(golden, candidate, args.method)
    if args.format == "json":
        payload = dict(verdict)
    else:
        _print_verify_verdict(verdict)
        payload = None
    if args.per_lut:
        per_lut = _verify_per_lut(golden, candidate)
        if payload is not None:
            payload["per_lut"] = per_lut
        if not per_lut["equivalent"]:
            verdict = dict(verdict, equivalent=False)
    if payload is not None:
        _output(args.output, json.dumps(payload, indent=2) + "\n")
    return 0 if verdict["equivalent"] else 1


def _utc_timestamp() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _record_suite(args: argparse.Namespace):
    """Run the benchmark sweep described by the qor suite options."""
    from repro.bench.runner import run_suite

    result = run_suite(
        circuits=args.circuits or None,
        mappers=tuple(args.mappers),
        ks=tuple(args.ks),
        verify=args.verify,
        jobs=getattr(args, "jobs", 1),
        cache=getattr(args, "cache", False),
        progress=bool(getattr(args, "progress", False)),
    )
    return result.to_records(
        created_at=args.timestamp or _utc_timestamp(), label=args.label
    )


def _write_text(path: Optional[str], text: str) -> None:
    if not path:
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ReproError("cannot write %r: %s" % (path, exc)) from exc


def _output(path: Optional[str], text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when there is no path."""
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _finish_diff(diff, args: argparse.Namespace) -> int:
    """Print/record a QoR diff and turn it into an exit status."""
    _write_text(getattr(args, "markdown", None), diff.to_markdown())
    for cell in diff.regressions:
        print("REGRESSED %s" % cell.describe())
    for cell in diff.improvements:
        print("improved  %s" % cell.describe())
    for key in diff.removed:
        print("MISSING   (%s, K=%d, %s): cell absent from current run" % key)
    n_reg = len(diff.regressions)
    n_imp = len(diff.improvements)
    print(
        "qor diff: %d regressed, %d improved, %d unchanged (%d cells); gate %s"
        % (
            n_reg,
            n_imp,
            len(diff.cells) - n_reg - n_imp,
            len(diff.cells),
            "PASS" if diff.passes_gate() else "FAIL",
        )
    )
    return 0 if diff.passes_gate() else 1


def _cmd_qor_record(args: argparse.Namespace) -> int:
    record = _record_suite(args)
    record.save(args.output)
    print("wrote %s: %s" % (args.output, record.describe()), file=sys.stderr)
    return 0


def _cmd_qor_diff(args: argparse.Namespace) -> int:
    from repro.obs.qor import RunRecord
    from repro.obs.qordiff import diff_records

    baseline = RunRecord.load(args.baseline)
    current = RunRecord.load(args.current)
    return _finish_diff(diff_records(baseline, current), args)


def _cmd_qor_gate(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.bench.mcnc import TABLE_CIRCUITS
    from repro.obs.qor import RunRecord
    from repro.obs.qordiff import diff_records

    baseline = RunRecord.load(args.baseline)
    current = _record_suite(args)
    if args.output:
        current.save(args.output)
        print(
            "wrote %s: %s" % (args.output, current.describe()), file=sys.stderr
        )
    # Gate only the baseline cells this sweep covers, so a narrowed gate
    # can pass; a covered cell the run lacks still fails as missing.
    circuits = set(args.circuits or TABLE_CIRCUITS)
    covered = [
        report
        for report in baseline.reports
        if report.circuit_name in circuits
        and report.mapper in args.mappers
        and report.k in args.ks
    ]
    print(
        "qor gate: %d of %d baseline cells in the sweep (%d left out)"
        % (
            len(covered),
            len(baseline.reports),
            len(baseline.reports) - len(covered),
        )
    )
    baseline = dataclasses.replace(baseline, reports=covered)
    return _finish_diff(diff_records(baseline, current), args)


def _cmd_qor_report(args: argparse.Namespace) -> int:
    from repro.obs.qor import RunRecord
    from repro.obs.qordiff import render_record

    _output(args.output, render_record(RunRecord.load(args.record)))
    return 0


def _perf_trace_records(args: argparse.Namespace):
    """Span records for ``perf top|flame``: a trace file, or a traced run.

    Without ``--trace`` the requested suite is run serially under one
    ``perf.suite`` root span, so every span nests under a single root
    and the self times telescope to the run's wall clock.
    """
    from repro.obs.traceview import load_trace

    if args.trace:
        return load_trace(args.trace)
    from repro.bench.runner import run_suite

    # capture() must attach its sink before span() is evaluated, or the
    # tracer hands back the no-op span and the root never materializes.
    with capture() as sink, span(
        "perf.suite", mappers=",".join(args.mappers), ks=str(list(args.ks))
    ):
        run_suite(
            circuits=args.circuits or None,
            mappers=tuple(args.mappers),
            ks=tuple(args.ks),
            jobs=1,
            cache=args.cache,
            progress=args.progress,
        )
    return sink.records


def _cmd_perf_top(args: argparse.Namespace) -> int:
    """Self-time hotspot table plus the critical span path."""
    from repro.obs.traceview import (
        build_span_tree,
        critical_path,
        hotspots,
        render_critical_path,
        render_hotspots,
    )

    records = _perf_trace_records(args)
    if not records:
        print("no spans recorded", file=sys.stderr)
        return 1
    stats, wall = hotspots(records, top=args.top)
    print(render_hotspots(stats, wall))
    print()
    print(render_critical_path(critical_path(build_span_tree(records))))
    return 0


def _cmd_perf_flame(args: argparse.Namespace) -> int:
    """Folded stacks for ``flamegraph.pl`` / speedscope."""
    from repro.obs.traceview import folded_stacks

    records = _perf_trace_records(args)
    lines = folded_stacks(records)
    _output(args.output, "\n".join(lines) + "\n" if lines else "")
    if args.output:
        print(
            "wrote %d folded stacks to %s" % (len(lines), args.output),
            file=sys.stderr,
        )
    return 0


def _add_input_options(p: argparse.ArgumentParser, default_mapper: str) -> None:
    """The input, ``-k``, ``--mapper`` and ``--flow`` options shared by
    ``map``, ``profile`` and ``explain``."""
    p.add_argument(
        "input",
        help="input BLIF file, or an MCNC profile or adversarial preset "
        "name (e.g. 9symml)",
    )
    p.add_argument("-k", type=int, default=4, help="LUT input count (default 4)")
    p.add_argument(
        "--mapper",
        choices=mapper_names(),
        default=default_mapper,
        help="mapping algorithm or registered flow (default %(default)s)",
    )
    p.add_argument(
        "--flow",
        metavar="NAME_OR_SPEC",
        help="map with a registered flow or a comma-separated pass spec "
        "(e.g. 'sweep,strash,chortle,merge'); overrides --mapper",
    )


def _add_mapping_options(p: argparse.ArgumentParser) -> None:
    """The check, front-end, trace and performance-layer options shared
    by ``map`` and ``profile``."""
    p.add_argument(
        "--checked",
        nargs="?",
        const="sim",
        default=None,
        choices=["sim", "sat", "auto"],
        metavar="METHOD",
        help="verify functional equivalence after every flow pass (a "
        "mapper name runs as its one-stage flow); optional METHOD picks "
        "how: sim (default, exhaustive-or-random simulation), sat (formal "
        "proof), or auto (exhaustive below 14 inputs, SAT proof above)",
    )
    p.add_argument(
        "--factor",
        action="store_true",
        help="algebraically factor each table before mapping (MIS-script style)",
    )
    p.add_argument(
        "--minimize",
        action="store_true",
        help="two-level minimize each table (implies --factor)",
    )
    p.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSON-lines trace of mapping spans to FILE",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="map forest trees on N worker processes (default 1: serial)",
    )
    p.add_argument(
        "--cache",
        action="store_true",
        help="memoize node tables in the shared structural cache "
        "(results are bit-identical to uncached mapping)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist the node-table cache under DIR across runs "
        "(implies --cache); only load cache files you wrote yourself.  "
        "With --jobs > 1 each worker process starts from the loaded "
        "tables, but tables it computes are not written back",
    )


def _add_sweep_options(
    p: argparse.ArgumentParser, mappers: Sequence[str], ks: Sequence[int]
) -> None:
    """The suite-sweep options shared by ``qor record|gate`` and
    ``perf top|flame``; each command family passes its own defaults."""
    p.add_argument(
        "--circuits",
        nargs="*",
        default=None,
        metavar="NAME",
        help="MCNC profile names (default: the Table 1-4 suite)",
    )
    p.add_argument(
        "--mappers",
        nargs="+",
        default=list(mappers),
        metavar="MAPPER",
        help="mappers to sweep (default: %s)" % " ".join(mappers),
    )
    p.add_argument(
        "--ks",
        nargs="+",
        type=int,
        default=list(ks),
        metavar="K",
        help="LUT input counts to sweep (default: %s)"
        % " ".join(str(k) for k in ks),
    )
    p.add_argument(
        "--cache",
        action="store_true",
        help="memoize node tables during the sweep (bit-identical)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="per-cell heartbeat lines on stderr while the suite runs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chortle",
        description="Technology mapping for lookup table-based FPGAs "
        "(Chortle, DAC 1990 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map a BLIF network into K-input LUTs")
    _add_input_options(p_map, default_mapper="chortle")
    _add_mapping_options(p_map)
    p_map.add_argument("-o", "--output", help="output BLIF file (default stdout)")
    p_map.add_argument(
        "--lint",
        action="store_true",
        help="run the lint rules after every flow pass, attribute findings "
        "to the emitting stage, and exit nonzero on errors (a mapper name "
        "runs as its one-stage flow)",
    )
    p_map.add_argument(
        "--verify",
        action="store_true",
        help="simulate the mapped circuit against the input network",
    )
    p_map.add_argument(
        "--report",
        action="store_true",
        help="print a structured mapping report to stderr",
    )
    p_map.add_argument(
        "--json-report",
        action="store_true",
        help="print the mapping report as JSON to stderr",
    )
    p_map.add_argument(
        "--verilog",
        metavar="FILE",
        help="also write the mapped circuit as structural Verilog",
    )
    p_map.add_argument(
        "--clb",
        action="store_true",
        help="include XC3000-style CLB packing figures in the report",
    )
    p_map.add_argument(
        "--explain",
        action="store_true",
        help="record the DP's decisions while mapping and print the "
        "explanation (area/depth attribution, per-node choices) to stderr",
    )
    p_map.add_argument(
        "--explain-json",
        metavar="FILE",
        help="with --explain: also save the explanation as schema-versioned "
        "JSON to FILE",
    )
    p_map.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing table to stderr",
    )
    p_map.set_defaults(func=_cmd_map)

    p_profile = sub.add_parser(
        "profile", help="map with tracing on; print span tree and counters"
    )
    _add_input_options(p_profile, default_mapper="area")
    _add_mapping_options(p_profile)
    p_profile.add_argument(
        "--trees",
        action="store_true",
        help="include one span per mapped tree (verbose)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_explain = sub.add_parser(
        "explain",
        help="map with decision recording on; print the explanation "
        "(who pays area/depth, per-node DP choices)",
    )
    _add_input_options(p_explain, default_mapper="chortle")
    p_explain.add_argument(
        "--node",
        metavar="NAME",
        help="drill down to the decision records for one tree node",
    )
    p_explain.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default text)",
    )
    p_explain.add_argument(
        "-o", "--output", help="write the explanation to this file"
    )
    p_explain.set_defaults(func=_cmd_explain, explain=True)

    p_flows = sub.add_parser(
        "flows", help="list registered mapping flows and available passes"
    )
    p_flows.set_defaults(func=_cmd_flows)

    p_mappers = sub.add_parser(
        "mappers",
        help="list registered mappers with their capability flags "
        "(provenance recording, cache awareness, supported K range)",
    )
    p_mappers.set_defaults(func=_cmd_mappers)

    p_analyze = sub.add_parser(
        "analyze", help="timing/wiring analysis of a mapped BLIF circuit"
    )
    p_analyze.add_argument("input", help="mapped BLIF file (one table per LUT)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_lint = sub.add_parser(
        "lint",
        help="rule-based static analysis of networks, circuits, and flows",
    )
    p_lint.add_argument(
        "files",
        nargs="*",
        help="BLIF files or cell names to lint (networks by default; "
        "see --mapped)",
    )
    p_lint.add_argument(
        "--mapped",
        action="store_true",
        help="treat the input files as mapped LUT circuits (one table per "
        "LUT) and run the circuit rules instead of the network rules",
    )
    p_lint.add_argument(
        "-k",
        type=int,
        default=None,
        metavar="K",
        help="LUT input bound for the circuit rules (enables CHRT201)",
    )
    p_lint.add_argument(
        "--cell",
        nargs="+",
        metavar="NAME",
        help="map the named MCNC cells (with --mappers/--ks) and lint the "
        "complete mappings",
    )
    p_lint.add_argument(
        "--suite",
        action="store_true",
        help="map and lint every cell of the Table 1-4 QoR sweep",
    )
    from repro.analysis.suite import DEFAULT_MAPPERS as _LINT_MAPPERS

    p_lint.add_argument(
        "--mappers",
        nargs="+",
        default=list(_LINT_MAPPERS),
        metavar="MAPPER",
        help="mappers for --cell/--suite (default: %s)"
        % " ".join(_LINT_MAPPERS),
    )
    p_lint.add_argument(
        "--ks",
        nargs="+",
        type=int,
        default=None,
        metavar="K",
        help="K sweep for --cell/--suite (default: 2 3 4 5 for --suite, "
        "-k for --cell)",
    )
    p_lint.add_argument(
        "--semantic",
        action="store_true",
        help="also run the SAT-backed CHRT4xx semantic rules (constant "
        "cones, context-redundant inputs, duplicate-function pairs) on "
        "every linted circuit",
    )
    p_lint.add_argument(
        "--spec",
        metavar="FLOWSPEC",
        help="also lint a flow spec (e.g. 'sweep,strash,chortle') for "
        "composability",
    )
    p_lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default text)",
    )
    p_lint.add_argument(
        "--fail-on",
        choices=["info", "warn", "error"],
        default="error",
        help="exit nonzero when any finding reaches this severity "
        "(default error)",
    )
    p_lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppression baseline JSON "
        "(e.g. benchmarks/baselines/lint_baseline.json)",
    )
    p_lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan --cell/--suite cells across N worker processes",
    )
    p_lint.add_argument(
        "--progress",
        action="store_true",
        help="per-cell heartbeat lines on stderr while --cell/--suite "
        "audits run",
    )
    p_lint.add_argument(
        "-o", "--output", help="write the report to this file instead of stdout"
    )
    p_lint.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_stats = sub.add_parser("stats", help="print network statistics")
    p_stats.add_argument("input", help="input BLIF file or cell name")
    p_stats.add_argument("--factor", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    p_gen = sub.add_parser(
        "generate",
        help="emit a synthetic MCNC-89 stand-in or adversarial circuit "
        "as BLIF",
    )
    from repro.bench.adversarial import ADVERSARIAL_PRESETS as _ADV_PRESETS

    p_gen.add_argument(
        "profile",
        choices=sorted(MCNC_PROFILES) + sorted(_ADV_PRESETS),
        help="benchmark profile or adversarial preset",
    )
    p_gen.add_argument("-o", "--output", help="output BLIF file (default stdout)")
    p_gen.set_defaults(func=_cmd_generate)

    p_verify = sub.add_parser(
        "verify",
        help="prove two BLIF files (or a cell and its mapping) equivalent",
    )
    p_verify.add_argument(
        "files",
        nargs="*",
        metavar="BLIF",
        help="golden and candidate BLIF files or cell names (exactly two)",
    )
    p_verify.add_argument(
        "--cell",
        nargs="+",
        metavar="NAME",
        help="instead of files: map the named MCNC/adversarial cell with "
        "--mapper and verify the mapping (one cell pairwise; with "
        "--corpus, restrict the sweep to these cells)",
    )
    p_verify.add_argument(
        "--mapper",
        choices=mapper_names(),
        default="chortle",
        help="mapper for --cell/--corpus (default chortle)",
    )
    p_verify.add_argument(
        "-k", type=int, default=4, help="LUT input count (default 4)"
    )
    p_verify.add_argument(
        "--method",
        choices=["sim", "sat", "auto"],
        default="auto",
        help="sim (historical simulation; above 14 inputs a flagged "
        "random sample), sat (always a formal proof), or auto (default: "
        "exhaustive below the limit, SAT proof above — always a proof)",
    )
    p_verify.add_argument(
        "--per-lut",
        action="store_true",
        help="also check per-LUT cones (MEC-style): localizes the first "
        "corrupted LUT with a counterexample; with files, the candidate "
        "is parsed as a mapped circuit",
    )
    p_verify.add_argument(
        "--corpus",
        action="store_true",
        help="SAT-verify the adversarial corpus across --mappers at -k "
        "(the CI sat gate); exits 1 on any failure",
    )
    p_verify.add_argument(
        "--mappers",
        nargs="+",
        default=list(CORPUS_MAPPERS),
        metavar="MAPPER",
        help="mappers for --corpus (default: %s)" % " ".join(CORPUS_MAPPERS),
    )
    p_verify.add_argument(
        "--semantic",
        action="store_true",
        help="with --corpus: also run the SAT-backed CHRT4xx semantic "
        "lint rules on every mapped circuit; error findings fail the gate",
    )
    p_verify.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="verdict format (default text)",
    )
    p_verify.add_argument(
        "-o", "--output", help="write the JSON verdict/artifact to this file"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_qor = sub.add_parser(
        "qor", help="persistent QoR run records, baseline diffing, gating"
    )
    qor_sub = p_qor.add_subparsers(dest="qor_command", required=True)

    def add_suite_options(p: argparse.ArgumentParser) -> None:
        _add_sweep_options(p, mappers=("chortle", "mis"), ks=(2, 3, 4, 5))
        p.add_argument(
            "--verify",
            action="store_true",
            help="simulate every mapped circuit against its source",
        )
        p.add_argument("--label", default="", help="free-form record label")
        p.add_argument(
            "--timestamp",
            default=None,
            help="created_at stamp for the record (default: now, UTC ISO-8601)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="fan suite cells across N worker processes "
            "(deterministic, QoR-identical to serial)",
        )

    q_record = qor_sub.add_parser(
        "record", help="run the suite and save a QoR run record"
    )
    add_suite_options(q_record)
    q_record.add_argument(
        "-o", "--output", required=True, help="output run-record JSON file"
    )
    q_record.set_defaults(func=_cmd_qor_record)

    q_diff = qor_sub.add_parser(
        "diff", help="diff two run records; nonzero exit on gated regressions"
    )
    q_diff.add_argument("baseline", help="baseline run-record JSON file")
    q_diff.add_argument("current", help="current run-record JSON file")
    q_diff.add_argument(
        "--markdown", metavar="FILE", help="also write the markdown dashboard"
    )
    q_diff.set_defaults(func=_cmd_qor_diff)

    q_gate = qor_sub.add_parser(
        "gate", help="re-run the suite and diff it against a baseline record"
    )
    q_gate.add_argument("baseline", help="baseline run-record JSON file")
    add_suite_options(q_gate)
    q_gate.add_argument(
        "-o", "--output", help="also save the fresh run record to this file"
    )
    q_gate.add_argument(
        "--markdown", metavar="FILE", help="also write the markdown dashboard"
    )
    q_gate.set_defaults(func=_cmd_qor_gate)

    q_report = qor_sub.add_parser(
        "report", help="render one run record as a markdown QoR table"
    )
    q_report.add_argument("record", help="run-record JSON file")
    q_report.add_argument(
        "-o", "--output", help="write the markdown to this file (default stdout)"
    )
    q_report.set_defaults(func=_cmd_qor_report)

    p_perfobs = sub.add_parser(
        "perf",
        help="trace analytics: self-time hotspots and flame graphs",
    )
    perf_sub = p_perfobs.add_subparsers(dest="perf_command", required=True)

    def add_trace_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            metavar="FILE",
            help="analyze an existing --trace JSONL file instead of "
            "running the suite",
        )
        _add_sweep_options(p, mappers=("chortle",), ks=(4,))

    pf_top = perf_sub.add_parser(
        "top",
        help="run the suite under one traced root; print the self-time "
        "hotspot table and critical path",
    )
    add_trace_options(pf_top)
    pf_top.add_argument(
        "-n",
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="rows in the hotspot table (default 15)",
    )
    pf_top.set_defaults(func=_cmd_perf_top)

    pf_flame = perf_sub.add_parser(
        "flame",
        help="emit folded stacks (self time per unique span stack) for "
        "flamegraph.pl or speedscope",
    )
    add_trace_options(pf_flame)
    pf_flame.add_argument(
        "-o", "--output", help="write the folded stacks to this file"
    )
    pf_flame.set_defaults(func=_cmd_perf_flame)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
