"""Chortle: technology mapping for lookup table-based FPGAs.

A from-scratch reproduction of Francis, Rose & Chung, DAC 1990, together
with every substrate the paper's evaluation depends on: a boolean-network
model, BLIF I/O, a MIS-style logic-optimization layer, a library-based
MIS II baseline mapper, synthetic MCNC-89 stand-in workloads, and
post-paper extensions (FlowMap-style depth-optimal mapping, bin-packing
decomposition, fanout replication).

Quickstart::

    from repro import ChortleMapper, NetworkBuilder, verify_equivalence

    b = NetworkBuilder("demo")
    a, c, d = b.inputs("a", "c", "d")
    b.output("y", b.or_(b.and_(a, c), ~d))
    net = b.network()

    circuit = ChortleMapper(k=4).map(net)
    verify_equivalence(net, circuit)
    print(circuit.cost, "lookup tables")
"""

from repro.errors import (
    BlifError,
    FlowError,
    LibraryError,
    MappingError,
    NetworkError,
    ReproError,
    VerificationError,
)
from repro.network import (
    BooleanNetwork,
    NetworkBuilder,
    Signal,
    network_stats,
    sweep,
)
from repro.truth import TruthTable
from repro.core import (
    LUT,
    ChortleMapper,
    LUTCircuit,
    build_forest,
)
from repro.blif import (
    blif_to_network,
    parse_blif,
    parse_blif_file,
    write_lut_circuit,
    write_network,
)
from repro.verify import (
    equivalent,
    verify_equivalence,
    verify_network_equivalence,
)
from repro.verilog import write_verilog
from repro.report import MappingReport, build_report
from repro.analysis import analyze_timing, analyze_wiring
from repro.draw import draw_circuit, draw_network
from repro.obs import capture, get_metrics, get_tracer, span
from repro.flow import Flow, FlowContext, get_registry, resolve_mapper
from repro.pipeline import map_area, map_delay

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "NetworkError",
    "BlifError",
    "MappingError",
    "LibraryError",
    "FlowError",
    "VerificationError",
    "TruthTable",
    "Signal",
    "BooleanNetwork",
    "NetworkBuilder",
    "network_stats",
    "sweep",
    "LUT",
    "LUTCircuit",
    "ChortleMapper",
    "build_forest",
    "parse_blif",
    "parse_blif_file",
    "blif_to_network",
    "write_network",
    "write_lut_circuit",
    "verify_equivalence",
    "verify_network_equivalence",
    "equivalent",
    "write_verilog",
    "MappingReport",
    "build_report",
    "analyze_timing",
    "analyze_wiring",
    "draw_network",
    "draw_circuit",
    "Flow",
    "FlowContext",
    "get_registry",
    "resolve_mapper",
    "map_area",
    "map_delay",
    "span",
    "capture",
    "get_tracer",
    "get_metrics",
    "__version__",
]
