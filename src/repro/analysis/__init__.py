"""Program analysis: elaboration, dependencies, and unroll bounds.

Pipeline (paper §4.2):

1. :func:`build_ir` flattens the ingress control into ordered segments;
2. :func:`instantiate` expands elastic segments at chosen iteration counts;
3. :func:`build_dependency_graph` groups same-register actions and adds
   precedence/exclusion edges;
4. :func:`compute_upper_bounds` finds, per symbolic value, the largest
   unroll count that could possibly fit on the target.
"""

from .assumes import NumericBounds, extract_numeric_bounds
from .bounds_check import (
    IndexBoundsError,
    IndexDiagnostic,
    check_index_bounds,
    collect_index_diagnostics,
)
from .depgraph import DependencyGraph, DepNode
from .dot import flow_to_dot, graph_to_dot, witness_edges
from .liveness import FieldLiveness, LivenessReport, analyze_phv_liveness
from .dependencies import AnalysisError, build_dependency_graph, classify_pair
from .ir import (
    ActionInstance,
    ElasticSegment,
    InelasticSegment,
    ProgramIR,
    UnitTemplate,
    UpdateKind,
    build_ir,
    field_key,
    instantiate,
    module_of_instance,
    substitute,
)
from .taint import (
    FlowDiagnostic,
    TaintResult,
    cross_module_flows,
    field_owner,
    propagate_taint,
)
from .unroll import (
    BoundResult,
    UnrollBounds,
    compute_upper_bounds,
)

__all__ = [
    "NumericBounds",
    "IndexBoundsError",
    "IndexDiagnostic",
    "check_index_bounds",
    "collect_index_diagnostics",
    "extract_numeric_bounds",
    "DependencyGraph",
    "DepNode",
    "flow_to_dot",
    "graph_to_dot",
    "witness_edges",
    "FieldLiveness",
    "LivenessReport",
    "analyze_phv_liveness",
    "AnalysisError",
    "build_dependency_graph",
    "classify_pair",
    "ActionInstance",
    "ElasticSegment",
    "InelasticSegment",
    "ProgramIR",
    "UnitTemplate",
    "UpdateKind",
    "build_ir",
    "field_key",
    "instantiate",
    "module_of_instance",
    "substitute",
    "FlowDiagnostic",
    "TaintResult",
    "cross_module_flows",
    "field_owner",
    "propagate_taint",
    "BoundResult",
    "UnrollBounds",
    "compute_upper_bounds",
]
