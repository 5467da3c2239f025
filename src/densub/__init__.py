"""Dense subgraph detection and low-outdegree orientation, simulated in the
LOCAL and CONGEST message-passing models and verified against exact
centralized oracles."""

import types as _types

from .decompose import Clustering, ldd_traced
from .detect_congest import approx_densest, congest_detect
from .detect_local import local_detect
from .engine import (
    RoundTrace,
    VertexProgram,
    collect_ball,
    component_aggregate,
    msg_bits,
    run,
)
from .graphs import (
    Graph,
    Orientation,
    density,
    generate,
    lowerbound_pair,
    read_edge_list,
    write_edge_list,
)
from .mwu import (
    DualSolution,
    alpha_bit_width,
    fractional_dual,
    integral_primal,
)
from .oracle import (
    OracleResult,
    brute_densest,
    exact_densest,
)
from .orient import (
    directed_split,
    orient_low_outdegree_detailed,
    weak_orientation,
)

# the public API is every name imported above
__all__ = [
    k for k, v in globals().items()
    if not k.startswith("_") and not isinstance(v, _types.ModuleType)
]

__version__ = "0.1.0"
