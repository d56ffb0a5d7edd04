"""CPU inference engine for iterative multi-scale feature weaving.

Feature pyramids exchange fixed-width messages between adjacent scales;
states grow by concatenation and feed single-shot detection heads. The
fusion step runs in two provably matching modes (a full-state convolution
and a cheaper message-only form with precomputed raw contributions),
backed by analytic FLOP accounting, SSD-style post-processing, and
size-stratified AP evaluation.
"""

from .config import RunConfig, load_config
from .errors import EquivalenceError, ValidationError
from .weave import (
    WeaveConfig,
    compare_outputs,
    flops_weave,
    init_params,
    weave_forward,
    weave_states,
)

__version__ = "0.1.0"

__all__ = [
    "EquivalenceError",
    "RunConfig",
    "ValidationError",
    "WeaveConfig",
    "compare_outputs",
    "flops_weave",
    "init_params",
    "load_config",
    "weave_forward",
    "weave_states",
]
