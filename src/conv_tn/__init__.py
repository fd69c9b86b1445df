"""Convolutions as tensor networks over binary index patterns.

The public API is the operation layer (``ops``: one function per op,
``run_op`` and ``op_cost``), the index-pattern algebra (``pattern``),
randomized gradient estimation (``crs``), loop-based references (``oracle``,
``verify``) and a small CLI (``cli``).  The contraction engine (``einsum``)
and the structural rewrites (``simplify``) are internal layers: they run
only the networks ``ops`` builds, on arrays it has already checked.
``RewriteKind`` and ``RewriteStep`` are exported because ``OpCosts.rewrites``
returns them.
"""

from .crs import (
    CrsConfig,
    CrsEstimate,
    InvalidProbability,
    axis_size,
    crs_weight_vjp,
    masked_weight_vjp,
    normalized_error,
)
from .oracle import (
    GgnOracle,
    direct_conv,
    direct_transpose_unfold,
    direct_unfold,
    ggn_explicit,
    toeplitz,
)
from .ops import (
    OP_NAMES,
    ConvSpec,
    Network,
    OpCosts,
    WeightVjp,
    build_network,
    conv_forward,
    fold_output,
    ggn_diagonal,
    ggn_gram,
    hesscale_input_diag,
    hesscale_weight_diag,
    im2col_jvp,
    im2col_vjp,
    input_jvp,
    input_shapes,
    input_vjp,
    kfac_expand_factor,
    kfac_expand_transpose,
    kfac_reduce_factor,
    kfac_reduce_transpose,
    op_cost,
    per_sample_ggn_diagonal,
    per_sample_hesscale_weight_diag,
    per_sample_weight_vjp,
    run_op,
    transpose_unfold,
    unfold_input,
    unfold_kernel,
    weight_jvp,
    weight_vjp,
)
from .pattern import (
    DimSpec,
    IndexPattern,
    InvalidHyperParams,
    PatternKind,
    classify,
    output_size,
    pattern,
)
from .simplify import RewriteKind, RewriteStep
from .tensor import ShapeMismatch, Tensor, Unsupported, max_rel_err
from .verify import (
    OpReport,
    VerifyReport,
    compare,
    default_grid,
    make_inputs,
    oracle_run,
    run_verification,
    tn_run,
)

__version__ = "0.1.0"
