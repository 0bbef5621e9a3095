"""stitchkit: compose neural networks from fragments of trained networks.

Fragments of existing sequential networks are scored for pairwise
compatibility with linear centered kernel alignment, joined by folding a
least-squares projection into the downstream weights (no new parameters,
no retraining), and assembled by a recursive threshold-pruned search.
"""

from .cka import cka_linear, cka_minibatch, hsic
from .data import (
    Dataset,
    LabelMap,
    apply_label_map,
    identity_label_map,
    make_synthetic_dataset,
    parse_label_map,
    remap_dataset,
    superclass_label_map,
)
from .errors import (
    ConfigError,
    DegenerateActivationsError,
    DimensionError,
    NumericError,
    ParseError,
    StitchkitError,
    UnsupportedJointError,
)
from .evaluate import (
    EvalReport,
    emit_report,
    ensemble_predict,
    ensemble_sweep,
    evaluate,
    evaluate_many,
    read_evals_csv,
    select_ensemble_pool,
    write_evals_csv,
)
from .generate import (
    GenerationConfig,
    GenerationResult,
    GenerationStats,
    generate,
    select_candidates,
)
from .layers import (
    AdaptiveAvgPool1x1,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Resize,
    Softmax,
)
from .network import (
    Fragment,
    FragmentPool,
    Network,
    build_pool,
    forward,
    forward_upto,
    fragmentize,
    models_equal,
)
from .serialize import (
    load_dataset,
    load_network,
    load_pool_manifest,
    save_dataset,
    save_network,
    save_pool_manifest,
)
from .stitching import (
    ProvenanceEntry,
    StitchNet,
    fuse_conv,
    fuse_linear,
    joint_kind,
    prepare_joint,
    start_stitchnet,
    stitch,
)
from .tensor_ops import (
    adaptive_avg_pool_1x1,
    resize_spatial,
    solve_projection,
)
from .training import finetune_last_layer, loss_and_grads, train_network
from .zoo import ARCHITECTURES, build_zoo

__version__ = "0.1.0"
