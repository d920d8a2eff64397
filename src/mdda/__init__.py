"""Multi-source distilling domain adaptation on synthetic shifted domains.

The package trains one classifier per labelled source domain, aligns an
unlabelled target domain to each source's feature space through an
adversarially estimated Wasserstein distance, distills every source to
the half of its samples nearest the target, and finally combines the
per-source predictions with distance-decayed weights.  Everything runs
on a small tape-based reverse-mode autodiff engine that supports the
double backpropagation the critic's gradient penalty needs.
"""
from .autodiff import Tape, Tensor, backward, matmul, softmax_cross_entropy
from .datagen import (
    Dataset,
    DomainSpec,
    ShiftDelta,
    load_csv,
    load_manifest,
    make_shift_family,
    sample_domain,
    save_csv,
    save_manifest,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    MddaError,
    NonFiniteError,
    ShapeError,
)
from .experiment import (
    ExperimentConfig,
    MethodConfig,
    Report,
    accuracy,
    export_report,
    load_config,
    load_report,
    run_experiment,
    save_config,
)
from .nn import Mlp, MlpConfig, adam, clone_mlp, forward, init_mlp, step
from .pipeline import (
    AdaptConfig,
    DomainWeights,
    SourceBundle,
    TrainConfig,
    adapt_target,
    aggregate_predict,
    critic_loss,
    distill_finetune,
    distill_select,
    domain_weight,
    encoder_loss,
    estimate_wd,
    gradient_penalty,
    load_bundle,
    pretrain_source,
    sample_distances,
    save_bundle,
)
from .rng import Xoshiro256, stream
from .scatter import export_scatter

__version__ = "0.1.0"
