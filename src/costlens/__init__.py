"""costlens: analytical cost indicators for neural architectures.

Build or load a declarative architecture spec, compute the full set of
efficiency indicators (parameters, FLOPs/MACs, activation size, memory
traffic, training/inference memory, roofline latency and throughput,
carbon and monetary cost), and analyze where the indicators disagree
across a model set (Pareto frontiers, rank correlations and the
models that look efficient under one indicator but not another).
"""

from .archspec import (
    ArchSpec,
    Attention,
    ClassifierHead,
    Dense,
    FeedForward,
    Image,
    InputFileError,
    InvalidSpecError,
    LayerNorm,
    MoE,
    Parallel,
    PatchEmbed,
    Repeat,
    TokenEmbedding,
    TokenSequence,
    ValidationResult,
    Violation,
    derive_sequence_length,
    from_json,
    spec_from_dict,
    spec_to_dict,
    to_json,
    validate,
)
from .indicators import (
    FlopCount,
    MemoryEstimate,
    OptimizerKind,
    ParamCount,
    activation_size,
    count_flops,
    count_params,
    inference_memory,
    memory_access_cost,
    training_memory,
)
from .latency import (
    HardwareModel,
    SpeedEstimate,
    estimate_latency,
    load_hardware,
    preset_names,
)
from .footprint import (
    EnergyProfile,
    PricingProfile,
    carbon_footprint,
    monetary_cost,
    train_energy_kwh,
)
from .analysis import (
    AnalysisError,
    CoverageError,
    InsufficientDataError,
    MisnomerReport,
    ModelRecord,
    misnomer_report,
    pareto_frontier,
    rank_disagreement,
    read_records,
)
from .archlib import (
    LmConfig,
    MoeConfig,
    UtConfig,
    VitConfig,
    build_from_reference,
    build_lm,
    build_moe_transformer,
    build_universal_transformer,
    build_vit,
    depth_width_pair,
)
from .profiles import CostProfile, compute_profile, read_spec_file, record_from_profile

__version__ = "0.1.0"
