"""Flash-backed speculative decoding: gain-cost token trees, lossless tree
verification, early-exit pruning, and a deterministic smartphone latency
simulator."""

from .drafting import (
    BuildResult,
    DraftConfig,
    GainCostEstimate,
    LatencyProfile,
    build_tree,
)
from .errors import ConfigError, ContractError, StructureError, TrainingDiverged
from .harness import (
    ExperimentConfig,
    Report,
    compare_policies,
    run_experiment,
    run_trial,
)
from .models import (
    LayeredTargetModel,
    MixtureDraftModel,
    ProbModel,
    TabularMarkovModel,
    derive_draft,
    draft_candidates,
    target_greedy_decode,
)
from .predictor import (
    DistillationSet,
    EarlyExitPredictor,
    ExactProbeSource,
    LayeredHiddenSource,
    TrainConfig,
    train,
)
from .pruning import PruneConfig, PruneDecision, TreePruner, backbone_path, normalize_scores, prune
from .simulator import (
    HardwareConfig,
    Metrics,
    ScheduleTrace,
    ar_step_latency,
    draft_schedule,
    load_preset,
    simulate_decode,
    verify_latency,
)
from .tree import CandidateSet, TokenTree, flatten
from .verification import VerificationResult, run_decode, verify_tree

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
