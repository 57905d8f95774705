"""Derandomization of stochastic binary classifiers, with audits of the
output-approximation and metric-fairness guarantees of each scheme."""

__version__ = "0.1.0"

from .core import (
    AffineScorer,
    ConstantScorer,
    Dataset,
    DeterministicClassifier,
    Point,
    StochasticScorer,
    TabularScorer,
    as_score,
    threshold_count,
)
from .derandomize import (
    Derandomizer,
    GridBucketer,
    IdentityBucketer,
    LsDerandomizer,
    PiDerandomizer,
    RtDerandomizer,
    ThresholdClassifier,
)
from .hashing import (
    BitBudget,
    BitSamplingFamily,
    MinHashFamily,
    PiFamily,
    PiHash,
    SimHashFamily,
)
from .measure import Estimate, EstimatorConfig, FairnessReport
from .metrics import Angular, JaccardDistance, Metric, NormalizedHamming, ScaledEuclidean
from .rng import CountingRng
