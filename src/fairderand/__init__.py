"""Derandomization of stochastic binary classifiers, with audits of the
output-approximation and metric-fairness guarantees of each scheme."""

__version__ = "0.1.0"

from .core import (
    AffineScorer,
    ConstantScorer,
    Dataset,
    StochasticScorer,
    TabularScorer,
    as_score,
)
from .derandomize import (
    Derandomizer,
    GridBucketer,
    IdentityBucketer,
)
from .hashing import (
    BitBudget,
    BitSamplingFamily,
    MinHashFamily,
    PiFamily,
    SimHashFamily,
)
from .measure import EstimatorConfig
from .metrics import Angular, JaccardDistance, Metric, NormalizedHamming, ScaledEuclidean
from .rng import CountingRng
