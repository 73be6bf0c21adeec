"""Digital twin of an integrated photonic Galton board.

Simulates single-photon quantum-walk interference through a triangular
directional-coupler mesh, a 16-pixel delay-line-multiplexed superconducting
detector array, and the statistical analyses used to characterize both
(coupler-transmission fitting, Poisson photon counting, exponential
inter-arrival fitting).
"""

from .errors import (
    ConfigError,
    DegenerateFitError,
    InvalidArgumentError,
    InvalidDistributionError,
    QGaltonError,
    ResourceLimitError,
)
from .walk import bin_probabilities, path_sum_oracle

__version__ = "0.1.0"
