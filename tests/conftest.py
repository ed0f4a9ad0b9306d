import numpy as np
import pytest
from hypothesis import settings

from oppaccess import HyperExpDist, SmmppModel

# Property tests draw the same examples on every run, so the suite stays
# deterministic; nothing is written to an example database.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("tier1")

THREE_STATE_RATES = np.array([5.0, 100.0, 6000.0])
THREE_STATE_P = np.array([
    [0.90, 0.05, 0.05],
    [0.05, 0.90, 0.05],
    [0.05, 0.05, 0.90],
])
TWO_RATE_WEIGHTS = np.array([0.32, 0.68])
TWO_RATE_RATES = np.array([160.0, 3670.0])


@pytest.fixture(scope="session")
def three_state_model() -> SmmppModel:
    """Three traffic levels with slow switching; steady state (1/3, 1/3, 1/3)."""
    return SmmppModel(THREE_STATE_RATES.copy(), THREE_STATE_P.copy())


@pytest.fixture(scope="session")
def three_rate_mixture(three_state_model) -> HyperExpDist:
    return three_state_model.marginal_dist()


@pytest.fixture(scope="session")
def two_rate_mixture() -> HyperExpDist:
    """Well-separated two-rate mixture used in the fitting experiments."""
    return HyperExpDist(TWO_RATE_WEIGHTS.copy(), TWO_RATE_RATES.copy())


@pytest.fixture(scope="session")
def two_state_model() -> SmmppModel:
    return SmmppModel(np.array([100.0, 6000.0]),
                      np.array([[0.9, 0.1], [0.1, 0.9]]))
