import math

import numpy as np
import pytest
from hypothesis import settings

from annuli import AnnulusPair

# no example database: a run replays no example that an earlier run stored
# in the untracked .hypothesis/ directory, so its outcome depends on the
# seed alone
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")


@pytest.fixture
def canonical_pair():
    """The reference problem: unit inner radii, outer radii 2 and e."""
    return AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
