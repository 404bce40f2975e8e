import math

import numpy as np
import pytest

from annuli import AnnulusPair


@pytest.fixture
def canonical_pair():
    """The reference problem: unit inner radii, outer radii 2 and e."""
    return AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
