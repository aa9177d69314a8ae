import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from biofuse.corpus import SynthConfig, generate_synthetic

# `pytest --hypothesis-profile=ci` runs the same examples on every run and
# prints a reproduction blob for each failure; without it examples stay random
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)


@pytest.fixture(scope="session")
def small_corpus():
    """3 subjects x 2 rounds x 10 dots, mild noise; shared by read-only tests."""
    cfg = SynthConfig(
        n_subjects=3, n_rounds=2, dots_per_round=10, noise_sigma=0.4, seed=7
    )
    return cfg, generate_synthetic(cfg)
