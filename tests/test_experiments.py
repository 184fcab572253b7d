import numpy as np

from qspectral import experiments
from qspectral.datasets import random_psd_matrix, random_range_input


def test_figure_instance_follows_the_input_rule():
    # the instance draws y against the eigenbasis H was built from, not an
    # eigendecomposition of H; both give the same bits under the one rule
    for seed in range(500):
        H, y = experiments.figure_instance(seed)
        assert np.array_equal(H, random_psd_matrix(16, 6, seed, (0.3, 1.0)))
        assert np.array_equal(y, random_range_input(H, seed + 10_007, (0.25, 0.9))), seed
