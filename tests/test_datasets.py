import numpy as np
import pytest

from qspectral import datasets, numerics


def rejection_draw(V, seed, overlap_sq=(0.25, 0.9)):
    """The Gaussian draws of range_input alone: the first in the window, or None."""
    rng = np.random.default_rng(seed)
    lo, hi = overlap_sq
    for _ in range(datasets.MAX_TRIES):
        y = rng.normal(size=V.shape[0])
        y /= np.linalg.norm(y)
        if lo <= float(np.linalg.norm(V.conj().T @ y) ** 2) <= hi:
            return y
    return None


@pytest.mark.parametrize("dim, rank, seeds", [(16, 6, range(20)), (512, 128, range(1))])
def test_inputs_a_gaussian_draw_reaches_are_unchanged(dim, rank, seeds):
    # the split draw runs only after every Gaussian draw missed, so the figure
    # instances and wide_register's inputs (r/N = 0.25) keep their bits
    for seed in seeds:
        H = datasets.random_psd_matrix(dim, rank, seed)
        want = rejection_draw(numerics.nonzero_eigh(H).basis, seed + 1)
        assert want is not None
        assert np.array_equal(datasets.random_range_input(H, seed + 1), want)


@pytest.mark.parametrize("dim, rank", [(256, 32), (512, 64)])
def test_low_rank_ratio_is_drawn(dim, rank):
    # the overlap of a Gaussian draw concentrates at r/N = 1/8, below the window
    H, V = datasets.random_psd_range(dim, rank, 1)
    y = datasets.random_range_input(H, 2)
    assert y.dtype == np.float64 and abs(np.linalg.norm(y) - 1.0) <= 1e-12
    assert 0.25 <= np.linalg.norm(V.T @ y) ** 2 <= 0.9
