import numpy as np
import pytest

from lppart.errors import ConfigError
from lppart.gen import GenSpec, gen_er, gen_randhd, gen_rmat, generate


def test_rmat_pair_count():
    pairs = gen_rmat(GenSpec("rmat", 1 << 10, 16, seed=1))
    assert pairs.shape == (8192, 2)
    assert pairs.min() >= 0 and pairs.max() < 1024


def test_rmat_rejects_non_power_of_two():
    with pytest.raises(ConfigError):
        gen_rmat(GenSpec("rmat", 1000, 16, seed=1))


def test_rmat_seed_determinism():
    a = gen_rmat(GenSpec("rmat", 1 << 9, 8, seed=42))
    b = gen_rmat(GenSpec("rmat", 1 << 9, 8, seed=42))
    c = gen_rmat(GenSpec("rmat", 1 << 9, 8, seed=43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rmat_uniform_probs_look_like_er():
    # with all quadrants equal the endpoint distribution is uniform; compare
    # binned endpoint counts against the uniform generator (chi-square-style
    # sanity at a loose threshold, not an exact test)
    n, d = 1 << 12, 16
    uni = GenSpec("rmat", n, d, seed=7, probs=(0.25, 0.25, 0.25, 0.25))
    r = gen_rmat(uni).ravel()
    e = gen_er(n, d, seed=7).ravel()
    bins = 32
    rc = np.bincount(r * bins // n, minlength=bins)
    ec = np.bincount(e * bins // n, minlength=bins)
    expected = len(r) / bins
    chi_r = float(((rc - expected) ** 2 / expected).sum())
    chi_e = float(((ec - expected) ** 2 / expected).sum())
    # both should be in the same modest range for 31 degrees of freedom
    assert chi_r < 100 and chi_e < 100


def test_skewed_rmat_has_skewed_degrees():
    spec = GenSpec("rmat", 1 << 12, 16, seed=3)
    pairs = gen_rmat(spec)
    degrees = np.bincount(pairs.ravel(), minlength=spec.num_vertices)
    assert degrees.max() > 8 * degrees.mean()


def test_er_pair_count_and_no_self_pairs():
    pairs = gen_er(1 << 10, 16, seed=2)
    assert pairs.shape == (8192, 2)
    assert np.all(pairs[:, 0] != pairs[:, 1])


def test_er_two_vertices_single_edge():
    pairs = gen_er(2, 1, seed=0)
    assert pairs.shape == (1, 2)
    assert sorted(pairs[0].tolist()) == [0, 1]


def test_er_mean_degree_within_five_percent():
    n, d = 1 << 14, 16
    pairs = gen_er(n, d, seed=11)
    degrees = np.bincount(pairs.ravel(), minlength=n)
    assert abs(degrees.mean() - d) / d < 0.05


def test_randhd_locality_universal():
    n, d = 4096, 16
    pairs = gen_randhd(n, d, seed=5)
    assert pairs.shape == (n * d, 2)
    assert np.all(np.abs(pairs[:, 0] - pairs[:, 1]) < d)
    assert pairs.min() >= 0 and pairs.max() < n


def test_randhd_requires_room():
    with pytest.raises(ConfigError):
        gen_randhd(20, 10, seed=0)


def test_randhd_seed_determinism():
    assert np.array_equal(gen_randhd(512, 8, seed=9), gen_randhd(512, 8, seed=9))


def test_genspec_validation():
    with pytest.raises(ConfigError):
        GenSpec("mystery", 16, 4)
    with pytest.raises(ConfigError):
        GenSpec("er", 1, 4)
    with pytest.raises(ConfigError):
        GenSpec("er", 16, 0)
    with pytest.raises(ConfigError):
        GenSpec("rmat", 16, 4, probs=(0.5, 0.5, 0.5, 0.5))
    # each sums to 1, but one probability lies outside [0, 1] or is not a number
    for probs in ((1.5, -0.5, 0.0, 0.0), (float("nan"), 0.0, 0.0, 1.0), (0.0, 0.0, float("inf"), 1.0)):
        with pytest.raises(ConfigError, match="must lie in"):
            GenSpec("rmat", 16, 4, probs=probs)


def test_generate_dispatch():
    for kind, n in (("rmat", 64), ("er", 100), ("randhd", 100)):
        pairs = generate(GenSpec(kind, n, 4, seed=1))
        assert pairs.ndim == 2 and pairs.shape[1] == 2
