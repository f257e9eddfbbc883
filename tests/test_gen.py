import math

import numpy as np
import pytest

from jigsolve.gen import generate, generate_variant
from jigsolve.grid import DOWN, LEFT, RIGHT, UP
from jigsolve.rng import generator, mix_seed, splitmix64
from jigsolve.variant import make_involution, respects_matching


def test_single_color():
    p = generate(3, 1, seed=7)
    assert int(p.hcolors.min()) == int(p.hcolors.max()) == 1
    assert int(p.vcolors.min()) == int(p.vcolors.max()) == 1


def test_determinism():
    a = generate(6, 9, seed=123)
    b = generate(6, 9, seed=123)
    assert np.array_equal(a.hcolors, b.hcolors) and np.array_equal(a.vcolors, b.vcolors)
    c = generate(6, 9, seed=124)
    assert not (np.array_equal(a.hcolors, c.hcolors) and np.array_equal(a.vcolors, c.vcolors))


def test_rejects_zero_parameters():
    with pytest.raises(ValueError):
        generate(0, 3, seed=0)
    with pytest.raises(ValueError):
        generate(3, 0, seed=0)
    # colors are drawn as int64
    assert generate(2, 2**63 - 1, seed=0).q == 2**63 - 1
    with pytest.raises(ValueError, match="q must be at most 2\\*\\*63 - 1"):
        generate(2, 2**63, seed=0)
    # q is checked before the involution, which could not be built over 2**63 colors
    with pytest.raises(ValueError, match="q must be at most 2\\*\\*63 - 1"):
        generate_variant(2, 2**63, make_involution(2, "identity"), seed=0)


def test_color_frequencies_uniform():
    # n=50 gives 2*51*50 = 5100 edges per puzzle; 20 puzzles ~ 1e5 samples
    q = 5
    counts = np.zeros(q + 1, dtype=np.int64)
    total = 0
    for seed in range(20):
        p = generate(50, q, seed=seed)
        for arr in (p.hcolors, p.vcolors):
            counts += np.bincount(np.asarray(arr).ravel(), minlength=q + 1)
            total += arr.size
    assert total >= 100_000
    expect = total / q
    sigma = math.sqrt(total * (1 / q) * (1 - 1 / q))
    for color in range(1, q + 1):
        assert abs(counts[color] - expect) <= 4 * sigma


def test_mix_seed_is_stable_and_spreads():
    assert mix_seed(42, 0, 0) == mix_seed(42, 0, 0)
    seen = {mix_seed(42, c, t) for c in range(10) for t in range(10)}
    assert len(seen) == 100
    assert splitmix64(0) != splitmix64(1)
    with pytest.raises(ValueError):
        mix_seed(-1)
    with pytest.raises(ValueError):
        generator(-3)


def test_seeds_past_64_bits_are_rejected():
    # masking them would alias a seed s + 2^64 to s; the largest seed is kept
    generate(3, 5, seed=2**64 - 1)
    mix_seed(2**64 - 1, 1)
    for big in (2**64, 2**64 + 7):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            generator(big)
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            mix_seed(big, 1)
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            generate(3, 5, seed=big)


def test_variant_respects_involution_exactly():
    iota = make_involution(6, "pairing")
    vp = generate_variant(4, 6, iota, seed=3)
    assert respects_matching(vp)
    # spot check one internal pair by hand: sigma[j - 1, i - 1, d]
    assert vp.sigma[0, 0, RIGHT] == iota.table[vp.sigma[0, 1, LEFT]]
    assert vp.sigma[1, 2, UP] == iota.table[vp.sigma[2, 2, DOWN]]


def test_variant_determinism():
    iota = make_involution(3, "identity")
    a = generate_variant(3, 3, iota, seed=5)
    b = generate_variant(3, 3, iota, seed=5)
    assert np.array_equal(a.sigma, b.sigma)


def test_variant_identity_marginals_match_base():
    # with the identity involution, internal edge colors are uniform like
    # the base model; compare both frequency tables against uniform
    q = 4
    base_counts = np.zeros(q + 1, dtype=np.int64)
    var_counts = np.zeros(q + 1, dtype=np.int64)
    base_total = var_total = 0
    iota = make_involution(q, "identity")
    for seed in range(30):
        p = generate(8, q, seed=seed)
        h = np.asarray(p.hcolors)[:, 1:-1]  # internal horizontal edges
        v = np.asarray(p.vcolors)[1:-1, :]
        for arr in (h, v):
            base_counts += np.bincount(arr.ravel(), minlength=q + 1)
            base_total += arr.size
        vp = generate_variant(8, q, iota, seed=seed)
        R, U = RIGHT, UP
        rights = np.asarray(vp.sigma)[:, :-1, R]  # canonical orientation colors
        ups = np.asarray(vp.sigma)[:-1, :, U]
        for arr in (rights, ups):
            var_counts += np.bincount(arr.ravel(), minlength=q + 1)
            var_total += arr.size
    for counts, total in ((base_counts, base_total), (var_counts, var_total)):
        sigma = math.sqrt(total * (1 / q) * (1 - 1 / q))
        for color in range(1, q + 1):
            assert abs(counts[color] - total / q) <= 4 * sigma


def test_variant_boundary_edges_unconstrained():
    # boundary oriented edges are sampled freely; with a pairing involution
    # they need not equal the involution image of anything
    iota = make_involution(2, "pairing")
    vp = generate_variant(2, 2, iota, seed=1)
    # all oriented edges with a head off the board exist and are in range
    boundary = [
        vp.sigma[:, 0, LEFT],
        vp.sigma[:, -1, RIGHT],
        vp.sigma[0, :, DOWN],
        vp.sigma[-1, :, UP],
    ]
    for run in boundary:
        assert run.shape == (2,) and ((1 <= run) & (run <= 2)).all()


def test_variant_rejects_bad_involution():
    with pytest.raises(ValueError):
        generate_variant(2, 3, make_involution(2, "identity"), seed=0)
