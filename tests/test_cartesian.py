import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cart_exact
from corrsketch import ecc
from corrsketch.cartesian import CartesianTransform, masked_diag_stack


def test_single_group_collapses_everything():
    t = CartesianTransform(8, 1, seed=1)
    assert np.all(t.p1 == 0) and np.all(t.p2 == 0)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 8))
    sketch = cart_exact(t, a)
    assert sketch.shape == (1, 1)
    expect = t.s1[:8] @ a @ t.s2[:8]
    assert sketch[0, 0] == pytest.approx(expect, rel=1e-12)


def test_full_groups_are_permutations():
    t = CartesianTransform(16, 16, seed=3)
    assert sorted(t.p1) == list(range(16))
    assert sorted(t.p2) == list(range(16))


def test_partitions_balanced_many_seeds():
    for seed in range(100):
        t = CartesianTransform(64, 8, seed=seed)
        for part in (t.p1, t.p2):
            counts = np.bincount(part, minlength=8)
            assert np.all(counts == 8)


def test_padding_keeps_groups_balanced():
    t = CartesianTransform(10, 4, seed=5)
    assert t.n_padded == 12 and t.block == 3
    assert np.all(np.bincount(t.p1) == 3)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        CartesianTransform(8, 0, seed=1)
    with pytest.raises(ValueError):
        CartesianTransform(0, 2, seed=1)


def test_cart_exact_zero_matrix():
    t = CartesianTransform(6, 3, seed=7)
    assert not np.any(cart_exact(t, np.zeros((6, 6))))
    with pytest.raises(ValueError):
        cart_exact(t, np.zeros((5, 5)))


def test_cart_exact_against_double_loop(rng):
    n, pi = 16, 4
    t = CartesianTransform(n, pi, seed=11)
    a = rng.standard_normal((n, n))
    got = cart_exact(t, a)
    expect = np.zeros((pi, pi))
    for x in range(n):
        for y in range(n):
            expect[t.p1[x], t.p2[y]] += t.s1[x] * t.s2[y] * a[x, y]
    assert np.allclose(got, expect, atol=1e-12)


def test_cart_linearity(rng):
    t = CartesianTransform(12, 3, seed=13)
    a = rng.standard_normal((12, 12))
    b = rng.standard_normal((12, 12))
    assert np.allclose(cart_exact(t, a + b), cart_exact(t, a) + cart_exact(t, b))


def test_masked_diag_zero_bit_column():
    # n=4 messages never set the high message bits, so those codeword
    # positions are zero for every index
    cb = ecc.for_index_space(4)
    zero_cols = np.nonzero(~np.any(cb.bit_matrix(), axis=0))[0]
    assert zero_cols.size > 0
    t = CartesianTransform(4, 2, seed=17)
    assert not np.any(masked_diag_stack(t, cb)[zero_cols])


def test_masked_diag_singleton_groups():
    cb = ecc.for_index_space(8)
    t = CartesianTransform(8, 8, seed=19)
    stack = masked_diag_stack(t, cb)
    for l in range(cb.blocklen):
        for i in range(8):
            expect = t.s1[i] * t.s2[i] * cb.mask_bit(l, i)
            assert stack[l, t.p1[i], t.p2[i]] == expect


def test_masked_diag_matches_dense_oracle():
    for n, pi in ((64, 8), (37, 5)):  # pi | n, and phantom padding
        cb = ecc.for_index_space(n)
        t = CartesianTransform(n, pi, seed=23)
        stack = masked_diag_stack(t, cb)
        assert stack.shape == (cb.blocklen, pi, pi)
        for l in range(cb.blocklen):
            diag = np.diag(cb.bit_matrix()[:, l]).astype(float)
            assert np.allclose(stack[l], cart_exact(t, diag), atol=1e-12)


def test_transform_determinism():
    a = CartesianTransform(32, 4, seed=99)
    b = CartesianTransform(32, 4, seed=99)
    assert np.array_equal(a.p1, b.p1) and np.array_equal(a.s2, b.s2)



@pytest.mark.parametrize("n, pi, seed, digest", [
    (128, 8, 3, "1d0b663edfceccf482cf87ed6127769f5a838ed0508d0f3a9ecdec83fe134f71"),
    # pi does not divide n, and the seed takes the top bit
    (100, 7, 2**63 + 5, "3a645bb4277ab3a36c579f16865078db71cd6a8a51bf22dcc556312c7de32d86"),
    (37, 37, 0, "9bed866de5ba67ab597de50e08f86df75398c85e3bd872bad222af40910c67eb"),
    (1000, 33, 2**64 - 1, "9be78b67d122833794280c1e080b8ef82fc6b164aada7789db511c4b6d79c82e"),
])
def test_transform_draws_keep_their_order(n, pi, seed, digest):
    # both generator seeds are drawn first, then each side's four sign
    # coefficients: any other order changes the groupings a seed names
    t = CartesianTransform(n, pi, seed)
    h = hashlib.sha256()
    for part, kind in ((t.p1, "<i8"), (t.p2, "<i8"), (t.s1, "<f8"), (t.s2, "<f8"),
                       (t.order1, "<i8"), (t.order2, "<i8")):
        h.update(np.asarray(part, dtype=kind).tobytes())
    assert h.hexdigest() == digest

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_signs_are_plus_minus_one(seed):
    t = CartesianTransform(24, 6, seed=seed)
    assert set(np.unique(t.s1)) <= {-1.0, 1.0}
    assert set(np.unique(t.s2)) <= {-1.0, 1.0}


def test_variance_bound_smoke(rng):
    # light version of the acceptance criterion: 300 transforms
    n, pi = 16, 4
    a = rng.standard_normal((n, n))
    np.fill_diagonal(a, 0.0)
    samples = np.stack([cart_exact(CartesianTransform(n, pi, seed=s), a) for s in range(300)])
    bound = (a * a).sum() / pi**2
    assert samples.var(axis=0, ddof=1).max() <= 1.5 * bound
