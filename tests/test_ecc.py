from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsketch import ecc


@pytest.fixture(scope="module")
def cb16():
    return ecc.for_index_space(1 << 16)


def test_blocklength_selection_table():
    # smallest configured blocklength whose message capacity covers the index bits
    assert ecc.for_index_space(4).blocklen == 15
    assert ecc.for_index_space(32).blocklen == 15
    assert ecc.for_index_space(64).blocklen == 31
    assert ecc.for_index_space(2048).blocklen == 31
    assert ecc.for_index_space(1 << 12).blocklen == 63
    assert ecc.for_index_space(1 << 16).blocklen == 63
    assert ecc.for_index_space(1 << 20).blocklen == 127


def test_error_fraction_at_least_15_percent():
    for n in (4, 64, 4096, 1 << 16, 1 << 20):
        cb = ecc.for_index_space(n)
        assert cb.error_fraction >= 0.15
        assert cb.n_correctable == int(cb.error_fraction * cb.blocklen)


def test_codeword_length_logarithmic():
    for exp in range(2, 21):
        n = 1 << exp
        cb = ecc.for_index_space(n)
        assert cb.blocklen <= 10 * exp, f"n=2^{exp}: len {cb.blocklen}"


def test_roundtrip_and_injectivity_n4096():
    cb = ecc.for_index_space(4096)
    table = cb.bit_matrix()
    assert table.shape == (4096, cb.blocklen)
    assert len(np.unique(table, axis=0)) == 4096  # injective
    decoded = cb.decode_words(table)
    assert np.array_equal(decoded, np.arange(4096))


def test_encode_bounds():
    cb = ecc.for_index_space(16)
    with pytest.raises(IndexError):
        cb.encode(16)
    with pytest.raises(IndexError):
        cb.encode(-1)
    with pytest.raises(IndexError):
        cb.mask_bit(cb.blocklen, 3)
    for i in (-1, 16):  # -1 would read index 15's bit
        with pytest.raises(IndexError, match=rf"index {i} out of range \[0, 16\)"):
            cb.mask_bit(0, i)


def test_decode_rejects_wrong_length(cb16):
    with pytest.raises(ValueError):
        cb16.decode(np.zeros(cb16.blocklen + 1, dtype=np.uint8))


def test_decode_refuses_non_binary_words():
    # a codeword with its ones written as 2 must not decode to another index, nor
    # a single 3 fail inside the field product: each word is refused, naming the value
    cb = ecc.for_index_space(100)
    word = cb.encode(5)
    for bad, value in ((word * 2, "2"), (np.where(np.arange(cb.blocklen) == 3, 3, word), "3")):
        with pytest.raises(ValueError, match=f"0 or 1, got {value}$"):
            cb.decode(bad)
        with pytest.raises(ValueError, match=f"0 or 1, got {value}$"):
            cb.decode_words(np.stack([word, bad]))
    assert cb.decode(word.astype(bool)) == 5


def test_decode_within_radius(cb16, rng):
    word = cb16.encode(7)
    radius = cb16.n_correctable
    for _ in range(500):
        w = word.copy()
        flips = rng.choice(cb16.blocklen, size=radius, replace=False)
        w[flips] ^= 1
        assert cb16.decode(w) == 7


def test_decode_failure_is_explicit(cb16):
    # the all-ones word is a codeword of a message outside [n]
    assert cb16.decode(np.ones(cb16.blocklen, dtype=np.uint8)) is None


def test_minimum_distance_sampled(cb16, rng):
    # d_min = 2t + 1 by design; sample pairs at n = 2^16
    table = cb16.bit_matrix()
    lo = 2 * cb16.n_correctable + 1
    idx = rng.integers(0, cb16.n, size=(10_000, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    dist = np.abs(table[idx[:, 0]].astype(int) - table[idx[:, 1]].astype(int)).sum(axis=1)
    assert dist.min() >= lo


def test_mask_bit_consistency():
    cb = ecc.for_index_space(256)
    for i in (0, 1, 17, 255):
        word = cb.encode(i)
        bits = [cb.mask_bit(l, i) for l in range(cb.blocklen)]
        assert np.array_equal(bits, word)
        assert sum(bits) == int(word.sum())


def test_bit_table_matches_per_index_encoding():
    cb = ecc.for_index_space(256)
    table = cb.bit_matrix()
    for i in range(256):
        assert np.array_equal(table[i], cb.encode(i))


def test_determinism_across_instances():
    a = ecc.Codebook(512, 5, 5)
    b = ecc.Codebook(512, 5, 5)
    assert a.generator == b.generator
    assert np.array_equal(a.bit_matrix(), b.bit_matrix())


def test_beyond_radius_never_corrupts_within_radius(cb16, rng):
    # one flip past the radius may fail or land in a different ball (both
    # fine); dropping back inside the radius must always give the truth
    word = cb16.encode(12345)
    t = cb16.n_correctable
    for _ in range(200):
        flips = rng.choice(cb16.blocklen, size=t + 1, replace=False)
        w = word.copy()
        w[flips] ^= 1
        cb16.decode(w)  # any outcome but a crash is acceptable
        w2 = word.copy()
        w2[flips[:t]] ^= 1
        assert cb16.decode(w2) == 12345


def test_batch_decode_matches_scalar(cb16, rng):
    words = []
    expect = []
    for _ in range(64):
        i = int(rng.integers(cb16.n))
        w = cb16.encode(i)
        nflips = int(rng.integers(0, cb16.n_correctable + 1))
        if nflips:
            w[rng.choice(cb16.blocklen, size=nflips, replace=False)] ^= 1
        words.append(w)
        expect.append(i)
    words.append(np.ones(cb16.blocklen, dtype=np.uint8))
    expect.append(-1)
    got = cb16.decode_words(np.stack(words))
    assert np.array_equal(got, expect)


def test_zero_word_decodes_to_index_zero(cb16):
    # index 0 encodes to the zero codeword; recovery drops the (0, 0) diagonal
    assert not np.any(cb16.encode(0))
    assert cb16.decode(np.zeros(cb16.blocklen, dtype=np.uint8)) == 0


@lru_cache(maxsize=None)
def _design_codebook(m, t):
    """The design's codebook over as many indices as it addresses, at most 4096."""
    return ecc.Codebook(min(1 << ecc.Codebook(2, m, t).msg_bits, 4096), m, t)


@settings(max_examples=60, deadline=None)
@given(
    design=st.sampled_from(ecc._DESIGNS),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
)
def test_decode_design_properties(design, seeds):
    # a batch of random codewords, each with 0..2t+1 random flips
    cb = _design_codebook(*design)
    t = cb.n_correctable
    batch, truth, nflips = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        i, k = int(rng.integers(cb.n)), int(rng.integers(0, 2 * t + 2))
        w = cb.encode(i)
        w[rng.choice(cb.blocklen, size=k, replace=False)] ^= 1
        batch.append(w)
        truth.append(i)
        nflips.append(k)
    decoded = cb.decode_words(np.stack(batch))
    for w, i, k, r in zip(batch, truth, nflips, decoded):
        if k <= t:
            assert r == i  # within the radius: always the sent index
        if r >= 0:  # any success lies within the radius of its codeword
            assert int(np.sum(w != cb.encode(int(r)))) <= t
        scalar = cb.decode(w)
        assert (-1 if scalar is None else scalar) == r


def _nearest_within_radius(cb, words):
    """Brute force: the index whose codeword lies within t flips of each word, else -1."""
    table = cb.bit_matrix().astype(np.float64)
    w = words.astype(np.float64)
    dist = w.sum(axis=1)[:, None] + table.sum(axis=1)[None, :] - 2.0 * (w @ table.T)
    near = dist <= cb.n_correctable  # at most one: the code's distance is 2t + 1
    return np.where(near.any(axis=1), near.argmax(axis=1), -1)


@pytest.mark.parametrize("design", ecc._DESIGNS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decode_is_bounded_distance(design, seed):
    # codewords and their complements (the complement of index i's codeword
    # is message 2^msg_bits - 1 - i, outside [n] in the three larger
    # designs), each with 0..2t+2 flips, then uniform, sparse and dense
    # random words
    cb = _design_codebook(*design)
    t, rng, size = cb.n_correctable, np.random.default_rng(seed), 140
    words = cb.bit_matrix()[rng.integers(cb.n, size=2 * size)].copy()
    words[size:] ^= 1
    for w in words:
        w[rng.choice(cb.blocklen, size=int(rng.integers(0, 2 * t + 3)), replace=False)] ^= 1
    density = np.concatenate(
        [np.full(size, 0.5), 0.3 * rng.random(size), 1 - 0.3 * rng.random(size)]
    )
    noise = (rng.random((3 * size, cb.blocklen)) < density[:, None]).astype(np.uint8)
    edges = np.stack([np.zeros(cb.blocklen, np.uint8), np.ones(cb.blocklen, np.uint8)])
    words = np.concatenate([words, noise, edges])
    assert np.array_equal(cb.decode_words(words), _nearest_within_radius(cb, words))


def test_codebook_refusals_name_their_cause():
    with pytest.raises(ValueError, match="^index space must have at least 2 values$"):
        ecc.Codebook(1, 4, 3)
    cb = ecc.for_index_space(4)
    with pytest.raises(ValueError, match=r"^expected \(m, 15\) words, got \(15,\)$"):
        cb.decode_words(np.zeros(cb.blocklen, dtype=np.uint8))
    # the largest design carries 47 message bits, so 2^47 + 1 indices fit none
    n = 2**47 + 1
    with pytest.raises(ValueError, match=f"^no configured blocklength can address {n} indices$"):
        ecc.for_index_space(n)
