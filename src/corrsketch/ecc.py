"""Binary BCH codes for index encoding.

Recovery spells out row/column indices one thresholded bit at a time, so
the bits arriving at the decoder can be noisy. Indices in [n] are encoded
into blocklength-(2^m - 1) BCH codewords; the decoder corrects up to t bit
flips algebraically and reports failure rather than guessing when a word
is uncorrectable or decodes to a message outside [n]. It is one batched
pass over the distinct words: syndromes and message read from the packed
bytes by table, then Berlekamp-Massey on every word with a nonzero
syndrome at once, a Chien search over every locator, and the corrected
message bits flipped.

Codeword bit order is LSB-first (bit l is the coefficient of x^l) and
fixed, so snapshots and mask tables stay stable across runs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from typing import Optional

import numpy as np

# Primitive polynomials for GF(2^m), bitmask form (bit i = coeff of x^i).
_PRIMITIVE = {4: 0b10011, 5: 0b100101, 6: 0b1000011, 7: 0b10001001, 8: 0b100011101}

# Per-blocklength design: correct t errors. Each entry keeps the relative
# correction radius t/(2^m - 1) at or above 0.15 while maximizing the
# message capacity k, so codeword_len stays within a constant factor of
# the index bit width at every scale.
_DESIGNS = ((4, 3), (5, 5), (6, 10), (7, 21), (8, 42))


class GF2m:
    """GF(2^m) as exp/log arrays: ``exp[i] = alpha^i``, ``log[exp[i]] = i``."""

    def __init__(self, m: int):
        self.order = (1 << m) - 1
        self.exp = np.empty(self.order, dtype=np.int64)
        x = 1
        for i in range(self.order):
            self.exp[i] = x
            x <<= 1
            if x >> m:
                x ^= _PRIMITIVE[m]
        self.log = np.zeros(1 << m, dtype=np.int64)  # log[0] only feeds masked products
        self.log[self.exp] = np.arange(self.order)

    def product(self, a, b) -> np.ndarray:
        """Elementwise product of two (broadcastable) arrays of field elements."""
        logs = (self.log[a] + self.log[b]) % self.order
        return np.where((a != 0) & (b != 0), self.exp[logs], 0)


def _gf2_poly_mul(a: int, b: int) -> int:
    """Carry-less product of GF(2)[x] polynomials in bitmask form."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _gf2_poly_mod(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _bch_generator(field: GF2m, t: int) -> int:
    """Generator polynomial: lcm of minimal polynomials of alpha^1..alpha^2t."""
    seen = set()
    gen = 1
    for c in range(1, 2 * t + 1):
        if c in seen:
            continue
        coset = []
        e = c
        while e not in coset:
            coset.append(e)
            e = (2 * e) % field.order
        seen.update(coset)
        # minimal polynomial of alpha^c: product of (x + alpha^e) over the coset
        poly = np.ones(1, dtype=np.int64)
        for e in coset:
            poly = np.append(0, poly) ^ np.append(field.product(poly, field.exp[e]), 0)
        if np.any(poly > 1):
            raise AssertionError("minimal polynomial left the base field")
        mask = int(poly @ (1 << np.arange(len(poly))))
        gen = _gf2_poly_mul(gen, mask)  # cosets are disjoint, so lcm = product
    return gen


class Codebook:
    """Encoder/decoder pair for indices in [n].

    ``blocklen`` is the codeword length, ``msg_bits`` the message capacity
    (>= ceil(log2 n)), ``n_correctable`` the guaranteed correction radius
    in bit flips, and ``error_fraction`` the tolerated flip fraction. The
    encoder's and decoder's tables are built on first use: a query that
    scans never encodes or decodes.
    """

    def __init__(self, n: int, m: int, t: int):
        if n < 2:
            raise ValueError("index space must have at least 2 values")
        self.n = int(n)
        self.bits = max(1, (self.n - 1).bit_length())
        self.field = GF2m(m)
        self.blocklen = self.field.order
        self.n_correctable = t
        gen = _bch_generator(self.field, t)
        self.generator = gen
        self.msg_bits = self.blocklen - (gen.bit_length() - 1)
        if self.msg_bits < self.bits:
            raise ValueError(
                f"code capacity {self.msg_bits} bits cannot address {self.n} indices"
            )

    @cached_property
    def _rem_rows(self) -> np.ndarray:
        """Remainder of x^(blocklen-msg_bits+r) mod generator, per message bit r."""
        parity_len = self.blocklen - self.msg_bits
        rem_rows = np.zeros((self.msg_bits, parity_len), dtype=np.uint8)
        for r in range(self.msg_bits):
            rem = _gf2_poly_mod(1 << (parity_len + r), self.generator)
            rem_rows[r] = [(rem >> bit) & 1 for bit in range(parity_len)]
        return rem_rows

    @cached_property
    def _decoder_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The message value of each codeword bit, and the byte table.

        byte_table[q, v] is the XOR of the per-bit rows of v's set bits
        (byte q: bits 8q.., MSB first); bit l's row holds the syndromes
        alpha^(j*l), j = 1..2t, then the message value of l.
        """
        t, l = self.n_correctable, np.arange(self.blocklen)
        per_bit = np.zeros(((self.blocklen + 7) // 8 * 8, 2 * t + 1), dtype=np.int64)
        per_bit[l, :-1] = self.field.exp[np.outer(l, np.arange(1, 2 * t + 1)) % self.blocklen]
        parity_len = self.blocklen - self.msg_bits
        per_bit[parity_len : self.blocklen, -1] = 1 << np.arange(self.msg_bits, dtype=np.int64)
        bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)[..., None]
        blocks = per_bit.reshape(-1, 8, 2 * t + 1)
        byte_table = np.stack([np.bitwise_xor.reduce(bits * b, axis=1) for b in blocks])
        return per_bit[l, -1], byte_table

    # -- encoding ------------------------------------------------------

    @property
    def codeword_len(self) -> int:
        return self.blocklen

    @property
    def error_fraction(self) -> float:
        """Fraction of codeword bits the decoder is guaranteed to correct."""
        return self.n_correctable / self.blocklen

    def encode(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range [0, {self.n})")
        return self.bit_matrix()[i].copy()

    def bit_matrix(self) -> np.ndarray:
        """(n, blocklen) table of codeword bits; built once, then cached."""
        return self._codewords

    @cached_property
    def _codewords(self) -> np.ndarray:
        msgs = np.arange(self.n, dtype=np.int64)
        msg_bits = ((msgs[:, None] >> np.arange(self.msg_bits)[None, :]) & 1).astype(np.uint8)
        parity = (msg_bits.astype(np.int64) @ self._rem_rows.astype(np.int64)) & 1
        table = np.concatenate([parity.astype(np.uint8), msg_bits], axis=1)
        table.setflags(write=False)
        return table

    def mask_bit(self, l: int, i: int) -> int:
        if not 0 <= l < self.blocklen:
            raise IndexError(f"bit position {l} out of range [0, {self.blocklen})")
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range [0, {self.n})")
        return int(self.bit_matrix()[i, l])

    # -- decoding ------------------------------------------------------

    def decode(self, word) -> Optional[int]:
        """Decode one word; None means no index within the correction radius."""
        word = np.asarray(word)
        if word.shape != (self.blocklen,):
            raise ValueError(f"expected word of length {self.blocklen}, got {word.shape}")
        result = self.decode_words(word[None, :])
        return int(result[0]) if result[0] >= 0 else None

    def decode_words(self, words: np.ndarray) -> np.ndarray:
        """Batch decode; returns indices, -1 where decoding fails.

        Duplicated words (most buckets spell the same few) are decoded once.
        A word decodes to the index whose codeword lies within
        ``n_correctable`` flips of it, else -1; a bit not 0 or 1 is refused.
        """
        words = np.asarray(words)
        if words.ndim != 2 or words.shape[1] != self.blocklen:
            raise ValueError(f"expected (m, {self.blocklen}) words, got {words.shape}")
        bad = (words != 0) & (words != 1)
        if bad.any():
            raise ValueError(f"word bits must be 0 or 1, got {words[bad][0]}")
        weights, byte_table = self._decoder_tables
        # dedupe on the packed bytes; the unused return_index makes np.unique faster
        packed = np.packbits(words.astype(np.uint8, copy=False), axis=1)
        unique, _, inverse = np.unique(packed, axis=0, return_index=True, return_inverse=True)
        found = reduce(np.bitwise_xor, (tab[col] for tab, col in zip(byte_table, unique.T)))
        synd, msgs = found[:, :-1], found[:, -1]  # (u, 2t) syndromes, (u,) message
        noisy = np.flatnonzero(synd.any(axis=1))
        ok = np.ones(len(unique), dtype=bool)
        if noisy.size:  # a clean batch skips the locator loop and its fixed per-step cost
            ok[noisy], errors = self._locate_errors(synd[noisy])
            msgs[noisy] ^= errors @ weights
        out = np.where(ok & (msgs < self.n), msgs, -1)
        return out[inverse.reshape(-1)]

    def _locate_errors(self, synd: np.ndarray):
        """Error positions of every syndrome row at once.

        Berlekamp-Massey runs on all rows together, on a fixed-width
        ``(u, 2t+1)`` locator array; a row's update is masked out where its
        discrepancy is zero. A Chien search then evaluates every locator
        at every ``alpha^-l``. Returns ``(ok, errors)``: ``ok`` where the
        locator's length L is at most t, its degree is L and it has
        exactly L roots; ``errors`` the ``(u, blocklen)`` root mask.
        """
        field, (u, two_t) = self.field, synd.shape
        locator = np.zeros((u, two_t + 1), dtype=np.int64)
        locator[:, 0] = 1
        prior = locator.copy()  # B(x): the locator before the last length change
        length = np.zeros(u, dtype=np.int64)
        last = np.ones(u, dtype=np.int64)  # the discrepancy at that change
        for step in range(two_t):
            # x^m B(x), m steps after that change; Massey's bound keeps its degree <= 2t
            prior = np.pad(prior[:, :-1], ((0, 0), (1, 0)))
            d = np.bitwise_xor.reduce(
                field.product(locator[:, : step + 1], synd[:, step::-1]), axis=1
            )
            grow = (d != 0) & (2 * length <= step)
            scale = field.product(d, field.exp[-field.log[last] % field.order])
            locator, prior = (
                locator ^ field.product(scale[:, None], prior),
                np.where(grow[:, None], locator, prior),
            )
            length = np.where(grow, step + 1 - length, length)
            last = np.where(grow, d, last)
        degree = two_t - np.argmax(locator[:, ::-1] != 0, axis=1)
        # position l is in error iff the locator vanishes at alpha^-l
        inv_pos = -np.arange(self.blocklen) % field.order
        values = np.zeros((u, self.blocklen), dtype=np.int64)
        for j in range(self.n_correctable + 1):  # degrees past t are refused below
            values ^= field.product(locator[:, j, None], field.exp[j * inv_pos % field.order])
        errors = values == 0
        ok = (0 < length) & (length <= self.n_correctable) & (degree == length)
        return ok & (errors.sum(axis=1) == length), errors


@lru_cache(maxsize=32)
def for_index_space(n: int) -> Codebook:
    """Smallest configured BCH blocklength whose capacity covers [n]: one Codebook per n.

    Cached by n, so every caller at one n shares its tables; an n of
    another integer type (np.int64) is looked up as an int.
    """
    if type(n) is not int:  # lru_cache keys np.int64(n) apart from n
        return for_index_space(int(n))
    for m, t in _DESIGNS:
        try:
            return Codebook(n, m, t)  # raises when capacity < index bits
        except ValueError:
            continue
    raise ValueError(f"no configured blocklength can address {n} indices")
