"""Binary BCH codes for index encoding.

Recovery spells out row/column indices one thresholded bit at a time, so
the bits arriving at the decoder can be noisy. Indices in [n] are encoded
into blocklength-(2^m - 1) BCH codewords; the decoder corrects up to t bit
flips algebraically (syndromes, Berlekamp-Massey, Chien search) and
reports failure rather than guessing when a word is uncorrectable or
decodes to a message outside [n].

Codeword bit order is LSB-first (bit l is the coefficient of x^l) and
fixed, so snapshots and mask tables stay stable across runs.
"""

from __future__ import annotations

from functools import lru_cache
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
    """GF(2^m) arithmetic via exp/log tables."""

    def __init__(self, m: int):
        prim = _PRIMITIVE[m]
        self.m = m
        self.order = (1 << m) - 1
        exp = [0] * self.order
        log = [-1] * (1 << m)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= prim
        self.exp = exp
        self.log = log
        self.exp_np = np.array(exp, dtype=np.int64)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        return self.exp[(self.order - self.log[a]) % self.order]


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
        poly = [1]
        for e in coset:
            root = field.exp[e]
            nxt = [0] * (len(poly) + 1)
            for deg, coeff in enumerate(poly):
                nxt[deg + 1] ^= coeff
                nxt[deg] ^= field.mul(coeff, root)
            poly = nxt
        mask = 0
        for deg, coeff in enumerate(poly):
            if coeff not in (0, 1):
                raise AssertionError("minimal polynomial left the base field")
            if coeff:
                mask |= 1 << deg
        gen = _gf2_poly_mul(gen, mask)  # cosets are disjoint, so lcm = product
    return gen


class Codebook:
    """Encoder/decoder pair for indices in [n].

    ``blocklen`` is the codeword length, ``msg_bits`` the message capacity
    (>= ceil(log2 n)), ``n_correctable`` the guaranteed correction radius
    in bit flips, and ``error_fraction`` the tolerated flip fraction.
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
        # remainder of x^(blocklen-msg_bits+r) mod generator, per message bit r
        parity_len = self.blocklen - self.msg_bits
        rem_rows = np.zeros((self.msg_bits, parity_len), dtype=np.uint8)
        for r in range(self.msg_bits):
            rem = _gf2_poly_mod(1 << (parity_len + r), gen)
            rem_rows[r] = [(rem >> bit) & 1 for bit in range(parity_len)]
        self._rem_rows = rem_rows
        self._parity_len = parity_len
        # alpha^(j*l) tables for syndrome computation, j = 1..2t
        j = np.arange(1, 2 * t + 1)[:, None]
        l = np.arange(self.blocklen)[None, :]
        self._synd_table = self.field.exp_np[(j * l) % self.blocklen]
        self._bit_matrix: Optional[np.ndarray] = None

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
        if self._bit_matrix is None:
            msgs = np.arange(self.n, dtype=np.int64)
            msg_bits = ((msgs[:, None] >> np.arange(self.msg_bits)[None, :]) & 1).astype(
                np.uint8
            )
            parity = (msg_bits.astype(np.int64) @ self._rem_rows.astype(np.int64)) & 1
            table = np.concatenate([parity.astype(np.uint8), msg_bits], axis=1)
            table.setflags(write=False)
            self._bit_matrix = table
        return self._bit_matrix

    def mask_bit(self, l: int, i: int) -> int:
        if not 0 <= l < self.blocklen:
            raise IndexError(f"bit position {l} out of range [0, {self.blocklen})")
        return int(self.bit_matrix()[i, l])

    # -- decoding ------------------------------------------------------

    def decode(self, word) -> Optional[int]:
        """Decode one word; None means no index within the correction radius."""
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.blocklen,):
            raise ValueError(f"expected word of length {self.blocklen}, got {word.shape}")
        result = self.decode_words(word[None, :])
        return int(result[0]) if result[0] >= 0 else None

    def decode_words(self, words: np.ndarray) -> np.ndarray:
        """Batch decode; returns indices, -1 where decoding fails.

        Duplicated words (common: most buckets spell the same few words)
        are decoded once.
        """
        words = np.asarray(words, dtype=np.uint8)
        if words.ndim != 2 or words.shape[1] != self.blocklen:
            raise ValueError(f"expected (m, {self.blocklen}) words, got {words.shape}")
        if words.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        # dedupe on the packed form: unique-ing 16x fewer bytes
        packed = np.packbits(words, axis=1)
        _, first, inverse = np.unique(
            packed, axis=0, return_index=True, return_inverse=True
        )
        uniq = words[first]
        w = uniq.astype(np.int64)
        synd = np.bitwise_xor.reduce(
            w[:, None, :] * self._synd_table[None, :, :], axis=2
        )  # (u, 2t)
        out = np.full(uniq.shape[0], -1, dtype=np.int64)
        clean = ~np.any(synd, axis=1)
        if np.any(clean):
            weights = (np.int64(1) << np.arange(self.msg_bits, dtype=np.int64))
            msgs = uniq[clean, self._parity_len :].astype(np.int64) @ weights
            out[clean] = np.where(msgs < self.n, msgs, -1)
        for idx in np.nonzero(~clean)[0]:
            out[idx] = self._correct(uniq[idx], synd[idx])
        return out[inverse.reshape(-1)]

    def _correct(self, word: np.ndarray, synd: np.ndarray) -> int:
        locator, deg = self._berlekamp_massey(synd.tolist())
        if deg == 0 or deg > self.n_correctable:
            return -1
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        if len(locator) - 1 != deg:
            return -1
        # Chien search: error at position l iff locator(alpha^{-l}) == 0
        field = self.field
        order = field.order
        pos_exp = (order - np.arange(self.blocklen)) % order
        vals = np.zeros(self.blocklen, dtype=np.int64)
        for j, coeff in enumerate(locator):
            if coeff:
                vals ^= field.exp_np[(field.log[coeff] + j * pos_exp) % order]
        err_pos = np.nonzero(vals == 0)[0]
        if len(err_pos) != deg:
            return -1
        fixed = word.copy()
        fixed[err_pos] ^= 1
        weights = (np.int64(1) << np.arange(self.msg_bits, dtype=np.int64))
        msg = int(fixed[self._parity_len :].astype(np.int64) @ weights)
        return msg if msg < self.n else -1

    def _berlekamp_massey(self, synd):
        """Error locator polynomial from the syndrome sequence."""
        field = self.field
        C = [1]
        B = [1]
        L = 0
        m = 1
        b = 1
        for step, s in enumerate(synd):
            d = s
            for i in range(1, L + 1):
                if i < len(C) and C[i] and synd[step - i]:
                    d ^= field.mul(C[i], synd[step - i])
            if d == 0:
                m += 1
                continue
            coef = field.mul(d, field.inv(b))
            T = C[:]
            C.extend([0] * (len(B) + m - len(C)))  # no-op when C is long enough
            for i, Bi in enumerate(B):
                if Bi:
                    C[i + m] ^= field.mul(coef, Bi)
            if 2 * L <= step:
                L = step + 1 - L
                B = T
                b = d
                m = 1
            else:
                m += 1
        return C, L


@lru_cache(maxsize=32)
def _codebook_cached(n: int) -> Codebook:
    for m, t in _DESIGNS:
        try:
            return Codebook(n, m, t)  # raises when capacity < index bits
        except ValueError:
            continue
    raise ValueError(f"no configured blocklength can address {n} indices")


def for_index_space(n: int) -> Codebook:
    """Smallest configured BCH blocklength whose capacity covers [n]."""
    return _codebook_cached(int(n))
