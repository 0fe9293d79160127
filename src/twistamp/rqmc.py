"""Randomized quasi-Monte Carlo: scrambled Sobol replicates behind one plan.

Every Monte Carlo estimate of the package (and the Feynman check) is
randomized quasi-Monte Carlo: _REPLICATES independent scrambles of a Sobol
sequence with Joe and Kuo's direction numbers, replicate r seeded by (seed,
stream, r) and cut into blocks; the streams are direct, simplex (both simplex
integrands) and feynman. The scramble words are those numpy's
default_rng([seed, code, r]) would draw, bit for bit, computed here for all
replicates at once (see _scrambles), so no estimate loads numpy.random (and,
through it, hashlib and OpenSSL), and an upgrade of numpy cannot move an
estimate's bits. The estimate is the mean of the replicate means and its
error their standard error (Owen, "Monte Carlo theory, methods and
examples", ch. 17), which stays honest where the i.i.d. formula would
overstate the error of a low-discrepancy sample.

One Plan per estimate holds every replicate's stream, hands the blocks out
in batches and draws their points. Nothing is kept at module level but the
Sobol direction numbers and PCG64's jump table, built once per process.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UnsupportedTopology

# Independent scrambles of every estimate. The estimate is the mean of the
# replicate means and its error their standard error, which itself is
# uncertain by about 1 / sqrt(2 (R - 1)), 18% at 16.
_REPLICATES = 16

# Points per block. A replicate is cut into blocks from its start; a block
# is drawn and accumulated whole and batches hold whole blocks, so neither
# the batch size nor the lane chunks move a bit of an estimate.
_BLOCK = 8_192

# The random streams: "simplex" serves both simplex integrands.
_METHOD_CODE = {"direct": 1, "simplex": 2, "feynman": 4}

# Joe and Kuo's Sobol direction numbers (new-joe-kuo-6.21201), the first 64
# dimensions, as in scipy's _sobol_direction_numbers.npz: per dimension the
# primitive polynomial, its coefficients as bits with the leading one, and the
# initial direction integers m_1..m_s (s its degree, 1 for the first two).
_JOE_KUO = (
    (1, (1,)), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)), (239, (1, 1, 5, 5, 23, 33, 13)),
    (241, (1, 1, 7, 7, 1, 61, 123)), (247, (1, 1, 7, 9, 13, 61, 49)),
    (253, (1, 3, 3, 5, 3, 55, 33)), (285, (1, 3, 1, 15, 31, 13, 49, 245)),
    (299, (1, 3, 5, 15, 31, 59, 63, 97)), (301, (1, 3, 1, 11, 11, 11, 77, 249)),
    (333, (1, 3, 1, 11, 27, 43, 71, 9)), (351, (1, 1, 7, 15, 21, 11, 81, 45)),
    (355, (1, 3, 7, 3, 25, 31, 65, 79)), (357, (1, 3, 1, 1, 19, 11, 3, 205)),
    (361, (1, 1, 5, 9, 19, 21, 29, 157)), (369, (1, 3, 7, 11, 1, 33, 89, 185)),
    (391, (1, 3, 3, 3, 15, 9, 79, 71)), (397, (1, 3, 7, 11, 15, 39, 119, 27)),
    (425, (1, 1, 3, 1, 11, 31, 97, 225)), (451, (1, 1, 1, 3, 23, 43, 57, 177)),
    (463, (1, 3, 7, 7, 17, 17, 37, 71)), (487, (1, 3, 1, 5, 27, 63, 123, 213)),
    (501, (1, 1, 3, 5, 11, 43, 53, 133)), (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)),
    (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)), (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)),
    (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)), (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)), (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)), (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)), (637, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
)

# Coordinates a Sobol point can have: one per row of _JOE_KUO.
_MAX_DIM = len(_JOE_KUO)

# Binary digits of every Sobol coordinate: a point is an integer below 2^53
# and its coordinate that integer times 2^-53, a double in [0, 1).
_SOBOL_BITS = 53

# Low index bits of a Sobol point taken from a per-replicate table (see
# Plan.draw).
_SOBOL_LOW = 7

# Scramble words per Sobol coordinate: its matrix's rows, then its shift.
_SCRAMBLE_WORDS = _SOBOL_BITS + 1

# numpy's default_rng, which _scrambles reproduces: SeedSequence's hash
# constants (INIT_A and MULT_A, INIT_B and MULT_B, MIX_MULT_L and
# MIX_MULT_R) and the multiplier of PCG64's 128-bit LCG.
_SEED_HASH_A = (0x43B0D7E5, 0x931E8875)
_SEED_HASH_B = (0x8B51F9DD, 0x58F38DED)
_SEED_MIX = (0xCA01F9DD, 0x4973F715)
_PCG64_MULTIPLIER = 2549297995355413924 << 64 | 4865540595714422341

# Scramble words computed at a time, per replicate (see _scrambles): a
# temporary of _REPLICATES x 1 008 words stays below 128 KiB, which malloc
# serves from its heap. A draw of 64 coordinates in one piece, its
# temporaries mapped and faulted in afresh at every call, took over twice
# as long. 18 coordinates (4 loops) take one piece.
_JUMP_CHUNK = 1008


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array, marked read-only."""
    array.flags.writeable = False
    return array


@functools.cache
def _hash_constants(init: int, multiplier: int, count: int) -> np.ndarray:
    """init * multiplier^j mod 2^32 for j = 0 .. count, as a uint32 column:
    SeedSequence's hash call i XORs its word with entry i and multiplies it
    by entry i + 1, whatever the data."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * multiplier & 0xFFFFFFFF)
    return _read_only(np.array(values, dtype=np.uint32)[:, None])


def _seed_states(seed: int, stream: str) -> np.ndarray:
    """`SeedSequence([seed, code, r]).generate_state(4, np.uint64)` for every
    replicate r (code the stream's _METHOD_CODE), as a (4, _REPLICATES)
    array.

    The entropy is the 32-bit words of seed (least significant first, one
    word for 0), then code and r. SeedSequence hashes its first four words
    into a pool, mixes every pool word into the others, mixes in the words
    past the fourth, and hashes the pool into eight 32-bit words, read in
    pairs as little-endian 64-bit words. Its hash constants follow the call
    order alone, so each step runs on every replicate at once, in uint32
    arithmetic, which wraps as the C code's does."""
    words = []
    while True:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
        if not seed:
            break
    entropy = np.empty((len(words) + 2, _REPLICATES), dtype=np.uint32)
    entropy[:-2] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-2] = _METHOD_CODE[stream]
    entropy[-1] = np.arange(_REPLICATES)
    constants = _hash_constants(*_SEED_HASH_A, 16 + 4 * max(len(entropy) - 4, 0))

    def hashed(values, call, count):  # hash calls call .. call + count - 1
        out = values ^ constants[call : call + count]
        out *= constants[call + 1 : call + count + 1]
        out ^= out >> 16
        return out

    def mixed(x, y):
        out = x * _SEED_MIX[0]
        out -= y * _SEED_MIX[1]
        out ^= out >> 16
        return out

    pool = np.zeros((4, _REPLICATES), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = hashed(pool, 0, 4)
    call = 4
    for source in range(4):
        others = [i for i in range(4) if i != source]
        pool[others] = mixed(pool[others], hashed(pool[source], call, 3))
        call += 3
    for word in entropy[4:]:
        pool = mixed(pool, hashed(word, call, 4))
        call += 4
    final = _hash_constants(*_SEED_HASH_B, 8)
    state = np.concatenate((pool, pool)) ^ final[:8]
    state *= final[1:]
    state ^= state >> 16
    state = state.astype(np.uint64)
    return state[0::2] | state[1::2] << 32


@functools.cache
def _pcg64_jumps() -> np.ndarray:
    """PCG64's jump to each scramble word a replicate can draw, as 16-bit
    limbs: column k holds M^(k+2) and sum_{j < k+2} M^j mod 2^128 (M the
    LCG multiplier), row 2i limb i of the first and row 2i + 1 limb i of
    the second, for k < _SCRAMBLE_WORDS len(_JOE_KUO)."""
    count = _SCRAMBLE_WORDS * len(_JOE_KUO)
    power, total = _PCG64_MULTIPLIER**2 % 2**128, 1 + _PCG64_MULTIPLIER
    raw = bytearray()
    for _ in range(count):
        raw += power.to_bytes(16, "little") + total.to_bytes(16, "little")
        total = (total + power) % 2**128
        power = power * _PCG64_MULTIPLIER % 2**128
    limbs = np.frombuffer(bytes(raw), dtype="<u2").reshape(count, 2, 8)
    return _read_only(limbs.transpose(2, 1, 0).reshape(16, count))


def _scrambles(seed: int, stream: str, dim: int) -> np.ndarray:
    """The scramble words of every replicate of an estimate, as a
    (_REPLICATES, _SCRAMBLE_WORDS dim) uint64 array: row r holds the words
    that numpy's `default_rng([seed, code, r])` (code the stream's
    _METHOD_CODE) draws with `.integers(0, 2**53, size=(dim, 53),
    dtype=np.uint64)` and then `.integers(0, 2**53, size=dim,
    dtype=np.uint64)`, bit for bit, computed without numpy.random.

    default_rng seeds PCG64 (XSL-RR 128/64, O'Neill 2014) with the words
    v0..v3 of _seed_states: state s = v0 2^64 + v1 and increment
    I = 2 (v2 2^64 + v3) + 1. Seeding steps the state x -> M x + I from 0,
    adds s and steps again, and each draw steps once and outputs
    rotr(hi ^ lo, hi >> 58) of the state's 64-bit halves. So word k comes
    from state M^(k+2) P + (sum_{j < k+2} M^j) I mod 2^128, with P = s + I,
    and every word of all replicates is one jump (see _pcg64_jumps). A draw
    below 2^53 is Lemire's bounded draw: next64 * 2^53 / 2^64, rejected
    where the product's low half falls below (2^64 - 2^53) mod 2^53 = 0,
    so never, and the word is next64 >> 11.

    The jump products run in float64 matmuls, exactly: with the jumps in
    16-bit limbs and P and I in 32-bit windows at 16-bit steps, the 32-bit
    digit d of the state is a sum of at most 16 integer terms below 2^48,
    so every partial sum is an integer below 2^52, whatever the order of
    summation. Carrying the digits gives the state's 64-bit halves."""
    _require_sobol_dims(dim)
    count = _SCRAMBLE_WORDS * dim
    values = []
    for s_hi, s_lo, i_hi, i_lo in zip(*_seed_states(seed, stream).tolist()):
        increment = ((i_hi << 64 | i_lo) << 1 | 1) % 2**128
        values += [((s_hi << 64 | s_lo) + increment) % 2**128, increment]
    raw = b"".join(value.to_bytes(16, "little") for value in values)
    limbs = np.zeros((_REPLICATES, 2, 10))
    limbs[:, :, 1:9] = np.frombuffer(raw, dtype="<u2").reshape(_REPLICATES, 2, 8)
    # the 32-bit windows of P and I at bits 16m, m = -1 .. 7 (at index m + 1)
    windows = limbs[:, :, :-1] + 65536.0 * limbs[:, :, 1:]
    # digit d takes limb i of a jump times the window at bit 32d - 16i
    factors = [
        windows[:, :, 2 * d + 1 :: -1].transpose(0, 2, 1).reshape(_REPLICATES, -1) for d in range(4)
    ]
    words = np.empty((_REPLICATES, count), dtype=np.uint64)
    for start in range(0, count, _JUMP_CHUNK):
        stop = min(start + _JUMP_CHUNK, count)
        jumps = _pcg64_jumps()[:, start:stop].astype(np.float64)
        d0, d1, d2, d3 = ((f @ jumps[: f.shape[1]]).astype(np.uint64) for f in factors)
        lo = d1 << 32
        lo += d0
        d0 >>= 32
        d0 += d1
        d0 >>= 32  # the carry out of the low half
        hi = d3 << 32
        hi += d2
        hi += d0
        lo ^= hi
        hi >>= 58
        out = words[:, start:stop]
        np.right_shift(lo, hi, out=out)
        np.subtract(64, hi, out=hi)
        hi &= 63
        lo <<= hi
        out |= lo
        out >>= 11
    return words


@functools.cache
def _direction_numbers() -> np.ndarray:
    """The Sobol direction numbers v[j, k] of the dimensions j of _JOE_KUO,
    for the index bits k < _SOBOL_BITS, as integers m_k 2^(B - 1 - k) (B =
    _SOBOL_BITS). m_k follows Bratley and Fox's recurrence from Joe and
    Kuo's m_1..m_s; the first dimension is van der Corput's, m_k = 1."""
    bits = _SOBOL_BITS
    rows = []
    for poly, initial in _JOE_KUO:
        degree = poly.bit_length() - 1
        m = [1] * bits if degree == 0 else list(initial)
        while len(m) < bits:
            k = len(m)
            new = m[k - degree] ^ (m[k - degree] << degree)
            for i in range(1, degree):
                if poly >> (degree - i) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        rows.append([mk << (bits - 1 - k) for k, mk in enumerate(m)])
    return _read_only(np.array(rows, dtype=np.uint64))


def _trailing_zeros(t: np.ndarray) -> np.ndarray:
    """The number of trailing zero bits of each positive int64 in t."""
    return np.bitwise_count((t & -t) - 1)


def _require_sobol_dims(dim: int) -> None:
    if dim > _MAX_DIM:
        raise UnsupportedTopology(
            f"scrambled Sobol points have at most {_MAX_DIM} coordinates; this needs {dim}"
        )


class Plan:
    """The randomized-QMC sample of one estimate: n_samples points of `dim`
    coordinates on the stream named `stream`, in _REPLICATES replicates.

    Replicate r holds n_samples // R points, one more when r < n_samples % R
    (its `sizes[r]`), and is cut every _BLOCK points from its start. Its
    point i is point i of a scrambled Sobol sequence: the XOR of the
    direction numbers at the set bits of the Gray code i ^ (i >> 1), the
    order scipy draws in. The direction numbers are scrambled by a random
    lower-triangular binary matrix per dimension (each digit of a number
    gains a random sum of the more significant ones) and every point is
    XORed with a random digital shift: Matousek's linear matrix scramble and
    shift (Owen, ch. 17), read from row r of _scrambles(seed, stream, dim):
    the dim x 53 matrix rows, then the dim shifts. So each point is uniform
    on [0, 1)^dim, the first 2^k points still form a (t, k, dim)-net, and a
    point depends on the words and its index alone. All-zero words give the
    unscrambled sequence.

    The state is stacked over the replicates, filled replicate by replicate:
    the scrambled direction numbers the points use, `v` (R, dim, width), the
    unshifted points 0 .. 2^L - 1 (L = _SOBOL_LOW), `low` (R, dim, 2^L), and
    the shifts."""

    def __init__(self, n_samples: int, seed: int, stream: str, dim: int):
        base, extra = divmod(n_samples, _REPLICATES)
        self.sizes = [base + (r < extra) for r in range(_REPLICATES)]
        words = _scrambles(seed, stream, dim)
        digit = np.left_shift(1, np.arange(_SOBOL_BITS, dtype=np.uint64))  # digit b alone
        above = ~(digit + digit - 1)  # the digits above digit b
        width = max(_SOBOL_LOW, (self.sizes[0] - 1).bit_length())
        direction = _direction_numbers()[:dim, :width].T[:, :, None]
        steps = _trailing_zeros(np.arange(1, 1 << _SOBOL_LOW))
        self.v = np.empty((_REPLICATES, dim, width), dtype=np.uint64)
        self.low = np.zeros((_REPLICATES, dim, 1 << _SOBOL_LOW), dtype=np.uint64)
        self.shift = words[:, _SOBOL_BITS * dim :]
        for r, row in enumerate(words):
            # row b of the matrix: digit b and random digits above it
            rows = row[: _SOBOL_BITS * dim].reshape(dim, _SOBOL_BITS) & above | digit
            # digit b of a scrambled number: the parity of row b AND the
            # number; the digits sum exactly in float64, being distinct
            # powers of two
            parity = np.bitwise_count(rows & direction) & np.uint8(1)
            self.v[r] = (parity @ 2.0 ** np.arange(_SOBOL_BITS)).T.astype(np.uint64)
            np.bitwise_xor.accumulate(self.v[r][:, steps], axis=1, out=self.low[r, :, 1:])

    def batches(self, batch_size: int):
        """The batches of the estimate, yielded one by one, each a list of
        blocks (replicate r, its size, lo, hi) for its points lo..hi. A
        batch takes the next blocks while their points fit in `batch_size`,
        and at least one."""
        batch, count = [], 0
        for r, size in enumerate(self.sizes):
            for lo in range(0, size, _BLOCK):
                hi = min(lo + _BLOCK, size)
                if batch and count + hi - lo > batch_size:
                    yield batch
                    batch, count = [], 0
                batch.append((r, size, lo, hi))
                count += hi - lo
        yield batch

    def draw(self, parts, lo: int, hi: int, out: np.ndarray) -> None:
        """Lanes lo..hi of the parts (replicate r, a, b), points a..b of
        replicate r, laid end to end, into the columns of out (k, hi - lo):
        their first k coordinates. Every point is exact, so a caller may cut
        the parts into pieces of any width.

        The Gray code is linear over aligned blocks: gray(a + j) = gray(a) ^
        gray(j) when a is a multiple of 2^L and j < 2^L, so point a + j is
        the point at a XOR the table entry j. From one block start to the
        next the Gray code changes in bit L - 1 and in bit L + (trailing
        zeros of the next block's number), so the block starts follow by one
        cumulative XOR."""
        k, low, stop = out.shape[0], _SOBOL_LOW, 0
        for r, a, b in parts:
            # the part's lanes first..last: its points start .. start + w - 1
            first, last = max(stop, lo), min(stop + b - a, hi)
            start, w, stop = a + first - stop, last - first, stop + b - a
            if w <= 0:
                continue
            v = self.v[r, :k]
            head, tail = start >> low, (start + w - 1) >> low
            gray = head << low ^ head << (low - 1)  # of point head 2^L
            starts = np.empty((k, tail - head + 1), dtype=np.uint64)
            on = [bit for bit in range(gray.bit_length()) if gray >> bit & 1]
            starts[:, 0] = np.bitwise_xor.reduce(v[:, on], axis=1) ^ self.shift[r, :k]
            steps = v[:, _trailing_zeros(np.arange(head + 1, tail + 1)) + low]
            np.bitwise_xor(steps, v[:, low - 1, None], out=starts[:, 1:])
            np.bitwise_xor.accumulate(starts, axis=1, out=starts)
            points = np.bitwise_xor(starts[:, :, None], self.low[r, :k, None, :]).reshape(k, -1)
            offset = start - (head << low)
            points = points[:, offset : offset + w]
            np.multiply(points, 2.0**-_SOBOL_BITS, out=out[:, first - lo : last - lo])
