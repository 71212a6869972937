"""Emulation of Go's ``math/rand`` generator (rngSource), from public knowledge.

The algorithm is the classic Plan-9 / Go additive lagged-Fibonacci generator:

    v[n] = v[n-607] + v[n-273]   (mod 2^64)

seeded via a MINSTD Lehmer generator (a=48271, m=2^31-1, Schrage's trick with
q=44488, r=3399), with each of the 607 state words assembled from three Lehmer
draws (``x<<40 ^ x<<20 ^ x``) XORed against a fixed 607-word table
(``rngCooked``).  That table is itself defined as the generator state after
seeding the raw recurrence with 1 (three-draw fill with the *smaller* shifts
``x<<20 ^ x<<10 ^ x``) and stepping 7.8e12 times.

7.8e12 sequential steps are infeasible, but the recurrence is linear over
Z/2^64, so we jump ahead with polynomial exponentiation modulo the
characteristic polynomial f(x) = x^607 - x^334 - 1 (coefficients mod 2^64,
~43 squarings of a 607-term convolution).  The whole derivation runs in well
under a second and is cached at module level.

Correctness oracle (well-known published Go outputs for seed 1):
  * first Int63()      == 5577006791947779410
  * first Float64()    == 0.6046602879796196
  * Intn(100) stream   == 81, 87, 47, 59, 81, 18, 25, 40, 56, 0
all reproduced bit-for-bit (tests/test_gorand.py), which transitively pins the
cooked-table derivation, the seeding procedure and the stepping order.

This exists so the R-tree golden-structure parity suite can regenerate the
reference's *exact* test inputs (``/root/reference/rtree/golden_internal_test.go:13``
drives ``rand.New(rand.NewSource(0))``) without a Go toolchain.
"""
from __future__ import annotations

import numpy as np

LEN = 607
TAP = 273
_M31 = (1 << 31) - 1
_A, _Q, _R = 48271, 44488, 3399
_MASK64 = (1 << 64) - 1
MASK63 = (1 << 63) - 1
_U64 = np.uint64


def _seedrand(x: int) -> int:
    """One MINSTD Lehmer step using Schrage's decomposition (no overflow)."""
    hi, lo = divmod(x, _Q)
    x = _A * lo - _R * hi
    if x < 0:
        x += _M31
    return x


def _seed_vec(seed: int, shift_hi: int, shift_mid: int) -> list[int]:
    """607-word state fill: 20 warm-up draws, then 3 draws per word."""
    seed %= _M31
    if seed < 0:
        seed += _M31
    if seed == 0:
        seed = 89482311
    x = seed
    vec = [0] * LEN
    for i in range(-20, LEN):
        x = _seedrand(x)
        if i >= 0:
            u = x << shift_hi
            x = _seedrand(x)
            u ^= x << shift_mid
            x = _seedrand(x)
            u ^= x
            vec[i] = u & _MASK64
    return vec


# ---------------------------------------------------------------------------
# jump-ahead: x^n mod f(x), f(x) = x^607 - x^334 - 1, coefficients mod 2^64

def _poly_mulmod(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    c = np.convolve(p, q)  # uint64 arithmetic wraps mod 2^64 (C semantics)
    with np.errstate(over="ignore"):
        for d in range(len(c) - 1, LEN - 1, -1):
            v = c[d]
            if v:
                # x^d = x^(d-273) + x^(d-607)
                c[d - 273] += v
                c[d - 607] += v
    return np.ascontiguousarray(c[:LEN])


def _poly_xpow(n: int) -> np.ndarray:
    result = np.zeros(LEN, dtype=_U64)
    result[0] = 1
    base = np.zeros(LEN, dtype=_U64)
    base[1] = 1
    while n:
        if n & 1:
            result = _poly_mulmod(result, base)
        n >>= 1
        if n:
            base = _poly_mulmod(base, base)
    return result


class _RawLFG:
    """Direct simulator of the additive recurrence with Go's tap/feed walk."""

    __slots__ = ("vec", "tap", "feed")

    def __init__(self, vec):
        self.vec = list(vec)
        self.tap = 0
        self.feed = LEN - TAP

    def step(self) -> int:
        tap = self.tap - 1
        if tap < 0:
            tap += LEN
        feed = self.feed - 1
        if feed < 0:
            feed += LEN
        vec = self.vec
        x = (vec[feed] + vec[tap]) & _MASK64
        vec[feed] = x
        self.tap = tap
        self.feed = feed
        return x


def _jump_state(vec0: list[int], n_steps: int) -> list[int]:
    """State vector content after exactly ``n_steps`` step() calls.

    Outputs u_t (t >= 0, i.e. call t+1) obey u_t = u_{t-273} + u_{t-607} once
    t >= 607; the first 607 are simulated directly.  Position p is written by
    call k iff (334 - k) % 607 == p, so the final vec holds the last 607
    outputs arranged by that map.
    """
    if n_steps <= 2 * LEN:
        g = _RawLFG(vec0)
        for _ in range(n_steps):
            g.step()
        return g.vec
    g = _RawLFG(vec0)
    u = np.array([g.step() for _ in range(LEN)], dtype=_U64)  # u_0..u_606
    anchor = n_steps - LEN
    cur = _poly_xpow(anchor)
    x1 = np.zeros(LEN, dtype=_U64)
    x1[1] = 1
    vec = [0] * LEN
    with np.errstate(over="ignore"):
        for t in range(anchor, n_steps):
            val = int(np.dot(cur, u))  # mod 2^64
            pos = (334 - (t + 1)) % LEN
            vec[pos] = val
            cur = _poly_mulmod(cur, x1)
    return vec


_N_COOKED_STEPS = 7_800_000_000_000  # 7.8e12
_cooked_cache: list[int] | None = None


def _rng_cooked() -> list[int]:
    global _cooked_cache
    if _cooked_cache is None:
        vec0 = _seed_vec(1, 20, 10)
        vec = _jump_state(vec0, _N_COOKED_STEPS)
        _cooked_cache = vec  # full 64-bit words, as Go's rngCooked
    return _cooked_cache


class GoRand:
    """Bit-exact ``rand.New(rand.NewSource(seed))`` replacement."""

    def __init__(self, seed: int):
        cooked = _rng_cooked()
        seed %= _M31
        if seed < 0:
            seed += _M31
        if seed == 0:
            seed = 89482311
        x = seed
        vec = [0] * LEN
        for i in range(-20, LEN):
            x = _seedrand(x)
            if i >= 0:
                u = x << 40
                x = _seedrand(x)
                u ^= x << 20
                x = _seedrand(x)
                u ^= x
                u ^= cooked[i]
                vec[i] = u & _MASK64
        self._g = _RawLFG(vec)

    def uint64(self) -> int:
        """rand.Uint64: the raw 64-bit state word (the cooked table keeps
        bit 63, so this is Go-exact too; Int63 and friends drop it)."""
        return self._g.step()

    def int63(self) -> int:
        return self._g.step() & MASK63

    def uint32(self) -> int:
        return (self._g.step() & MASK63) >> 31

    def int31(self) -> int:
        return (self._g.step() & MASK63) >> 32

    def intn(self, n: int) -> int:
        """rand.Intn for 0 < n <= 2^31-1 (Int31n path)."""
        if n <= 0 or n > _M31:
            raise ValueError("intn: n out of supported range")
        if n & (n - 1) == 0:
            return self.int31() & (n - 1)
        mx = (1 << 31) - 1 - (1 << 31) % n
        v = self.int31()
        while v > mx:
            v = self.int31()
        return v % n

    def _int31n(self, n: int) -> int:
        """Go's unexported int31n (unbiased multiply-shift; used by Shuffle)."""
        v = self.uint32()
        prod = v * n
        low = prod & 0xFFFFFFFF
        if low < n:
            thresh = ((1 << 32) - n) % n
            while low < thresh:
                v = self.uint32()
                prod = v * n
                low = prod & 0xFFFFFFFF
        return prod >> 32

    def shuffle(self, n: int, swap) -> None:
        """rand.Shuffle (Fisher-Yates, int31n variant for n < 2^31)."""
        if n < 0:
            raise ValueError("shuffle: negative n")
        for i in range(n - 1, 0, -1):
            j = self._int31n(i + 1)
            swap(i, j)

    def float64(self) -> float:
        while True:
            f = self.int63() / (1 << 63)
            if f != 1.0:
                return f
