"""Seedable 64-bit generator used everywhere randomness is needed.

The generator is pinned down exactly so that any reimplementation can
reproduce the same streams bit for bit:

* State update: xorshift64* (Marsaglia shift-register xorshift with a
  multiplicative output scrambler, Vigna's constants)::

      s ^= s >> 12;  s ^= s << 25;  s ^= s >> 27        (mod 2^64)
      output = (s * 0x2545F4914F6CDD1D) mod 2^64

* Seeding: the raw 64-bit seed is passed through the splitmix64 mixer
  (`mix64` below, i.e. one splitmix64 step: add the golden-ratio gamma
  0x9E3779B97F4A7C15, then the 30/27/31 xor-multiply finalizer). A zero
  state is remapped to the gamma constant.

* Uniform doubles: the top 53 bits of the output word, scaled by 2^-53,
  giving values in [0, 1).

* Stream splitting: stream ``i`` of base seed ``s`` is seeded with
  ``s XOR mix64(i)``. Independent streams never share state, so parallel
  consumers need no coordination.

``XorShift64Star`` is the specification: one draw per call. Samplers draw
through ``float_block``, which returns the same uniforms a block at a time.
The state update is linear over GF(2): one step is a 64x64 bit matrix T,
so ``T^j`` jumps a state j steps ahead (Haramoto et al. 2008, "Efficient
jump ahead for F2-linear random number generators"). A block runs up to
``LANES`` numpy uint64 lanes side by side; lane j starts at
``T^(j*STRIDE) s`` and makes ``STRIDE`` draws, so the lanes read in order
are draws 0, 1, 2, ... of the scalar stream. uint64 arithmetic wraps
modulo 2^64 like the masks above, so every draw is bit-identical. The
jump table (column k of every ``T^(j*STRIDE)``) is built once, on first
use, and numpy is imported only then.
"""

from __future__ import annotations

import functools

MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_STAR = 0x2545F4914F6CDD1D
_STAR_INV = pow(_STAR, -1, 1 << 64)  # the output scrambler is invertible
_INV53 = 2.0**-53

STRIDE = 8  # draws per lane in one round of float_block
LANES = 1024  # lanes per round (a power of two)


def mix64(x: int) -> int:
    """One splitmix64 step: bijective 64-bit mixing of ``x``."""
    z = (x + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_seed(seed: int, stream: int) -> int:
    """Seed for sub-stream ``stream`` of ``seed`` (the split rule)."""
    return (seed & MASK64) ^ mix64(stream & MASK64)


class XorShift64Star:
    """xorshift64* generator; deterministic given the constructor seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        s = mix64(seed & MASK64)
        self.state = s if s != 0 else _GAMMA

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s = (s ^ (s << 25)) & MASK64
        s ^= s >> 27
        self.state = s
        return (s * _STAR) & MASK64

    def next_float(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next output word."""
        return (self.next_u64() >> 11) * _INV53


def _steps(x, times):
    """Apply T ``times`` to every state in the uint64 array x, in place."""
    import numpy as np

    s12, s25, s27 = np.uint64(12), np.uint64(25), np.uint64(27)
    for _ in range(times):
        x ^= x >> s12
        x ^= x << s25
        x ^= x >> s27
    return x


def _apply(columns, x):
    """The GF(2) matrix with these 64 uint64 columns applied to array x."""
    import numpy as np

    # byte b of x indexes table b: the XOR of the columns of its set bits
    tables = np.zeros((8, 256), np.uint64)
    by_byte = columns.reshape(8, 8)
    for bit in range(8):
        low = tables[:, : 1 << bit]
        tables[:, 1 << bit : 2 << bit] = low ^ by_byte[:, bit : bit + 1]
    out = tables[0][x & np.uint64(255)]
    for b in range(1, 8):
        out ^= tables[b][(x >> np.uint64(8 * b)) & np.uint64(255)]
    return out


@functools.cache
def _jump_table():
    """(64, LANES) uint64 table: row k, column j holds T^(j*STRIDE) e_k,
    where e_k is the state with only bit k set."""
    import numpy as np

    table = np.empty((64, LANES), np.uint64)
    table[:, 0] = np.uint64(1) << np.arange(64, dtype=np.uint64)
    table[:, 1] = _steps(table[:, 0].copy(), STRIDE)
    m = 2
    while m < LANES:
        # T^(m*STRIDE) turns columns [0, m) into columns [m, 2m)
        jump = _steps(table[:, m - 1].copy(), STRIDE)
        table[:, m : 2 * m] = _apply(jump, table[:, :m])
        m *= 2
    table.flags.writeable = False
    return table


def float_block(state: int, n: int):
    """The uniforms of n ``next_float`` calls from ``state``, and the state
    those calls leave: ``(u, state)``, u a float64 numpy array.
    """
    import numpy as np

    table = _jump_table()
    s12, s25, s27, s11 = (np.uint64(k) for k in (12, 25, 27, 11))
    star = np.uint64(_STAR)
    u = np.empty(n, np.float64)
    done = 0
    while done < n:
        lanes = min(LANES, -(-(n - done) // STRIDE))
        x = np.bitwise_xor.reduce(
            table[[k for k in range(64) if state >> k & 1], :lanes], axis=0
        )
        words = np.empty((STRIDE, lanes), np.uint64)
        for row in words:
            x ^= x >> s12
            x ^= x << s25
            x ^= x >> s27
            np.multiply(x, star, out=row)
        take = min(n - done, lanes * STRIDE)
        words = words.T.ravel()[:take]  # lane by lane: the scalar order
        u[done : done + take] = (words >> s11).astype(np.float64)
        # the state after the last draw, recovered from its output word
        state = int(words[-1]) * _STAR_INV & MASK64
        done += take
    u *= _INV53
    return u, state
