"""Counter-based random streams keyed by (seed, sample, step).

Scheme: the uniform driving sample s at step k is the first double of
counter block s of a Philox stream keyed (seed, k).  Every variate the
samplers need is produced from that single uniform by inverse transform, so
the value depends on nothing but the (seed, sample, step) triple.  Workers
holding any slice of the sample range reproduce identical output by
advancing the counter to their slice start.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_BLOCK = 4  # 64-bit words per Philox counter block
# counter blocks drawn at a time: 256 kB of words
_CHUNK = 8192


def step_uniforms(seed: int, step_index: int, start: int, count: int) -> np.ndarray:
    """Uniforms for samples start..start+count-1 at one step.  The first
    word w of each counter block gives (w >> 11) * 2**-53, the double that
    ``Generator.random`` makes of it; the words are drawn in chunks of
    ``_CHUNK`` blocks, and only the kept word of each block is held past
    its chunk."""
    bg = np.random.Philox(key=np.array([seed & _MASK64, step_index & _MASK64],
                                       dtype=np.uint64))
    if start:
        bg.advance(start)
    out = np.empty(count)
    for a in range(0, count, _CHUNK):
        n = min(_CHUNK, count - a)
        out[a:a + n] = (bg.random_raw(_BLOCK * n)[::_BLOCK] >> np.uint64(11)) * 2.0**-53
    return out
