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
_BLOCK = 4  # doubles per Philox counter block


def step_uniforms(seed: int, step_index: int, start: int, count: int) -> np.ndarray:
    """Uniforms for samples start..start+count-1 at one step."""
    bg = np.random.Philox(key=np.array([seed & _MASK64, step_index & _MASK64],
                                       dtype=np.uint64))
    if start:
        bg.advance(start)
    raw = np.random.Generator(bg).random(_BLOCK * count)
    return np.ascontiguousarray(raw[::_BLOCK])
