"""Reproducible Brownian increments.

Each path owns a counter-based Philox stream keyed by base_seed + path
index; the j-th draw of the stream is the increment of step j. Increments
are therefore a pure function of (base_seed, path, step), independent of
chunking or parallel generation order.
"""

from __future__ import annotations

import numpy as np

_KEY_SPACE = 1 << 128
_WORD = (1 << 64) - 1
_TILE = 256   # streams drawn as rows of one reused tile, then copied transposed


def brownian_increments(base_seed: int, path_index: int, steps: int, dt: float) -> np.ndarray:
    key = (int(base_seed) + int(path_index)) % _KEY_SPACE
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(steps) * np.sqrt(dt)


def increment_block(base_seed: int, first_path: int, n_paths: int, steps: int,
                    dt: float) -> np.ndarray:
    """Increments for paths first_path..first_path+n_paths-1, shape (steps, n_paths).

    Column r equals ``brownian_increments(base_seed, first_path + r, steps, dt)``
    bit for bit. One bit generator serves every path: before each path its
    state is set to the path's key with a zero counter and an empty buffer,
    which is the state ``Philox(key=...)`` starts from, without seeding a
    fresh generator (and reading the OS entropy pool) per path.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    # plain lists: the state setter converts them faster than uint64 arrays
    state["state"]["counter"] = [0, 0, 0, 0]
    state["buffer"] = [0, 0, 0, 0]
    out = np.empty((steps, n_paths))
    tile = np.empty((min(_TILE, n_paths), steps))
    key0 = int(base_seed) + int(first_path)
    for t0 in range(0, n_paths, _TILE):
        rows = tile[:min(_TILE, n_paths - t0)]
        for r, row in enumerate(rows, t0):
            key = (key0 + r) % _KEY_SPACE
            state["state"]["key"] = [key & _WORD, key >> 64]
            bitgen.state = state
            gen.standard_normal(out=row)
        rows *= np.sqrt(dt)
        out[:, t0:t0 + rows.shape[0]] = rows.T
    return out
