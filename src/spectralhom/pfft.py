"""Discrete Fourier transform on patterns.

The transform reshapes the last (pattern) axis onto the Smith-coordinate
grid (d_1, ..., d_d) as trailing axes, where the kernel separates, and runs
ordinary mixed-radix FFTs along each; numpy's pocketfft supplies the
butterflies including the Bluestein fallback for large prime factors, and
its "ortho" mode applies each axis's 1/sqrt(d_l) inside the transform, so
the pair is unitary without a separate pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .lattice import PatternMatrix, smith_normal_form

__all__ = ["FftPlan", "plan", "fft", "ifft"]


@dataclass(frozen=True, eq=False)
class FftPlan:
    """Reusable transform plan for one pattern matrix.

    Immutable after construction; safe to share across threads.  Input arrays
    are indexed by the canonical pattern order along the last axis (forward)
    or the canonical dual-frequency order (inverse); leading axes are
    transformed independently.
    """

    matrix: PatternMatrix
    diag: tuple

    @property
    def m(self) -> int:
        return self.matrix.m

    def _transform(self, fn, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape[-1:] != (self.m,):
            raise ShapeError(f"expected trailing axis {self.m}, got {values.shape}")
        grid = values.reshape(values.shape[:-1] + self.diag)
        axes = tuple(range(-len(self.diag), 0))
        # one output buffer: every axis pass after the first runs in place
        out = np.empty(grid.shape, dtype=np.result_type(grid, 1j))
        return fn(grid, axes=axes, norm="ortho", out=out).reshape(values.shape)

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Unitary forward transform, pattern order -> dual frequency order."""
        return self._transform(np.fft.fftn, values)

    def ifft(self, values: np.ndarray) -> np.ndarray:
        """Unitary inverse transform (the adjoint of :meth:`fft`)."""
        return self._transform(np.fft.ifftn, values)


@lru_cache(maxsize=128)
def plan(M: PatternMatrix) -> FftPlan:
    return FftPlan(matrix=M, diag=smith_normal_form(M).diag)


def fft(M: PatternMatrix, values: np.ndarray) -> np.ndarray:
    return plan(M).fft(values)


def ifft(M: PatternMatrix, values: np.ndarray) -> np.ndarray:
    return plan(M).ifft(values)
