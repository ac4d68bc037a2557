"""Discrete Fourier transform on patterns.

The dense reference matrix is assembled from exact rational phases: the
phase h^T y of every entry is an integer multiple of 1/m, reduced modulo m
in integer arithmetic before the complex exponential is evaluated, so there
is no phase drift at large m.  The fast transform reshapes the last (pattern)
axis onto the Smith-coordinate grid (d_1, ..., d_d) as trailing axes, where
the kernel separates, and runs ordinary mixed-radix FFTs along each; numpy's
pocketfft supplies the butterflies including the Bluestein fallback for
large prime factors, and its "ortho" mode applies each axis's 1/sqrt(d_l)
inside the transform, so the pair is unitary without a separate pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ShapeError
from .lattice import PatternMatrix, smith_normal_form

__all__ = ["FftPlan", "plan", "fourier_matrix", "fft", "ifft"]

_DENSE_LIMIT = 4096


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


def fourier_matrix(M: PatternMatrix) -> np.ndarray:
    """Dense unitary Fourier matrix with rows over G(M^T), columns over P(M).

    Entry (h, y) is exp(-2 pi i h^T y) / sqrt(m).  Intended as the reference
    implementation for testing; guarded to m <= 4096.
    """
    m = M.m
    if m > _DENSE_LIMIT:
        raise CapacityError(f"dense Fourier matrix limited to m <= {_DENSE_LIMIT}, got m = {m}")
    diag = np.array(smith_normal_form(M).diag, dtype=np.int64)
    grids = np.indices(tuple(diag), dtype=np.int64)
    J = grids.reshape(len(diag), -1).T
    # h(j')^T y(j) = sum_l j'_l j_l / d_l mod 1; numerators over m stay integer
    phases = ((J * (m // diag)[None, :]) @ J.T) % m
    return np.exp((-2j * np.pi / m) * phases) / np.sqrt(m)


def fft(M: PatternMatrix, values: np.ndarray) -> np.ndarray:
    return plan(M).fft(values)


def ifft(M: PatternMatrix, values: np.ndarray) -> np.ndarray:
    return plan(M).ifft(values)
