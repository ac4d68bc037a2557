"""Discrete Fourier transform on patterns.

The dense reference matrix is assembled from exact rational phases: the
phase h^T y of every entry is an integer multiple of 1/m, reduced modulo m
in integer arithmetic before the complex exponential is evaluated, so there
is no phase drift at large m.  The fast transform reshapes pattern data onto
the Smith-coordinate grid (d_1, ..., d_d), where the kernel separates, and
runs ordinary mixed-radix FFTs along each axis; numpy's pocketfft supplies
the per-axis butterflies including the Bluestein fallback for large prime
factors.  Both directions carry the 1/sqrt(m) factor that makes the pair
unitary.
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
    are indexed by the canonical pattern order along axis 0 (forward) or the
    canonical dual-frequency order (inverse); trailing axes are transformed
    independently.
    """

    matrix: PatternMatrix
    diag: tuple

    @property
    def m(self) -> int:
        return self.matrix.m

    def _reshape(self, values: np.ndarray) -> tuple[np.ndarray, tuple]:
        values = np.asarray(values)
        if values.shape[0] != self.m:
            raise ShapeError(f"expected leading axis {self.m}, got {values.shape}")
        rest = values.shape[1:]
        return values.reshape(self.diag + rest), rest

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Unitary forward transform, pattern order -> dual frequency order."""
        grid, rest = self._reshape(values)
        out = np.fft.fftn(grid, axes=tuple(range(len(self.diag))))
        return out.reshape((self.m,) + rest) / np.sqrt(self.m)

    def ifft(self, values: np.ndarray) -> np.ndarray:
        """Unitary inverse transform (the adjoint of :meth:`fft`)."""
        grid, rest = self._reshape(values)
        out = np.fft.ifftn(grid, axes=tuple(range(len(self.diag))))
        return out.reshape((self.m,) + rest) * np.sqrt(self.m)


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
