"""Discrete Fourier transform on patterns.

The transform reshapes the last (pattern) axis onto the Smith-coordinate
grid (d_1, ..., d_d) as trailing axes, where the kernel separates, and runs
ordinary mixed-radix FFTs along each; numpy's pocketfft supplies the
butterflies including the Bluestein fallback for large prime factors, and
its "ortho" mode applies each axis's 1/sqrt(d_l) inside the transform, so
the pair is unitary without a separate pass.

A real plan transforms real fields.  Their spectra are conjugate-symmetric
(the class of -h holds the conjugate of the class of h), so only the half
Smith grid j_d <= d_d // 2 is stored: ``rfftn`` forward and ``irfftn`` back,
the canonical frequency order restricted to those classes
(``FftPlan.classes``).

Transforms keep the input's precision: float32 and complex64 fields give
complex64 spectra, which a real plan maps back to float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .lattice import PatternMatrix, smith_normal_form

__all__ = ["FftPlan", "plan"]


@dataclass(frozen=True, eq=False)
class FftPlan:
    """Reusable transform plan for one pattern matrix.

    Immutable after construction; safe to share across threads.  Input arrays
    are indexed by the canonical pattern order along the last axis (forward)
    or the canonical dual-frequency order (inverse); leading axes are
    transformed independently.  A ``real`` plan maps real fields to the half
    spectrum over ``classes`` and back.
    """

    matrix: PatternMatrix
    diag: tuple
    real: bool = False

    @property
    def m(self) -> int:
        return self.matrix.m

    @property
    def spectrum_shape(self) -> tuple:
        """Smith grid of the stored frequencies: the last axis halved on a real plan."""
        return self.diag[:-1] + (self.diag[-1] // 2 + 1,) if self.real else self.diag

    @property
    def classes(self) -> np.ndarray:
        """Canonical positions of the stored frequency classes, in spectrum order (h = 0 first)."""
        return np.arange(self.m).reshape(self.diag)[..., : self.spectrum_shape[-1]].ravel()

    def _transform(self, fn, values, grid: tuple, shape: tuple, dtype, out, **kwargs) -> np.ndarray:
        values = np.asarray(values)
        size = int(np.prod(grid))
        if values.shape[-1:] != (size,):
            raise ShapeError(f"expected trailing axis {size}, got {values.shape}")
        lead = values.shape[:-1]
        flat = lead + (int(np.prod(shape)),)
        if out is None:
            out = np.empty(flat, dtype=dtype)
        elif out.shape != flat or out.dtype != dtype or not out.flags.c_contiguous:
            raise ShapeError(f"output buffer must be a contiguous {np.dtype(dtype)} array of shape {flat}")
        # one output buffer: every axis pass after the first runs in place
        axes = tuple(range(-len(grid), 0))
        fn(values.reshape(lead + grid), axes=axes, norm="ortho", out=out.reshape(lead + shape), **kwargs)
        return out

    def fft(self, values: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Unitary forward transform, pattern order -> dual frequency order (half spectrum if real).

        The spectrum has the complex type of the input's precision; ``out``,
        if given, is the contiguous buffer it is written to.
        """
        dtype = np.result_type(values, 1j)
        if self.real:
            return self._transform(np.fft.rfftn, values, self.diag, self.spectrum_shape, dtype, out)
        return self._transform(np.fft.fftn, values, self.diag, self.diag, dtype, out)

    def ifft(self, values: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Unitary inverse transform: the adjoint of :meth:`fft`, or on a real plan its inverse on real fields.

        A real plan returns the real type of the spectrum's precision; ``out`` is as in :meth:`fft`.
        """
        dtype = np.result_type(values, 1j)
        if self.real:
            real = np.finfo(dtype).dtype
            return self._transform(np.fft.irfftn, values, self.spectrum_shape, self.diag, real, out, s=self.diag)
        return self._transform(np.fft.ifftn, values, self.diag, self.diag, dtype, out)


@lru_cache(maxsize=128)
def plan(M: PatternMatrix, real: bool = False) -> FftPlan:
    return FftPlan(matrix=M, diag=smith_normal_form(M).diag, real=real)
