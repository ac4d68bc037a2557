"""Discrete Fourier transform on patterns.

The transform reshapes the last (pattern) axis onto the Smith-coordinate
grid (d_1, ..., d_d) as trailing axes, where the kernel separates, and runs
one-dimensional mixed-radix FFTs along each: numpy's public ``fft``,
``ifft``, ``rfft`` and ``irfft``, whose pocketfft supplies the butterflies
including the Bluestein fallback for large prime factors.  Their "ortho"
mode applies each axis's 1/sqrt(d_l) inside the pass, so the pair is
unitary without a separate pass.

The passes run in the order that numpy's nd functions use, each on the
same lines with the same scale, so every spectrum and field has the bits of
``fftn``, ``ifftn``, ``rfftn`` and ``irfftn`` (``s=diag``) with
``norm="ortho"`` on the Smith grid:

- complex plans: the last axis first, then in place towards the first;
- real forward: ``rfft`` on the last axis, then ``fft`` in place from the
  second-to-last axis to the first;
- real inverse: ``ifft`` from the first axis to the second-to-last, then
  ``irfft`` on the last.

A leading axis of length one is not passed over: that pass multiplies by
one.  Calling the 1-D functions directly skips the nd functions' argument
handling, about a fifth of the time of a transform of a few thousand points.

A real plan transforms real fields.  Their spectra are conjugate-symmetric
(the class of -h holds the conjugate of the class of h), so only the half
Smith grid j_d <= d_d // 2 is stored, in the canonical frequency order
restricted to those classes (``FftPlan.classes``).

Buffers: a transform writes its result to ``out`` if given, else to a new
array, and every pass after the first runs in that buffer.  The real
inverse's leading passes need a complex half spectrum of their own; with
``overwrite=True`` they run in the input spectrum, which the call then
leaves overwritten, so a call with ``out`` allocates nothing.

Transforms keep the input's precision: float32 and complex64 fields give
complex64 spectra, which a real plan maps back to float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it lazily: import it with this module, not in the first transform

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

    @cached_property
    def spectrum_shape(self) -> tuple:
        """Smith grid of the stored frequencies: the last axis halved on a real plan."""
        return self.diag[:-1] + (self.diag[-1] // 2 + 1,) if self.real else self.diag

    @cached_property
    def _leading(self) -> tuple:
        """(axis, length) of the passes before the last axis, first axis first; axes of length one are left out."""
        d = len(self.diag)
        return tuple((axis - d, n) for axis, n in enumerate(self.diag[:-1]) if n > 1)

    @property
    def classes(self) -> np.ndarray:
        """Canonical positions of the stored frequency classes, in spectrum order (h = 0 first)."""
        return np.arange(self.m).reshape(self.diag)[..., : self.spectrum_shape[-1]].ravel()

    @staticmethod
    def _grids(values, grid: tuple, shape: tuple, dtype, out) -> tuple:
        """``values`` on ``grid``, the result buffer on ``shape``, and the flat buffer: ``out`` checked, or new."""
        values = np.asarray(values)
        size = math.prod(grid)
        if values.shape[-1:] != (size,):
            raise ShapeError(f"expected trailing axis {size}, got {values.shape}")
        lead = values.shape[:-1]
        flat = lead + (math.prod(shape),)
        if out is None:
            out = np.empty(flat, dtype=dtype)
        elif out.shape != flat or out.dtype != dtype or not out.flags.c_contiguous:
            raise ShapeError(f"output buffer must be a contiguous {np.dtype(dtype)} array of shape {flat}")
        return values.reshape(lead + grid), out.reshape(lead + shape), out

    def fft(self, values: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Unitary forward transform, pattern order -> dual frequency order (half spectrum if real).

        The spectrum has the complex type of the input's precision; ``out``,
        if given, is the contiguous buffer it is written to.  ``values`` is
        only read.
        """
        dtype = np.result_type(values, 1j)
        field, spectrum, out = self._grids(values, self.diag, self.spectrum_shape, dtype, out)
        (np.fft.rfft if self.real else np.fft.fft)(field, self.diag[-1], -1, norm="ortho", out=spectrum)
        for axis, n in reversed(self._leading):
            np.fft.fft(spectrum, n, axis, norm="ortho", out=spectrum)
        return out

    def ifft(self, values: np.ndarray, *, out: np.ndarray | None = None, overwrite: bool = False) -> np.ndarray:
        """Unitary inverse transform: the adjoint of :meth:`fft`, or on a real plan its inverse on real fields.

        A real plan returns the real type of the spectrum's precision; ``out``
        is as in :meth:`fft`.  ``values`` is only read, except that
        ``overwrite=True`` lets a real plan run its passes before the last
        axis in ``values`` when it is a writeable array of the spectrum's
        complex type: the call leaves it overwritten and, with ``out``,
        allocates nothing.
        """
        dtype = np.result_type(values, 1j)
        if not self.real:
            spectrum, field, out = self._grids(values, self.diag, self.diag, dtype, out)
            np.fft.ifft(spectrum, self.diag[-1], -1, norm="ortho", out=field)
            for axis, n in reversed(self._leading):
                np.fft.ifft(field, n, axis, norm="ortho", out=field)
            return out
        spectrum, field, out = self._grids(values, self.spectrum_shape, self.diag, np.finfo(dtype).dtype, out)
        work = spectrum if overwrite and spectrum.dtype == dtype and spectrum.flags.writeable else None
        for axis, n in self._leading:
            spectrum = work = np.fft.ifft(spectrum, n, axis, norm="ortho", out=work)
        np.fft.irfft(spectrum, self.diag[-1], -1, norm="ortho", out=field)
        return out


@lru_cache(maxsize=128)
def plan(M: PatternMatrix, real: bool = False) -> FftPlan:
    return FftPlan(matrix=M, diag=smith_normal_form(M).diag, real=real)
