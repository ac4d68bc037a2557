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

Layout: a spectrum is stored flat over the slots of ``FftPlan.slot_shape``:
the grid ``spectrum_shape`` whose last axis, the row, ends in one pad slot
on a plan that pads.  A plan pads when its row has even length, it has at
least 2^14 points and one of its leading axes at least 16.  A complex plan's
row of d_d classes then takes d_d + 1 slots; a real plan's d_d // 2 + 1 is
already odd when 4 divides d_d.  The stored classes keep their order
(``FftPlan.class_slots`` gives the slot of each), and every pad slot holds
zero after a forward transform.

Why: a pass along a leading axis of n points reads each line at a stride of
the row length.  On a power-of-two row, the usual Smith grid of a
power-of-two pattern, the n points of a line map to the same few cache sets.
Once n exceeds the sets' ways they evict each other before the next line,
one element over, reuses their cache lines.  An odd row spreads them over
the sets.  Lines of 8 points or fewer fit in the ways: padding them gained
nothing and cost 1-5% per transform pair, from rows that no longer start on
a cache line.  Below 2^14 points a plan's lines stay in cache whatever the
stride: padding cost a (64, 64) pair up to 5% and a (16, 16, 16) pair
15-24%.

Padding moves no bit: the passes, their order, their lines and their scale
are those above, run on the ``stored`` view of the slots, and the pad slots
are neither read nor transformed.  Forward + inverse (``overwrite``) of a
(3, m) field, median of 30 pairs in each of 3 alternating processes (2
vCPUs, numpy 2.4.6, ms, unpadded -> padded):

    Smith grid      complex128        complex64
    (32, 512)       0.566 -> 0.394    0.282 -> 0.255
    (32, 2048)      2.43 -> 1.67      1.19 -> 1.06
    (256, 256)      2.91 -> 1.56      0.975 -> 0.984
    (512, 512)      16.1 -> 7.03      5.81 -> 4.20
    (16, 4096)      2.15 -> 1.73      1.06 -> 1.06
    (32, 32, 32)    1.48 -> 1.22      0.805 -> 0.813
    (64, 64, 64)    33.7 -> 10.1      8.04 -> 5.77

Buffers: a transform writes its result to ``out`` if given, else to a new
array, and every pass after the first runs in that buffer.  The real
inverse's leading passes need a complex half spectrum of their own; with
``overwrite=True`` they run in the input spectrum, which the call then
leaves overwritten, so a call with ``out`` allocates nothing.  On a plan
that pads, ``overwrite=True`` also lets a complex inverse run all its passes
in the input spectrum's odd rows and then copy them to the field: the
field's own rows are a power of two long on the Smith grids of
power-of-two patterns.

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

_PAD_FROM = 1 << 14  # points from which a plan stores its spectrum rows at odd length (module docstring) ...
_PAD_LINE = 16  # ... if a leading axis has at least this many points


@dataclass(frozen=True, eq=False)
class FftPlan:
    """Reusable transform plan for one pattern matrix.

    Immutable after construction; safe to share across threads.  Input arrays
    are indexed by the canonical pattern order along the last axis (forward)
    or the canonical dual-frequency order (inverse); leading axes are
    transformed independently.  A ``real`` plan maps real fields to the half
    spectrum over ``classes`` and back.  Spectra lie on ``slots`` (see the
    module docstring).
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
    def pads(self) -> bool:
        """Whether each spectrum row ends in a pad slot: an even row, 2^14 points or more, a leading axis of 16 or more.

        See the module docstring.
        """
        long_axis = any(n >= _PAD_LINE for _, n in self._leading)
        return self.m >= _PAD_FROM and long_axis and self.spectrum_shape[-1] % 2 == 0

    @cached_property
    def slot_shape(self) -> tuple:
        """Grid of the stored spectrum: ``spectrum_shape``, its last axis one longer on a plan that pads."""
        return self.spectrum_shape[:-1] + (self.spectrum_shape[-1] + self.pads,)

    @property
    def slots(self) -> int:
        """Length of the trailing axis of a spectrum: the stored classes and the pad slots."""
        return math.prod(self.slot_shape)

    def stored(self, spectrum: np.ndarray) -> np.ndarray:
        """The stored classes of a (..., slots) spectrum, as a view on ``spectrum_shape``."""
        return spectrum.reshape(spectrum.shape[:-1] + self.slot_shape)[..., : self.spectrum_shape[-1]]

    @property
    def class_slots(self) -> np.ndarray:
        """The slot of each stored class, in the order of ``classes``."""
        return self.stored(np.arange(self.slots)).ravel()

    def place(self, values: np.ndarray) -> np.ndarray:
        """Move stored classes onto their slots, in place, and zero the pad slots; returns ``values``.

        ``values`` is a C-contiguous (..., slots) array that holds the classes
        in spectrum order in the first ``len(classes)`` entries of its last
        axis.  Spectrum rows move last first, so none is overwritten before
        it has moved: in runs whose slots lie past their classes, one
        assignment each, down to the first rows, which overlap their own
        classes and move one by one.
        """
        if not self.pads:
            return values
        width, padded = self.spectrum_shape[-1], self.slot_shape[-1]
        rows = self.slots // padded
        grid = values.reshape(values.shape[:-1] + (rows, padded))
        last = rows
        while last > 1:
            first = max(1, min(last - 1, -(-last * width // padded)))
            run = values[..., first * width : last * width]
            grid[..., first:last, :width] = run.reshape(run.shape[:-1] + (last - first, width))
            last = first
        grid[..., width:] = 0
        return values

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

        The spectrum, (..., slots), has the complex type of the input's
        precision and zeros in its pad slots; ``out``, if given, is the
        contiguous buffer it is written to.  ``values`` is only read.
        """
        dtype = np.result_type(values, 1j)
        field, spectrum, out = self._grids(values, self.diag, self.slot_shape, dtype, out)
        stored = spectrum[..., :-1] if self.pads else spectrum
        (np.fft.rfft if self.real else np.fft.fft)(field, self.diag[-1], -1, norm="ortho", out=stored)
        for axis, n in reversed(self._leading):
            np.fft.fft(stored, n, axis, norm="ortho", out=stored)
        if self.pads:
            spectrum[..., -1] = 0
        return out

    def ifft(self, values: np.ndarray, *, out: np.ndarray | None = None, overwrite: bool = False) -> np.ndarray:
        """Unitary inverse transform: the adjoint of :meth:`fft`, or on a real plan its inverse on real fields.

        A real plan returns the real type of the spectrum's precision; ``out``
        is as in :meth:`fft`.  The pad slots of ``values`` are not read.
        ``values`` is only read, except that ``overwrite=True`` lets a real
        plan run its passes before the last axis, and a complex plan that
        pads all its passes, in ``values`` when it is a writeable array of the
        spectrum's complex type: the call leaves it overwritten and, with
        ``out``, allocates nothing.
        """
        dtype = np.result_type(values, 1j)
        field_type = np.finfo(dtype).dtype if self.real else dtype
        spectrum, field, out = self._grids(values, self.slot_shape, self.diag, field_type, out)
        stored = spectrum[..., :-1] if self.pads else spectrum
        in_place = overwrite and (self.real or self.pads) and stored.dtype == dtype and stored.flags.writeable
        if not self.real:
            work = stored if in_place else field
            np.fft.ifft(stored, self.diag[-1], -1, norm="ortho", out=work)
            for axis, n in reversed(self._leading):
                np.fft.ifft(work, n, axis, norm="ortho", out=work)
            if work is not field:
                np.copyto(field, work)
            return out
        work = stored if in_place else None
        for axis, n in self._leading:
            stored = work = np.fft.ifft(stored, n, axis, norm="ortho", out=work)
        np.fft.irfft(stored, self.diag[-1], -1, norm="ortho", out=field)
        return out


@lru_cache(maxsize=128)
def plan(M: PatternMatrix, real: bool = False) -> FftPlan:
    return FftPlan(matrix=M, diag=smith_normal_form(M).diag, real=real)
