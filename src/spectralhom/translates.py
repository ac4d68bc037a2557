"""Generators of pattern-translation-invariant spaces.

A generator f is represented by the rule k -> c_k(f) for its Fourier
coefficients on integer frequencies.  Three families are provided:

* ``dirichlet``  -- indicator of the dual generating set G(M^T); spans the
  truncated-Fourier space of classical FFT homogenization.
* ``dlvp``       -- de la Vallee Poussin means: a tensor product of centred
  trapezoids with plateau 1 - alpha_j and support width 1 + alpha_j in the
  scaled frequency M^{-T} k.  alpha = 0 degenerates to the Dirichlet rule.
* ``bspline``    -- tensor-product cardinal B-spline of order p on the unit
  cell M^{-1} [-1/2, 1/2)^d, i.e. c_k = m^{-1/2} prod_j sinc^p(pi (M^{-T}k)_j).

Scaled frequencies are handled as exact integer numerators over det(M), so
support and boundary decisions never depend on floating-point rounding.
The cell [-1/2, 1/2)^d is half open toward -1/2: the Dirichlet rule and the
degenerate (alpha_j = 0) trapezoid factor count a boundary frequency once,
on the -1/2 side, so the alpha -> 0 limit of the trapezoid family is the
Dirichlet rule itself.  For alpha_j > 0 the trapezoid is the continuous one
and carries the value 1/2 at |xi_j| = 1/2, sharing the weight of a boundary
frequency with its congruent mirror.

Every rule is a product over axes of one factor F_a of the scaled frequency:
sinc^p, the trapezoid, or the half-open indicator (the alpha = 0 trapezoid).
Since M^{-T}(h + M^T z) = xi_h + z, a congruence class h + M^T Z^d is the
grid xi_h + Z^d in scaled frequencies, so functions of the class factor into
per-axis tables (``CoefficientRule.axis_factors``), and every class sum the
code needs comes from the two one-axis sums of ``CoefficientRule._class_sums``:
S0 = sum_t F_a^2(xi_a + t) for orthonormalisation and S1 = sum_t F_a^2(xi_a + t) t
for the class-mean shift.  Both are exact: the Dirichlet and trapezoid factors
have finite support, and the B-spline sums are finite cosine and sine series
whose weights are integer samples of a higher-order cardinal B-spline and of
its slope (Unser, Aldroubi & Eden, IEEE Trans. Signal Process. 1993).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateGeneratorError, DomainError, ShapeError, parse_kind
from .lattice import PatternMatrix, frequency_set

__all__ = [
    "GeneratorSpec",
    "CoefficientRule",
    "dirichlet_rule",
    "dlvp_rule",
    "bspline_rule",
    "make_rule",
    "orthonormalize",
]


_GENERATOR_KEYS = {"dirichlet": {}, "dlvp": {"alpha": ([float], ())}, "bspline": {"order": (int, 1)}}


@dataclass(frozen=True)
class GeneratorSpec:
    """Parsed description of a generator choice."""

    kind: str  # "dirichlet" | "dlvp" | "bspline"
    alpha: tuple | None = None
    order: int | None = None

    @classmethod
    def from_json(cls, doc) -> "GeneratorSpec":
        values = parse_kind(doc, _GENERATOR_KEYS, "generator", DomainError)
        if "alpha" in values:
            values["alpha"] = tuple(values["alpha"])
        return cls(**values)

    def to_json(self) -> dict:
        if self.kind == "dirichlet":
            return {"kind": "dirichlet"}
        if self.kind == "dlvp":
            return {"kind": "dlvp", "alpha": list(self.alpha)}
        return {"kind": "bspline", "order": self.order}


@lru_cache(maxsize=None)
def _cardinal_bspline(order: int, x) -> Fraction:
    """Cardinal B-spline N_order on [0, order], exact at rational x; memoised, so O(order^2) calls."""
    if order == 1:
        return Fraction(1) if 0 <= x < 1 else Fraction(0)
    if x <= 0 or x >= order:
        return Fraction(0)
    return (x * _cardinal_bspline(order - 1, x) + (order - x) * _cardinal_bspline(order - 1, x - 1)) / (order - 1)


@lru_cache(maxsize=None)
def _series_weights(order: int, moment: int) -> tuple:
    """Weights w_j, j < order + moment, of the B-spline sums of ``CoefficientRule._class_sums``.

    With B the centred cardinal B-spline of order n = 2 order, the Fourier
    transform of sinc^n(pi .), Poisson summation gives
        sum_t sinc^n(pi (xi + t))          = sum_j w_j cos(2 pi j xi),  w = (B(0), 2 B(1), 2 B(2), ...),
        sum_t sinc^n(pi (xi + t)) (xi + t) = sum_j w_j sin(2 pi j xi),  w_j = -B'(j) / pi,
    for moments 0 and 1.  B'(j) = N(j + order) - N(j + order - 1), with N the
    mean of N_{n-1} and its mirror image: the mean of B's one-sided slopes at
    the kinks of order 1, N_{n-1} itself above.
    """
    n = 2 * order
    if moment == 0:
        return tuple(float(_cardinal_bspline(n, j + order)) * (2.0 if j else 1.0) for j in range(order))
    mean = [(_cardinal_bspline(n - 1, x) + _cardinal_bspline(n - 1, n - 1 - x)) / 2 for x in range(order - 1, n + 1)]
    return tuple(float(mean[j] - mean[j + 1]) / np.pi for j in range(order + 1))


def _trapezoid(nums: np.ndarray, den: int, alpha: float) -> np.ndarray:
    """Centred trapezoid factor at xi = nums/den.

    For alpha = 0 the factor degenerates to the half-open cell indicator
    (exactly the Dirichlet factor); for alpha > 0 it is the continuous
    trapezoid, which carries the value 1/2 at the cell boundary |xi| = 1/2,
    splitting the weight of a boundary frequency with its congruent mirror.
    """
    out = np.zeros(nums.shape)
    if alpha == 0.0:
        inside = (2 * nums >= -den) & (2 * nums < den)
        out[inside] = 1.0
        return out
    xi = np.abs(nums / den)
    plateau = xi <= (1.0 - alpha) / 2.0
    ramp = ~plateau & (xi < (1.0 + alpha) / 2.0)
    out[plateau] = 1.0
    out[ramp] = ((1.0 + alpha) / 2.0 - xi[ramp]) / alpha
    return out


class CoefficientRule:
    """Fourier-coefficient rule of a generator, optionally orthonormalised.

    Orthonormalisation stores one positive scale per congruence class; the
    effective coefficients are c_k / scale(class of k).  Instances are
    immutable and safe to share.
    """

    def __init__(self, M: PatternMatrix, kind: str, alpha=None, order=None, class_scale=None):
        self.matrix = M
        self.kind = kind
        self.alpha = None if alpha is None else tuple(float(a) for a in alpha)
        self.order = None if order is None else int(order)
        self._freqs = frequency_set(M)
        if class_scale is not None:
            class_scale = np.asarray(class_scale, dtype=np.float64)
            if class_scale.shape != (M.m,):
                raise ShapeError("class scale table must have one entry per frequency class")
            class_scale.setflags(write=False)
        self._class_scale = class_scale
        adj = np.array(M.adjugate, dtype=np.int64)
        den = M.det
        if den < 0:
            adj, den = -adj, -den
        self._adj = adj
        self._den = int(den)

    # -- basic properties ---------------------------------------------------

    @property
    def m(self) -> int:
        return self.matrix.m

    @property
    def orthonormalized(self) -> bool:
        return self._class_scale is not None

    @property
    def class_scale(self):
        return self._class_scale

    @property
    def support_periods(self):
        """Translates of M^T Z^d covering the support; None if unbounded."""
        if self.kind == "dirichlet":
            return 0
        if self.kind == "dlvp":
            return 1
        return None

    @property
    def default_periods(self) -> int:
        """Class-sum truncation when none is given: the support, else 8 translates."""
        return 8 if self.support_periods is None else self.support_periods

    @property
    def conjugate_symmetric(self) -> bool:
        """Whether |c_{-k}| = |c_k| at every frequency of the pattern's classes.

        Then the periodised Green table is even in the class and real fields
        stay real.  Every axis factor is even except the half-open indicator
        (Dirichlet, and a trapezoid with alpha_j = 0), which differs only at
        xi_j = -1/2; that needs an even det M.
        """
        if self._den % 2 == 1 or self.kind == "bspline":
            return True
        return self.kind == "dlvp" and all(a > 0.0 for a in self.alpha)

    def spec(self) -> GeneratorSpec:
        return GeneratorSpec(kind=self.kind, alpha=self.alpha, order=self.order)

    # -- evaluation ----------------------------------------------------------

    def _scaled_nums(self, k: np.ndarray) -> np.ndarray:
        """Integer numerators of M^{-T} k over the positive denominator."""
        return k @ self._adj

    @property
    def raw_scale(self) -> float:
        """Constant factor of the unscaled coefficients: 1 for dirichlet, m^{-1/2} otherwise."""
        return 1.0 if self.kind == "dirichlet" else 1.0 / np.sqrt(self.m)

    def _axis_factor(self, axis: int, nums: np.ndarray) -> np.ndarray:
        """One axis' factor of the unscaled coefficient at xi_axis = nums / den."""
        if self.kind == "bspline":
            return np.sinc(nums / self._den) ** self.order
        return _trapezoid(nums, self._den, self.alpha[axis] if self.kind == "dlvp" else 0.0)

    def _raw(self, k: np.ndarray) -> np.ndarray:
        nums = self._scaled_nums(k)
        out = self._axis_factor(0, nums[:, 0])
        for axis in range(1, self.matrix.d):
            out *= self._axis_factor(axis, nums[:, axis])
        return out * self.raw_scale

    def axis_factors(self, periods: int, classes=slice(None)) -> np.ndarray:
        """Per-axis factors F[j, t + periods, h] at xi_h + t e_j, |t| <= periods.

        Since M^{-T}(h + M^T z) = xi_h + z, the unscaled coefficient at
        h + M^T z is raw_scale * prod_j F[j, z_j + periods, h]; the result
        has shape (d, 2 periods + 1, n) over the canonical positions
        ``classes`` (all m classes by default).
        """
        nums = self._scaled_nums(self._freqs.freqs[classes])
        out = np.empty((self.matrix.d, 2 * periods + 1, len(nums)))
        for j, row in np.ndindex(out.shape[:2]):  # row by row keeps temporaries at one class vector
            out[j, row] = self._axis_factor(j, nums[:, j] + (row - periods) * self._den)
        return out

    def coefficients(self, k) -> np.ndarray:
        """c_k for one integer vector or an (n, d) batch of them."""
        arr = np.asarray(k, dtype=np.int64)
        single = arr.ndim == 1
        kk = np.atleast_2d(arr)
        if kk.shape[1] != self.matrix.d:
            raise ShapeError(f"expected frequency vectors of length {self.matrix.d}")
        vals = self._raw(kk)
        if self._class_scale is not None:
            vals = vals / self._class_scale[self._freqs.class_index(kk)]
        return vals[0] if single else vals

    def _class_sums(self, classes=slice(None)) -> tuple:
        """Per-axis class sums S0[a, h] = sum_t F_a(xi_h,a + t)^2 and S1[a, h] = sum_t F_a(xi_h,a + t)^2 t.

        They run over the support (S1 = 0 for dirichlet) or through the
        B-spline series of ``_series_weights``, whose aliases at xi_a = -1/2
        pair off: there S1 = S0 / 2 exactly.  Both are (d, n) over the classes
        of ``axis_factors``, from one axis-factor table per call.
        """
        if self.kind == "bspline":
            nums = self._scaled_nums(self._freqs.freqs[classes]).T
            xi = nums / self._den
            sums = []
            for moment, wave in enumerate((np.cos, np.sin)):
                weights = _series_weights(self.order, moment)
                sums.append(np.full(xi.shape, weights[0]))
                for j in range(1, len(weights)):
                    sums[-1] += weights[j] * wave(2.0 * np.pi * j * xi)
            s0, s1 = sums
            s1[2 * nums == -self._den] = 0.0
            return s0, s1 - xi * s0
        periods = self.support_periods
        weight = self.axis_factors(periods, classes) ** 2
        return weight.sum(axis=1), np.tensordot(np.arange(-periods, periods + 1.0), weight, axes=(0, 1))

    def class_mean_shift(self, classes=slice(None)) -> np.ndarray:
        """Mean shift delta[a, h] = S1[a, h] / S0[a, h] of ``_class_sums``, shape (d, n).

        The weighted mean of class h's frequencies is h + M^T delta_h.
        """
        s0, s1 = self._class_sums(classes)
        return s1 / s0

    def gram_bracket(self) -> np.ndarray:
        """m [|c|^2] = m raw_scale^2 prod_a S0[a, h] / class_scale^2 per frequency class (1.0 iff orthonormal)."""
        vals = self.m * (np.prod(self._class_sums()[0], axis=0) * self.raw_scale**2)
        if self._class_scale is not None:
            vals = vals / self._class_scale**2
        return vals


def dirichlet_rule(M: PatternMatrix) -> CoefficientRule:
    """Indicator rule of the dual generating set (c_k = 1 on G(M^T))."""
    return CoefficientRule(M, "dirichlet")


def dlvp_rule(M: PatternMatrix, alpha) -> CoefficientRule:
    """De la Vallee Poussin rule with per-axis slopes alpha in [0, 1]."""
    alpha = tuple(float(a) for a in np.atleast_1d(alpha))
    if len(alpha) != M.d:
        raise DomainError(f"alpha must have {M.d} components, got {alpha!r}")
    if any(a < 0.0 or a > 1.0 for a in alpha):
        raise DomainError(f"alpha components must lie in [0, 1], got {alpha!r}")
    return CoefficientRule(M, "dlvp", alpha=alpha)


def bspline_rule(M: PatternMatrix, order: int) -> CoefficientRule:
    """Tensor-product cardinal B-spline rule of the given order (>= 1)."""
    if int(order) < 1:
        raise DomainError(f"B-spline order must be >= 1, got {order!r}")
    return CoefficientRule(M, "bspline", order=int(order))


def make_rule(spec: GeneratorSpec, M: PatternMatrix) -> CoefficientRule:
    if spec.kind == "dirichlet":
        return dirichlet_rule(M)
    if spec.kind == "dlvp":
        return dlvp_rule(M, spec.alpha)
    return bspline_rule(M, spec.order)


def orthonormalize(rule: CoefficientRule) -> CoefficientRule:
    """Rescale a rule so its translates become an orthonormal basis.

    Divides c_k by sqrt(m [|c|^2]) of its class; idempotent.  Raises when a
    class sum vanishes, naming the offending frequency.
    """
    gram = rule.gram_bracket()
    worst = int(np.argmin(gram))
    if gram[worst] <= 1e-300:
        h = rule._freqs.freqs[worst]
        raise DegenerateGeneratorError(
            f"generator does not span the translate space: class sum vanishes at h = {h.tolist()}"
        )
    scale = np.sqrt(gram)
    if rule.class_scale is not None:
        scale = scale * rule.class_scale
    return CoefficientRule(
        rule.matrix, rule.kind, alpha=rule.alpha, order=rule.order, class_scale=scale
    )
