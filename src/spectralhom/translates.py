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

Every rule is a product over axes of one factor of the scaled frequency:
sinc^p, the trapezoid, or the half-open indicator (the alpha = 0 trapezoid).
Since M^{-T}(h + M^T z) = xi_h + z, a congruence class h + M^T Z^d is the
grid xi_h + Z^d in scaled frequencies, so functions of the class factor into
per-axis tables (``CoefficientRule.axis_factors``).  Bracket sums (sums over
a class) are therefore products of one-axis sums and are evaluated exactly:
the Dirichlet and trapezoid factors have finite support, and each B-spline
axis sum is a finite cosine polynomial whose weights are integer samples of
a higher-order cardinal B-spline.
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


def _cardinal_bspline(order: int, x: Fraction) -> Fraction:
    """Cardinal B-spline N_order on [0, order], exact at rational arguments."""
    if order == 1:
        return Fraction(1) if 0 <= x < 1 else Fraction(0)
    if x <= 0 or x >= order:
        return Fraction(0)
    n = order
    return (x * _cardinal_bspline(n - 1, x) + (n - x) * _cardinal_bspline(n - 1, x - 1)) / (n - 1)


@lru_cache(maxsize=32)
def _centred_bspline_samples(order: int) -> tuple:
    """Integer samples of the centred cardinal B-spline of the given order.

    Returns (b_0, b_1, ..., b_r) with b_j the value at +-j; by Poisson
    summation sum_t sinc^order(pi (xi + t)) = b_0 + 2 sum_j b_j cos(2 pi j xi).
    """
    half = Fraction(order, 2)
    vals = []
    for j in range(order // 2 + 1):
        vals.append(float(_cardinal_bspline(order, Fraction(j) + half)))
    while len(vals) > 1 and vals[-1] == 0.0:
        vals.pop()
    return tuple(vals)


def _sampled_autocos(order: int, xi: np.ndarray) -> np.ndarray:
    """sum_t sinc^order(pi (xi + t)) evaluated through the finite cosine form."""
    b = _centred_bspline_samples(order)
    out = np.full(xi.shape, b[0])
    for j in range(1, len(b)):
        out += 2.0 * b[j] * np.cos(2.0 * np.pi * j * xi)
    return out


def _sampled_autosin(order: int, xi: np.ndarray) -> np.ndarray:
    """sum_t sinc^order(pi (xi + t)) (xi + t) = -(1 / pi) sum_{j >= 1} B'(j) sin(2 pi j xi), for even orders.

    B'(j) = N(j + order/2) - N(j + order/2 - 1) with N the mirror mean of N_{order-1}: the mean of
    the one-sided slopes of the centred B-spline B at the kinks of order 2, and N_{order-1} itself above.
    """
    half = Fraction(order, 2)

    def mean(x: Fraction) -> Fraction:
        return (_cardinal_bspline(order - 1, x) + _cardinal_bspline(order - 1, order - 1 - x)) / 2

    out = np.zeros(xi.shape)
    for j in range(1, order // 2 + 1):
        out -= float(mean(j + half) - mean(j + half - 1)) / np.pi * np.sin(2.0 * np.pi * j * xi)
    return out


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

    def class_mean_shift(self, classes=slice(None)) -> np.ndarray:
        """Mean shift delta[a, h] = sum_t F_a(xi_h,a + t)^2 t / sum_t F_a(xi_h,a + t)^2, shape (d, n).

        The weighted mean of class h's frequencies is h + M^T delta_h.  Sums
        run over the support (delta = 0 for dirichlet) or through the closed
        sine and cosine forms of a B-spline, whose aliases at xi_a = -1/2 pair
        off: delta_a = 1/2 exactly.  Classes as in ``axis_factors``.
        """
        if self.kind == "bspline":
            nums = self._scaled_nums(self._freqs.freqs[classes]).T
            xi = nums / self._den
            mean = _sampled_autosin(2 * self.order, xi) / _sampled_autocos(2 * self.order, xi)
            mean[2 * nums == -self._den] = 0.0
            return mean - xi
        periods = self.support_periods
        weight = self.axis_factors(periods, classes) ** 2
        return np.tensordot(np.arange(-periods, periods + 1.0), weight, axes=(0, 1)) / weight.sum(axis=1)

    # -- exact class sums ----------------------------------------------------

    def _raw_class_sum(self) -> np.ndarray:
        """[c^2] over every congruence class, for the unscaled rule.

        The coefficient is a product over axes and a class sum runs over
        xi_h + Z^d, so the class sum is the product of per-axis sums: the
        closed cosine form for bspline, finite sums over the support else.
        """
        if self.kind == "bspline":
            nums = self._scaled_nums(self._freqs.freqs)
            per_axis = _sampled_autocos(2 * self.order, nums.T / self._den)
        else:
            per_axis = np.sum(self.axis_factors(self.support_periods) ** 2, axis=1)
        return np.prod(per_axis, axis=0) * self.raw_scale**2

    def gram_bracket(self) -> np.ndarray:
        """m [|c|^2] per frequency class (1.0 everywhere iff orthonormal)."""
        vals = self.m * self._raw_class_sum()
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
