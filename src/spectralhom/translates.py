"""Generators of pattern-translation-invariant spaces.

A generator f is represented by the rule k -> c_k(f) for its Fourier
coefficients on integer frequencies.  Three families are provided:

* ``dirichlet``  -- indicator of the dual generating set G(M^T); spans the
  truncated-Fourier space of classical FFT homogenization.
* ``dlvp``       -- de la Vallee Poussin means: a tensor product of centred
  trapezoids with plateau 1 - alpha_j and support width 1 + alpha_j in the
  scaled frequency M^{-T} k.
* ``bspline``    -- tensor-product cardinal B-spline of order p on the unit
  cell M^{-1} [-1/2, 1/2)^d, i.e. c_k = m^{-1/2} prod_j sinc^p(pi (M^{-T}k)_j).

Dirichlet is the trapezoid rule with every slope zero: it holds alpha = 0 and
differs from dlvp(0, ..., 0) only in ``raw_scale``, which no Green table reads,
so both give the same table, compatible and with 0 periods.

Scaled frequencies are handled as exact integer numerators over det(M), so
support and boundary decisions never depend on floating-point rounding.
The cell [-1/2, 1/2)^d is half open toward -1/2: the degenerate (alpha_j = 0)
trapezoid factor counts a boundary frequency once, on the -1/2 side, so the
alpha -> 0 limit of the trapezoid family is the Dirichlet rule itself.  For
alpha_j > 0 the trapezoid is the continuous one and carries the value 1/2 at
|xi_j| = 1/2, sharing the weight of a boundary frequency with its congruent
mirror.

Every rule is a product over axes of one factor F_a of the scaled frequency:
sinc^p or the trapezoid, whose alpha = 0 case is the half-open indicator.
Since M^{-T}(h + M^T z) = xi_h + z, a congruence class h + M^T Z^d is the
grid xi_h + Z^d in scaled frequencies, so functions of the class factor into
per-axis tables (``CoefficientRule.axis_factors``), and every class sum the
code needs comes from the two one-axis sums of ``CoefficientRule.class_sums``:
S0 = sum_t F_a^2(xi_a + t) for the class weights and S1 = sum_t F_a^2(xi_a + t) t
for the class-mean shift.  Both are exact: the trapezoid factors have finite
support, and the B-spline sums are finite cosine and sine series whose
weights are integer samples of a higher-order cardinal B-spline and of its
slope (Unser, Aldroubi & Eden, IEEE Trans. Signal Process. 1993).

``orthonormalize`` divides each coefficient by its class's bracket sum
sqrt(m [|c|^2]) = sqrt(m raw_scale^2 prod_a S0[a, h]): it flags the raw rule
``orthonormal``, which derives that scale when asked.  No Green table reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

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
# the highest B-spline order whose class sums S0 (``CoefficientRule.class_sums``) match direct sums (with
# their exact tails) to 1e-10 relative in every class of diag(16, 16); the cosine series cancels near xi = +-1/2,
# where S0 ~ 2 (2 / pi)^(2 order), and its relative error reaches 1.2e-10 at order 18 and 3.6e-8 at 24
_BSPLINE_MAX_ORDER = 17


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
        doc = {"kind": self.kind, "alpha": None if self.alpha is None else list(self.alpha), "order": self.order}
        return {key: value for key, value in doc.items() if value is not None}


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
    """Weights w_j, j < order + moment, of the B-spline sums of ``CoefficientRule.class_sums``.

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
    """Fourier-coefficient rule of a generator, raw or ``orthonormal``.

    An orthonormal rule stores nothing more than the flag: its coefficients
    are c_k / scale(class of k), with the positive per-class ``class_scale``
    derived from the raw rule's class sums on first use.  Instances are
    immutable and safe to share.
    """

    def __init__(self, M: PatternMatrix, kind: str, alpha=None, order=None, orthonormal: bool = False):
        self.matrix = M
        self.kind = kind
        self.alpha = None if alpha is None else tuple(float(a) for a in alpha)
        self.order = None if order is None else int(order)
        self.orthonormal = bool(orthonormal)
        self._freqs = frequency_set(M)
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

    @cached_property
    def class_scale(self):
        """sqrt(m [|c|^2]) of the raw rule per frequency class on an orthonormal rule, else None."""
        if not self.orthonormal:
            return None
        scale = np.sqrt(self.m * (np.prod(self.class_sums()[0], axis=0) * self.raw_scale**2))
        scale.setflags(write=False)
        return scale

    @property
    def support_periods(self):
        """Translates of M^T Z^d covering the support: 0 when every slope is zero, 1 otherwise; None if unbounded."""
        return None if self.kind == "bspline" else int(any(self.alpha))

    @property
    def default_periods(self) -> int:
        """Class-sum truncation when none is given: the support, else 8 translates."""
        return 8 if self.support_periods is None else self.support_periods

    @property
    def conjugate_symmetric(self) -> bool:
        """Whether |c_{-k}| = |c_k| at every frequency of the pattern's classes.

        Then the periodised Green table is even in the class and real fields
        stay real.  Every axis factor is even except the half-open indicator
        (a trapezoid with alpha_j = 0), which differs only at xi_j = -1/2;
        that needs an even det M.
        """
        return self._den % 2 == 1 or self.kind == "bspline" or all(a > 0.0 for a in self.alpha)

    def spec(self) -> GeneratorSpec:
        return GeneratorSpec(kind=self.kind, alpha=None if self.kind == "dirichlet" else self.alpha, order=self.order)

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
        return _trapezoid(nums, self._den, self.alpha[axis])

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
        ``classes`` (all m classes by default).  B-spline rows with t != 0,
        where xi + t != 0, take one sine per class and axis:
        sinc(xi + t) = (-1)^t sin(pi xi) / (pi (xi + t)).
        """
        nums = self._scaled_nums(self._freqs.freqs[classes])
        out = np.empty((self.matrix.d, 2 * periods + 1, len(nums)))
        for j, row in np.ndindex(out.shape[:2]):  # row by row keeps temporaries at one class vector
            t = row - periods
            if self.kind != "bspline" or t == 0:
                out[j, row] = self._axis_factor(j, nums[:, j] + t * self._den)
                continue
            if row == 0:
                sine = np.sin(np.pi / self._den * nums[:, j])
            x = np.multiply(nums[:, j] + t * self._den, (-1) ** t * np.pi / self._den, out=out[j, row])
            np.power(np.divide(sine, x, out=x), self.order, out=x)
        return out

    def coefficients(self, k) -> np.ndarray:
        """c_k for one integer vector or an (n, d) batch of them."""
        arr = np.asarray(k, dtype=np.int64)
        single = arr.ndim == 1
        kk = np.atleast_2d(arr)
        if kk.shape[1] != self.matrix.d:
            raise ShapeError(f"expected frequency vectors of length {self.matrix.d}")
        vals = self._raw(kk)
        if self.orthonormal:
            vals = vals / self.class_scale[self._freqs.class_index(kk)]
        return vals[0] if single else vals

    def class_sums(self, classes=slice(None)) -> tuple:
        """Per-axis class sums S0[a, h] = sum_t F_a(xi_h,a + t)^2 and S1[a, h] = sum_t F_a(xi_h,a + t)^2 t.

        They run over the support (S1 = 0 at support 0) or through the
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
        """Mean shift delta[a, h] = S1[a, h] / S0[a, h] of ``class_sums``, shape (d, n).

        The weighted mean of class h's frequencies is h + M^T delta_h.
        """
        s0, s1 = self.class_sums(classes)
        return s1 / s0

    def gram_bracket(self) -> np.ndarray:
        """m [|c|^2] = m raw_scale^2 prod_a S0[a, h] / class_scale^2 per frequency class (1.0 iff orthonormal)."""
        vals = self.m * (np.prod(self.class_sums()[0], axis=0) * self.raw_scale**2)
        if self.orthonormal:
            vals = vals / self.class_scale**2
        return vals


def dirichlet_rule(M: PatternMatrix) -> CoefficientRule:
    """Indicator rule of the dual generating set (c_k = 1 on G(M^T)): the trapezoid rule with every slope zero."""
    return CoefficientRule(M, "dirichlet", alpha=(0.0,) * M.d)


def dlvp_rule(M: PatternMatrix, alpha) -> CoefficientRule:
    """De la Vallee Poussin rule with per-axis slopes alpha in [0, 1]."""
    alpha = tuple(float(a) for a in np.atleast_1d(alpha))
    if len(alpha) != M.d:
        raise DomainError(f"alpha must have {M.d} components, got {alpha!r}")
    if any(a < 0.0 or a > 1.0 for a in alpha):
        raise DomainError(f"alpha components must lie in [0, 1], got {alpha!r}")
    return CoefficientRule(M, "dlvp", alpha=alpha)


def bspline_rule(M: PatternMatrix, order: int) -> CoefficientRule:
    """Tensor-product cardinal B-spline rule of the given order (1 to ``_BSPLINE_MAX_ORDER``)."""
    if int(order) < 1:
        raise DomainError(f"B-spline order must be >= 1, got {order!r}")
    if int(order) > _BSPLINE_MAX_ORDER:
        raise DomainError(
            f"B-spline order {order} is above {_BSPLINE_MAX_ORDER}, where its class sums lose accuracy to cancellation"
        )
    return CoefficientRule(M, "bspline", order=int(order))


def make_rule(spec: GeneratorSpec, M: PatternMatrix) -> CoefficientRule:
    if spec.kind == "dirichlet":
        return dirichlet_rule(M)
    if spec.kind == "dlvp":
        return dlvp_rule(M, spec.alpha)
    return bspline_rule(M, spec.order)


def orthonormalize(rule: CoefficientRule) -> CoefficientRule:
    """The rule whose translates form an orthonormal basis: ``rule`` flagged ``orthonormal``.

    Its coefficients are c_k / sqrt(m [|c|^2]) of the raw rule's class, so
    orthonormalising twice gives the same rule.  Raises when a class sum
    vanishes, naming the offending frequency.
    """
    gram = rule.gram_bracket()
    worst = int(np.argmin(gram))
    if gram[worst] <= 1e-300:
        h = rule._freqs.freqs[worst]
        raise DegenerateGeneratorError(
            f"generator does not span the translate space: class sum vanishes at h = {h.tolist()}"
        )
    return CoefficientRule(rule.matrix, rule.kind, alpha=rule.alpha, order=rule.order, orthonormal=True)
