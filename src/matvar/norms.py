"""Unitarily invariant matrix norms on singular values.

Four families, all driven by one ``NormSpec`` value:

* Schatten p-norms (p >= 1, including infinity),
* Ky Fan k-norms (sum of the k largest singular values),
* mixed (p, k)-norms (p-norm of the k largest singular values),
* weighted gauges sum_i a_i s_i with a nonincreasing nonnegative weight a.

``f_ratio_bounds`` compares any of these norms against its value on
diag(1, 1, 0, ..., 0), which pins the norm of a generic matrix between
half its Ky Fan 2-norm and max(largest singular value, half the trace norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _scaled, _unscaled, f_matrix, require_square, singular_values

__all__ = ["NormSpec", "norm", "vector_norm", "f_ratio_bounds"]


def _as_p(value, name: str = "p") -> float:
    """A Schatten exponent >= 1 from a number or a string; "inf",
    "infinity" and "oo" (any case) mean infinity."""
    try:
        p = math.inf if str(value).strip().lower() == "oo" else float(value)
    except (TypeError, ValueError):
        raise ValueError(f"expected a number >= 1 or 'inf' for {name}, got {value!r}") from None
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"Schatten exponent must satisfy {name} >= 1, got {value!r}")
    return p


@dataclass(frozen=True)
class NormSpec:
    """Which unitarily invariant norm to evaluate."""

    family: str
    p: float | None = None
    k: int | None = None
    alpha: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family in ("schatten", "kyfanpk"):
            object.__setattr__(self, "p", _as_p(self.p))
        if self.family in ("kyfan", "kyfanpk"):
            if self.k is None or int(self.k) < 1:
                raise ValueError(f"Ky Fan order must be a positive integer, got {self.k!r}")
            object.__setattr__(self, "k", int(self.k))
        elif self.family == "gauge":
            if not self.alpha:
                raise ValueError("gauge norm needs a nonempty weight vector")
            a = tuple(float(v) for v in self.alpha)
            if any(v < 0 or not math.isfinite(v) for v in a):
                raise ValueError("gauge weights must be finite and nonnegative")
            if max(a) <= 0.0:
                raise ValueError("gauge weights must not all vanish")
            if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
                raise ValueError("gauge weights must be nonincreasing")
            object.__setattr__(self, "alpha", a)
        elif self.family != "schatten":
            raise ValueError(f"unknown norm family {self.family!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def schatten(cls, p) -> "NormSpec":
        return cls("schatten", p=p)

    @classmethod
    def kyfan(cls, k: int) -> "NormSpec":
        return cls("kyfan", k=k)

    @classmethod
    def kyfanpk(cls, p, k: int) -> "NormSpec":
        return cls("kyfanpk", p=p, k=k)

    @classmethod
    def weighted_gauge(cls, alpha) -> "NormSpec":
        return cls("gauge", alpha=tuple(alpha))

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """Parse "schatten:2", "schatten:inf", "kyfan:3", "kyfanpk:2:3",
        "gauge:1,0.5,0.25"."""
        parts = [s.strip() for s in text.strip().split(":")]
        family = parts[0].lower()
        try:
            if family == "schatten" and len(parts) == 2:
                return cls.schatten(parts[1])
            if family == "kyfan" and len(parts) == 2:
                return cls.kyfan(int(parts[1]))
            if family == "kyfanpk" and len(parts) == 3:
                return cls.kyfanpk(parts[1], int(parts[2]))
            if family == "gauge" and len(parts) == 2:
                return cls.weighted_gauge(float(v) for v in parts[1].split(","))
        except ValueError as exc:
            raise ValueError(f"bad norm spec {text!r}: {exc}") from exc
        raise ValueError(f"bad norm spec {text!r}")

    def label(self) -> str:
        if self.family == "schatten":
            return f"schatten:{'inf' if math.isinf(self.p) else format(self.p, 'g')}"
        if self.family == "kyfan":
            return f"kyfan:{self.k}"
        if self.family == "kyfanpk":
            return f"kyfanpk:{'inf' if math.isinf(self.p) else format(self.p, 'g')}:{self.k}"
        return "gauge:" + ",".join(format(v, "g") for v in self.alpha)


def _p_sum(sv: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(sv[0])
    top = float(sv[0])
    if p == 1.0 and top <= 1e300:  # a sum of terms up to 1e300 does not overflow
        return float(sv.sum())
    if p == 2.0 and 1e-150 <= top <= 1e150:  # no square overflows, and none that matters underflows
        return math.sqrt(float((sv * sv).sum()))
    # rescale by the top: for stability at large p, and far from unit scale
    if top == 0.0:
        return 0.0
    return _unscaled(float(np.sum((sv / top) ** p)) ** (1.0 / p), top, "norm")


def _evaluate(sv: np.ndarray, spec: NormSpec) -> float:
    n = sv.size
    if spec.family != "gauge":  # the p-norm of the k largest: Schatten is k = n, Ky Fan is p = 1
        k = n if spec.family == "schatten" else spec.k
        if k > n:
            raise ValueError(f"Ky Fan order {k} exceeds the number of singular values {n}")
        return _p_sum(sv[:k], 1.0 if spec.family == "kyfan" else spec.p)
    if len(spec.alpha) < n:
        raise ValueError(f"gauge weight vector has {len(spec.alpha)} entries, need at least {n}")
    a, top, lead = np.array(spec.alpha[:n]), float(sv[0]), spec.alpha[0]
    if top * lead <= 1e300:  # the largest term, as weights and singular values are nonincreasing
        return float(np.dot(a, sv))
    return _unscaled(lead * float(np.dot(a / lead, sv / top)), top, "norm")


def norm(x, spec: NormSpec) -> float:
    """Evaluate the norm selected by ``spec`` on a rectangular matrix."""
    return _evaluate(singular_values(x), spec)


def vector_norm(v, spec: NormSpec) -> float:
    """Norm of diag(v): the same symmetric gauge applied to |v| sorted."""
    a = np.asarray(v, dtype=np.complex128).reshape(-1)
    if a.size < 1 or not np.isfinite(a).all():
        raise ValueError("expected a finite nonempty vector")
    mags = np.sort(np.abs(a))[::-1]
    return _evaluate(mags, spec)


def f_ratio_bounds(x, spec: NormSpec) -> tuple[float, float, float]:
    """(lower, ratio, upper) where ratio = norm(X)/norm(diag(1,1,0,...)).

    For every unitarily invariant norm the ratio sits between half the
    Ky Fan 2-norm of X and max(spectral norm, half trace norm).  All three
    are taken on X scaled by a power of two and mapped back together.
    """
    unit, c = _scaled(require_square(x))
    d = c.shape[0]
    if d < 2:
        raise ValueError("ratio bounds need dimension at least 2")
    sv = singular_values(c)
    denom = _evaluate(singular_values(f_matrix(d)), spec)
    ratio = _evaluate(sv, spec) / denom
    lower = 0.5 * float(sv[0] + sv[1])
    upper = max(float(sv[0]), 0.5 * float(sv.sum()))
    return tuple(_unscaled(np.array([lower, ratio, upper]), unit, "ratio bounds").tolist())
