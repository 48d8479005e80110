"""The geodesic flow on the exponential-affine plane and its quotients.

Closed form on the plane:

    F_t(z, u) = (z + log(1 + t*u), u / (1 + t*u))

defined for t in an open maximal interval around 0.  Directions with nonzero
imaginary part flow for all time; real directions hit a singularity at
t = -1/u.  The line {1 + t*u : t in the maximal interval} never meets the
cut (-inf, 0], so the principal logarithm realises the continuous branch and
the group law F_s o F_t = F_{s+t} holds without branch defects.

Real directions form bifurcation sheets indexed by the blow-up time
tau = -1/u.  Crossing a sheet is described by the two one-sided limit maps
(`boundary_flow`), which differ by the choice of +pi*i or -pi*i.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .arithmetic import (
    ComplexValue,
    DEFAULT_TOLERANCE,
    Tolerance,
    as_complex_value,
    principal_log,
)
from .errors import DomainError, InvariantError, UsageError
from .surfaces import AffineSurface, SurfacePoint, TangentVector, points_equal

__all__ = [
    "MaximalInterval",
    "FlowClassification",
    "FlowUndefinedError",
    "EmptyTrajectoryError",
    "ClosedGeodesicWitness",
    "classify",
    "maximal_interval",
    "flow",
    "flow_complex",
    "boundary_flow",
    "boundary_flow_inverse",
    "trajectory",
    "has_closed_geodesics",
    "closed_geodesic_witness",
]


class FlowUndefinedError(DomainError):
    """The requested time lies outside the maximal interval of the vector."""

    def __init__(self, t: float, interval: "MaximalInterval"):
        super().__init__(f"flow undefined at t={t!r}; maximal interval is {interval}")
        self.t = t
        self.interval = interval


class EmptyTrajectoryError(DomainError):
    """The sampling window does not meet the maximal interval."""


def _tol(tol) -> Tolerance:
    if tol is None:
        return DEFAULT_TOLERANCE
    if isinstance(tol, Tolerance):
        return tol
    return Tolerance(float(tol))


def _direction(x) -> ComplexValue:
    if isinstance(x, TangentVector):
        return x.u
    return as_complex_value(x)


_ONE = as_complex_value(1)
_HALF_TURN = ComplexValue.two_pi_i() / 2  # pi*i, kept exact


def _real_sign(x: ComplexValue) -> int:
    """Sign of a value known to be real."""
    f = x.as_real_fraction()
    if f is not None:
        return (f > 0) - (f < 0)
    r = complex(x).real
    return (r > 0) - (r < 0)


@dataclass(frozen=True)
class MaximalInterval:
    """Open interval of definition around t = 0.

    kind is one of "full_line", "right_of" (endpoint, +inf) or "left_of"
    (-inf, endpoint); the endpoint always equals the sheet parameter -1/u.
    """

    kind: str
    endpoint: "float | None" = None

    @classmethod
    def full_line(cls) -> "MaximalInterval":
        return cls("full_line", None)

    @classmethod
    def right_of(cls, t_star: float) -> "MaximalInterval":
        return cls("right_of", float(t_star))

    @classmethod
    def left_of(cls, t_star: float) -> "MaximalInterval":
        return cls("left_of", float(t_star))

    def contains(self, t: float) -> bool:
        if self.kind == "full_line":
            return True
        if self.kind == "right_of":
            return t > self.endpoint
        return t < self.endpoint

    def as_dict(self) -> dict:
        if self.kind == "full_line":
            return {"kind": "full_line", "endpoint": None}
        return {"kind": self.kind, "endpoint": self.endpoint}

    def __str__(self) -> str:
        if self.kind == "full_line":
            return "(-inf, inf)"
        if self.kind == "right_of":
            return f"({self.endpoint!r}, inf)"
        return f"(-inf, {self.endpoint!r})"


@dataclass(frozen=True)
class FlowClassification:
    """Where a direction sits: regular half (sign of Im u) or a sheet.

    kind is "regular_plus", "regular_minus" or "bifurcation"; tau = -1/u is
    set only on sheets.  snapped records that an approximate direction was
    within eps of the real axis and was treated as real.
    """

    kind: str
    tau: "float | None" = None
    snapped: bool = False

    @property
    def is_bifurcation(self) -> bool:
        return self.kind == "bifurcation"


def classify(v, tol: Tolerance = DEFAULT_TOLERANCE) -> FlowClassification:
    """Classify a tangent vector (or bare direction) by its direction.

    Approximate directions within eps of the real axis snap to the
    bifurcation locus, unless the real part is itself below eps: such a
    direction has no finite sheet parameter and stays regular.
    """
    u = _direction(v)
    tol = _tol(tol)
    if u.is_zero():
        raise InvariantError("cannot classify the zero direction")
    if u.is_exact:
        real = u.imag_part().is_zero()
        snapped = False
    else:
        real = u.im == 0.0 or (abs(u.im) <= tol.eps and abs(u.re) > tol.eps)
        snapped = real and u.im != 0.0
    if not real:
        side = "regular_plus" if u.im > 0 else "regular_minus"
        return FlowClassification(side, None, False)
    re = u.re
    if re == 0.0:
        raise InvariantError("real direction evaluates to zero; cannot classify")
    return FlowClassification("bifurcation", -1.0 / re, snapped)


def maximal_interval(v, tol: Tolerance = DEFAULT_TOLERANCE) -> MaximalInterval:
    cls = classify(v, tol)
    if not cls.is_bifurcation:
        return MaximalInterval.full_line()
    if cls.tau < 0:  # u real positive
        return MaximalInterval.right_of(cls.tau)
    return MaximalInterval.left_of(cls.tau)


def flow(v: TangentVector, t, tol: Tolerance = DEFAULT_TOLERANCE) -> TangentVector:
    """Apply the geodesic flow for time t.

    Returns the canonical representative of the image.  t = 0 returns v
    unchanged (exactness preserved); any other time moves the point through
    the principal logarithm and lands on the approximate track.
    """
    return _flow(v, t, tol, None)


def _flow(v: TangentVector, t, tol, interval: "MaximalInterval | None") -> TangentVector:
    """:func:`flow`, given the maximal interval of v or None to classify v here."""
    t = float(t)
    if not math.isfinite(t):
        raise UsageError(f"flow time must be finite, got {t!r}")
    if t == 0.0:
        return v
    tol = _tol(tol)
    if interval is None:
        interval = maximal_interval(v, tol)
    if not interval.contains(t):
        raise FlowUndefinedError(t, interval)
    w = _ONE + v.u * t
    u_new = v.u / w
    z_new = v.surface.group.reduce(v.z + principal_log(w), tol)
    return TangentVector(v.surface, z_new, u_new)


def flow_complex(z: complex, u: complex, t: float) -> "tuple[complex, complex] | None":
    """Float-only flow on the plane; None when t leaves the maximal interval.

    No eps snapping: a direction is real exactly when its float imaginary
    part is zero.  Intended for sampling loops that control their own strata.
    """
    if u.imag == 0.0:
        t_star = -1.0 / u.real
        if (u.real > 0 and t <= t_star) or (u.real < 0 and t >= t_star):
            return None
    w = 1.0 + t * u
    if w == 0:
        return None
    return (z + cmath.log(w), u / w)


_SIDES = {"plus": 1, "minus": -1, 1: 1, -1: -1}


def boundary_flow(
    v: TangentVector, tau1, side="plus", tol: Tolerance = DEFAULT_TOLERANCE
) -> TangentVector:
    """One-sided limit of the flow across a singularity.

    v must sit on a sheet with tau2 > 0 (direction u = -1/tau2 real
    negative); tau1 < 0 selects the destination sheet; the elapsed time is
    tau2 - tau1.  The image is (z + log(-tau1/tau2) +/- pi*i, -1/tau1),
    with the sign given by `side` ("plus": limit from Im u > 0).
    """
    tol = _tol(tol)
    if side not in _SIDES:
        raise UsageError(f"side must be 'plus' or 'minus', got {side!r}")
    sign = _SIDES[side]
    cls = classify(v, tol)
    if not cls.is_bifurcation or cls.tau <= 0:
        raise UsageError(
            "boundary_flow needs a vector on a positive-parameter sheet "
            f"(direction real and negative); got {cls.kind} tau={cls.tau}"
        )
    tau1 = as_complex_value(tau1)
    if not (tau1.imag_part().is_zero() if tau1.is_exact else tau1.im == 0.0):
        raise UsageError("destination sheet parameter must be real")
    if _real_sign(tau1) >= 0:
        raise UsageError("destination sheet parameter must be negative")

    # snapped directions use their real part; exact ones are already real
    u = v.u if v.u.is_exact else ComplexValue.approx(v.u.re)
    tau2 = -(_ONE / u)
    ratio = (-tau1) / tau2
    if ratio.is_exact and ratio == _ONE:
        log_part = ComplexValue(0)
    else:
        log_part = principal_log(ratio)
    z_new = v.z + log_part + _HALF_TURN * sign
    z_new = v.surface.group.reduce(z_new, tol)
    u_new = -(_ONE / tau1)
    return TangentVector(v.surface, z_new, u_new)


def boundary_flow_inverse(
    v: TangentVector, tau2, side="plus", tol: Tolerance = DEFAULT_TOLERANCE
) -> TangentVector:
    """Inverse of :func:`boundary_flow`: back from the tau1 < 0 sheet.

    v must sit on a sheet with tau1 < 0 (direction real positive); tau2 > 0
    selects the source sheet the forward map came from.
    """
    tol = _tol(tol)
    if side not in _SIDES:
        raise UsageError(f"side must be 'plus' or 'minus', got {side!r}")
    sign = _SIDES[side]
    cls = classify(v, tol)
    if not cls.is_bifurcation or cls.tau >= 0:
        raise UsageError(
            "boundary_flow_inverse needs a vector on a negative-parameter "
            f"sheet (direction real and positive); got {cls.kind} tau={cls.tau}"
        )
    tau2 = as_complex_value(tau2)
    if not (tau2.imag_part().is_zero() if tau2.is_exact else tau2.im == 0.0):
        raise UsageError("source sheet parameter must be real")
    if _real_sign(tau2) <= 0:
        raise UsageError("source sheet parameter must be positive")

    u = v.u if v.u.is_exact else ComplexValue.approx(v.u.re)
    tau1 = -(_ONE / u)
    ratio = (-tau1) / tau2
    if ratio.is_exact and ratio == _ONE:
        log_part = ComplexValue(0)
    else:
        log_part = principal_log(ratio)
    z_new = v.z - log_part - _HALF_TURN * sign
    z_new = v.surface.group.reduce(z_new, tol)
    u_new = -(_ONE / tau2)
    return TangentVector(v.surface, z_new, u_new)


def trajectory(
    v: TangentVector,
    t0: float,
    t1: float,
    n: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> "list[tuple[float, TangentVector]]":
    """n equally spaced flow samples on [t0, t1] clipped to the open domain.

    Open endpoints are approached no closer than eps.  An empty intersection
    raises EmptyTrajectoryError.
    """
    tol = _tol(tol)
    if not isinstance(n, int) or n < 2:
        raise UsageError(f"need at least 2 samples, got {n!r}")
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise UsageError("sampling endpoints must be finite")
    if t0 > t1:
        raise UsageError(f"empty sampling window: t0={t0!r} > t1={t1!r}")
    interval = maximal_interval(v, tol)
    lo, hi = t0, t1
    if interval.kind == "right_of":
        lo = max(lo, interval.endpoint + tol.eps)
    elif interval.kind == "left_of":
        hi = min(hi, interval.endpoint - tol.eps)
    if lo > hi:
        raise EmptyTrajectoryError(
            f"window [{t0!r}, {t1!r}] does not meet the maximal interval {interval}"
        )
    step = (hi - lo) / (n - 1)
    return [(lo + step * i, _flow(v, lo + step * i, tol, interval)) for i in range(n)]


# ---- closed geodesics ----


@dataclass(frozen=True)
class ClosedGeodesicWitness:
    """A nonzero real translation in the group, with the geodesic it closes.

    The witness curve is t -> class of log t on (0, inf); it satisfies
    delta(scale_factor * t) = delta(t), with scale_factor = e^translation.
    """

    surface: AffineSurface
    translation: ComplexValue
    scale_factor: float

    def point_at(self, t: float) -> SurfacePoint:
        t = float(t)
        if not (t > 0 and math.isfinite(t)):
            raise DomainError(f"the witness curve is defined on (0, inf), got {t!r}")
        return self.surface.point(principal_log(ComplexValue.approx(t)))


def _witness(surface: AffineSurface, gamma: ComplexValue) -> ClosedGeodesicWitness:
    if _real_sign(gamma.real_part()) < 0:
        gamma = -gamma
    return ClosedGeodesicWitness(surface, gamma, math.exp(gamma.re))


def closed_geodesic_witness(
    s: AffineSurface,
    tol: Tolerance = DEFAULT_TOLERANCE,
    search_bound: int = 100000,
) -> "ClosedGeodesicWitness | None":
    """A nonzero real group element, or None when none exists.

    The surface has closed geodesics exactly when its group meets the real
    axis away from 0.  Exact rank-2 bases are decided exactly through the
    rationality of Im(mu)/Im(nu); approximate ones are scanned up to
    search_bound coefficients, so None then means "none with coefficients
    below the bound".
    """
    tol = _tol(tol)
    g = s.group
    if g.rank == 0:
        return None
    if g.rank == 1:
        mu = g.generators[0]
        real = mu.imag_part().is_zero() if mu.is_exact else abs(mu.im) <= tol.eps
        if not real:
            return None
        return _witness(s, mu)
    mu, nu = g.generators
    if g.is_exact:
        w1 = mu.imag_part()
        w2 = nu.imag_part()
        if w1.is_zero():
            return _witness(s, mu)
        if w2.is_zero():
            return _witness(s, nu)
        ratio = (w2 / w1).field.constant_value()
        if ratio is None:
            # Im(nu)/Im(mu) is transcendental: no integer relation exists
            return None
        r = ratio.re  # real by construction: both parts are real values
        gamma = mu * r.numerator - nu * r.denominator
        return _witness(s, gamma)
    im_mu, im_nu = mu.im, nu.im
    if abs(im_mu) <= tol.eps:
        return _witness(s, mu)
    if abs(im_nu) <= tol.eps:
        return _witness(s, nu)
    re_mu, re_nu = mu.re, nu.re
    slope = -im_nu / im_mu
    for b in range(1, search_bound + 1):
        a = round(b * slope)
        if abs(a * im_mu + b * im_nu) <= tol.eps and abs(a * re_mu + b * re_nu) > tol.eps:
            return _witness(s, mu * a + nu * b)
    return None


def has_closed_geodesics(
    s: AffineSurface,
    tol: Tolerance = DEFAULT_TOLERANCE,
    search_bound: int = 100000,
) -> bool:
    return closed_geodesic_witness(s, tol, search_bound) is not None
