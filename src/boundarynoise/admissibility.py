"""Criteria deciding whether the boundary-noise problem has a state-space solution.

Three interchangeable routes are implemented for diagonal models:

* the time-domain integral ``gamma(T) = sum_n w_n int_0^T exp(2 lambda_n t) dt``
  (:func:`gamma_time`, with :func:`gamma_infinite` for stable models),
* the frequency-domain series over ``omega + 2 pi i n / T`` (:func:`frequency_series`),
* the resolvent bound scan (:func:`weiss_scan`) and the dyadic diagnostic
  (:func:`dyadic_diagnostic`), which probe the same quantity from the real axis.

Every series-valued answer is a :class:`SeriesVerdict`: a materialized partial
sum, a certified remainder bracket, and the verdict read off that bracket.  The
remainder beyond the materialized modes is certified by one ladder over the
declared tail rules, :func:`certify_tail`.  Divergence is never inferred from
partial-sum growth; it requires an analytic witness derived from the declared
tail rules (a constant lower bound on infinitely many terms, an
integral-comparison divergence, or a term that is itself infinite).

Per-mode and per-frequency terms are accumulated in a fixed order (ascending
``|n|``, then mode index), so results are bitwise deterministic for a given
configuration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._tails import (
    frequency_line_tail,
    frequency_mode_tail,
    gamma_power_tail,
    line_sum_exact,
    over_squares,
)
from .errors import (
    PreconditionError,
    SingularResolventError,
    TruncationMismatchError,
    UnsupportedRepresentationError,
)
from .spectral import Coefficients, DiagonalModel, _require_paired, exp_integral, growth_bound

#: Default relative width target for certified remainder brackets.
REL_TAIL_TARGET = 1e-10
#: Weights at or below this floor are too small to witness divergence soundly.
DIVERGENCE_FLOOR = 1e-12

UNBOUNDED = math.inf


class Verdict(enum.Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SeriesVerdict:
    """Outcome of a convergence test.

    ``partial_value`` is the sum over materialized terms.  The remainder is
    enclosed in ``[tail_value, tail_value + tail_bound]``; ``tail_bound`` is
    ``math.inf`` for a certified divergence and ``None`` when the remainder is
    unknown (Inconclusive).  The certified total therefore lies in
    ``[value, value + tail_bound]`` with ``value = partial_value + tail_value``.
    The verdict is read off ``tail_bound``.
    """

    partial_value: float
    tail_value: float
    tail_bound: float | None
    evidence: str

    def __post_init__(self):
        if self.tail_bound is not None and not self.tail_bound > -math.inf:
            raise PreconditionError(f"a tail bound is finite, +inf or None, got {self.tail_bound}")
        if self.tail_bound == UNBOUNDED and not self.evidence:
            raise PreconditionError("a Diverged verdict requires a witness in evidence")

    @property
    def verdict(self) -> Verdict:
        """``None`` is Inconclusive, ``inf`` Diverged, and a finite bound Converged."""
        if self.tail_bound is None:
            return Verdict.INCONCLUSIVE
        return Verdict.DIVERGED if self.tail_bound == UNBOUNDED else Verdict.CONVERGED

    @property
    def value(self) -> float:
        """Best certified value (lower end of the enclosure)."""
        return self.partial_value + self.tail_value

    @property
    def upper(self) -> float:
        if self.tail_bound is None:
            raise PreconditionError("no certified upper value for an Inconclusive verdict")
        return self.value + self.tail_bound

    @property
    def relative_tail(self) -> float:
        if self.tail_bound is None:
            return math.inf
        scale = abs(self.value)
        if scale == 0.0:
            return 0.0 if self.tail_bound == 0.0 else math.inf
        return self.tail_bound / scale


def _converged(partial: float, tail_value: float, tail_width: float, evidence: str) -> SeriesVerdict:
    """The one constructor of Converged verdicts: a sum that is not finite in float64 certifies nothing."""
    if not (math.isfinite(partial) and math.isfinite(tail_value) and math.isfinite(tail_width)):
        return _inconclusive(partial, "the sum is not finite in float64")
    return SeriesVerdict(partial, tail_value, tail_width, evidence)


def _diverged(partial: float, evidence: str) -> SeriesVerdict:
    return SeriesVerdict(partial, 0.0, UNBOUNDED, evidence)


def _inconclusive(partial: float, evidence: str) -> SeriesVerdict:
    return SeriesVerdict(partial, 0.0, None, evidence)


def _require_diagonal(model) -> DiagonalModel:
    if not isinstance(model, DiagonalModel):
        raise UnsupportedRepresentationError(
            f"{type(model).__name__} has no spectral representation; "
            "only the closed-form Dirichlet route applies to it"
        )
    return model


def certify_tail(
    partial: float,
    model: DiagonalModel,
    coeffs: Coefficients,
    ell2_cap,
    bracket,
    *,
    known: tuple[float, float] = (0.0, 0.0),
    p_min: float = 1.0,
    note: str = "",
) -> SeriesVerdict:
    """Certify the remainder beyond the materialized modes from the declared tail rules.

    The one ladder shared by every tail-certified series: no rule is
    Inconclusive, a ``zero`` rule or a zero constant weight adds nothing, an
    ``ell2`` rule adds ``ell2_cap(tail) * bound`` (``ell2_cap`` bounds one tail
    mode's term per unit weight), a constant weight on a family with
    ``p <= p_min`` is a divergence witness, and otherwise
    ``bracket(tail, w, abs_target)`` encloses the constant-weight remainder.
    ``known`` is the ``(lower, width)`` enclosure of any remainder the caller
    has already bracketed; ``note`` is appended to Converged evidence.
    """
    lower, width = known
    tail = model.tail
    if tail is None:
        return _converged(partial, lower, width, "finite model: no mode remainder" + note)
    rule = coeffs.tail
    if rule is None:
        return _inconclusive(partial, "no coefficient tail rule declared; remainder unknown")
    if rule.kind == "zero":
        return _converged(partial, lower, width, "coefficient tail vanishes beyond the materialized modes" + note)
    if rule.kind == "ell2":
        cap = ell2_cap(tail)
        return _converged(
            partial, lower, width + cap * float(rule.value),
            f"ell2 tail: each tail mode contributes <= {cap:.6g} per unit weight" + note,
        )
    w_tail = coeffs.tail_weight()
    if w_tail == 0.0:
        return _converged(partial, lower, width, "constant tail weight is zero" + note)
    if tail.p <= p_min:
        if w_tail <= DIVERGENCE_FLOOR:
            return _inconclusive(partial, "tail weight below divergence threshold")
        return _diverged(
            partial,
            f"constant-weight tail with p={tail.p:g} <= {p_min:g}: mode terms diverge by integral comparison",
        )
    found = bracket(tail, w_tail, REL_TAIL_TARGET * (partial if partial > 0 else 1.0))
    return _converged(
        partial, lower + found.lower, width + found.width,
        f"constant-weight tail bracketed after {found.terms_used} analytic terms" + note,
    )


def gamma_time(model: DiagonalModel, coeffs: Coefficients, T: float) -> SeriesVerdict:
    """Time-domain criterion ``gamma(T) = sum_n w_n (exp(2 lambda_n T) - 1) / (2 lambda_n)``.

    The ``lambda = 0`` mode contributes ``w * T`` (exact limit).  The remainder
    beyond the materialized modes is certified from the coefficient tail rule;
    without one the verdict is Inconclusive, never silently Converged.
    """
    model = _require_diagonal(model)
    _require_paired(model, coeffs)
    if T <= 0:
        raise PreconditionError(f"horizon must be positive, got {T}")
    with np.errstate(over="ignore"):  # a term past the float range is inf, and so is the sum
        partial = float(np.sum(coeffs.weights * exp_integral(model.eigenvalues, T)))
    return certify_tail(
        partial, model, coeffs,
        lambda tail: T,  # tail eigenvalues are negative: a tail mode's term is at most T per unit weight
        lambda tail, w, target: gamma_power_tail(
            tail.c, tail.p, 0.0, w, T, tail.next_index, abs_target=target),
    )


def gamma_infinite(model: DiagonalModel, coeffs: Coefficients) -> SeriesVerdict:
    """Infinite-horizon value ``sum_n w_n / (2 |lambda_n|)`` for exponentially stable models.

    Requires a certified negative growth bound.  The evidence also records the
    geometric cross-bound ``gamma(1) / (1 - q^2)`` with ``q = exp(g)``, which
    the exact value can never exceed.
    """
    model = _require_diagonal(model)
    _require_paired(model, coeffs)
    g = growth_bound(model)
    if g >= 0:
        raise PreconditionError(
            f"infinite-horizon criterion requires exponential stability; growth bound {g:g} >= 0"
        )
    partial = float(np.sum(coeffs.weights / (2.0 * np.abs(model.eigenvalues))))

    geo_note = ""
    finite_t = gamma_time(model, coeffs, 1.0)
    if finite_t.verdict is Verdict.CONVERGED:
        q = math.exp(g)
        geo = finite_t.upper / (1.0 - q * q)
        geo_note = f"; geometric cross-bound {geo:.17g} from horizon 1"
    return certify_tail(
        partial, model, coeffs,
        lambda tail: 0.5 / -float(tail.eigenvalue(tail.next_index)),
        lambda tail, w, target: gamma_power_tail(
            tail.c, tail.p, 0.0, w, None, tail.next_index, abs_target=target),
        note=geo_note,
    )


def frequency_series(model: DiagonalModel, coeffs: Coefficients, omega: float, T: float,
                     n_max: int) -> SeriesVerdict:
    """Frequency-domain criterion: ``sum_n sum_m w_m / ((omega - lambda_m)^2 + (2 pi n / T)^2)``.

    Sums the grid terms at ``omega + 2 pi i n / T`` for ``|n| <= n_max``
    (ascending ``|n|``), certifies the ``n``-remainder by the arctangent
    integral comparison per materialized mode, and the mode remainder from the
    tail rules (each non-materialized mode contributes its full frequency line,
    see :func:`.line_sum_exact`).
    """
    if T <= 0:
        raise PreconditionError("frequency grid horizon must be positive")
    if n_max < 1:
        raise PreconditionError("frequency grid needs n_max >= 1")
    model = _require_diagonal(model)
    _require_paired(model, coeffs)
    g = growth_bound(model)
    if omega <= g:
        raise PreconditionError(f"omega={omega:g} must exceed the growth bound {g:g}")
    w = coeffs.weights
    a = omega - model.eigenvalues  # all positive
    line_lower, line_width = frequency_line_tail(a, T, n_max)
    return certify_tail(
        _frequency_partial(w, a, T, n_max), model, coeffs,
        lambda tail: float(line_sum_exact(
            np.array([omega + tail.c * float(tail.next_index) ** tail.p]), T)[0]),
        lambda tail, w_tail, target: frequency_mode_tail(
            tail.c, tail.p, omega, w_tail, T, tail.next_index, abs_target=target),
        known=(float(np.sum(_weighted(w, line_lower))), float(np.sum(_weighted(w, line_width)))),
        note="; frequency remainder by arctan integral comparison",
    )


def _weighted(w: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``w * terms`` termwise, where a zero weight adds exactly 0 even against an infinite term."""
    with np.errstate(invalid="ignore"):
        return np.where(w == 0.0, 0.0, w * terms)


def _frequency_partial(w: np.ndarray, a: np.ndarray, T: float, n_max: int) -> float:
    """Frequency-grid partial sum ``sum_{|n| <= n_max} sum_m w_m / (a_m^2 + (2 pi n / T)^2)``.

    A frequency ``2 pi n / T`` that overflows is ``inf``; its terms take the limit 0.
    """
    with np.errstate(over="ignore"):
        kappa = 2.0 * math.pi * np.arange(1, n_max + 1) / T
    per_n = np.sum(over_squares(w, a[None, :], kappa[:, None]), axis=1)
    return float(np.sum(over_squares(w, a))) + float(np.sum(2.0 * per_n))


def parseval_identity_check(
    model: DiagonalModel,
    obs: Coefficients,
    omega: float,
    T: float,
    n_terms: int = 2000,
) -> float:
    """Relative residual of the exact discounted-output identity.

    LHS: ``sum_m w_m (1 - exp(-2 a_m T)) / (2 a_m)`` with ``a_m = omega - lambda_m``.
    RHS: ``(1/T) sum_{n in Z} sum_m w_m J_m^2 / (a_m^2 + (2 pi n / T)^2)`` with
    ``J_m = 1 - exp(-a_m T)`` (the endpoint-correction factor); the ``1/T``
    normalizes the exponential frequency basis on ``[0, T]``.  The ``n``-tail is
    certified by integral comparison and entered at its midpoint.
    """
    model = _require_diagonal(model)
    _require_paired(model, obs)
    if model.tail is not None:
        raise PreconditionError("identity check requires a finite (explicit-spectrum) model")
    if T <= 0:
        raise PreconditionError("horizon must be positive")
    g = growth_bound(model)
    if omega <= g:
        raise PreconditionError(
            f"omega={omega:g} must exceed the growth bound {g:g} "
            "(the discounted endpoint map must be a strict contraction)"
        )
    if n_terms < 1:
        raise PreconditionError("need at least one frequency term")
    w = obs.weights
    a = omega - model.eigenvalues
    lhs = float(np.sum(w * (-np.expm1(-2.0 * a * T)) / (2.0 * a)))
    if lhs == 0.0:
        return 0.0
    j_sq = np.expm1(-a * T) ** 2
    lower, width = frequency_line_tail(a, T, n_terms)
    tail_mid = float(np.sum(w * j_sq * (lower + 0.5 * width)))
    rhs = (_frequency_partial(w * j_sq, a, T, n_terms) + tail_mid) / T
    return abs(lhs - rhs) / lhs


@dataclass(frozen=True)
class WeissScan:
    """Resolvent-bound scan: ``sqrt(Re lam - omega) * ||resolvent row sums||`` per point."""

    statistic: float
    arg_max: complex
    points: np.ndarray
    values: np.ndarray


def weiss_scan(model: DiagonalModel, obs: Coefficients, omega: float, lam_grid) -> WeissScan:
    """Scan ``sqrt(Re lam - omega) * (sum_m w_m / |lam - lambda_m|^2)^(1/2)`` over a grid.

    For any model whose infinite-horizon criterion converges, the statistic is
    bounded (the scan never blows up under grid refinement).
    """
    model = _require_diagonal(model)
    _require_paired(model, obs)
    g = growth_bound(model)
    if omega <= g:
        raise PreconditionError(f"omega={omega:g} must exceed the growth bound {g:g}")
    pts = np.asarray(lam_grid, dtype=complex).ravel()
    if pts.size == 0:
        raise PreconditionError("empty scan grid")
    if np.any(pts.real <= omega):
        bad = pts[pts.real <= omega][0]
        raise PreconditionError(f"grid point {bad} has Re(lambda) <= omega={omega:g}")
    w = obs.weights
    gaps = pts[:, None] - model.eigenvalues[None, :]
    sums = np.sum(over_squares(w, np.abs(gaps)), axis=1)
    values = np.sqrt(pts.real - omega) * np.sqrt(sums)
    k = int(np.argmax(values))
    return WeissScan(float(values[k]), complex(pts[k]), pts, values)


def dyadic_terms(model: DiagonalModel, ctrl: Coefficients, n_range: int) -> tuple[list[int], list[float]]:
    """Exponents ``n`` and terms ``2^n sum_m w_m / (2^n - lambda_m)^2``, ascending ``|n|``.

    The order is ``0, -1, 1, -2, 2, ...``.  Negative exponents are included
    only while ``2^n`` exceeds the growth bound (the point must stay on the
    resolvent ray); hitting an eigenvalue exactly is an error.
    """
    model = _require_diagonal(model)
    _require_paired(model, ctrl)
    if n_range < 1:
        raise PreconditionError("n_range must be >= 1")
    w = ctrl.weights
    lam = model.eigenvalues
    g = growth_bound(model)
    order = [0]
    for k in range(1, n_range + 1):
        order.extend([-k, k])
    exponents = [n for n in order if n >= 0 or g < 0 or 2.0**n > g]
    terms = []
    for n in exponents:
        point = 2.0**n
        gaps = point - lam
        hit = np.nonzero(gaps == 0.0)[0]
        if hit.size:
            raise SingularResolventError(point, int(hit[0]))
        terms.append(float(point * np.sum(over_squares(w, gaps))))
    return exponents, terms


def dyadic_diagnostic(model: DiagonalModel, ctrl: Coefficients, n_range: int = 10) -> SeriesVerdict:
    """Dyadic sum ``sum_n 2^n sum_m w_m / (2^n - lambda_m)^2`` over ``|n| <= n_range``.

    Diagnostic only: no existence claim is attached.  ``partial_value`` is
    ``np.cumsum`` of the terms of :func:`dyadic_terms` at its end, the table's
    last ``cumulative`` exactly.  Terms are symmetric under
    ``n -> -n`` for a single mode at ``lambda = -1``.
    """
    _, terms = dyadic_terms(model, ctrl, n_range)
    partial = float(np.cumsum(terms)[-1])
    w = ctrl.weights
    lam = model.eigenvalues
    zero_modes = np.nonzero((lam == 0.0) & (w > DIVERGENCE_FLOOR))[0]
    if zero_modes.size:
        return _diverged(
            partial,
            f"zero eigenvalue (mode {int(zero_modes[0])}): negative-side terms grow like 2^|n|",
        )
    if model.tail is not None:
        return _inconclusive(partial, "materialized modes only; mode tail not certified (diagnostic)")
    lam_max = float(np.max(lam))
    if lam_max >= 0.0:
        return _inconclusive(partial, "growth bound >= 0: dyadic remainder not certified (diagnostic)")
    # n > K: (2^n - lam)^2 >= 2^(2n); n < -K: (2^n - lam)^2 >= lam^2
    scale = 2.0 ** (-n_range)
    bound = scale * float(np.sum(w)) + scale * float(np.sum(over_squares(w, lam)))
    return _converged(partial, 0.0, bound, "geometric remainder bounds on both dyadic sides")


def duality_residual(
    model: DiagonalModel,
    ctrl: Coefficients,
    T: float,
    u_values: np.ndarray,
    x: np.ndarray,
    subdiv: int = 8,
) -> float:
    """Relative gap between the two accumulation orders of the input-map pairing.

    Route one integrates the control exactly against each mode (piecewise
    closed forms, modes outer); route two forms the time signal
    ``t -> sum_m beta_m exp(lambda_m (T - t)) x_m`` and integrates it against
    ``u`` by composite Simpson quadrature (``subdiv`` panels per piece).
    ``u_values`` holds one row of channel values per piece of a uniform
    partition of ``[0, T]``.
    """
    model = _require_diagonal(model)
    _require_paired(model, ctrl)
    if T <= 0:
        raise PreconditionError("horizon must be positive")
    u = np.asarray(u_values, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape[0] < 1:
        raise PreconditionError("empty control grid")
    if u.shape[1] != ctrl.channel_count:
        raise TruncationMismatchError("control values do not match the channel count")
    if subdiv < 2 or subdiv % 2:
        raise PreconditionError("subdiv must be an even integer >= 2")
    x = np.asarray(x, dtype=float)
    pieces = u.shape[0]
    edges = np.linspace(0.0, T, pieces + 1)
    lam = model.eigenvalues
    beta = ctrl.array

    # route one: exact piece integrals of exp(lambda (T - s)), modes outer
    upper = np.exp(np.multiply.outer(T - edges[:-1], lam))
    lower = np.exp(np.multiply.outer(T - edges[1:], lam))
    h = T / pieces
    piece_int = np.where(lam[None, :] == 0.0, h, (upper - lower) / np.where(lam == 0.0, 1.0, lam)[None, :])
    ub = u @ beta.T  # (pieces, modes)
    lhs = float(np.sum(x * np.sum(piece_int * ub, axis=0)))

    # route two: Simpson quadrature of u(t) . (B* orbit of x), pieces outer
    offs = np.linspace(0.0, h, subdiv + 1)
    nodes = edges[:-1][:, None] + offs[None, :]  # (pieces, subdiv+1)
    decay = np.exp(np.multiply.outer(T - nodes, lam))  # (pieces, subdiv+1, modes)
    v = decay @ (beta * x[:, None])  # (pieces, subdiv+1, channels)
    integrand = np.einsum("pk,pjk->pj", u, v)
    wts = np.ones(subdiv + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    wts *= h / (3.0 * subdiv)
    rhs = float(np.sum(integrand @ wts))

    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale if scale > 0.0 else 0.0


def adjoint_duality_check(
    model: DiagonalModel,
    ctrl: Coefficients,
    T: float,
    pieces: int = 64,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Max :func:`duality_residual` over random piecewise-constant controls and states."""
    if pieces < 1:
        raise PreconditionError("empty time partition")
    if trials < 1:
        raise PreconditionError("need at least one trial")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(model.mode_count)
        u = rng.standard_normal((pieces, ctrl.channel_count))
        worst = max(worst, duality_residual(model, ctrl, T, u, x))
    return worst
