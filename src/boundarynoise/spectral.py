"""Diagonal generators and the operators living on them.

A model is a finite truncation of a (possibly infinite) family of real
eigenvalues, together with an optional analytic rule for the modes beyond the
truncation.  Everything downstream (admissibility checks, covariances,
perturbations) computes on these truncations and certifies the remainder
through the tail rules declared here.

All values are immutable after construction and all operations are pure, so
models and coefficient tables are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import PreconditionError, TruncationMismatchError

COUNTABLE = "countable"


@dataclass(frozen=True)
class SpectrumTail:
    """Eigenvalue rule ``lambda_i = -c * i**p`` for mode indices ``i >= next_index``.

    ``next_index`` is the global index of the first mode that is *not*
    materialized.
    """

    c: float
    p: float
    next_index: int

    def __post_init__(self):
        if not (self.c > 0 and self.p > 0):
            raise PreconditionError("power spectrum rule needs c > 0 and p > 0")
        if self.next_index < 1:
            raise PreconditionError("tail must start after at least one materialized mode")

    def eigenvalue(self, index):
        return -(self.c * np.asarray(index, dtype=float) ** self.p)


@dataclass(frozen=True, eq=False)
class DiagonalModel:
    """A generator given by real eigenvalues on an abstract orthonormal mode basis.

    ``eigenvalues`` holds the materialized modes.  ``tail`` is ``None`` for a
    genuinely finite model and a :class:`SpectrumTail` when the materialized
    modes truncate an infinite power family.
    """

    eigenvalues: np.ndarray
    tail: SpectrumTail | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise PreconditionError("eigenvalues must be a non-empty 1-D array")
        if not np.all(np.isfinite(lam)):
            raise PreconditionError("eigenvalues must be finite")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def mode_count(self) -> int:
        return int(self.eigenvalues.size)

    @classmethod
    def from_eigenvalues(cls, values: Sequence[float]) -> "DiagonalModel":
        return cls(np.asarray(values, dtype=float), tail=None)

    @classmethod
    def from_power(cls, c: float, p: float, modes: int, include_zero_mode: bool = True) -> "DiagonalModel":
        """Materialize ``modes`` eigenvalues of the family ``lambda_n = -c n**p``.

        With ``include_zero_mode`` the indices run 0..modes-1 (so the first
        eigenvalue is 0), otherwise 1..modes.
        """
        if modes < 1:
            raise PreconditionError("modes must be >= 1")
        start = 0 if include_zero_mode else 1
        idx = np.arange(start, start + modes, dtype=float)
        tail = SpectrumTail(c=float(c), p=float(p), next_index=start + modes)
        return cls(-c * idx**p, tail=tail)


@dataclass(frozen=True)
class TailRule:
    """Analytic description of coefficient weights beyond the materialized modes.

    kind:
      * ``"constant"`` -- per-mode weight ``w_n = value`` for every tail mode
        (``value=None`` means: reuse the last materialized weight);
      * ``"zero"``     -- coefficients vanish beyond the materialized range;
      * ``"ell2"``     -- the tail weights sum to at most ``value``.
    """

    kind: Literal["constant", "zero", "ell2"]
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "zero", "ell2"):
            raise PreconditionError(f"unknown tail rule kind {self.kind!r}")
        if self.kind == "ell2":
            if self.value is None or not 0 <= self.value < math.inf:
                raise PreconditionError("ell2 tail rule needs a finite nonnegative bound")
        if self.kind == "constant" and self.value is not None and self.value < 0:
            raise PreconditionError("constant tail weight must be nonnegative")

    @classmethod
    def parse(cls, text: str) -> "TailRule":
        """Parse the spec-file encoding: ``constant`` | ``zero_tail`` | ``ell2:<bound>``."""
        if text == "constant":
            return cls("constant")
        if text == "zero_tail":
            return cls("zero")
        if text.startswith("ell2:"):
            try:
                bound = float(text.split(":", 1)[1])
            except ValueError:
                raise PreconditionError(f"cannot parse ell2 bound in {text!r}") from None
            return cls("ell2", bound)
        raise PreconditionError(f"unknown tail rule {text!r}")


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Mode-by-channel coefficient table for a control or observation operator.

    Entry ``(n, k)`` pairs mode ``n`` with channel ``k``.  No summability
    across modes is required (the operator may be unbounded into the state
    space); the per-mode channel sums must be finite, which a finite table
    guarantees.  ``tail`` describes the weights of non-materialized modes.
    """

    array: np.ndarray
    tail: TailRule | None = None

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.size == 0:
            raise PreconditionError("coefficients must form a (modes, channels) array")
        if not np.all(np.isfinite(arr)):
            raise PreconditionError("coefficients must be finite")
        object.__setattr__(self, "array", arr)

    @property
    def mode_count(self) -> int:
        return int(self.array.shape[0])

    @property
    def channel_count(self) -> int:
        return int(self.array.shape[1])

    @property
    def weights(self) -> np.ndarray:
        """Per-mode channel sums ``w_n = sum_k coeff_{n,k}**2``."""
        return np.einsum("nk,nk->n", self.array, self.array)

    @property
    def gram(self) -> np.ndarray:
        """Mode-by-mode Gram matrix ``sum_k coeff_{n,k} coeff_{m,k}``, equal to its transpose bit for bit.

        numpy computes ``a @ a.T`` of one C-contiguous array as one triangle
        (BLAS ``syrk``) and mirrors it; a strided table would go through a
        general product, whose two halves can round apart.
        """
        table = np.ascontiguousarray(self.array)
        return table @ table.T

    def tail_weight(self) -> float | None:
        """The constant tail weight, resolving ``value=None`` to the last row."""
        if self.tail is None or self.tail.kind != "constant":
            return None
        if self.tail.value is not None:
            return float(self.tail.value)
        return float(self.weights[-1])


def _require_paired(model: DiagonalModel, coeffs) -> None:
    """Refuse a coefficient table (or anything with a ``mode_count``) of another truncation."""
    if coeffs.mode_count != model.mode_count:
        raise TruncationMismatchError(
            f"coefficient table has {coeffs.mode_count} modes, model has {model.mode_count}"
        )


def _check_paired(model: DiagonalModel, x: np.ndarray) -> np.ndarray:
    vec = np.asarray(x)
    if vec.shape != (model.mode_count,):
        raise TruncationMismatchError(
            f"mode vector of length {vec.shape} does not match model truncation {model.mode_count}"
        )
    return vec


def growth_bound(model: DiagonalModel) -> float:
    """``sup_n lambda_n`` over materialized modes and the tail family."""
    sup = float(np.max(model.eigenvalues))
    if model.tail is not None:
        # the tail family is non-increasing, so its supremum is its first member
        sup = max(sup, float(model.tail.eigenvalue(model.tail.next_index)))
    return sup + 0.0  # normalizes -0.0


def evaluate_semigroup(model: DiagonalModel, t: float, x: np.ndarray) -> np.ndarray:
    """Coefficients of the semigroup orbit: ``x_n -> exp(lambda_n t) x_n``."""
    if t < 0:
        raise PreconditionError(f"semigroup time must be nonnegative, got {t}")
    vec = _check_paired(model, x)
    return np.exp(model.eigenvalues * t) * vec


def expm1_over(s: np.ndarray, T: float) -> np.ndarray:
    """``(exp(s T) - 1) / s = int_0^T exp(s t) dt`` elementwise, with the limit ``T`` where ``s == 0``.

    expm1 keeps the ``s -> 0`` approach exact; the result is a fresh array.  An
    ``s T`` that overflows is ``-inf`` or ``inf``, and an ``expm1`` that
    overflows is ``inf``; both are the limit, so they pass without a warning.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):
        out = np.multiply(s, T, out=np.empty_like(s))
        np.expm1(out, out=out)
    zero = s == 0.0
    np.divide(out, s, out=out, where=~zero)
    out[zero] = T
    return out


def exp_integral(lam: np.ndarray, T: float) -> np.ndarray:
    """``int_0^T exp(2 lambda t) dt`` elementwise (``2 lambda`` is exact in binary)."""
    return expm1_over(2.0 * np.asarray(lam, dtype=float), T)
