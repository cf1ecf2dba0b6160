"""Dense symmetric eigensolves with a deterministic output contract.

Both solves are LAPACK's via numpy and return eigenvalues in descending
order, reproducibly for identical input bytes. eig_values (eigvalsh) serves
every quantity that reads no eigenvector; its O(N^2) guard is the trace and
Frobenius identities. eig_sym (eigh) also returns eigenvectors, each fixed
only up to sign (every consumer squares their entries or an overlap with
them), guarded by the O(N^3) residual; only greedy selection's screen and
lili_lower_max read them. The two may differ in an eigenvalue's last bits,
so every eigenvalue the program reports is read from eig_values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoNonzeroEigenvalueError, NumericalError, ValidationError

SYMMETRY_RTOL = 1e-12
RESIDUAL_RTOL = 1e-9


class SymMatrix:
    """Dense real symmetric matrix with finite entries; read-only.

    Exactly symmetric input is stored as is. Other input is symmetrized as
    M/2 + M^T/2 (which cannot overflow) and fails if its asymmetry exceeds
    1e-12 * max |entry|, a test that scaling M leaves unchanged.
    """

    __slots__ = ("array",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        if arr.size == 0:
            raise ValidationError("matrix must be nonempty")
        _check_finite(arr)
        if not np.array_equal(arr, arr.T):
            scale = np.abs(arr).max()
            asym = np.abs(arr - arr.T).max()
            if asym > SYMMETRY_RTOL * scale:
                raise ValidationError(
                    f"matrix is not symmetric: max asymmetry {asym:.3e} "
                    f"exceeds {SYMMETRY_RTOL * scale:.3e}"
                )
            arr = 0.5 * arr + 0.5 * arr.T
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def _exact(cls, arr: np.ndarray) -> SymMatrix:
        """Wrap a nonempty square float array that is exactly symmetric by
        construction, without copying it or testing its symmetry; only the
        finiteness check can fail. arr becomes read-only."""
        _check_finite(arr)
        arr.setflags(write=False)
        sym = cls.__new__(cls)
        sym.array = arr
        return sym

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.array.astype(dtype)
        return self.array

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix entries must be finite")


def as_sym_matrix(m) -> SymMatrix:
    return m if isinstance(m, SymMatrix) else SymMatrix(m)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, eigenvector k in column k."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def _solve(solver, arr: np.ndarray):
    try:
        return solver(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc


def eig_sym(m) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues descending and
    eigenvectors up to sign.

    Raises NumericalError if the underlying solver fails to converge or the
    residual check ||M v - lambda v|| <= 1e-9 (1 + |lambda_1|) fails.
    """
    sym = as_sym_matrix(m)
    w, v = _solve(np.linalg.eigh, sym.array)
    # descending order
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    scale = 1.0 + abs(w[0])
    residual = np.abs(sym.array @ v - v * w).max()
    if not np.isfinite(residual) or residual > RESIDUAL_RTOL * scale:
        raise NumericalError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL * scale:.3e}"
        )
    return Spectrum(w, v)


def eig_values(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, without eigenvectors.

    M is solved divided by the power of two just above its largest entry,
    and the eigenvalues multiplied back, so scaling M by a power of two
    scales them exactly. Raises NumericalError if the solver fails to
    converge, or if sum(lambda) misses tr M or sum(lambda^2) misses ||M||_F^2
    by more than 1e-9, all in those units and divided by (1 + max |lambda|)
    to the power of the identity (the scaled entries are below 1, so nothing
    overflows).
    """
    a, exp = _pow2_scaled(as_sym_matrix(m).array)
    w = _solve(np.linalg.eigvalsh, a)[::-1].copy()
    scale = 1.0 + np.abs(w).max()
    error = max(abs(w.sum() - np.trace(a)) / scale, abs(w @ w - np.vdot(a, a)) / scale**2)
    if not error <= RESIDUAL_RTOL:
        raise NumericalError(f"eigenvalues miss the trace or Frobenius identity by "
                             f"{error:.3e} of the spectral scale, above {RESIDUAL_RTOL:.0e}")
    return np.ldexp(w, exp)


def _pow2_scaled(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """arr divided by the power of two 2^exp just above its largest magnitude,
    and exp. The division is exact, and squares of the scaled entries cannot
    overflow; multiply a norm of the result by 2^exp to undo it."""
    _, exp = math.frexp(max(arr.max(), -arr.min()))
    return np.ldexp(arr, -exp), exp


def lambda_min_gt0(w: np.ndarray, zeros: int) -> float:
    """Smallest nonzero eigenvalue, from eigenvalues sorted descending and the
    count of zeros the matrix's structure fixes (as pinned_lambda_min_gt0 in
    criteria counts them), with no tolerance. Raises NoNonzeroEigenvalueError
    if every one is a zero."""
    if zeros >= len(w):
        raise NoNonzeroEigenvalueError(f"no nonzero eigenvalue: all {len(w)} are zero by structure")
    return float(w[-zeros - 1])


def lambda_min(m) -> float:
    return float(eig_values(m)[-1])


def lambda_max(m) -> float:
    return float(eig_values(m)[0])


def spectral_norm(a) -> float:
    """Largest singular value, computed as sqrt(lambda_max) of the smaller Gram
    of the input scaled by a power of two, so finite entries never overflow."""
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if arr.size == 0:
        raise ValidationError("spectral_norm requires a nonempty matrix")
    arr, exp = _pow2_scaled(arr)
    gram = arr @ arr.T if arr.shape[0] <= arr.shape[1] else arr.T @ arr
    top = eig_values(SymMatrix(gram))[0]
    return float(np.ldexp(np.sqrt(max(top, 0.0)), exp))
