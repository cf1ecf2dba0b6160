"""Dense symmetric eigendecomposition with a deterministic output contract.

The solver is LAPACK's symmetric eigensolver via numpy, wrapped so that the
output is reproducible for identical input bytes: eigenvalues sorted in
descending order. Eigenvectors are LAPACK's, each fixed only up to sign;
every consumer squares their entries or an overlap with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoNonzeroEigenvalueError, NotPSDError, NumericalError, ValidationError

SYMMETRY_RTOL = 1e-12
RESIDUAL_RTOL = 1e-9
RANK_RTOL = 1e-9
RANK_TOL_FLOOR = 1e-12


class SymMatrix:
    """Dense real symmetric matrix, symmetrized as (M + M^T)/2 on construction.

    Construction fails if the asymmetry exceeds 1e-12 * (1 + max |entry|).
    The stored array is read-only.
    """

    __slots__ = ("array",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        if arr.size == 0:
            raise ValidationError("matrix must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("matrix entries must be finite")
        scale = 1.0 + np.abs(arr).max()
        asym = np.abs(arr - arr.T).max()
        if asym > SYMMETRY_RTOL * scale:
            raise ValidationError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} "
                f"exceeds {SYMMETRY_RTOL * scale:.3e}"
            )
        sym = (arr + arr.T) / 2.0
        sym.setflags(write=False)
        self.array = sym

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.array.astype(dtype)
        return self.array

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


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



def eig_sym(m) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues descending and
    eigenvectors up to sign.

    Raises NumericalError if the underlying solver fails to converge or the
    residual check ||M v - lambda v|| <= 1e-9 (1 + |lambda_1|) fails.
    """
    sym = as_sym_matrix(m)
    try:
        w, v = np.linalg.eigh(sym.array)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
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


def default_rank_tol(lam_max: float) -> float:
    """Relative rank cutoff 1e-9 * max(1, lambda_max), floored at 1e-12."""
    return max(RANK_RTOL * max(1.0, abs(lam_max)), RANK_TOL_FLOOR)


def lambda_min_gt0(m) -> float:
    """Smallest eigenvalue strictly above the rank tolerance of a PSD matrix."""
    return lambda_min_gt0_sorted(eig_sym(m).eigenvalues)


def lambda_min_gt0_sorted(w: np.ndarray) -> float:
    """lambda_min_gt0 read from eigenvalues already sorted descending.

    The rank tolerance is default_rank_tol(lambda_max). Raises NotPSDError if
    an eigenvalue falls below -rank_tol and NoNonzeroEigenvalueError if every
    eigenvalue is within the tolerance.
    """
    rank_tol = default_rank_tol(w[0])
    if w[-1] < -rank_tol:
        raise NotPSDError(
            f"matrix is not PSD within tolerance: lambda_min = {w[-1]:.3e} "
            f"< -{rank_tol:.3e}"
        )
    positive = w[w > rank_tol]
    if positive.size == 0:
        raise NoNonzeroEigenvalueError(
            f"no eigenvalue above rank tolerance {rank_tol:.3e}"
        )
    return float(positive[-1])


def lambda_min(m) -> float:
    return float(eig_sym(m).eigenvalues[-1])


def lambda_max(m) -> float:
    return float(eig_sym(m).eigenvalues[0])


def spectral_norm(a) -> float:
    """Largest singular value, computed as sqrt(lambda_max) of the smaller Gram."""
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if arr.size == 0:
        raise ValidationError("spectral_norm requires a nonempty matrix")
    gram = arr @ arr.T if arr.shape[0] <= arr.shape[1] else arr.T @ arr
    top = eig_sym(SymMatrix(gram)).eigenvalues[0]
    return float(np.sqrt(max(top, 0.0)))
