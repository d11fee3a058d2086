"""Constant-velocity Kalman filter over box state (cx, cy, a, h) with Mahalanobis gating.

The 8-d state stacks the measured box (center-x, center-y, aspect w/h, height)
with its per-frame velocities. Process and measurement noise scale with the
box height through a NoiseProfile. All operations are value-in/value-out.

No matrix of the model couples the four measured axes, so every covariance
the filter builds is zero outside each axis's 2x2 position/velocity block,
and the innovation covariance is diagonal. The tracker keeps only those
blocks: a covariance of shape (n, 4, 3) holds each axis's `pp`, `pv` and
`vv` (position variance, position-velocity covariance, velocity variance),
and the per-axis forms (`initiate_axes`, `predict_axes`, `update_axes`,
`gating_axes`) are elementwise over (n, 4) arrays, with no LAPACK call and
no matrix product. The 8x8 forms (`initiate`, `predict_batch`,
`update_batch`, `gating_matrix` and the single-state `gating_distance`) take
a full (8, 8) covariance per state, coupled or not, and factor the
innovation covariance with LAPACK's Cholesky. They are the plain reference
the per-axis forms are held to, byte for byte, on uncoupled covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 95% quantile of the chi-square distribution with 4 degrees of freedom.
# Squared Mahalanobis distances above this gate are infeasible associations.
CHI2_GATE_95 = 9.487729036781154

_DIM = 8
_MDIM = 4


@dataclass(frozen=True)
class NoiseProfile:
    """Height-scaled standard deviations for process and measurement noise."""

    std_weight_position: float = 1.0 / 20
    std_weight_velocity: float = 1.0 / 160

    def __post_init__(self) -> None:
        if not (self.std_weight_position > 0 and self.std_weight_velocity > 0):
            raise ValueError("noise weights must be strictly positive")


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Gaussian box state: mean (8,) and covariance (8, 8)."""

    mean: np.ndarray
    covariance: np.ndarray


class KalmanFilter:
    """Constant-velocity filter with dt fixed at one frame per step.

    Frame subsampling is handled upstream by re-indexing the stream, so the
    transition matrix never changes.
    """

    def __init__(self, profile: NoiseProfile | None = None):
        self.profile = profile if profile is not None else NoiseProfile()

    # ------------------------------------------------------------------
    # Single-state forms.

    def initiate(self, measurement: np.ndarray) -> KalmanState:
        """Create a track state from an unassociated (cx, cy, a, h) measurement.

        Velocities start at zero; the covariance is diagonal with position
        uncertainty scaled to the measured height.
        """
        z = np.asarray(measurement, dtype=float)
        h = z[3:]
        if not h[0] > 0:
            raise ValueError(f"measurement height must be positive, got {h[0]}")
        mean = np.zeros(_DIM)
        mean[:_MDIM] = z
        wp, wv = self.profile.std_weight_position, self.profile.std_weight_velocity
        variances = np.hstack((_variances(h, 2 * wp, 1e-2), _variances(h, 10 * wv, 1e-5)))
        return KalmanState(mean=mean, covariance=np.diag(variances[0]))

    def gating_distance(self, s: KalmanState, measurements: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance from the projected state to each row of
        `measurements` (m, 4), under the innovation covariance."""
        zs = np.atleast_2d(np.asarray(measurements, dtype=float))
        if not (zs[:, 3] > 0).all():
            raise ValueError("measurement heights must be positive")
        return self.gating_matrix(s.mean[None], s.covariance[None], zs)[0]

    # ------------------------------------------------------------------
    # Batched forms over n stacked states.

    def predict_batch(self, means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        wp, wv = self.profile.std_weight_position, self.profile.std_weight_velocity
        h = means[:, 3]
        new_means = means.copy()
        new_means[:, :_MDIM] += means[:, _MDIM:]
        # F = [[I, I], [0, I]] in 4x4 blocks, so F P F^T assembles from the
        # blocks of P without a general matrix product.
        pp = covs[:, :_MDIM, :_MDIM]
        pv = covs[:, :_MDIM, _MDIM:]
        vp = covs[:, _MDIM:, :_MDIM]
        vv = covs[:, _MDIM:, _MDIM:]
        new_covs = np.empty_like(covs)
        new_covs[:, :_MDIM, :_MDIM] = pp + pv + vp + vv
        new_covs[:, :_MDIM, _MDIM:] = pv + vv
        new_covs[:, _MDIM:, :_MDIM] = vp + vv
        new_covs[:, _MDIM:, _MDIM:] = vv
        new_covs[:, np.arange(_DIM), np.arange(_DIM)] += np.hstack(
            (_variances(h, wp, 1e-2), _variances(h, wv, 1e-5)))
        return new_means, _symmetrize(new_covs)

    def project_batch(self, means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Measurement-space mean (n, 4) and innovation covariance S (n, 4, 4)."""
        s = covs[:, :_MDIM, :_MDIM].copy()
        s[:, np.arange(_MDIM), np.arange(_MDIM)] += self._measurement_variances(means)
        return means[:, :_MDIM].copy(), s

    def update_batch(
        self, means: np.ndarray, covs: np.ndarray, zs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Kalman correction of each state i with measurement zs[i].

        The gain P H^T S^-1 comes from the Cholesky factor of S; a
        non-positive-definite S (degenerate NoiseProfile) surfaces as
        numpy.linalg.LinAlgError.
        """
        proj_mean, s = self.project_batch(means, covs)
        b = covs[:, :, :_MDIM]  # P H^T
        gain = _solve_innovation(s, b.transpose(0, 2, 1), twice=True).transpose(0, 2, 1)
        innovation = zs - proj_mean
        new_means = means + (gain @ innovation[..., None])[..., 0]
        new_covs = covs - gain @ s @ gain.transpose(0, 2, 1)
        return new_means, _symmetrize(new_covs)

    def gating_matrix(self, means: np.ndarray, covs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distances, shape (n_states, n_measurements)."""
        proj_mean, s = self.project_batch(means, covs)
        diff = zs[None, :, :] - proj_mean[:, None, :]
        # One whitening per state with all measurements as columns.
        y = _solve_innovation(s, diff.transpose(0, 2, 1), twice=False)
        return np.einsum("nim,nim->nm", y, y)

    # ------------------------------------------------------------------
    # Per-axis forms over n stacked states: means (n, 8) and covariances
    # (n, 4, 3), one row (pp, pv, vv) per measured axis. Each gives the bits
    # of its 8x8 form on the blocks of an uncoupled covariance.

    def initiate_axes(self, measurements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`initiate` of each row of `measurements` (k, 4)."""
        z = np.asarray(measurements, dtype=float)
        h = z[:, 3]
        bad = ~(h > 0)
        if bad.any():
            raise ValueError(f"measurement height must be positive, got {h[bad.argmax()]}")
        wp, wv = self.profile.std_weight_position, self.profile.std_weight_velocity
        means = np.zeros((len(z), _DIM))
        means[:, :_MDIM] = z
        covs = np.zeros((len(z), _MDIM, 3))
        covs[..., 0] = _variances(h, 2 * wp, 1e-2)
        covs[..., 2] = _variances(h, 10 * wv, 1e-5)
        return means, covs

    def predict_axes(self, means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`predict_batch`: F P F^T + Q per axis, summed in its order."""
        wp, wv = self.profile.std_weight_position, self.profile.std_weight_velocity
        h = means[:, 3]
        new_means = means.copy()
        new_means[:, :_MDIM] += means[:, _MDIM:]
        pp, pv, vv = covs[..., 0], covs[..., 1], covs[..., 2]
        new_covs = np.empty_like(covs)
        new_covs[..., 0] = pp + pv + pv + vv + _variances(h, wp, 1e-2)
        new_covs[..., 1] = pv + vv
        new_covs[..., 2] = vv + _variances(h, wv, 1e-5)
        return new_means, new_covs

    def update_axes(
        self, means: np.ndarray, covs: np.ndarray, zs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """`update_batch`: the gain of each axis is its (pp, pv) column
        scaled twice by 1 / sqrt(S), and the new pv averages the two cross
        terms as the 8x8 form's symmetrize does."""
        pp, pv, vv = covs[..., 0], covs[..., 1], covs[..., 2]
        s = pp + self._measurement_variances(means)
        r = 1.0 / _innovation_sd(s)
        g_p, g_v = pp * r * r, pv * r * r
        innovation = zs - means[:, :_MDIM]
        new_means = means + np.concatenate((g_p * innovation, g_v * innovation), axis=1)
        gs_p, gs_v = g_p * s, g_v * s
        new_covs = np.empty_like(covs)
        new_covs[..., 0] = pp - gs_p * g_p
        new_covs[..., 1] = ((pv - gs_p * g_v) + (pv - gs_v * g_p)) / 2.0
        new_covs[..., 2] = vv - gs_v * g_v
        return new_means, new_covs

    def gating_axes(self, means: np.ndarray, covs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """`gating_matrix`: squared Mahalanobis distances (n_states, m)."""
        sd = _innovation_sd(covs[..., 0] + self._measurement_variances(means))[:, :, None]
        diff = (zs[None, :, :] - means[:, None, :_MDIM]).transpose(0, 2, 1)
        # Divide or multiply by the reciprocal as LAPACK's solve does: a
        # single column is divided by the diagonal, several are scaled by its
        # reciprocal.
        op, f = (np.divide, sd) if diff.shape[2] == 1 else (np.multiply, 1.0 / sd)
        y = op(diff, f, order="C")
        return np.einsum("nim,nim->nm", y, y)

    def _measurement_variances(self, means: np.ndarray) -> np.ndarray:
        """The measurement noise R of each state, as `project_batch` adds it (n, 4)."""
        return _variances(means[:, 3], self.profile.std_weight_position, 1e-1)


def _variances(h: np.ndarray, weight: float, aspect: float) -> np.ndarray:
    """Squared standard deviations (n, 4): weight * h on the cx, cy and h
    axes and `aspect` on the aspect axis."""
    std = np.multiply.outer(h, (weight, weight, 0.0, weight))
    std[:, 2] = aspect
    return std * std


def _innovation_sd(d: np.ndarray) -> np.ndarray:
    """sqrt of a diagonal innovation covariance's entries d (n, 4); a
    non-positive or NaN entry is not positive definite."""
    if not (d > 0).all():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return np.sqrt(d)


def _solve_innovation(s: np.ndarray, x: np.ndarray, twice: bool) -> np.ndarray:
    """L^-1 x, or S^-1 x = L^-T L^-1 x when `twice`, for each state's
    innovation covariance S = L L^T (n, 4, 4) and columns x (n, 4, k).
    A non-positive-definite S raises LinAlgError. Its diagonal is checked
    first, because the factorization lets a NaN through.
    """
    _innovation_sd(s.diagonal(axis1=1, axis2=2))
    chol = np.linalg.cholesky(s)
    y = np.linalg.solve(chol, x)
    return np.linalg.solve(chol.transpose(0, 2, 1), y) if twice else y


def _symmetrize(covs: np.ndarray) -> np.ndarray:
    return (covs + covs.transpose(0, 2, 1)) / 2.0
