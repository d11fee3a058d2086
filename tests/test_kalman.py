import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from mcmot import kalman
from mcmot.cli import main
from mcmot.kalman import CHI2_GATE_95, KalmanFilter, KalmanState, NoiseProfile

GOLDEN = Path(__file__).parent / "data" / "golden"


# One state through the batch forms the tracker uses.
def predict(kf, s):
    means, covs = kf.predict_batch(s.mean[None], s.covariance[None])
    return KalmanState(mean=means[0], covariance=covs[0])


def update(kf, s, z):
    means, covs = kf.update_batch(s.mean[None], s.covariance[None], np.asarray(z, dtype=float)[None])
    return KalmanState(mean=means[0], covariance=covs[0])


def random_state(rng, dim_scale=50.0):
    """Well-conditioned random state with positive height."""
    mean = np.concatenate(
        [rng.uniform(10, 500, 2), [rng.uniform(0.3, 2.0)], [rng.uniform(20, 200)], rng.normal(0, 2, 4)]
    )
    a = rng.normal(size=(8, 8))
    cov = a @ a.T / dim_scale + np.eye(8) * rng.uniform(0.5, 2.0)
    return KalmanState(mean=mean, covariance=cov)


def explicit_gating_oracle(kf, state, zs):
    """Forms S explicitly and inverts it with a dense solver."""
    wp = kf.profile.std_weight_position
    h = state.mean[3]
    r = np.diag(np.array([wp * h, wp * h, 1e-1, wp * h]) ** 2)
    s = state.covariance[:4, :4] + r
    s_inv = np.linalg.inv(s)
    out = []
    for z in np.atleast_2d(zs):
        d = z - state.mean[:4]
        out.append(float(d @ s_inv @ d))
    return np.array(out)


class TestGateConstant:
    def test_matches_chi_square_quantile(self):
        assert CHI2_GATE_95 == pytest.approx(chi2.ppf(0.95, 4), rel=1e-12)


class TestInitiate:
    def test_mean_layout(self):
        kf = KalmanFilter()
        s = kf.initiate(np.array([5.0, 5.0, 1.0, 10.0]))
        np.testing.assert_array_equal(s.mean, [5, 5, 1, 10, 0, 0, 0, 0])

    def test_covariance_diagonal(self):
        kf = KalmanFilter()
        s = kf.initiate(np.array([5.0, 5.0, 1.0, 10.0]))
        off_diag = s.covariance - np.diag(np.diag(s.covariance))
        assert np.all(off_diag == 0)
        assert np.all(np.diag(s.covariance) > 0)

    def test_zero_innovation_gating(self):
        kf = KalmanFilter()
        s = kf.initiate(np.array([5.0, 5.0, 1.0, 10.0]))
        d = kf.gating_distance(s, np.array([[5.0, 5.0, 1.0, 10.0]]))
        assert d[0] == pytest.approx(0.0, abs=1e-9)

    def test_rejects_non_positive_height(self):
        for h in (0.0, np.nan):
            with pytest.raises(ValueError):
                KalmanFilter().initiate(np.array([5.0, 5.0, 1.0, h]))


class TestPredict:
    def test_zero_velocity_keeps_position(self):
        kf = KalmanFilter()
        s = kf.initiate(np.array([5.0, 5.0, 1.0, 10.0]))
        np.testing.assert_allclose(predict(kf, s).mean[:4], [5, 5, 1, 10])

    def test_velocity_advances_position(self):
        kf = KalmanFilter()
        s = KalmanState(
            mean=np.array([5.0, 5.0, 1.0, 10.0, 2.0, -1.0, 0.0, 0.0]), covariance=np.eye(8)
        )
        np.testing.assert_allclose(predict(kf, s).mean[:4], [7, 4, 1, 10])

    def test_trace_strictly_increases(self):
        kf = KalmanFilter()
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = random_state(rng)
            assert np.trace(predict(kf, s).covariance) > np.trace(s.covariance)


class TestUpdate:
    def test_zero_innovation_keeps_position(self):
        kf = KalmanFilter()
        s = kf.initiate(np.array([5.0, 5.0, 1.0, 10.0]))
        s = predict(kf, s)
        z = s.mean[:4].copy()
        np.testing.assert_allclose(update(kf, s, z).mean[:4], z, atol=1e-9)

    def test_repeated_update_converges_to_measurement(self):
        # Scalar oracle: without predict, a diagonal covariance stays diagonal
        # and each measured dimension follows the scalar Kalman recursion
        #   x' = x + p/(p+r) (z - x),  p' = p r/(p+r)
        # with r recomputed from the current height estimate.
        kf = KalmanFilter()
        wp = kf.profile.std_weight_position
        z0 = np.array([100.0, 50.0, 1.0, 10.0])
        offset = np.array([1e-5 * z0[3], 1e-5 * z0[3], 0.0, 1e-5 * z0[3]])
        s = kf.initiate(z0 + offset)
        x = s.mean[:4].copy()
        p = np.diag(s.covariance)[:4].copy()
        for _ in range(50):
            h_cur = x[3]
            r = np.array([(wp * h_cur) ** 2, (wp * h_cur) ** 2, 1e-2, (wp * h_cur) ** 2])
            gain = p / (p + r)
            x = x + gain * (z0 - x)
            p = p * r / (p + r)
            s = update(kf, s, z0)
        np.testing.assert_allclose(s.mean[:4], x, rtol=1e-9, atol=1e-12)
        assert np.all(np.abs(s.mean[:4] - z0) < 1e-6)

    def test_update_contracts_measured_covariance(self):
        kf = KalmanFilter()
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_state(rng)
            z = s.mean[:4] + rng.normal(0, 1, 4)
            z[3] = abs(z[3]) + 1.0
            before = np.trace(s.covariance[:4, :4])
            after = np.trace(update(kf, s, z).covariance[:4, :4])
            assert after <= before + 1e-12


class TestGatingDistance:
    def test_zero_at_projected_mean(self):
        kf = KalmanFilter()
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_state(rng)
            d = kf.gating_distance(s, s.mean[None, :4])
            assert d[0] == pytest.approx(0.0, abs=1e-9)

    def test_matches_explicit_inverse_oracle(self):
        kf = KalmanFilter()
        rng = np.random.default_rng(4)
        for _ in range(200):
            s = random_state(rng)
            zs = s.mean[None, :4] + rng.normal(0, 5, (4, 4))
            zs[:, 3] = np.abs(zs[:, 3]) + 1.0
            got = kf.gating_distance(s, zs)
            want = explicit_gating_oracle(kf, s, zs)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_scaling_covariance_scales_distance_inversely(self):
        # Bilinear-form property: scaling S by k scales distances by 1/k. The
        # aspect channel carries a fixed measurement noise, so the scaling is
        # exercised on the height-scaled channels with zero aspect innovation
        # and an aspect-decoupled covariance (S stays block-diagonal).
        rng = np.random.default_rng(5)
        for k in (0.25, 2.0, 10.0):
            kf1 = KalmanFilter()
            kf2 = KalmanFilter(
                NoiseProfile(std_weight_position=np.sqrt(k) / 20, std_weight_velocity=1 / 160)
            )
            s = random_state(rng)
            cov = s.covariance.copy()
            cov[2, :] = cov[:, 2] = 0.0
            cov[2, 2] = 1.0
            s = KalmanState(mean=s.mean, covariance=cov)
            s_scaled = KalmanState(mean=s.mean, covariance=k * cov)
            zs = s.mean[None, :4] + rng.normal(0, 5, (3, 4))
            zs[:, 2] = s.mean[2]
            zs[:, 3] = np.abs(zs[:, 3]) + 1.0
            d1 = kf1.gating_distance(s, zs)
            d2 = kf2.gating_distance(s_scaled, zs)
            np.testing.assert_allclose(d2, d1 / k, rtol=1e-9)

    def test_nonnegative(self):
        kf = KalmanFilter()
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = random_state(rng)
            zs = rng.uniform(1, 300, (5, 4))
            assert np.all(kf.gating_distance(s, zs) >= 0)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan])
    def test_rejects_non_positive_height(self, h):
        kf = KalmanFilter()
        s = kf.initiate(np.array([5.0, 5.0, 1.0, 10.0]))
        with pytest.raises(ValueError, match="^measurement heights must be positive$"):
            kf.gating_distance(s, np.array([[5.0, 5.0, 1.0, 10.0], [5.0, 5.0, 1.0, h]]))


def run_interleaving(kf, rng, steps=100):
    z0 = np.array([rng.uniform(50, 500), rng.uniform(50, 500), rng.uniform(0.3, 2), rng.uniform(20, 200)])
    s = kf.initiate(z0)
    for _ in range(steps):
        if rng.random() < 0.5:
            s = predict(kf, s)
        else:
            z = s.mean[:4] + rng.normal(0, 3, 4)
            z[3] = max(z[3], 1.0)
            s = update(kf, s, z)
        assert np.allclose(s.covariance, s.covariance.T, atol=1e-9)
        assert np.linalg.eigvalsh(s.covariance).min() >= -1e-9
    return s


class TestCovarianceInvariants:
    def test_symmetric_psd_through_random_interleavings(self):
        kf = KalmanFilter()
        for seed in range(50):
            run_interleaving(kf, np.random.default_rng(seed))


class TestNoiselessTracking:
    def test_constant_velocity_error_vanishes(self):
        # Perfect measurements of a noiseless constant-velocity trajectory:
        # after 30 predict/update cycles the position error is < 1e-3 of h.
        kf = KalmanFilter()
        h = 80.0
        vel = np.array([3.0, -2.0, 0.0, 0.0])
        pos0 = np.array([100.0, 400.0, 0.5, h])
        s = kf.initiate(pos0)
        for t in range(1, 31):
            truth = pos0 + vel * t
            s = predict(kf, s)
            s = update(kf, s, truth)
        err = np.abs(s.mean[:2] - (pos0 + vel * 30)[:2]).max()
        assert err < 1e-3 * h


class TestNoiseProfile:
    def test_positive_weights_required(self):
        for weights in (dict(std_weight_position=0.0), dict(std_weight_velocity=-1.0),
                        dict(std_weight_position=np.nan), dict(std_weight_velocity=np.nan)):
            with pytest.raises(ValueError, match="^noise weights must be strictly positive$"):
                NoiseProfile(**weights)


# ----------------------------------------------------------------------
# The 8x8 forms against a Cholesky reference written out here: `update_batch`
# and `gating_matrix` factor every innovation covariance with LAPACK, and the
# test's own factor-and-solve is their byte oracle. S's diagonal is checked
# before LAPACK is called, and the tracker's run calls LAPACK not at all.

_cholesky, _solve = np.linalg.cholesky, np.linalg.solve


def cholesky_update_batch(kf, means, covs, zs):
    proj_mean, s = kf.project_batch(means, covs)
    chol = _cholesky(s)
    b = covs[:, :, :4]
    tmp = _solve(chol, b.transpose(0, 2, 1))
    gain = _solve(chol.transpose(0, 2, 1), tmp).transpose(0, 2, 1)
    innovation = zs - proj_mean
    new_means = means + (gain @ innovation[..., None])[..., 0]
    new_covs = covs - gain @ s @ gain.transpose(0, 2, 1)
    return new_means, (new_covs + new_covs.transpose(0, 2, 1)) / 2.0


def cholesky_gating_matrix(kf, means, covs, zs):
    proj_mean, s = kf.project_batch(means, covs)
    chol = _cholesky(s)
    diff = zs[None, :, :] - proj_mean[:, None, :]
    y = _solve(chol, diff.transpose(0, 2, 1))
    return np.einsum("nim,nim->nm", y, y)


def lapack_forbidden():
    """Patch np.linalg.cholesky and solve, as mcmot.kalman calls them, to raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK call on the per-axis path")
    return mock.patch.multiple(kalman.np.linalg, cholesky=forbidden, solve=forbidden)


_AXIS = np.arange(8) % 4
CROSS_AXIS = _AXIS[:, None] != _AXIS[None, :]


def measurements(n):
    """n boxes (cx, cy, a, h) over a wide range of positions and sizes."""
    box = st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(0.05, 20.0),
                    st.floats(0.5, 2e3))
    return st.lists(box, min_size=n, max_size=n).map(lambda rows: np.array(rows).reshape(n, 4))


@st.composite
def filter_runs(draw):
    """Initial measurements for n tracks, then a sequence of steps: predict
    a subset, update a subset with its measurements, or gate every track
    against m detections (m = 1 takes LAPACK's single-column path)."""
    n = draw(st.integers(1, 6))
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["predict", "update", "gate"]))
        rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        zs = draw(measurements(draw(st.integers(0, 4)) if kind == "gate" else int(rows.sum())))
        steps.append((kind, rows, zs))
    return draw(measurements(n)), steps


class TestPerAxisBranch:
    @settings(max_examples=200, deadline=None)
    @given(filter_runs())
    def test_bytes_equal_the_cholesky_form(self, run):
        kf = KalmanFilter()
        z0, steps = run
        states = [kf.initiate(z) for z in z0]
        means = np.array([s.mean for s in states])
        covs = np.array([s.covariance for s in states])
        for kind, rows, zs in steps:
            if kind == "predict":
                means[rows], covs[rows] = kf.predict_batch(means[rows], covs[rows])
            elif kind == "update":
                want = cholesky_update_batch(kf, means[rows], covs[rows], zs)
                got = kf.update_batch(means[rows], covs[rows], zs)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                means[rows], covs[rows] = got
            else:
                want = cholesky_gating_matrix(kf, means, covs, zs)
                got = kf.gating_matrix(means, covs, zs)
                assert got.tobytes() == want.tobytes()
            assert np.all(covs[:, CROSS_AXIS] == 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
    def test_non_positive_innovation_variance_raises(self, bad):
        # h = 10 gives a measurement variance of 0.25 on the cx axis; the
        # state's own variance brings S[0, 0] to `bad`.
        kf = KalmanFilter()
        means = np.array([[5.0, 5.0, 1.0, 10.0, 0.0, 0.0, 0.0, 0.0]])
        covs = np.eye(8)[None].copy()
        covs[0, 0, 0] = bad - 0.25
        zs = np.array([[5.0, 5.0, 1.0, 10.0]])
        with lapack_forbidden():
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                kf.update_batch(means, covs, zs)
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                kf.gating_matrix(means, covs, zs)

    def test_golden_count_takes_no_lapack_call(self, tmp_path):
        # The tracker's per-axis forms factor no matrix.
        out = tmp_path / "results.json"
        with lapack_forbidden():
            assert main(["count", "--scenario", str(GOLDEN / "scenario"),
                         "--config", str(GOLDEN / "config.json"),
                         "--method", "both", "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "expected" / "count_both.json").read_bytes()


# ----------------------------------------------------------------------
# Per-axis forms: the tracker keeps each axis's (pp, pv, vv) in a (n, 4, 3)
# covariance. The 8x8 batch forms are their byte oracle.

def blocks(covs):
    """The (n, 8, 8) covariances whose per-axis blocks are covs (n, 4, 3)."""
    full = np.zeros((len(covs), 8, 8))
    axis = np.arange(4)
    full[:, axis, axis] = covs[..., 0]
    full[:, axis, axis + 4] = full[:, axis + 4, axis] = covs[..., 1]
    full[:, axis + 4, axis + 4] = covs[..., 2]
    return full


MATRIX_FORMS = ("initiate", "gating_distance", "predict_batch", "project_batch",
                "update_batch", "gating_matrix")


def matrix_forms_forbidden():
    """Patch KalmanFilter's 8x8 forms to raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("8x8 Kalman form called")
    return mock.patch.multiple(KalmanFilter, **dict.fromkeys(MATRIX_FORMS, forbidden))


class TestPerAxisForms:
    @settings(max_examples=200, deadline=None)
    @given(filter_runs())
    def test_bytes_equal_the_matrix_forms(self, run):
        kf = KalmanFilter()
        z0, steps = run
        states = [kf.initiate(z) for z in z0]
        means = np.array([s.mean for s in states])
        covs = np.array([s.covariance for s in states])
        with lapack_forbidden():
            axis_means, axis_covs = kf.initiate_axes(z0)
        assert axis_means.tobytes() == means.tobytes()
        assert blocks(axis_covs).tobytes() == covs.tobytes()
        for kind, rows, zs in steps:
            if kind == "gate":
                want = kf.gating_matrix(means, covs, zs)
                with lapack_forbidden():
                    got = kf.gating_axes(axis_means, axis_covs, zs)
                assert got.shape == (len(means), len(zs))
                assert got.tobytes() == want.tobytes()
                continue
            if kind == "predict":
                means[rows], covs[rows] = kf.predict_batch(means[rows], covs[rows])
                with lapack_forbidden():
                    got = kf.predict_axes(axis_means[rows], axis_covs[rows])
            else:
                means[rows], covs[rows] = kf.update_batch(means[rows], covs[rows], zs)
                with lapack_forbidden():
                    got = kf.update_axes(axis_means[rows], axis_covs[rows], zs)
            axis_means[rows], axis_covs[rows] = got
            assert axis_means.tobytes() == means.tobytes()
            assert blocks(axis_covs).tobytes() == covs.tobytes()

    def test_initiate_rejects_the_first_non_positive_height(self):
        for h in (-2.0, np.nan):
            zs = np.array([[5.0, 5.0, 1.0, 10.0], [5.0, 5.0, 1.0, h], [5.0, 5.0, 1.0, 0.0]])
            with pytest.raises(ValueError) as single:
                KalmanFilter().initiate(zs[1])
            with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
                KalmanFilter().initiate_axes(zs)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
    def test_non_positive_innovation_variance_raises(self, bad):
        # As the 8x8 test above: S[0, 0] of the one state is `bad`.
        kf = KalmanFilter()
        means = np.array([[5.0, 5.0, 1.0, 10.0, 0.0, 0.0, 0.0, 0.0]])
        covs = np.tile([1.0, 0.0, 1.0], (1, 4, 1))
        covs[0, 0, 0] = bad - 0.25
        for zs in (np.empty((0, 4)), np.array([[5.0, 5.0, 1.0, 10.0]])):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                kf.gating_axes(means, covs, zs)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            kf.update_axes(means, covs, np.array([[5.0, 5.0, 1.0, 10.0]]))

    def test_golden_count_calls_no_matrix_form(self, tmp_path):
        out = tmp_path / "results.json"
        with matrix_forms_forbidden():
            assert main(["count", "--scenario", str(GOLDEN / "scenario"),
                         "--config", str(GOLDEN / "config.json"),
                         "--method", "both", "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "expected" / "count_both.json").read_bytes()
