import math
import tracemalloc

import numpy as np
import pytest

from cohlab import sampler
from cohlab.errors import InvalidArgumentError
from cohlab.experiments import first_prob_samples
from cohlab.measures import entropy_from_probs
from cohlab.sampler import (
    _mix_ensemble,
    _unit_rows,
    ginibre,
    haar_amplitude_rows,
    haar_unitary_rows,
    positive_qr,
    sample_random_subspace,
)
from cohlab.streams import new_generator

from conftest import random_state_vector


def subspace_state(frame, generator):
    """A Haar state of the subspace, F c for a Haar state c of C^s: the
    states the subspace campaigns project."""
    return frame @ _unit_rows(generator.standard_normal(2 * frame.shape[1]))


def haar_isometry(m_out, m, generator):
    """A Haar m_out x m mixing isometry, drawn as the decomposition check
    draws it."""
    return positive_qr(ginibre(generator, m_out, m))


def haar_prob_moment_exact(d, k):
    # E[p_1^k] = k! (d-1)! / (d-1+k)!, spelled out for small k
    num = math.factorial(k) * math.factorial(d - 1)
    return num / math.factorial(d - 1 + k)


class TestTypes:
    def test_subspace_rejects_nonorthonormal(self, monkeypatch):
        # without Cholesky QR the frame is the raw Ginibre draw
        monkeypatch.setattr(sampler, "_cholesky_qr", lambda frame: None)
        with pytest.raises(InvalidArgumentError, match="orthonormal"):
            sample_random_subspace(4, 2, new_generator(0, 0))

    def test_subspace_rejects_a_nan_frame(self, monkeypatch):
        # every comparison with a NaN defect is false, so the check must not
        # be "defect > tolerance"; it follows the Cholesky QR, which passes
        # NaN through, and the Householder fallback alike
        def nan_draw(generator, rows, cols):
            return np.full((rows, cols), np.nan, dtype=complex)

        def refuse(gram):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(sampler, "ginibre", nan_draw)
        for draw in (sample_random_subspace, sampler._subspace_row_blocks):
            with pytest.raises(InvalidArgumentError, match="orthonormal"):
                draw(4, 2, new_generator(0, 0))
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        for draw in (sample_random_subspace, sampler._subspace_row_blocks):
            with pytest.raises(InvalidArgumentError, match="orthonormal"):
                draw(4, 2, new_generator(0, 0))

    def test_decomposition_rejects_negative_weights(self):
        # the square root of a negative weight is NaN, which fails the
        # coefficient Gram check
        rows = np.eye(2, dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(InvalidArgumentError, match="Gram"):
            _mix_ensemble(np.array([1.5, -0.5]), rows, np.eye(2, dtype=complex))


class TestHaarPure:
    def test_d1_is_pure_phase(self):
        (psi,) = haar_amplitude_rows(5, 5, 6, 1)
        assert abs(abs(psi[0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 7, 100, 1000])
    def test_unit_norm(self, dim):
        (psi,) = haar_amplitude_rows(11, dim, dim + 1, dim)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    def test_deterministic_per_stream(self):
        assert np.array_equal(haar_amplitude_rows(1, 2, 3, 50), haar_amplitude_rows(1, 2, 3, 50))

    def test_amplitude_rows_match_per_stream_states(self):
        # a batch that starts past stream 0 keys row r to stream first + r
        rows = haar_amplitude_rows(13, 5, 12, 9)
        for r in range(rows.shape[0]):
            psi = _unit_rows(new_generator(13, 5 + r).standard_normal(18))
            assert rows[r].tobytes() == psi.tobytes()

    @pytest.mark.parametrize("dim", [2, 10, 100])
    def test_first_prob_moments(self, dim):
        n = 40000
        p1 = first_prob_samples(dim, n, master_seed=314)
        for k in (1, 2):
            sample = p1**k
            target = haar_prob_moment_exact(dim, k)
            stderr = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - target) < 4 * stderr

    def test_haar_invariance_under_fourier(self):
        # means of C_r on two independent samples, one rotated by the DFT,
        # must agree within 3 combined standard errors
        d, n = 20, 100000
        dft = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)
        vals_plain = np.empty(n)
        vals_rotated = np.empty(n)
        chunk = 4096
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            z = np.empty((stop - start, 2 * d))
            w = np.empty((stop - start, 2 * d))
            for row, i in enumerate(range(start, stop)):
                z[row] = new_generator(606, i).standard_normal(2 * d)
                w[row] = new_generator(707, i).standard_normal(2 * d)
            za = z.view(np.complex128)
            za /= np.linalg.norm(za, axis=1)[:, None]
            wa = w.view(np.complex128)
            wa /= np.linalg.norm(wa, axis=1)[:, None]
            wa = wa @ dft.T
            for out, amps in ((vals_plain, za), (vals_rotated, wa)):
                probs = amps.real**2 + amps.imag**2
                safe = np.where(probs > 0, probs, 1.0)
                out[start:stop] = -(probs * np.log(safe)).sum(axis=1)
        se = math.hypot(
            vals_plain.std(ddof=1) / math.sqrt(n),
            vals_rotated.std(ddof=1) / math.sqrt(n),
        )
        assert abs(vals_plain.mean() - vals_rotated.mean()) < 3 * se


class TestHaarUnitary:
    def test_d1_is_phase(self):
        (u,) = haar_unitary_rows(0, 3, 4, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-15

    def test_d16_unitarity(self):
        (u,) = haar_unitary_rows(8, 1, 2, 16)
        defect = np.linalg.norm(u.conj().T @ u - np.eye(16))
        assert defect <= 1e-10 * 16

    def test_deterministic(self):
        # stream (4, 4) gives the same unitary alone and as row 2 of a batch
        a = haar_unitary_rows(4, 4, 5, 6)
        b = haar_unitary_rows(4, 2, 6, 6)
        assert np.array_equal(a[0], b[2])

    def test_entry_second_moment(self):
        # E|U_11|^2 = 1/d by unitarity and symmetry
        d, n = 5, 20000
        vals = np.abs(haar_unitary_rows(21, 0, n, d)[:, 0, 0]) ** 2
        stderr = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 4 * stderr

    def test_positive_qr_r_diagonal(self, rng):
        z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q = positive_qr(z)
        # reconstructed R = Q^dag Z must have a real-positive diagonal
        r = q.conj().T @ z
        diag = np.diagonal(r)
        assert np.abs(diag.imag).max() < 1e-12
        assert diag.real.min() > 0


class TestRandomSubspace:
    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidArgumentError):
            sample_random_subspace(4, 0, new_generator(0, 0))
        with pytest.raises(InvalidArgumentError):
            sample_random_subspace(4, 5, new_generator(0, 0))

    def test_columns_orthonormal(self):
        frame = sample_random_subspace(8, 2, new_generator(2, 0))
        gram = frame.conj().T @ frame
        assert np.abs(gram - np.eye(2)).max() < 1e-10

    def test_full_subspace_spans_everything(self, rng):
        frame = sample_random_subspace(4, 4, new_generator(9, 0))
        psi = random_state_vector(4, rng)
        proj = frame.conj().T @ psi
        assert abs(np.vdot(proj, proj).real - 1.0) < 1e-12

    def test_states_in_fresh_subspaces_are_haar_marginal(self):
        # averaging over many random subspaces restores unitary invariance,
        # so E[p_1] = 1/d
        d, s, n = 100, 3, 10000
        vals = np.empty(n)
        for i in range(n):
            generator = new_generator(808, i)
            frame = sample_random_subspace(d, s, generator)
            vals[i] = abs(subspace_state(frame, generator)[0]) ** 2
        stderr = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 4 * stderr


class TestCholeskyFrame:
    """sample_random_subspace orthonormalises its Ginibre draw in place by
    two passes of Cholesky QR; the Q factor with a positive R diagonal is
    unique, so the frame is positive_qr's up to rounding."""

    @staticmethod
    def draw(dim, sub_dim, seed):
        return ginibre(new_generator(seed, 0), dim, sub_dim)

    @pytest.mark.parametrize("dim, sub_dim", [(8, 2), (100, 3), (3000, 6), (34000, 2)])
    def test_tall_frames_equal_positive_qr_of_the_same_draw(self, dim, sub_dim):
        for seed in range(3):
            frame = sample_random_subspace(dim, sub_dim, new_generator(seed, 0))
            expected = positive_qr(self.draw(dim, sub_dim, seed))
            assert np.abs(frame - expected).max() <= 1e-12

    @pytest.mark.parametrize("sub_dim", [2, 4, 8, 16])
    def test_square_frames_are_unitary_with_a_positive_r_diagonal(self, sub_dim):
        # a single pass leaves defects up to about 6e-11 on these frames
        defect, phase = 0.0, 0.0
        for seed in range(2000):
            frame = sample_random_subspace(sub_dim, sub_dim, new_generator(seed, 0))
            defect = max(defect, np.abs(frame.conj().T @ frame - np.eye(sub_dim)).max())
            diag = np.diagonal(frame.conj().T @ self.draw(sub_dim, sub_dim, seed))
            assert diag.real.min() > 0.0
            phase = max(phase, np.abs(diag.imag / diag.real).max())
        assert defect <= 1e-12
        assert phase <= 1e-12

    def test_a_refused_gram_falls_back_to_positive_qr_of_the_same_draw(self, monkeypatch):
        def refuse(gram):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        frame = sample_random_subspace(300, 5, new_generator(11, 0))
        assert np.array_equal(frame, positive_qr(self.draw(300, 5, 11)))

    def test_a_refusal_after_one_pass_keeps_the_q_factor(self, monkeypatch):
        # one pass multiplies the draw by a positive-diagonal R^-1, which
        # leaves its Q factor as it was
        cholesky, calls = np.linalg.cholesky, []

        def refuse_second(gram):
            calls.append(len(gram))
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(gram)

        monkeypatch.setattr(np.linalg, "cholesky", refuse_second)
        frame = sample_random_subspace(300, 5, new_generator(11, 0))
        assert calls == [5, 5]
        assert np.abs(frame - positive_qr(self.draw(300, 5, 11))).max() <= 1e-12

    @pytest.mark.parametrize("refused", [False, True], ids=["cholesky", "householder"])
    @pytest.mark.parametrize("dim, sub_dim", [(5, 5), (40000, 3), (100000, 6)])
    def test_row_blocks_drawn_apart_are_the_frame(self, monkeypatch, refused, dim, sub_dim):
        # one Ginibre draw per row block continues the stream of the one
        # draw, and the same blocks are orthonormalised: the bytes are the
        # frame's, on the Householder route too
        if refused:
            def refuse(gram):
                raise np.linalg.LinAlgError("Matrix is not positive definite")

            monkeypatch.setattr(np.linalg, "cholesky", refuse)
        blocks = sampler._subspace_row_blocks(dim, sub_dim, new_generator(4, 0))
        frame = sample_random_subspace(dim, sub_dim, new_generator(4, 0))
        assert [len(block) for block in blocks] == [len(rows) for rows in sampler._row_blocks(frame)]
        assert all(block.flags.c_contiguous for block in blocks)
        assert np.concatenate(blocks).tobytes() == frame.tobytes()

    def test_frame_phase_holds_the_frame_and_one_block(self):
        # Householder QR copies the frame 3-5 times over, and a
        # full-width conjugate in the validation once more
        dim, sub_dim = 100000, 4
        tracemalloc.start()
        try:
            sample_random_subspace(dim, sub_dim, new_generator(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * dim * sub_dim


class TestPureInSubspace:
    def test_s1_returns_column_up_to_phase(self):
        frame = sample_random_subspace(6, 1, new_generator(3, 0))
        psi = subspace_state(frame, new_generator(3, 1))
        overlap = abs(np.vdot(frame[:, 0], psi))
        assert abs(overlap - 1.0) < 1e-12

    def test_projection_has_unit_norm(self):
        # F c has the norm of c, so the weights of an ensemble mixed in
        # coefficient space are those of its states in C^d
        frame = sample_random_subspace(8, 2, new_generator(5, 0))
        psi = subspace_state(frame, new_generator(5, 1))
        proj = frame.conj().T @ psi
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12
        assert abs(np.vdot(proj, proj).real - 1.0) < 1e-12

    def test_frame_coefficient_moment(self):
        # coefficients are Haar in the subspace dimension: E|c_1|^2 = 1/s
        frame = sample_random_subspace(8, 2, new_generator(6, 0))
        n = 10000
        vals = np.empty(n)
        for i in range(n):
            psi = subspace_state(frame, new_generator(6, i + 1))
            c = frame.conj().T @ psi
            vals[i] = abs(c[0]) ** 2
        stderr = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 0.5) < 3 * stderr


class TestRandomDecomposition:
    """The coefficient-row mix: ensembles of rows c_a of C^s with weights
    p_a; with the identity frame (s = d) the rows are the states."""

    @staticmethod
    def _random_seed_ensemble(dim, size, rng, weights=None):
        rows = np.array([random_state_vector(dim, rng) for _ in range(size)])
        if weights is None:
            raw = rng.random(size)
            weights = raw / raw.sum()
        return np.asarray(weights, dtype=float), rows

    @staticmethod
    def _density(weights, rows):
        return (rows.T * weights) @ rows.conj()

    def test_rejects_small_m_out(self, rng):
        # an m_out x m matrix with m_out < m has rank below m: no isometry
        weights, rows = self._random_seed_ensemble(3, 2, rng)
        w = np.ones((1, 2), dtype=complex) / math.sqrt(2.0)
        with pytest.raises(InvalidArgumentError, match="isometry"):
            _mix_ensemble(weights, rows, w)

    def test_pure_seed_outputs_same_ray(self, rng):
        psi = random_state_vector(4, rng)
        weights, rows = _mix_ensemble(np.array([1.0]), psi[None], haar_isometry(5, 1, new_generator(12, 0)))
        assert len(rows) == 5 and abs(weights.sum() - 1.0) < 1e-12
        for row in rows:
            assert abs(abs(np.vdot(psi, row)) - 1.0) < 1e-10

    def test_identity_mixing_is_noop(self):
        weights = np.array([0.5, 0.5])
        rows = np.eye(2, dtype=complex)
        out_weights, out_rows = _mix_ensemble(weights, rows, np.eye(2, dtype=complex))
        assert np.array_equal(out_weights, weights)
        assert np.array_equal(out_rows, rows)

    def test_zero_norm_members_dropped(self):
        w = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
        weights, rows = _mix_ensemble(np.array([0.5, 0.5]), np.eye(2, dtype=complex), w)
        assert len(weights) == len(rows) == 2
        assert abs(weights.sum() - 1.0) < 1e-12

    def test_rejects_non_isometry(self):
        with pytest.raises(InvalidArgumentError, match="isometry"):
            _mix_ensemble(np.array([1.0]), np.eye(1, dtype=complex), 2.0 * np.eye(1, dtype=complex))

    def test_rejects_a_nan_isometry(self):
        w = np.full((2, 1), np.nan, dtype=complex)
        with pytest.raises(InvalidArgumentError, match="isometry"):
            _mix_ensemble(np.array([1.0]), np.eye(1, dtype=complex), w)

    def test_density_matrix_preserved(self, rng):
        # sum_b q_b k_b k_b^dag = sum_a p_a c_a c_a^dag in C^s
        for dim, size, m_out in ((3, 2, 4), (4, 4, 4), (6, 3, 8)):
            weights, rows = self._random_seed_ensemble(dim, size, rng)
            rho = self._density(weights, rows)
            for trial in range(5):
                q, k = _mix_ensemble(weights, rows, haar_isometry(m_out, size, new_generator(33, trial)))
                assert np.abs(np.linalg.norm(k, axis=1) - 1.0).max() < 1e-14
                assert np.abs(self._density(q, k) - rho).max() < 1e-12

    def test_degenerate_weight_behaves_as_pure(self, rng):
        psi = random_state_vector(3, rng)
        phi = random_state_vector(3, rng)
        weights, rows = _mix_ensemble(
            np.array([1.0, 0.0]), np.array([psi, phi]), haar_isometry(4, 2, new_generator(64, 0))
        )
        for row in rows:
            assert abs(abs(np.vdot(psi, row)) - 1.0) < 1e-7
        target = entropy_from_probs(abs(psi) ** 2)
        got = float(np.dot(weights, entropy_from_probs(abs(rows) ** 2)))
        assert abs(got - target) < 1e-7


def test_ginibre_has_the_bytes_of_the_scaled_draw():
    # the mixing isometries of every decomposition are QR factors of it
    expected = new_generator(3, 1).standard_normal((50, 14)).view(np.complex128) / np.sqrt(2.0)
    assert np.array_equal(ginibre(new_generator(3, 1), 50, 7), expected)


def test_ginibre_shape_and_scale():
    g = ginibre(new_generator(0, 0), 200, 100)
    assert g.shape == (200, 100)
    # entries have unit total variance, split between re and im
    var = (g.real**2 + g.imag**2).mean()
    assert abs(var - 1.0) < 0.05
