"""Scoring backend: WCCN algebra, cosine, s-norm, fusion, PCA, phrase glue."""

import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cohort_scores_oracle, cohort_stats_oracle, compute_eer,
                     gradient_ascent_fusion, pca_variance_oracle,
                     relative_error, trial_table)
from tdsv import backend as backend_module
from tdsv.backend import (FusionModel, PhraseBackend, apply_fusion,
                          apply_snorm, cohort_scores, cohort_stats,
                          cosine_score, enroll_model_vector, fit_backends,
                          fit_fusion, fit_wccn, load_backends, load_fusion,
                          pca_project, save_backends, save_fusion,
                          score_trials, transform, wccn_from_covariance)
from tdsv.errors import (DegenerateError, DimensionError,
                         InsufficientDataError, IterationLimitError,
                         NumericalError, RankDeficiencyError, TdsvError,
                         TensorFormatError, UnknownIdError)
from tdsv.fileio import write_tensor, write_tensor_dir
from tdsv.metrics import ScoredTrials
from tdsv.trials import EmbeddingRecord


def _random_spd(rng, d):
    a = rng.normal(size=(d + 3, d))
    return a.T @ a / (d + 3)


class TestWccnAlgebra:
    def test_identity_covariance_closed_form(self):
        b = wccn_from_covariance(np.eye(3))
        assert np.allclose(b, np.sqrt(2.0 / 3.0) * np.eye(3))
        assert abs(b[0, 0] - 0.8164966) < 1e-6

    def test_zero_covariance_closed_form(self):
        b = wccn_from_covariance(np.zeros((4, 4)))
        assert np.allclose(b, np.sqrt(2.0) * np.eye(4))

    @given(st.integers(0, 5000), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_whitening_identity(self, seed, d):
        # Wbar = W + I/2 is formed here from the input, not read back from
        # the fit, so a wrong regularizer cannot pass
        rng = np.random.default_rng(seed)
        within = _random_spd(rng, d)
        b = wccn_from_covariance(within)
        wbar = within + 0.5 * np.eye(d)
        assert np.array_equal(b, np.tril(b))
        assert np.abs(b.T @ wbar @ b - np.eye(d)).max() < 1e-6

    @given(st.integers(0, 5000), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_regularized_eigenvalues_bounded_below(self, seed, d):
        # B B.T = Wbar^-1, so eig(Wbar) >= 1/2 is eig(B B.T) <= 2
        rng = np.random.default_rng(seed)
        b = wccn_from_covariance(_random_spd(rng, d))
        assert np.linalg.eigvalsh(b @ b.T).max() <= 2.0 + 1e-9

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            wccn_from_covariance(np.zeros((2, 3)))


class TestFitWccn:
    def test_needs_two_speakers(self):
        with pytest.raises(InsufficientDataError):
            fit_wccn({"a": np.eye(2)})

    def test_single_utterance_speakers_give_zero_within(self):
        b = fit_wccn({"a": np.array([[1.0, 0.0]]),
                      "b": np.array([[0.0, 1.0]])})
        assert np.allclose(b, np.sqrt(2.0) * np.eye(2))

    def test_normalizes_rows_first(self):
        rng = np.random.default_rng(0)
        rows = {s: rng.normal(size=(4, 3)) for s in "abc"}
        scaled = {s: 5.0 * v for s, v in rows.items()}
        assert np.allclose(fit_wccn(rows), fit_wccn(scaled))

    def test_rejects_empty_speaker(self):
        with pytest.raises(DimensionError):
            fit_wccn({"a": np.zeros((0, 2)), "b": np.eye(2)})


class TestCosine:
    I2 = wccn_from_covariance(np.eye(2))
    I3 = wccn_from_covariance(np.eye(3))

    def test_worked_example(self):
        s = cosine_score(np.array([1.0, 0.0]), np.array([1.0, 1.0]), self.I2)
        assert s == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert s == pytest.approx(0.70711, abs=1e-5)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.normal(size=(2, 3))
            assert cosine_score(a, b, self.I3) == cosine_score(b, a, self.I3)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 3))
        base = cosine_score(a, b, self.I3)
        assert cosine_score(7.0 * a, b, self.I3) == pytest.approx(base, abs=1e-12)
        assert cosine_score(a, 0.001 * b, self.I3) == pytest.approx(base, abs=1e-12)

    def test_self_score_is_one(self):
        v = np.array([0.3, -0.4, 1.2])
        assert cosine_score(v, v, self.I3) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_score_is_zero(self):
        s = cosine_score(np.array([1.0, 0.0]), np.array([0.0, 2.0]), self.I2)
        assert s == 0.0

    def test_range(self):
        rng = np.random.default_rng(3)
        t = wccn_from_covariance(_random_spd(rng, 4))
        for _ in range(100):
            a, b = rng.normal(size=(2, 4))
            assert -1.0 - 1e-12 <= cosine_score(a, b, t) <= 1.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateError):
            cosine_score(np.zeros(2), np.ones(2), self.I2)


class TestSnorm:
    I2 = wccn_from_covariance(np.eye(2))

    def test_cohort_needs_two_rows(self):
        with pytest.raises(InsufficientDataError):
            cohort_scores(np.ones((1, 2)), np.ones((1, 2)), self.I2)

    def test_cohort_stats_worked_example(self):
        cohort = np.array([[1.0, 0.0], [0.0, 1.0]])
        mu, sigma = cohort_stats(np.array([[1.0, 0.0]]), cohort, self.I2)
        assert mu == pytest.approx(0.5)
        assert sigma == pytest.approx(0.5)

    def test_degenerate_cohort_rejected(self):
        cohort = np.array([[1.0, 0.0], [2.0, 0.0]])  # same direction twice
        with pytest.raises(DegenerateError):
            cohort_stats(np.array([[0.5, 0.5]]), cohort, self.I2)

    def test_standard_normal_stats_are_identity(self):
        for s in (-1.3, 0.0, 0.42, 2.0):
            assert apply_snorm(s, (0.0, 1.0), (0.0, 1.0)) == s

    def test_worked_example(self):
        assert apply_snorm(0.5, (0.2, 0.1), (0.3, 0.2)) == pytest.approx(2.0)

    def test_monotone_in_score(self):
        stats_e, stats_t = (0.1, 0.4), (-0.2, 0.7)
        vals = [apply_snorm(s, stats_e, stats_t)
                for s in np.linspace(-1, 1, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_zero_deviation_rejected(self):
        with pytest.raises(DegenerateError):
            apply_snorm(0.5, (0.0, 0.0), (0.0, 1.0))


class TestCohortMatrix:
    """The one-product cohort scores and statistics against the per-row
    scalar loop."""

    @given(st.integers(0, 5000), st.integers(2, 16), st.integers(2, 40),
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, seed, d, n_cohort, n):
        rng = np.random.default_rng(seed)
        t = wccn_from_covariance(_random_spd(rng, d))
        cohort = rng.normal(size=(n_cohort, d))
        segments = rng.normal(size=(n, d))
        scores = cohort_scores(segments, cohort, t)
        mu, sigma = cohort_stats(segments, cohort, t)
        assert scores.shape == (n, n_cohort)
        assert mu.shape == sigma.shape == (n,)
        for i, e in enumerate(segments):
            want = cohort_scores_oracle(e, cohort, t)
            assert np.abs(scores[i] - want).max() < 1e-12
            assert (np.abs(cohort_scores(e[None], cohort, t) - want).max()
                    < 1e-12)
            want_mu, want_sigma = cohort_stats_oracle(e, cohort, t)
            assert abs(mu[i] - want_mu) < 1e-12
            assert abs(sigma[i] - want_sigma) < 1e-12

    def test_zero_norm_segment_rejected(self):
        t = wccn_from_covariance(np.eye(2))
        cohort = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateError):
            cohort_stats(np.array([[1.0, 2.0], [0.0, 0.0]]), cohort, t)
        with pytest.raises(DegenerateError):
            cohort_stats(np.array([[1.0, 2.0]]),
                         np.array([[1.0, 0.0], [0.0, 0.0]]), t)

    def test_zero_variance_row_in_batch_rejected(self):
        t = wccn_from_covariance(np.eye(2))
        cohort = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, sigma = cohort_stats(np.array([[1.0, 0.0]]), cohort, t)
        assert sigma > 0.0
        # [1, 1] scores the same against both cohort rows
        with pytest.raises(DegenerateError):
            cohort_stats(np.array([[1.0, 0.0], [1.0, 1.0]]), cohort, t)


def _two_system_scores(rng, n=400):
    """Two noisy views of the same latent separation, plus labels."""
    labels = np.arange(n) % 2 == 0
    latent = np.where(labels, 1.0, -1.0)
    s1 = latent + rng.normal(scale=1.6, size=n)
    s2 = latent + rng.normal(scale=1.6, size=n)
    return np.column_stack([s1, s2]), labels


class TestFusionOracle:
    """BFGS against plain gradient ascent on the same objective.  A balanced
    set puts the bias near 0, so both parameters are held to the model's
    scale, the largest of |weights| and |bias|."""

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("systems", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_gradient_ascent(self, seed, systems, l2):
        rng = np.random.default_rng([seed, systems])
        n = int(rng.integers(100, 600))
        labels = rng.random(n) < 0.5
        latent = np.where(labels, 1.0, -1.0)
        scores = latent[:, None] + rng.normal(scale=1.6, size=(n, systems))
        want_w, want_b = gradient_ascent_fusion(scores, labels, l2=l2)
        model = fit_fusion(scores, labels, l2=l2)
        scale = max(float(np.abs(want_w).max()), abs(want_b))
        assert np.abs(model.weights - want_w).max() <= 1e-5 * scale
        assert abs(model.bias - want_b) <= 1e-5 * scale
        assert type(model.bias) is float


def test_import_set_leaves_out_scipy_optimize():
    """The modules a pipeline process loads up front must not pull in
    scipy.optimize, which only the fusion fit needs."""
    code = ("import sys\n"
            "for m in ('cli', 'train', 'features', 'backend', 'metrics'):\n"
            "    __import__('tdsv.' + m)\n"
            "print('scipy.optimize' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


class TestFusion:
    def test_two_noisy_views_fuse_better(self):
        rng = np.random.default_rng(10)
        scores, labels = _two_system_scores(rng)
        model = fit_fusion(scores, labels)
        fused = apply_fusion(model, scores)
        eer_f = compute_eer(ScoredTrials(fused, labels))
        eer_1 = compute_eer(ScoredTrials(scores[:, 0], labels))
        eer_2 = compute_eer(ScoredTrials(scores[:, 1], labels))
        assert eer_f < eer_1
        assert eer_f < eer_2
        assert model.weights.min() > 0.0  # both systems are informative

    def test_single_system_preserves_eer(self):
        rng = np.random.default_rng(11)
        scores, labels = _two_system_scores(rng)
        model = fit_fusion(scores[:, :1], labels)
        fused = apply_fusion(model, scores[:, :1])
        assert (compute_eer(ScoredTrials(fused, labels))
                == compute_eer(ScoredTrials(scores[:, 0], labels)))

    def test_duplicated_system_matches_single(self):
        rng = np.random.default_rng(12)
        scores, labels = _two_system_scores(rng)
        twice = np.column_stack([scores[:, 0], scores[:, 0]])
        model = fit_fusion(twice, labels)
        fused = apply_fusion(model, twice)
        assert compute_eer(ScoredTrials(fused, labels)) == pytest.approx(
            compute_eer(ScoredTrials(scores[:, 0], labels)), abs=1e-12)

    def test_exhausted_budget_raises(self):
        scores = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        labels = np.array([False, False, True, True])
        with pytest.raises(IterationLimitError):
            fit_fusion(scores, labels, max_iter=5)

    def test_separable_data_converges_to_confident_model(self):
        scores = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        labels = np.array([False, False, True, True])
        model = fit_fusion(scores, labels)
        assert model.weights[0] > 3.0  # near-hard decision rule
        assert np.isfinite(model.bias)

    def test_ridge_tames_separable_data(self):
        scores = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        labels = np.array([False, False, True, True])
        loose = fit_fusion(scores, labels)
        ridged = fit_fusion(scores, labels, l2=0.1)
        assert 0.0 < ridged.weights[0] < loose.weights[0]

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateError):
            fit_fusion(np.zeros((3, 2)), np.array([True, True, True]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            fit_fusion(np.zeros((3, 2)), np.array([True, False]))

    def test_apply_worked_example(self):
        model = FusionModel(np.array([2.0, -1.0]), 0.5)
        assert apply_fusion(model, np.array([[1.0, 1.0]])) == pytest.approx(1.5)
        out = apply_fusion(model, np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out, [1.5, 0.5])

    def test_apply_rejects_wrong_width(self):
        model = FusionModel(np.array([1.0, 1.0]), 0.0)
        with pytest.raises(DimensionError):
            apply_fusion(model, np.array([[1.0, 2.0, 3.0]]))

    def test_round_trip(self, tmp_path):
        model = FusionModel(np.array([0.25, 1.75]), -0.125)
        save_fusion(tmp_path / "fusion", model)
        back = load_fusion(tmp_path / "fusion")
        assert back.bias == model.bias
        assert np.allclose(back.weights, model.weights, atol=1e-7)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        model = FusionModel(rng.normal(size=3) / 3.0, float(rng.normal()))
        save_fusion(tmp_path / "fusion", model)
        back = load_fusion(tmp_path / "fusion")
        assert back.bias == model.bias
        assert back.weights.dtype == np.float64
        assert np.array_equal(back.weights, model.weights)


class TestPca:
    def test_collinear_points_have_one_axis(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        proj = pca_project(pts, k=2)
        assert proj.shape == (4, 2)
        assert np.abs(proj[:, 1]).max() < 1e-12
        assert np.abs(proj[:, 0]).max() > 1.0

    def test_projected_variance_matches_eigen_oracle(self):
        rng = np.random.default_rng(20)
        data = rng.normal(size=(40, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.1])
        for k in (1, 2, 4):
            proj = pca_project(data, k=k)
            got = float((proj ** 2).sum()) / data.shape[0]
            want = pca_variance_oracle(data, k)
            assert relative_error(np.array([got]), np.array([want])) < 1e-8

    def test_projection_is_centered(self):
        rng = np.random.default_rng(21)
        proj = pca_project(rng.normal(loc=7.0, size=(30, 4)), k=3)
        assert np.abs(proj.mean(axis=0)).max() < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        data = rng.normal(size=(12, 5))
        assert np.array_equal(pca_project(data, 2), pca_project(data, 2))

    def test_identical_points_rejected(self):
        with pytest.raises(RankDeficiencyError):
            pca_project(np.ones((5, 3)), k=2)

    def test_too_few_points_rejected(self):
        with pytest.raises(InsufficientDataError):
            pca_project(np.eye(2), k=2)

    def test_bad_k_rejected(self):
        with pytest.raises(DimensionError):
            pca_project(np.zeros((5, 3)), k=4)


def _toy_records(rng, phrases=("p0", "p1"), speakers=("s0", "s1", "s2"),
                 utts=3, d=8):
    """Well-separated per-speaker clusters so trials score cleanly."""
    records = {}
    for phrase in phrases:
        for si, spk in enumerate(speakers):
            mean = np.zeros(d)
            mean[si] = 4.0
            for u in range(utts):
                uid = f"{spk}_{phrase}_{u}"
                vec = mean + rng.normal(scale=0.3, size=d)
                records[uid] = EmbeddingRecord(uid, spk, phrase, vec)
    return records


class TestPhraseGlue:
    def test_enroll_model_vector_mean_of_normalized(self):
        vecs = [np.array([3.0, 4.0]), np.array([5.0, 0.0])]
        assert np.allclose(enroll_model_vector(vecs), [0.8, 0.4])

    def test_enroll_model_vector_empty(self):
        with pytest.raises(InsufficientDataError):
            enroll_model_vector([])

    def test_fit_backends_structure(self):
        rng = np.random.default_rng(30)
        records = _toy_records(rng)
        cohort = {p: [u for u, r in records.items() if r.phrase_id == p]
                  for p in ("p0", "p1")}
        backends = fit_backends(records, cohort)
        assert sorted(backends) == ["p0", "p1"]
        assert np.array_equal(backends["p0"].cohort, np.stack(
            [records[u].vector for u in sorted(cohort["p0"])]))

    def test_fit_backends_cohort_size_round_robin(self):
        records = _toy_records(np.random.default_rng(34))
        background = {p: [u for u, r in records.items() if r.phrase_id == p]
                      for p in ("p0", "p1")}
        full = fit_backends(records, background)
        small = fit_backends(records, background, cohort_size=4)
        assert np.array_equal(small["p0"].cohort, np.stack(
            [records[u].vector
             for u in ("s0_p0_0", "s0_p0_1", "s1_p0_0", "s2_p0_0")]))
        assert np.array_equal(small["p0"].wccn, full["p0"].wccn)

    def test_fit_backends_rejects_missing_embedding(self):
        rng = np.random.default_rng(31)
        records = _toy_records(rng)
        with pytest.raises(KeyError):
            fit_backends(records, {"p0": ["ghost"]})

    def test_fit_backends_rejects_phrase_mismatch(self):
        rng = np.random.default_rng(32)
        records = _toy_records(rng)
        with pytest.raises(InsufficientDataError):
            fit_backends(records, {"p0": ["s0_p1_0"]})

    def test_fit_backends_rejects_no_phrases(self):
        # an empty mapping would save a backend that cannot be loaded
        records = _toy_records(np.random.default_rng(36))
        with pytest.raises(InsufficientDataError,
                           match="no background utterances"):
            fit_backends(records, {})

    @pytest.fixture()
    def scored_setup(self):
        rng = np.random.default_rng(33)
        records = _toy_records(rng)
        cohort = {p: sorted(u for u, r in records.items() if r.phrase_id == p)
                  for p in ("p0", "p1")}
        backends = fit_backends(records, cohort)
        enroll = {f"{spk}-p0": [f"{spk}_p0_0", f"{spk}_p0_1"]
                  for spk in ("s0", "s1", "s2")}
        trials = trial_table([("s0-p0", "s0_p0_2", "p0", "tgt"),
                              ("s0-p0", "s1_p0_2", "p0", "non"),
                              ("s1-p0", "s1_p0_2", "p0", "tgt"),
                              ("s1-p0", "s2_p0_2", "p0", "non")])
        return records, backends, enroll, trials

    def test_targets_beat_nontargets(self, scored_setup):
        records, backends, enroll, trials = scored_setup
        scores = score_trials(trials, records, enroll, backends, snorm=True)
        assert min(scores[0], scores[2]) > max(scores[1], scores[3])

    def test_snorm_off_matches_plain_cosine(self, scored_setup):
        records, backends, enroll, trials = scored_setup
        scores = score_trials(trials, records, enroll, backends, snorm=False)
        model = enroll_model_vector([records[u].vector
                                     for u in enroll["s0-p0"]])
        direct = cosine_score(model, records["s0_p0_2"].vector,
                              backends["p0"].wccn)
        assert scores[0] == direct

    def test_phrase_isolation_errors(self, scored_setup):
        records, backends, enroll, _ = scored_setup
        with pytest.raises(KeyError, match="backend"):
            score_trials(trial_table([("s0-p0", "s0_p0_2", "p9", "tgt")]),
                         records, enroll, backends)
        with pytest.raises(InsufficientDataError, match="phrase"):
            score_trials(trial_table([("s0-p0", "s0_p0_2", "p1", "tgt")]),
                         records, enroll, backends)
        with pytest.raises(KeyError, match="unknown enrollment"):
            score_trials(trial_table([("s9-p0", "s0_p0_2", "p0", "tgt")]),
                         records, enroll, backends)
        with pytest.raises(KeyError, match="test utterance"):
            score_trials(trial_table([("s0-p0", "ghost", "p0", "tgt")]),
                         records, enroll, backends)
        with pytest.raises(InsufficientDataError, match="mixes"):
            score_trials(trial_table([("s0-p0", "s0_p0_2", "p0", "tgt")]),
                         records, {"s0-p0": ["s0_p0_0", "s0_p1_0"]}, backends)

    def test_id_errors_are_typed(self, scored_setup):
        records, backends, enroll, _ = scored_setup
        for trial in (("s0-p0", "s0_p0_2", "p9", "tgt"),
                      ("s9-p0", "s0_p0_2", "p0", "tgt"),
                      ("s0-p0", "ghost", "p0", "tgt")):
            with pytest.raises(UnknownIdError) as exc:
                score_trials(trial_table([trial]), records, enroll, backends)
            assert isinstance(exc.value, TdsvError)
            assert not str(exc.value).startswith("'")
        with pytest.raises(UnknownIdError,
                           match="'ghost' of model 's0-p0'"):
            score_trials(trial_table([]), records,
                         {"s0-p0": ["s0_p0_0", "ghost"]}, backends)
        with pytest.raises(UnknownIdError, match="'ghost' has no embedding"):
            fit_backends(records, {"p0": ["ghost"]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_test_vector_rejected(self, scored_setup, bad):
        records, backends, enroll, trials = scored_setup
        rec = records["s1_p0_2"]
        vector = rec.vector.copy()
        vector[3] = bad
        records = {**records, "s1_p0_2": replace(rec, vector=vector)}
        with pytest.raises(NumericalError, match="test utterance 's1_p0_2' "
                           "has a non-finite embedding"):
            score_trials(trials, records, enroll, backends)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_enrollment_vector_rejected(self, scored_setup, bad):
        records, backends, enroll, trials = scored_setup
        rec = records["s1_p0_1"]
        vector = rec.vector.copy()
        vector[3] = bad
        records = {**records, "s1_p0_1": replace(rec, vector=vector)}
        with pytest.raises(NumericalError, match="enrollment utterance "
                           "'s1_p0_1' of model 's1-p0' has a non-finite"):
            score_trials(trials, records, enroll, backends)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_fit_backends_rejects_nonfinite_vector(self, bad):
        records = _toy_records(np.random.default_rng(35))
        rec = records["s2_p0_1"]
        vector = rec.vector.copy()
        vector[0] = bad
        records = {**records, "s2_p0_1": replace(rec, vector=vector)}
        background = {"p0": [u for u, r in records.items() if r.phrase_id == "p0"]}
        with pytest.raises(NumericalError, match="background utterance "
                           "'s2_p0_1' has a non-finite"):
            fit_backends(records, background)

    def test_width_must_match_backend(self, scored_setup):
        records, backends, enroll, trials = scored_setup
        narrow = {u: replace(r, vector=r.vector[:6]) for u, r in records.items()}
        with pytest.raises(DimensionError,
                           match="phrase 'p0': embeddings have 6 values, "
                                 "but its backend was fitted on 8"):
            score_trials(trials, narrow, enroll, backends)

    @pytest.mark.parametrize("kind, failure", [
        (kind, failure) for kind in ("background", "enrollment", "test")
        for failure in ("missing", "phrase", "overflow", "zero")
        if (kind, failure) != ("enrollment", "phrase")])
    def test_lookup_failure_names_utterance(self, scored_setup, kind, failure):
        records, backends, enroll, trials = scored_setup
        utt, name = {
            "background": ("s2_p0_1", "background utterance 's2_p0_1'"),
            "enrollment": ("s1_p0_1",
                           "enrollment utterance 's1_p0_1' of model 's1-p0'"),
            "test": ("s1_p0_2", "test utterance 's1_p0_2'")}[kind]
        error, says = {
            "missing": (UnknownIdError, "has no embedding"),
            "phrase": (InsufficientDataError, "is phrase 'p1', not 'p0'"),
            "overflow": (NumericalError, "has an embedding whose norm overflows"),
            "zero": (DegenerateError, "has a zero-norm embedding")}[failure]
        background = {"p0": [u for u, r in records.items() if r.phrase_id == "p0"]}
        rec = records.pop(utt)
        edited = {"missing": None, "phrase": replace(rec, phrase_id="p1"),
                  "overflow": replace(rec, vector=np.full_like(rec.vector, 1e200)),
                  "zero": replace(rec, vector=np.zeros_like(rec.vector))}[failure]
        if edited is not None:
            records[utt] = edited
        with pytest.raises(error, match=re.escape(f"{name} {says}")):
            if kind == "background":
                fit_backends(records, background)
            else:
                score_trials(trials, records, enroll, backends)

    def test_backend_round_trip(self, scored_setup, tmp_path):
        records, backends, enroll, trials = scored_setup
        save_backends(tmp_path / "backend", backends)
        restored = load_backends(tmp_path / "backend")
        assert sorted(restored) == sorted(backends)
        for phrase, b in backends.items():
            r = restored[phrase]
            assert np.allclose(r.wccn, b.wccn, atol=1e-5)
            assert np.allclose(r.cohort, b.cohort, atol=1e-5)

    def test_backend_round_trip_is_exact(self, scored_setup, tmp_path):
        records, backends, enroll, trials = scored_setup
        save_backends(tmp_path / "backend", backends)
        restored = load_backends(tmp_path / "backend")
        for phrase, b in backends.items():
            r = restored[phrase]
            assert np.array_equal(r.wccn, b.wccn)
            assert np.array_equal(r.cohort, b.cohort)
        assert (score_trials(trials, records, enroll, restored)
                == score_trials(trials, records, enroll, backends))

    def test_save_rejects_phrase_id_with_comma(self, scored_setup, tmp_path):
        _, backends, _, _ = scored_setup
        renamed = {"p,0": backends["p0"], "p1": backends["p1"]}
        with pytest.raises(TensorFormatError, match=re.escape(
                "phrase id 'p,0' contains ','")) as exc:
            save_backends(tmp_path / "backend", renamed)
        assert "\n" not in str(exc.value)
        assert not (tmp_path / "backend").exists()

    @pytest.mark.parametrize("phrase", ["a file=b", "a\nb"])
    def test_save_rejects_phrase_id_the_manifest_cannot_read(
            self, scored_setup, tmp_path, phrase):
        _, backends, _, _ = scored_setup
        renamed = {phrase: backends["p0"], "p1": backends["p1"]}
        with pytest.raises(TensorFormatError,
                           match="' file=' or a line break") as exc:
            save_backends(tmp_path / "backend", renamed)
        assert "\n" not in str(exc.value)
        assert not (tmp_path / "backend").exists()

    def test_save_rejects_empty_backend(self, tmp_path):
        with pytest.raises(TensorFormatError, match="holds no phrases"):
            save_backends(tmp_path / "backend", {})
        assert not (tmp_path / "backend").exists()

    @pytest.mark.parametrize("phrase, suffix", [
        ("p=0", ""), ("p 0", ""), ("", ""), ("p0", ",x")])
    def test_ids_with_other_separators_round_trip(
            self, tmp_path, phrase, suffix):
        # '=', ' ' or nothing in a phrase id, and ',' in a background
        # utterance id: the backend saves, reloads and scores as fitted
        records = _toy_records(np.random.default_rng(33),
                               phrases=(phrase, "p1"))
        utt = f"s0_{phrase}_0"
        records[utt + suffix] = replace(records.pop(utt),
                                        utterance_id=utt + suffix)
        background = {p: [u for u, r in records.items() if r.phrase_id == p]
                      for p in (phrase, "p1")}
        backends = fit_backends(records, background)
        speakers = ("s0", "s1", "s2")
        enroll = {f"{spk}-m": [f"{spk}_{phrase}_1"] for spk in speakers}
        trials = trial_table([(f"{m}-m", f"{t}_{phrase}_2", phrase,
                               "tgt" if m == t else "non")
                              for m in speakers for t in speakers])
        save_backends(tmp_path / "backend", backends)
        restored = load_backends(tmp_path / "backend")
        assert sorted(restored) == sorted(backends)
        assert (score_trials(trials, records, enroll, restored)
                == score_trials(trials, records, enroll, backends))

    def test_snorm_matches_scalar_reference(self):
        records = _toy_records(np.random.default_rng(35), utts=4)
        background = {p: sorted(u for u, r in records.items()
                                if r.phrase_id == p) for p in ("p0", "p1")}
        backends = fit_backends(records, background)
        speakers = ("s0", "s1", "s2")
        enroll = {f"{spk}-{p}": [f"{spk}_{p}_0", f"{spk}_{p}_1"]
                  for spk in speakers for p in ("p0", "p1")}
        trials = trial_table([(f"{spk}-{p}", f"{other}_{p}_{k}", p,
                               "tgt" if spk == other else "non")
                              for p in ("p1", "p0") for spk in speakers
                              for other in speakers for k in (2, 3)])
        scores = score_trials(trials, records, enroll, backends, snorm=True)
        assert len(scores) == len(trials) == 36
        for (model_id, test_id, phrase, _), got in zip(zip(*trials), scores):
            b = backends[phrase]
            model = enroll_model_vector([records[u].vector
                                         for u in enroll[model_id]])
            test = records[test_id].vector
            want = apply_snorm(cosine_score(model, test, b.wccn),
                               cohort_stats_oracle(model, b.cohort, b.wccn),
                               cohort_stats_oracle(test, b.cohort, b.wccn))
            assert abs(got - want) < 1e-12

    def test_degenerate_phrase_without_trials_still_scores(self, scored_setup):
        records, backends, enroll, trials = scored_setup
        p1 = backends["p1"]
        # two cohort rows along one axis of a diagonal WCCN: every segment
        # scores them alike, so no p1 statistic exists
        flat_cohort = np.zeros((2, 8))
        flat_cohort[:, 0] = (1.0, 2.0)
        broken = {**backends, "p1": PhraseBackend(
            wccn_from_covariance(np.zeros((8, 8))), flat_cohort)}
        with pytest.raises(DegenerateError):
            score_trials(trial_table([("s0-p1", "s0_p1_2", "p1", "tgt")]),
                         records, {"s0-p1": ["s0_p1_0"]}, broken)
        assert (score_trials(trials, records, enroll, broken)
                == score_trials(trials, records, enroll, backends))

    def test_bad_trial_fails_before_any_statistics(self, scored_setup,
                                                   monkeypatch):
        records, backends, enroll, trials = scored_setup
        calls = []
        monkeypatch.setattr(backend_module, "cohort_stats",
                            lambda *args: calls.append(args))
        with pytest.raises(KeyError, match="test utterance"):
            score_trials(trial_table([*zip(*trials),
                                      ("s0-p0", "ghost", "p0", "tgt")]),
                         records, enroll, backends)
        assert calls == []


def _scoring_setup(seed, n_phrases, d):
    """Per phrase: 2-3 background speakers, 2-4 models of 1-2 enrollment
    utterances, 1-4 test utterances, and every model-test pair as a trial,
    shuffled across phrases.  Each test utterance is shared by every model of
    its phrase."""
    rng = np.random.default_rng(seed)
    records, background, enroll, trials = {}, {}, {}, []

    def add(uid, speaker, phrase):
        records[uid] = EmbeddingRecord(uid, speaker, phrase, rng.normal(size=d))
        return uid

    for p in range(n_phrases):
        phrase = f"p{p}"
        background[phrase] = [add(f"bg{s}_{phrase}_{k}", f"bg{s}", phrase)
                              for s in range(int(rng.integers(2, 4)))
                              for k in range(2)]
        models = [f"m{m}-{phrase}" for m in range(int(rng.integers(2, 5)))]
        for m, model in enumerate(models):
            enroll[model] = [add(f"e{m}_{phrase}_{k}", f"m{m}", phrase)
                             for k in range(int(rng.integers(1, 3)))]
        tests = [add(f"t{k}_{phrase}", f"x{k}", phrase)
                 for k in range(int(rng.integers(1, 5)))]
        trials += [(model, test, phrase, "unk")
                   for model in models for test in tests]
    trials = trial_table([trials[i] for i in rng.permutation(len(trials))])
    return records, fit_backends(records, background), enroll, trials


class TestScoreTrialsExact:
    """score_trials moves each distinct vector into WCCN space once, and
    every score keeps the bits of the scalar path on raw vectors."""

    @given(st.integers(0, 5000), st.integers(1, 3), st.integers(2, 10),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_scores_equal_scalar_path(self, seed, n_phrases, d, snorm):
        records, backends, enroll, trials = _scoring_setup(seed, n_phrases, d)
        got = score_trials(trials, records, enroll, backends, snorm=snorm)
        model_vec = {m: enroll_model_vector([records[u].vector for u in utts])
                     for m, utts in enroll.items()}
        test_vec = {u: r.vector for u, r in records.items()}
        stats = {}
        if snorm:
            # one cohort product per phrase for its models and one for its
            # tests, rows in the order the trial list first names them
            for phrase, b in backends.items():
                in_phrase = [t for t in zip(*trials) if t[2] == phrase]
                for field, vec in ((0, model_vec), (1, test_vec)):
                    ids = list(dict.fromkeys(t[field] for t in in_phrase))
                    mu, sigma = cohort_stats(np.stack([vec[i] for i in ids]),
                                             b.cohort, b.wccn)
                    stats.update(((field, i), (float(m), float(s)))
                                 for i, m, s in zip(ids, mu, sigma))
        assert len(got) == len(trials)
        for (model, test, phrase, _), score in zip(zip(*trials), got):
            raw = cosine_score(model_vec[model], test_vec[test],
                               backends[phrase].wccn)
            want = (apply_snorm(raw, stats[0, model], stats[1, test])
                    if snorm else raw)
            assert score == want

    def test_shared_test_utterance_transformed_once(self, monkeypatch):
        records, backends, enroll, trials = _scoring_setup(7, 1, 6)
        shared = trials.test_ids[0]
        sharing = [t for t in zip(*trials) if t[1] == shared]
        assert len(sharing) >= 2
        alone = [score_trials(trial_table([t]), records, enroll, backends,
                              snorm=False)[0]
                 for t in sharing]
        calls = []
        orig = backend_module.transform
        monkeypatch.setattr(backend_module, "transform",
                            lambda t, e: calls.append(e) or orig(t, e))
        assert score_trials(trial_table(sharing), records, enroll, backends,
                            snorm=False) == alone
        assert len(calls) == len(sharing) + 1  # each model, then the test

    @pytest.mark.parametrize("snorm", [False, True])
    def test_zero_norm_vector_rejected(self, snorm):
        records, backends, enroll, trials = _scoring_setup(8, 2, 5)
        ghost = records[trials.test_ids[-1]]
        records[ghost.utterance_id] = EmbeddingRecord(
            ghost.utterance_id, ghost.speaker_id, ghost.phrase_id,
            np.zeros_like(ghost.vector))
        with pytest.raises(DegenerateError, match="zero-norm") as exc:
            score_trials(trials, records, enroll, backends, snorm=snorm)
        assert f"test utterance '{ghost.utterance_id}'" in str(exc.value)

    def test_cosine_score_in_wccn_space(self):
        rng = np.random.default_rng(9)
        t = wccn_from_covariance(_random_spd(rng, 5))
        a, b = rng.normal(size=(2, 5))
        assert cosine_score(transform(t, a), transform(t, b)) == cosine_score(a, b, t)
        with pytest.raises(DegenerateError):
            cosine_score(np.zeros(5), b)


def _dropping_each_manifest_line(root):
    """Yield (name, line) for each field or tensor line of a saved
    artifact's manifest, with that line removed while the caller runs."""
    manifest = root / "manifest.txt"
    lines = manifest.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        manifest.write_text("\n".join(lines[:i] + lines[i + 1:]) + "\n")
        key, value = line.split("=", 1)
        yield (value.split(" file=")[0] if key == "tensor" else key), line
    manifest.write_text("\n".join(lines) + "\n")


class TestArtifactLoadErrors:
    """A saved backend or fusion model with a missing or bad manifest entry
    fails to load with a one-line TensorFormatError naming the entry."""

    def test_backend_missing_entry(self, tmp_path):
        records, backends, _, _ = _scoring_setup(11, 2, 4)
        save_backends(tmp_path / "backend", backends)
        dropped = []
        for name, line in _dropping_each_manifest_line(tmp_path / "backend"):
            with pytest.raises(TensorFormatError) as exc:
                load_backends(tmp_path / "backend")
            assert name in str(exc.value) and "\n" not in str(exc.value)
            dropped.append(name)
        # phrases, and two tensors for each of two phrases
        assert len(dropped) == 5
        assert sorted(load_backends(tmp_path / "backend")) == ["p0", "p1"]

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_backend_older_version_refused(self, tmp_path, version):
        # versions 1 to 3 also stored the cohort's utterance ids, and
        # versions 1 and 2 the regularized covariance
        _, backends, _, _ = _scoring_setup(13, 1, 4)
        b = backends["p0"]
        root = tmp_path / "backend"
        tensors = {"p0.wccn_matrix": b.wccn, "p0.cohort": b.cohort}
        if version < 3:
            tensors["p0.wccn_covariance"] = np.eye(4)
        ids = ",".join(f"u{i}" for i in range(len(b.cohort)))
        write_tensor_dir(root, "svbackend", version,
                         {"phrases": "p0", "cohort.p0": ids},
                         tensors, np.float32 if version == 1 else np.float64)
        with pytest.raises(TensorFormatError) as exc:
            load_backends(root)
        assert str(exc.value) == (
            f"expected 'svbackend 4' header in {root / 'manifest.txt'}, "
            f"got 'svbackend {version}'")

    def test_backend_listing_no_phrases(self, tmp_path):
        root = tmp_path / "backend"
        write_tensor_dir(root, "svbackend", 4, {"phrases": ""}, {})
        with pytest.raises(TensorFormatError) as exc:
            load_backends(root)
        assert str(exc.value) == f"backend {root} lists no phrases"

    def test_backend_mis_shaped_cohort(self, tmp_path):
        records, backends, _, _ = _scoring_setup(12, 1, 4)
        save_backends(tmp_path / "backend", backends)
        # one row short is still a cohort; one column short is not
        cohort = backends["p0"].cohort
        write_tensor(tmp_path / "backend" / "p0.cohort.svt", cohort[:, :-1],
                     np.float64)
        with pytest.raises(TensorFormatError, match="p0"):
            load_backends(tmp_path / "backend")

    def test_fusion_missing_or_bad_entry(self, tmp_path):
        root = tmp_path / "fusion"
        save_fusion(root, FusionModel(np.array([0.5, -1.0]), 0.25))
        dropped = []
        for name, line in _dropping_each_manifest_line(root):
            with pytest.raises(TensorFormatError) as exc:
                load_fusion(root)
            assert name in str(exc.value) and "\n" not in str(exc.value)
            dropped.append(name)
        assert sorted(dropped) == ["bias", "num_systems", "weights"]
        text = (root / "manifest.txt").read_text()
        for bad in (text.replace("bias=0.25", "bias=x"),
                    text.replace("num_systems=2", "num_systems=3")):
            (root / "manifest.txt").write_text(bad)
            with pytest.raises(TensorFormatError):
                load_fusion(root)


class TestArtifactRoundTripProperties:
    """Saving and reloading a fitted backend or fusion model gives back the
    same bytes, whatever the dimension, cohort and ids."""

    @given(st.integers(0, 5000), st.integers(2, 16), st.integers(1, 3),
           st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_backends(self, seed, d, n_phrases, cohort_size):
        rng = np.random.default_rng(seed)
        records, background = {}, {}
        for p in range(n_phrases):
            phrase = f"p{p}"
            for s in range(int(rng.integers(2, 5))):
                for _ in range(int(rng.integers(1, 4))):
                    uid = f"u{rng.integers(10**9):09d}_{len(records)}"
                    records[uid] = EmbeddingRecord(uid, f"s{s}", phrase,
                                                   rng.normal(size=d))
                    background.setdefault(phrase, []).append(uid)
        backends = fit_backends(records, background, cohort_size)
        with tempfile.TemporaryDirectory() as tmp:
            save_backends(Path(tmp) / "backend", backends)
            restored = load_backends(Path(tmp) / "backend")
        assert sorted(restored) == sorted(backends)
        for phrase, b in backends.items():
            r = restored[phrase]
            for got, want in ((r.wccn, b.wccn), (r.cohort, b.cohort)):
                assert got.dtype == want.dtype == np.float64
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_fusion(self, weights, bias):
        model = FusionModel(np.array(weights, dtype=np.float64), bias)
        with tempfile.TemporaryDirectory() as tmp:
            save_fusion(Path(tmp) / "fusion", model)
            back = load_fusion(Path(tmp) / "fusion")
        assert back.weights.dtype == np.float64
        assert back.weights.tobytes() == model.weights.tobytes()
        assert np.float64(back.bias).tobytes() == np.float64(bias).tobytes()
