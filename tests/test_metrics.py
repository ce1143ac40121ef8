"""DET/EER/minDCF: worked examples, invariances, brute-force agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_det, brute_force_eer, brute_force_min_dcf,
                     compute_eer, compute_min_dcf, det_csv_lines_oracle,
                     eer_permutation_pvalue, loop_eer_from_points,
                     probit_csv_lines_oracle)
from tdsv.errors import DegenerateError, DimensionError, NumericalError
from tdsv.metrics import (DetCurve, ScoredTrials, _eer_from_points, compute_det,
                          det_csv_lines, det_probit_csv_lines, summary_lines)

WORKED = ScoredTrials(np.array([0.9, 0.8, 0.7, 0.2, 0.6, 0.3, 0.1, 0.05]),
                      np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool))


def _random_trials(rng, quantize=False):
    n = int(rng.integers(4, 40))
    scores = rng.normal(size=n)
    if quantize:
        scores = np.round(scores, 1)  # force score ties across classes
    labels = np.zeros(n, dtype=bool)
    labels[: int(rng.integers(1, n))] = True
    rng.shuffle(labels)
    if labels.all() or not labels.any():
        labels[0] = ~labels[0]
    return ScoredTrials(scores, labels)


class TestScoredTrials:
    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ScoredTrials(np.zeros(3), np.zeros(2, dtype=bool))

    def test_empty(self):
        with pytest.raises(DimensionError):
            ScoredTrials(np.zeros(0), np.zeros(0, dtype=bool))

    def test_nonfinite(self):
        with pytest.raises(NumericalError):
            ScoredTrials(np.array([0.1, np.nan]), np.array([True, False]))

    def test_single_class_rejected_by_metrics(self):
        one_sided = ScoredTrials(np.array([0.1, 0.2]), np.array([True, True]))
        with pytest.raises(DegenerateError):
            compute_eer(one_sided)


class TestWorkedExample:
    def test_eer_is_quarter(self):
        assert compute_eer(WORKED) == 0.25

    def test_operating_points(self):
        det = compute_det(WORKED)
        by_threshold = {float(t): (float(pm), float(pf))
                        for t, pm, pf in zip(det.thresholds, det.p_miss,
                                             det.p_fa)}
        assert by_threshold[0.7] == (0.25, 0.0)
        assert by_threshold[0.6] == (0.25, 0.25)
        assert by_threshold[-np.inf] == (0.0, 1.0)
        assert by_threshold[np.inf] == (1.0, 0.0)

    def test_endpoint_thresholds_present(self):
        det = compute_det(WORKED)
        assert det.thresholds[0] == -np.inf
        assert det.thresholds[-1] == np.inf
        assert len(det.thresholds) == 8 + 2  # all scores distinct here

    def test_brute_force_agrees_exactly(self):
        assert brute_force_eer(WORKED) == compute_eer(WORKED)
        assert brute_force_min_dcf(WORKED) == compute_min_dcf(WORKED)


class TestEdgeCases:
    def test_identical_scores_give_chance(self):
        t = ScoredTrials(np.full(10, 0.5),
                         np.array([True] * 5 + [False] * 5))
        assert compute_eer(t) == 0.5
        assert compute_min_dcf(t) == 1.0
        assert len(compute_det(t).thresholds) == 3

    def test_perfect_separation(self):
        t = ScoredTrials(np.array([1.0, 2.0, 3.0, -1.0, -2.0]),
                         np.array([True, True, True, False, False]))
        assert compute_eer(t) == 0.0
        assert compute_min_dcf(t) == 0.0

    def test_inverted_system_is_worse_than_chance(self):
        t = ScoredTrials(np.array([0.1, 0.2, 0.9, 0.8]),
                         np.array([True, True, False, False]))
        assert compute_eer(t) == 1.0

    def test_bad_p_tar_rejected(self):
        with pytest.raises(DegenerateError):
            compute_min_dcf(WORKED, p_tar=0.0)
        with pytest.raises(DegenerateError):
            compute_min_dcf(WORKED, p_tar=1.0)


class TestAgainstBruteForce:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_eer_and_dcf_bit_equal(self, seed, quantize):
        trials = _random_trials(np.random.default_rng(seed), quantize)
        assert compute_eer(trials) == brute_force_eer(trials)
        assert (compute_min_dcf(trials, p_tar=1e-3)
                == brute_force_min_dcf(trials, p_tar=1e-3))
        # p_tar > 1/2: the normalizer is the (1 - p_tar) branch
        assert (compute_min_dcf(trials, p_tar=0.7)
                == brute_force_min_dcf(trials, p_tar=0.7))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_det_curves_identical(self, seed):
        trials = _random_trials(np.random.default_rng(seed), quantize=True)
        fast = compute_det(trials)
        slow = brute_force_det(trials)
        assert np.array_equal(fast.thresholds, slow.thresholds)
        assert np.array_equal(fast.p_miss, slow.p_miss)
        assert np.array_equal(fast.p_fa, slow.p_fa)


# many score ties, within and across classes
TIED_TRIALS = st.lists(st.tuples(st.integers(0, 4), st.booleans()),
                       min_size=2, max_size=40).filter(
    lambda rows: len({label for _, label in rows}) == 2)


class TestVectorizedAgainstLoops:
    """The array forms of the EER crossing and the probit DET lines give the
    bytes of the per-point loops kept in helpers."""

    FIXTURES = [WORKED,
                ScoredTrials(np.zeros(6), np.array([1, 0] * 3, dtype=bool)),
                ScoredTrials(np.array([3.0, 2.0, 1.0, 0.0]),
                             np.array([1, 1, 0, 0], dtype=bool)),
                ScoredTrials(np.array([3.0, 2.0, 1.0, 0.0]),
                             np.array([0, 0, 1, 1], dtype=bool))]

    @pytest.mark.parametrize("trials", FIXTURES)
    def test_fixtures(self, trials):
        det = compute_det(trials)
        eer = _eer_from_points(det.p_miss, det.p_fa)
        assert eer == loop_eer_from_points(det.p_miss, det.p_fa)
        assert eer == brute_force_eer(trials)
        assert det_probit_csv_lines(det) == probit_csv_lines_oracle(det)

    @given(TIED_TRIALS)
    @settings(max_examples=150, deadline=None)
    def test_tied_scores(self, rows):
        trials = ScoredTrials(np.array([s / 4.0 for s, _ in rows]),
                              np.array([label for _, label in rows]))
        det = compute_det(trials)
        eer = _eer_from_points(det.p_miss, det.p_fa)
        assert eer == loop_eer_from_points(det.p_miss, det.p_fa)
        assert eer == brute_force_eer(trials)
        assert det_probit_csv_lines(det) == probit_csv_lines_oracle(det)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_scores(self, seed):
        det = compute_det(_random_trials(np.random.default_rng(seed)))
        assert (_eer_from_points(det.p_miss, det.p_fa)
                == loop_eer_from_points(det.p_miss, det.p_fa))
        assert det_probit_csv_lines(det) == probit_csv_lines_oracle(det)

    @given(st.one_of(
        st.sampled_from(FIXTURES),
        TIED_TRIALS.map(lambda rows: ScoredTrials(
            np.array([s / 4.0 for s, _ in rows]),
            np.array([label for _, label in rows]))),
        st.integers(0, 10_000).map(
            lambda seed: _random_trials(np.random.default_rng(seed)))))
    @settings(max_examples=150, deadline=None)
    def test_det_csv_lines(self, trials):
        det = compute_det(trials)
        assert det_csv_lines(det) == det_csv_lines_oracle(det)

    def test_curves_that_never_cross(self):
        with pytest.raises(NumericalError, match="never cross"):
            _eer_from_points(np.array([0.0, 0.1]), np.array([1.0, 0.5]))


class TestInvariances:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_eer_in_unit_interval_and_det_monotone(self, seed):
        trials = _random_trials(np.random.default_rng(seed))
        eer = compute_eer(trials)
        assert 0.0 <= eer <= 1.0
        det = compute_det(trials)
        assert np.all(np.diff(det.p_miss) >= 0.0)
        assert np.all(np.diff(det.p_fa) <= 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_transforms_preserve_eer(self, seed):
        trials = _random_trials(np.random.default_rng(seed))
        eer = compute_eer(trials)
        affine = ScoredTrials(2.0 * trials.scores + 1.0, trials.labels)
        squashed = ScoredTrials(np.tanh(trials.scores), trials.labels)
        assert compute_eer(affine) == eer
        assert compute_eer(squashed) == eer

    def test_min_dcf_never_exceeds_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            trials = _random_trials(rng)
            assert 0.0 <= compute_min_dcf(trials) <= 1.0


class TestPermutationTest:
    def test_separable_scores_get_smallest_pvalue(self):
        scores = np.concatenate([np.linspace(1, 2, 30), np.linspace(-2, 0, 30)])
        labels = np.array([True] * 30 + [False] * 30)
        p = eer_permutation_pvalue(ScoredTrials(scores, labels),
                                   num_permutations=199, seed=0)
        assert p == pytest.approx(1.0 / 200.0)

    def test_random_scores_not_significant(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=60)
        labels = np.array([True] * 30 + [False] * 30)
        p = eer_permutation_pvalue(ScoredTrials(scores, labels),
                                   num_permutations=99, seed=1)
        assert p > 0.05

    def test_deterministic_given_seed(self):
        a = eer_permutation_pvalue(WORKED, num_permutations=49, seed=3)
        b = eer_permutation_pvalue(WORKED, num_permutations=49, seed=3)
        assert a == b


class TestReportLines:
    def test_det_csv(self):
        det = DetCurve(np.array([-np.inf, 0.5, np.inf]),
                       np.array([0.0, 0.25, 1.0]),
                       np.array([1.0, 0.5, 0.0]))
        lines = det_csv_lines(det)
        assert lines[0] == "threshold,p_miss,p_fa"
        assert lines[1] == "-inf,0.0,1.0"
        assert lines[2] == "0.5,0.25,0.5"

    def test_probit_csv_maps_half_to_zero(self):
        det = DetCurve(np.array([0.0]), np.array([0.5]), np.array([0.5]))
        lines = det_probit_csv_lines(det)
        assert lines[0] == "probit_p_fa,probit_p_miss"
        assert lines[1] == "0.0,0.0"

    def test_probit_endpoints_are_infinite(self):
        det = DetCurve(np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert det_probit_csv_lines(det)[1] == "inf,-inf"

    def test_summary(self):
        lines = summary_lines(WORKED, compute_det(WORKED))
        assert lines[0] == "eer=0.2500"
        assert lines[2] == "p_tar=0.001"
        assert lines[3] == "num_target=4"
        assert lines[4] == "num_nontarget=4"
