"""Detection metrics: DET operating points, EER, minimum detection cost.

Conventions, pinned because they change results on small trial sets:
  * a trial is accepted iff score >= threshold (ties accept);
  * DET thresholds are -inf, every distinct score ascending, +inf, so the
    accept-all and reject-all endpoints are always present;
  * P_miss = #(targets below threshold) / #targets,
    P_fa  = #(nontargets at or above threshold) / #nontargets;
  * EER interpolates linearly between the two operating points straddling
    the P_miss = P_fa crossing of the stepwise curve;
  * minDCF is normalized by the better of the accept-all / reject-all costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateError, DimensionError, NumericalError


@dataclass(frozen=True)
class ScoredTrials:
    """Parallel score/label arrays; label True marks a target trial."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=bool)
        if scores.ndim != 1 or scores.shape != labels.shape:
            raise DimensionError(
                f"scores {scores.shape} and labels {labels.shape} must be "
                "equal-length vectors")
        if scores.size == 0:
            raise DimensionError("empty trial set")
        if not np.all(np.isfinite(scores)):
            raise NumericalError("non-finite trial scores")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    def require_both_classes(self):
        if not self.labels.any() or self.labels.all():
            raise DegenerateError("need both target and nontarget trials")


@dataclass(frozen=True)
class DetCurve:
    """Operating points ordered by ascending threshold."""

    thresholds: np.ndarray
    p_miss: np.ndarray
    p_fa: np.ndarray


def compute_det(trials: ScoredTrials) -> DetCurve:
    trials.require_both_classes()
    tgt = np.sort(trials.scores[trials.labels])
    non = np.sort(trials.scores[~trials.labels])
    thresholds = np.concatenate(([-np.inf], np.unique(trials.scores), [np.inf]))
    p_miss = np.searchsorted(tgt, thresholds, side="left") / tgt.size
    p_fa = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    return DetCurve(thresholds, p_miss, p_fa)


def _eer_from_points(p_miss, p_fa) -> float:
    # First index where the miss curve meets or passes the false-alarm
    # curve; linear interpolation from the previous point.
    d = p_miss - p_fa
    crossed = d >= 0.0
    if not crossed.any():
        raise NumericalError("miss and false-alarm curves never cross")
    i = int(crossed.argmax())
    if i == 0 or d[i] == 0.0:
        return float(p_miss[i])
    t = d[i - 1] / (d[i - 1] - d[i])
    return float(p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1]))


def _min_dcf(det: DetCurve, p_tar: float) -> float:
    if not 0.0 < p_tar < 1.0:
        raise DegenerateError(f"p_tar must lie in (0, 1), got {p_tar}")
    costs = p_tar * det.p_miss + (1.0 - p_tar) * det.p_fa
    return float(costs.min() / min(p_tar, 1.0 - p_tar))


def _reprs_by_value(values: np.ndarray, fn=None) -> list[str]:
    """``repr`` of ``fn(v)`` for each value, formatted once per distinct
    value: a miss rate takes at most #targets + 1 values."""
    distinct, inverse = np.unique(values, return_inverse=True)
    if fn is not None:
        distinct = fn(distinct)
    reprs = [repr(v) for v in distinct.tolist()]
    return [reprs[i] for i in inverse.tolist()]


def det_csv_lines(det: DetCurve) -> list[str]:
    return ["threshold,p_miss,p_fa"] + [
        f"{th!r},{pm},{pf!r}" for th, pm, pf in zip(
            det.thresholds.tolist(), _reprs_by_value(det.p_miss),
            det.p_fa.tolist())]


def det_probit_csv_lines(det: DetCurve) -> list[str]:
    """Probit-warped coordinates; endpoint rates 0 and 1 map to infinities,
    which plotting code is expected to drop."""
    return ["probit_p_fa,probit_p_miss"] + [
        f"{pf!r},{pm}" for pf, pm in zip(ndtri(det.p_fa).tolist(),
                                         _reprs_by_value(det.p_miss, ndtri))]


def summary_lines(trials: ScoredTrials, det: DetCurve,
                  p_tar: float = 1e-3) -> list[str]:
    num_tgt = int(trials.labels.sum())
    return [
        f"eer={_eer_from_points(det.p_miss, det.p_fa):.4f}",
        f"min_dcf={_min_dcf(det, p_tar):.4f}",
        f"p_tar={p_tar!r}",
        f"num_target={num_tgt}",
        f"num_nontarget={trials.labels.size - num_tgt}",
    ]
