"""Scoring backend: WCCN, cosine, s-norm, logistic score fusion, PCA export.

All artifacts are fitted per phrase on background-speaker embeddings and are
immutable after fitting.  Embeddings are length-normalized before any
covariance estimation; cosine scoring itself is scale-invariant, so this
affects only the fitted transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import (DegenerateError, DimensionError, InsufficientDataError,
                     IterationLimitError, NumericalError,
                     RankDeficiencyError, TensorFormatError, UnknownIdError)

FUSION_TOL = 1e-8  # gradient max-norm at which the fusion fit has converged


@dataclass(frozen=True)
class FusionModel:
    weights: np.ndarray
    bias: float


def length_normalize(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateError("cannot length-normalize a zero or non-finite vector")
    return v / norm


def wccn_from_covariance(within: np.ndarray) -> np.ndarray:
    """The WCCN matrix B: regularize W to Wbar = W + I/2, invert, and take
    the lower-triangular Cholesky factor, so that B.T @ Wbar @ B = I and
    x -> B.T @ x whitens Wbar."""
    within = np.asarray(within, dtype=np.float64)
    d = within.shape[0]
    if within.shape != (d, d):
        raise DimensionError(f"covariance must be square, got {within.shape}")
    return np.linalg.cholesky(np.linalg.inv(within + 0.5 * np.eye(d)))


def fit_wccn(by_speaker: dict[str, np.ndarray], phrase_id: str = "") -> np.ndarray:
    """The WCCN matrix B of the within-class covariance averaged unweighted
    over speakers (biased, 1/N per speaker), on length-normalized
    embeddings."""
    if len(by_speaker) < 2:
        raise InsufficientDataError(
            f"wccn for phrase '{phrase_id}' needs >= 2 speakers, "
            f"got {len(by_speaker)}")
    accum = None
    for speaker in sorted(by_speaker):
        rows = np.asarray(by_speaker[speaker], dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise DimensionError(
                f"speaker '{speaker}' embeddings must be a nonempty matrix")
        normed = np.stack([length_normalize(r) for r in rows])
        centered = normed - normed.mean(axis=0)
        cov = centered.T @ centered / centered.shape[0]
        accum = cov if accum is None else accum + cov
    return wccn_from_covariance(accum / len(by_speaker))


def transform(b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``e`` (one vector or ``[n, d]`` rows) in the WCCN space of ``b``."""
    return np.asarray(e, dtype=np.float64) @ b


def cosine_score(e1: np.ndarray, e2: np.ndarray,
                 b: np.ndarray | None = None) -> float:
    """Cosine similarity of ``e1`` and ``e2`` in the WCCN space of matrix
    ``b``; with ``b=None`` both vectors are taken as already transformed."""
    u = e1 if b is None else transform(b, e1)
    v = e2 if b is None else transform(b, e2)
    # what np.linalg.norm computes for a 1-D float64 vector, without its
    # per-call overhead
    nu = math.sqrt(u.dot(u))
    nv = math.sqrt(v.dot(v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateError("zero-norm embedding after WCCN transform")
    return float(u.dot(v)) / (nu * nv)


def _unit_rows(b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """WCCN-transformed rows of ``e`` scaled to unit length."""
    x = transform(b, e)
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if not norms.all():
        raise DegenerateError("zero-norm embedding after WCCN transform")
    return x / norms[:, None]


def cohort_scores(e: np.ndarray, cohort: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine scores ``[n, n_cohort]`` in the WCCN space of matrix ``b`` of
    each row of the ``[n, d]`` segments ``e`` against every cohort row, as
    one product of length-normalized matrices."""
    if cohort.ndim != 2 or cohort.shape[0] < 2:
        raise InsufficientDataError("cohort needs at least 2 utterances")
    return _unit_rows(b, e) @ _unit_rows(b, cohort).T


def cohort_stats(e: np.ndarray, cohort: np.ndarray, b: np.ndarray):
    """Mean and deviation ``[n]`` of each ``[n, d]`` segment's cohort
    scores."""
    scores = cohort_scores(e, cohort, b)
    mu = scores.mean(axis=1)
    sigma = scores.std(axis=1)
    if not sigma.all():
        raise DegenerateError("degenerate cohort: zero score variance")
    return mu, sigma


def apply_snorm(s: float, enroll_stats: tuple[float, float],
                test_stats: tuple[float, float]) -> float:
    mu_e, sigma_e = enroll_stats
    mu_t, sigma_t = test_stats
    if sigma_e <= 0.0 or sigma_t <= 0.0:
        raise DegenerateError("s-norm requires positive cohort deviations")
    return 0.5 * ((s - mu_e) / sigma_e + (s - mu_t) / sigma_t)


def fit_fusion(scores: np.ndarray, labels: np.ndarray, *,
               max_iter: int = 200_000, l2: float = 0.0) -> FusionModel:
    """Logistic-regression fusion: BFGS on the mean binary negative
    log-likelihood (optionally ridge-penalized).

    Inputs are standardized internally for conditioning and the fitted
    weights are mapped back to the raw score scale.  Convergence means the
    gradient max-norm falls below FUSION_TOL.  On separable data with
    ``l2 = 0`` the likelihood has no maximizer, but the gradient still
    vanishes along the separating ray, so the fit returns a finite, very
    confident model rather than diverging; pass ``l2 > 0`` to keep weights
    moderate.  IterationLimitError marks a fit that did not converge.
    """
    # imported here, not at module level: scipy.optimize costs ~23 MB of RSS
    from scipy.optimize import minimize
    from scipy.special import expit

    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
        raise DimensionError(
            f"scores {scores.shape} do not pair with labels {labels.shape}")
    if labels.all() or not labels.any():
        raise DegenerateError("fusion fit needs both target and nontarget trials")
    mu = scores.mean(axis=0)
    sd = scores.std(axis=0)
    sd[sd == 0.0] = 1.0
    z = (scores - mu) / sd
    y = labels.astype(np.float64)

    def loss_and_grad(theta):
        w, b = theta[:-1], theta[-1]
        logits = z @ w + b
        # mean negative log-likelihood, numerically stable via softplus
        nll = (np.logaddexp(0.0, -logits) * y
               + np.logaddexp(0.0, logits) * (1.0 - y)).mean()
        residual = expit(logits) - y
        grad = np.append(z.T @ residual / len(y) + l2 * w, residual.mean())
        return nll + 0.5 * l2 * float(w @ w), grad

    fit = minimize(loss_and_grad, np.zeros(z.shape[1] + 1), jac=True,
                   method="BFGS",
                   options={"gtol": FUSION_TOL, "maxiter": max_iter})
    if not fit.success:
        raise IterationLimitError(
            f"fusion did not converge in {fit.nit} of {max_iter} iterations "
            f"(gradient max-norm {np.abs(fit.jac).max():.3e}): {fit.message}")
    w, b = fit.x[:-1], float(fit.x[-1])
    weights = w / sd
    bias = b - float((w * mu / sd).sum())
    if not np.any(weights != 0.0):
        raise DegenerateError("fusion fit produced all-zero weights")
    return FusionModel(weights, bias)


def apply_fusion(model: FusionModel, scores: np.ndarray) -> np.ndarray:
    """Fused scores ``[n]`` of an ``[n, systems]`` score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != model.weights.shape[0]:
        raise DimensionError(f"expected [n, {model.weights.shape[0]}] "
                             f"scores, got {scores.shape}")
    return scores @ model.weights + model.bias


def pca_project(embeddings: np.ndarray, k: int = 2) -> np.ndarray:
    """Center and project onto the top-k principal axes (SVD).

    Deficient trailing directions give all-zero coordinates; only fully
    degenerate data (every point identical) is rejected.  Component signs
    are fixed so the largest-magnitude loading is positive.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected [N, d] embeddings, got {x.shape}")
    n, d = x.shape
    if not 1 <= k <= d:
        raise DimensionError(f"k must lie in [1, {d}], got {k}")
    if n < k + 1:
        raise InsufficientDataError(f"need at least {k + 1} points, got {n}")
    centered = x - x.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    if singular[0] <= 0.0:
        raise RankDeficiencyError("all points identical; no principal axes")
    components = vt[:k].copy()
    for i in range(k):
        j = int(np.abs(components[i]).argmax())
        if components[i, j] < 0:
            components[i] = -components[i]
    return centered @ components.T


@dataclass(frozen=True)
class PhraseBackend:
    """Per-phrase scoring artifacts: WCCN matrix plus the s-norm cohort."""

    wccn: np.ndarray    # [d, d] WCCN matrix B (wccn_from_covariance)
    cohort: np.ndarray  # [n_cohort, d] raw embeddings in utterance-id order


def _embedding(records: dict, utt: str, kind: str, phrase: str | None = None,
               model: str | None = None):
    """The record of ``kind`` utterance ``utt``, checked to exist, to carry
    ``phrase`` when one is given, and to hold a vector whose squared norm is
    finite and nonzero (what length_normalize and cosine_score accept).
    Each failure names the utterance, and ``model`` when one is given."""
    rec = records.get(utt)
    if rec is not None:
        # an overflowing norm is named below, so numpy need not warn of it
        with np.errstate(over="ignore"):
            square = rec.vector.dot(rec.vector)
        if (phrase is None or rec.phrase_id == phrase) and 0.0 < square < math.inf:
            return rec
    name = f"{kind} utterance '{utt}'" + (
        f" of model '{model}'" if model is not None else "")
    if rec is None:
        raise UnknownIdError(f"{name} has no embedding")
    if phrase is not None and rec.phrase_id != phrase:
        raise InsufficientDataError(
            f"{name} is phrase '{rec.phrase_id}', not '{phrase}'")
    if not np.isfinite(rec.vector).all():
        raise NumericalError(f"{name} has a non-finite embedding")
    if square == math.inf:
        raise NumericalError(f"{name} has an embedding whose norm overflows")
    raise DegenerateError(f"{name} has a zero-norm embedding")


def fit_backends(records: dict, background_utts_by_phrase: dict[str, list[str]],
                 cohort_size: int = 0) -> dict[str, "PhraseBackend"]:
    """Fit one PhraseBackend per phrase from its background utterances.

    ``records`` maps utterance_id to an embedding record carrying speaker and
    phrase ids.  WCCN is fitted on every background utterance of the phrase.
    The s-norm cohort is all of them when ``cohort_size`` is 0, else the
    first ``cohort_size`` taken round-robin across speakers, each speaker's
    utterances in id order; cohort rows follow sorted ids.  An empty
    mapping is an InsufficientDataError: no backend could be saved.
    """
    if not background_utts_by_phrase:
        raise InsufficientDataError(
            "no background utterances to fit a backend on")
    backends = {}
    for phrase in sorted(background_utts_by_phrase):
        by_speaker: dict[str, list[str]] = {}
        for utt in sorted(background_utts_by_phrase[phrase]):
            rec = _embedding(records, utt, "background", phrase)
            by_speaker.setdefault(rec.speaker_id, []).append(utt)
        wccn = fit_wccn({s: np.stack([records[u].vector for u in utts])
                         for s, utts in by_speaker.items()}, phrase)
        # round-robin: every speaker's first utterance, then every second, ...
        turns = sorted((rank, utt) for utts in by_speaker.values()
                       for rank, utt in enumerate(utts))
        chosen = sorted(utt for _, utt in turns[:cohort_size or None])
        backends[phrase] = PhraseBackend(
            wccn, np.stack([records[u].vector for u in chosen]))
    return backends


def enroll_model_vector(utterance_vectors: list[np.ndarray]) -> np.ndarray:
    """Speaker-phrase model: mean of length-normalized utterance embeddings."""
    if not utterance_vectors:
        raise InsufficientDataError("enrollment model with no utterances")
    return np.stack([length_normalize(v) for v in utterance_vectors]).mean(axis=0)


def score_trials(table, records: dict, enroll_map: dict[str, list[str]],
                 backends: dict[str, "PhraseBackend"], *,
                 snorm: bool = True) -> list[float]:
    """Cosine scores of a ``TrialTable`` in WCCN space, optionally
    s-normalized per phrase.

    Phrase isolation is enforced: a trial's model, test utterance, and
    backend must all carry the trial's phrase id.  Each distinct (model,
    phrase) pair, then each distinct (test, phrase) pair, is checked in the
    order the table first names it, before any scoring; embeddings of
    another width than the phrase's backend are a DimensionError.  Each
    distinct model and test vector is then transformed into its phrase's
    WCCN space once; the s-norm statistics take one cohort product per
    phrase for its models and one for its test utterances, and each raw
    score is a scalar ``cosine_score`` of two transformed vectors.
    """
    model_phrase: dict[str, str] = {}
    model_vec: dict[str, np.ndarray] = {}
    for model, utts in enroll_map.items():
        recs = [_embedding(records, u, "enrollment", model=model) for u in utts]
        phrases = {r.phrase_id for r in recs}
        if len(phrases) != 1:
            raise InsufficientDataError(
                f"model '{model}' mixes phrases {sorted(phrases)}")
        model_phrase[model] = phrases.pop()
        model_vec[model] = enroll_model_vector([r.vector for r in recs])

    # per phrase, the vectors of the models and test utterances its trials
    # use, in the order the table first names them
    needed: dict[str, tuple[dict, dict]] = {}
    for model, phrase in dict.fromkeys(zip(table.enroll_ids, table.phrase_ids)):
        if phrase not in backends:
            raise UnknownIdError(f"no backend fitted for phrase '{phrase}'")
        if model not in model_vec:
            raise UnknownIdError(f"unknown enrollment model '{model}'")
        if model_phrase[model] != phrase:
            raise InsufficientDataError(
                f"model '{model}' is phrase '{model_phrase[model]}' but "
                f"trial says '{phrase}'")
        needed.setdefault(phrase, ({}, {}))[0][model] = model_vec[model]
    for test_id, phrase in dict.fromkeys(zip(table.test_ids, table.phrase_ids)):
        needed[phrase][1][test_id] = _embedding(records, test_id, "test",
                                                phrase).vector

    # per side (models, tests): each vector in WCCN space and its s-norm
    # statistics.  A model or test utterance carries one phrase, so its id
    # alone keys it.  One matvec per vector, as cosine_score(e1, e2, b)
    # does: a stacked product could round differently.
    moved: tuple[dict, dict] = ({}, {})
    stats: tuple[dict, dict] = ({}, {})
    for phrase, sides in needed.items():
        backend = backends[phrase]
        width = backend.wccn.shape[0]
        dim = next(iter(sides[0].values())).size
        if dim != width:
            raise DimensionError(
                f"phrase '{phrase}': embeddings have {dim} values, but its "
                f"backend was fitted on {width}")
        for vectors, side_moved, side_stats in zip(sides, moved, stats):
            side_moved.update((k, transform(backend.wccn, v))
                              for k, v in vectors.items())
            if snorm:
                mu, sigma = cohort_stats(np.stack(list(vectors.values())),
                                         backend.cohort, backend.wccn)
                side_stats.update(zip(vectors, zip(mu.tolist(), sigma.tolist())))

    model_wccn, test_wccn = moved
    raw = [cosine_score(model_wccn[m], test_wccn[t])
           for m, t in zip(table.enroll_ids, table.test_ids)]
    if not snorm:
        return raw
    model_stats, test_stats = stats
    return [apply_snorm(s, model_stats[m], test_stats[t])
            for m, t, s in zip(table.enroll_ids, table.test_ids, raw)]


def save_backends(path, backends: dict[str, "PhraseBackend"]) -> None:
    """Write ``backends`` as one directory artifact.  The manifest joins
    phrase ids with ',', so a phrase id that holds one, or an empty
    mapping, is a TensorFormatError before any file is written."""
    if not backends:
        raise TensorFormatError("cannot save backend: it holds no phrases")
    for phrase in backends:
        if "," in phrase:
            raise TensorFormatError(
                f"cannot save backend: phrase id '{phrase}' contains ','")
    tensors = {}
    for phrase in sorted(backends):
        tensors[f"{phrase}.wccn_matrix"] = backends[phrase].wccn
        tensors[f"{phrase}.cohort"] = backends[phrase].cohort
    fileio.write_tensor_dir(path, "svbackend", 4,
                            {"phrases": ",".join(sorted(backends))},
                            tensors, np.float64)


def load_backends(path) -> dict[str, "PhraseBackend"]:
    """Rebuild saved backends; a missing or mis-shaped field or tensor, a
    manifest that lists no phrases, or one of another version than
    ``svbackend 4`` (versions 1 to 3 must be refit) is a
    TensorFormatError."""
    fields, tensors = fileio.read_tensor_dir(path, "svbackend", 4)
    # tensors, not an empty 'phrases=', which also names the phrase id ''
    if not tensors:
        raise TensorFormatError(f"backend {path} lists no phrases")
    backends = {}
    try:
        for phrase in fields["phrases"].split(","):
            wccn = tensors[f"{phrase}.wccn_matrix"]
            cohort = tensors[f"{phrase}.cohort"]
            d = wccn.shape[0]
            if wccn.shape != (d, d) or cohort.shape[1:] != (d,):
                raise TensorFormatError(
                    f"backend {path} phrase '{phrase}' has shapes "
                    f"{wccn.shape} and {cohort.shape}, not (d, d) and (n, d)")
            backends[phrase] = PhraseBackend(wccn, cohort)
    except KeyError as exc:
        raise TensorFormatError(
            f"backend {path} has no field or tensor {exc}") from None
    return backends


def save_fusion(path, model: FusionModel) -> None:
    fileio.write_tensor_dir(path, "svfusion", 2,
                            {"bias": repr(model.bias),
                             "num_systems": str(model.weights.size)},
                            {"weights": model.weights}, np.float64)


def load_fusion(path) -> FusionModel:
    fields, tensors = fileio.read_tensor_dir(path, "svfusion", 2)
    try:
        weights = tensors["weights"]
        bias = float(fields["bias"])
        num_systems = int(fields["num_systems"])
    except (KeyError, ValueError) as exc:
        raise TensorFormatError(
            f"fusion model {path} has a missing or bad entry: {exc}") from None
    if weights.shape != (num_systems,):
        raise TensorFormatError(
            f"fusion model {path} has weights of shape {weights.shape} "
            f"for {num_systems} systems")
    return FusionModel(weights, bias)
