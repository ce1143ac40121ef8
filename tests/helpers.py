"""Independent oracles for cross-checking the library implementations.

Everything here is written the slow, obvious way (explicit loops, naive
summation) and must stay independent of the code under test: these functions
are the second route in every dual-route check.
"""

import math
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from tdsv.backend import cosine_score
from tdsv.errors import NumericalError, TableNumberError, TrialFormatError
from tdsv.features import SAMPLE_RATE
from tdsv.fileio import read_utf8
from tdsv.metrics import (DetCurve, ScoredTrials, _eer_from_points, _min_dcf,
                          compute_det)
from tdsv.trials import LABELS, CorpusEntry, EmbeddingRecord, TrialTable


def relative_error(a, b, floor=1e-12):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def numeric_gradient(fn, array, step=1e-5):
    """Central finite differences of a scalar function w.r.t. one array.

    Each entry is nudged in place through its index, so the nudge reaches
    whatever ``fn`` reads through ``array`` on any memory layout (a reshape
    of a non-contiguous view would silently nudge a copy)."""
    grad = np.zeros(array.shape)
    for i in np.ndindex(array.shape):
        orig = array[i]
        array[i] = orig + step
        up = fn()
        array[i] = orig - step
        down = fn()
        array[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    return grad


def same_pad_sizes(size, kernel, stride):
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2, out


def naive_conv2d(x, weight, bias, stride):
    """Direct cross-correlation sum over [N,H,W,Cin] with same-style padding."""
    n, h, w, cin = x.shape
    cout, cin_w, kh, kw = weight.shape
    assert cin == cin_w
    sh, sw = stride if isinstance(stride, tuple) else (stride, stride)
    pt, _, out_h = same_pad_sizes(h, kh, sh)
    pl, _, out_w = same_pad_sizes(w, kw, sw)
    out = np.zeros((n, out_h, out_w, cout), dtype=np.float64)
    for b in range(n):
        for oy in range(out_h):
            for ox in range(out_w):
                for oc in range(cout):
                    acc = 0.0
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = oy * sh + ky - pt
                            ix = ox * sw + kx - pl
                            if 0 <= iy < h and 0 <= ix < w:
                                for ic in range(cin):
                                    acc += x[b, iy, ix, ic] * weight[oc, ic, ky, kx]
                    out[b, oy, ox, oc] = acc + bias[oc]
    return out


def naive_dft_magnitudes(frame, n):
    """Quadratic-time real-input DFT magnitudes, bins 0..n//2."""
    frame = np.asarray(frame, dtype=np.float64)
    padded = np.zeros(n)
    padded[:frame.size] = frame
    mags = []
    for k in range(n // 2 + 1):
        re = sum(padded[t] * np.cos(-2.0 * np.pi * k * t / n) for t in range(n))
        im = sum(padded[t] * np.sin(-2.0 * np.pi * k * t / n) for t in range(n))
        mags.append(np.hypot(re, im))
    return np.array(mags)


def direct_synthesize_utterance(voice, phrase, spec, rng):
    """The synthesizer's harmonic sum taken directly: sin over the whole
    [samples, harmonics] grid times a per-sample gain envelope.  Draws from
    ``rng`` in the same order as ``synth.synthesize_utterance``."""
    duration = spec.base_duration * rng.uniform(0.95, 1.1)
    total = int(round(duration * SAMPLE_RATE))
    f0 = voice.f0 * rng.uniform(0.97, 1.03)
    formant_jitter = rng.uniform(0.98, 1.02, size=len(voice.formants))

    num_harmonics = int((SAMPLE_RATE / 2 - 200.0) // f0)
    freqs = f0 * np.arange(1, num_harmonics + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, num_harmonics)

    # per-segment harmonic gains from Gaussian formant resonances
    gains = np.empty((len(phrase.duration_weights), num_harmonics))
    for si, scales in enumerate(phrase.formant_scales):
        g = np.full(num_harmonics, 0.01)
        for (center, bw, amp, scale, jit) in zip(
                voice.formants, voice.bandwidths, voice.amplitudes,
                scales, formant_jitter):
            g += amp * np.exp(-0.5 * ((freqs - center * scale * jit) / bw) ** 2)
        gains[si] = g

    weights = np.asarray(phrase.duration_weights)
    ends = np.floor(np.cumsum(weights) / weights.sum() * total).astype(int)
    ends[-1] = total
    lengths = np.diff(np.concatenate(([0], ends)))
    envelope = np.repeat(gains, lengths, axis=0)  # [total, K]

    t = np.arange(total) / SAMPLE_RATE
    wave = (envelope * np.sin(2.0 * np.pi * freqs * t[:, None] + phases)).sum(axis=1)
    peak = np.abs(wave).max()
    if peak > 0:
        wave = 0.7 * wave / peak
    return wave + rng.normal(0.0, spec.noise_level, total)


def brute_force_det(trials: ScoredTrials) -> DetCurve:
    trials.require_both_classes()
    scores = [float(s) for s in trials.scores]
    labels = [bool(b) for b in trials.labels]
    num_tgt = sum(1 for b in labels if b)
    num_non = len(labels) - num_tgt
    thresholds = [float("-inf")] + sorted(set(scores)) + [float("inf")]
    p_miss, p_fa = [], []
    for th in thresholds:
        misses = sum(1 for s, b in zip(scores, labels) if b and s < th)
        fas = sum(1 for s, b in zip(scores, labels) if not b and s >= th)
        p_miss.append(misses / num_tgt)
        p_fa.append(fas / num_non)
    return DetCurve(np.array(thresholds), np.array(p_miss), np.array(p_fa))


def brute_force_eer(trials: ScoredTrials) -> float:
    det = brute_force_det(trials)
    return loop_eer_from_points(det.p_miss, det.p_fa)


def loop_eer_from_points(p_miss, p_fa) -> float:
    """EER from DET points by a scan for the first index where the miss
    curve meets or passes the false-alarm curve, interpolating linearly from
    the point before it."""
    p_miss = [float(v) for v in p_miss]
    p_fa = [float(v) for v in p_fa]
    for i in range(len(p_miss)):
        d = p_miss[i] - p_fa[i]
        if d >= 0.0:
            if i == 0 or d == 0.0:
                return p_miss[i]
            d_prev = p_miss[i - 1] - p_fa[i - 1]
            t = d_prev / (d_prev - d)
            return p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1])
    raise NumericalError("miss and false-alarm curves never cross")


def brute_force_min_dcf(trials: ScoredTrials, p_tar: float = 1e-3) -> float:
    det = brute_force_det(trials)
    best = min(p_tar * float(pm) + (1.0 - p_tar) * float(pf)
               for pm, pf in zip(det.p_miss, det.p_fa))
    return best / min(p_tar, 1.0 - p_tar)


def det_csv_lines_oracle(det: DetCurve) -> list[str]:
    """DET lines with one repr per point and rate."""
    lines = ["threshold,p_miss,p_fa"]
    for th, pm, pf in zip(det.thresholds, det.p_miss, det.p_fa):
        lines.append(f"{float(th)!r},{float(pm)!r},{float(pf)!r}")
    return lines


def probit_csv_lines_oracle(det: DetCurve) -> list[str]:
    """Probit DET lines with one ndtri call per rate."""
    lines = ["probit_p_fa,probit_p_miss"]
    for pm, pf in zip(det.p_miss, det.p_fa):
        lines.append(f"{float(ndtri(pf))!r},{float(ndtri(pm))!r}")
    return lines


def cohort_scores_oracle(e, cohort, b):
    """One segment's s-norm cohort scores, one scalar cosine_score per row."""
    return np.array([cosine_score(e, row, b) for row in cohort])


def cohort_stats_oracle(e, cohort, b):
    scores = cohort_scores_oracle(e, cohort, b)
    return float(scores.mean()), float(scores.std())


def pca_variance_oracle(data, k):
    """Top-k variance from a dense eigendecomposition of the covariance."""
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / centered.shape[0]
    eigvals = np.linalg.eigvalsh(cov)
    return float(np.sort(eigvals)[::-1][:k].sum())


def loop_im2col(xpad, kernel, stride, out_h, out_w):
    """Conv patch rows [N*out_h*out_w, kh*kw*C], columns in (i, j, c) order,
    filled by one strided slice per kernel cell."""
    n, _, _, c = xpad.shape
    kh, kw = kernel
    sh, sw = stride
    cols = np.empty((n, out_h, out_w, kh, kw, c), dtype=xpad.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = xpad[:, i:i + sh * out_h:sh,
                                          j:j + sw * out_w:sw, :]
    return cols.reshape(n * out_h * out_w, kh * kw * c)


def fold_conv_input_grad(conv, grad_out):
    """A conv's input gradient from one [rows, kh*kw*cin] product of
    grad_out with the transposed weight matrix, whose (i, j) column blocks
    are folded into the padded gradient in window scan order.  Reads the
    padded input and its crop from ``conv``'s forward cache and changes
    nothing in it."""
    xpad, crop, _ = conv._cache
    n, out_h, out_w, _ = grad_out.shape
    _, cin, kh, kw = conv.weight.shape
    sh, sw = conv.stride
    g2 = grad_out.reshape(n * out_h * out_w, -1)
    gcols = (g2 @ conv._weight_matrix().T).reshape(n, out_h, out_w, kh, kw, cin)
    gxpad = np.zeros_like(xpad)
    for i in range(kh):
        for j in range(kw):
            gxpad[:, i:i + sh * out_h:sh, j:j + sw * out_w:sw, :] += gcols[:, :, :, i, j, :]
    return gxpad[crop]


def window_maxpool(x, kernel, stride):
    """Same-padded max pooling through a full [N,oh,ow,kh*kw,C] window
    tensor: (out, argmax), argmax the first maximal cell index i*kw + j."""
    n, h, w, c = x.shape
    kh, kw = kernel
    sh, sw = stride
    pt, pb, out_h = same_pad_sizes(h, kh, sh)
    pl, pr, out_w = same_pad_sizes(w, kw, sw)
    xpad = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=-np.inf)
    windows = np.empty((n, out_h, out_w, kh * kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            windows[:, :, :, i * kw + j, :] = xpad[:, i:i + sh * out_h:sh,
                                                   j:j + sw * out_w:sw, :]
    argmax = windows.argmax(axis=3)
    out = np.take_along_axis(windows, argmax[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, argmax


def gemv_channel_sums(a):
    """Per-channel sums of a [..., C] array as a row of ones times the
    [rows, C] matrix: the summation the library's kernels use."""
    rows = a.reshape(-1, a.shape[-1])
    return np.ones(rows.shape[0], a.dtype) @ rows


def fsum_channel_sums(a):
    """Correctly rounded per-channel sums of a [..., C] array."""
    rows = a.reshape(-1, a.shape[-1])
    return np.array([math.fsum(col) for col in rows.T], dtype=a.dtype)


def batchnorm_train_formulas(x, gamma, beta, eps, grad_out, sums=gemv_channel_sums):
    """Train-mode batch norm written as plain array expressions, with each
    per-channel sum taken by ``sums``:
    (out, mean, var, grad_x, grad_gamma, grad_beta)."""
    m = x.size // x.shape[-1]
    mean = sums(x) / m
    var = sums(np.square(x - mean)) / m
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    out = gamma * xhat + beta
    dxhat = grad_out * gamma
    grad_x = (inv_std / m) * (m * dxhat - sums(dxhat) - xhat * sums(dxhat * xhat))
    return (out, mean, var, grad_x, sums(grad_out * xhat), sums(grad_out))


def gradient_ascent_fusion(scores, labels, *, tol=1e-8, max_iter=200_000,
                           l2=0.0):
    """(weights, bias) of logistic-regression fusion by plain gradient ascent
    on the mean log-likelihood minus the ridge term, with a step-doubling
    line search, on standardized scores mapped back to the raw scale."""
    scores = np.asarray(scores, dtype=np.float64)
    mu = scores.mean(axis=0)
    sd = scores.std(axis=0)
    sd[sd == 0.0] = 1.0
    z = (scores - mu) / sd
    y = np.asarray(labels, dtype=np.float64)
    n, k = z.shape

    def objective(w, b):
        logits = z @ w + b
        ll = -(np.logaddexp(0.0, -logits) * y
               + np.logaddexp(0.0, logits) * (1.0 - y)).mean()
        return ll - 0.5 * l2 * float(w @ w)

    w = np.zeros(k)
    b = 0.0
    step = 1.0
    value = objective(w, b)
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(-(z @ w + b)))
        grad_w = z.T @ (y - p) / n - l2 * w
        grad_b = float((y - p).mean())
        if max(float(np.abs(grad_w).max()), abs(grad_b)) < tol:
            return w / sd, b - float((w * mu / sd).sum())
        while step > 1e-16:
            cand = objective(w + step * grad_w, b + step * grad_b)
            if cand > value:
                w = w + step * grad_w
                b = b + step * grad_b
                value = cand
                step *= 2.0
                break
            step *= 0.5
        else:
            raise RuntimeError("fusion line search stalled")
    raise RuntimeError(f"fusion did not converge in {max_iter} iterations")


# The library's EER and minDCF as one call each, built from the same parts
# that ``summary_lines`` uses.  These are the routes under test, not oracles.
def compute_eer(trials: ScoredTrials) -> float:
    det = compute_det(trials)
    return _eer_from_points(det.p_miss, det.p_fa)


def compute_min_dcf(trials: ScoredTrials, p_tar: float = 1e-3) -> float:
    return _min_dcf(compute_det(trials), p_tar)


def eer_permutation_pvalue(trials: ScoredTrials, num_permutations: int = 199,
                           seed: int = 0) -> float:
    """One-sided p-value for 'EER is below chance': the fraction of label
    permutations whose EER is at most the observed one, with the +1
    correction that counts the observed assignment itself.  A test statistic
    over the library's ``compute_eer``, not an oracle for it."""
    observed = compute_eer(trials)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(num_permutations):
        permuted = ScoredTrials(trials.scores, rng.permutation(trials.labels))
        if compute_eer(permuted) <= observed:
            hits += 1
    return (1 + hits) / (1 + num_permutations)


def write_training_log(path, history) -> None:
    """The whole training log of ``history`` (EpochStats) written at once:
    a header, then one row per epoch with six-decimal loss and accuracy,
    each line ending in CRLF as Python's csv writer ends it."""
    lines = ["epoch,loss,accuracy"] + [
        f"{s.epoch},{s.loss:.6f},{s.accuracy:.6f}" for s in history]
    Path(path).write_bytes("".join(ln + "\r\n" for ln in lines).encode())


# Table readers that build and check one row at a time, reporting the first
# fault of any kind in line order.  The library parses whole columns; these
# are the second route for its results and for its error messages.

def _rows(path, expected_fields: int):
    text = read_utf8(path, TrialFormatError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != expected_fields:
            raise TrialFormatError(
                f"{path}:{lineno}: expected {expected_fields} fields, "
                f"got {len(fields)}")
        yield fields


def trial_table(rows) -> TrialTable:
    """A TrialTable from (model, test, phrase, label) rows."""
    columns = ([], [], [], [])
    for row in rows:
        for column, field in zip(columns, row):
            column.append(field)
    return TrialTable(*columns)


def _trial_row(path, fields, seen):
    if fields[3] not in LABELS:
        raise TrialFormatError(f"unknown trial label '{fields[3]}'")
    key = tuple(fields[:3])
    if key in seen:
        raise TrialFormatError(f"duplicate trial {key} in {path}")
    seen.add(key)
    return key


def read_trials_by_row(path) -> TrialTable:
    rows = []
    seen = set()
    for fields in _rows(path, 4):
        _trial_row(path, fields, seen)
        rows.append(fields)
    return trial_table(rows)


def read_scores_by_row(path) -> tuple[TrialTable, list[float]]:
    """A score file's trials and its scores, parsed one line at a time."""
    rows, scores = [], []
    seen = set()
    for fields in _rows(path, 5):
        key = _trial_row(path, fields, seen)
        try:
            scores.append(float(fields[4]))
        except ValueError:
            raise TableNumberError(
                f"{path}: bad score '{fields[4]}' for trial {key}") from None
        rows.append(fields[:4])
    return trial_table(rows), scores


def read_corpus_by_row(path) -> list[CorpusEntry]:
    entries = []
    seen = set()
    for fields in _rows(path, 5):
        entry = CorpusEntry(*fields)
        if entry.utterance_id in seen:
            raise TrialFormatError(
                f"duplicate utterance '{entry.utterance_id}' in {path}")
        seen.add(entry.utterance_id)
        entries.append(entry)
    return entries


def read_enroll_map_by_row(path) -> dict[str, list[str]]:
    mapping: dict[str, list[str]] = {}
    for model_id, utt_id in _rows(path, 2):
        utts = mapping.setdefault(model_id, [])
        if utt_id in utts:
            raise TrialFormatError(
                f"duplicate enrollment ({model_id}, {utt_id}) in {path}")
        utts.append(utt_id)
    return mapping


def read_embeddings_by_row(path) -> dict[str, EmbeddingRecord]:
    records: dict[str, EmbeddingRecord] = {}
    dim = None
    for fields in _rows(path, 4):
        utt, speaker, phrase, packed = fields
        if utt in records:
            raise TrialFormatError(f"duplicate embedding for '{utt}' in {path}")
        try:
            vector = np.array(packed.split(), dtype=np.float64)
        except ValueError as exc:
            raise TableNumberError(
                f"{path}: embedding for '{utt}' has a bad value ({exc})") from None
        if dim is None:
            dim = vector.size
        elif vector.size != dim:
            raise TrialFormatError(
                f"embedding for '{utt}' has {vector.size} values, "
                f"others have {dim}")
        records[utt] = EmbeddingRecord(utt, speaker, phrase, vector)
    return records


def golden_environment() -> dict[str, str]:
    """numpy version, build BLAS, and the highest CPU dispatch target: the
    desk run's golden bytes hold only where numpy and the BLAS accumulate
    alike.  A numpy older than 2.0 has neither probe, so only its version is
    given."""
    try:
        from numpy._core import _multiarray_umath as umath
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, TypeError):
        return {"numpy": np.__version__}
    targets = [t for t in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "cpu_dispatch": targets[-1] if targets else "baseline"}
