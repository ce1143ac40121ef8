"""Acceptance gate: eight checks that pin the toolkit's headline behaviors.

Each test prints exactly one [PASS]/[FAIL] line with its tolerance so a log
scrape shows the verdicts even without the pytest summary.  The checks:

  1 architecture fidelity   stage shapes exact, parameter rows within 1%
  2 gradient suite          layers < 1e-4, end-to-end < 1e-3, 20+ seeds
  3 metric oracles          bit-equal to O(N^2) recount on 1000 instances
  4 desk pipeline           eval EER < 10%, below chance at 99% confidence
  5 score fusion            fused EER strictly below both input systems
  6 backend algebra         whitening identity 1e-6, s-norm/cosine laws
  7 feature fidelity        frame counts, naive DFT 1e-6, tiling, tone bin
  8 determinism             same-seed reruns byte-identical
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (brute_force_det, brute_force_eer, brute_force_min_dcf,
                     compute_eer, compute_min_dcf, eer_permutation_pvalue,
                     golden_environment, numeric_gradient, read_scores_by_row,
                     relative_error)
from tdsv import nn
from tdsv.backend import (apply_fusion, apply_snorm, cosine_score, fit_fusion,
                          wccn_from_covariance)
from tdsv.config import PipelineConfig
from tdsv.features import (FFT_LEN, FRAME_STEP, WINDOW_LEN,
                           compute_spectrogram, fit_length, frame_count)
from tdsv.metrics import ScoredTrials, compute_det
from tdsv.resnet import Network, NetworkConfig, build_network, count_parameters


def _verdict(capsys, ok, line):
    with capsys.disabled():
        print(("\n[PASS] " if ok else "\n[FAIL] ") + line, flush=True)
    return ok


# reference design budgets, thousands of parameters per row
BUDGETS_K = {"stem": 3.2,
             "block1": 74.1, "block2": 74.1, "block3": 230.1,
             "block4": 296.2, "block5": 919.8, "block6": 1182.2,
             "block7": 3674.7, "block8": 4723.7,
             "head": 50.0}
BUDGET_TOTAL_K = 11228.0

STAGE_SHAPES = [(129, 400, 64), (65, 200, 64),
                (65, 200, 64), (65, 200, 64), (33, 100, 128), (33, 100, 128),
                (17, 50, 256), (17, 50, 256), (9, 25, 512), (9, 25, 512)]

TINY = NetworkConfig(input_height=17, input_width=20, stem_channels=2,
                     block_channels=(2, 2, 4, 4), block_strides=(1, 1, 2, 1),
                     num_speakers=3)


def test_criterion_1_architecture_fidelity(capsys):
    from print_architecture import stage_shapes

    net = build_network(97, seed=0, preset="full")
    shapes = [shape for _, shape in stage_shapes(net)]
    shapes_ok = shapes == STAGE_SHAPES + [(512,), (97,)]

    rows, total = count_parameters(net)
    errors = {name: abs(count / 1000.0 - BUDGETS_K[name]) / BUDGETS_K[name]
              for name, count in rows}
    errors["total"] = abs(total / 1000.0 - BUDGET_TOTAL_K) / BUDGET_TOTAL_K
    worst = max(errors.values())
    rows_ok = set(dict(rows)) == set(BUDGETS_K) and worst < 0.01

    ok = _verdict(capsys, shapes_ok and rows_ok,
                  "criterion 1, architecture fidelity: 12 stage shapes exact; "
                  f"10 parameter rows and total within 1% of reference "
                  f"budgets (worst deviation {worst:.3%})")
    assert ok


def test_criterion_2_gradient_suite(capsys):
    started = time.monotonic()
    layer_errs, e2e_errs = [], []
    checks = 0

    def fd(layer_loss, arr, analytic, tol_bucket):
        nonlocal checks
        err = relative_error(analytic, numeric_gradient(layer_loss, arr,
                                                        step=1e-5),
                             floor=1e-8)
        tol_bucket.append(err)
        checks += 1

    for seed in range(20):
        rng = np.random.default_rng(seed)

        conv = nn.Conv2D(2, 3, 3, stride=int(rng.integers(1, 3)), rng=rng,
                         dtype=np.float64)
        conv.bias[:] = rng.normal(size=3)
        x = rng.normal(size=(2, 6, 5, 2))
        r = rng.normal(size=conv.forward(x).shape)
        loss = lambda: float((conv.forward(x) * r).sum())
        conv.zero_grad()
        conv.forward(x)
        gx = conv.backward(r)
        fd(loss, x, gx, layer_errs)
        fd(loss, conv.weight, conv.grad_weight, layer_errs)
        fd(loss, conv.bias, conv.grad_bias, layer_errs)

        bn = nn.BatchNorm(3, dtype=np.float64)
        bn.gamma[:] = rng.normal(1.0, 0.2, size=3)
        bn.beta[:] = rng.normal(size=3)
        xb = rng.normal(size=(3, 4, 2, 3))
        rb = rng.normal(size=xb.shape)
        loss = lambda: float((bn.forward(xb, train=True) * rb).sum())
        bn.zero_grad()
        bn.forward(xb, train=True)
        gx = bn.backward(rb)
        fd(loss, xb, gx, layer_errs)
        fd(loss, bn.gamma, bn.grad_gamma, layer_errs)
        fd(loss, bn.beta, bn.grad_beta, layer_errs)

        relu = nn.ReLU()
        xr = rng.normal(size=(4, 5))
        xr += 0.2 * np.sign(xr)
        rr = rng.normal(size=xr.shape)
        loss = lambda: float((relu.forward(xr) * rr).sum())
        relu.forward(xr)
        fd(loss, xr, relu.backward(rr), layer_errs)

        pool = nn.MaxPool(3, 2)
        xp = rng.normal(size=(2, 7, 6, 2))
        rp = rng.normal(size=pool.forward(xp).shape)
        loss = lambda: float((pool.forward(xp) * rp).sum())
        pool.forward(xp)
        fd(loss, xp, pool.backward(rp), layer_errs)

        gap = nn.GlobalAvgPool()
        xg = rng.normal(size=(2, 3, 4, 5))
        rg = rng.normal(size=(2, 5))
        loss = lambda: float((gap.forward(xg) * rg).sum())
        gap.forward(xg)
        fd(loss, xg, gap.backward(rg), layer_errs)

        dense = nn.Dense(5, 3, rng=rng, dtype=np.float64)
        dense.bias[:] = rng.normal(size=3)
        xd = rng.normal(size=(4, 5))
        rd = rng.normal(size=(4, 3))
        loss = lambda: float((dense.forward(xd) * rd).sum())
        dense.zero_grad()
        dense.forward(xd)
        gx = dense.backward(rd)
        fd(loss, xd, gx, layer_errs)
        fd(loss, dense.weight, dense.grad_weight, layer_errs)
        fd(loss, dense.bias, dense.grad_bias, layer_errs)

        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        _, grad = nn.softmax_cross_entropy(logits, labels)
        fd(lambda: nn.softmax_cross_entropy(logits, labels)[0],
           logits, grad, layer_errs)

        if seed % 4 == 0:  # five full end-to-end clones
            net = Network(TINY, seed=seed, dtype=np.float64)
            xe = rng.normal(size=(2, 17, 20, 1))
            ye = rng.integers(0, 3, size=2)

            def e2e_loss():
                return nn.softmax_cross_entropy(net.forward(xe, train=True),
                                                ye)[0]

            net.zero_grad()
            out = net.forward(xe, train=True)
            _, grad = nn.softmax_cross_entropy(out, ye)
            gx = net.backward(grad)
            grads = net.named_gradients()
            params = net.named_parameters()
            e2e_errs.append(relative_error(
                gx, numeric_gradient(e2e_loss, xe, step=1e-5), floor=1e-8))
            for name in ("stem.conv.weight", "block1.bn1.gamma",
                         "block3.proj.weight", "block4.conv2.weight",
                         "head.weight", "head.bias"):
                e2e_errs.append(relative_error(
                    grads[name], numeric_gradient(e2e_loss, params[name],
                                                  step=1e-5), floor=1e-8))
            checks += 7

    elapsed = time.monotonic() - started
    worst_layer = max(layer_errs)
    worst_e2e = max(e2e_errs)
    ok = _verdict(capsys,
                  worst_layer < 1e-4 and worst_e2e < 1e-3 and elapsed < 300.0,
                  f"criterion 2, gradient suite: {checks} finite-difference "
                  f"checks over 20 seeds (float64, step 1e-5); layer max rel "
                  f"err {worst_layer:.2e} < 1e-4; end-to-end max "
                  f"{worst_e2e:.2e} < 1e-3; {elapsed:.0f}s < 300s")
    assert ok


def test_criterion_3_metric_oracles(capsys):
    worked = ScoredTrials(np.array([0.9, 0.8, 0.7, 0.2, 0.6, 0.3, 0.1, 0.05]),
                          np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool))
    worked_ok = (compute_eer(worked) == 0.25
                 and brute_force_eer(worked) == 0.25)

    rng = np.random.default_rng(2024)
    mismatches = 0
    for i in range(1000):
        n = int(rng.integers(4, 201))
        scores = rng.normal(size=n)
        if i % 2 == 0:
            scores = np.round(scores, 1)  # heavy ties across both classes
        labels = np.zeros(n, dtype=bool)
        labels[: int(rng.integers(1, n))] = True
        rng.shuffle(labels)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        trials = ScoredTrials(scores, labels)
        if compute_eer(trials) != brute_force_eer(trials):
            mismatches += 1
        if compute_min_dcf(trials) != brute_force_min_dcf(trials):
            mismatches += 1
        if i % 25 == 0:
            fast, slow = compute_det(trials), brute_force_det(trials)
            if not (np.array_equal(fast.thresholds, slow.thresholds)
                    and np.array_equal(fast.p_miss, slow.p_miss)
                    and np.array_equal(fast.p_fa, slow.p_fa)):
                mismatches += 1

    ok = _verdict(capsys, worked_ok and mismatches == 0,
                  "criterion 3, metric oracles: EER and minDCF bit-equal to "
                  "the O(N^2) recount on 1000 random instances (N <= 200, "
                  f"ties included; {mismatches} mismatches); worked example "
                  "EER = 0.25 exactly")
    assert ok


def test_criterion_4_desk_pipeline(capsys, tmp_path):
    from run_desk_pipeline import digests, run_desk

    train_s = run_desk(tmp_path)["train"]
    run = tmp_path / "run"

    table, scores = read_scores_by_row(run / "eval" / "scores.tsv")
    trials = ScoredTrials(np.array(scores), np.array(table.labels) == "tgt")
    eer = compute_eer(trials)
    pvalue = eer_permutation_pvalue(trials, num_permutations=199, seed=0)

    # the golden bytes hold only where numpy and the BLAS accumulate alike
    golden = json.loads((Path(__file__).parent / "golden_desk.json").read_text())
    env = golden_environment()
    differs = [k for k, v in golden["environment"].items() if env.get(k) != v]
    if differs:
        golden_ok, golden_note = True, f"golden not checked: {differs[0]} differs"
    else:
        got = digests(tmp_path)
        moved = [name for name in sorted(got.keys() | golden["digests"].keys())
                 if got.get(name) != golden["digests"].get(name)]
        golden_ok = not moved
        golden_note = ("golden digests match" if golden_ok
                       else f"golden digests differ: {', '.join(moved)}")

    ok = _verdict(capsys, (eer < 0.10 and pvalue <= 0.01 and train_s < 1200.0
                           and golden_ok),
                  f"criterion 4, desk pipeline: eval-split EER {eer:.4f} < "
                  f"0.10; label-permutation p {pvalue:.4f} <= 0.01 (199 "
                  f"shuffles); training {train_s:.0f}s < 1200s at 30 epochs; "
                  f"{golden_note}")
    assert ok


def test_criterion_5_fusion_gain(capsys):
    rng = np.random.default_rng(55)
    n = 4000
    labels = np.arange(n) % 2 == 0
    latent = np.where(labels, 1.0, -1.0)
    # complementary systems: independent noise around the same latent truth
    scores = np.column_stack([latent + rng.normal(scale=1.6, size=n),
                              latent + rng.normal(scale=1.6, size=n)])
    half = n // 2
    model = fit_fusion(scores[:half], labels[:half])
    held_scores, held_labels = scores[half:], labels[half:]
    eer_1 = compute_eer(ScoredTrials(held_scores[:, 0], held_labels))
    eer_2 = compute_eer(ScoredTrials(held_scores[:, 1], held_labels))
    eer_f = compute_eer(ScoredTrials(apply_fusion(model, held_scores),
                                     held_labels))

    ok = _verdict(capsys, eer_f < eer_1 and eer_f < eer_2,
                  f"criterion 5, fusion gain: held-out fused EER {eer_f:.4f} "
                  f"strictly below both inputs ({eer_1:.4f}, {eer_2:.4f})")
    assert ok


def test_criterion_6_backend_algebra(capsys):
    rng = np.random.default_rng(66)
    worst_whiten = 0.0
    min_eig = np.inf
    for _ in range(25):
        d = int(rng.integers(2, 25))
        a = rng.normal(size=(d + 4, d))
        within = a.T @ a / (d + 4)
        b = wccn_from_covariance(within)
        # Wbar = W + I/2 from the input; B B.T = Wbar^-1, so the smallest
        # eigenvalue of Wbar is the reciprocal of the largest of B B.T
        worst_whiten = max(worst_whiten, float(np.abs(
            b.T @ (within + 0.5 * np.eye(d)) @ b - np.eye(d)).max()))
        min_eig = min(min_eig, 1.0 / float(np.linalg.eigvalsh(b @ b.T).max()))

    snorm_ok = all(apply_snorm(s, (0.0, 1.0), (0.0, 1.0)) == s
                   for s in (-2.0, -0.5, 0.0, 0.7, 3.0))

    t3 = wccn_from_covariance(np.eye(3))
    sym_ok, scale_ok = True, True
    for _ in range(50):
        a, b = rng.normal(size=(2, 3))
        sym_ok &= cosine_score(a, b, t3) == cosine_score(b, a, t3)
        scale_ok &= abs(cosine_score(5.0 * a, 0.2 * b, t3)
                        - cosine_score(a, b, t3)) < 1e-12

    ok = _verdict(capsys,
                  (worst_whiten < 1e-6 and min_eig >= 0.5 - 1e-9
                   and snorm_ok and sym_ok and scale_ok),
                  "criterion 6, backend algebra: whitening identity error "
                  f"{worst_whiten:.1e} < 1e-6 over 25 random covariances; "
                  f"min regularized eigenvalue {min_eig:.3f} >= 0.5; s-norm "
                  "exact identity on standard-normal stats; cosine symmetric "
                  "and scale-invariant (1e-12)")
    assert ok


def test_criterion_7_feature_fidelity(capsys):
    rng = np.random.default_rng(77)
    counts_ok = all(
        frame_count(length)
        == (length - WINDOW_LEN) // FRAME_STEP + 1
        for length in rng.integers(WINDOW_LEN, 200_000, size=200))

    from helpers import naive_dft_magnitudes
    frame = rng.normal(size=WINDOW_LEN) * np.blackman(WINDOW_LEN)
    dft_err = relative_error(np.abs(np.fft.rfft(frame, n=FFT_LEN)),
                             naive_dft_magnitudes(frame, FFT_LEN),
                             floor=1e-9)

    tile_ok = True
    for t in (1, 3, 199, 200, 201, 800, 1234):
        bins = rng.normal(size=(5, t))
        out = fit_length(bins, 200)
        tile_ok &= all(np.array_equal(out[:, j], bins[:, j % t])
                       for j in range(200))

    k = 32
    tone = np.sin(2 * np.pi * (16000.0 * k / FFT_LEN)
                  * np.arange(4096) / 16000.0)
    spec = compute_spectrogram(0.5 * tone)
    peak_bin = int(spec.bins[:, 0].argmax())

    ok = _verdict(capsys,
                  counts_ok and dft_err < 1e-6 and tile_ok and peak_bin == k,
                  "criterion 7, feature fidelity: frame counts match the "
                  "closed form on 200 random lengths; naive-DFT rel err "
                  f"{dft_err:.1e} < 1e-6; crop/tile obeys the (j mod T) "
                  f"identity; pure tone peaks at bin {peak_bin} == 32")
    assert ok


def test_criterion_8_determinism(capsys, tmp_path):
    from run_desk_pipeline import digests, run_desk

    runs = []
    for tag in ("a", "b"):
        run_desk(tmp_path / tag, corpus_seed=3, train_seed=1, speakers=6,
                 utterances=8, config=PipelineConfig(epochs=4, batch_size=8))
        runs.append(digests(tmp_path / tag))

    identical = [name for name in runs[0] if runs[0][name] == runs[1][name]]
    ok = _verdict(capsys, len(identical) == len(runs[0]),
                  "criterion 8, determinism: same-seed reruns of the desk "
                  f"sequence byte-identical in {len(identical)} of "
                  f"{len(runs[0])} digested outputs ({', '.join(identical)})")
    assert ok
