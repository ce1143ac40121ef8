"""Command-line driver: one shared small pipeline plus error paths.

The pipeline fixture runs the desk sequence of
``scripts/run_desk_pipeline.py`` (its ``run_desk``: synth -> train -> embed
-> score and eval of both splits, eval scored with dev's backend) once on a
miniature corpus, then ``fuse`` and ``project``; individual tests assert on
the artifacts and exit codes.  Error cases call main() directly and check
the one-line ``error:`` contract.
"""

import os
import shutil
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from run_desk_pipeline import run_desk
from tdsv import cli
from tdsv.cli import main
from tdsv.config import HEADER, PipelineConfig


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    run_desk(root, corpus_seed=5, train_seed=0, speakers=6, utterances=8,
             config=PipelineConfig(epochs=2, batch_size=8, learning_rate=0.0003))
    corpus, run = root / "corpus", root / "run"
    for argv in (
            ["--config", str(root / "pipeline.cfg"),
             "--output-dir", str(run / "fused"), "fuse",
             "--dev", str(run / "dev" / "scores.tsv"),
             "--inputs", str(run / "eval" / "scores.tsv")],
            ["--output-dir", str(run), "project",
             "--embeddings", str(run / "embeddings.tsv")]):
        assert main(argv) == 0, argv
    return corpus, run


class TestPipelineArtifacts:
    def test_corpus_tree(self, pipeline):
        corpus, _ = pipeline
        assert (corpus / "corpus.tsv").exists()
        assert (corpus / "enroll.tsv").exists()
        assert (corpus / "trials_dev.tsv").exists()
        assert (corpus / "trials_eval.tsv").exists()
        assert len(list((corpus / "wav").rglob("*.wav"))) == 48

    def test_train_artifacts(self, pipeline):
        _, run = pipeline
        assert (run / "model" / "manifest.txt").exists()
        assert (run / "checkpoints" / "epoch_002" / "manifest.txt").exists()
        log = (run / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,accuracy"
        assert len(log) == 3

    def test_embeddings_cover_corpus(self, pipeline):
        corpus, run = pipeline
        from tdsv.trials import read_corpus, read_embeddings

        records = read_embeddings(run / "embeddings.tsv")
        entries = read_corpus(corpus / "corpus.tsv")
        assert set(records) == {e.utterance_id for e in entries}
        dim = next(iter(records.values())).vector.size
        assert dim == 128  # desk preset embedding width

    def test_scores_align_with_trials(self, pipeline):
        corpus, run = pipeline
        from helpers import read_scores_by_row
        from tdsv.trials import read_trials

        trials = read_trials(corpus / "trials_eval.tsv")
        table, scores = read_scores_by_row(run / "eval" / "scores.tsv")
        assert table == trials
        assert all(np.isfinite(s) for s in scores)

    def test_backend_artifact_reused(self, pipeline):
        _, run = pipeline
        assert (run / "dev" / "backend" / "manifest.txt").exists()
        # run_desk scores eval with dev's backend, so eval writes none
        assert not (run / "eval" / "backend").exists()

    def test_reused_backend_scores_like_fresh_fit(self, pipeline, tmp_path):
        corpus, run = pipeline
        assert main(["--config", str(run.parent / "pipeline.cfg"),
                     "--output-dir", str(tmp_path), "score",
                     "--corpus", str(corpus),
                     "--embeddings", str(run / "embeddings.tsv"),
                     "--trials", str(corpus / "trials_dev.tsv"),
                     "--backend", str(run / "dev" / "backend")]) == 0
        assert ((tmp_path / "scores.tsv").read_bytes()
                == (run / "dev" / "scores.tsv").read_bytes())

    def test_eval_reports(self, pipeline):
        _, run = pipeline
        summary = dict(ln.split("=", 1) for ln in
                       (run / "eval" / "summary.txt").read_text().splitlines())
        assert set(summary) == {"eer", "min_dcf", "p_tar", "num_target",
                                "num_nontarget"}
        assert 0.0 <= float(summary["eer"]) <= 1.0
        det = (run / "eval" / "det.csv").read_text().splitlines()
        assert det[0] == "threshold,p_miss,p_fa"
        assert len(det) > 3
        probit = (run / "eval" / "det_probit.csv").read_text().splitlines()
        assert probit[0] == "probit_p_fa,probit_p_miss"

    def test_fusion_artifacts(self, pipeline):
        _, run = pipeline
        from helpers import read_scores_by_row

        fused, _ = read_scores_by_row(run / "fused" / "fused_scores.tsv")
        evaled, _ = read_scores_by_row(run / "eval" / "scores.tsv")
        assert fused == evaled
        assert (run / "fused" / "fusion" / "manifest.txt").exists()

    def test_projection_csv(self, pipeline):
        _, run = pipeline
        lines = (run / "projection.csv").read_text().splitlines()
        assert lines[0] == "utterance_id,speaker_id,phrase_id,pc1,pc2"
        assert len(lines) == 1 + 48


class TestCliContracts:
    def test_eval_prints_one_line_metrics(self, pipeline, capsys):
        _, run = pipeline
        assert main(["--output-dir", str(run / "eval"), "eval",
                     "--scores", str(run / "eval" / "scores.tsv")]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        left, right = out.split(" ")
        assert left.startswith("eer=0.") and len(left) == len("eer=0.0000")
        assert right.startswith("min_dcf=")

    def test_eval_builds_one_det_curve(self, pipeline, tmp_path, monkeypatch):
        from tdsv import metrics

        real, calls = metrics.compute_det, []
        monkeypatch.setattr(metrics, "compute_det",
                            lambda trials: calls.append(trials) or real(trials))
        _, run = pipeline
        assert main(["--output-dir", str(tmp_path), "eval",
                     "--scores", str(run / "eval" / "scores.tsv")]) == 0
        assert len(calls) == 1

    def test_threads_flag_pins_blas_env(self, pipeline, capsys):
        _, run = pipeline
        assert main(["--threads", "3", "--output-dir", str(run / "eval"),
                     "eval", "--scores", str(run / "eval" / "scores.tsv")]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert os.environ["OMP_NUM_THREADS"] == "3"
        main(["--threads", "1", "--output-dir", str(run / "eval"),
              "eval", "--scores", str(run / "eval" / "scores.tsv")])

    def test_warns_when_numpy_loaded_with_other_thread_cap(
            self, tmp_path, monkeypatch, capsys):
        argv = ["--output-dir", str(tmp_path), "eval",
                "--scores", str(tmp_path / "absent.tsv")]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        main(argv)
        warnings = [ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("warning: ")]
        assert len(warnings) == 1
        assert "OPENBLAS_NUM_THREADS" in warnings[0]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        main(argv)
        assert "warning: " not in capsys.readouterr().err

    def test_missing_scores_file_errors(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "eval",
                   "--scores", str(tmp_path / "absent.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_traceback_switch(self, tmp_path, capsys, monkeypatch):
        argv = ["--output-dir", str(tmp_path), "eval",
                "--scores", str(tmp_path / "absent.tsv")]
        monkeypatch.delenv("TDSV_TRACEBACK", raising=False)
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        monkeypatch.setenv("TDSV_TRACEBACK", "1")
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("error: ") and "absent.tsv" in lines[0]
        assert lines[1] == "Traceback (most recent call last):"
        assert lines[-1].startswith("FileNotFoundError: ")

    def test_embed_truncated_checkpoint(self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        model = tmp_path / "model"
        shutil.copytree(run / "model", model)
        manifest = model / "manifest.txt"
        manifest.write_text("".join(
            ln for ln in manifest.read_text().splitlines(keepends=True)
            if "block2.bn1.running_var" not in ln))
        rc = main(["--output-dir", str(tmp_path / "out"), "embed",
                   "--corpus", str(corpus), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ")
        assert "no tensor 'block2.bn1.running_var'" in err
        assert not (tmp_path / "out" / "embeddings.tsv").exists()

    def test_embed_truncated_tensor_names_its_file(self, pipeline, tmp_path,
                                                   capsys):
        corpus, run = pipeline
        model = tmp_path / "model"
        shutil.copytree(run / "model", model)
        tensor = model / "stem.conv.weight.svt"
        tensor.write_bytes(tensor.read_bytes()[:-8])
        rc = main(["--output-dir", str(tmp_path / "out"), "embed",
                   "--corpus", str(corpus), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {tensor}: payload holds ")
        assert not (tmp_path / "out" / "embeddings.tsv").exists()

    def test_backend_tensor_bad_magic_names_its_file(self, pipeline, tmp_path,
                                                     capsys):
        corpus, run = pipeline
        backend = tmp_path / "backend"
        shutil.copytree(run / "dev" / "backend", backend)
        tensor = next(backend.glob("*.cohort.svt"))
        tensor.write_bytes(b"XXXX" + tensor.read_bytes()[4:])
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus),
                   "--embeddings", str(run / "embeddings.tsv"),
                   "--trials", str(corpus / "trials_eval.tsv"),
                   "--backend", str(backend)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {tensor}: bad magic: not an SVT1 or SVT8 "
                       "tensor file\n")
        assert not (tmp_path / "out" / "scores.tsv").exists()

    @staticmethod
    def _poke(tensor, index, value):
        """Rewrite one value of a saved tensor in its own value type."""
        from tdsv import fileio

        arr = fileio.read_tensor(tensor)
        arr[index] = value
        fileio.write_tensor(tensor, arr, arr.dtype)

    def _embed_fails(self, corpus, model, out, capsys):
        rc = main(["--output-dir", str(out), "embed",
                   "--corpus", str(corpus), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert not (out / "embeddings.tsv").exists()
        return err

    def test_embed_non_finite_weight_names_its_file(self, pipeline, tmp_path,
                                                    capsys):
        corpus, run = pipeline
        model = tmp_path / "model"
        shutil.copytree(run / "model", model)
        tensor = model / "stem.conv.weight.svt"
        self._poke(tensor, (0, 0, 3, 3), np.nan)
        err = self._embed_fails(corpus, model, tmp_path / "out", capsys)
        assert err == f"error: {tensor}: non-finite value\n"

    def test_embed_negative_running_variance_names_it(self, pipeline, tmp_path,
                                                      capsys):
        corpus, run = pipeline
        model = tmp_path / "model"
        shutil.copytree(run / "model", model)
        self._poke(model / "block1.bn1.running_var.svt", 0, -0.5)
        err = self._embed_fails(corpus, model, tmp_path / "out", capsys)
        assert err == (f"error: checkpoint {model} tensor "
                       "'block1.bn1.running_var' holds a negative variance\n")

    def test_embed_untrained_statistics_name_the_checkpoint(
            self, pipeline, tmp_path, capsys, monkeypatch):
        from tdsv import features

        corpus, run = pipeline
        model = tmp_path / "model"
        shutil.copytree(run / "model", model)
        manifest = model / "manifest.txt"
        text = manifest.read_text()
        assert "bn_initialized=1\n" in text
        manifest.write_text(text.replace("bn_initialized=1\n", "bn_initialized=0\n"))
        monkeypatch.setattr(features, "read_wav",
                            lambda path: pytest.fail(f"embed read {path}"))
        err = self._embed_fails(corpus, model, tmp_path / "out", capsys)
        assert err == (f"error: checkpoint {model} holds batch-norm statistics "
                       "that no training update has set (bn_initialized=0)\n")

    @pytest.mark.parametrize("kind", ["wccn_matrix", "cohort"])
    def test_backend_non_finite_tensor_names_its_file(self, pipeline, tmp_path,
                                                      capsys, kind):
        corpus, run = pipeline
        backend = tmp_path / "backend"
        shutil.copytree(run / "dev" / "backend", backend)
        tensor = next(backend.glob(f"*.{kind}.svt"))
        self._poke(tensor, (0, 0), np.nan)
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus),
                   "--embeddings", str(run / "embeddings.tsv"),
                   "--trials", str(corpus / "trials_eval.tsv"),
                   "--backend", str(backend)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {tensor}: non-finite value\n"
        assert not (tmp_path / "out" / "scores.tsv").exists()

    def test_embed_rejects_8khz_corpus(self, pipeline, tmp_path, capsys):
        from tdsv.trials import CorpusEntry, write_corpus

        _, run = pipeline
        corpus = tmp_path / "corpus"
        (corpus / "wav").mkdir(parents=True)
        with wave.open(str(corpus / "wav" / "u0.wav"), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(np.zeros(8000, dtype="<i2").tobytes())
        write_corpus(corpus / "corpus.tsv",
                     [CorpusEntry("u0", "s0", "p0", "eval", "wav/u0.wav")])
        rc = main(["--output-dir", str(tmp_path / "out"), "embed",
                   "--corpus", str(corpus), "--model", str(run / "model")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and "u0.wav" in err and "8000 Hz" in err
        assert not (tmp_path / "out" / "embeddings.tsv").exists()

    def test_eval_bad_score_names_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("m\tu\tp\ttgt\t0.5\nm\tv\tp\tnon\tabc\n")
        rc = main(["--output-dir", str(tmp_path), "eval",
                   "--scores", str(scores)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and str(scores) in err and "'abc'" in err

    def test_project_bad_embedding_names_file(self, tmp_path, capsys):
        emb = tmp_path / "embeddings.tsv"
        emb.write_text("u0\ts0\tp0\t1.0 2.0\nu1\ts0\tp0\t2.0 x1\n")
        rc = main(["--output-dir", str(tmp_path), "project",
                   "--embeddings", str(emb)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and str(emb) in err and "'x1'" in err

    def test_unlabeled_scores_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("m\tu\tp\tunk\t0.100000\n")
        rc = main(["--output-dir", str(tmp_path), "eval",
                   "--scores", str(scores)])
        assert rc == 2
        assert "no labeled trials" in capsys.readouterr().err

    def test_synth_rejects_tiny_corpus(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "synth", "--speakers", "3"])
        assert rc == 2
        assert "speakers" in capsys.readouterr().err

    def test_bad_config_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{HEADER}\npreset=enormous\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path),
                   "train", "--corpus", str(tmp_path)])
        assert rc == 2
        assert "preset" in capsys.readouterr().err

    def test_fuse_system_count_mismatch(self, pipeline, tmp_path, capsys):
        _, run = pipeline
        rc = main(["--output-dir", str(tmp_path), "fuse",
                   "--dev", str(run / "dev" / "scores.tsv"),
                   "--inputs", str(run / "eval" / "scores.tsv"),
                   str(run / "eval" / "scores.tsv")])
        assert rc == 2
        assert "one file per system" in capsys.readouterr().err

    def test_fuse_aligns_systems_on_trial_keys(self, pipeline, tmp_path, capsys):
        _, run = pipeline
        cfg = tmp_path / "fuse.cfg"
        cfg.write_text(f"{HEADER}\nfusion_l2=0.1\n")
        lines = {split: (run / split / "scores.tsv").read_text().splitlines()
                 for split in ("dev", "eval")}
        for order, take in (("same", lambda ls: ls), ("reversed", reversed)):
            for split, ls in lines.items():
                (tmp_path / f"{split}_{order}.tsv").write_text(
                    "\n".join(take(ls)) + "\n")
            assert main(["--config", str(cfg),
                         "--output-dir", str(tmp_path / order), "fuse",
                         "--dev", str(run / "dev" / "scores.tsv"),
                         str(tmp_path / f"dev_{order}.tsv"),
                         "--inputs", str(run / "eval" / "scores.tsv"),
                         str(tmp_path / f"eval_{order}.tsv")]) == 0
        # rows follow the first system's file; the second is matched by key
        assert ((tmp_path / "same" / "fused_scores.tsv").read_bytes()
                == (tmp_path / "reversed" / "fused_scores.tsv").read_bytes())

        (tmp_path / "short.tsv").write_text("\n".join(lines["eval"][1:]) + "\n")
        capsys.readouterr()
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "bad"),
                   "fuse", "--dev", str(run / "dev" / "scores.tsv"),
                   str(tmp_path / "dev_same.tsv"),
                   "--inputs", str(run / "eval" / "scores.tsv"),
                   str(tmp_path / "short.tsv")])
        assert rc == 2
        assert "covers different trials" in capsys.readouterr().err

    def test_project_too_few_points(self, tmp_path, capsys):
        emb = tmp_path / "embeddings.tsv"
        emb.write_text("u0\ts0\tp0\t1.0 2.0\nu1\ts0\tp0\t2.0 1.0\n")
        rc = main(["--output-dir", str(tmp_path), "project",
                   "--embeddings", str(emb)])
        assert rc == 2
        assert "points" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, value", [
        (["--threads", "0", "eval", "--scores", "x"], "0"),
        (["--threads", "-3", "eval", "--scores", "x"], "-3"),
        (["eval", "--scores", "x", "--threads", "0"], "0"),
        (["eval", "--scores", "x", "--threads=-3"], "-3"),
    ])
    def test_thread_cap_below_one_is_usage_error(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("tdsv")
        assert last.endswith(f"error: argument --threads: must be >= 1, got {value}")

    @pytest.mark.parametrize("argv", [
        ["--seed", "-1", "--output-dir", "d", "synth"],
        ["--output-dir", "d", "synth", "--seed=-1"],
        ["--seed=-1", "train", "--corpus", "c"],
        ["train", "--corpus", "c", "--seed", "-1"],
    ])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if "error:" in ln] == [err[-1]]
        assert err[-1].endswith("error: argument --seed: must be >= 0, got -1")

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--scores", "x", "--frobnicate"])
        assert exc.value.code == 2


class TestErrorTyping:
    """Only toolkit errors and OS errors become the one-line ``error:``;
    anything else is a bug and keeps its traceback."""

    def test_plain_keyerror_propagates(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise KeyError("bug")

        monkeypatch.setitem(cli._COMMANDS, "eval", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["--output-dir", str(tmp_path), "eval", "--scores", "x"])
        assert "error:" not in capsys.readouterr().err

    def test_missing_enrollment_embedding_names_model_and_utterance(
            self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        model, utt = (corpus / "enroll.tsv").read_text().splitlines()[0].split("\t")
        emb = tmp_path / "embeddings.tsv"
        emb.write_text("".join(
            ln for ln in (run / "embeddings.tsv").read_text().splitlines(True)
            if not ln.startswith(utt + "\t")))
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus), "--embeddings", str(emb),
                   "--trials", str(corpus / "trials_dev.tsv"),
                   "--backend", str(run / "dev" / "backend")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ")
        assert f"'{utt}'" in err and f"'{model}'" in err

    @staticmethod
    def _one_error(capsys):
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
        return err

    @staticmethod
    def _bad_embedding(run, utt, path, value, every=False):
        """Copy of the run's embeddings with the last component of ``utt``'s
        row, or every component when ``every``, set to ``value``."""
        def row(ln):
            head, values = ln.rstrip("\n").rsplit("\t", 1)
            values = values.split()
            n = len(values) if every else 1
            return f"{head}\t{' '.join(values[:-n] + [value] * n)}\n"

        path.write_text("".join(
            row(ln) if ln.startswith(utt + "\t") else ln
            for ln in (run / "embeddings.tsv").read_text().splitlines(True)))
        return path

    def test_nonfinite_test_embedding_names_utterance(
            self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        utt = (corpus / "trials_eval.tsv").read_text().split("\t")[1]
        emb = self._bad_embedding(run, utt, tmp_path / "embeddings.tsv", "nan")
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus), "--embeddings", str(emb),
                   "--trials", str(corpus / "trials_eval.tsv"),
                   "--backend", str(run / "dev" / "backend")])
        assert rc == 2
        err = self._one_error(capsys)
        assert f"'{utt}' has a non-finite embedding" in err
        assert not (tmp_path / "out" / "scores.tsv").exists()

    def test_nonfinite_enrollment_embedding_names_utterance_and_model(
            self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        model, utt = (corpus / "enroll.tsv").read_text().splitlines()[0].split("\t")
        emb = self._bad_embedding(run, utt, tmp_path / "embeddings.tsv", "nan")
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus), "--embeddings", str(emb),
                   "--trials", str(corpus / "trials_dev.tsv"),
                   "--backend", str(run / "dev" / "backend")])
        assert rc == 2
        err = self._one_error(capsys)
        assert (f"enrollment utterance '{utt}' of model '{model}' has a "
                f"non-finite embedding") in err
        assert not (tmp_path / "out" / "scores.tsv").exists()

    def test_nonfinite_background_embedding_names_utterance(
            self, pipeline, tmp_path, capsys):
        from tdsv.trials import read_corpus

        corpus, run = pipeline
        utt = next(e.utterance_id for e in read_corpus(corpus / "corpus.tsv")
                   if e.split == "bg")
        emb = self._bad_embedding(run, utt, tmp_path / "embeddings.tsv", "nan")
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus), "--embeddings", str(emb),
                   "--trials", str(corpus / "trials_dev.tsv")])
        assert rc == 2
        err = self._one_error(capsys)
        assert f"background utterance '{utt}' has a non-finite embedding" in err
        assert not (tmp_path / "out" / "scores.tsv").exists()

    def test_project_nonfinite_embedding_names_utterance_and_file(
            self, pipeline, tmp_path, capsys):
        _, run = pipeline
        utt = sorted(ln.split("\t")[0] for ln in
                     (run / "embeddings.tsv").read_text().splitlines())[3]
        emb = self._bad_embedding(run, utt, tmp_path / "embeddings.tsv", "nan")
        rc = main(["--output-dir", str(tmp_path / "out"), "project",
                   "--embeddings", str(emb)])
        assert rc == 2
        err = self._one_error(capsys)
        assert f"{emb}: utterance '{utt}' has a non-finite embedding" in err
        assert not (tmp_path / "out" / "projection.csv").exists()

    @pytest.mark.parametrize("kind", ["enrollment", "background", "test"])
    def test_zero_embedding_names_utterance(self, pipeline, tmp_path, capsys,
                                            kind):
        from tdsv.trials import read_corpus

        corpus, run = pipeline
        model, enrolled = (corpus / "enroll.tsv").read_text().splitlines()[0].split("\t")
        bg = next(e.utterance_id for e in read_corpus(corpus / "corpus.tsv")
                  if e.split == "bg")
        test = (corpus / "trials_dev.tsv").read_text().split("\t")[1]
        reuse = ["--backend", str(run / "dev" / "backend")]
        utt, name, extra = {
            "enrollment": (enrolled, f"enrollment utterance '{enrolled}' of "
                                     f"model '{model}'", reuse),
            "background": (bg, f"background utterance '{bg}'", []),
            "test": (test, f"test utterance '{test}'", reuse)}[kind]
        emb = self._bad_embedding(run, utt, tmp_path / "embeddings.tsv", "0",
                                 every=True)
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus), "--embeddings", str(emb),
                   "--trials", str(corpus / "trials_dev.tsv"), *extra])
        assert rc == 2
        err = self._one_error(capsys)
        assert f"{name} has a zero-norm embedding" in err
        assert not (tmp_path / "out" / "scores.tsv").exists()

    def test_overflowing_embedding_is_one_stderr_line(self, pipeline, tmp_path):
        # a fresh process, so that any numpy warning reaches stderr as a
        # user would see it
        corpus, run = pipeline
        utt = (corpus / "trials_dev.tsv").read_text().split("\t")[1]
        emb = self._bad_embedding(run, utt, tmp_path / "embeddings.tsv", "1e200",
                                  every=True)
        src = Path(cli.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-W", "default", "-m", "tdsv.cli",
             "--output-dir", str(tmp_path / "out"), "score",
             "--corpus", str(corpus), "--embeddings", str(emb),
             "--trials", str(corpus / "trials_dev.tsv"),
             "--backend", str(run / "dev" / "backend")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.returncode == 2
        assert out.stderr == (f"error: test utterance '{utt}' has an embedding "
                              "whose norm overflows\n")

    def test_background_id_with_comma_scores_as_without(
            self, pipeline, tmp_path):
        # a saved backend keeps no utterance ids, so any bg id saves
        corpus, run = pipeline
        shutil.copytree(corpus, tmp_path / "corpus",
                        ignore=shutil.ignore_patterns("wav"))
        table = (tmp_path / "corpus" / "corpus.tsv").read_text()
        utt = next(ln.split("\t")[0] for ln in table.splitlines()
                   if ln.split("\t")[3] == "bg")
        (tmp_path / "corpus" / "corpus.tsv").write_text(
            table.replace(utt + "\t", f"{utt},x\t"))
        emb = tmp_path / "embeddings.tsv"
        emb.write_text((run / "embeddings.tsv").read_text().replace(
            utt + "\t", f"{utt},x\t"))
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(tmp_path / "corpus"), "--embeddings", str(emb),
                   "--trials", str(corpus / "trials_dev.tsv")])
        assert rc == 0
        assert ((tmp_path / "out" / "scores.tsv").read_bytes()
                == (run / "dev" / "scores.tsv").read_bytes())

    def test_score_without_background_fails_before_writing(
            self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        shutil.copytree(corpus, tmp_path / "corpus",
                        ignore=shutil.ignore_patterns("wav"))
        table = tmp_path / "corpus" / "corpus.tsv"
        table.write_text("".join(ln for ln in table.read_text().splitlines(True)
                                 if ln.split("\t")[3] != "bg"))
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(tmp_path / "corpus"),
                   "--embeddings", str(run / "embeddings.tsv"),
                   "--trials", str(corpus / "trials_dev.tsv")])
        assert rc == 2
        err = self._one_error(capsys)
        assert "no background utterances to fit a backend on" in err
        assert not (tmp_path / "out" / "backend").exists()
        assert not (tmp_path / "out" / "scores.tsv").exists()

    @pytest.mark.parametrize("command", ["train", "embed"])
    def test_short_wav_names_file(self, pipeline, tmp_path, capsys, command):
        from tdsv.trials import read_corpus

        corpus, run = pipeline
        shutil.copytree(corpus, tmp_path / "corpus")
        entry = next(e for e in read_corpus(corpus / "corpus.tsv")
                     if e.split == "bg")
        wav = tmp_path / "corpus" / entry.wav_path
        with wave.open(str(wav), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(np.zeros(100, dtype="<i2").tobytes())
        extra = (["--model", str(run / "model")] if command == "embed" else [])
        rc = main(["--config", str(run.parent / "pipeline.cfg"),
                   "--output-dir", str(tmp_path / "out"), command,
                   "--corpus", str(tmp_path / "corpus"), *extra])
        assert rc == 2
        err = self._one_error(capsys)
        assert (f"{wav}: signal of 100 samples is shorter than one "
                f"256-sample analysis window") in err
        assert not (tmp_path / "out").exists()

    def test_embedding_width_must_match_backend(self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        rows = [ln.split("\t") for ln in
                (run / "embeddings.tsv").read_text().splitlines()]
        emb = tmp_path / "embeddings.tsv"
        emb.write_text("".join("\t".join(r[:3] + [" ".join(r[3].split()[:64])])
                               + "\n" for r in rows))
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus), "--embeddings", str(emb),
                   "--trials", str(corpus / "trials_eval.tsv"),
                   "--backend", str(run / "dev" / "backend")])
        assert rc == 2
        err = self._one_error(capsys)
        assert "embeddings have 64 values, but its backend was fitted on 128" in err
        assert not (tmp_path / "out" / "scores.tsv").exists()

    @pytest.mark.parametrize("flag, value", [("--inputs", "nan"),
                                             ("--dev", "nan"), ("--dev", "inf")])
    def test_nonfinite_fuse_score_names_file(self, pipeline, tmp_path, capsys,
                                             flag, value):
        _, run = pipeline
        files = {"--dev": run / "dev" / "scores.tsv",
                 "--inputs": run / "eval" / "scores.tsv"}
        first, *rest = files[flag].read_text().splitlines(True)
        files[flag] = tmp_path / "bad.tsv"
        files[flag].write_text(first.rsplit("\t", 1)[0] + f"\t{value}\n"
                               + "".join(rest))
        rc = main(["--output-dir", str(tmp_path / "out"), "fuse",
                   "--dev", str(files["--dev"]),
                   "--inputs", str(files["--inputs"])])
        assert rc == 2
        err = self._one_error(capsys)
        assert f"{files[flag]}: non-finite score {value}" in err
        assert not (tmp_path / "out" / "fused_scores.tsv").exists()

    def test_nonfinite_eval_score_names_file_and_trial(self, pipeline,
                                                       tmp_path, capsys):
        _, run = pipeline
        first, second, *rest = (run / "dev" / "scores.tsv").read_text(
            ).splitlines(True)
        bad = tmp_path / "bad.tsv"
        bad.write_text(first + second.rsplit("\t", 1)[0] + "\tnan\n"
                       + "".join(rest))
        rc = main(["--output-dir", str(tmp_path / "out"), "eval",
                   "--scores", str(bad)])
        assert rc == 2
        key = tuple(second.split("\t")[:3])
        assert capsys.readouterr().err == (
            f"error: {bad}: non-finite score nan for trial {key}\n")
        assert not (tmp_path / "out" / "summary.txt").exists()

    def test_binary_trials_file(self, pipeline, tmp_path, capsys):
        corpus, run = pipeline
        trials = tmp_path / "trials.tsv"
        trials.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
        rc = main(["--output-dir", str(tmp_path / "out"), "score",
                   "--corpus", str(corpus),
                   "--embeddings", str(run / "embeddings.tsv"),
                   "--trials", str(trials)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and str(trials) in err

    def test_importing_cli_loads_no_numpy(self):
        # what lets --threads set the BLAS cap for the console script
        src = Path(cli.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, tdsv.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestSeparableFusionWarning:
    @staticmethod
    def _warnings(capsys):
        return [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("warning: ")]

    @staticmethod
    def _fuse(tmp_path, dev, config):
        assert main(["--config", str(config), "--output-dir",
                     str(tmp_path / "fused"), "fuse",
                     "--dev", str(dev), "--inputs", str(dev)]) == 0

    def test_pipeline_fuse_warns_once(self, pipeline, tmp_path, capsys):
        _, run = pipeline
        self._fuse(tmp_path, run / "dev" / "scores.tsv", run.parent / "pipeline.cfg")
        warnings = self._warnings(capsys)
        assert len(warnings) == 1
        assert "arbitrary" in warnings[0] and "fusion_l2 > 0" in warnings[0]

    @pytest.mark.parametrize("scores, l2, warns", [
        ((0.9, 0.2, 0.5, 0.1), 0.0, False),   # overlapping classes
        ((0.9, 0.8, 0.2, 0.1), 0.1, False),   # separable, ridge-penalized
        ((0.9, 0.8, 0.2, 0.1), 0.0, True),
    ])
    def test_warns_only_on_separable_unpenalized(self, tmp_path, capsys,
                                                  scores, l2, warns):
        dev = tmp_path / "dev.tsv"
        labels = ("tgt", "tgt", "non", "non")
        dev.write_text("".join(f"m\tu{i}\tp\t{lab}\t{s:.6f}\n"
                               for i, (s, lab) in enumerate(zip(scores, labels))))
        cfg = tmp_path / "fuse.cfg"
        cfg.write_text(f"{HEADER}\nfusion_l2={l2}\n")
        self._fuse(tmp_path, dev, cfg)
        assert len(self._warnings(capsys)) == int(warns)


class TestCohortSize:
    """`cohort_size` trims only the s-norm cohort: WCCN always sees every
    background utterance, and the cohort is taken round-robin over speakers
    (the sorted ids of the miniature corpus put all of one speaker first)."""

    def _score(self, pipeline, out, cohort_size):
        corpus, run = pipeline
        cfg = out / "score.cfg"
        out.mkdir(parents=True, exist_ok=True)
        cfg.write_text(f"{HEADER}\ncohort_size={cohort_size}\n")
        return main(["--config", str(cfg), "--output-dir", str(out), "score",
                     "--corpus", str(corpus), "--embeddings",
                     str(run / "embeddings.tsv"),
                     "--trials", str(corpus / "trials_dev.tsv")])

    def test_one_is_rejected_at_load(self, pipeline, tmp_path, capsys):
        assert self._score(pipeline, tmp_path, 1) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "cohort_size" in err[0]
        assert not (tmp_path / "backend").exists()

    @pytest.mark.parametrize("size", [3, 5])
    def test_small_cohort_spans_speakers(self, pipeline, tmp_path, size):
        from tdsv.backend import load_backends
        from helpers import read_scores_by_row
        from tdsv.trials import read_embeddings

        _, run = pipeline
        assert self._score(pipeline, tmp_path, size) == 0
        records = read_embeddings(run / "embeddings.tsv")
        utt_of = {r.vector.tobytes(): u for u, r in records.items()}
        assert len(utt_of) == len(records)
        small = load_backends(tmp_path / "backend")
        full = load_backends(run / "dev" / "backend")
        assert small.keys() == full.keys()
        for phrase, b in small.items():
            # each cohort row is, byte for byte, one utterance's embedding
            ids = [utt_of[row.tobytes()] for row in b.cohort]
            full_ids = [utt_of[row.tobytes()] for row in full[phrase].cohort]
            assert len(ids) == size
            assert ids == sorted(ids)
            assert {records[u].phrase_id for u in ids} == {phrase}
            speakers = {records[u].speaker_id for u in ids}
            assert len(speakers) == len({records[u].speaker_id
                                         for u in full_ids})
            assert np.array_equal(b.wccn, full[phrase].wccn)
        _, scores = read_scores_by_row(tmp_path / "scores.tsv")
        assert all(np.isfinite(s) for s in scores)

    def test_at_least_background_count_is_all(self, pipeline, tmp_path):
        _, run = pipeline
        assert self._score(pipeline, tmp_path, 10_000) == 0
        assert ((tmp_path / "scores.tsv").read_bytes()
                == (run / "dev" / "scores.tsv").read_bytes())
