#!/usr/bin/env python3
"""Fast self-check of the benchmark harness (about a minute).

    python3 tdsvbench/selfcheck.py

Run from the root of a checkout.  Covers self-time arithmetic on a synthetic
span tree, the tracer's running aggregates and clean uninstall, the validity
of BENCHMARK.json, the output checks' float64 reference (it agrees with
the program, and catches deliberately broken kernels patched in for the
test), a tiny run of every workload in both trace modes, and the
refusal to run without the program's sources.
"""

import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracing import Tracer, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root 0-10 { a 1-4 { b 2-3 }, c 5-9 { d 6-7, e 7-8 } }
        spans = [(5, -1, "root", 0.0, 10.0), (0, 5, "a", 1.0, 4.0),
                 (1, 0, "b", 2.0, 3.0), (4, 5, "c", 5.0, 9.0),
                 (3, 4, "d", 6.0, 7.0), (6, 4, "e", 7.0, 8.0)]
        got = self_times(spans)
        want = {"root": 3.0, "a": 2.0, "b": 1.0, "c": 2.0, "d": 1.0, "e": 1.0}
        self.assertEqual({k: v[1] for k, v in got.items()}, want)
        self.assertEqual(sum(v[1] for v in got.values()), 10.0)
        self.assertEqual(got["c"][2], 4.0)

    def test_running_aggregates_match_spans(self):
        tracer = Tracer(max_spans=1000)
        tracer.stage = "s"

        def leaf(n):
            return sum(range(n))

        traced_leaf = tracer._wrap(leaf, "leaf")

        def mid():
            return traced_leaf(2000) + traced_leaf(500)

        traced_mid = tracer._wrap(mid, "mid")

        def root():
            for _ in range(5):
                traced_mid()
            traced_leaf(100)

        tracer._wrap(root, "root")()
        offline = self_times(tracer.spans)
        for name, (calls, self_s, total_s) in offline.items():
            live = tracer.stats[("s", name)]
            self.assertEqual(live[0], calls)
            self.assertAlmostEqual(live[1], self_s, delta=1e-9)
            self.assertAlmostEqual(live[2], total_s, delta=1e-9)
        root = offline["root"][2]
        self.assertAlmostEqual(sum(v[1] for v in offline.values()), root, delta=1e-9)

    def test_install_wraps_every_reference_and_uninstall_restores(self):
        from tdsv import cli, nn, train

        originals = (train.softmax_cross_entropy, cli._COMMANDS["train"],
                     nn.Conv2D.forward, cli.main)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(train.softmax_cross_entropy, originals[0])
            self.assertIs(train.softmax_cross_entropy, nn.softmax_cross_entropy)
            self.assertIsNot(cli._COMMANDS["train"], originals[1])
            self.assertIsNot(nn.Conv2D.forward, originals[2])
        finally:
            tracer.uninstall()
        self.assertEqual((train.softmax_cross_entropy, cli._COMMANDS["train"],
                          nn.Conv2D.forward, cli.main), originals)


class ReferenceTest(unittest.TestCase):
    """The float64 reference agrees with the program on the seed code, and
    the output checks built on it catch kernels that are fast but wrong."""

    @classmethod
    def setUpClass(cls):
        import tempfile

        from tdsv.resnet import PRESETS, Network, save_network
        from workloads import EmbedFull, TrainDesk

        (ROOT / ".tdsvbench_run").mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=ROOT / ".tdsvbench_run")
        cls.root = Path(cls.tmp.name)
        cls.train = TrainDesk("tiny")
        cls.train.setup(5, cls.root)
        net = Network(replace(PRESETS["desk"], num_speakers=2), seed=5)
        rng = np.random.default_rng(5)
        net.forward(rng.normal(size=(2, 257, 200, 1)).astype(np.float32), train=True)
        save_network(net, cls.root / "model")
        cls.embed = EmbedFull("tiny")
        cls.embed_root = cls.root / "embed"
        cls.embed.setup(5, cls.embed_root)
        cls.utt = (cls.embed_root / "corpus" / "corpus.tsv").read_text().split("\t")[0]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def embedding(self):
        from tdsv.resnet import extract_embedding, load_network
        from workloads import _spectrogram

        net = load_network(self.embed_root / "model")
        wav = self.embed.wav(self.embed_root, self.utt)
        return extract_embedding(net, _spectrogram(wav, net.config.input_width))

    def embed_problems(self):
        return self.embed.reference_check(self.embed_root, self.utt, self.embedding())

    def test_clean_program_passes(self):
        from workloads import adam_check

        self.assertEqual(self.train.gradient_check(self.root, self.root / "model"), [])
        self.assertEqual(adam_check(), [])
        self.assertEqual(self.embed_problems(), [])

    def test_broken_backward_is_caught(self):
        from tdsv import nn

        def maxpool_to_first_cell(orig):
            def backward(self, grad_out):
                argmax, *rest = self._cache
                self._cache = (np.zeros_like(argmax), *rest)
                return orig(self, grad_out)
            return backward

        def batchnorm_as_inference(orig):
            def backward(self, grad_out):
                self._cache = self._cache[:3] + (False,)
                return orig(self, grad_out)
            return backward

        def conv_weight_grad_flipped(orig):
            def backward(self, grad_out):
                before = self.grad_weight.copy()
                gx = orig(self, grad_out)
                delta = self.grad_weight - before
                self.grad_weight[...] = before + delta[:, :, ::-1, ::-1]
                return gx
            return backward

        for cls, bug in ((nn.MaxPool, maxpool_to_first_cell),
                         (nn.BatchNorm, batchnorm_as_inference),
                         (nn.Conv2D, conv_weight_grad_flipped)):
            with self.subTest(bug=bug.__name__), patched(cls, "backward", bug):
                self.assertNotEqual(
                    self.train.gradient_check(self.root, self.root / "model"), [])

    def test_broken_forward_is_caught(self):
        from tdsv import nn

        def conv_weight_flipped(orig):
            def forward(self, x):
                w = self.weight
                self.weight = w[:, :, ::-1, ::-1]
                try:
                    return orig(self, x)
                finally:
                    self.weight = w
            return forward

        def maxpool_scaled(orig):
            def forward(self, x, train=False):
                out = orig(self, x, train)
                return out * 1.01
            return forward

        for cls, bug in ((nn.Conv2D, conv_weight_flipped), (nn.MaxPool, maxpool_scaled)):
            with self.subTest(bug=bug.__name__), patched(cls, "forward", bug):
                self.assertNotEqual(self.embed_problems(), [])
                self.assertNotEqual(
                    self.train.gradient_check(self.root, self.root / "model"), [])

    def test_broken_adam_is_caught(self):
        from tdsv import nn
        from workloads import adam_check

        def no_bias_correction(orig):
            def step(self, grads):
                self.step_count = 0  # every step then corrects as if it were the first
                return orig(self, grads)
            return step

        with patched(nn.Adam, "step", no_bias_correction):
            self.assertNotEqual(adam_check(), [])


@contextlib.contextmanager
def patched(cls, name, bug):
    orig = getattr(cls, name)
    setattr(cls, name, bug(orig))
    try:
        yield
    finally:
        setattr(cls, name, orig)


class SpecTest(unittest.TestCase):
    def test_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(all(PATH.match(p) and ".." not in p for p in spec["paths"]))
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([n for n in names if not NAME.match(n)], [])
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual([(m["unit"], m["better"]) for m in setup], [("s", "lower")])
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class TinyRunTest(unittest.TestCase):
    """Each workload at the tiny scale completes, checks its outputs and
    reports exactly the declared metrics."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_tiny(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--scale", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_untraced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.run_tiny(w["name"], 0)
                self.assertEqual([k for k, v in m.items() if not v > 0], [])

    def test_traced_separates_layers(self):
        m = {w["name"]: self.run_tiny(w["name"], 1) for w in self.spec["workloads"]}
        nn = [k for k in m["train-desk"] if k.startswith("nn.")]
        backend = [k for k in m["train-desk"] if k.startswith("backend.")]
        self.assertGreater(m["train-desk"]["nn.conv3x3.bwd_ms"], 0)
        self.assertGreater(m["train-desk"]["nn.adam.step_ms"], 0)
        self.assertGreater(m["embed-full"]["nn.conv3x3.fwd_ms"], 0)
        self.assertEqual([k for k in nn if ("bwd" in k or "adam" in k)
                          and m["embed-full"][k] != 0], [])
        self.assertEqual([k for k in nn if m["score-snorm"][k] != 0], [])
        self.assertGreater(m["score-snorm"]["backend.cosine_score.calls"], 0)
        for w in ("train-desk", "embed-full"):
            self.assertEqual([k for k in backend if m[w][k] != 0], [])
        for w, values in m.items():
            self.assertLess(values["trace.self_sum_gap_pct"], 1.0, w)


class MissingProgramTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".tdsvbench_run" / "selfcheck-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "train-desk",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170, env=dict(os.environ, PYTHONPATH=""))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
