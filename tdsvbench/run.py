#!/usr/bin/env python3
"""tdsv benchmark: run one workload through the real CLI entry points.

    python3 tdsvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from ``--seed`` in a
child process (timed as ``setup_s``, three times, median reported), then the
workload's ``tdsv`` stages are called in-process through ``tdsv.cli.main``,
one closed-loop iteration after another, until ``--seconds`` of stage time
have been measured.  Every iteration's outputs are checked.

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json.
``--trace 1`` spends half the time untraced and half with every public
function of the tdsv modules wrapped in spans (see tracing.py), and reports
the per-layer metrics.  The last stdout line is the JSON result; lines
before it, prefixed ``#``, are a readable report.  Run records and spans
land in ``.tdsvbench_run/results/``.
"""

import os

# The cap must be in place before numpy is first imported, in this process
# and in the set-up children that inherit the environment: tdsv.cli.main
# sets these itself, which is too late when it runs in-process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
STARTED = time.perf_counter()
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 40
# the end-to-end figure is a median over at least this many iterations, even
# when one iteration outlasts --seconds (score-snorm)
MIN_ITERATIONS = 2
# no new iteration starts this long after the run began, so a run on a slow
# machine still ends well inside 180 s
ITERATION_CUTOFF_S = 100
STAGES = ("train", "embed", "score", "eval")
# span names whose every (start, end) the tracer keeps, for percentiles
KEEP = ("resnet.Network.forward", "nn.adam.step", "resnet.extract_embedding")
NN_LAYERS = ("conv7x7", "conv3x3", "conv1x1", "batchnorm", "relu", "maxpool",
             "avgpool", "dense")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", default="bench",
                    help="'tiny' shrinks every workload for the self-check")
    return ap.parse_args(argv)


def percentile(values, q):
    """Linear-interpolation percentile of a nonempty list, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:  # no git on the machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(root: Path, args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for ln in Path("/proc/cpuinfo").read_text().splitlines():
            if ln.startswith("model name"):
                cpu = ln.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg['name']} {cfg['version']}"
    threads = None
    with contextlib.suppress(OSError):
        threads = len(os.listdir("/proc/self/task"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads_after_import": threads,
        "git_commit": git_commit(root),
    }


def run_setups(args, work: Path):
    """Set the workload up SETUP_REPEATS times in fresh child processes.

    Returns (seconds per set-up, the first set-up's directory, problems).
    Every set-up must produce byte-identical inputs.
    """
    from workloads import tree_digest

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path.cwd() / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    seconds, digests, problems = [], [], []
    for k in range(SETUP_REPEATS):
        dest = work / f"setup{k}"
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), "setup", args.workload,
                 str(args.seed), str(dest), args.scale],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"set-up {k} took over {SETUP_TIMEOUT_S} s")
            break
        seconds.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            problems.append(f"set-up {k} exited {proc.returncode}: "
                            + proc.stderr.strip()[-2000:])
            break
        digests.append(tree_digest(dest))
        if k:
            shutil.rmtree(dest)
    if len(set(digests)) > 1:
        problems.append(f"set-ups from one seed differ: {digests}")
    return seconds, work / "setup0", problems


def run_stage(argv):
    """One in-process CLI call: (exit code, wall s, cpu s, captured output)."""
    from tdsv import cli

    buf = io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except Exception:  # a crash counts as a failed stage, reported below
        rc = None
        buf.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    return rc, wall, time.process_time() - c0, buf.getvalue()


def iterate(wl, args, inputs: Path, outs: Path, budget_s: float, min_iterations: int,
            tracer=None):
    """Closed loop: run iterations until there are min_iterations and their
    stage time reaches budget_s.

    Stops early after an iteration that fails, or once ITERATION_CUTOFF_S
    have passed since the run started.  Returns iteration records.
    """
    records = []
    spent = 0.0
    while True:
        out = outs / f"iter{len(records)}"
        stages = []
        for stage, argv in wl.stages(args.seed, inputs, out):
            if tracer is not None:
                tracer.stage = stage
            rc, wall, cpu, log = run_stage(argv)
            stages.append({"stage": stage, "rc": rc, "wall_s": wall, "cpu_s": cpu})
            spent += wall
            if rc != 0:
                print(f"# stage {stage} exited {rc}:\n# " + log.strip().replace("\n", "\n# "))
                break
        if tracer is not None:
            tracer.stage = None
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the reference comparisons run on the first iteration; later ones
        # must reproduce its digests
        check = wl.check(inputs, out, reference=not records)
        problems = list(check.problems)
        if records and records[0]["ok"] and not problems:
            first = records[0]
            if check.digests != first["digests"] or check.values != first["values"]:
                problems.append("outputs differ from the first iteration's")
        records.append({"stages": stages, "problems": problems, "maxrss_mb": maxrss_mb,
                        "digests": check.digests, "values": check.values,
                        "ok": all(s["rc"] == 0 for s in stages) and not problems})
        shutil.rmtree(out, ignore_errors=True)
        if (not records[-1]["ok"] or len(records) >= min_iterations and spent >= budget_s
                or time.perf_counter() - STARTED > ITERATION_CUTOFF_S):
            return records


def chain_wall(rec):
    return sum(s["wall_s"] for s in rec["stages"])


def stage_counts(records):
    """(stage calls attempted, stage calls failed); every stage of an
    iteration that failed its output check counts as failed."""
    attempted = sum(len(r["stages"]) for r in records)
    return attempted, sum(len(r["stages"]) for r in records if not r["ok"])


def end_to_end(wl, records, setup_s):
    out = {"setup_s": statistics.median(setup_s)} if setup_s else {}
    good = [r for r in records if r["ok"]]
    if good:
        # CPU seconds, not wall: the stages run single-threaded (cpu_per_wall
        # is reported per stage), and on a shared VM wall time also counts
        # time stolen by other tenants.
        out["items_per_cpu_s"] = statistics.median(
            wl.items() / sum(s["cpu_s"] for s in r["stages"]) for r in good)
    if records:
        # A CLI user runs a stage once per process, so the peak is taken
        # through the first iteration; later ones only add the allocator's
        # fragmentation from repeating the stage in one process.
        out["peak_rss_mb"] = records[0]["maxrss_mb"]
        attempted, failed = stage_counts(records)
        out["ok_rate"] = (attempted - failed) / attempted
    return out


def _stage_totals(records, stage, field):
    return sum(s[field] for r in records for s in r["stages"] if s["stage"] == stage)


def per_layer(wl, untraced, traced, tracer):
    """Per-layer metrics from the traced iterations (and, for throughput,
    cpu_per_wall and overhead, from the untraced ones)."""
    n = max(len(traced), 1)
    stats = {}
    for (stage, name), (calls, self_s, total_s) in tracer.stats.items():
        if stage is None:  # output checks run between stages
            continue
        c, s, t = stats.get(name, (0, 0.0, 0.0))
        stats[name] = (c + calls, s + self_s, t + total_s)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return stats.get(name, (0, 0.0, 0.0))[1] * 1e3

    def total_ms(name):
        return stats.get(name, (0, 0.0, 0.0))[2] * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls("nn.adam.step")
    utts = calls("resnet.extract_embedding")
    unit = steps or utts or 1  # nn metrics are per train step or per utterance
    m = {}
    for layer in NN_LAYERS:
        for d in ("fwd", "bwd"):
            m[f"nn.{layer}.{d}_ms"] = self_ms(f"nn.{layer}.{d}") / unit
    m["nn.softmax_xent_ms"] = self_ms("nn.softmax_xent") / unit
    m["nn.adam.step_ms"] = self_ms("nn.adam.step") / unit
    flop = sum(v for (_, k), v in tracer.counters.items() if k == "nn.conv.flop")
    col = sum(v for (_, k), v in tracer.counters.items() if k == "nn.conv.unfold_bytes")
    conv_ms = sum(self_ms(f"nn.{c}.{d}") for c in NN_LAYERS[:3] for d in ("fwd", "bwd"))
    m["nn.conv.gflop"] = flop / 1e9 / unit
    m["nn.conv.unfold_mb"] = col / 1e6 / unit
    m["nn.conv.gflop_per_s"] = ratio(flop / 1e9, conv_ms / 1e3)

    m["resnet.forward_ms"] = ratio(total_ms("resnet.Network.forward"), steps)
    m["resnet.backward_ms"] = ratio(total_ms("resnet.Network.backward"), steps)
    emb = [(e - s) * 1e3 for (st, k), iv in tracer.intervals.items()
           if st == "embed" and k == "resnet.extract_embedding" for s, e in iv]
    m["resnet.extract_embedding_ms.p50"] = percentile(emb, 50) if emb else 0.0
    m["resnet.extract_embedding_ms.p90"] = percentile(emb, 90) if emb else 0.0
    # a train step runs from Network.forward to the Adam.step that follows it
    fwd_starts = sorted(s for (st, k), iv in tracer.intervals.items()
                        if st == "train" and k == "resnet.Network.forward" for s, _ in iv)
    adam_ends = sorted(e for (st, k), iv in tracer.intervals.items()
                       if st == "train" and k == "nn.adam.step" for _, e in iv)
    step_ms = [(e - s) * 1e3 for s, e in zip(fwd_starts, adam_ends)]
    m["train.step_ms.p50"] = percentile(step_ms, 50) if step_ms else 0.0
    m["train.step_ms.p90"] = percentile(step_ms, 90) if step_ms else 0.0
    epochs = getattr(wl, "epochs", 0)
    m["train.epoch_s"] = ratio(total_ms("train.train") / 1e3, n * epochs)
    m["train.steps"] = steps / n

    wavs = calls("features.read_wav")
    m["features.read_wav_ms"] = ratio(total_ms("features.read_wav"), wavs)
    m["features.spectrogram_ms"] = ratio(total_ms("features.compute_spectrogram"), wavs)
    m["features.fit_length_ms"] = ratio(total_ms("features.fit_length"), wavs)
    for name in ("write_tensor_dir", "read_tensor_dir"):
        m[f"fileio.{name}_ms"] = ratio(total_ms(f"fileio.{name}"), calls(f"fileio.{name}"))

    for name in ("fit_backends", "score_trials", "save_backends"):
        m[f"backend.{name}_ms"] = total_ms(f"backend.{name}") / n
    m["backend.cosine_score.calls"] = calls("backend.cosine_score") / n
    m["backend.cohort_stats.calls"] = calls("backend.cohort_stats") / n
    trials = wl.items() if calls("backend.score_trials") else 0
    m["backend.stats_hit_ratio"] = (
        1.0 - calls("backend.cohort_stats") / n / (2 * trials) if trials else 0.0)
    for name in ("read_embeddings", "read_trials", "write_scores", "read_scores"):
        m[f"trials.{name}_ms"] = total_ms(f"trials.{name}") / n
    m["metrics.compute_det_ms"] = total_ms("metrics.compute_det") / n
    m["metrics.summary_ms"] = total_ms("metrics.summary_lines") / n
    m["metrics.det_csv_ms"] = (total_ms("metrics.det_csv_lines")
                               + total_ms("metrics.det_probit_csv_lines")) / n

    good = [r for r in untraced if r["ok"]]
    items = {"train": "train.examples_per_s", "embed": "embed.utts_per_s",
             "score": "score.trials_per_s", "eval": "eval.trials_per_s"}
    for stage in STAGES:
        cli_self = sum(s for (st, k), (_, s, _) in tracer.stats.items()
                       if st == stage and k.startswith("cli."))
        m[f"cli.{stage}.self_ms"] = cli_self * 1e3 / n
        walls = [s["wall_s"] for r in good for s in r["stages"] if s["stage"] == stage]
        m[f"cli.{stage}.wall_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
        m[f"cli.{stage}.cpu_per_wall"] = ratio(_stage_totals(good, stage, "cpu_s"),
                                               _stage_totals(good, stage, "wall_s"))
        m[items[stage]] = ratio(wl.items(), statistics.median(walls)) if walls else 0.0
    m["eer"] = good[0]["values"].get("eer", 0.0) if good else 0.0

    traced_good = [r for r in traced if r["ok"]]
    if good and traced_good:
        base = statistics.median(chain_wall(r) for r in good)
        m["tracing_overhead_pct"] = (statistics.median(
            chain_wall(r) for r in traced_good) / base - 1.0) * 100.0
    else:
        m["tracing_overhead_pct"] = 0.0
    # Self times partition each traced stage: their sum misses the stage
    # wall time measured around cli.main only by the root wrapper's own cost.
    traced_wall = sum(chain_wall(r) for r in traced)
    self_sum = sum(s for (st, _), (_, s, _) in tracer.stats.items() if st is not None)
    m["trace.self_sum_gap_pct"] = ratio(abs(traced_wall - self_sum), traced_wall) * 100.0
    return m


def stage_breakdown(tracer, top=8):
    """Readable lines: the largest self times of each traced stage."""
    lines = []
    for stage in STAGES:
        rows = sorted(((s, c, k) for (st, k), (c, s, _) in tracer.stats.items()
                       if st == stage), reverse=True)
        if not rows:
            continue
        total = sum(s for s, _, _ in rows)
        lines.append(f"{stage}: self time {total:.3f} s over {sum(c for _, c, _ in rows)} spans")
        for s, c, k in rows[:top]:
            lines.append(f"  {k:<34} {s:9.3f} s {100 * s / total:5.1f}%  {c} calls")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tdsv" / "cli.py").is_file():
        print("error: run from the root of a tdsv checkout (src/tdsv not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (have {names})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    declared = spec["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload](args.scale)
    env = environment(root, args)
    base = root / ".tdsvbench_run"
    work = base / f"work-{os.getpid()}"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        setup_s, inputs, problems = run_setups(args, work)
        untraced = traced = []
        if not problems:
            for mod in ("cli", "train", "features", "backend", "metrics"):
                importlib.import_module(f"tdsv.{mod}")  # keep imports out of stage time
            budget = args.seconds / 2 if args.trace else args.seconds
            untraced = iterate(wl, args, inputs, work / "out", budget, MIN_ITERATIONS)
            if args.trace and all(r["ok"] for r in untraced):
                from tracing import Tracer

                tracer = Tracer(keep=KEEP)
                tracer.install()
                try:
                    traced = iterate(wl, args, inputs, work / "traced", budget, 1, tracer)
                finally:
                    tracer.uninstall()
        records = untraced + traced
        for r in records:
            problems += r["problems"]
            problems += [f"stage {s['stage']} exited {s['rc']}"
                         for s in r["stages"] if s["rc"] != 0]
        if args.trace and tracer is not None:
            metrics = per_layer(wl, untraced, traced, tracer)
        elif not args.trace:
            metrics = end_to_end(wl, untraced, setup_s)
        else:
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    attempted, failed = stage_counts(records)
    attempted = max(attempted, 1)
    correct = not problems and failed == 0 and bool(records)
    unit = {d["name"]: d["unit"] for d in declared}
    if correct and set(metrics) != set(unit):
        raise RuntimeError(f"harness metrics {sorted(set(metrics) ^ set(unit))} do not "
                           "match BENCHMARK.json")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": unit[k]}
                          for k in unit if k in metrics}}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "setup_s": setup_s, "iterations": records,
              "problems": problems, "result": result}
    if wl.name == "score-snorm":
        record["trial_shape"] = vars(wl.shape) | {"trials": wl.shape.trials}
    report = [f"tdsvbench {stem} scale={args.scale}", "env " + json.dumps(env),
              "setup_s " + " ".join(f"{s:.3f}" for s in setup_s)]
    for i, r in enumerate(records):
        report.append(f"iteration {i}: " + ", ".join(
            f"{s['stage']} {s['wall_s']:.3f} s cpu/wall {s['cpu_s'] / s['wall_s']:.2f}"
            for s in r["stages"]) + (" traced" if i >= len(untraced) else "")
            + ("" if r["ok"] else "  FAILED"))
    if records:
        report.append("digests " + json.dumps(records[0]["digests"]))
    if tracer is not None:
        tracer.write_spans(results / f"{args.workload}.spans.jsonl")
        record["spans_kept"], record["spans_dropped"] = len(tracer.spans), tracer.dropped
        report += stage_breakdown(tracer)
    if metrics.get("train.step_ms.p50"):
        step = metrics["train.step_ms.p50"]
        share = {k: sum(metrics[f"nn.{k}.{d}_ms"] for d in ("fwd", "bwd")) / step
                 for k in NN_LAYERS}
        share["conv"] = sum(share.pop(k) for k in NN_LAYERS[:3])
        share["adam"] = metrics["nn.adam.step_ms"] / step
        report.append("share of train.step_ms.p50: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in sorted(share.items(), key=lambda kv: -kv[1])))
    report += [f"problem: {p}" for p in problems]
    report += [f"{k:<36} {v['value']:.6g} {v['unit']}"
               for k, v in result["metrics"].items()]
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print("\n".join("# " + ln for ln in report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
