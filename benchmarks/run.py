"""vnspam benchmark: one command for the predict, train and grid workloads.

    python3 benchmarks/run.py --workload predict --seed 1 --seconds 20 --trace 0

Run from the repository root. Inputs are generated from ``--seed`` by
``gen.py``; the program under test is ``src/vnspam`` of this checkout and only
sees the generated TSV files and stdin bytes. Each workload runs in fresh
processes started one at a time, with no threads or worker pools.

With ``--trace 0`` the run prints the input statistics, the workload's own
figures, the end-to-end metrics, the operations attempted and failed and the
output digests. With ``--trace 1`` it runs one unit of work untraced and one
with every layer wrapped (see ``tracer.py``) and prints the per-layer metrics
and the tracing overhead. The last stdout line is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gen
from workload import PREDICT_BATCH

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("predict", "train", "grid")
KINDS = ("nb", "svm", "lr", "dt", "knn")

# Messages per input file: the training corpus of predict and train, the
# held-out set predict scores, and the corpus the grid cross-validates.
SIZES = {"train": 5000, "heldout": 50000, "grid": 1500}
# Measured processes per untraced run. A process has a speed of its own (its
# memory layout, the core it lands on), so the units are spread over several.
# Train's processes each fit every learner at least once, which also checks
# that fits in different processes give equal bytes.
PROCESSES = {"predict": 5, "train": 6, "grid": 2}
SETUP_PROBES = 30  # set-up-only spawns per run, besides the measured processes
IMPORT_PROBES = 5
RUN_DEADLINE_S = 170  # every run ends within 180 s

# Names of reference_grid() configs, in grid order.
GRID_CONFIGS = (
    "baseline",
    "svm-bow-raw",
    "svm-bow",
    "svm-tfidf",
    "nb-bow",
    "lr-bow",
    "dt-bow",
    "knn-bow",
    "svm-bow-df3-len",
)

# name -> (unit, better); every workload reports these with --trace 0
END_TO_END = {
    "setup_s": ("s", "lower"),
    "work_ref_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Each workload's own figures. They are printed on every run and are part of
# the per-layer metrics, where other workloads report them as 0.
FIGURES = {
    "predict": {
        "predict_msgs_per_s": ("1/s", "higher"),
        "predict_p50_us": ("us", "lower"),
        "predict_p99_us": ("us", "lower"),
        "predict_samples": ("count", "higher"),
    },
    "train": {f"train_{k}_s": ("s", "lower") for k in KINDS},
    "grid": {"grid_s": ("s", "lower"), "grid_errors": ("count", "lower")},
}


def _per_layer_table() -> dict[str, tuple[str, str]]:
    s, count = ("s", "lower"), ("count", "lower")
    table = {name: spec for figures in FIGURES.values() for name, spec in figures.items()}
    table.update({
        "preprocess.tag_entities.calls": count,
        "preprocess.tag_entities.self_s": s,
        "preprocess.tag_entities.us_per_call": ("us", "lower"),
        "preprocess.fit_collocations.self_s": s,
        "preprocess.segment.self_s": s,
        "preprocess.merges": count,
        "features.build_vocabulary.self_s": s,
        "features.vectorize.self_s": s,
        "features.append_length.self_s": s,
        "features.vocab_terms": count,
        "features.nnz_mean": count,
    })
    table.update({f"classifiers.train.{k}.self_s": s for k in KINDS})
    table["classifiers.predict.calls"] = count
    table.update({f"classifiers.predict.{k}.self_s": s for k in KINDS})
    table.update({f"pipeline.{step}.self_s": s for step in ("fit", "predict_text", "save", "load")})
    table.update({f"pipeline.model_bytes.{k}": ("bytes", "lower") for k in KINDS})
    table.update({
        "cli.import_s": s,
        "cli.predict.overhead_us": ("us", "lower"),
        "corpus.load_corpus.self_s": s,
        "corpus.stratified_kfold.self_s": s,
    })
    table.update({f"evaluation.config.{c}_s": s for c in GRID_CONFIGS})
    table.update({
        "evaluation.fits": count,
        "evaluation.tags_per_message": ("calls/msg", "lower"),
        "trace.overhead_pct": ("%", "lower"),
        "trace.spans": count,
    })
    return table


PER_LAYER = _per_layer_table()


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- processes -----------------------------------------------------------------


class Spawner:
    """Starts workload.py processes one at a time under one run deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not old else src + os.pathsep + old)

    def __call__(self, spec: dict) -> tuple[float, dict]:
        """Run one process; return its spawn time (monotonic) and its result."""
        what = f"{spec['mode']} {spec['workload']}"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before {what}")
        argv = [sys.executable, str(BENCH / "workload.py"), json.dumps(spec)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} ran out of time") from None
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}")
        lines = proc.stdout.decode("utf-8").splitlines()
        if not lines:
            raise BenchError(f"{what} printed no result")
        return spawned, json.loads(lines[-1])


def _spec(name: str, work: Path, mode: str, **extra) -> dict:
    spec = {"workload": name, "dir": str(work), "mode": mode, "trace": 0}
    spec.update(extra)
    return spec


# -- inputs --------------------------------------------------------------------


def prepare(name: str, seed: int, work: Path, sizes: dict) -> int:
    """Write the workload's input files; return the size of its corpus."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    g = gen.Generator(seed)
    corpus_file = "grid" if name == "grid" else "train"
    size = sizes[corpus_file]
    (work / f"{corpus_file}.tsv").write_text(gen.corpus_tsv(g.corpus(size)), encoding="utf-8")
    if name == "predict":
        # one file per batch, so a process reads only the batch it scores
        heldout = g.corpus(sizes["heldout"])
        for b in range(max(1, len(heldout) // PREDICT_BATCH)):
            batch = heldout[b * PREDICT_BATCH :][:PREDICT_BATCH]
            (work / f"heldout-{b}.tsv").write_text(gen.corpus_tsv(batch), encoding="utf-8")
    return size


# -- figures -------------------------------------------------------------------


def workload_figures(name: str, results: list[dict]) -> dict[str, float]:
    """The workload's own figures, medians over all units, and ``work_ref_s``.

    ``work_ref_s`` is the mean CPU time of a unit over the whole run, scaled
    to the reference machine speed by the calibration loop timed between the
    units (see calib.py). The machine's speed drifts in phases of seconds to
    minutes, so a mean over the run divided by the speed measured meanwhile
    is steadier than the median of short units.
    """
    units = [u for res in results for u in res["units"]]
    med = statistics.median
    speed = statistics.fmean(c for res in results for c in res["calibration_s"])
    work_cpu_s = statistics.fmean(u["unit_cpu_s"] for u in units)
    work = {"work_ref_s": work_cpu_s * calib.REFERENCE_S / speed,
            "work_cpu_s": work_cpu_s, "calibration_s": speed}
    if name == "predict":
        latencies = sorted(ns for u in units for ns in u["latencies_ns"])
        return work | {
            "predict_msgs_per_s": med(u["messages"] / u["cli_cpu_s"] for u in units),
            "predict_p50_us": _nearest_rank(latencies, 50) / 1e3,
            "predict_p99_us": _nearest_rank(latencies, 99) / 1e3,
            "predict_samples": len(latencies),
        }
    if name == "train":
        figures = dict(work)
        for k in KINDS:
            times = [u[k] for u in units if k in u]
            figures[f"train_{k}_s"] = med(times) if times else 0.0
        return figures
    grid = [u for u in units if "grid_cpu_s" in u]
    grid_s = med(u["grid_cpu_s"] for u in grid) if grid else 0.0
    return work | {
        "grid_s": grid_s,
        "grid_errors": grid[0]["errors"] if grid else 0,
    }


def _nearest_rank(ordered: list, q: int):
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)] if ordered else 0


def layer_figures(name: str, traced: dict, plain: dict, import_s: float,
                  corpus_size: int) -> dict[str, float | None]:
    """Per-layer metrics; None marks a layer whose function no longer exists."""
    trace = traced["trace"]
    summary = trace["summary"]
    missing = set(trace["missing"])
    observed = trace["observed"]

    def total(layer: str, key: str, label: str | None = None) -> float:
        if label is not None:
            return summary.get(f"{layer}.{label}", {}).get(key, 0)
        return sum(v[key] for k, v in summary.items()
                   if k == layer or k.startswith(layer + "."))

    out: dict[str, float | None] = {}

    def put(metric: str, value: float | None, *layers: str) -> None:
        out[metric] = None if any(layer in missing for layer in layers) else value

    figures = workload_figures(name, [plain])
    for workload, table in FIGURES.items():
        out.update({k: figures[k] if workload == name else 0.0 for k in table})

    tag = "preprocess.tag_entities"
    calls = total(tag, "calls")
    put(f"{tag}.calls", calls, tag)
    put(f"{tag}.self_s", total(tag, "self_s"), tag)
    put(f"{tag}.us_per_call", total(tag, "self_s") / calls * 1e6 if calls else 0.0, tag)
    for layer in ("preprocess.fit_collocations", "preprocess.segment",
                  "features.build_vocabulary", "features.append_length",
                  "corpus.load_corpus", "corpus.stratified_kfold"):
        put(f"{layer}.self_s", total(layer, "self_s"), layer)
    fitted = ("pipeline.fit", "pipeline.load")
    put("preprocess.merges", observed.get("merges", 0.0), *fitted)
    vec = ("features.vectorize_bow", "features.vectorize_tfidf")
    put("features.vectorize.self_s", sum(total(v, "self_s") for v in vec), *vec)
    put("features.vocab_terms", observed.get("vocab_terms", 0.0), *fitted)
    put("features.nnz_mean", observed.get("nnz", 0.0), *vec)
    for k in KINDS:
        put(f"classifiers.train.{k}.self_s", total("classifiers.train", "self_s", k),
            "classifiers.train")
        put(f"classifiers.predict.{k}.self_s", total("classifiers.predict", "self_s", k),
            "classifiers.predict")
        put(f"pipeline.model_bytes.{k}", observed.get(f"model_bytes.{k}", 0.0), "pipeline.save")
    put("classifiers.predict.calls", total("classifiers.predict", "calls"),
        "classifiers.predict")
    for step in ("fit", "predict_text", "save", "load"):
        put(f"pipeline.{step}.self_s", total(f"pipeline.{step}", "self_s"), f"pipeline.{step}")
    out["cli.import_s"] = import_s
    overhead = 0.0
    if name == "predict":
        u = plain["units"][0]
        overhead = (u["cli_cpu_s"] - u["api_cpu_s"]) / u["messages"] * 1e6
    out["cli.predict.overhead_us"] = overhead
    evals = ("evaluation.cross_validate", "evaluation.evaluate_baseline")
    for config in GRID_CONFIGS:
        ran = any(f"{e}.{config}" in summary for e in evals)
        seconds = sum(total(e, "total_s", config) for e in evals)
        # on grid every config runs; one that did not is missing, not 0
        put(f"evaluation.config.{config}_s", None if name == "grid" and not ran else seconds,
            *evals)
    put("evaluation.fits", total("pipeline.fit", "calls_under_evaluation"), "pipeline.fit")
    put("evaluation.tags_per_message", total(tag, "calls_under_evaluation") / corpus_size, tag)
    before, after = plain["units"][0]["unit_cpu_s"], traced["units"][0]["unit_cpu_s"]
    out["trace.overhead_pct"] = (after - before) / before * 100
    out["trace.spans"] = trace["spans"]
    return {metric: out[metric] for metric in PER_LAYER}


def merge_digests(results: list[dict]) -> tuple[dict, int, list[str]]:
    """Digests of all rounds of all processes; every digest of a name must
    agree with the first one.

    Returns the first digest of each name, the number of comparisons made
    and the failures.
    """
    merged: dict[str, str] = {}
    compared = 0
    failures = []
    for res in results:
        for key, value in res["digests"]:
            if key not in merged:
                merged[key] = value
                continue
            compared += 1
            if merged[key] != value:
                failures.append(f"{key}: two runs produced different bytes")
    return merged, compared, failures


# -- one workload ---------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, spawn: Spawner,
                 work: Path | None = None, sizes: dict = SIZES):
    """Return (report lines, metrics, attempted, failed)."""
    work = work or BENCH / ".work" / name
    corpus_size = prepare(name, seed, work, sizes)
    lines = [f"== {name}: seed {seed}, {'traced' if trace else 'untraced'} =="]
    stats = None
    if name == "predict":
        _, prep = spawn(_spec(name, work, "prep"))
        stats = prep["stats"]
        lines.append(f"model: default svm fitted on {sizes['train']} messages in "
                     f"{prep['fit_s']:.3f} s (not part of the workload)")
    spawn(_spec(name, work, "import"))  # compiles bytecode so no probe pays for it

    if not trace:
        setups = []
        nproc = PROCESSES[name]
        batches = max(1, sizes["heldout"] // PREDICT_BATCH) // nproc
        results = []
        for i in range(nproc):
            # set-up probes go between the measured processes, so they sample
            # the machine's fast and slow spells over the whole run
            for _ in range(SETUP_PROBES // nproc):
                spawned, res = spawn(_spec(name, work, "setup"))
                setups.append(res["ready"] - spawned)
            spawned, res = spawn(_spec(name, work, "run", out=str(work / f"p{i}"),
                                       seconds=seconds / nproc, first_batch=i * batches,
                                       stats=stats is None and i == 0))
            setups.append(res["ready"] - spawned)
            results.append(res)
        figures = workload_figures(name, results)
        metrics = {
            "setup_s": statistics.median(setups),
            "work_ref_s": figures.pop("work_ref_s"),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        }
        lines.append(f"unit of work: {figures.pop('work_cpu_s'):.6g} CPU s; calibration loop: "
                     f"{figures.pop('calibration_s'):.6g} s (reference {calib.REFERENCE_S} s)")
        lines += _stats_lines(name, stats or results[0]["stats"], sizes)
        units = [u for res in results for u in res["units"]]
        lines.append(f"units of work: {len(units)} in {nproc} process(es); "
                     f"setup samples: {len(setups)}")
        if name == "predict":
            lines.append(f"held-out messages misclassified: {sum(u['errors'] for u in units)}"
                         f" of {sum(u['messages'] for u in units)}")
        for key, value in figures.items():
            lines.append(f"  {key:<22} {value:>14.6g} {PER_LAYER[key][0]}")
        for key, value in metrics.items():
            lines.append(f"  {key:<22} {value:>14.6g} {END_TO_END[key][0]}   [end-to-end]")
        table = END_TO_END
    else:
        import_s = statistics.median(
            spawn(_spec(name, work, "import"))[1]["import_s"] for _ in range(IMPORT_PROBES)
        )
        _, plain = spawn(_spec(name, work, "run", out=str(work / "plain"), seconds=0,
                               stats=stats is None))
        _, traced = spawn(_spec(name, work, "run", out=str(work / "traced"), seconds=0, trace=1))
        results = [plain, traced]
        metrics = layer_figures(name, traced, plain, import_s, corpus_size)
        lines += _stats_lines(name, stats or plain["stats"], sizes)
        missing = traced["trace"]["missing"]
        lines.append(f"missing layers: {', '.join(missing) if missing else 'none'}")
        for key, value in metrics.items():
            shown = "missing" if value is None else f"{value:.6g}"
            lines.append(f"  {key:<40} {shown:>14} {PER_LAYER[key][0]}")
        lines.append(f"spans: {work / 'traced' / 'spans.tsv'}")
        table = PER_LAYER

    digests, compared, failures = merge_digests(results)
    attempted = sum(res["attempted"] for res in results) + compared
    failed = sum(res["failed"] for res in results) + len(failures)
    failures = [f for res in results for f in res["failures"]] + failures
    for key, value in sorted(digests.items()):
        if not key.startswith("predict_output.") or key == "predict_output.batch0":
            lines.append(f"sha256 {key}: {value}")
    lines.append(f"operations: {attempted} attempted, {failed} failed")
    lines += [f"FAILED: {f}" for f in failures]
    out = {}
    for key, value in metrics.items():
        entry = {"value": value, "unit": table[key][0]}
        if value is None:
            entry["missing"] = True
        out[key] = entry
    return lines, out, attempted, failed


def _stats_lines(name: str, stats: dict, sizes: dict) -> list[str]:
    entities = ", ".join(f"{k} {v}" for k, v in stats["entities"].items())
    lines = [
        f"inputs: {stats['messages']} messages, spam share {stats['spam_share']:.3f}, "
        f"{stats['raw_terms']} raw terms -> {stats['preprocessed_terms']} preprocessed -> "
        f"{stats['selected_terms']} selected, {stats['merges']} merges, "
        f"{stats['mean_tokens']:.2f} mean tokens",
        f"entities: {entities}",
    ]
    if name == "predict":
        lines.append(f"held-out messages: {sizes['heldout']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vnspam" / "__init__.py").is_file():
        print(f"error: no vnspam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    spawn = Spawner(time.monotonic() + RUN_DEADLINE_S * len(names))
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            lines, got, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace), spawn)
            print("\n".join(lines), flush=True)
            attempted += a
            failed += f
            if len(names) > 1:
                got = {f"{name}.{k}": v for k, v in got.items()}
            metrics.update(got)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
