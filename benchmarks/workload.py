"""One workload in one fresh process; ``run.py`` spawns it.

Usage: ``python3 workload.py '<json spec>'``. The spec names the workload, the
mode, the input directory ``dir`` and the output directory ``out``. The
process prints one JSON object on its last stdout line. The moment its inputs
are ready is reported as a ``time.monotonic()`` reading; the parent compares
it with its own reading taken just before the spawn to get the set-up time.

Modes:
  setup   set up, report the ready time, exit
  prep    (predict only) fit and save the model the predict workload serves
  run     set up, then run the workload's unit of work, again and again
          until ``seconds`` have passed (once when it is 0), then run the
          output checks
  import  time ``import vnspam.cli`` in this fresh interpreter

Units of work are timed in CPU seconds of this process (user plus system).
The program is single-threaded, so on an idle machine that equals wall time,
but it leaves out time the hypervisor steals from the process. While the
units run untraced, the fixed loop in ``calib.py`` is timed every half CPU
second, which tells how fast the machine was meanwhile; its own time is left
out of every figure. Per-message latency is wall time. Nothing here starts a
thread or a process.
"""

import sys
import time

KINDS = ("nb", "svm", "lr", "dt", "knn")
ENTITY_TOKENS = ("<link>", "<emoticon>", "<date>", "<phone>", "<currency>", "<number>")
PREDICT_BATCH = 5000
GRID_FOLDS = 5
GRID_FOLD_SEED = 42  # what `vnspam evaluate` uses unless --seed is given
MAX_FAILURE_MESSAGES = 20


def main(spec):
    if spec["mode"] == "import":
        t0 = time.perf_counter()
        import vnspam.cli  # noqa: F401

        return {"import_s": time.perf_counter() - t0}

    # Set-up: everything before `ready` is what a user waits for at start.
    import vnspam

    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(vnspam, observers=_observers())
    from pathlib import Path

    work = Path(spec["dir"])
    name = spec["workload"]
    if spec["mode"] == "prep":
        return _prep(vnspam, work)
    state = {}
    if name == "predict":
        import vnspam.cli  # noqa: F401

        with open(work / "heldout-0.tsv", "rb") as fh:
            first = fh.readline().rstrip(b"\n").partition(b"\t")[2].decode("utf-8")
        state["fitted"] = vnspam.FittedPipeline.load(work / "model.json")
        state["fitted"].predict_text(first)
    else:
        corpus = vnspam.corpus.load_corpus(work / f"{name}.tsv")
        state["corpus"] = corpus
        if name == "grid":
            state["folds"] = vnspam.corpus.stratified_kfold(
                corpus, GRID_FOLDS, seed=GRID_FOLD_SEED
            )
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}

    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    import contextlib
    import resource

    import calib

    calibrator = calib.Calibrator()
    runner = Runner(vnspam, work, out, state, spec.get("first_batch", 0), calibrator.cpu_time)
    unit = getattr(runner, f"unit_{name}")
    # Spans would count the loop's time in whatever layer it interrupts.
    sampling = contextlib.nullcontext() if tracer else calibrator.sampling()
    deadline = time.monotonic() + spec["seconds"]
    units = []
    with sampling:
        while True:
            t0, c0 = time.perf_counter(), calibrator.cpu_time()
            figures = unit(len(units))
            figures["unit_s"] = time.perf_counter() - t0
            figures["unit_cpu_s"] = calibrator.cpu_time() - c0
            if not units:
                # The high-water mark after set-up and one unit: later units
                # would make it depend on how many fit in the time.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units.append(figures)
            if time.monotonic() >= deadline:
                break

    runner.final_checks(name)
    result = {
        "ready": ready,
        "units": units,
        "calibration_s": calibrator.samples,
        "peak_rss_mb": peak_rss_mb,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:MAX_FAILURE_MESSAGES],
        "digests": runner.digests,
    }
    if tracer is not None:
        tracer.dump(str(out / "spans.tsv"))
        result["trace"] = {
            "summary": tracer.summary(),
            "observed": {k: sum(v) / len(v) for k, v in tracer.observed.items()},
            "missing": tracer.missing,
            "spans": len(tracer.start),
        }
    elif spec.get("stats"):
        result["stats"] = runner.input_stats()
    return result


def _observers():
    """Counts taken from layer results at the layer boundary."""
    import os

    def vectorized(tr, args, kwargs, result):
        tr.observe("nnz", len(result.weights))

    def pipeline(tr, args, kwargs, result):
        if result.vocab is not None:
            tr.observe("vocab_terms", len(result.vocab))
        if result.collocations:
            tr.observe("merges", sum(len(cm.merges) for cm in result.collocations))

    def saved(tr, args, kwargs, result):
        fitted, path = args[0], args[1] if len(args) > 1 else kwargs["path"]
        tr.observe(f"model_bytes.{fitted.model.kind}", os.path.getsize(path))

    return {
        "features.vectorize_bow": vectorized,
        "features.vectorize_tfidf": vectorized,
        "pipeline.fit": pipeline,
        "pipeline.load": pipeline,
        "pipeline.save": saved,
    }


def _prep(vnspam, work):
    corpus = vnspam.corpus.load_corpus(work / "train.tsv")
    t0 = time.perf_counter()
    fitted = vnspam.FittedPipeline.fit(corpus.messages)
    fit_s = time.perf_counter() - t0
    fitted.save(work / "model.json")
    return {"fit_s": fit_s, "stats": input_stats(fitted, corpus)}


def input_stats(fitted, corpus):
    from collections import Counter

    streams = [fitted.tokens(m.text) for m in corpus.messages]
    entities = Counter(tok for s in streams for tok in s if tok in ENTITY_TOKENS)
    spam = sum(1 for m in corpus.messages if m.label.token == "spam")
    return {
        "messages": len(corpus),
        "spam_share": spam / len(corpus),
        "raw_terms": fitted.stats.raw_terms,
        "preprocessed_terms": fitted.stats.preprocessed_terms,
        "selected_terms": fitted.stats.selected_terms,
        "merges": sum(len(cm.merges) for cm in fitted.collocations),
        "mean_tokens": sum(len(s) for s in streams) / len(streams),
        "entities": {tok.strip("<>"): entities[tok] for tok in ENTITY_TOKENS},
    }


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


class Runner:
    """Units of work for each workload, with the checks that go with them."""

    def __init__(self, vnspam, work, out, state, first_batch, cpu):
        self.vnspam = vnspam
        self.cpu = cpu  # CPU-seconds clock that leaves out calibration
        self.work = work
        self.out = out
        self.state = state
        self.first_batch = first_batch
        self.attempted = 0
        self.failed = 0
        self.failures = []
        # (name, sha256) of every output, one entry per round; run.py
        # compares all entries of one name, within and across processes
        self.digests = []

    def _record(self, failures, attempted=1):
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures)

    # -- predict: score a batch one message at a time, then through the CLI --

    def unit_predict(self, u):
        import contextlib
        import io

        import checks

        # Only this unit's batch is read, so the harness holds few messages
        # when peak_rss_mb is sampled.
        nbatches = len(list(self.work.glob("heldout-*.tsv")))
        b = (self.first_batch + u) % nbatches
        raw = (self.work / f"heldout-{b}.tsv").read_bytes().split(b"\n")
        batch = [(label.decode(), text) for label, _, text in
                 (line.partition(b"\t") for line in raw if line)]
        del raw
        fitted = self.state["fitted"]
        clock = time.perf_counter_ns
        latencies = []
        lines = []
        raised = []
        errors = 0
        c0 = self.cpu()
        for label, raw in batch:
            text = raw.decode("utf-8")
            start = clock()
            try:
                pred = fitted.predict_text(text)
            except Exception as exc:  # counted as a failed operation
                latencies.append(clock() - start)
                lines.append("EXC")
                raised.append(f"predict_text raised {exc!r}")
                continue
            latencies.append(clock() - start)
            lines.append(f"{pred.label.token}\t{pred.score!r}")
            errors += pred.label.token != label
        api_cpu_s = self.cpu() - c0
        self._record(raised, attempted=len(batch))

        stdin = io.BytesIO(b"".join(raw + b"\n" for _, raw in batch))
        stdout = io.StringIO()
        c0 = self.cpu()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.vnspam.cli.main(["predict", str(self.work / "model.json")], stdin=stdin)
        except Exception as exc:  # counted as a failed operation
            code = repr(exc)
        cli_cpu_s = self.cpu() - c0
        self._record([] if code == 0 else [f"vnspam predict exited with {code}"])
        got = stdout.getvalue().split("\n")[:-1]
        self._record(checks.line_mismatches(lines, got), attempted=len(lines))
        self.digests.append((f"predict_output.batch{b}", _sha256(stdout.getvalue().encode())))
        return {
            "messages": len(batch),
            "api_cpu_s": api_cpu_s,
            "cli_cpu_s": cli_cpu_s,
            "latencies_ns": latencies,
            "errors": errors,
        }

    # -- train: fit and save each learner on the same corpus ------------------

    def unit_train(self, u):
        figures = {}
        for kind in KINDS:
            path = self.out / f"model-{kind}.json"
            c0 = self.cpu()
            try:
                config = self.vnspam.PipelineConfig(classifier=kind)
                fitted = self.vnspam.FittedPipeline.fit(self.state["corpus"].messages, config)
                fitted.save(path)
            except Exception as exc:  # counted as a failed operation
                self._record([f"fit/save {kind} raised {exc!r}"])
                continue
            figures[kind] = self.cpu() - c0
            self.attempted += 1
            self.digests.append((path.name, _sha256(path.read_bytes())))
        return figures

    # -- grid: the paper's comparison grid, five folds, one process -----------

    def unit_grid(self, u):
        import checks

        ev = self.vnspam.evaluation
        corpus = self.state["corpus"]
        c0 = self.cpu()
        try:
            reports = ev.run_grid(corpus, self.state["folds"], ev.reference_grid(), jobs=1)
        except Exception as exc:  # counted as a failed operation
            self._record([f"run_grid raised {exc!r}"])
            return {}
        grid_cpu_s = self.cpu() - c0
        self.attempted += 1
        self._record(checks.fold_total_failures(reports, len(corpus)), attempted=len(reports))
        errors = sum(r.pooled_counts.spam_as_legit + r.pooled_counts.legit_as_spam for r in reports)
        ev.write_csv(reports, self.out / "rates.csv")
        self.digests.append(("rates.csv", _sha256((self.out / "rates.csv").read_bytes())))
        return {"grid_cpu_s": grid_cpu_s, "errors": errors}

    # -- after the timed units ------------------------------------------------

    def final_checks(self, name):
        import checks

        if name == "predict":
            paths = [self.work / "model.json"]
            self.digests.append(("model.json", _sha256(paths[0].read_bytes())))
        else:
            paths = [self.out / f"model-{kind}.json" for kind in KINDS]
        for path in (p for p in paths if p.exists()):
            scratch = self.out / f"{path.stem}.resaved.json"
            self._record(checks.roundtrip_failures(self.vnspam.FittedPipeline, path, scratch))

    def input_stats(self):
        corpus = self.state["corpus"]
        return input_stats(self.vnspam.FittedPipeline.fit(corpus.messages), corpus)


if __name__ == "__main__":
    import json

    print(json.dumps(main(json.loads(sys.argv[1]))))
