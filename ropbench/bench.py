"""Workloads, correctness checks and metrics of the ropnet benchmark.

Every workload runs the same closed loop with one caller, cycle after
cycle until the time is up (at least ``MIN_CYCLES`` times):

- score a held-out well with the flagship checkpoint: bulk
  ``Model.predict`` at batch size 4096, the ``predict`` command
  in-process through ``cli.main``, and ``permutation_importance`` on a
  fixed slice of the well;
- ``rounds`` times, train each of the five kinds in turn for one epoch
  from the same initial weights, as ``ropnet compare`` does, with the
  scoring steps spread between the rounds;
- after every step, stream a few windows through ``Model.predict`` at
  batch size 1.

Workloads differ only in their inputs (window length, training rounds
per cycle, size of the held-out well), so each one reports every metric
while stressing a different part of the program.

Training always uses the gate-07 well and seed, so ``test_mse`` is
deterministic per commit.  The workload seed makes the held-out well,
where the batch-1 stream starts and the permutations of the explain
step; ropnet receives only the generated data.

This machine flips between a fast and a slow speed state (about 1.3x
to 1.7x apart) every few seconds to minutes, whatever the BLAS thread
count.  The median of such a mixture jumps from one state to the other
as the share of slow time crosses one half, while a mean moves with
that share smoothly.  So each timing other than the tail percentiles
is computed per cycle (a cycle's p50 is its median) and the run reports
the mean over its cycles without the fastest and the slowest one; the
tails cover every sample of the run, at least ten samples beyond them.

Each training run, scoring call and streamed window is one operation;
an operation fails when it raises or when one of its correctness
checks does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

import ropnet.cli as cli
import ropnet.data as data
import ropnet.explain as explain
import ropnet.metrics as metrics
import ropnet.models as models
import ropnet.preprocess as preprocess
import ropnet.train as train
from ropnet.tensor import SeededRng

from costs import layer_costs
from spans import SPAN_NAMES, TAPE_SPAN, Probes, Tracer

now = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FLAGSHIP = models.ADVANCED_HYBRID
KINDS = models.MODEL_KINDS
# Data and training seed of the gate-07 setup.
TRAIN_SEED = 42
# Keeps the held-out well's data seed away from the training well's.
HELDOUT_SEED_OFFSET = 1_000_003
BATCH_SIZE = 64
FEATURES = 8  # sensor channels of the synthetic well
MIN_CYCLES = 2  # the determinism checks compare repeated runs
CHECKPOINT_EPOCHS = 1
TRAIN_EPOCHS = 1  # per training run in a cycle
BULK_BATCH = 4096
# Bulk predict and the batch-1 stream use this leading slice of the
# held-out well.
BULK_WINDOWS = 2 * BULK_BATCH
ONLINE_BATCH = 1
# Predictions at batch sizes 1, 256 (the predict command) and 4096 must
# agree this closely in the scaled target space.
BATCH_AGREEMENT = 1e-12
# One epoch of the flagship reaches held-out R^2 0.26 to 0.73 on these
# wells (the short window-16 well spreads widest); a broken model scores
# at or below 0.
HELDOUT_R2_FLOOR = 0.15
# Scaled test MSE must stay below bayes + this share of the variance
# above bayes; predicting the mean scores about 1.0.
MAX_UNEXPLAINED = 0.9


@dataclass(frozen=True)
class Workload:
    why: str
    window: int
    rounds: int  # training rounds per cycle
    heldout_rows: int
    explain_windows: int
    online_windows: int  # per cycle
    train_rows: int = 2000
    setup_reps: int = 3


WORKLOADS = {
    "train_flagship": Workload(
        why="gate-07 setup at window 4 and a 20,000-row held-out well: fixed "
        "per-step costs (AdamW, zero_grad, tape) and scoring I/O weigh most",
        window=4,
        rounds=2,
        heldout_rows=20000,
        explain_windows=128,
        online_windows=384,
    ),
    "train_kinds_long": Workload(
        why="window 16: the recurrence dominates every LSTM kind while "
        "ts_mixer ignores the window, so an LSTM change leaves it unchanged",
        window=16,
        rounds=1,
        heldout_rows=1024,
        explain_windows=32,
        online_windows=256,
    ),
}

# name -> (unit, better); the order is the order BENCHMARK.json lists.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "test_mse": ("mse", "lower"),
    **{f"epoch_s.{kind}": ("s", "lower") for kind in KINDS},
    "score_s": ("s", "lower"),
    "predict_rows_per_s.b4096": ("1/s", "higher"),
    "online_ms_p50": ("ms", "lower"),
    "explain_s": ("s", "lower"),
}
# Computed and kept in the run record, but not a bounded metric: over
# ten seeds its spread reached 36%, since how often this machine stalls
# a batch-1 call varies from run to run.
UNBOUNDED = ["online_ms_p99"]
# End-to-end timings whose traced-minus-untraced difference a traced
# run reports as its overhead.
OVERHEAD_OF = [
    m for m in END_TO_END if m not in ("setup_s", "peak_rss_mb", "test_mse")
]
# Exact counts: tape records per flagship step, Param objects in the
# flagship, Model.predict calls per permutation_importance, and
# Model.predict calls at each batch size per set-up plus cycle.
PREDICT_CALLS = [f"models.predict.calls.b{b}" for b in (ONLINE_BATCH, 256, BULK_BATCH)]
COUNTS = [
    "layers.tape.records_per_step",
    "models.param_objects",
    "explain.predict_calls",
    *PREDICT_CALLS,
]


def per_layer_metrics() -> dict:
    """name -> unit for everything a traced run reports."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = "s"
        out[self_metric(name)] = "s"
        out[f"{name}.calls"] = "count"
    for name in COUNTS:
        out[name] = "count"
    for name in OVERHEAD_OF:
        out[f"trace_overhead.{name}"] = END_TO_END[name][0]
    return out


def self_metric(span: str) -> str:
    return "layers.tape.self_s" if span == TAPE_SPAN else f"{span}.self_s"


@dataclass
class Cycle:
    traced: bool
    epochs: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    steps_ms: list = field(default_factory=list)
    train_windows: int = 0
    train_wall: float = 0.0
    test_mse: float | None = None
    score_s: float | None = None
    bulk_rows: int = 0
    bulk_s: float = 0.0
    online_ms: list = field(default_factory=list)
    explain_s: float | None = None


@dataclass
class Inputs:
    """What one set-up produces; the timed cycles only read it."""

    truth: dict
    state: object
    prep: object
    checkpoint: Path
    heldout_csv: Path
    scorer: object
    windows: np.ndarray
    statics: np.ndarray
    y_raw: np.ndarray


def _mean(values):
    return statistics.fmean(values) if values else None


def _trimmed_mean(values):
    """Mean without the highest and the lowest value once there are four."""
    values = sorted(values)
    return _mean(values[1:-1] if len(values) >= 4 else values)


def _median(values):
    return statistics.median(values) if values else None


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else None


def cycle_figures(c: Cycle) -> dict:
    """One cycle's value of every end-to-end timing except the tails."""
    return {
        "train_samples_per_s": c.train_windows / c.train_wall if c.train_wall else None,
        "step_ms_p50": _median(c.steps_ms),
        **{f"epoch_s.{kind}": _mean(c.epochs[kind]) for kind in KINDS},
        "score_s": c.score_s,
        "predict_rows_per_s.b4096": c.bulk_rows / c.bulk_s if c.bulk_s else None,
        "online_ms_p50": _median(c.online_ms),
        "explain_s": c.explain_s,
    }


def end_to_end(cycles) -> dict:
    """The run's end-to-end values from its cycle records.

    Timings other than the tail percentiles are the trimmed mean of the
    cycles' figures; the tails cover every sample of the run.
    """
    figures = [cycle_figures(c) for c in cycles]
    out = {}
    for name in figures[0] if figures else ():
        out[name] = _trimmed_mean([f[name] for f in figures if f[name] is not None])
    out["step_ms_p90"] = _percentile([s for c in cycles for s in c.steps_ms], 90)
    out["online_ms_p99"] = _percentile([s for c in cycles for s in c.online_ms], 99)
    out["test_mse"] = next(
        (c.test_mse for c in cycles if c.test_mse is not None), None
    )
    return out


class Run:
    """One benchmark run of one workload."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, probes: Probes):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.probes = probes
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_curve = {}
        self.first_importance = None
        self.bulk = None  # batch-4096 predictions every other batch size must match
        self.online_next = seed

    @contextlib.contextmanager
    def operation(self, label):
        """Count one operation; yields a list that collects problems.

        The benchmark is the boundary that must keep running, so any
        exception inside an operation is recorded as its failure.
        """
        self.attempted += 1
        problems = []
        try:
            yield problems
        except Exception:
            problems.append(traceback.format_exc(limit=3).strip())
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems))

    # -- set-up --------------------------------------------------------
    def spec(self, kind):
        return models.ModelSpec(
            kind=kind, input_features=FEATURES, window_len=self.wl.window
        )

    def train_config(self, epochs):
        return train.TrainConfig(
            epochs=epochs, batch_size=BATCH_SIZE, seed=TRAIN_SEED
        )

    def set_up(self) -> Inputs:
        wl, seed = self.wl, self.seed
        well, truth = data.generate_synthetic(
            data.SyntheticSpec(n_rows=wl.train_rows, seed=TRAIN_SEED)
        )
        state, prep = preprocess.fit_pipeline(well, window_len=wl.window)
        model = models.build_model(self.spec(FLAGSHIP), SeededRng(TRAIN_SEED))
        train.train_model(
            model,
            self.train_config(CHECKPOINT_EPOCHS),
            (prep.train_windows, prep.train_statics, prep.train_y),
            (prep.test_windows, prep.test_statics, prep.test_y),
        )
        checkpoint = self.workdir / f"checkpoint_{FLAGSHIP}.roph"
        train.save_checkpoint(checkpoint, model, state)
        scorer, _ = train.load_checkpoint(checkpoint)
        heldout, _ = data.generate_synthetic(
            data.SyntheticSpec(n_rows=wl.heldout_rows, seed=seed + HELDOUT_SEED_OFFSET)
        )
        heldout_csv = self.workdir / "heldout.csv"
        data.write_csv(heldout_csv, heldout)
        windows, statics, y_raw = preprocess.transform(heldout, state)
        return Inputs(
            truth, state, prep, checkpoint, heldout_csv, scorer, windows, statics, y_raw
        )

    # -- one cycle -----------------------------------------------------
    def cycle(self, inp: Inputs, traced: bool) -> Cycle:
        rec = Cycle(traced=traced)
        scoring = [self.bulk_predict, self.explain, self.predict_command]
        training = [partial(self.train_kind, kind=kind) for kind in KINDS]
        steps = []
        for r in range(self.wl.rounds):
            steps += scoring[r :: self.wl.rounds] + training
        for step in steps:
            step(inp, rec)
            # spread the batch-1 stream over the cycle so that its
            # percentiles do not hinge on one stretch of machine noise
            self.online(inp, rec, self.wl.online_windows // len(steps))
        return rec

    def train_kind(self, inp: Inputs, rec: Cycle, kind: str):
        prep, probes = inp.prep, self.probes
        bayes = inp.truth["bayes_mse"] / inp.state.target_std**2
        ceiling = bayes + MAX_UNEXPLAINED * (1.0 - bayes)
        with self.operation(f"train {kind}") as problems:
            model = models.build_model(self.spec(kind), SeededRng(TRAIN_SEED))
            probes.kind = kind
            probes.take_steps()
            probes.take_epoch_ends()
            start = now()
            curve = train.train_model(
                model,
                self.train_config(TRAIN_EPOCHS),
                (prep.train_windows, prep.train_statics, prep.train_y),
                (prep.test_windows, prep.test_statics, prep.test_y),
            )
            wall = now() - start
            rec.epochs[kind] += np.diff([start, *probes.take_epoch_ends()]).tolist()
            rec.train_windows += prep.train_windows.shape[0] * TRAIN_EPOCHS
            rec.train_wall += wall
            steps = probes.take_steps()
            if kind == FLAGSHIP:
                rec.steps_ms += [1e3 * s for s in steps]
                rec.test_mse = curve.final_test_mse
            losses = [v for row in curve.rows for v in row[1:]]
            if not all(math.isfinite(v) for v in losses):
                problems.append(f"non-finite loss in {curve.rows}")
            if not curve.final_test_mse < ceiling:
                problems.append(
                    f"test mse {curve.final_test_mse} not below {ceiling}"
                )
            text = repr(curve.rows)
            if self.first_curve.setdefault(kind, text) != text:
                problems.append("loss curve differs from the first run")

    def bulk_predict(self, inp: Inputs, rec: Cycle):
        k = BULK_WINDOWS
        with self.operation("bulk predict") as problems:
            start = now()
            pred = inp.scorer.predict(
                inp.windows[:k], inp.statics[:k], batch_size=BULK_BATCH
            )
            rec.bulk_s += now() - start
            rec.bulk_rows += pred.size
            if not np.all(np.isfinite(pred)):
                problems.append("non-finite prediction")
            if self.bulk is None:
                self.bulk = pred
            elif not np.array_equal(pred, self.bulk):
                problems.append("bulk predictions differ from the first run")

    def predict_command(self, inp: Inputs, rec: Cycle):
        out = self.workdir / "scored"
        argv = [
            "predict",
            "--checkpoint", str(inp.checkpoint),
            "--data", str(inp.heldout_csv),
            "--out", str(out),
        ]
        with self.operation("predict command") as problems:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = now()
                code = cli.main(argv)
                elapsed = now() - start
            if code != 0:
                problems.append(f"exit code {code}: {sink.getvalue()}")
                return
            rec.score_s = elapsed
            problems += self.check_predictions(inp, out / "predictions.csv")

    def check_predictions(self, inp: Inputs, path: Path) -> list:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n, window = inp.windows.shape[0], self.wl.window
        if table.shape != (n, 4):
            return [f"predictions.csv has shape {table.shape}, expected ({n}, 4)"]
        problems = []
        if not np.array_equal(table[:, 0], np.arange(n) + window - 1):
            problems.append("sample_index column is not one row per window")
        if not np.array_equal(table[:, 1], inp.y_raw):
            problems.append("actual column differs from the held-out target")
        if self.bulk is not None:
            k = self.bulk.size
            scaled = (table[:k, 2] - inp.state.target_mean) / inp.state.target_std
            worst = float(np.max(np.abs(scaled - self.bulk)))
            if not worst <= BATCH_AGREEMENT:
                problems.append(
                    f"batch 256 and batch {BULK_BATCH} predictions differ by {worst}"
                )
        r2 = metrics.compute_metrics(table[:, 1], table[:, 2]).r2
        if not r2 >= HELDOUT_R2_FLOOR:
            problems.append(f"held-out r2 {r2} below {HELDOUT_R2_FLOOR}")
        return problems

    def online(self, inp: Inputs, rec: Cycle, count: int):
        bulk = self.bulk
        n = min(inp.windows.shape[0], BULK_WINDOWS)
        for _ in range(count):
            j = self.online_next % n
            self.online_next += 1
            w, s = inp.windows[j : j + 1], inp.statics[j : j + 1]
            with self.operation(f"online window {j}") as problems:
                start = now()
                pred = inp.scorer.predict(w, s, batch_size=ONLINE_BATCH)
                rec.online_ms.append(1e3 * (now() - start))
                if bulk is None:
                    problems.append("no bulk prediction to compare against")
                elif not abs(pred[0] - bulk[j]) <= BATCH_AGREEMENT:
                    problems.append(
                        f"batch {ONLINE_BATCH} and batch {BULK_BATCH} predictions "
                        f"differ: {pred[0]!r} vs {bulk[j]!r}"
                    )

    def explain(self, inp: Inputs, rec: Cycle):
        k = self.wl.explain_windows
        state = inp.state
        y = (inp.y_raw[:k] - state.target_mean) / state.target_std
        with self.operation("explain") as problems:
            start = now()
            report = explain.permutation_importance(
                inp.scorer,
                inp.windows[:k],
                inp.statics[:k],
                y,
                state.feature_names,
                SeededRng(self.seed),
            )
            rec.explain_s = now() - start
            values = [report.base_mse, *report.importances]
            if len(report.importances) != len(state.feature_names):
                problems.append("one importance per feature expected")
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite importance in {values}")
            text = repr(values)
            if self.first_importance is None:
                self.first_importance = text
            elif text != self.first_importance:
                problems.append("importances differ from the first run")


def _blas_config():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints
        return None
    return config.get("Build Dependencies", {}).get("blas")


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def metadata(seed: int, blas_threads) -> dict:
    return {
        "numpy": np.__version__,
        "blas": _blas_config(),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "seed": seed,
    }


def _per_layer_values(probes, setup_tracer, setup_reps, tracer, n_traced, model, e2e_on, e2e_off):
    """Per (one set-up + one cycle) span figures, counts and overhead."""

    def per_unit(attr, name):
        return (
            getattr(setup_tracer, attr).get(name, 0) / setup_reps
            + getattr(tracer, attr).get(name, 0) / n_traced
        )

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = per_unit("total", name)
        out[self_metric(name)] = per_unit("self_time", name)
        out[f"{name}.calls"] = per_unit("calls", name)
    records = probes.tape_records[FLAGSHIP]
    out["layers.tape.records_per_step"] = sum(records) / len(records) if records else None
    out["models.param_objects"] = len(model.params())
    explains = tracer.calls.get("explain.permutation_importance", 0)
    out["explain.predict_calls"] = (
        tracer.counts["explain.predict_calls"] / explains if explains else None
    )
    for name in PREDICT_CALLS:
        out[name] = per_unit("counts", name)
    for name in OVERHEAD_OF:
        on, off = e2e_on.get(name), e2e_off.get(name)
        out[f"trace_overhead.{name}"] = None if on is None or off is None else on - off
    return out


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    workload: Workload | None = None,
    import_s: float = 0.0,
    blas_threads=None,
) -> dict:
    """Run one workload; returns the result object the command prints.

    A full record (metadata, computed layer costs, failures and, when
    tracing, every span) is written to ``out_dir``.
    """
    wl = workload or WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    probes = Probes()
    try:
        with probes:
            run = Run(wl, seed, workdir, probes)
            probes.kind = "setup"
            probes.tracing = trace
            setup_times = []
            for _ in range(wl.setup_reps):
                start = now()
                inp = run.set_up()
                setup_times.append(now() - start)
            probes.take_steps()
            probes.take_epoch_ends()
            setup_tracer, probes.tracer = probes.tracer, Tracer()

            cycles = []
            deadline = now() + seconds
            last = 0.0
            # stop when the next cycle would end more than half a cycle
            # past the deadline
            while len(cycles) < MIN_CYCLES or now() + last / 2 < deadline:
                # a traced run alternates untraced and traced cycles so
                # that its overhead is measured on the same inputs
                traced = trace and len(cycles) % 2 == 1
                probes.tracing = traced
                start = now()
                cycles.append(run.cycle(inp, traced))
                last = now() - start
            probes.tracing = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [c for c in cycles if not c.traced]
    if trace:
        traced = [c for c in cycles if c.traced]
        values = _per_layer_values(
            probes,
            setup_tracer,
            wl.setup_reps,
            probes.tracer,
            len(traced),
            inp.scorer,
            end_to_end(traced),
            end_to_end(untraced),
        )
        units = per_layer_metrics()
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **end_to_end(untraced),
        }
        units = {m: unit for m, (unit, _) in END_TO_END.items()}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": name,
        "inputs": asdict(wl),
        "metadata": metadata(seed, blas_threads),
        "cycles": [{"traced": c.traced, **cycle_figures(c)} for c in cycles],
        "setup_s_each": setup_times,
        "import_s": import_s,
        "computed_layer_costs": {
            kind: layer_costs(run.spec(kind), BATCH_SIZE) for kind in KINDS
        },
        "failures": run.failures,
        "unbounded": {m: values.get(m) for m in UNBOUNDED},
        "result": result,
    }
    if trace:
        record["spans"] = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "setup": setup_tracer.spans,
            "cycles": probes.tracer.spans,
        }
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return result


def tiny(name: str) -> Workload:
    """The named workload at sizes small enough for a smoke test."""
    return replace(
        WORKLOADS[name],
        rounds=1,
        heldout_rows=160,
        explain_windows=16,
        train_rows=300,
        online_windows=16,
        setup_reps=1,
    )
