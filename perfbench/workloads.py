"""The benchmark's workloads, their phases, output checks and metrics.

Every workload runs the whole `relviews` pipeline in one process and one
thread as a closed loop: generate and split a synthetic dataset, train,
evaluate on the stratified hold-out, round-trip a checkpoint and score
explanations. A run does this on several datasets in turn. The workloads
differ in the data and model and in which phase gets half of the measuring
time, so each stresses different layers. All inputs derive from the
workload seed.

Timings are taken around `training.train`, `training.evaluate` and the
`explain` functions themselves, so a faster implementation behind those
names shows up here without changes to the benchmark.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import platform
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from relviews import explain as ex
from relviews import synth, training
from relviews.errors import NumericError
from relviews.synth import SynthConfig, SynthDataset
from relviews.training import TrainConfig, TrainedModel
from relviews.transitivity import TransitivityConfig

from . import tracing

_clock = time.perf_counter

# Run records and the checkpoints of the round-trip check go here.
OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"

# Share of each round's measuring time given to the workload's focus phase;
# the other timed phases split the rest. Training is a timed phase only when
# it is the focus; otherwise the setups train.
PRIMARY_SHARE = 0.5

# The timed samples are training steps, evaluate() calls of EVAL_CHUNK
# hold-out instances (time per instance) and explanation passes over
# EXPLAIN_GROUP probe graphs (time per graph). Each end-to-end timing is the
# 90th percentile of its samples. On a shared virtual machine (2 vCPUs, where
# the baseline was taken) CPU speed drifts by up to a third over minutes: the
# fast spells come and go while the slow state recurs in every run, so the
# slow side of a run repeats from run to run where its median does not. The
# medians are printed and recorded, without a bound (see TIMINGS). ok_ops is
# the share of operations that did not fail (failed and attempted are
# counted as well).
END_TO_END = {
    "setup_s": "s",
    "train_step_ms_p90": "ms",
    "eval_ms_per_instance_p90": "ms",
    "explain_ms_per_graph_p90": "ms",
    "holdout_accuracy": "fraction",
    "peak_rss_mb": "MB",
    "ok_ops": "fraction",
}

# All timings a run reports: the bounded ones above plus the medians and the
# training throughput (instances per second over a train() call's steps).
TIMINGS = {
    "train_step_ms_p50": "ms",
    "train_step_ms_p90": "ms",
    "train_instances_per_s": "1/s",
    "eval_ms_per_instance_p50": "ms",
    "eval_ms_per_instance_p90": "ms",
    "explain_ms_per_graph_p50": "ms",
    "explain_ms_per_graph_p90": "ms",
}

# Hold-out instances per training.evaluate call, and probe graphs per timed
# explanation pass: small enough for 100 or more samples of each in a run.
EVAL_CHUNK = 20
EXPLAIN_GROUP = 4

PER_LAYER = {
    "synth.generate_s": "s",
    "complementarity.build_ms": "ms",
    "encoder.forward_grad_ms": "ms",
    "encoder.forward_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes_per_step": "count",
    "hed.table_ms": "ms",
    "training.distances_ms": "ms",
    "hed.pair_ms": "ms",
    "hed.pair_calls": "count",
    "hed.deletion_share": "fraction",
    "proxies.update_ms": "ms",
    "proxies.update_calls": "count",
    "proxies.sinkhorn_iters_p50": "count",
    "proxies.sinkhorn_iters_max": "count",
    "proxies.sinkhorn_nonconverged": "count",
    "proxies.anchor_loss_ms": "ms",
    "training.adam_step_ms": "ms",
    "training.step_self_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "explain.top_k_ms": "ms",
    "explain.fidelity_ms": "ms",
    "explain.macs_ms": "ms",
    "transitivity.clique_count_ms": "ms",
    "graphs.induced_subgraph_ms": "ms",
    "tracing.overhead_share": "fraction",
}

# Mean self time per call (span minus the wrapped calls nested in it).
_SELF_MS_PER_CALL = {
    "encoder.forward_grad_ms": "encoder.forward_grad",
    "encoder.forward_ms": "encoder.forward",
    "autodiff.backward_ms": "autodiff.backward",
    "hed.table_ms": "hed.table",
    "training.distances_ms": "training.distances",
    "hed.pair_ms": "hed.pair",
    "proxies.update_ms": "proxies.update",
    "proxies.anchor_loss_ms": "proxies.anchor_loss",
    "training.adam_step_ms": "training.adam_step",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "explain.top_k_ms": "explain.top_k",
    "explain.fidelity_ms": "explain.fidelity",
    "explain.macs_ms": "explain.macs",
    "transitivity.clique_count_ms": "transitivity.clique_count",
    "graphs.induced_subgraph_ms": "graphs.induced_subgraph",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: SynthConfig
    train: TrainConfig
    test_fraction: float
    focus: str                 # phase given PRIMARY_SHARE: "train" or "eval"
    rounds: int = 6            # each round runs every phase once
    setups: int = 3            # spread over the rounds; setup_s is their median
    contents: int = 3          # datasets per run, each over rounds/contents rounds
    probe_per_class: int = 10  # hold-out instances per class for checks and explanations
    top_k: tuple[int, ...] = (2, 4, 6, 8, 12, 16)


_NOISY = SynthConfig(num_classes=4, instances_per_class=50, views_per_instance=16,
                     feature_dim=32, noise_rate=0.5,
                     noise_model="outside_global_fraction")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_default",
        why=("paper-default model and data (4 classes, eta 0.5) on 6 datasets per "
             "run, half the time in 3-epoch train calls, where encoder forward with "
             "tape and backward dominate"),
        synth=_NOISY, train=TrainConfig(epochs=3), test_fraction=0.2,
        focus="train", setups=120, contents=6),
    Workload(
        name="eval_many_classes",
        why=("16-class checkpoints on 5 datasets per run, half the time in evaluate "
             "over 640-instance hold-outs: no backward or Sinkhorn, wider HED tables; "
             "the rest scores explanations"),
        # eta 0 and two epochs hold accuracy near 0.98 on every seed; a
        # one-epoch model at eta 0.5 ranged from 0.11 to 0.42 across seeds
        synth=replace(_NOISY, num_classes=16, noise_rate=0.0),
        train=TrainConfig(epochs=2), test_fraction=0.8,
        # one setup per round, each training on a new dataset; the setups'
        # trainings are this workload's step-time samples, and five of them
        # keep one slow spell of the host from setting their p90
        focus="eval", rounds=5, setups=5, contents=5, probe_per_class=2),
)}


class WorkloadFailed(Exception):
    """An operation failed; the run reports what it measured up to there."""


@dataclass
class Ledger:
    """Everything one pass over a workload measured and checked."""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    train_rates: list[float] = field(default_factory=list)  # per train() call
    eval_ms: list[float] = field(default_factory=list)      # per instance, per evaluate call
    explain_ms: list[float] = field(default_factory=list)   # per graph, per group pass
    explain_passes: int = 0                                  # full passes over the probe
    # per dataset (content index): hold-out accuracy and explanation rows of every pass
    accuracies: dict[int, list[float]] = field(default_factory=dict)
    explanations: dict[int, list[list[list[dict]]]] = field(default_factory=dict)
    report_rows: list[dict] = field(default_factory=list)  # whole probe set, last dataset

    def attempt(self, ops: int, fn, *args):
        """Run one operation worth `ops` attempts; a NumericError fails it."""
        self.attempted += ops
        try:
            return fn(*args)
        except NumericError as err:
            self.failed += 1
            self.errors.append(f"{type(err).__name__}: {err}")
            raise WorkloadFailed(str(err)) from err

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


@dataclass
class State:
    content: int
    seed: int                  # derived from the workload seed and the content index
    train_ds: SynthDataset
    holdout: SynthDataset
    probe: SynthDataset
    chunks: list[SynthDataset]
    report: training.TrainReport | None = None
    model: TrainedModel | None = None
    loaded: TrainedModel | None = None
    graphs: list | None = None


def content_seed(seed: int, content: int) -> int:
    """The seed of one of a run's datasets. A run measures several datasets,
    so that its figures do not hang on the quirks of a single one."""
    return int(np.random.SeedSequence([seed, content]).generate_state(1)[0])


def _probe_set(holdout: SynthDataset, per_class: int) -> SynthDataset:
    """The first `per_class` hold-out instances of every class."""
    seen: dict[int, int] = {}
    picked = []
    for inst in holdout.instances:
        if seen.get(inst.label, 0) < per_class:
            seen[inst.label] = seen.get(inst.label, 0) + 1
            picked.append(inst)
    return SynthDataset(holdout.config, picked)


def _steps_per_call(n: int, cfg: TrainConfig) -> int:
    return cfg.epochs * -(-n // cfg.batch_size)


def _train(ledger: Ledger, w: Workload, seed: int, train_ds: SynthDataset,
           timed: bool = True):
    """One training.train call: (report, model). Only a timed call adds
    step times and a training rate to the ledger."""
    cfg = replace(w.train, seed=seed)
    marks: list[float] = []
    gc.collect()
    with tracing.step_clock(marks):
        report, model = ledger.attempt(_steps_per_call(len(train_ds), cfg),
                                       training.train, train_ds, cfg)
    if len(marks) < 2:
        raise RuntimeError("the trainer made fewer than two backward calls")
    ledger.check("losses_finite", np.isfinite(report.epoch_losses).all())
    if timed:
        ledger.step_ms.extend(np.diff(marks) * 1e3)
        # instances in the steps after the first mark, over the time they took
        instances = len(train_ds) * cfg.epochs * (len(marks) - 1) / len(marks)
        ledger.train_rates.append(instances / (marks[-1] - marks[0]))
    return report, model


def _predictions(model: TrainedModel, ds: SynthDataset) -> list[int]:
    ids = model.class_ids()
    return [ids[int(np.argmin(model.distances(g)))]
            for g in training.encode_dataset(model, ds)]


def _round_trip(w: Workload, model: TrainedModel) -> TrainedModel:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{w.name}-{os.getpid()}.ckpt"
    try:
        model.save(path)
        return TrainedModel.load(path)
    finally:
        path.unlink(missing_ok=True)


def _same_tensors(a: TrainedModel, b: TrainedModel) -> bool:
    ta = list(a.params.named_tensors()) + list(a.cost_head.named_tensors())
    tb = list(b.params.named_tensors()) + list(b.cost_head.named_tensors())
    if [n for n, _ in ta] != [n for n, _ in tb] or a.class_ids() != b.class_ids():
        return False
    same = all(np.array_equal(x, y) for (_, x), (_, y) in zip(ta, tb))
    for cid in a.proxies:
        same &= np.array_equal(a.proxies[cid].node_centroids, b.proxies[cid].node_centroids)
    for cid in a.proxy_vectors:
        same &= np.array_equal(a.proxy_vectors[cid], b.proxy_vectors[cid])
    return bool(same)


def _setup(ledger: Ledger, w: Workload, seed: int, content: int) -> State:
    seed = content_seed(seed, content)
    gc.collect()
    start = _clock()
    ds = synth.generate(replace(w.synth, seed=seed))
    train_ds, holdout = synth.split_dataset(ds, w.test_fraction)
    chunks = [SynthDataset(holdout.config, holdout.instances[i:i + EVAL_CHUNK])
              for i in range(0, len(holdout), EVAL_CHUNK)]
    state = State(content, seed, train_ds, holdout,
                  _probe_set(holdout, w.probe_per_class), chunks)
    if w.focus == "eval":
        state.report, state.model = _train(ledger, w, seed, train_ds)
        state.loaded = _round_trip(w, state.model)
    ledger.setup_s.append(_clock() - start)
    return state


def explanation_pass(model: TrainedModel, graphs, top_k, seed: int) -> list[dict]:
    """Fidelity-sparsity curve plus random-explanation fidelity and mACS per k,
    as `relviews metrics --macs` computes them."""
    head = model.cost_head
    curve = ex.fidelity_sparsity_curve(graphs, model.proxies, head, top_k)
    rng = np.random.default_rng(seed)
    cfg = TransitivityConfig()
    rows = []
    for k, sparsity, fid in curve:
        top = ex.ExplanationSet(tuple(ex.top_k_explanation(g, k) for g in graphs),
                                model.proxies)
        rand = ex.ExplanationSet(tuple(ex.random_explanation(g, k, rng) for g in graphs),
                                 model.proxies)
        rows.append({"k": k, "sparsity": sparsity, "fidelity_top_k": fid,
                     "fidelity_random": ex.fidelity(rand, head),
                     "macs": ex.macs_at_k(top, rand, min(k + 1, 4), cfg)})
    return rows


def _finite_rows(rows: list[dict]) -> list[dict]:
    if not all(np.isfinite(v) for row in rows for v in row.values()):
        raise NumericError("non-finite explanation metric")
    return rows


def _repeat(fn, seconds: float) -> None:
    """Call fn once, then again while the next call is expected to end
    within `seconds` of the start (by the mean call time so far)."""
    start = _clock()
    count = 0
    while count == 0 or (_clock() - start) * (count + 1) / count <= seconds:
        gc.collect()
        fn()
        count += 1


def _phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def measure(w: Workload, seed: int, seconds: float, tracer=None,
            single: bool = False) -> Ledger:
    """Run the workload's rounds (or a single round with one setup), then check.

    Every round runs every phase and the setups are spread over the rounds,
    so each metric samples the whole run rather than one stretch of it: the
    host's speed drifts over tens of seconds. The rounds cycle through
    w.contents datasets, so each metric also samples several datasets. A
    round gets 1/w.rounds of `seconds`, shared out as PRIMARY_SHARE says."""
    ledger = Ledger()
    rounds, setups = (1, 1) if single else (w.rounds, w.setups)
    try:
        _run(ledger, w, seed, seconds / w.rounds, rounds, setups, tracer)
    except WorkloadFailed:
        ledger.check("no_failed_ops", False)
    return ledger


def _run(ledger: Ledger, w: Workload, seed: int, per_round: float, rounds: int,
         setups: int, tracer) -> None:
    others = 2 if w.focus == "train" else 1

    def window(phase: str) -> float:
        share = PRIMARY_SHARE if phase == w.focus else (1.0 - PRIMARY_SHARE) / others
        return share * per_round

    for r in range(rounds):
        content = r * w.contents // rounds
        for _ in range(math.ceil((r + 1) * setups / rounds) - math.ceil(r * setups / rounds)):
            with _phase(tracer, "bench.setup"):
                state = _setup(ledger, w, seed, content)
        if w.focus == "train":
            def train_once():
                with _phase(tracer, "bench.train_call"):
                    state.report, state.model = _train(ledger, w, state.seed, state.train_ds)
            _repeat(train_once, window("train"))
        model = state.loaded if state.loaded is not None else state.model
        if state.graphs is None:
            state.graphs = training.encode_dataset(model, state.probe)

        def eval_once():
            hits = 0
            with _phase(tracer, "bench.eval_pass"):
                for chunk in state.chunks:
                    start = _clock()
                    acc = ledger.attempt(1, training.evaluate, model, chunk)
                    ledger.eval_ms.append(1e3 * (_clock() - start) / len(chunk))
                    hits += round(acc * len(chunk))
            ledger.accuracies.setdefault(state.content, []).append(hits / len(state.holdout))

        def explain_once():
            groups = []
            with _phase(tracer, "bench.explain_pass"):
                for i in range(0, len(state.graphs), EXPLAIN_GROUP):
                    group = state.graphs[i:i + EXPLAIN_GROUP]
                    start = _clock()
                    groups.append(ledger.attempt(1, lambda: _finite_rows(
                        explanation_pass(model, group, w.top_k, state.seed))))
                    ledger.explain_ms.append(1e3 * (_clock() - start) / len(group))
            ledger.explain_passes += 1
            ledger.explanations.setdefault(state.content, []).append(groups)

        _repeat(eval_once, window("eval"))
        _repeat(explain_once, window("explain"))

    with _phase(tracer, "bench.checks"):
        _check(ledger, w, state)


def _check(ledger: Ledger, w: Workload, state: State) -> None:
    """Output checks on the last dataset, plus repeatability on every one."""
    report, model = _train(ledger, w, state.seed, state.train_ds, timed=False)
    ledger.check("same_seed_losses_identical",
                 report.epoch_losses == state.report.epoch_losses)
    preds = _predictions(state.model, state.probe)
    ledger.check("same_seed_predictions_identical",
                 _predictions(model, state.probe) == preds)

    loaded = state.loaded if state.loaded is not None else _round_trip(w, state.model)
    ledger.check("checkpoint_tensors_identical", _same_tensors(state.model, loaded))
    ledger.check("checkpoint_predictions_identical",
                 _predictions(loaded, state.probe) == preds)

    labels = [inst.label for inst in state.probe.instances]
    probe_acc = float(np.mean([p == y for p, y in zip(preds, labels)]))
    ledger.check("evaluate_matches_predictions",
                 training.evaluate(loaded, state.probe) == probe_acc)
    ledger.check("evaluate_repeatable",
                 all(len(set(accs)) == 1 for accs in ledger.accuracies.values()))
    ledger.check("explanations_repeatable",
                 all(groups == runs[0] for runs in ledger.explanations.values()
                     for groups in runs))
    ledger.report_rows = ledger.attempt(1, lambda: _finite_rows(
        explanation_pass(loaded, state.graphs, w.top_k, state.seed)))


# ------------------------------------------------------------------ metrics

def _median(xs) -> float:
    return float(np.median(xs))


def timings(ledger: Ledger) -> dict[str, float]:
    """The TIMINGS one ledger has samples for."""
    out = {}
    for name, xs in (("train_step_ms", ledger.step_ms),
                     ("eval_ms_per_instance", ledger.eval_ms),
                     ("explain_ms_per_graph", ledger.explain_ms)):
        if xs:
            out[f"{name}_p50"] = _median(xs)
            out[f"{name}_p90"] = float(np.percentile(xs, 90))
    if ledger.train_rates:
        out["train_instances_per_s"] = _median(ledger.train_rates)
    return out


def end_to_end(ledger: Ledger) -> dict[str, float]:
    """The END_TO_END metrics one ledger has samples for."""
    out = {}
    if ledger.setup_s:
        out["setup_s"] = _median(ledger.setup_s)
    out.update((k, v) for k, v in timings(ledger).items() if k in END_TO_END)
    if ledger.accuracies:
        # mean over the run's datasets; each dataset's passes agree (checked)
        out["holdout_accuracy"] = float(np.mean([a[0] for a in ledger.accuracies.values()]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ok_ops"] = 1.0 - ledger.failed / max(ledger.attempted, 1)
    return out


def samples(ledger: Ledger) -> dict[str, int]:
    return {"setup_s": len(ledger.setup_s), "datasets": len(ledger.accuracies),
            "train_calls": len(ledger.train_rates), "train_steps": len(ledger.step_ms),
            "eval_passes": sum(len(a) for a in ledger.accuracies.values()),
            "eval_calls": len(ledger.eval_ms), "explain_passes": ledger.explain_passes,
            "explain_groups": len(ledger.explain_ms)}


def step_accounting(tracer: tracing.Tracer) -> dict:
    """Per-step means of each child of training.train plus the trainer's own
    time. A step runs from one autodiff.backward call to the next, so the
    parts and the self time add up to the step time."""
    spans = tracer.spans
    kids = tracer.children()
    parts: dict[str, float] = {}
    own, total, nodes = [], [], []
    for t, row in enumerate(spans):
        if row[0] != "training.train":
            continue
        ch = kids[t]
        bounds = [c for c in ch if spans[c][0] == "autodiff.backward"]
        for a, b in zip(bounds, bounds[1:]):
            lo, hi = spans[a][1], spans[b][1]
            inside = [c for c in ch if lo <= spans[c][1] < hi]
            for c in inside:
                parts[spans[c][0]] = parts.get(spans[c][0], 0.0) + spans[c][2] - spans[c][1]
            total.append(hi - lo)
            own.append(hi - lo - sum(spans[c][2] - spans[c][1] for c in inside))
            nodes.append(spans[b][5] - spans[a][5])
    n = len(total)
    if n == 0:
        return {"steps": 0}
    return {"steps": n, "step_ms": 1e3 * sum(total) / n,
            "parts_ms": {k: 1e3 * v / n for k, v in sorted(parts.items())},
            "self_ms": 1e3 * sum(own) / n,
            "tape_nodes_per_step": float(np.median(nodes)),
            "tape_nodes_distinct": sorted(set(nodes))}


def per_layer(tracer: tracing.Tracer, passes: int) -> tuple[dict[str, float], list[str]]:
    """Layer metrics from the traced pass; the second item names the metrics
    whose layer was never entered (reported as 0)."""
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for idx, row in enumerate(tracer.spans):
        by_name.setdefault(row[0], []).append(idx)

    def mean_self(name: str):
        idx = by_name.get(name)
        return None if not idx else sum(own[i] for i in idx) / len(idx)

    out: dict[str, float | None] = {}
    gen = mean_self("synth.generate")
    out["synth.generate_s"] = gen
    builds = by_name.get("complementarity.build", [])
    graphs = sum(tracer.spans[i][4] for i in builds)
    out["complementarity.build_ms"] = (1e3 * sum(own[i] for i in builds) / graphs
                                       if graphs else None)
    for metric, name in _SELF_MS_PER_CALL.items():
        value = mean_self(name)
        out[metric] = None if value is None else 1e3 * value

    acct = step_accounting(tracer)
    out["training.step_self_ms"] = acct.get("self_ms")
    out["autodiff.tape_nodes_per_step"] = acct.get("tape_nodes_per_step")

    trains = len(by_name.get("training.train", []))
    updates = len(by_name.get("proxies.update", []))
    out["proxies.update_calls"] = updates / trains if trains and updates else None
    pair_calls = len(by_name.get("hed.pair", []))
    out["hed.pair_calls"] = pair_calls / passes if passes and pair_calls else None
    out["hed.deletion_share"] = (tracer.hed_deletions / tracer.hed_entries
                                 if tracer.hed_entries else None)
    iters = [i for i, _ in tracer.sinkhorn]
    out["proxies.sinkhorn_iters_p50"] = float(np.median(iters)) if iters else None
    out["proxies.sinkhorn_iters_max"] = float(max(iters)) if iters else None
    out["proxies.sinkhorn_nonconverged"] = (sum(not c for _, c in tracer.sinkhorn) / trains
                                            if iters and trains else None)
    missing = sorted(k for k, v in out.items() if v is None)
    return {k: (0.0 if v is None else float(v)) for k, v in out.items()}, missing


# ---------------------------------------------------------------- reporting

def context(w: Workload, seed: int, seconds: float) -> dict:
    def plain(obj):
        return json.loads(json.dumps(dataclasses.asdict(obj), default=str))
    return {
        "workload": w.name, "why": w.why, "seed": seed, "seconds": seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "config": {"synth": plain(replace(w.synth, seed=seed)),
                   "train": plain(replace(w.train, seed=seed)),
                   "test_fraction": w.test_fraction, "focus": w.focus,
                   "rounds": w.rounds, "setups": w.setups, "contents": w.contents,
                   "content_seeds": [content_seed(seed, c) for c in range(w.contents)],
                   "primary_share": PRIMARY_SHARE, "eval_chunk": EVAL_CHUNK,
                   "explain_group": EXPLAIN_GROUP,
                   "probe_per_class": w.probe_per_class, "top_k": list(w.top_k)},
    }


def _result(w: Workload, seed: int, seconds: float, ledgers: list[Ledger]) -> dict:
    ledger = ledgers[0]
    e2e = end_to_end(ledger)
    checks: dict[str, bool] = {}
    for one in ledgers:
        for name, ok in one.checks.items():
            checks[name] = checks.get(name, True) and ok
    return {
        "context": context(w, seed, seconds),
        "end_to_end": {k: {"value": e2e[k], "unit": u}
                       for k, u in END_TO_END.items() if k in e2e},
        "timings": {k: {"value": v, "unit": TIMINGS[k]} for k, v in timings(ledger).items()},
        "samples": samples(ledger),
        "raw": {"setup_s": ledger.setup_s, "step_ms": ledger.step_ms,
                "train_rates": ledger.train_rates, "eval_ms": ledger.eval_ms,
                "explain_ms": ledger.explain_ms},
        "explanations": ledger.report_rows,
        "checks": checks,
        "errors": [err for one in ledgers for err in one.errors],
        "attempted": sum(one.attempted for one in ledgers),
        "failed": sum(one.failed for one in ledgers),
        "correct": all(checks.values()) and not any(one.failed for one in ledgers),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload untraced and return its record.

    With trace, run one untraced round, one traced round and one more
    untraced round instead. The layer metrics come from the traced round;
    the tracing overhead compares it with the mean of the rounds around it,
    which cancels a steady drift in host speed."""
    if not trace:
        ledger = measure(w, seed, seconds)
        result = _result(w, seed, seconds, [ledger])
        result["metrics"] = result["end_to_end"]
        return result

    before = measure(w, seed, seconds, single=True)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = measure(w, seed, seconds, tracer, single=True)
    after = measure(w, seed, seconds, single=True)
    result = _result(w, seed, seconds, [before, traced, after])

    # the checks make one more explanation pass over the probe set
    layers, missing = per_layer(tracer, traced.explain_passes + 1)
    untraced = [timings(before), timings(after)]
    traced_e2e = timings(traced)
    overhead = {}
    timed = {"train": "train_step_ms_p50", "eval": "eval_ms_per_instance_p50",
             "explain": "explain_ms_per_graph_p50"}
    for name in timed.values():
        if name in traced_e2e and all(name in u for u in untraced):
            overhead[name] = traced_e2e[name] / float(np.mean([u[name] for u in untraced])) - 1.0
    primary = timed[w.focus]
    layers["tracing.overhead_share"] = overhead.get(primary, 0.0)
    result.update({
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()},
        "traced_end_to_end": traced_e2e,
        "tracing_overhead": overhead,
        "step_accounting": step_accounting(tracer),
        "absent_probes": tracer.absent,
        "not_measured": missing,
        "spans": tracer.records(),
    })
    return result
