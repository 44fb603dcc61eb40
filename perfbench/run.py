"""latentflow benchmark: the train, synth and eval workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 34 --trace 0

One process and one client drive the program in a closed loop: each
operation starts when the previous one ends. A run does at least the
workload's ``min_ops`` operations and keeps going until ``--seconds`` have
passed. Set-up is repeated at least ``SETUP_MIN`` times, and more while
the repeats take under ``SETUP_BUSY_S`` together, up to ``SETUP_MAX``; the
median is reported.

The program runs on one thread: the run pins the BLAS thread pools to one
thread before numpy loads. Every time is that thread's busy time, the
process CPU time, which on an idle machine is its wall time; on a shared
host it leaves out the time other tenants held the CPU, which can be tens
of percent of a run and changes from run to run. Busy time still drifts
with the host's load on caches and memory, so times are reported at a
reference machine speed: after every set-up, and after every operation
about once per ``CAL_EVERY_S`` of busy time, the run times a fixed
calibration kernel that runs no latentflow code but does the kind of work
the workload's hottest layer does, and every time of the run is divided by
the run's slowdown, its mean kernel time over the kernel's reference time.
The mean, not the median: the kernel's time on a shared core jumps between
two levels, and a median would jump with it. The report line keeps the raw
busy and wall times and the slowdown.

Latency percentiles are Harrell-Davis estimates, which weigh every
operation's latency rather than the one or two nearest the percentile, so
they move less from run to run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs
untraced for half the time, then replays the same operations from a fresh
set-up with every layer call wrapped in a span, and prints per-layer self
time and counts together with the tracing overhead (traced minus untraced
time per operation). Spans are written to ``.perfbench/`` when the run ends.
Self-tests: ``python3 -m pytest perfbench/selftest.py``.

The last line of standard output is the result object; the line before it
is a report with the run metadata and the workload's metrics under their
own names. ``--workload all`` runs every workload in both modes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _k in BLAS_ENV:  # before numpy loads its BLAS
    os.environ[_k] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_MIN, SETUP_MAX, SETUP_BUSY_S = 3, 15, 3.0
TAIL_BEYOND = 10  # the tail percentile leaves at least this many operations above it
# Busy time of each calibration kernel on an unloaded 2-vCPU x86-64 VM with
# OpenBLAS 0.3.31 on one thread; it only sets the scale of the reported times.
CAL_REF_S = {"loop": 0.85e-3, "matmul": 1.7e-3}
# The kernels whose summed time calibrates each workload: matrix products
# for the velocity field's convolutions (synth), a Python loop of small
# reductions for f0_extract (eval), and both for the tape and its backward
# pass (train).
CAL_KERNELS = {"train": ("loop", "matmul"), "synth": ("matmul",), "eval": ("loop",)}
CAL_AFTER_SETUP = 5  # calibration samples after each set-up
CAL_EVERY_S = 0.1  # busy time per calibration sample after an operation
busy = time.process_time
_CAL_X = np.random.default_rng(0).standard_normal(134)
_CAL_A = np.random.default_rng(1).standard_normal((64, 192))
_CAL_B = np.random.default_rng(2).standard_normal((192, 400))


def _loop_kernel() -> None:
    """A Python loop of small numpy reductions, as in the f0 search and the
    autodiff tape."""
    a, b = _CAL_X[:-5], _CAL_X[5:]
    for _ in range(300):
        float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))


def _matmul_kernel() -> None:
    """Matrix products the size of the velocity field's convolutions."""
    for _ in range(5):
        np.tanh(_CAL_A @ _CAL_B)


_KERNELS = {"loop": _loop_kernel, "matmul": _matmul_kernel}


def calibration_seconds(w) -> float:
    """Busy time of the workload's calibration kernels, which run no
    latentflow code."""
    t0 = busy()
    for k in CAL_KERNELS[w.name]:
        _KERNELS[k]()
    return busy() - t0


def calibration_ref_s(w) -> float:
    return sum(CAL_REF_S[k] for k in CAL_KERNELS[w.name])


def tail_percentile(min_ops: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of ``min_ops``
    operations beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / min_ops))


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(np.asarray(values), [q / 100])[0])


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def metadata(w) -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("openblas configuration"),
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "latency_tail_percentile": tail_percentile(w.min_ops),
        "min_ops": w.min_ops,
        "calibration_kernels": CAL_KERNELS[w.name],
        "calibration_ref_ms": calibration_ref_s(w) * 1e3,
    }


class Loop:
    """Closed-loop client: runs operations one after another and records
    each one's busy time, wall time, frame count and check result."""

    def __init__(self, w, state, recorder=None):
        from latentflow.exceptions import NumericalError, ValidationError

        self.errors = (NumericalError, ValidationError)
        self.w = w
        self.state = state
        self.recorder = recorder
        self.probe = {} if recorder is not None else None
        self.latencies: list[float] = []  # busy seconds
        self.walls: list[float] = []
        self.frames: list[int] = []
        self.outs: list = []  # the first min_ops outputs, for the quality guard
        self.cal: list[float] = []
        self.failed = 0

    def _run(self, i: int):
        if self.recorder is None:
            return self.w.op(self.state, i, None)
        self.recorder.op = i
        return self.recorder.call("bench.op", self.w.op, self.state, i, self.probe)

    def one(self, i: int) -> None:
        out = None
        w0, t0 = time.perf_counter(), busy()
        try:
            out = self._run(i)
        except self.errors:
            pass
        self.latencies.append(busy() - t0)
        self.walls.append(time.perf_counter() - w0)
        self.frames.append(self.w.frames(self.state, i))
        try:
            ok = out is not None and self.w.check(self.state, i, out)
        except self.errors:
            ok = False
        self.failed += not ok
        if i < self.w.min_ops:
            self.outs.append(out)
        for _ in range(max(1, round(self.latencies[-1] / CAL_EVERY_S))):
            self.cal.append(calibration_seconds(self.w))

    def for_time(self, seconds: float, min_ops: int) -> None:
        """Runs until ``seconds`` of wall time have passed and at least ``min_ops``
        operations are done, stopping at the end of a corpus block."""
        import corpus

        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < seconds or i % corpus.LENGTH_BINS:
            self.one(i)
            i += 1

    def for_count(self, n: int) -> None:
        for i in range(n):
            self.one(i)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def slowdown(self) -> float:
        """How much slower the machine ran than the reference speed."""
        return statistics.fmean(self.cal) / calibration_ref_s(self.w)

    def audio_seconds(self) -> float:
        cfg = self.state.cfg
        return sum(self.frames) * cfg.hop_size / cfg.sample_rate


def timed_setups(w, seed: int):
    """Fresh set-ups, their median busy time in seconds and the
    calibration samples taken after each. The first state takes one
    warm-up operation, so lazy imports and first allocations are not
    timed."""
    states, times, cal = [], [], []
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_BUSY_S):
        t0 = busy()
        states.append(w.setup(seed))
        times.append(busy() - t0)
        cal += [calibration_seconds(w) for _ in range(CAL_AFTER_SETUP)]
    w.op(states[0], 0, None)
    return states, statistics.median(times), cal


def end_to_end(w, seed: int, seconds: float):
    import workloads

    states, setup_s, cal = timed_setups(w, seed)
    loop = Loop(w, states[-1])
    loop.cal = cal
    loop.for_time(seconds, w.min_ops)
    slow = loop.slowdown()
    lat_ms = np.asarray(loop.latencies) * 1e3
    tail = tail_percentile(w.min_ops)
    raw = {
        "setup_s": setup_s,
        "audio_s_per_s": loop.audio_seconds() / sum(loop.latencies),
        "latency_ms_p50": percentile(lat_ms, 50),
        "latency_ms_tail": percentile(lat_ms, tail),
    }
    quality = w.quality(loop.state, [o for o in loop.outs if o is not None])
    metrics = {
        "setup_s": (raw["setup_s"] / slow, "s"),
        "audio_s_per_s": (raw["audio_s_per_s"] * slow, "s/s"),
        "latency_ms_p50": (raw["latency_ms_p50"] / slow, "ms"),
        "latency_ms_tail": (raw["latency_ms_tail"] / slow, "ms"),
        "quality_err": (quality, "1"),
    }
    cfg = loop.state.cfg
    audio_s_per_s = metrics["audio_s_per_s"][0]
    named = {
        "train": {"train_frames_per_s": audio_s_per_s * cfg.sample_rate / cfg.hop_size,
                  "train_loss_final": quality},
        "synth": {"synth_audio_s_per_s": audio_s_per_s, "synth_latent_w1": quality},
        "eval": {"eval_audio_s_per_s": audio_s_per_s, "eval_f0_err_cents": quality * workloads.F0_SHIFT_CENTS},
    }[w.name]
    named[f"{w.name}_latency_ms_p{tail}"] = metrics["latency_ms_tail"][0]
    named.update(ops=loop.attempted, slowdown=slow, raw_busy=raw,
                 raw_wall={"audio_s_per_s": loop.audio_seconds() / sum(loop.walls),
                           "latency_ms_p50": float(np.median(loop.walls)) * 1e3})
    return [loop], metrics, named


def per_layer(w, seed: int, seconds: float):
    import spans
    import workloads

    states, _, _ = timed_setups(w, seed)
    plain = Loop(w, states[1])
    plain.for_time(seconds / 2, 1)
    n = plain.attempted
    rec = spans.Recorder()
    traced = Loop(w, states[2], rec)
    with spans.Tracer(rec, workloads.LAYER_SPANS):
        traced.for_count(n)
    OUT_DIR.mkdir(exist_ok=True)
    rec.write_jsonl(OUT_DIR / f"spans-{w.name}-{seed}.jsonl")

    slow = traced.slowdown()
    ms_per_op = 1e3 / (n * slow)

    times = rec.layer_times()
    names = dict.fromkeys(name for _, _, name in workloads.LAYER_SPANS)
    metrics = {f"{name}.ms": (times.get(name, (0.0,))[0] * ms_per_op, "ms/op") for name in names}
    metrics["bench.glue.ms"] = (times["bench.op"][0] * ms_per_op, "ms/op")
    vf_s, _, vf_calls = times.get("vectorfield.VelocityField", (0.0, 0.0, 0))
    probe = traced.probe
    solves = probe.get("solves", 0)
    attempts = probe.get("accepted", 0) + probe.get("rejected", 0)
    plain_ms = sum(plain.latencies) * 1e3 / (n * plain.slowdown())
    traced_ms = sum(traced.latencies) * ms_per_op
    metrics.update({
        "autodiff.tape_nodes": (probe.get("tape_nodes", 0) / n, "nodes/op"),
        "autodiff.tape_bytes": (probe.get("tape_bytes", 0) / n, "B/op_computed"),
        "odesolver.solve.nfe": (probe.get("nfe", 0) / solves if solves else 0.0, "calls/solve"),
        "odesolver.solve.rejected": (probe.get("rejected", 0) / solves if solves else 0.0, "steps/solve"),
        "odesolver.accept_ratio": (probe.get("accepted", 0) / attempts if attempts else 0.0, "ratio"),
        "vectorfield.VelocityField.ms_per_call": (vf_s * 1e3 / (vf_calls * slow) if vf_calls else 0.0, "ms/call"),
        "bench.op.untraced_ms": (plain_ms, "ms/op"),
        "bench.op.traced_ms": (traced_ms, "ms/op"),
        "trace.overhead_ms": (traced_ms - plain_ms, "ms/op"),
    })
    layers = {k: v for k, v in times.items() if k != "bench.op"}
    named = {
        "ops_per_phase": n,
        "slowdown": slow,
        "spans": {k: {"self_ms_per_op": own * ms_per_op, "total_ms_per_op": total * ms_per_op, "calls": calls}
                  for k, (own, total, calls) in sorted(times.items(), key=lambda kv: -kv[1][0])},
        "largest_layer_by_self_time": max(layers, key=lambda k: layers[k][0]),
        "largest_layer_by_total_time": max(layers, key=lambda k: layers[k][1]),
    }
    return [plain, traced], metrics, named


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import workloads

    w = workloads.WORKLOADS[workload]
    loops, metrics, named = (per_layer if trace else end_to_end)(w, seed, seconds)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    report = {"workload": workload, "seed": seed, "trace": trace, "metadata": metadata(w), "named": named}
    print(json.dumps(report))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["train", "synth", "eval", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latentflow" / "__init__.py").is_file():
        print(f"perfbench: the latentflow sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        for name in ("train", "synth", "eval"):
            for trace in (0, 1):
                print(json.dumps(run(name, args.seed, args.seconds, trace)))
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
