"""Solver error against cost for the synth workload's dopri5 refinement.

    python3 scripts/solver_chart.py --seeds 1 2 3 4 5 6 [--ops 40] [--reference 1e-7] [--fit-seeds 0 1 2]

For each seed, builds the benchmark's synth inputs (corpus and prior) and
refines the prior samples of the first ``--ops`` utterances with dopri5 at
each ``(tol, max_step)`` setting, ``SolverConfig.tol`` being both the
absolute and the relative tolerance, through a velocity field fitted to the
Gaussian transport oracle by ``workloads.fit_field(fit_seed)``. ``--fit-seeds`` names those fits (the
benchmark's own is ``workloads.MODEL_SEED``). Every fit uses the package's
own time embedding. The comparison of time embeddings that chose it is
recorded in BENCH_synth_embedding.json (its ``chart.command``); it can be
re-run with this script as of commit b6a1eb1.

For each fit seed, seed and setting it prints the mean number of
velocity-field calls per solve (NFE), the mean number of rejected steps per
solve, and the W1 of the refined latents to the oracle flow map: the synth
workload's ``quality_err`` when ``--ops`` is the workload's ``min_ops`` and
the fit seed is ``MODEL_SEED``. That W1 is the fit error of the field plus
the solver error. ``--reference TOL`` also solves every utterance at TOL
and prints each setting's W1 to that solve, the solver error alone. A 1e-7
solve takes about 300 NFE per utterance on the benchmark's field.

Then, for each setting, it prints one summary row across the fit seeds. A
fit's W1 is the mean of its rows' over the input seeds, and its ratio is
that W1 over the same fit's at the package default, ``SolverConfig()``'s
``(tol, max_step)``. The row gives the mean NFE and rejected steps, the
median and the worst fit's W1, and the median and range of the ratios.
``meets_rule`` says whether the median and the worst fit are no higher than
at the default and the median ratio is at most 1.

BLAS runs on one thread, as in the benchmark. Each line of output is one
JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from unittest import mock

for _k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_k] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from latentflow import autodiff as ad  # noqa: E402
from latentflow import cvae, flowmatch, odesolver  # noqa: E402

# (tolerance, max_step): the former default max step, then the default
# (5e-4, 0.34) and its neighbours in max step and in tolerance.
SETTINGS = [(5e-4, 0.5), (5e-4, 0.34), (5e-4, 1 / 3), (5e-4, 0.35), (4e-4, 0.34), (6e-4, 0.34)]


def prior_samples(seed: int, n: int) -> list[np.ndarray]:
    """The prior samples that the first ``n`` operations of the synth
    workload at ``seed`` refine, drawn exactly as ``workloads.Synth.op``
    draws them. The chart fits its own fields, so the set-up's is skipped."""
    with mock.patch.object(workloads, "fit_field", lambda fit_seed: (None, [])):
        st = workloads.Synth().setup(seed)
    zs = []
    for i in range(n):
        utt = st.utts[i % len(st.utts)]
        rng = workloads._rng(seed, 6, i)
        with ad.no_grad():
            out = st.prior(utt.cond, durations=utt.durations)
            zs.append(cvae.sample_reparam(out.frame_gaussian, rng).data)
    return zs


def refine(field, zs, tol: float, max_step: float):
    """The refined latents, and the mean NFE and rejected steps per solve."""
    cfg = odesolver.SolverConfig(tol=tol, max_step=max_step)
    out, nfe, rejected = [], [], []
    with ad.no_grad():
        for z_p in zs:
            z, stats = odesolver.solve(lambda z, t: field(z, t).data, z_p, cfg=cfg)
            out.append(z)
            nfe.append(stats.rhs_evals)
            rejected.append(stats.rejected)
    return out, float(np.mean(nfe)), float(np.mean(rejected))


def pooled_w1(a, b) -> float:
    return flowmatch.wasserstein1_sorted(
        np.concatenate([z.ravel() for z in a]), np.concatenate([z.ravel() for z in b])
    )


def summaries(rows: list[dict]) -> list[dict]:
    """One row per setting across the fit seeds, each fit compared with
    itself at the package default setting."""
    default = odesolver.SolverConfig()
    per_fit = {}  # setting -> fit seed -> w1 per input seed
    cost = {}  # setting -> (nfe, rejected) rows
    for r in rows:
        key = r["tol"], r["max_step"]
        per_fit.setdefault(key, {}).setdefault(r["fit_seed"], []).append(r["w1_oracle"])
        cost.setdefault(key, []).append((r["nfe"], r["rejected"]))
    base = {f: float(np.mean(v)) for f, v in per_fit[default.tol, default.max_step].items()}
    out = []
    for setting, fits in per_fit.items():
        w1 = {f: float(np.mean(v)) for f, v in fits.items()}
        ratio = [w1[f] / base[f] for f in w1]
        worst = max(w1, key=w1.get)
        row = {"summary": True, "tol": setting[0], "max_step": setting[1], "fit_seeds": sorted(w1),
               "nfe": float(np.mean([c[0] for c in cost[setting]])),
               "rejected": float(np.mean([c[1] for c in cost[setting]])),
               "w1_median": float(np.median(list(w1.values()))), "w1_worst": w1[worst], "worst_fit_seed": worst,
               "ratio_median": float(np.median(ratio)), "ratio_min": min(ratio), "ratio_max": max(ratio)}
        row["meets_rule"] = bool(row["w1_median"] <= np.median(list(base.values()))
                                 and row["w1_worst"] <= max(base.values()) and row["ratio_median"] <= 1.0)
        out.append(row)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--ops", type=int, default=workloads.Synth.min_ops)
    ap.add_argument("--reference", type=float, default=None, help="tolerance of the reference solve")
    ap.add_argument("--fit-seeds", type=int, nargs="+", default=[workloads.MODEL_SEED])
    args = ap.parse_args(argv)
    inputs = {}  # seed -> (prior samples, their oracle flow map)
    for seed in args.seeds:
        zs = prior_samples(seed, args.ops)
        inputs[seed] = zs, [flowmatch.gaussian_flow_map(workloads.FIT_SPEC, z, 1.0) for z in zs]
    rows = []
    for fit_seed in args.fit_seeds:
        field, _ = workloads.fit_field(fit_seed)
        for seed, (zs, exact) in inputs.items():
            ref = None
            if args.reference is not None:
                ref, nfe, rejected = refine(field, zs, args.reference, 1.0)
                print(json.dumps({"fit_seed": fit_seed, "seed": seed, "tol": args.reference, "max_step": 1.0,
                                  "nfe": nfe, "rejected": rejected, "w1_oracle": pooled_w1(ref, exact),
                                  "reference": True}), flush=True)
            for tol, max_step in SETTINGS:
                z1, nfe, rejected = refine(field, zs, tol, max_step)
                row = {"fit_seed": fit_seed, "seed": seed, "tol": tol, "max_step": max_step, "nfe": nfe,
                       "rejected": rejected, "w1_oracle": pooled_w1(z1, exact)}
                if ref is not None:
                    row["w1_reference"] = pooled_w1(z1, ref)
                rows.append(row)
                print(json.dumps(row), flush=True)
    for row in summaries(rows):
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
