"""Solver error against cost for the synth workload's dopri5 refinement.

    python3 scripts/solver_chart.py --seeds 1 2 3 4 5 6 [--ops 40] [--reference 1e-7]

For each seed, builds the benchmark's synth state (corpus, prior and the
velocity field fitted to the Gaussian transport oracle) and refines the
prior samples of the first ``--ops`` utterances with dopri5 at each
``(tolerance, max_step)`` setting, the tolerance used both absolute and
relative. For each seed and setting it prints the mean number of
velocity-field calls per solve (NFE) and the W1 of the refined latents to
the oracle flow map: the synth workload's ``quality_err`` when ``--ops`` is
the workload's ``min_ops``. That W1 is the fit error of the field plus the
solver error. ``--reference TOL`` also solves every utterance at TOL and
prints each setting's W1 to that solve, the solver error alone. A 1e-7
solve takes about 2,400 NFE per utterance.

BLAS runs on one thread, as in the benchmark. Each line of output is one
JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_k] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from latentflow import autodiff as ad  # noqa: E402
from latentflow import cvae, flowmatch, odesolver  # noqa: E402

# (tolerance, max_step): the defaults before the chart, then the candidates
# around the chosen default (3e-4, 0.5).
SETTINGS = [(1e-5, 0.1), (3e-4, 0.5), (4e-4, 0.5), (5e-4, 0.5), (3e-4, 1.0), (2e-4, 1.0), (1e-3, 1.0)]


def prior_samples(seed: int, n: int):
    """The synth state of ``seed`` and the prior samples its first ``n``
    operations refine, drawn exactly as ``workloads.Synth.op`` draws them."""
    st = workloads.Synth().setup(seed)
    zs = []
    for i in range(n):
        utt = st.utts[i % len(st.utts)]
        rng = workloads._rng(seed, 6, i)
        with ad.no_grad():
            out = st.prior(utt.cond, durations=utt.durations)
            zs.append(cvae.sample_reparam(out.frame_gaussian, rng).data)
    return st, zs


def refine(field, zs, tol: float, max_step: float):
    cfg = odesolver.SolverConfig(abs_tol=tol, rel_tol=tol, max_step=max_step)
    out, nfe = [], []
    with ad.no_grad():
        for z_p in zs:
            z, stats = odesolver.solve(lambda z, t: field(z, t).data, z_p, cfg=cfg)
            out.append(z)
            nfe.append(stats.rhs_evals)
    return out, float(np.mean(nfe))


def pooled_w1(a, b) -> float:
    return flowmatch.wasserstein1_sorted(
        np.concatenate([z.ravel() for z in a]), np.concatenate([z.ravel() for z in b])
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--ops", type=int, default=workloads.Synth.min_ops)
    ap.add_argument("--reference", type=float, default=None, help="tolerance of the reference solve")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        st, zs = prior_samples(seed, args.ops)
        exact = [flowmatch.gaussian_flow_map(workloads.FIT_SPEC, z, 1.0) for z in zs]
        ref = None
        if args.reference is not None:
            ref, ref_nfe = refine(st.field, zs, args.reference, 1.0)
            print(json.dumps({"seed": seed, "tol": args.reference, "max_step": 1.0, "nfe": ref_nfe,
                              "w1_oracle": pooled_w1(ref, exact), "reference": True}), flush=True)
        for tol, max_step in SETTINGS:
            z1, nfe = refine(st.field, zs, tol, max_step)
            row = {"seed": seed, "tol": tol, "max_step": max_step, "nfe": nfe, "w1_oracle": pooled_w1(z1, exact)}
            if ref is not None:
                row["w1_reference"] = pooled_w1(z1, ref)
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
