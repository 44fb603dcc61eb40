"""The three workloads, each built only from the package's public API.

The program has no pipeline module yet, so the code below joins the
layers itself. That joining code belongs to the benchmark: in a traced
run it is the self time of the ``bench.op`` root span, reported as
``bench.glue``.

Every workload has the same shape. ``min_ops`` is the least number of
operations a run does; ``setup(seed)`` builds the inputs and
models, ``op(state, i, probe)`` runs operation ``i`` and returns what the
checks need, ``check(state, i, out)`` returns False for a wrong output, and
``quality(state, outs)`` reduces the outputs of the first ``min_ops``
operations to the workload's quality guard, so the guard does not depend
on how fast the run went. ``probe`` is None in an untraced run; a traced
run passes a dict and ops add their layer counts to it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from latentflow import alignment, cvae, flowmatch, losses, odesolver, signals, wavegen
from latentflow import autodiff as ad
from latentflow.cvae import LatentConfig, PosteriorEncoder, PriorEncoder
from latentflow.vectorfield import VectorFieldConfig, VelocityField

import corpus

CORPUS_SIZE = 64
# Model weights, and the synth field's fit, come from this fixed seed, as a
# checkpoint would; the workload seed chooses the inputs and the sampling
# noise of each operation.
MODEL_SEED = 0
F0_SHIFT_CENTS = 50.0
FIT_SPEC = flowmatch.GaussianTransportSpec(a=0.0, s=1.0, b=3.0, r=0.5)
FIT_STEPS = 400
FIT_BATCH = 4
# Several receptive radii (24 frames) long, so most fitted frames see the
# interior context that long utterances give at synthesis time.
FIT_FRAMES = 64
FIELD_CFG = VectorFieldConfig(cond_channels=0)


def _rng(seed: int, stream: int, i: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def gaussian_loglik(z: np.ndarray, mean: np.ndarray, log_var: np.ndarray) -> np.ndarray:
    """[N, T] log-density of frame latents z[C, T] under token Gaussians
    mean/log_var[C, N], summed over channels."""
    inv = np.exp(-log_var)  # [C, N]
    quad = (inv.T @ (z * z)) - 2.0 * ((mean * inv).T @ z) + np.sum(mean * mean * inv, axis=0)[:, None]
    const = -0.5 * (z.shape[0] * np.log(2.0 * np.pi) + np.sum(log_var, axis=0))
    return const[:, None] - 0.5 * quad


def _scores(out):
    return [s for _, s, _ in out]


def _features(out):
    return [f for _, _, f in out]


def _all_finite(store: ad.ParamStore) -> bool:
    return all(np.all(np.isfinite(store[n].data)) for n in store.names())


def _tape_counts(probe: dict, *tapes: ad.Tape) -> None:
    probe["tape_nodes"] = probe.get("tape_nodes", 0) + sum(len(t) for t in tapes)
    probe["tape_bytes"] = probe.get("tape_bytes", 0) + sum(n.out.data.nbytes for t in tapes for n in t.nodes)


# ---------------------------------------------------------------------------
# train: one joint generator and discriminator step per utterance


@dataclass
class TrainState:
    seed: int
    cfg: signals.MelConfig
    utts: list
    gen: ad.ParamStore
    post: PosteriorEncoder
    prior: PriorEncoder
    field: VelocityField
    dec: wavegen.WaveDecoder
    dstore: ad.ParamStore
    disc: wavegen.DiscriminatorSuite


class Train:
    name = "train"
    min_ops = 100  # the loss guard is read at this step count,
    loss_window = 32  # as the mean over this many steps before it

    def setup(self, seed: int) -> TrainState:
        cfg = corpus.mel_config()
        utts = corpus.make_corpus(seed, CORPUS_SIZE, cfg)
        rng = _rng(MODEL_SEED, 1)
        lcfg = LatentConfig(mel_bands=cfg.mel_bands)
        gen = ad.ParamStore()
        post = PosteriorEncoder(lcfg, gen, rng)
        prior = PriorEncoder(lcfg, gen, rng)
        field = VelocityField(FIELD_CFG, gen, rng)
        dec = wavegen.WaveDecoder(wavegen.DecoderConfig(), gen, rng)
        dstore = ad.ParamStore()
        disc = wavegen.DiscriminatorSuite(wavegen.DiscriminatorConfig(), cfg, dstore, rng)
        return TrainState(seed, cfg, utts, gen, post, prior, field, dec, dstore, disc)

    def frames(self, st: TrainState, i: int) -> int:
        return st.utts[i % len(st.utts)].frames

    def op(self, st: TrainState, i: int, probe: dict | None):
        utt = st.utts[i % len(st.utts)]
        rng = _rng(st.seed, 2, i)
        cfg = st.cfg
        mel = signals.mel_transform(utt.wave, cfg).values
        with ad.Tape() as tape:
            q = st.post(mel)
            z_q = cvae.sample_reparam(q, rng)
            with ad.no_grad():
                tok = st.prior(utt.cond, durations=utt.durations).token_gaussian
            ll = gaussian_loglik(z_q.data, tok.mean.data, tok.log_var.data)
            nb = alignment.NoteBoundaryConstraint(utt.cond.note_id, utt.frame_note_id)
            path, _ = alignment.mas_align(ll, nb)
            durs = alignment.durations_from_path(path)
            p = st.prior(utt.cond, durations=durs)
            kl = cvae.kl_divergence(q, p.frame_gaussian)
            dur = alignment.duration_loss(durs, p.log_durations)
            z_p = cvae.sample_reparam(p.frame_gaussian.detached(), rng)
            cfm = flowmatch.cfm_loss(st.field, z_p, z_q.data, rng.random(), train=True, rng=rng)
            y = st.dec(z_q, utt.f0)
            with ad.no_grad():
                real = st.disc.discriminate(utt.wave)
            fake = st.disc.discriminate(y)
            # DSP branch: the harmonic-plus-noise render of the prior's pitch head
            f0_dsp = np.clip(220.0 * 2.0 ** p.pred_log_f0.data, 60.0, 600.0)
            y_dsp = signals.dsp_synthesize(f0_dsp, utt.spec.harmonic_amps, utt.spec.noise_level, cfg, rng=rng)
            parts = {
                "adv": losses.adv_generator(_scores(fake)),
                "fm": losses.feature_matching(_features(real), _features(fake)),
                "mel": losses.mel_reconstruction(utt.wave, y, cfg),
                "kl": kl,
                "dsp": losses.dsp_consistency(y_dsp, utt.wave, cfg),
                "dur": dur,
                "aux": losses.aux_prediction(wavegen.normalized_log_f0(utt.f0), mel, p.pred_log_f0, p.pred_mel),
                "cfm": cfm,
            }
            total, report = losses.generator_composite(parts)
        ad.adam_step(st.gen, ad.backward(total, st.gen, tape))
        with ad.Tape() as dtape:
            loss_d = losses.adv_discriminator(
                _scores(st.disc.discriminate(utt.wave)), _scores(st.disc.discriminate(y.data))
            )
        ad.adam_step(st.dstore, ad.backward(loss_d, st.dstore, dtape))
        if probe is not None:
            _tape_counts(probe, tape, dtape)
        return report.total, loss_d.item()

    def check(self, st: TrainState, i: int, out) -> bool:
        return bool(np.isfinite(out).all()) and _all_finite(st.gen) and _all_finite(st.dstore)

    def quality(self, st: TrainState, outs: list) -> float:
        """Generator composite total, averaged over the steps just before
        the fixed step count."""
        return float(np.mean([g for g, _ in outs[-self.loss_window :]]))


# ---------------------------------------------------------------------------
# synth: score -> prior -> sample -> dopri5 refinement -> decoder


@dataclass
class SynthState:
    seed: int
    cfg: signals.MelConfig
    utts: list
    prior: PriorEncoder
    field: VelocityField
    dec: wavegen.WaveDecoder


def fit_field(seed: int) -> tuple[VelocityField, list[float]]:
    """Seeded short fit of the velocity field to the Gaussian transport
    oracle; a zero-initialised field would make every solve a no-op."""
    store = ad.ParamStore()
    field = VelocityField(FIELD_CFG, store, _rng(seed, 4))

    def sampler(rng, n):
        z_p, z_q = FIT_SPEC.sample_pair(rng, n * FIT_FRAMES, FIELD_CFG.latent_channels)
        shape = (n, FIT_FRAMES, FIELD_CFG.latent_channels)
        return z_p.reshape(shape).transpose(0, 2, 1), z_q.reshape(shape).transpose(0, 2, 1), None

    curve = flowmatch.train_cfm(
        sampler, field, store, steps=FIT_STEPS, batch_size=FIT_BATCH,
        opt=flowmatch.OptimizerConfig(lr=1e-2, lr_final=1e-4), rng=_rng(seed, 5),
    )
    return field, curve


class Synth:
    name = "synth"
    min_ops = 40

    def setup(self, seed: int) -> SynthState:
        cfg = corpus.mel_config()
        utts = corpus.make_corpus(seed, CORPUS_SIZE, cfg)
        store = ad.ParamStore()
        rng = _rng(MODEL_SEED, 3)
        prior = PriorEncoder(LatentConfig(mel_bands=cfg.mel_bands), store, rng)
        dec = wavegen.WaveDecoder(wavegen.DecoderConfig(), store, rng)
        field, _ = fit_field(MODEL_SEED)
        return SynthState(seed, cfg, utts, prior, field, dec)

    def frames(self, st: SynthState, i: int) -> int:
        return st.utts[i % len(st.utts)].frames

    def op(self, st: SynthState, i: int, probe: dict | None):
        utt = st.utts[i % len(st.utts)]
        rng = _rng(st.seed, 6, i)
        f0 = signals.midi_to_hz(np.repeat(utt.cond.note_pitch, utt.durations))
        field = st.field
        with ad.no_grad():
            out = st.prior(utt.cond, durations=utt.durations)
            z_p = cvae.sample_reparam(out.frame_gaussian, rng).data
            z, stats = odesolver.solve(lambda z, t: field(z, t).data, z_p)
            wave = st.dec(z, f0).data
        if probe is not None:
            probe["nfe"] = probe.get("nfe", 0) + stats.rhs_evals
            probe["accepted"] = probe.get("accepted", 0) + stats.accepted
            probe["rejected"] = probe.get("rejected", 0) + stats.rejected
            probe["solves"] = probe.get("solves", 0) + 1
        return z_p, z, wave

    def check(self, st: SynthState, i: int, out) -> bool:
        _, _, wave = out
        return (
            wave.shape == (self.frames(st, i) * st.cfg.hop_size,)
            and bool(np.all(np.isfinite(wave)))
            and float(np.max(np.abs(wave))) <= 1.0
        )

    def quality(self, st: SynthState, outs: list) -> float:
        """W1 between the refined latents and the oracle flow map of the
        same prior samples, pooled over the run's first outputs."""
        z1 = np.concatenate([z.ravel() for _, z, _ in outs])
        exact = np.concatenate([flowmatch.gaussian_flow_map(FIT_SPEC, zp, 1.0).ravel() for zp, _, _ in outs])
        return flowmatch.wasserstein1_sorted(z1, exact)


# ---------------------------------------------------------------------------
# eval: MCD and F0-RMSE of a re-render whose pitch is shifted by a known amount


@dataclass
class EvalState:
    seed: int
    cfg: signals.MelConfig
    pairs: list  # (reference, re-render)


class Eval:
    name = "eval"
    min_ops = 40

    def setup(self, seed: int) -> EvalState:
        cfg = corpus.mel_config()
        utts = corpus.make_corpus(seed, CORPUS_SIZE, cfg)
        shift = 2.0 ** (F0_SHIFT_CENTS / 1200.0)
        pairs = [
            (u.wave, signals.dsp_synthesize(u.f0 * shift, u.spec.harmonic_amps, u.spec.noise_level, cfg,
                                            rng=_rng(seed, 7, k)))
            for k, u in enumerate(utts)
        ]
        return EvalState(seed, cfg, pairs)

    def frames(self, st: EvalState, i: int) -> int:
        return len(st.pairs[i % len(st.pairs)][0]) // st.cfg.hop_size

    def op(self, st: EvalState, i: int, probe: dict | None):
        ref, syn = st.pairs[i % len(st.pairs)]
        cfg = st.cfg
        mel_ref = signals.mel_transform(ref, cfg)
        mel_syn = signals.mel_transform(syn, cfg)
        distortion = signals.mcd(mel_ref, mel_syn)
        f0_ref, v_ref = signals.f0_extract(ref, cfg)
        f0_syn, v_syn = signals.f0_extract(syn, cfg)
        cents, _, n = signals.f0_rmse(f0_ref, v_ref, f0_syn, v_syn)
        return distortion, cents, n, (mel_ref, f0_ref, v_ref)

    def check(self, st: EvalState, i: int, out) -> bool:
        distortion, cents, n, (mel_ref, f0_ref, v_ref) = out
        return (
            np.isfinite(distortion) and np.isfinite(cents) and n > 0
            and signals.mcd(mel_ref, mel_ref) == 0.0
            and signals.f0_rmse(f0_ref, v_ref, f0_ref, v_ref)[0] == 0.0
        )

    def quality(self, st: EvalState, outs: list) -> float:
        """|F0-RMSE - known shift| as a share of the shift, the RMSE pooled
        over the mutually voiced frames of the run's first pairs."""
        sq = sum(n * cents**2 for _, cents, n, _ in outs)
        pooled = float(np.sqrt(sq / sum(n for _, _, n, _ in outs)))
        return abs(pooled - F0_SHIFT_CENTS) / F0_SHIFT_CENTS


WORKLOADS = {w.name: w for w in (Train(), Synth(), Eval())}

# (owner, attribute, span name): the public calls a traced run wraps in
# spans. All loss terms share one span, as the losses layer.
LAYER_SPANS = [
    (ad, "backward", "autodiff.backward"),
    (ad, "adam_step", "autodiff.adam_step"),
    (PosteriorEncoder, "__call__", "cvae.PosteriorEncoder"),
    (PriorEncoder, "__call__", "cvae.PriorEncoder"),
    (cvae, "sample_reparam", "cvae.sample_reparam"),
    (cvae, "kl_divergence", "cvae.kl_divergence"),
    (alignment, "mas_align", "alignment.mas_align"),
    (alignment, "duration_loss", "alignment.duration_loss"),
    (flowmatch, "cfm_loss", "flowmatch.cfm_loss"),
    (VelocityField, "__call__", "vectorfield.VelocityField"),
    (odesolver, "solve", "odesolver.solve"),
    (wavegen.WaveDecoder, "__call__", "wavegen.WaveDecoder"),
    (wavegen.DiscriminatorSuite, "discriminate", "wavegen.DiscriminatorSuite"),
    *((losses, fn, "losses") for fn in (
        "adv_generator", "adv_discriminator", "feature_matching", "mel_reconstruction",
        "dsp_consistency", "aux_prediction", "generator_composite",
    )),
    (signals, "mel_transform", "signals.mel_transform"),
    (signals, "mel_transform_t", "signals.mel_transform_t"),
    (signals, "dsp_synthesize", "signals.dsp_synthesize"),
    (signals, "f0_extract", "signals.f0_extract"),
    (signals, "mcd", "signals.mcd"),
    (signals, "f0_rmse", "signals.f0_rmse"),
]
