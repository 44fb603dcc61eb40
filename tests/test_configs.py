"""Every config and spec is checked once, when it is made, and is frozen:
an instance that exists is valid and stays valid."""
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from latentflow.alignment import NoteBoundaryConstraint
from latentflow.cvae import LatentConfig, ScoreCondition
from latentflow.exceptions import ValidationError
from latentflow.flowmatch import GaussianTransportSpec, OptimizerConfig
from latentflow.odesolver import SolverConfig
from latentflow.signals import F0ExtractConfig, MelConfig, SingingSpec
from latentflow.vectorfield import VectorFieldConfig
from latentflow.wavegen import DecoderConfig, DiscriminatorConfig

_NAN = float("nan")
_NOTES = {"notes": [(60, 4, 1)]}
_SCORE = {"tokens": [1, 2], "note_pitch": [60, 61], "note_duration": [2, 3], "note_id": [0, 1]}

# (class, valid arguments, one bad value, the message it raises)
CASES = {
    "MelConfig": (MelConfig, {}, {"fmax": 20000.0}, "exceeds Nyquist"),
    "MelConfig-fmax_nan": (MelConfig, {}, {"fmax": _NAN}, "is not positive or exceeds Nyquist"),
    "MelConfig-fmax_negative": (MelConfig, {}, {"fmax": -100.0}, "is not positive or exceeds Nyquist"),
    "MelConfig-bands_zero": (MelConfig, {}, {"mel_bands": 0}, "mel_bands must be >= 1, got 0"),
    "MelConfig-bands_negative": (MelConfig, {}, {"mel_bands": -1}, "mel_bands must be >= 1, got -1"),
    "SingingSpec": (SingingSpec, _NOTES, {"notes": []}, "durations >= 1 frame"),
    "SingingSpec-rate_nan": (SingingSpec, _NOTES, {"vibrato_rate_hz": _NAN}, "must be finite and >= 0"),
    "SingingSpec-depth_nan": (SingingSpec, _NOTES, {"vibrato_depth_cents": _NAN}, "must be finite and >= 0"),
    "SingingSpec-noise_nan": (SingingSpec, _NOTES, {"noise_level": _NAN}, "must be finite and >= 0"),
    "SingingSpec-noise_negative": (SingingSpec, _NOTES, {"noise_level": -0.01}, "must be finite and >= 0"),
    "SingingSpec-phase_nan": (SingingSpec, _NOTES, {"vibrato_phase": _NAN}, "phase and harmonic amplitudes must be"),
    "SingingSpec-amps_nan": (SingingSpec, _NOTES, {"harmonic_amps": (1.0, _NAN)}, "phase and harmonic amplitudes"),
    "SingingSpec-pitch_nan": (SingingSpec, _NOTES, {"notes": [(_NAN, 4, 1)]}, "note pitches must be finite"),
    "SingingSpec-pitch_inf": (SingingSpec, _NOTES, {"notes": [(60, 4, 1), (np.inf, 2, 1)]}, "note pitches must be finite"),
    "SolverConfig-max_step": (SolverConfig, {}, {"max_step": 0.0}, "max_step must be in"),
    "SolverConfig-tol": (SolverConfig, {}, {"tol": -1.0}, "tolerance must be positive"),
    "SolverConfig-tol_nan": (SolverConfig, {}, {"tol": _NAN}, "tolerance must be positive"),
    "OptimizerConfig-lr_negative": (OptimizerConfig, {}, {"lr": -1.0}, "learning rates must be finite and > 0"),
    "OptimizerConfig-lr_nan": (OptimizerConfig, {}, {"lr": _NAN}, "learning rates must be finite and > 0"),
    "OptimizerConfig-lr_final_nan": (OptimizerConfig, {}, {"lr_final": _NAN}, "learning rates must be finite and > 0"),
    "OptimizerConfig-lr_final_zero": (OptimizerConfig, {}, {"lr_final": 0.0}, "learning rates must be finite and > 0"),
    "LatentConfig": (LatentConfig, {}, {"hidden": 0}, "hidden must be >= 1"),
    "ScoreCondition": (ScoreCondition, _SCORE, {"tokens": [1]}, "share one nonzero length"),
    "ScoreCondition-pitch_fraction": (ScoreCondition, _SCORE, {"note_pitch": [60.7, 61]},
                                      r"note_pitch must hold finite integers, got array\(\[60\.7, 61\. *\]\)"),
    "ScoreCondition-duration_fraction": (ScoreCondition, _SCORE, {"note_duration": [2, 1.5]},
                                         "note_duration must hold finite integers"),
    "ScoreCondition-pitch_nan": (ScoreCondition, _SCORE, {"note_pitch": [60, _NAN]}, "note_pitch must hold finite"),
    "ScoreCondition-id_inf": (ScoreCondition, _SCORE, {"note_id": [0, np.inf]}, "note_id must hold finite integers"),
    "ScoreCondition-tokens_nan": (ScoreCondition, _SCORE, {"tokens": [_NAN, 2]}, "tokens must hold finite integers"),
    "VectorFieldConfig": (VectorFieldConfig, {}, {"dropout_p": 1.0}, "dropout must be in"),
    "VectorFieldConfig-latent_zero": (VectorFieldConfig, {}, {"latent_channels": 0},
                                      "latent_channels and hidden must be >= 1"),
    "VectorFieldConfig-hidden_zero": (VectorFieldConfig, {}, {"hidden": 0}, "latent_channels and hidden must be >= 1"),
    "VectorFieldConfig-cond_negative": (VectorFieldConfig, {}, {"cond_channels": -1}, "cond_channels must be >= 0"),
    "VectorFieldConfig-embed_odd": (VectorFieldConfig, {}, {"time_embed_dim": 15},
                                    "time_embed_dim must be even and >= 2"),
    "VectorFieldConfig-embed_zero": (VectorFieldConfig, {}, {"time_embed_dim": 0},
                                    "time_embed_dim must be even and >= 2"),
    "DecoderConfig": (DecoderConfig, {}, {"upsample_kernels": (8,)}, "one kernel per upsample rate"),
    "DiscriminatorConfig": (DiscriminatorConfig, {}, {"stft_hops": (16,)}, "one hop per stft size"),
    "GaussianTransportSpec-zero": (GaussianTransportSpec, {}, {"s": 0.0}, "stds must be positive"),
    "GaussianTransportSpec-negative": (GaussianTransportSpec, {}, {"s": -1.0}, "stds must be positive"),
    "GaussianTransportSpec-s_nan": (GaussianTransportSpec, {}, {"s": _NAN}, "stds must be positive"),
    "GaussianTransportSpec-r_nan": (GaussianTransportSpec, {}, {"r": _NAN}, "stds must be positive"),
    "GaussianTransportSpec-a_nan": (GaussianTransportSpec, {}, {"a": _NAN}, "means must be finite"),
    "GaussianTransportSpec-b_inf": (GaussianTransportSpec, {}, {"b": float("inf")}, "means must be finite"),
    "F0-fmin_zero": (F0ExtractConfig, {}, {"fmin_search": 0.0}, "needs 0 < fmin < fmax"),
    "F0-fmin_negative": (F0ExtractConfig, {}, {"fmin_search": -50.0}, "needs 0 < fmin < fmax"),
    "F0-fmin_above_fmax": (F0ExtractConfig, {"fmax_search": 400.0}, {"fmin_search": 500.0}, "needs 0 < fmin < fmax"),
    "F0-fmin_nan": (F0ExtractConfig, {}, {"fmin_search": float("nan")}, "needs 0 < fmin < fmax"),
    "F0-threshold_nan": (F0ExtractConfig, {}, {"voicing_threshold": _NAN}, "needs 0 < threshold < 1"),
    "F0-threshold_two": (F0ExtractConfig, {}, {"voicing_threshold": 2.0}, "needs 0 < threshold < 1"),
    "F0-threshold_negative": (F0ExtractConfig, {}, {"voicing_threshold": -3.0}, "needs 0 < threshold < 1"),
    "F0-threshold_one": (F0ExtractConfig, {}, {"voicing_threshold": 1.0}, "needs 0 < threshold < 1"),
}


@pytest.mark.parametrize("cls, good, bad, message", CASES.values(), ids=CASES.keys())
def test_bad_value_fails_at_construction_and_fields_are_frozen(cls, good, bad, message):
    with pytest.raises(ValidationError, match=message):
        cls(**{**good, **bad})
    made = cls(**good)
    (name, value), = bad.items()
    with pytest.raises(FrozenInstanceError):
        setattr(made, name, value)


@pytest.mark.parametrize("notes", [[60], [(60, 4)], [(60, 4, 1, 9)]], ids=["bare_int", "pair", "quadruple"])
def test_singing_spec_rejects_a_note_that_is_not_a_triple(notes):
    with pytest.raises(ValidationError, match=r"singing spec: each note must be a \(midi, frames, token_id\) triple"):
        SingingSpec(notes=notes)


def test_score_condition_keeps_integral_floats():
    sc = ScoreCondition([1.0, 2.0], np.array([60.0, 61.0]), [2, 3], [0, 1])
    assert sc.note_pitch.tolist() == [60, 61] and sc.tokens.dtype == np.int64


def test_containers_are_copied_so_a_caller_cannot_change_them_after_the_check():
    tokens, notes, amps = np.array([1, 2]), [(60, 4, 1)], [1.0, 0.5]
    sc = ScoreCondition(tokens, [60, 61], [2, 3], [0, 1])
    spec = SingingSpec(notes=notes, harmonic_amps=amps)
    tokens[0] = 7
    notes.append((62, 0, 2))
    amps[0] = _NAN
    assert sc.tokens.tolist() == [1, 2] and spec.notes == ((60, 4, 1),)
    assert spec.harmonic_amps == (1.0, 0.5) and all(type(a) is float for a in spec.harmonic_amps)
    assert hash(spec) == hash(SingingSpec(notes=[(60, 4, 1)], harmonic_amps=np.array([1.0, 0.5])))
    for a in (sc.tokens, sc.note_pitch, sc.note_duration, sc.note_id):
        assert a.dtype == np.int64 and not a.flags.writeable


@pytest.mark.parametrize("make", [
    lambda: ScoreCondition([1, 2], [60, 61], [2, 2], [0, 0]),
    lambda: NoteBoundaryConstraint([0, 1], [0, 0, 1]),
], ids=["ScoreCondition", "NoteBoundaryConstraint"])
def test_array_holding_records_compare_by_identity_and_hash(make):
    """Equal-valued records with multi-element arrays are distinct: == is
    identity, not numpy's ambiguous elementwise truth, and hash() works."""
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
