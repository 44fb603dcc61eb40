"""Every config and spec is checked once, when it is made, and is frozen:
an instance that exists is valid and stays valid."""
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from latentflow.alignment import NoteBoundaryConstraint
from latentflow.cvae import LatentConfig, ScoreCondition
from latentflow.exceptions import ValidationError
from latentflow.flowmatch import GaussianTransportSpec
from latentflow.odesolver import SolverConfig
from latentflow.signals import MelConfig, SingingSpec
from latentflow.vectorfield import VectorFieldConfig
from latentflow.wavegen import DecoderConfig, DiscriminatorConfig

_SCORE = {"tokens": [1, 2], "note_pitch": [60, 61], "note_duration": [2, 3], "note_id": [0, 1]}

# (class, valid arguments, one bad value, the message it raises)
CASES = {
    "MelConfig": (MelConfig, {}, {"fmax": 20000.0}, "exceeds Nyquist"),
    "SingingSpec": (SingingSpec, {"notes": [(60, 4, 1)]}, {"notes": []}, "durations >= 1 frame"),
    "SolverConfig-max_step": (SolverConfig, {}, {"max_step": 0.0}, "max_step must be in"),
    "SolverConfig-abs_tol": (SolverConfig, {}, {"abs_tol": -1.0}, "tolerances must be positive"),
    "LatentConfig": (LatentConfig, {}, {"hidden": 0}, "hidden must be >= 1"),
    "ScoreCondition": (ScoreCondition, _SCORE, {"tokens": [1]}, "share one nonzero length"),
    "VectorFieldConfig": (VectorFieldConfig, {}, {"dropout_p": 1.0}, "dropout must be in"),
    "DecoderConfig": (DecoderConfig, {}, {"upsample_kernels": (8,)}, "one kernel per upsample rate"),
    "DiscriminatorConfig": (DiscriminatorConfig, {}, {"stft_hops": (16,)}, "one hop per stft size"),
    "GaussianTransportSpec-zero": (GaussianTransportSpec, {}, {"s": 0.0}, "stds must be positive"),
    "GaussianTransportSpec-negative": (GaussianTransportSpec, {}, {"s": -1.0}, "stds must be positive"),
}


@pytest.mark.parametrize("cls, good, bad, message", CASES.values(), ids=CASES.keys())
def test_bad_value_fails_at_construction_and_fields_are_frozen(cls, good, bad, message):
    with pytest.raises(ValidationError, match=message):
        cls(**{**good, **bad})
    made = cls(**good)
    (name, value), = bad.items()
    with pytest.raises(FrozenInstanceError):
        setattr(made, name, value)


def test_containers_are_copied_so_a_caller_cannot_change_them_after_the_check():
    tokens, notes = np.array([1, 2]), [(60, 4, 1)]
    sc = ScoreCondition(tokens, [60, 61], [2, 3], [0, 1])
    spec = SingingSpec(notes=notes)
    tokens[0] = 7
    notes.append((62, 0, 2))
    assert sc.tokens.tolist() == [1, 2] and spec.notes == ((60, 4, 1),)
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
