"""Seeded generation of the four channel matrices of interference-channel trials.

Stream derivation: the triple (master_seed, grid_index, trial_index) is fed as
the entropy list of a ``numpy.random.SeedSequence``, which mixes it
collision-resistantly into a PCG64 generator state. A trial's draws therefore
depend only on the triple, never on execution order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ChannelSet:
    """The four complex channel matrices of one trial, all nr x nt.

    hij is the channel from transmitter j to receiver i; link 1 is the
    primary pair, link 2 the opportunistic one. A set drawn for several
    trials holds stacks ``(trials, nr, nt)``, one matrix per trial.
    """

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray


def derive_stream(master_seed: int, grid_index: int, trial_index: int) -> np.random.Generator:
    """Deterministic, independent random stream for one trial."""
    entropy = (master_seed & _MASK64, grid_index, trial_index)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _complex_gaussian(normals: np.ndarray) -> np.ndarray:
    """Pairs of standard normals (last axis) as unit-variance complex entries."""
    return normals.view(np.complex128)[..., 0] / np.sqrt(2.0)


def draw_channel(nr: int, nt: int, stream: np.random.Generator) -> np.ndarray:
    """One nr x nt matrix of i.i.d. circularly symmetric complex Gaussians.

    Entries have zero mean and unit variance (real and imaginary parts each
    carry variance 1/2) and are consumed from the stream in row-major entry
    order, real part then imaginary part.
    """
    if nr < 1 or nt < 1:
        raise InvalidInputError("antenna counts must be >= 1")
    return _complex_gaussian(stream.standard_normal((nr, nt, 2)))


def draw_trials(nr: int, nt: int, master_seed: int, grid_index: int,
                trial_indices) -> ChannelSet:
    """Channel sets of several trials stacked along a leading axis.

    Trial k draws its four matrices in the fixed order h11, h12, h21, h22
    from the stream ``derive_stream(master_seed, grid_index,
    trial_indices[k])``, with one ``standard_normal((4, nr, nt, 2))`` call:
    the same numbers, in the same order, as four ``draw_channel`` calls. A
    trial's channels therefore do not depend on the other trials of the stack.
    """
    if nr < 1 or nt < 1:
        raise InvalidInputError("antenna counts must be >= 1")
    trials = np.asarray(trial_indices, dtype=np.int64)
    if grid_index < 0 or (trials.size and trials.min() < 0):
        raise InvalidInputError("grid_index and trial indices must be nonnegative")
    normals = np.empty((trials.size, 4, nr, nt, 2))
    for row, trial in zip(normals, trials.tolist()):
        derive_stream(master_seed, grid_index, trial).standard_normal(out=row)
    return ChannelSet(*np.moveaxis(_complex_gaussian(normals), 1, 0))
