"""Seeded generation of the four channel matrices of interference-channel trials.

Stream derivation: the triple (master_seed, grid_index, trial_index) is fed as
the entropy list of a ``numpy.random.SeedSequence``, which mixes it
collision-resistantly into a PCG64 generator state. A trial's draws therefore
depend only on the triple, never on execution order or worker count.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def derive_stream(master_seed: int, grid_index: int, trial_index: int) -> np.random.Generator:
    """Deterministic, independent random stream for one trial (ValueError on a negative input)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, grid_index, trial_index)))


def draw_trials(nr: int, nt: int, master_seed: int, grid_index: int,
                trial_indices) -> np.ndarray:
    """The four nr x nt channel matrices of several trials, shape ``(trials, 4, nr, nt)``.

    Axis 1 holds h11, h12, h21, h22, where hij is the channel from
    transmitter j to receiver i; link 1 is the primary pair, link 2 the
    opportunistic one. Entries are i.i.d. circularly symmetric complex
    Gaussians of zero mean and unit variance (real and imaginary parts each
    carry variance 1/2). Trial k takes all of them from the stream
    ``derive_stream(master_seed, grid_index, trial_indices[k])`` with one
    ``standard_normal((4, nr, nt, 2))`` call: matrix by matrix in that
    order, each in row-major entry order, real part then imaginary part. A
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
    return normals.view(np.complex128)[..., 0] / np.sqrt(2.0)
