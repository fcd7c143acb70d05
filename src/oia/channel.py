"""Seeded generation of the four channel matrices of interference-channel trials.

Stream derivation: the triple (master_seed, grid_index, trial_index) is fed as
the entropy list of a ``numpy.random.SeedSequence``, which mixes it
collision-resistantly into the state of a ``numpy.random.PCG64`` generator,
the one ``numpy.random.default_rng`` builds from it. A trial's draws therefore
depend only on the triple, never on execution order or worker count. Both
algorithms are fixed by numpy's stream-compatibility policy for seeded bit
generators. ``draw_trials`` hashes the SeedSequences of a whole stack of
trials at once, in numpy's uint32 arithmetic, and numpy's own PCG64
constructor then seeds each trial's generator from its words, in C.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import InvalidInputError

_MASK32 = 0xFFFF_FFFF

# numpy.random.SeedSequence: pool size and the constants of its hashes.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)

# Row indices of the pool words other than word k, for each k.
_OTHERS = [np.delete(np.arange(_POOL), k) for k in range(_POOL)]


def _entropy_words(value: int) -> list[int]:
    """SeedSequence's entropy words of an int: its little-endian 32-bit words, ``[0]`` for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed entropy must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """Multiplier states of SeedSequence's hash before and after each call, as a uint32 column."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Successive calls of SeedSequence's hash, one per result row, between ``consts``' states."""
    hashed = (values ^ consts[:-1]) * consts[1:]
    hashed ^= hashed >> 16
    return hashed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two uint32 arrays, elementwise."""
    mixed = x * _MIX_L - y * _MIX_R
    mixed ^= mixed >> 16
    return mixed


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy[:, k]).generate_state(4, uint64)`` for every column k.

    ``entropy`` is uint32 ``(words, trials)``; the result is uint64 ``(4, trials)``.
    """
    extra = max(0, entropy.shape[0] - _POOL)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + extra))
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:entropy.shape[0]] = entropy[:_POOL]
    pool = _hash(pool, consts[:_POOL + 1])
    call = _POOL
    # Each pool word in turn is hashed once for every other pool word, in
    # their order, and mixed into it; then so is each entropy word past the pool.
    for src, others in enumerate(_OTHERS):
        pool[others] = _mix(pool[others], _hash(pool[src], consts[call:call + _POOL]))
        call += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hash(word, consts[call:call + _POOL + 1]))
        call += _POOL
    state = _hash(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    state = state.astype(np.uint64)
    return state[0::2] | (state[1::2] << np.uint64(32))


def _indices(values) -> np.ndarray:
    """Integer indices in [0, 2^64) as uint64; Python ints past 2^63 stay exact on the way."""
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=object)
    if values.dtype.kind not in "iuO":
        raise InvalidInputError(f"indices must be integers, got dtype {values.dtype}")
    if values.size and not (values.min() >= 0 and values.max() < 2**64):
        raise InvalidInputError("grid and trial indices must lie in [0, 2^64)")
    return values.astype(np.uint64)


def _stream_seeds(master_seed: int, grids: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """Rows of ``SeedSequence((master_seed, g, t)).generate_state(4, uint64)``, per pair (g, t)."""
    prefix = _entropy_words(master_seed)
    words = len(prefix)
    # Each trial's entropy: the master seed's words, then its grid index's and
    # its trial index's, one word below 2^32 and two from there on. Rows past a
    # trial's word count stay zero.
    entropy = np.zeros((words + 4, trials.size), dtype=np.uint32)
    entropy[:words] = np.array(prefix, dtype=np.uint32)[:, None]
    grid_wide, trial_wide = grids > _MASK32, trials > _MASK32
    columns = np.arange(trials.size)
    entropy[words] = grids & np.uint64(_MASK32)
    entropy[words + 1] = grids >> np.uint64(32)
    at = words + 1 + grid_wide
    entropy[at, columns] = trials & np.uint64(_MASK32)
    entropy[at + 1, columns] = trials >> np.uint64(32)
    # SeedSequence's hash depends on the entropy's word count only past the
    # pool size: shorter entropy is hashed as if padded with zero words.
    counts = np.maximum(words + 2 + grid_wide + trial_wide, _POOL)
    seeds = np.empty((trials.size, 4), dtype=np.uint64)
    for count in sorted(set(counts.tolist())):
        group = counts == count
        seeds[group] = _seed_words(entropy[:count, group]).T
    return seeds


@functools.cache
def _stream_types() -> tuple:
    """numpy's PCG64 and Generator, and a seed sequence that hands PCG64 one row per trial.

    Built on the first draw, so that importing the package does not load
    numpy.random. PCG64 asks its seed sequence once for four uint64 words and
    reads them from the array's data, unchecked: a row of a C-contiguous uint64
    ``(trials, 4)`` array.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Feed(ISeedSequence):
        __slots__ = ("rows",)

        def __init__(self, seeds):
            self.rows = iter(seeds)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self.rows)

    return np.random.PCG64, np.random.Generator, Feed


def draw_trials(nr: int, nt: int, master_seed: int, grid_index,
                trial_indices) -> np.ndarray:
    """The four nr x nt channel matrices of several trials, shape ``(trials, 4, nr, nt)``.

    Axis 1 holds h11, h12, h21, h22, where hij is the channel from
    transmitter j to receiver i; link 1 is the primary pair, link 2 the
    opportunistic one. Entries are i.i.d. circularly symmetric complex
    Gaussians of zero mean and unit variance (real and imaginary parts each
    carry variance 1/2). Trial k takes all of them from the stream
    ``PCG64(SeedSequence((master_seed, grid_index[k], trial_indices[k])))``
    with one ``standard_normal((4, nr, nt, 2))`` call: matrix by matrix in
    that order, each in row-major entry order, real part then imaginary
    part. ``grid_index`` is one index for the whole stack or one per trial;
    grid and trial indices lie in [0, 2^64). A trial's channels therefore
    do not depend on the other trials of the stack. A negative
    ``master_seed`` raises ``ValueError``, as SeedSequence does.
    """
    if nr < 1 or nt < 1:
        raise InvalidInputError("antenna counts must be >= 1")
    trials = _indices(trial_indices).ravel()
    grids = np.broadcast_to(_indices(grid_index), trials.shape)
    normals = np.empty((trials.size, 4, nr, nt, 2))
    pcg64, generator, feed = _stream_types()
    seeds = feed(_stream_seeds(master_seed, grids, trials))
    for row in normals:
        generator(pcg64(seeds)).standard_normal(out=row)
    # numpy divides a complex value by sqrt(2) + 0j as a product with the rounded
    # 1 / sqrt(2), so scaling the float buffer by that gives the same bits.
    normals *= 1.0 / np.sqrt(2.0)
    return normals.view(np.complex128)[..., 0]

