"""Seeded generation of the four channel matrices of interference-channel trials.

Stream derivation: the triple (master_seed, grid_index, trial_index) is fed as
the entropy list of a ``numpy.random.SeedSequence``, which mixes it
collision-resistantly into the state of a ``numpy.random.PCG64`` generator,
the one ``numpy.random.default_rng`` builds from it. A trial's draws therefore
depend only on the triple, never on execution order or worker count. Both
algorithms are fixed by numpy's stream-compatibility policy for seeded bit
generators. ``draw_trials`` hashes the SeedSequences of a whole stack of
trials at once, in numpy's uint32 arithmetic: each of the three integers
takes one 32-bit entropy word below 2^32 and two from there on, and words
past the pool are mixed in under a mask of the trials that have them. numpy's
own PCG64 constructor then seeds each trial's generator from its words, in C.
"""

import functools

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


def _stream_seeds(values: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's SeedSequence entropy of the uint64 ``values``, and its word count.

    Each of ``values`` is one value or one per trial, and takes its low 32
    bits, then its high 32 bits from 2^32 on, at the trial's own cursor. The
    entropy is uint32 ``(rows, trials)``, zero past each trial's count.
    """
    at = np.zeros(np.broadcast(*values).shape, dtype=np.intp)
    entropy = np.zeros((2 * len(values), at.size), dtype=np.uint32)
    columns = np.arange(at.size)
    for value in values:
        entropy[at, columns] = value & _MASK32
        entropy[at + 1, columns] = value >> 32
        at += 1 + (value > _MASK32)
    return entropy, at


def _seed_words(entropy: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Row k: ``SeedSequence(entropy[:count[k], k]).generate_state(4, uint64)``, C-contiguous."""
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * len(entropy))
    # Entropy shorter than the pool is hashed as if padded with zero words.
    pool = _hash(entropy[:_POOL], consts[:_POOL + 1])
    # Each pool word in turn is hashed once for every other pool word, in
    # their order, and mixed into it.
    for src, others in enumerate(_OTHERS):
        call = _POOL + src * (_POOL - 1)
        pool[others] = _mix(pool[others], _hash(pool[src], consts[call:call + _POOL]))
    # Then so is each entropy word w past the pool, into the trials that have
    # it; its hashes are calls 4w to 4w + 3 in every such trial.
    for word in range(_POOL, count.max(initial=_POOL)):
        mixed = _mix(pool, _hash(entropy[word], consts[_POOL * word:_POOL * (word + 1) + 1]))
        pool = np.where(count > word, mixed, pool)
    state = _hash(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    state = state.astype(np.uint64)
    return (state[0::2] | (state[1::2] << 32)).T.copy()


def _as_indices(values, name: str, one: bool = False) -> np.ndarray:
    """Integers in [0, 2^64), not bools, as uint64, exact past 2^63, and just one if ``one``."""
    array = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    whole = array.dtype.kind in "iu" or array.dtype == object and all(
        isinstance(v, (int, np.integer)) and type(v) is not bool for v in array.flat)
    if not whole or one and array.ndim:
        raise InvalidInputError(
            f"{name} must be {'an integer' if one else 'integers'}, got {values!r}")
    if array.size and not (array.min() >= 0 and array.max() < 2**64):
        raise InvalidInputError(f"{name} must lie in [0, 2^64)")
    return array.astype(np.uint64)


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
    part, so a trial's channels do not depend on the other trials of the
    stack. ``nr`` and ``nt`` are integers of at least 1, ``master_seed`` is
    one integer and the grid and trial indices are integers, all in
    [0, 2^64), and ``grid_index`` is one index for the whole stack or one
    per trial; anything else raises InvalidInputError, which is a
    ValueError, naming the argument.
    """
    if _as_indices(nr, "nr", one=True) < 1 or _as_indices(nt, "nt", one=True) < 1:
        raise InvalidInputError("antenna counts must be >= 1")
    seed = _as_indices(master_seed, "master_seed", one=True)
    trials = _as_indices(trial_indices, "trial_indices").ravel()
    grids = _as_indices(grid_index, "grid_index")
    if grids.ndim > 1 or grids.size not in (1, trials.size):
        raise InvalidInputError("grid_index must be one index or one per trial")
    normals = np.empty((trials.size, 4, nr, nt, 2))
    pcg64, generator, feed = _stream_types()
    seeds = feed(_seed_words(*_stream_seeds((seed, grids, trials))))
    for row in normals:
        generator(pcg64(seeds)).standard_normal(out=row)
    # numpy divides a complex value by sqrt(2) + 0j as a product with the rounded
    # 1 / sqrt(2), so scaling the float buffer by that gives the same bits.
    normals *= 1.0 / np.sqrt(2.0)
    return normals.view(np.complex128)[..., 0]

