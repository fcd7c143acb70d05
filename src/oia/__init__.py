"""Opportunistic interference alignment for a two-link MIMO interference channel.

A primary MIMO link water-fills over its channel's singular modes; an
opportunistic secondary link precodes so that its signal lands only on the
modes the primary left unused, adding zero interference, and allocates its
own power either uniformly or by water-filling an equivalent whitened
channel. The experiments module sweeps antenna counts and SNR and writes
deterministic Monte Carlo averages as CSV.

All powers are in units of the noise variance, which is 1 at every receiver:
a power budget is its SNR, ``10 ** (snr_db / 10)``.
"""

__version__ = "0.1.0"
