"""Reference routes for residue powers: one Python pow per residue.

Generator forms of the residue powers, of one complete power sum
S_k(q, a) summed term by term, and of expsums.power_sum_spectrum.  Tests
require the library's int64 square-and-multiply to give bitwise the same
residues and spectra, and every spectrum entry to agree with the
term-by-term sum.
"""

import numpy as np


def power_residues_reference(q, k):
    return [pow(r, k, q) for r in range(1, q + 1)]


def complete_power_sum_reference(q, a, k):
    residues = np.fromiter(
        (a * pow(r, k, q) % q for r in range(1, q + 1)), dtype=np.int64, count=q
    )
    return complex(np.exp(2j * np.pi * (residues / q)).sum())


def power_sum_spectrum_reference(q, k):
    counts = np.bincount(
        np.fromiter((pow(r, k, q) for r in range(1, q + 1)), dtype=np.int64, count=q),
        minlength=q,
    ).astype(np.float64)
    return np.conj(np.fft.fft(counts))
