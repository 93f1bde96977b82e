"""Robust reconstruction of a real dividend from modulo-wavelength remainders.

The measuring wavelengths share a real common factor M: wavelength k is
M * Gamma_k with pairwise co-prime integer factors. A dividend r in
[0, max_range) folds into one remainder r_k and quotient n_k per wavelength.
reconstruct_batch recovers the quotients of a (T, size) block of trials by
the closed-form robust CRT (Wang & Xia, IEEE TSP 58(11), 2010) in O(size)
integer steps per trial, and matches a scan of every first quotient bit for
bit, ties and ambiguity flags included, except where a pairing's two
nearest differences lie at distances that differ by exactly the tie cut:
the closed form compares them in units of M and the search in lengths, so
their roundings can part there. Each pairing of wavelength k with
the first takes the difference q_k = n_k * Gamma_k - n_0 * Gamma_0 nearest
x_k = (r_0 - r_k) / M that quotients in range can form; the ordinary CRT
gives n_0 from n_0 * Gamma_0 = -q_k (mod Gamma_k), and n_0 every n_k.

Robustness guarantee: if every remainder error stays strictly below M / 4,
the quotients are exact and the averaged estimate carries the same error
bound as the worst remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WavelengthSet",
    "make_wavelength_set",
    "reconstruct_batch",
    "remainders_of",
]

# the tie cut, scaled by the first wavelength: every quotient difference
# within TIE_TOLERANCE_REL * Gamma_0 (in units of M) of the nearest one
# stays a candidate
TIE_TOLERANCE_REL = 1e-9
# a block's temporaries grow with its rows (about 400 bytes a row at three
# wavelengths), so a batch is reconstructed in slices of this many rows
_RECONSTRUCT_ROWS = 4096


@dataclass(frozen=True)
class WavelengthSet:
    """Wavelengths lambda_k = common_factor * coprime_factors[k].

    max_range is the unambiguous span: common_factor times the product of
    all co-prime factors. Build through make_wavelength_set, which checks
    pairwise co-primality.
    """

    common_factor: float
    coprime_factors: tuple[int, ...]
    wavelengths: np.ndarray
    max_range: float

    @property
    def size(self) -> int:
        return len(self.coprime_factors)


def make_wavelength_set(common_factor: float, coprime_factors) -> WavelengthSet:
    """Validate the factor list and derive wavelengths and unambiguous range.

    Raises ValueError when common_factor is not positive, fewer than two
    factors are given, a factor is below 2 or fractional, a factor pair
    shares a divisor (the offending pair is named), max_range leaves the
    float range, or a quotient or an integer step of the reconstruction
    leaves int64.
    """
    if not math.isfinite(common_factor) or common_factor <= 0:
        raise ValueError("common_factor must be positive and finite")
    factors = tuple(int(g) for g in coprime_factors)
    if len(factors) < 2:
        raise ValueError("need at least two wavelengths")
    for raw, g in zip(coprime_factors, factors):
        if g != raw or g < 2:
            raise ValueError(f"factors must be integers >= 2, got {raw}")
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            shared = math.gcd(factors[a], factors[b])
            if shared != 1:
                raise ValueError(
                    f"factors {factors[a]} and {factors[b]} share divisor {shared}"
                )
    try:
        max_range = common_factor * float(math.prod(factors))
    except OverflowError:  # the product alone leaves the float range
        max_range = math.inf
    if not math.isfinite(max_range):
        raise ValueError(f"common_factor * prod(factors) must be finite, got {max_range}")
    total, rest = math.prod(factors), factors[1:]
    # every integer step of reconstruct_batch stays exact in int64: the CRT
    # products below prod(rest) * max(rest), each n_k below total / Gamma_k
    largest = max(math.prod(rest) * max(rest), (total + 1) // min(rest) + 1)
    if largest > 2**63 - 1:
        raise ValueError(
            f"prod(factors) = {total} needs integers up to {largest} to reconstruct, "
            f"beyond 2**63 - 1"
        )
    wavelengths = common_factor * np.array(factors, dtype=float)
    return WavelengthSet(
        common_factor=float(common_factor),
        coprime_factors=factors,
        wavelengths=wavelengths,
        max_range=max_range,
    )


def remainders_of(dividends, ws: WavelengthSet):
    """Fold known dividends into exact remainders and quotients.

    dividends is a scalar or any array of them; the result gains a last
    axis of one entry per wavelength, so a scalar gives one (size,) row.
    Returns (remainders, quotients): floats in [0, wavelength_k) and the
    folding integers, with quotients * wavelengths + remainders ==
    dividend. Every dividend must lie in [0, max_range); anything else
    raises ValueError.
    """
    r = np.asarray(dividends, dtype=float)[..., None]
    inside = (0.0 <= r) & (r < ws.max_range)
    if not inside.all():
        raise ValueError(f"dividend {r[~inside][0]} outside [0, {ws.max_range})")
    quotients = np.floor(r / ws.wavelengths)
    lams = np.broadcast_to(ws.wavelengths, quotients.shape)
    remainders = r - quotients * lams
    # guard the float boundaries so remainders stay inside [0, wavelength)
    low = remainders < 0.0
    quotients[low] -= 1.0
    remainders[low] += lams[low]
    high = remainders >= lams
    quotients[high] += 1.0
    remainders[high] -= lams[high]
    # a dividend within rounding of max_range can fold to quotient
    # prod(factors) / Gamma_k with remainder 0, out of the range that
    # reconstruct_batch searches; the exact fold is one wavelength lower,
    # its remainder just below the wavelength
    total = math.prod(ws.coprime_factors)
    top = quotients >= np.array([total // g for g in ws.coprime_factors], dtype=float)
    if top.any():
        quotients[top] -= 1.0
        remainders[top] = np.minimum(remainders[top] + lams[top], np.nextafter(lams[top], 0.0))
    return remainders, quotients.astype(int)


def reconstruct_batch(remainders, ws: WavelengthSet):
    """Recover the dividends behind a batch of noisy remainder vectors.

    remainders is a (T, size) array, one trial per row, each entry in
    [0, wavelength_k); a single trial is a (1, size) batch. Every row gets
    the same steps, bit for bit, whatever T is. The rows are reconstructed
    in slices of _RECONSTRUCT_ROWS, so the working memory beyond the
    inputs and outputs does not grow with T.

    Returns:
        (estimates, quotients, ambiguous): estimates (T,) floats,
        quotients (T, size) ints, ambiguous (T,) bools. An ambiguous trial
        (no unique first quotient) reads estimate NaN and quotients -1.

    Raises:
        ValueError: malformed remainders.
    """
    rem = np.asarray(remainders, dtype=float)
    if rem.ndim != 2 or rem.shape[1] != ws.size:
        raise ValueError(f"expected {ws.size} remainders per trial, got shape {rem.shape}")
    if not np.all((rem >= 0.0) & (rem < ws.wavelengths)):
        raise ValueError("remainders must lie in [0, wavelength) per wavelength")
    estimates, ambiguous = np.empty(len(rem)), np.empty(len(rem), dtype=bool)
    quotients = np.empty(rem.shape, dtype=np.int64)
    for start in range(0, len(rem), _RECONSTRUCT_ROWS):
        rows = slice(start, start + _RECONSTRUCT_ROWS)
        estimates[rows], quotients[rows], ambiguous[rows] = _reconstruct(rem[rows], ws)
    return estimates, quotients, ambiguous


def _reconstruct(rem: np.ndarray, ws: WavelengthSet):
    """reconstruct_batch on one slice of checked remainders."""
    g0, rest = ws.coprime_factors[0], ws.coprime_factors[1:]
    span = math.prod(rest)  # n_0 lies in [0, span)
    factors = np.array(rest, dtype=np.int64)
    # sum_k ((-q_k) mod Gamma_k) * basis_k mod span solves every
    # n_0 * Gamma_0 = -q_k (mod Gamma_k) at once
    basis = np.array([span // g * pow(span // g * g0, -1, g) for g in rest], dtype=np.int64)

    # the nearest differences below and above x_k that quotients can form
    x = (rem[:, :1] - rem[:, 1:]) / ws.common_factor
    below = np.floor(x).astype(np.int64)
    above = below + 1
    if ws.size == 2:
        # two quotients in range never differ by -Gamma_1 or Gamma_0; with
        # more wavelengths they form all of [-Gamma_k - 1, Gamma_0 + 1]
        below -= (below == -factors) | (below == g0)
        above += (above == -factors) | (above == g0)
    q = np.stack([below, above], axis=2)
    miss = np.abs(q - x[..., None])
    cut = TIE_TOLERANCE_REL * g0
    kept = miss <= miss.min(axis=2, keepdims=True) + cut
    residue = (-q) % factors[:, None] * basis[:, None] % span
    # n_k is in range iff n_0 + shift_k lies in [0, span)
    shift = q // g0

    # every choice of one candidate per pairing: (T, choices, size - 1)
    columns = np.arange(ws.size - 1)
    choice = (np.arange(2**columns.size)[:, None] >> columns) & 1
    first = residue[:, columns, choice].sum(axis=2) % span
    shifts = shift[:, columns, choice]
    inside = (first + shifts.min(axis=2) >= 0) & (first + shifts.max(axis=2) < span)
    first[~(kept[:, columns, choice].all(axis=2) & inside)] = -1
    found = first.max(axis=1)
    # unique when the smallest valid n_0 is the largest; a cut of a whole
    # difference also keeps q_k +- 1, another n_0, in every pairing
    ambiguous = (cut >= 1.0) | (first.min(axis=1, initial=span, where=first >= 0) != found)

    # the first choice that names n_0 takes the lower candidate wherever
    # both candidates of a pairing meet there; they then differ by Gamma_k,
    # their quotients by one, and the smaller objective wins
    meets = first == found[:, None]
    named = np.argmax(meets, axis=1)
    both = meets[np.arange(rem.shape[0])[:, None], named[:, None] ^ (1 << columns)]
    diff = np.where(choice[named] == 1, above, below)
    # n_k = (n_0 * Gamma_0 + q_k) / Gamma_k, never forming n_0 * Gamma_0
    paired = found[:, None] * (g0 // factors) + diff // factors
    paired += (found[:, None] * (g0 % factors) + diff % factors) // factors
    lams = ws.wavelengths
    if both.any():
        # the objective |n_k * lambda_k + r_k - n_0 * lambda_0 - r_0| of both
        pair = paired[..., None] + np.arange(2)
        offset = found.astype(float)[:, None, None] * lams[0]
        cost = np.abs(pair * lams[1:, None] + rem[:, 1:, None] - offset - rem[:, :1, None])
        paired += both & (cost[..., 1] < cost[..., 0])
    quotients = np.column_stack([found, paired])
    estimates = (quotients * lams + rem).sum(axis=1) / ws.size
    estimates[ambiguous] = np.nan
    quotients[ambiguous] = -1
    return estimates, quotients, ambiguous
