"""Robust reconstruction of a real dividend from modulo-wavelength remainders.

The measuring wavelengths share a real common factor: wavelength k is
common_factor * coprime_factors[k] with pairwise co-prime integer factors.
A dividend r in [0, max_range) folds into one remainder per wavelength.
Reconstruction searches the folding integers (quotients) by pairing every
wavelength with the first one, intersects the per-pair candidate sets, and
averages the unfolded per-wavelength estimates. The search is elementwise
over the first quotient, so reconstruct_batch runs it over many trials at
once; a single trial is a batch of one row.

Robustness guarantee: if every remainder error stays strictly below one
quarter of the common factor, the quotient search is exact and the averaged
estimate carries the same error bound as the worst remainder.
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

# groups numerically equal search minima, scaled by the first wavelength
TIE_TOLERANCE_REL = 1e-9

# elements per (trials, pairings, first quotients) temporary of the batch
# search; sizes its chunks so that memory stays flat in the trial count
_CHUNK_ELEMENTS = 8192


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
    factors are given, a factor is below 2 or fractional, or a factor pair
    shares a divisor (the offending pair is named).
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
    wavelengths = common_factor * np.array(factors, dtype=float)
    max_range = common_factor * float(math.prod(factors))
    return WavelengthSet(
        common_factor=float(common_factor),
        coprime_factors=factors,
        wavelengths=wavelengths,
        max_range=max_range,
    )


def remainders_of(dividend: float, ws: WavelengthSet):
    """Fold a known dividend into exact remainders and quotients.

    Returns (remainders, quotients): per-wavelength floats in
    [0, wavelength_k) and the folding integers, with
    quotients * wavelengths + remainders == dividend. dividend must lie in
    [0, max_range); anything else raises ValueError.
    """
    r = float(dividend)
    if not 0.0 <= r < ws.max_range:
        raise ValueError(f"dividend {r} outside [0, {ws.max_range})")
    quotients = np.floor(r / ws.wavelengths)
    remainders = r - quotients * ws.wavelengths
    # guard the float boundaries so remainders stay inside [0, wavelength)
    low = remainders < 0.0
    quotients[low] -= 1.0
    remainders[low] += ws.wavelengths[low]
    high = remainders >= ws.wavelengths
    quotients[high] += 1.0
    remainders[high] -= ws.wavelengths[high]
    return remainders, quotients.astype(int)


def _quotient_bounds(factors: tuple[int, ...]) -> tuple[int, ...]:
    total = math.prod(factors)
    return tuple(total // g for g in factors)


@dataclass(frozen=True)
class _Scan:
    """Quotient search over a block of c trials, every pairing at once.

    For pairing k (axis 1 holds k - 1) and first quotient b_0 (axis 2), the
    only paired quotients that can minimize |b_k*lam_k + r_k - b_0*lam_0 -
    r_0| are the two integers bracketing the real optimum, each clipped to
    the quotient range: `low` and `high`, both (c, size - 1, bound_0). A
    hit mask marks the candidates within TIE_TOLERANCE_REL * lam_0 of the
    pairing's minimum over the whole rectangle. `survivors` (c, bound_0)
    marks the first quotients that some candidate of every pairing hits.
    """

    low: np.ndarray
    high: np.ndarray
    hit_low: np.ndarray
    hit_high: np.ndarray
    survivors: np.ndarray


def _scan(rem: np.ndarray, ws: WavelengthSet) -> _Scan:
    """Scan every pairing of a (c, size) block of remainders."""
    lams = ws.wavelengths
    bounds = _quotient_bounds(ws.coprime_factors)
    lam_k = lams[1:, None]
    top = np.array([b - 1 for b in bounds[1:]], dtype=float)[:, None]
    b_first = np.arange(bounds[0], dtype=float)
    target = (b_first * lams[0] + rem[:, :1, None]) - rem[:, 1:, None]
    low = np.floor(target / lam_k)
    high = low + 1.0

    def clip_and_miss(paired):
        # in place: these temporaries are the search's whole working set
        np.maximum(paired, 0.0, out=paired)
        np.minimum(paired, top, out=paired)
        miss = np.multiply(paired, lam_k)
        np.subtract(miss, target, out=miss)
        return np.abs(miss, out=miss)

    miss_low = clip_and_miss(low)
    miss_high = clip_and_miss(high)
    best = np.minimum(miss_low.min(axis=2), miss_high.min(axis=2))
    cut = (best + TIE_TOLERANCE_REL * float(lams[0]))[:, :, None]
    hit_low = miss_low <= cut
    hit_high = miss_high <= cut
    return _Scan(low, high, hit_low, hit_high, (hit_low | hit_high).all(axis=1))


def _resolve(scan: _Scan, rem: np.ndarray, ws: WavelengthSet):
    """(estimates, quotients, ambiguous) of a scanned (c, size) block.

    A trial is ambiguous unless exactly one first quotient survives. Inside
    each pairing, ties at the survivor are broken by the smaller objective
    |b_k*lam_k + r_k - b_0*lam_0 - r_0|, then by the smaller b_k.
    Ambiguous trials read estimate NaN and quotients -1.
    """
    lams = ws.wavelengths
    ambiguous = np.count_nonzero(scan.survivors, axis=1) != 1
    first = np.argmax(scan.survivors, axis=1)
    rows = np.arange(rem.shape[0])
    low = scan.low[rows, :, first]
    high = scan.high[rows, :, first]
    hit_low = scan.hit_low[rows, :, first]
    hit_high = scan.hit_high[rows, :, first]
    offset = first.astype(float)[:, None] * lams[0]

    def objective(paired):
        return np.abs(paired * lams[1:] + rem[:, 1:] - offset - rem[:, :1])

    # low <= high, so an exact tie keeps the smaller quotient
    take_high = hit_high & (~hit_low | (objective(high) < objective(low)))
    quotients = np.empty(rem.shape, dtype=int)
    quotients[:, 0] = first
    quotients[:, 1:] = np.where(take_high, high, low)
    estimates = np.mean(quotients * lams + rem, axis=1)
    estimates[ambiguous] = np.nan
    quotients[ambiguous] = -1
    return estimates, quotients, ambiguous


def _check_remainders(remainders, ws: WavelengthSet) -> np.ndarray:
    rem = np.asarray(remainders, dtype=float)
    if rem.ndim != 2 or rem.shape[1] != ws.size:
        raise ValueError(f"expected {ws.size} remainders per trial, got shape {rem.shape}")
    if not np.all((rem >= 0.0) & (rem < ws.wavelengths)):
        raise ValueError("remainders must lie in [0, wavelength) per wavelength")
    return rem


def reconstruct_batch(remainders, ws: WavelengthSet):
    """Recover the dividends behind a batch of noisy remainder vectors.

    remainders is a (T, size) array, one trial per row, each entry in
    [0, wavelength_k); a single trial is a (1, size) batch. Every row gets
    the same search, bit for bit, whatever T is; the trials are processed
    in chunks so that the working memory stays flat in T.

    Returns:
        (estimates, quotients, ambiguous): estimates (T,) floats,
        quotients (T, size) ints, ambiguous (T,) bools. An ambiguous trial
        (no unique first quotient) reads estimate NaN and quotients -1.

    Raises:
        ValueError: malformed remainders.
    """
    rem = _check_remainders(remainders, ws)
    per_trial = (ws.size - 1) * _quotient_bounds(ws.coprime_factors)[0]
    step = max(1, _CHUNK_ELEMENTS // per_trial)
    estimates = np.empty(rem.shape[0])
    quotients = np.empty(rem.shape, dtype=int)
    ambiguous = np.empty(rem.shape[0], dtype=bool)
    for start in range(0, rem.shape[0], step):
        block = slice(start, start + step)
        estimates[block], quotients[block], ambiguous[block] = _resolve(
            _scan(rem[block], ws), rem[block], ws
        )
    return estimates, quotients, ambiguous

