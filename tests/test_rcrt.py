"""Closed-form remainder reconstruction against brute-force oracles."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.rcrt import (
    TIE_TOLERANCE_REL,
    make_wavelength_set,
    reconstruct_batch,
    remainders_of,
)

WS = make_wavelength_set(80.0, (15, 16, 17))


class TestWavelengthSet:
    def test_derived_quantities(self):
        assert np.allclose(WS.wavelengths, (1200.0, 1280.0, 1360.0))
        assert WS.max_range == pytest.approx(326400.0)
        assert WS.size == 3

    def test_rejects_shared_divisor(self):
        with pytest.raises(ValueError, match="15.*21|21.*15"):
            make_wavelength_set(80.0, (15, 21, 17))

    def test_rejects_factor_below_two(self):
        with pytest.raises(ValueError):
            make_wavelength_set(80.0, (1, 16, 17))

    def test_rejects_fractional_factor(self):
        with pytest.raises(ValueError):
            make_wavelength_set(80.0, (15.5, 16, 17))

    def test_rejects_nonpositive_common_factor(self):
        with pytest.raises(ValueError):
            make_wavelength_set(0.0, (15, 16))

    def test_rejects_max_range_outside_the_float_range(self):
        with pytest.raises(ValueError, match="finite"):
            make_wavelength_set(1e306, (15, 16, 17))
        # a product that leaves the float range before common_factor applies
        with pytest.raises(ValueError, match="finite"):
            make_wavelength_set(1e-300, (2**1024 + 1, 3))

    def test_rejects_single_factor(self):
        with pytest.raises(ValueError):
            make_wavelength_set(80.0, (15,))

    def test_rejects_integer_steps_beyond_int64(self):
        # the CRT would multiply residues below 2**40 by a basis below 2**40;
        # the search would scan 2**40 first quotients per trial
        with pytest.raises(ValueError, match=r"prod\(factors\) = 3298534883328 .*2\*\*63 - 1"):
            make_wavelength_set(1.0, (3, 2**40))
        # quotients up to 2**63 would leave int64 too
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            make_wavelength_set(1.0, (2**64 + 1, 3))
        # a huge first factor with a small second one stays: Gamma / Gamma_0
        # = 3 first quotients and quotients up to 2**40
        assert make_wavelength_set(1.0, (2**40, 3)).coprime_factors == (2**40, 3)


class TestRemaindersOf:
    def test_hand_worked_fold(self):
        rem, quotients = remainders_of(5000.0, WS)
        assert quotients.tolist() == [4, 3, 3]
        assert np.allclose(rem, (200.0, 1160.0, 920.0))

    def test_near_top_of_range(self):
        rem, quotients = remainders_of(325200.0, WS)
        assert quotients.tolist() == [271, 254, 239]
        assert np.allclose(rem, (0.0, 80.0, 160.0))

    def test_rejects_out_of_range_dividend(self):
        with pytest.raises(ValueError):
            remainders_of(WS.max_range, WS)
        with pytest.raises(ValueError):
            remainders_of(-1.0, WS)

    def test_float_boundary_guard(self):
        # 3.3000000000000003 / 0.30000000000000004 rounds up to 11, so the
        # raw fold leaves a tiny negative remainder that the guard lifts
        ws = make_wavelength_set(0.1, (3, 5, 7))
        for dividends in (3.3000000000000003, np.array([3.3000000000000003, 1.0])):
            rem, quotients = remainders_of(dividends, ws)
            assert np.all((rem >= 0.0) & (rem < ws.wavelengths))
            assert np.allclose(quotients * ws.wavelengths + rem, np.reshape(dividends, (-1, 1)))

    def test_array_of_dividends_folds_entry_by_entry(self):
        # a block gains a last axis; each entry has the bits of its own fold
        dividends = np.array([[0.0, 5000.0, 325200.0], [1.5, 99999.25, 1e-9]])
        rem, quotients = remainders_of(dividends, WS)
        assert rem.shape == quotients.shape == (2, 3, WS.size)
        for idx in np.ndindex(dividends.shape):
            one_rem, one_q = remainders_of(dividends[idx], WS)
            assert np.array_equal(rem[idx], one_rem)
            assert np.array_equal(quotients[idx], one_q)
        with pytest.raises(ValueError, match="outside"):
            remainders_of(np.array([5000.0, WS.max_range]), WS)

    def test_remainders_always_inside_wavelength(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = rng.uniform(0.0, WS.max_range)
            rem, quotients = remainders_of(r, WS)
            assert np.all(rem >= 0.0)
            assert np.all(rem < WS.wavelengths)
            # fold is exact: quotient * wavelength + remainder == dividend
            assert np.allclose(quotients * WS.wavelengths + rem, r)


def quotient_bounds(ws):
    total = math.prod(ws.coprime_factors)
    return [total // f for f in ws.coprime_factors]


def brute_force_candidates(pair_index, rem, ws):
    """Literal scan of the full quotient rectangle for one pairing."""
    lam = ws.wavelengths
    bounds = quotient_bounds(ws)
    best = np.inf
    cells = {}
    for b0 in range(bounds[0]):
        for bk in range(bounds[pair_index]):
            val = abs(bk * lam[pair_index] + rem[pair_index] - b0 * lam[0] - rem[0])
            cells[(b0, bk)] = val
            best = min(best, val)
    tol = TIE_TOLERANCE_REL * lam[0]
    return {pair for pair, val in cells.items() if val <= best + tol}


# ---------------------------------------------------------------------------
# the quotient search that the closed form replaced, kept as a bitwise
# oracle: every first quotient against every pairing, in chunks of trials

# elements per (trials, pairings, first quotients) temporary of the search
ORACLE_CHUNK_ELEMENTS = 8192


@dataclass(frozen=True)
class Scan:
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


def oracle_scan(rem, ws):
    """Scan every pairing of a (c, size) block of remainders."""
    lams = ws.wavelengths
    bounds = quotient_bounds(ws)
    lam_k = lams[1:, None]
    top = np.array([b - 1 for b in bounds[1:]], dtype=float)[:, None]
    b_first = np.arange(bounds[0], dtype=float)
    target = (b_first * lams[0] + rem[:, :1, None]) - rem[:, 1:, None]
    low = np.floor(target / lam_k)
    high = low + 1.0

    def clip_and_miss(paired):
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
    return Scan(low, high, hit_low, hit_high, (hit_low | hit_high).all(axis=1))


def oracle_resolve(scan, rem, ws):
    """(estimates, quotients, ambiguous) of a scanned (c, size) block.

    A trial is ambiguous unless exactly one first quotient survives. Inside
    each pairing, ties at the survivor are broken by the smaller objective
    |b_k*lam_k + r_k - b_0*lam_0 - r_0|, then by the smaller b_k.
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

    take_high = hit_high & (~hit_low | (objective(high) < objective(low)))
    quotients = np.empty(rem.shape, dtype=int)
    quotients[:, 0] = first
    quotients[:, 1:] = np.where(take_high, high, low)
    estimates = np.mean(quotients * lams + rem, axis=1)
    estimates[ambiguous] = np.nan
    quotients[ambiguous] = -1
    return estimates, quotients, ambiguous


def oracle_chunk(ws):
    """Trials per chunk of the search."""
    return max(1, ORACLE_CHUNK_ELEMENTS // ((ws.size - 1) * quotient_bounds(ws)[0]))


def oracle_reconstruct(remainders, ws):
    """reconstruct_batch's contract, by the search, chunk by chunk."""
    rem = np.asarray(remainders, dtype=float)
    step = oracle_chunk(ws)
    estimates = np.empty(rem.shape[0])
    quotients = np.empty(rem.shape, dtype=int)
    ambiguous = np.empty(rem.shape[0], dtype=bool)
    for start in range(0, rem.shape[0], step):
        block = slice(start, start + step)
        estimates[block], quotients[block], ambiguous[block] = oracle_resolve(
            oracle_scan(rem[block], ws), rem[block], ws
        )
    return estimates, quotients, ambiguous


def assert_matches_oracle(rows, ws):
    """reconstruct_batch equals the search bit for bit, flags included."""
    estimates, quotients, ambiguous = reconstruct_batch(rows, ws)
    want_estimates, want_quotients, want_ambiguous = oracle_reconstruct(rows, ws)
    assert np.array_equal(ambiguous, want_ambiguous)
    assert np.array_equal(quotients, want_quotients)
    assert np.array_equal(estimates, want_estimates, equal_nan=True)


def scan_one(rem, ws):
    """The search's scan of a single remainder vector."""
    return oracle_scan(np.asarray(rem, dtype=float)[None], ws)


def kernel_candidates(pair_index, rem, ws):
    """(first, paired) quotient pairs the search's hit masks mark for one pairing."""
    scan = scan_one(rem, ws)
    found = set()
    for paired, hit in ((scan.low, scan.hit_low), (scan.high, scan.hit_high)):
        first = np.flatnonzero(hit[0, pair_index - 1])
        found.update(zip(first.tolist(), paired[0, pair_index - 1, first].astype(int).tolist()))
    return found


def surviving_quotients(rem, ws):
    """First quotients that every pairing's candidate set shares."""
    return set(np.flatnonzero(scan_one(rem, ws).survivors[0]).tolist())


def reconstruct_one(rem, ws):
    """(estimate, quotients, ambiguous) of one remainder vector, a batch of one."""
    (estimate,), (quotients,), (ambiguous,) = reconstruct_batch(np.asarray(rem)[None], ws)
    return estimate, quotients, ambiguous


class TestCandidateSets:
    def test_matches_brute_force_on_small_factors(self):
        ws = make_wavelength_set(7.0, (3, 4, 5))
        rng = np.random.default_rng(42)
        for _ in range(60):
            r = rng.uniform(0.0, ws.max_range)
            noise = rng.uniform(-1.7, 1.7, size=3)  # inside B/4 = 1.75
            noisy = np.mod(remainders_of(r, ws)[0] + noise, ws.wavelengths)
            for pair_index in (1, 2):
                fast = kernel_candidates(pair_index, noisy, ws)
                assert fast == brute_force_candidates(pair_index, noisy, ws)

    def test_matches_brute_force_under_heavy_noise(self):
        # ambiguous regimes must agree too, ties included
        ws = make_wavelength_set(5.0, (3, 5, 7))
        rng = np.random.default_rng(7)
        for _ in range(40):
            noisy = rng.uniform(0.0, ws.wavelengths)
            for pair_index in (1, 2):
                fast = kernel_candidates(pair_index, noisy, ws)
                assert fast == brute_force_candidates(pair_index, noisy, ws)

    def test_tie_family_is_kept(self):
        # the second pairing alone leaves a 17-way ambiguity that the
        # third pairing later prunes to a singleton
        noisy = np.array([205.0, 1155.0, 918.0])
        s2 = kernel_candidates(1, noisy, WS)
        assert len(s2) == 17
        assert (4, 3) in s2
        assert s2 == brute_force_candidates(1, noisy, WS)
        assert surviving_quotients(noisy, WS) == {4}


class TestReconstruct:
    def test_hand_worked_noisy_vector(self):
        noisy = np.array([205.0, 1155.0, 918.0])
        estimate, quotients, ambiguous = reconstruct_one(noisy, WS)
        assert not ambiguous
        assert estimate == pytest.approx(4999.3333333333, abs=1e-9)
        assert quotients.tolist() == [4, 3, 3]
        assert surviving_quotients(noisy, WS) == {4}
        assert quotient_bounds(WS) == [272, 255, 240]

    def test_noiseless_round_trip_is_exact(self):
        rng = np.random.default_rng(1)
        truths = rng.uniform(0.0, WS.max_range, size=300)
        folds = [remainders_of(r, WS) for r in truths]
        estimates, quotients, ambiguous = reconstruct_batch(
            np.array([rem for rem, _ in folds]), WS
        )
        assert not ambiguous.any()
        for r, estimate, found, (_, exact) in zip(truths, estimates, quotients, folds):
            assert estimate == pytest.approx(r, rel=1e-12)
            assert np.array_equal(found, exact)

    def test_error_bound_holds_under_quarter_threshold(self):
        # noise strictly below B/4 leaves the unfolded per-wavelength values
        # exact (quotients right up to boundary folds) and the estimate
        # within the worst per-remainder error
        rng = np.random.default_rng(2)
        upsilon = 19.5  # < 80 / 4
        truths = np.empty(300)
        noises = np.empty((300, 3))
        wrapped = np.empty((300, 3))
        for i in range(300):
            truths[i] = rng.uniform(40.0, WS.max_range - 40.0)
            noises[i] = rng.uniform(-upsilon, upsilon, size=3)
            wrapped[i] = np.mod(remainders_of(truths[i], WS)[0] + noises[i], WS.wavelengths)
        estimates, quotients, ambiguous = reconstruct_batch(wrapped, WS)
        assert not ambiguous.any()
        unfolded = quotients * WS.wavelengths + wrapped
        assert np.allclose(unfolded, truths[:, None] + noises, atol=1e-6)
        assert np.all(np.abs(estimates - truths) <= upsilon + 1e-9)

    def test_exhaustive_quotient_tuples_on_tiny_set(self):
        # every feasible quotient tuple of a 3-4-5 set reconstructs exactly
        ws = make_wavelength_set(7.0, (3, 4, 5))
        offsets = np.array([1.0, 3.0, 5.0])
        for b1 in range(quotient_bounds(ws)[0]):
            r = b1 * ws.wavelengths[0] + offsets[0]
            if r >= ws.max_range:
                continue
            rem, exact = remainders_of(r, ws)
            estimate, quotients, ambiguous = reconstruct_one(rem, ws)
            assert not ambiguous
            assert estimate == pytest.approx(r, abs=1e-9)
            assert np.array_equal(quotients, exact)

    def test_inconsistent_remainders_are_flagged_ambiguous(self):
        # remainders folded from different dividends leave no common quotient
        a, _ = remainders_of(5000.0, WS)
        b, _ = remainders_of(200000.0, WS)
        noisy = np.array([a[0], b[1], b[2]])
        estimate, quotients, ambiguous = reconstruct_one(noisy, WS)
        assert ambiguous
        assert math.isnan(estimate) and np.all(quotients == -1)
        assert len(surviving_quotients(noisy, WS)) != 1

    def test_rejects_out_of_range_remainders(self):
        with pytest.raises(ValueError):
            reconstruct_batch(np.array([[1300.0, 0.0, 0.0]]), WS)
        with pytest.raises(ValueError):
            reconstruct_batch(np.array([[-1.0, 0.0, 0.0]]), WS)

    def test_wrapped_remainder_keeps_estimate_near_truth(self):
        # positive noise pushes the first remainder past its wavelength;
        # the folded quotient changes but the unfolded estimate does not
        r = 5.0 * 1200.0 - 2.0  # remainder 1198 on the first wavelength
        noisy, _ = remainders_of(r, WS)
        noisy[0] = (noisy[0] + 5.0) % 1200.0  # wraps to 3.0
        estimate, _, ambiguous = reconstruct_one(noisy, WS)
        assert not ambiguous
        assert abs(estimate - r) <= 5.0 + 1e-9


def reference_reconstruct(rem, ws):
    """The per-trial scalar search that the batch kernel replaced.

    Kept as a bitwise oracle: returns (estimate, quotients), or None when
    the first-quotient intersection is not a singleton.
    """
    lams = ws.wavelengths
    bounds = quotient_bounds(ws)
    b_first = np.arange(bounds[0], dtype=float)
    pairs = {}
    survivors = None
    for k in range(1, ws.size):
        target = b_first * lams[0] + rem[0] - rem[k]
        lower = np.floor(target / lams[k])
        scored = []
        for cand in (lower, lower + 1.0):
            b_k = np.clip(cand, 0.0, float(bounds[k] - 1))
            scored.append((b_k, np.abs(b_k * lams[k] - target)))
        cut = min(float(vals.min()) for _, vals in scored) + TIE_TOLERANCE_REL * lams[0]
        pairs[k] = {
            (int(b_first[i]), int(b_k[i]))
            for b_k, vals in scored
            for i in np.flatnonzero(vals <= cut)
        }
        firsts = {b for b, _ in pairs[k]}
        survivors = firsts if survivors is None else survivors & firsts
    if len(survivors) != 1:
        return None
    (b0,) = survivors
    quotients = [b0]
    for k in range(1, ws.size):
        matched = [bk for b, bk in pairs[k] if b == b0]
        quotients.append(
            min((abs(bk * lams[k] + rem[k] - b0 * lams[0] - rem[0]), bk) for bk in matched)[1]
        )
    quotients = np.array(quotients)
    return float(np.mean(quotients * lams + rem)), quotients


@st.composite
def wavelength_sets(draw, max_product):
    """Pairwise co-prime sets of 2-4 factors with a random common factor."""
    size = draw(st.integers(2, 4))
    factors = []
    for _ in range(size):
        product = math.prod(factors)
        choices = [
            g
            for g in range(2, 14)
            if product * g <= max_product and all(math.gcd(g, h) == 1 for h in factors)
        ]
        if not choices:
            break
        factors.append(draw(st.sampled_from(choices)))
    common = draw(
        st.one_of(
            st.sampled_from([0.5, 1.0, 3.0, 80.0]),
            st.floats(0.01, 1000.0, allow_nan=False, allow_infinity=False),
        )
    )
    return make_wavelength_set(common, draw(st.permutations(factors)))


def wrap(values, ws):
    """Fold values into [0, wavelength), as a wrapped phase reading arrives."""
    folded = np.mod(values, ws.wavelengths)
    return np.where(folded >= ws.wavelengths, folded - ws.wavelengths, folded)


@st.composite
def remainder_rows(draw, ws):
    """One remainder vector: pure noise, a tie lattice, or a noisy fold."""
    kind = draw(st.sampled_from(["uniform", "lattice", "noisy"]))
    if kind == "uniform":
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=ws.size, max_size=ws.size))
        return wrap(np.array(fractions) * ws.wavelengths, ws)
    if kind == "lattice":
        # multiples of B/2 put several quotient pairs at exactly equal cost
        steps = [draw(st.integers(0, 2 * g - 1)) for g in ws.coprime_factors]
        return np.array(steps) * (ws.common_factor / 2.0)
    truth = draw(st.floats(0.0, ws.max_range, exclude_max=True))
    scale = draw(st.sampled_from([0.0, 0.1, 0.5, 2.0])) * ws.common_factor
    noise = [draw(st.floats(-1.0, 1.0)) * scale for _ in range(ws.size)]
    return wrap(remainders_of(truth, ws)[0] + noise, ws)


class TestBatchProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_candidate_sets_match_brute_force(self, data):
        ws = data.draw(wavelength_sets(max_product=400))
        row = data.draw(remainder_rows(ws))
        for pair_index in range(1, ws.size):
            assert kernel_candidates(pair_index, row, ws) == brute_force_candidates(
                pair_index, row, ws
            )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_equal_single_and_reference_reconstruction(self, data):
        ws = data.draw(wavelength_sets(max_product=5000))
        rows = data.draw(st.lists(remainder_rows(ws), min_size=1, max_size=20))
        estimates, quotients, ambiguous = reconstruct_batch(np.array(rows), ws)
        for row, estimate, quotient, flagged in zip(rows, estimates, quotients, ambiguous):
            expected = reference_reconstruct(row, ws)
            assert flagged == (expected is None)
            single, single_q, single_flag = reconstruct_one(row, ws)
            assert single_flag == flagged
            if flagged:
                assert math.isnan(estimate) and np.all(quotient == -1)
                assert math.isnan(single) and np.all(single_q == -1)
                continue
            assert estimate == single == expected[0]
            assert np.array_equal(quotient, single_q)
            assert np.array_equal(quotient, expected[1])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_error_bound_below_quarter_common_factor(self, data):
        ws = data.draw(wavelength_sets(max_product=5000))
        upsilon = data.draw(st.floats(0.0, 0.99)) * ws.common_factor / 4.0
        truth = data.draw(st.floats(upsilon, ws.max_range - upsilon, exclude_max=True))
        noise = np.array(
            [data.draw(st.floats(-upsilon, upsilon)) for _ in range(ws.size)]
        )
        rows = wrap(remainders_of(truth, ws)[0] + noise, ws)[None]
        estimates, _, ambiguous = reconstruct_batch(rows, ws)
        assert not ambiguous[0]
        assert abs(estimates[0] - truth) <= upsilon + 1e-9 * ws.max_range


@st.composite
def edge_rows(draw, ws):
    """Remainders at or next to the ends of their wavelengths, where the
    noisy differences x_k sit next to -Gamma_k or Gamma_0. An eighth of the
    tie cut off an end keeps both neighbours of such an x_k, at distances
    that differ by up to half the cut (the cut itself is where the two
    roundings of the search and of x_k may part)."""
    inside = TIE_TOLERANCE_REL * ws.wavelengths[0] / 8.0
    ends = [
        draw(
            st.sampled_from(
                [0.0, inside, lam / 2.0, lam - ws.common_factor / 2.0, lam - inside, np.nextafter(lam, 0.0)]
            )
        )
        for lam in ws.wavelengths
    ]
    return wrap(np.array(ends), ws)


class TestClosedFormMatchesTheSearch:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_equal_the_oracle(self, data):
        ws = data.draw(wavelength_sets(max_product=5000))
        rows = data.draw(
            st.lists(st.one_of(remainder_rows(ws), edge_rows(ws)), min_size=1, max_size=20)
        )
        assert_matches_oracle(np.array(rows), ws)

    def test_nearest_difference_the_quotients_can_form(self):
        # x_1 = -2.625 rounds to -3 = -Gamma_1, which no pair of quotients in
        # range forms; the search takes the next formable difference, -2
        ws = make_wavelength_set(0.5, (2, 3))
        rows = np.array([[0.0, 1.3125]])
        estimates, quotients, ambiguous = reconstruct_batch(rows, ws)
        assert not ambiguous[0]
        assert estimates[0] == 1.15625
        assert quotients[0].tolist() == [1, 0]
        assert_matches_oracle(rows, ws)

    def test_both_neighbours_name_one_first_quotient(self):
        # with Gamma_1 = 2, x_1 just above -2 keeps -3 and -1, and x_1 just
        # below Gamma_0 keeps Gamma_0 - 1 and Gamma_0 + 1: both pairs name
        # one n_0, and the search takes the smaller objective, the upper
        # neighbour in the first row and the lower one in the second
        ws = make_wavelength_set(1.0, (101, 2))
        rows = np.array([[1e-8, np.nextafter(2.0, 0.0)], [101.0 - 1e-8, 1e-8]])
        _, quotients, ambiguous = reconstruct_batch(rows, ws)
        assert not ambiguous.any()
        assert quotients.tolist() == [[1, 50], [0, 50]]
        assert_matches_oracle(rows, ws)

    def test_distances_differing_by_exactly_the_tie_cut(self):
        # the known exception to bit-for-bit agreement: x_1 = -3 + 1e-9 lies
        # 1 - 1e-9 from the formable difference -2 and 1 + 1e-9 from -4, and
        # those distances differ by exactly the cut TIE_TOLERANCE_REL * 2; the
        # closed form compares in units of M and keeps -2 alone, the search
        # compares in lengths and keeps both
        ws = make_wavelength_set(27.0, (2, 3))
        rows = np.array([[1.35e-8, 81.0 - 1.35e-8]])
        estimates, quotients, ambiguous = reconstruct_batch(rows, ws)
        assert not ambiguous[0]
        assert quotients[0].tolist() == [1, 0]
        assert estimates[0] == 67.5
        want_estimates, want_quotients, want_ambiguous = oracle_reconstruct(rows, ws)
        assert want_ambiguous[0]
        assert np.isnan(want_estimates[0]) and want_quotients[0].tolist() == [-1, -1]

    @pytest.mark.parametrize("factors", [(2, 3), (3, 2), (7, 9), (13, 2), (3, 5, 7)])
    def test_noisy_blocks_equal_the_oracle(self, factors):
        # noise of 0.1 * M puts x_k next to -Gamma_1 or Gamma_0 often: on
        # (2, 3), round(x_1) is one of them on 341 of these 20,000 rows
        ws = make_wavelength_set(1.0, factors)
        rng = np.random.default_rng(11)
        truths = rng.uniform(0.0, ws.max_range, 20_000)
        rows = wrap(remainders_of(truths, ws)[0] + rng.normal(0.0, 0.1, (20_000, ws.size)), ws)
        assert_matches_oracle(rows, ws)

    @pytest.mark.parametrize("factors", [(2**40, 3), (2**40 + 1, 2), (1_500_000_001, 3)])
    def test_huge_first_factor_loads_and_flags_every_row(self, factors):
        # the search scans only Gamma / Gamma_0 first quotients here, but its
        # tie cut of 1e-9 * lambda_0 spans a whole quotient difference or
        # more, so every row keeps several; at the ends of the span the two
        # nearest formable differences alone name one first quotient
        ws = make_wavelength_set(1.0, factors)
        g0, lams = factors[0], ws.wavelengths
        rng = np.random.default_rng(5)
        truths = rng.uniform(0.0, ws.max_range, 200)
        exact = remainders_of(truths, ws)[0]
        ends = [
            [0.0, np.nextafter(lams[1], 0.0)],
            [np.nextafter(lams[0], 0.0), 0.0],
            [g0 - 1.0, 0.0],
            [g0 - 0.5, 0.5],
            [0.0, 0.0],
        ]
        rows = np.concatenate(
            [
                exact,
                wrap(exact + rng.normal(0.0, 0.1, exact.shape), ws),
                rng.uniform(0.0, 1.0, exact.shape) * lams,
                np.array(ends),
            ]
        )
        estimates, quotients, ambiguous = reconstruct_batch(rows, ws)
        assert ambiguous.all()
        assert np.isnan(estimates).all() and (quotients == -1).all()
        assert_matches_oracle(rows, ws)


class TestReconstructBatch:
    @pytest.mark.parametrize("extra", [0, 1, 7])
    def test_any_trial_count_matches_single_calls(self, extra):
        # one trial, and counts that leave a partial last chunk of the search
        rng = np.random.default_rng(extra)
        step = oracle_chunk(WS)
        assert step > 1
        count = 1 if extra == 0 else 2 * step + extra
        truths = rng.uniform(0.0, WS.max_range, size=count)
        rows = np.array(
            [wrap(remainders_of(r, WS)[0] + rng.normal(0, 12.0, 3), WS) for r in truths]
        )
        estimates, quotients, ambiguous = reconstruct_batch(rows, WS)
        assert estimates.shape == (count,) and quotients.shape == (count, 3)
        assert not ambiguous.any()
        for row, estimate, quotient in zip(rows, estimates, quotients):
            single, single_q, _ = reconstruct_one(row, WS)
            assert estimate == single
            assert np.array_equal(quotient, single_q)
        assert_matches_oracle(rows, WS)

    def test_empty_batch(self):
        estimates, quotients, ambiguous = reconstruct_batch(np.empty((0, 3)), WS)
        assert estimates.shape == (0,) and quotients.shape == (0, 3) and ambiguous.shape == (0,)

    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros(3),
            np.zeros((2, 2)),
            np.array([[1200.0, 0.0, 0.0]]),
            np.array([[np.nan, 0.0, 0.0]]),
        ],
    )
    def test_rejects_malformed_rows(self, rows):
        with pytest.raises(ValueError):
            reconstruct_batch(rows, WS)
