"""Tests for modulation tables, AWGN reference curves and the BER driver."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import erfc

import hogmt.linksim
from hogmt import (
    MIN_BITS_FLOOR,
    EigenDecomposition,
    ScenarioConfig,
    demodulate,
    flatten_kernel,
    generate_channel,
    get_scheme,
    hogmt_decompose,
    modulate,
    parse_precoder,
    run_ber,
    theoretical_awgn_ber,
    to_kernel,
)
from hogmt.errors import (
    DegenerateChannelError,
    DimensionMismatchError,
    ValidationError,
)
from hogmt.precoding import hogmt_map, retained_count


class TestSchemeTables:
    def test_names_and_orders(self):
        for name, k in (("bpsk", 1), ("qpsk", 2), ("qam16", 4), ("qam64", 6)):
            sch = get_scheme(name)
            assert sch.bits_per_symbol == k
            assert sch.points.size == 2**k

    def test_lookup_case_insensitive(self):
        assert get_scheme("QAM16") is get_scheme("qam16")
        with pytest.raises(ValidationError):
            get_scheme("qam128")

    def test_unit_mean_energy(self):
        for name in ("bpsk", "qpsk", "qam16", "qam64"):
            pts = get_scheme(name).points
            assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, rel=1e-12), name

    def test_bpsk_points(self):
        pts = get_scheme("bpsk").points
        np.testing.assert_allclose(pts, [-1.0, 1.0], rtol=0, atol=1e-15)

    def test_qpsk_points(self):
        pts = get_scheme("qpsk").points
        want = {
            (1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j),
        }
        got = {complex(round(p.real * math.sqrt(2)), round(p.imag * math.sqrt(2))) for p in pts}
        assert got == want

    @pytest.mark.parametrize("name", ["bpsk", "qpsk", "qam16", "qam64"])
    @pytest.mark.parametrize("table", ["levels", "points"])
    def test_shared_tables_are_read_only(self, name, table):
        # SCHEMES is shared by the whole process: a write would move every
        # later caller's curve and slicer
        before = theoretical_awgn_ber(name, 5.0)
        with pytest.raises(ValueError, match="read-only"):
            getattr(get_scheme(name), table)[:] = 0
        assert theoretical_awgn_ber(name, 5.0) == before

    def test_tables_cannot_be_passed_in(self):
        # the tables follow from the bit counts, so none can disagree with them
        with pytest.raises(TypeError):
            hogmt.linksim.ModulationScheme("bad", 2, 2, [-1.0, 1.0], [1j])

    def test_scheme_is_its_three_fields(self):
        # hashable, and equal exactly when name and bit counts are
        assert [f.name for f in dataclasses.fields(hogmt.linksim.ModulationScheme)] == [
            "name", "axis_bits", "axes"]
        qam16 = hogmt.linksim.ModulationScheme("qam16", 2, 2)
        assert qam16 == get_scheme("qam16") and hash(qam16) == hash(get_scheme("qam16"))
        assert hogmt.linksim.ModulationScheme("x", 2, 2) != qam16

    @pytest.mark.parametrize("name", [None, "", 16])
    def test_name_is_a_non_empty_string(self, name):
        with pytest.raises(ValidationError, match="name"):
            hogmt.linksim.ModulationScheme(name, 1, 1)

    @pytest.mark.parametrize("name,axis_bits,axes", [
        ("qpsk", 3, 2), ("QAM16", 1, 2), ("bpsk", 1, 2), ("qam64", 3, 1)])
    def test_built_in_name_carries_its_bit_counts(self, name, axis_bits, axes):
        # run_ber would report a 64-point scheme named "qpsk" as qpsk rows
        with pytest.raises(ValidationError, match=f"name {name!r}"):
            hogmt.linksim.ModulationScheme(name, axis_bits, axes)
        built_in = get_scheme(name)
        hogmt.linksim.ModulationScheme(name, built_in.axis_bits, built_in.axes)  # builds

    def test_largest_table_builds(self):
        # 8 bits an axis, the bound (test_boundary.py refuses 9): 2**16 points
        sch = hogmt.linksim.ModulationScheme("x", 8, 2)
        assert sch.points.size == 1 << 16 and not sch.points.flags.writeable

    def test_qam16_levels(self):
        sch = get_scheme("qam16")
        np.testing.assert_allclose(
            np.sort(sch.levels), np.array([-3, -1, 1, 3]) / math.sqrt(10), rtol=1e-14
        )

    def test_gray_labels_differ_in_one_bit(self):
        # sweeping a level axis in amplitude order flips exactly one bit
        for name in ("qam16", "qam64"):
            sch = get_scheme(name)
            order = np.argsort(sch.levels)
            labels = order  # index in levels is the per-axis gray label
            # decode label -> position: adjacent positions must be gray
            inv = np.empty_like(order)
            inv[order] = np.arange(order.size)
            seq = [int(x) for x in np.argsort(sch.levels)]
            for a, b in zip(seq, seq[1:]):
                assert bin(a ^ b).count("1") == 1, (name, a, b)


def _gray_rank(label: int) -> int:
    """Position of a Gray label in the Gray sequence: the XOR of all its right shifts."""
    rank = 0
    while label:
        rank ^= label
        label >>= 1
    return rank


class TestGrayAxis:
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6])
    def test_level_of_each_label_is_set_by_its_gray_rank(self, n_bits):
        m = 1 << n_bits
        levels = hogmt.linksim.ModulationScheme("x", n_bits, 1).levels
        want = np.array([2 * _gray_rank(g) - (m - 1) for g in range(m)], dtype=float)
        np.testing.assert_allclose(levels, want / math.sqrt((m * m - 1) / 3), rtol=1e-14)

    @pytest.mark.parametrize("n_bits", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_axis_bit_errors_sum_every_level_pair(self, n_bits, sigma):
        # the expected Hamming distance between the sent and the decided label,
        # summed pair by pair over the decision bands of the sorted levels
        from scipy.special import ndtr

        levels = hogmt.linksim.ModulationScheme("x", n_bits, 1).levels
        label = np.argsort(levels)  # label at each amplitude rank
        lv = levels[label]
        edges = np.concatenate([[-np.inf], (lv[:-1] + lv[1:]) / 2, [np.inf]])
        want = sum(
            (ndtr((edges[d + 1] - lv[s]) / sigma) - ndtr((edges[d] - lv[s]) / sigma))
            * bin(int(label[s]) ^ int(label[d])).count("1")
            for s in range(lv.size)
            for d in range(lv.size)
        ) / lv.size
        got = hogmt.linksim._axis_bit_errors(levels, sigma)
        assert got == pytest.approx(want, rel=1e-12)


def _decision_edges():
    """Float midpoints of adjacent levels of every scheme and their neighbours."""
    edges = set()
    for name in ("bpsk", "qpsk", "qam16", "qam64"):
        lv = np.sort(get_scheme(name).levels)
        for mid in (lv[:-1] + lv[1:]) / 2:
            edges.update((mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)))
    return sorted(float(e) for e in edges)


# any finite float, with decision boundaries and their neighbours drawn often
_AXIS_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_decision_edges())
)


class TestModulateDemodulate:
    @pytest.mark.parametrize("name", ["bpsk", "qpsk", "qam16", "qam64"])
    def test_roundtrip_exact(self, name):
        sch = get_scheme(name)
        rng = np.random.default_rng(3)
        dims = (3, 20)
        bits = rng.integers(0, 2, size=sch.bits_per_symbol * 60, dtype=np.uint8)
        sig = modulate(bits, sch, dims)
        assert sig.grid.shape == dims
        back = demodulate(sig.grid, sch)
        np.testing.assert_array_equal(back, bits)

    def test_every_constellation_point_reachable(self):
        sch = get_scheme("qam16")
        n = sch.points.size
        labels = np.arange(n)
        bits = ((labels[:, None] >> np.arange(sch.bits_per_symbol - 1, -1, -1)) & 1).astype(np.uint8)
        sig = modulate(bits.ravel(), sch, (1, n))
        assert len(set(np.round(sig.grid.ravel(), 12).tolist())) == n

    def test_bit_count_checked(self):
        sch = get_scheme("qpsk")
        with pytest.raises(ValidationError):
            modulate(np.zeros(7, dtype=np.uint8), sch, (1, 4))

    def test_fractional_bits_rejected(self):
        # a uint8 cast would have turned these into bits [0, 1]
        with pytest.raises(ValidationError, match="bits"):
            modulate([0.7, 1.2], "bpsk", (1, 2))

    @pytest.mark.parametrize("bad", [[-1, 0], [2, 0], [1, math.nan]])
    def test_out_of_range_bits_rejected(self, bad):
        with pytest.raises(ValidationError, match="bits"):
            modulate(bad, "bpsk", (1, 2))

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(["bpsk", "qpsk", "qam16", "qam64"]),
        values=st.lists(st.tuples(_AXIS_VALUES, _AXIS_VALUES), min_size=1, max_size=8),
    )
    def test_slicer_matches_brute_force_argmin(self, name, values):
        # brute-force minimum distance over every constellation point, in
        # exact arithmetic: float distances tie for values far outside the
        # constellation; an exact tie goes to the lowest label
        sch = get_scheme(name)
        k = sch.bits_per_symbol
        pts = [(Fraction(p.real), Fraction(p.imag)) for p in sch.points]
        want = []
        for re, im in values:
            fre, fim = Fraction(re), Fraction(im)
            label = min(
                range(len(pts)),
                key=lambda n: ((fre - pts[n][0]) ** 2 + (fim - pts[n][1]) ** 2, n),
            )
            want.extend((label >> (k - 1 - b)) & 1 for b in range(k))
        r = np.array([complex(re, im) for re, im in values])
        np.testing.assert_array_equal(demodulate(r, sch), want)

    def test_nearest_point_decision(self):
        sch = get_scheme("qam16")
        # a tiny perturbation must not change the decision
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        sig = modulate(bits, sch, (1, 1))
        noisy = sig.grid + (0.01 + 0.013j)
        np.testing.assert_array_equal(demodulate(noisy, sch), bits)


def _cho_yoon_ber(levels_i: int, levels_j: int, gamma_b: np.ndarray) -> np.ndarray:
    """Gray I x J QAM bit error rate in AWGN at per-bit SNRs ``gamma_b`` (linear),
    the closed form of K. Cho and D. Yoon, IEEE Trans. Commun. 50(7), 2002:
    each axis sums erfc terms per bit position; J = 1 is I-PAM."""
    bits = math.log2(levels_i * levels_j)
    arg = np.sqrt(3 * bits * gamma_b / (levels_i**2 + levels_j**2 - 2))

    def axis(m):
        total = np.zeros_like(arg)
        for k in range(1, m.bit_length()):
            for i in range(m - (m >> k)):
                sign = -1 if (i << (k - 1)) // m % 2 else 1
                weight = (1 << (k - 1)) - ((i << k) + m) // (2 * m)
                total += sign * weight * erfc((2 * i + 1) * arg)
        return total / m

    return (axis(levels_i) + axis(levels_j)) / bits


class TestTheoreticalCurves:
    def test_bpsk_at_zero_db(self):
        # closed form 0.5 * erfc(1) at 0 dB per bit
        want = 0.5 * erfc(1.0)
        assert theoretical_awgn_ber("bpsk", 0.0) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.0786496035251426, rel=1e-12)

    def test_qpsk_matches_bpsk_per_bit(self):
        for g in (-2.0, 0.0, 4.0, 8.0):
            assert theoretical_awgn_ber("qpsk", g) == pytest.approx(
                theoretical_awgn_ber("bpsk", g), rel=1e-12
            )

    @pytest.mark.parametrize("name", ["qam16", "qam64"])
    @pytest.mark.parametrize("gamma_db", [2.0, 8.0])
    def test_square_qam_matches_numerical_integration(self, name, gamma_db):
        # independent route: integrate the per-axis bit error count of the
        # minimum-distance decision against the Gaussian noise density
        sch = get_scheme(name)
        k = sch.bits_per_symbol
        gamma = 10.0 ** (gamma_db / 10.0)
        sigma = math.sqrt(1.0 / (2.0 * k * gamma))
        levels = np.sort(sch.levels)
        inv = np.argsort(np.argsort(sch.levels))

        def labels_of(idx):
            return int(np.flatnonzero(np.isclose(np.sort(sch.levels)[idx], sch.levels))[0])

        m = levels.size
        # decision boundaries are midpoints between neighbours
        bounds = (levels[:-1] + levels[1:]) / 2.0

        def bit_errors_given_sent(si):
            def integrand(x):
                pos = np.searchsorted(bounds, levels[si] + x)
                a = labels_of(si)
                b = labels_of(pos)
                ham = bin(a ^ b).count("1")
                return ham * math.exp(-x * x / (2 * sigma * sigma)) / (
                    sigma * math.sqrt(2 * math.pi)
                )

            total = 0.0
            pieces = [-np.inf] + list(bounds - levels[si]) + [np.inf]
            for lo, hi in zip(pieces[:-1], pieces[1:]):
                val, _ = integrate.quad(integrand, lo, hi, limit=200)
                total += val
            return total

        per_axis = np.mean([bit_errors_given_sent(i) for i in range(m)])
        want = per_axis / (k / 2)  # bits per axis
        got = theoretical_awgn_ber(name, gamma_db)
        assert got == pytest.approx(want, rel=1e-9), (name, gamma_db)

    @pytest.mark.parametrize("scheme,levels_i,levels_j", [
        ("bpsk", 2, 1), ("qpsk", 2, 2), ("qam16", 4, 4), ("qam64", 8, 8),
        (hogmt.linksim.ModulationScheme("x", 4, 2), 16, 16),
        (hogmt.linksim.ModulationScheme("x", 5, 2), 32, 32),
    ], ids=["bpsk", "qpsk", "qam16", "qam64", "qam256", "qam1024"])
    def test_matches_cho_yoon_closed_form(self, scheme, levels_i, levels_j):
        # an independent closed form, through both tails: a band probability
        # that rounds away shows past about 15 dB, where BER < 1e-12
        gammas_db = np.arange(-20.0, 40.25, 0.5)
        want = _cho_yoon_ber(levels_i, levels_j, 10.0 ** (gammas_db / 10.0))
        for g, w in zip(gammas_db, want):
            got = theoretical_awgn_ber(scheme, g)
            if w > 1e-300:
                assert got == pytest.approx(w, rel=1e-11, abs=0), (g, got, w)
            else:
                assert got <= 1e-300, (g, got, w)

    def test_monotone_decreasing(self):
        gammas = np.linspace(-5, 25, 61)
        for name in ("bpsk", "qpsk", "qam16", "qam64"):
            vals = [theoretical_awgn_ber(name, g) for g in gammas]
            assert all(a >= b for a, b in zip(vals, vals[1:])), name

    def test_infinite_snr_is_zero(self):
        assert theoretical_awgn_ber("qam64", math.inf) == 0.0
        # a linear SNR beyond float range is noiseless too
        assert theoretical_awgn_ber("qam64", 1e308) == 0.0
        assert theoretical_awgn_ber("qpsk", 3090.0) == 0.0

    def test_vanishing_snr_is_the_infinite_noise_limit(self):
        # 10**(-400) underflows to 0; the curve flattens long before that
        for name in ("bpsk", "qam16"):
            limit = theoretical_awgn_ber(name, -4000.0)
            assert limit == pytest.approx(theoretical_awgn_ber(name, -300.0), rel=1e-12)
        assert theoretical_awgn_ber("bpsk", -4000.0) == pytest.approx(0.5)

    def test_nan_and_minus_inf_rejected(self):
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValidationError, match="snr_per_bit_db"):
                theoretical_awgn_ber("qpsk", bad)


class TestParsePrecoder:
    def test_plain_kinds(self):
        for kind in ("zf", "zfdpc", "none", "ideal"):
            spec = parse_precoder(kind)
            assert spec.kind == kind

    def test_hogmt_with_fraction(self):
        spec = parse_precoder("hogmt(0.7)")
        assert spec.kind == "hogmt"
        assert spec.fraction == pytest.approx(0.7)

    def test_bare_hogmt_defaults_to_full(self):
        assert parse_precoder("hogmt").fraction == 1.0

    @pytest.mark.parametrize("bad", ["hogmt()", "hogmt(0)", "hogmt(1.2)", "svd", "zf(0.5)", None])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_precoder(bad)


def fast_scenario(**kw):
    base = dict(
        users=2, tx_antennas=2, time_symbols=12, min_delay_taps=2,
        max_delay_taps=2, mode="wssus", doppler_max=0.1, delay_decay=2.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestRunBer:
    def test_ideal_matches_theory(self):
        # MC estimate of the clean-link curve vs the closed form, 3 sigma
        rep = run_ber(
            fast_scenario(), precoders=(parse_precoder("ideal"),),
            snr_db=(6.0,), min_bits=400_000, seed=21, modulations=("qpsk",),
        )
        (pt,) = rep.points
        want = theoretical_awgn_ber("qpsk", 6.0 - 10 * math.log10(2))
        z = abs(pt.ber - want) / math.sqrt(pt.ber * (1.0 - pt.ber) / pt.bits)
        assert z < 3.0, f"ideal-link BER {pt.ber} vs theory {want}, z={z:.2f}"

    @pytest.mark.parametrize("qam256", ["qam256", hogmt.linksim.ModulationScheme("qam256", 4, 2)],
                             ids=["built-in", "hand-built"])
    def test_hand_built_qam256_is_on_the_awgn_curve(self, qam256):
        # 8-bit labels, by name and built by hand; 5 sigma as perfbench's check
        rep = run_ber(fast_scenario(), ("hogmt", "ideal"), (20.0,), MIN_BITS_FLOOR, seed=3,
                      modulations=(qam256,))
        (_, pt) = rep.points
        theory = theoretical_awgn_ber(qam256, 20.0 - 10 * math.log10(8))
        se = math.sqrt(max(theory, 1.0 / pt.bits) * (1.0 - theory) / pt.bits)
        assert (pt.precoder, pt.modulation) == ("ideal", "qam256") and pt.errors > 0
        assert abs(pt.ber - theory) <= 5.0 * se, (pt.ber, theory)

    def test_noise_free_full_retention_is_error_free(self):
        rep = run_ber(
            fast_scenario(), precoders=(parse_precoder("hogmt(1.0)"),),
            snr_db=(math.inf,), min_bits=20_000, seed=5, modulations=("qam16",),
        )
        (pt,) = rep.points
        assert pt.errors == 0 and pt.bits >= 20_000

    def test_deterministic_per_seed(self):
        kw = dict(
            precoders=(parse_precoder("ideal"),), snr_db=(4.0,),
            min_bits=20_000, modulations=("qam16",),
        )
        a = run_ber(fast_scenario(), seed=3, **kw)
        b = run_ber(fast_scenario(), seed=3, **kw)
        c = run_ber(fast_scenario(), seed=4, **kw)
        assert a.points == b.points
        assert a.points != c.points
        # a bare name is one modulation, not a sequence of characters
        assert run_ber(fast_scenario(), seed=3, **dict(kw, modulations="qam16")).points == a.points

    def test_min_bits_floor_enforced(self):
        with pytest.raises(ValidationError, match=str(MIN_BITS_FLOOR)):
            run_ber(
                fast_scenario(), precoders=(parse_precoder("ideal"),),
                snr_db=(0.0,), min_bits=100, seed=1, modulations=("bpsk",),
            )
        rep = run_ber(
            fast_scenario(), precoders=(parse_precoder("ideal"),),
            snr_db=(0.0,), min_bits=MIN_BITS_FLOOR, seed=1, modulations=("bpsk",),
        )
        (pt,) = rep.points
        assert pt.bits >= MIN_BITS_FLOOR

    def test_point_metadata(self):
        rep = run_ber(
            fast_scenario(), precoders=(parse_precoder("hogmt(0.9)"),),
            snr_db=(3.0,), min_bits=20_000, seed=2, modulations=("qam16",),
        )
        (pt,) = rep.points
        assert pt.precoder == "hogmt"
        assert pt.fraction == pytest.approx(0.9)
        assert pt.modulation == "qam16"
        assert pt.snr_db == 3.0
        assert pt.bits > 0 and 0 <= pt.ber <= 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_ber(
                fast_scenario(), precoders=(), snr_db=(0.0,),
                min_bits=20_000, seed=0,
            )
        with pytest.raises(ValidationError):
            run_ber(
                fast_scenario(), precoders=(parse_precoder("ideal"),),
                snr_db=(), min_bits=20_000, seed=0,
            )
        with pytest.raises(ValidationError):
            run_ber(
                fast_scenario(), precoders=(parse_precoder("ideal"),),
                snr_db=(0.0,), min_bits=20_000, seed=0, modulations=("pam8",),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_min_bits_rejected(self, bad):
        with pytest.raises(ValidationError, match="min_bits"):
            run_ber(
                fast_scenario(), precoders=("ideal",), snr_db=(0.0,),
                min_bits=bad, seed=0,
            )

    @pytest.mark.parametrize("kind", ["none", "zfdpc"])
    def test_none_on_non_square_scenario_rejected(self, monkeypatch, kind):
        # "none" sends the users x time grid from tx_antennas antennas, and
        # "zfdpc" inverts square per-instant matrices; either is rejected
        # before the hogmt link beside it is built
        def no_draw(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(hogmt.channel, "generate_channel", no_draw)
        cfg = ScenarioConfig(users=2, tx_antennas=3, time_symbols=8, max_delay_taps=2)
        with pytest.raises(DimensionMismatchError, match=kind) as exc:
            run_ber(cfg, ["hogmt", kind], [10.0], 10_000, seed=1)
        assert "users=2" in str(exc.value) and "tx_antennas=3" in str(exc.value)

    def test_non_square_scenario_precodes(self):
        # P is (tx_antennas * L_t) x (users * L_t); full inversion is exact
        cfg = fast_scenario(tx_antennas=3)
        rep = run_ber(
            cfg, ["hogmt(1.0)", "zf", "ideal"], [math.inf], MIN_BITS_FLOOR,
            seed=4, modulations=("qpsk",),
        )
        errors = {p.precoder: p.errors for p in rep.points}
        assert errors["hogmt"] == 0 and errors["ideal"] == 0
        assert all(p.bits >= MIN_BITS_FLOOR for p in rep.points)

    def test_non_finite_snr_rejected(self):
        # -4000 dB is finite, but its noise variance 10**400 overflows
        for bad in (math.nan, -math.inf, -4000.0):
            with pytest.raises(ValidationError, match="snr_db"):
                run_ber(
                    fast_scenario(), precoders=(parse_precoder("ideal"),),
                    snr_db=(0.0, bad), min_bits=20_000, seed=0,
                )


def _oracle_ber(cfg, precoders, snr_db, min_bits, seed, modulations, n_channels=2):
    """Per-trial reference for run_ber: explicit solves, SVD and brute force.

    run_ber draws two channels; a test that patches its count passes it here.

    Uses the documented substream keys (purpose 10 channel per channel,
    drawn once for the whole sweep; 11 bits and 12 unit noise per (first
    trial of chunk, modulation), shared by every SNR point, where channel
    c's trials c, c + n_channels, ... are cut into chunks of 2**14 //
    (users * time_symbols) trials) and returns
    {(snr, precoder, fraction, modulation): (bits, errors, tx_energy)}.
    """

    def rng(*key):
        return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))

    l_u, l_t = cfg.users, cfg.time_symbols
    n_sym = l_u * l_t
    chunk = max(1, (1 << 14) // n_sym)
    chans = []
    for c in range(n_channels):
        h = generate_channel(cfg, int(rng(10, c).integers(0, 2**63)))
        flat = flatten_kernel(to_kernel(h))
        u, sig, vh = np.linalg.svd(flat)
        chans.append((h.values.sum(axis=3), flat, u, sig, vh))
    out = {}
    for snr in snr_db:
        sigma2 = 10.0 ** (-snr / 10.0)
        for mi, name in enumerate(modulations):
            sch = get_scheme(name)
            k = sch.bits_per_symbol
            n_trials = max(1, math.ceil(min_bits / (k * n_sym)))
            draws = {}
            for c in range(n_channels):
                trials = list(range(c, n_trials, n_channels))
                for lo in range(0, len(trials), chunk):
                    part = trials[lo : lo + chunk]
                    first = part[0]
                    bits = rng(11, first, mi).integers(
                        0, 2, size=(len(part), k * n_sym), dtype=np.uint8
                    )
                    normals = rng(12, first, mi).standard_normal((2, len(part), l_u, l_t))
                    for j, trial in enumerate(part):
                        noise = (normals[0, j] + 1j * normals[1, j]) / math.sqrt(2.0)
                        draws[trial] = (bits[j], noise)
            for spec in map(parse_precoder, precoders):
                errors, tx = 0, 0.0
                for trial in range(n_trials):
                    bits, noise = draws[trial]
                    labels = bits.reshape(n_sym, k) @ (1 << np.arange(k - 1, -1, -1))
                    s = sch.points[labels]
                    inst, flat, u, sig, vh = chans[trial % n_channels]
                    if spec.kind == "hogmt":
                        keep = int(np.count_nonzero(sig >= 1e-10 * sig[0]))
                        if spec.fraction < 1.0:
                            keep = min(keep, math.ceil(spec.fraction * sig.size))
                        coef = (u[:, :keep].conj().T @ s) / sig[:keep]
                        x = vh[:keep].conj().T @ coef
                    elif spec.kind in ("zf", "zfdpc"):
                        grid = s.reshape(l_u, l_t)
                        x = np.stack(
                            [np.linalg.solve(inst[:, :, t], grid[:, t]) for t in range(l_t)],
                            axis=1,
                        ).ravel()
                    else:
                        x = s
                    r = x if spec.kind == "ideal" else flat @ x
                    r = r + math.sqrt(sigma2) * noise.ravel()
                    got = np.argmin(np.abs(r[:, None] - sch.points[None, :]), axis=1)
                    errors += sum(bin(int(v)).count("1") for v in got ^ labels)
                    tx += float(np.mean(np.abs(x) ** 2))
                out[(snr, spec.kind, spec.fraction, name)] = (
                    n_trials * k * n_sym, errors, tx / n_trials
                )
    return out


# the acceptance criteria 4-6 scenario, 48 modes per channel
CRITERIA_SCENARIO = ScenarioConfig(
    users=4, tx_antennas=4, time_symbols=12, min_delay_taps=4, max_delay_taps=4,
    mode="drift", doppler_max=0.2, doppler_drift=0.01, delay_decay=0.5,
)


class TestSharedLinks:
    """hogmt(f) depends on f only through its retained mode count, so specs
    keeping as many modes share one link per channel."""

    KW = dict(snr_db=(0.0, 10.0, 20.0), min_bits=MIN_BITS_FLOOR, seed=777,
              modulations=("bpsk", "qam16"))

    def test_equal_counts_give_equal_rows(self):
        # ceil(0.99 * 48) = 48: hogmt(0.99) keeps every mode hogmt(1.0) keeps
        specs = ("hogmt(0.99)", "hogmt(1.0)", "hogmt")
        shared = run_ber(CRITERIA_SCENARIO, specs, **self.KW)
        alone = run_ber(CRITERIA_SCENARIO, ("hogmt(1.0)",), **self.KW)

        def rows(points):
            return [(p.snr_db, p.modulation, p.bits, p.errors, p.ber, p.tx_energy)
                    for p in points]

        n_mod = len(self.KW["modulations"])
        per_spec = [rows(p for j, p in enumerate(shared.points) if j // n_mod % 3 == i)
                    for i in range(3)]
        assert per_spec[0] == per_spec[1] == per_spec[2] == rows(alone.points)
        assert any(p.errors > 0 for p in alone.points)

    def test_one_map_per_channel_and_retained_count(self, monkeypatch):
        kept = []

        def counted(decomp, fraction=1.0):
            kept.append(retained_count(decomp.sigmas, fraction))
            return hogmt_map(decomp, fraction)

        monkeypatch.setattr(hogmt.linksim, "hogmt_map", counted)
        # ceil(0.49 * 48) = ceil(0.5 * 48) = 24 and ceil(0.99 * 48) = 48
        run_ber(CRITERIA_SCENARIO, ("hogmt(0.49)", "hogmt(0.99)", "zf", "hogmt(0.5)",
                                    "hogmt(1.0)"), **self.KW)
        assert kept == [24, 48, 24, 48]

    def test_chunk_pass_runs_on_one_blas_thread(self, monkeypatch):
        state, set_to, decomposed_at = {"n": 2}, [], []

        def put(n):
            set_to.append(n)
            state["n"] = n

        def decompose(kernel):
            decomposed_at.append(state["n"])
            return hogmt_decompose(kernel)

        monkeypatch.setattr(hogmt.kernels, "_openblas_threads", lambda: (lambda: state["n"], put))
        monkeypatch.setattr(hogmt.linksim, "hogmt_decompose", decompose)
        run_ber(fast_scenario(), ("hogmt", "zf"), **self.KW)
        assert set_to == [1, 2, 1, 2] and decomposed_at == [2, 2]


class TestRunBerOracle:
    PRECODERS = ("hogmt(0.5)", "hogmt(1.0)", "zf", "zfdpc", "none", "ideal")

    def test_matches_per_trial_oracle(self, monkeypatch):
        cfg = fast_scenario(mode="drift", doppler_max=0.2, doppler_drift=0.01,
                            delay_decay=1.0)
        kw = dict(
            precoders=self.PRECODERS, snr_db=(9.0, math.inf), min_bits=MIN_BITS_FLOOR,
            seed=31, modulations=("qpsk", "qam16"),
        )
        monkeypatch.setattr(hogmt.linksim, "_N_CHANNELS", 3)  # a count other than two
        rep = run_ber(cfg, **kw)
        want = _oracle_ber(cfg, **kw, n_channels=3)
        assert len(rep.points) == len(want)
        for p in rep.points:
            bits, errors, tx = want[(p.snr_db, p.precoder, p.fraction, p.modulation)]
            assert (p.bits, p.errors) == (bits, errors), p
            assert p.tx_energy == pytest.approx(tx, rel=1e-9), p
        inf_full = [p for p in rep.points if p.precoder == "hogmt" and p.fraction == 1.0]
        assert all(p.errors == 0 for p in inf_full if p.snr_db == math.inf)
        assert any(p.errors > 0 for p in rep.points if p.precoder == "zf")

    def test_matches_oracle_across_chunks(self):
        # 2x12 grids give chunks of 16384 // 24 = 682 trials; BPSK at 40k bits
        # over 2 channels runs 834 trials on channel 0, so its second chunk
        # starts at trial 1364, not at the channel index
        cfg = fast_scenario()
        kw = dict(
            precoders=("hogmt(0.5)", "zf", "ideal"), snr_db=(6.0,), min_bits=40_000,
            seed=17, modulations=("bpsk",),
        )
        n_trials = math.ceil(40_000 / (cfg.users * cfg.time_symbols))
        assert len(range(0, n_trials, 2)) > (1 << 14) // (cfg.users * cfg.time_symbols)
        rep = run_ber(cfg, **kw)
        want = _oracle_ber(cfg, **kw)
        assert len(rep.points) == len(want)
        for p in rep.points:
            bits, errors, tx = want[(p.snr_db, p.precoder, p.fraction, p.modulation)]
            assert (p.bits, p.errors) == (bits, errors), p
            assert p.tx_energy == pytest.approx(tx, rel=1e-9), p

    def test_draws_do_not_depend_on_other_precoders(self):
        kw = dict(
            snr_db=(3.0, 9.0), min_bits=MIN_BITS_FLOOR, seed=12,
            modulations=("qpsk", "qam16"),
        )
        alone = run_ber(fast_scenario(), precoders=("ideal",), **kw)
        beside = run_ber(
            fast_scenario(), precoders=("hogmt(0.5)", "ideal", "zf", "zfdpc"), **kw
        )
        assert list(alone.points) == [p for p in beside.points if p.precoder == "ideal"]

    def test_channels_drawn_once_per_sweep(self, monkeypatch):
        calls = {"generate_channel": 0, "hogmt_decompose": 0}

        def counted(module, name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(hogmt.channel, "generate_channel", generate_channel)
        counted(hogmt.linksim, "hogmt_decompose", hogmt_decompose)
        rep = run_ber(
            fast_scenario(), precoders=("hogmt(0.5)", "hogmt(1.0)", "zf"),
            snr_db=(0.0, 5.0, 10.0, 15.0, 20.0), min_bits=MIN_BITS_FLOOR, seed=4,
            modulations=("qpsk", "qam16"),
        )
        assert len(rep.points) == 5 * 3 * 2
        assert calls == {"generate_channel": 2, "hogmt_decompose": 2}

    def test_sweep_prefix_matches_shorter_sweep(self, monkeypatch):
        monkeypatch.setattr(hogmt.linksim, "_N_CHANNELS", 3)
        kw = dict(
            precoders=("hogmt(0.5)", "zf", "ideal"), min_bits=MIN_BITS_FLOOR,
            seed=23, modulations=("bpsk", "qam16"),
        )
        snrs = (0.0, 8.0, 16.0, math.inf)
        full = run_ber(fast_scenario(), snr_db=snrs, **kw)
        for k in (1, 2, 3):
            part = run_ber(fast_scenario(), snr_db=snrs[:k], **kw)
            assert [p for p in full.points if p.snr_db in snrs[:k]] == list(part.points)

    def test_point_does_not_depend_on_other_snr_values(self, monkeypatch):
        monkeypatch.setattr(hogmt.linksim, "_N_CHANNELS", 3)
        kw = dict(
            precoders=("hogmt(0.5)", "zf", "ideal"), min_bits=MIN_BITS_FLOOR,
            seed=23, modulations=("bpsk", "qam16"),
        )
        full = run_ber(fast_scenario(), snr_db=(0.0, 8.0, 16.0, math.inf), **kw)
        for snrs in ((math.inf, 16.0, 0.0, 8.0), (8.0,), (16.0, 0.0)):
            other = run_ber(fast_scenario(), snr_db=snrs, **kw)
            for snr in snrs:
                got = [p for p in other.points if p.snr_db == snr]
                assert got == [p for p in full.points if p.snr_db == snr]

    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
    def test_ideal_errors_nested_across_snr(self, modulation):
        # every SNR point scales the same unit noise, so an axis decision
        # that is right at one SNR stays right at every higher one; steps of
        # 0.05 dB move the counts by less than independent noise would
        snrs = tuple(0.05 * i for i in range(11)) + (math.inf,)
        rep = run_ber(
            fast_scenario(), precoders=("ideal",), snr_db=snrs,
            min_bits=4 * MIN_BITS_FLOOR, seed=5, modulations=(modulation,),
        )
        errors = [p.errors for p in rep.points]
        assert [p.snr_db for p in rep.points] == list(snrs)
        assert errors == sorted(errors, reverse=True)
        assert errors[0] > errors[-2] > 0 and errors[-1] == 0

    def test_degenerate_precoder_raises(self, monkeypatch):
        # a precoder that cannot be built fails the sweep, not a NaN row,
        # also when only channel 1's decomposition is degenerate
        calls = []

        def zero_sigmas_from(first_bad):
            def decompose(kernel):
                d = hogmt_decompose(kernel)
                calls.append(kernel.dims)
                if len(calls) <= first_bad:
                    return d
                return EigenDecomposition(
                    sigmas=np.zeros_like(d.sigmas), psis=d.psis, phis=d.phis,
                    source_dims=d.source_dims,
                )
            return decompose

        for first_bad in (0, 1):
            calls.clear()
            monkeypatch.setattr(hogmt.linksim, "hogmt_decompose", zero_sigmas_from(first_bad))
            with pytest.raises(DegenerateChannelError):
                run_ber(
                    fast_scenario(), precoders=("hogmt(1.0)", "zf", "ideal"),
                    snr_db=(6.0, 12.0), min_bits=MIN_BITS_FLOOR, seed=8,
                    modulations=("qpsk", "bpsk"),
                )
            assert len(calls) == first_bad + 1  # one decomposition per channel

    def test_sweep_holds_one_channel_at_a_time(self):
        # 4x4x128: each channel's kernel, eigenfunctions and precoding matrix
        # are (4 * 128)**2 * 16 bytes each; holding both channels' links at
        # once reaches about 7 kernels, one channel at a time about 5
        sc = ScenarioConfig(
            users=4, tx_antennas=4, time_symbols=128, min_delay_taps=1,
            max_delay_taps=4, mode="drift", doppler_max=0.05, doppler_drift=0.002,
        )
        kernel = (4 * 128) ** 2 * 16
        tracemalloc.start()
        try:
            run_ber(sc, ("hogmt",), (10.0,), MIN_BITS_FLOOR, seed=1, modulations=("qam16",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * kernel, peak / kernel

    @pytest.mark.parametrize("precoder,time_symbols,stage", [
        # the kernel alone would take (4 * 100000)**2 * 16 bytes = 2.3 TiB
        ("hogmt", 100_000, "the kernel's SVD"),
        # no kernel; one trial's 4 * 10**10 bits would take 149 GiB
        ("ideal", 10**10, "one trial's bits"),
    ])
    def test_size_that_cannot_fit_raises_before_any_work(self, precoder, time_symbols, stage):
        # the library call carries the same cap and message as hogmt simulate
        sc = ScenarioConfig(users=4, tx_antennas=4, time_symbols=time_symbols)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as info:
                run_ber(sc, (precoder,), (10.0,), MIN_BITS_FLOOR, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = str(info.value)
        assert message.startswith(f"scenario.time_symbols {time_symbols} needs"), message
        assert f"GiB for {stage}" in message, message
        assert peak < 2**20, peak  # nothing was drawn

    def test_precoding_matrices_are_budgeted_beside_the_kernel(self, monkeypatch):
        # after the SVD a link holds the kernel, its two eigenfunction arrays,
        # one matrix per precoder and one hogmt_map temporary: with 8 matrices
        # that is 12 kernels, more than the SVD's 8.5
        kernel, channel = 24**2 * 16, 2 * 2 * 12 * 2 * 16  # fast_scenario: 2x2x12, 2 taps
        old, new = 8.5 * kernel + channel, 12 * kernel + channel
        monkeypatch.setattr("hogmt.channel._physical_memory", lambda: (old + new) // 2)
        fractions = [f"hogmt({f})" for f in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as info:
                run_ber(fast_scenario(), fractions, (10.0,), MIN_BITS_FLOOR, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = str(info.value)
        assert message.startswith("scenario.time_symbols 12 needs"), message
        assert "the kernel, its eigenfunctions and 8 precoding matrices" in message, message
        assert peak < 2**20, peak  # nothing was drawn
        # four matrices stay within the SVD's budget
        run_ber(fast_scenario(), fractions[:4], (10.0,), MIN_BITS_FLOOR, seed=1)

    def test_trial_budget_counts_the_largest_bit_count(self, monkeypatch):
        # one ideal trial of 256-QAM on fast_scenario's 2 x 12 grid: 112 bytes,
        # 8 bits and 16 received bytes a symbol
        qam256 = hogmt.linksim.ModulationScheme("qam256", 4, 2)
        budget = (112 + 8 + 16) * 2 * 12
        sweep = dict(precoders=("ideal",), snr_db=(10.0,), min_bits=MIN_BITS_FLOOR, seed=1,
                     modulations=("qpsk", qam256))
        monkeypatch.setattr("hogmt.channel._physical_memory", lambda: budget - 1)
        with pytest.raises(ValidationError, match=r"\(112 \+ 8 bits \+ 16 \* precoders\)"):
            run_ber(fast_scenario(), **sweep)
        monkeypatch.setattr("hogmt.channel._physical_memory", lambda: budget)
        assert len(run_ber(fast_scenario(), **sweep).points) == 2
