"""End-to-end tests for the command-line interface and its file formats."""

import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import hogmt
from hogmt import (
    MIN_BITS_FLOOR,
    ImpulseResponse4D,
    PrecoderSpec,
    load_ctf,
    parse_precoder,
    save_ctf,
)
from hogmt.channel import _SEED_STATS_MEMBER, _child_seed
from hogmt.cli import (
    OutConfig,
    RunConfig,
    complexity_estimate,
    config_from_mapping,
    main,
    parse_config,
)
from hogmt.errors import ConfigError, NumericalError

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, mapping, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return path


FAST = {
    "scenario": {
        "users": 2,
        "tx_antennas": 2,
        "time_symbols": 12,
        "min_delay_taps": 2,
        "max_delay_taps": 2,
        "doppler_max": 0.1,
    },
    "sim": {
        "snr_db": [5.0],
        "min_bits": 10000,
        "seed": 99,
        "modulation": "qpsk",
    },
    "stats": {"ensemble": 2},
}


class TestConfigParsing:
    def test_empty_mapping_uses_defaults(self):
        cfg = config_from_mapping({})
        assert cfg.scenario.users == 4
        assert cfg.scenario.time_symbols == 256
        assert cfg.scenario.mode == "wssus"
        assert cfg.sim.precoder == "hogmt"
        assert cfg.sim.modulation == "qam16"
        assert cfg.sim.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.sim.min_bits == 100000
        assert cfg.sim.seed == 12345
        assert cfg.stats.d0 == 0.2 and cfg.stats.window == 8 and cfg.stats.ensemble == 1
        assert cfg.out.dir == "out"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key scenario.bogus"):
            config_from_mapping({"scenario": {"bogus": 1}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            config_from_mapping({"mystery": {}})

    def test_scenario_validation_becomes_config_error(self):
        with pytest.raises(ConfigError, match="doppler_max"):
            config_from_mapping({"scenario": {"doppler_max": 0.7}})

    def test_type_checking(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"scenario": {"users": "four"}})
        with pytest.raises(ConfigError):
            config_from_mapping({"scenario": {"users": True}})
        with pytest.raises(ConfigError):
            config_from_mapping({"sim": {"snr_db": "high"}})

    def test_roundtrip_through_mapping(self):
        cfg = config_from_mapping(FAST)
        again = config_from_mapping(cfg.to_mapping())
        assert again == cfg

    def test_readme_block_is_the_schema(self):
        text = README.read_text(encoding="utf-8")
        after = text[text.index("### Configuration file"):]
        block = yaml.safe_load(after.split("```yaml\n", 1)[1].split("```", 1)[0])
        want = RunConfig().to_mapping()
        assert {s: sorted(keys) for s, keys in block.items()} == {
            s: sorted(keys) for s, keys in want.items()
        }
        assert config_from_mapping(block) == RunConfig()

    def test_integer_values_of_float_keys_stay_floats(self):
        # the effective config and the intervals CSV footer print these keys
        cfg = config_from_mapping({
            "scenario": {"doppler_drift": 0, "delay_decay": 4},
            "sim": {"snr_db": [0, 5]},
            "stats": {"d0": 1, "proto_spread_t": 4, "proto_spread_f": 1},
        })
        values = [cfg.scenario.doppler_drift, cfg.scenario.delay_decay, *cfg.sim.snr_db,
                  cfg.stats.d0, cfg.stats.proto_spread_t, cfg.stats.proto_spread_f]
        assert all(type(v) is float for v in values)
        assert "d0: 1.0" in yaml.safe_dump(cfg.to_mapping())

    def test_delay_decay_key(self):
        cfg = config_from_mapping({"scenario": {"delay_decay": 4}})
        assert cfg.scenario.delay_decay == 4.0
        assert cfg.to_mapping()["scenario"]["delay_decay"] == 4.0

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("scenario", "doppler_drift", math.nan),
            ("scenario", "delay_decay", math.inf),
            ("scenario", "spatial_corr", -math.inf),
            ("sim", "precoder", "hogmt(nan)"),
            ("sim", "snr_db", [5.0, math.nan]),
            ("sim", "snr_db", -math.inf),
            ("stats", "d0", math.inf),
            ("stats", "proto_spread_t", math.inf),
            ("stats", "proto_spread_f", math.nan),
        ],
    )
    def test_non_finite_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            config_from_mapping({section: {key: value}})

    def test_fraction_key_is_unknown(self, tmp_path, capsys):
        # hogmt(f) is the one way to set the retained fraction
        mapping = {**FAST, "sim": {**FAST["sim"], "precoder": "hogmt", "fraction": 0.9}}
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(write_config(tmp_path, mapping)),
             "--out", str(out), "--quiet"]
        )
        assert code == 1
        assert "unknown config key sim.fraction" in capsys.readouterr().err
        assert not out.exists()

    def test_noiseless_snr_kept(self):
        cfg = config_from_mapping({"sim": {"snr_db": [10.0, math.inf]}})
        assert cfg.sim.snr_db == (10.0, math.inf)
        assert config_from_mapping(yaml.safe_load(yaml.safe_dump(cfg.to_mapping()))) == cfg

    def test_unknown_non_string_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key scenario.1"):
            config_from_mapping({"scenario": {1: 2, "x": 3}})

    def test_parse_config_file(self, tmp_path):
        path = write_config(tmp_path, FAST)
        cfg = parse_config(path)
        assert cfg.scenario.users == 2
        assert cfg.sim.snr_db == (5.0,)

    def test_bad_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: [unbalanced")
        with pytest.raises(ConfigError):
            parse_config(path)


@st.composite
def valid_mappings(draw):
    """A valid config: the whole scenario section and any subset of the rest."""
    t = draw(st.integers(1, 64))
    lo = draw(st.integers(1, t))
    scenario = {
        "users": draw(st.integers(1, 4)),
        "tx_antennas": draw(st.integers(1, 4)),
        "time_symbols": t,
        "min_delay_taps": lo,
        "max_delay_taps": draw(st.integers(lo, t)),
        "mode": draw(st.sampled_from(["wssus", "block", "drift"])),
        "block_len": draw(st.integers(1, 100)),
        # keeps the drift peak doppler_max * (1 + drift * 63) below 1/2
        "doppler_max": draw(st.floats(0.0, 0.4)),
        "doppler_drift": draw(st.floats(0.0, 1e-3)),
        "spatial_corr": draw(st.floats(0.0, 0.99)),
        "delay_decay": draw(st.floats(0.0, 10.0)),
    }
    rest = {
        "sim": {
            "precoder": draw(
                st.sampled_from(["hogmt", "hogmt(0.5)", "zf", "zfdpc", "none", "ideal"])
            ),
            "modulation": draw(st.sampled_from(["bpsk", "qpsk", "qam16", "qam64"])),
            "snr_db": draw(
                st.lists(st.floats(-50.0, 50.0) | st.just(math.inf), min_size=1, max_size=4)
            ),
            "min_bits": draw(st.integers(MIN_BITS_FLOOR, 10**9)),
            "seed": draw(st.integers(0, 2**64 - 1)),
        },
        "stats": {
            "d0": draw(st.floats(1e-6, 1.0)),
            # only the stats subcommand needs stats.window <= scenario.time_symbols
            "window": draw(st.integers(2, 300)),
            "ensemble": draw(st.integers(1, 8)),
            "proto_spread_t": draw(st.floats(1e-3, 100.0)),
            "proto_spread_f": draw(st.floats(1e-3, 100.0)),
        },
        "out": {
            "dir": draw(
                st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
            )
        },
    }
    mapping = {"scenario": scenario}
    for section, values in rest.items():
        keep = draw(st.sets(st.sampled_from(sorted(values))))
        mapping[section] = {k: values[k] for k in keep}
    return mapping


def bad_values(default):
    """Values of the wrong type for a key whose default is ``default``."""
    not_number = (
        st.text(max_size=5) | st.booleans() | st.none() | st.lists(st.integers(), max_size=2)
    )
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    if isinstance(default, list):  # sim.snr_db keeps +inf, the noiseless point
        element = (
            st.text(max_size=5) | st.booleans() | st.none()
            | st.sampled_from([math.nan, -math.inf])
        )
        return (
            st.just([])
            | element
            | st.lists(element, min_size=1, max_size=3).map(lambda v: [1.0, *v])
        )
    if isinstance(default, str):
        return st.integers() | st.floats() | st.booleans() | st.none()
    if isinstance(default, int):
        return not_number | st.floats()
    return not_number | non_finite


class TestConfigProperties:
    @settings(max_examples=60, deadline=None)
    @given(valid_mappings())
    def test_valid_config_roundtrips(self, mapping):
        cfg = config_from_mapping(mapping)
        assert config_from_mapping(cfg.to_mapping()) == cfg
        assert config_from_mapping(yaml.safe_load(yaml.safe_dump(cfg.to_mapping()))) == cfg

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bad_value_names_its_key_and_exits_1(self, data):
        defaults = RunConfig().to_mapping()
        section = data.draw(st.sampled_from(sorted(defaults)))
        key = data.draw(st.sampled_from(sorted(defaults[section])))
        mapping = {section: {key: data.draw(bad_values(defaults[section][key]))}}
        name = f"{section}.{key}"
        with pytest.raises(ConfigError, match=re.escape(name)):
            config_from_mapping(mapping)
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "run.yaml"
            cfg_path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(
                    ["generate", "--config", str(cfg_path), "--out", str(out), "--quiet"]
                )
            assert code == 1
            assert name in err.getvalue() and "Traceback" not in err.getvalue()
            assert not out.exists()


TINY = 5e-324  # the smallest positive float

# section.key -> (values just outside its interval, values on its bounds), the
# other keys at their defaults; the README config block states each interval
RANGES = {
    "scenario.users": ([0], [1]),
    "scenario.tx_antennas": ([0], [1]),
    # at least the default max_delay_taps 4; 3 is reported as scenario.max_delay_taps
    "scenario.time_symbols": ([0], [4]),
    "scenario.min_delay_taps": ([0], [1]),
    "scenario.max_delay_taps": ([0, 257], [1, 256]),
    "scenario.block_len": ([0], [1]),
    "scenario.doppler_max": ([-TINY, 0.5], [0.0, math.nextafter(0.5, 0.0)]),
    "scenario.doppler_drift": ([-TINY], [0.0]),
    "scenario.spatial_corr": ([-TINY, 1.0], [0.0, math.nextafter(1.0, 0.0)]),
    "scenario.delay_decay": ([-TINY], [0.0]),
    "sim.min_bits": ([MIN_BITS_FLOOR - 1], [MIN_BITS_FLOOR]),
    "sim.seed": ([-1, 2**64], [0, 2**64 - 1]),
    "stats.d0": ([0.0, math.nextafter(1.0, 2.0)], [TINY, 1.0]),
    "stats.window": ([1], [2]),  # the stats subcommand checks <= time_symbols
    "stats.ensemble": ([0], [1]),
    "stats.proto_spread_t": ([0.0], [TINY]),
    "stats.proto_spread_f": ([0.0], [TINY]),
}


class TestConfigRanges:
    def test_readme_states_every_range(self):
        text = README.read_text(encoding="utf-8")
        block = text[text.index("### Configuration file"):].split("```yaml\n", 1)[1]
        ranged, section = set(), None
        for line in block.split("```", 1)[0].splitlines():
            if not line.startswith(" "):
                section = line.rstrip(":")
            elif re.search(r"#.*\bin [\[(]", line):
                ranged.add(f"{section}.{line.split(':')[0].strip()}")
        assert ranged == set(RANGES)

    @pytest.mark.parametrize("key", sorted(RANGES))
    def test_just_outside_exits_1_and_bound_parses(self, tmp_path, capsys, key):
        section, name = key.split(".")
        outside, bounds = RANGES[key]
        for i, value in enumerate(outside):
            with pytest.raises(ConfigError, match=re.escape(key)):
                config_from_mapping({section: {name: value}})
            path = write_config(tmp_path, {section: {name: value}}, f"bad{i}.yaml")
            out = tmp_path / f"out{i}"
            code = main(["generate", "--config", str(path), "--out", str(out), "--quiet"])
            err = capsys.readouterr().err
            assert code == 1 and key in err and "Traceback" not in err
            assert not out.exists()
        for value in bounds:
            cfg = config_from_mapping(yaml.safe_load(yaml.safe_dump({section: {name: value}})))
            got = getattr(getattr(cfg, section), name)
            assert got == value and type(got) is type(value)

    # the retained fraction f of hogmt(f) lies in (0, 1], as the README states
    @pytest.mark.parametrize("fraction", [0.0, math.nextafter(1.0, 2.0)])
    def test_hogmt_fraction_just_outside_exits_1(self, tmp_path, capsys, fraction):
        precoder = f"hogmt({fraction!r})"
        with pytest.raises(ConfigError, match=re.escape("sim.precoder")):
            config_from_mapping({"sim": {"precoder": precoder}})
        path = write_config(tmp_path, {"sim": {"precoder": precoder}})
        out = tmp_path / "out"
        code = main(["generate", "--config", str(path), "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1 and "sim.precoder" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fraction", [TINY, 1.0])
    def test_hogmt_fraction_bound_parses(self, fraction):
        mapping = {"sim": {"precoder": f"hogmt({fraction!r})"}}
        cfg = config_from_mapping(yaml.safe_load(yaml.safe_dump(mapping)))
        assert parse_precoder(cfg.sim.precoder) == PrecoderSpec("hogmt", fraction)


class TestComplexity:
    def test_degenerate_size_values(self):
        est = complexity_estimate(1, 1, 1)
        assert est["hogmt_flatten"] == 1.0
        assert est["hogmt_hosvd"] == 2.0
        assert est["dpc"] == 2.0

    def test_flatten_term_cubic_in_time(self):
        a = complexity_estimate(2, 2, 64)
        b = complexity_estimate(2, 2, 128)
        assert b["hogmt_flatten"] / a["hogmt_flatten"] == pytest.approx(8.0)

    def test_flatten_reference_value(self):
        # 2 * 2^2 * 64^3
        assert complexity_estimate(2, 2, 64)["hogmt_flatten"] == 2097152.0

    def test_dpc_blows_up_at_scale(self):
        est = complexity_estimate(10, 10, 2000)
        assert est["dpc"] / est["hogmt_flatten"] > 1e3

    def test_warns_when_users_fewer_than_antennas(self):
        with pytest.warns(UserWarning):
            complexity_estimate(2, 4, 16)

    @pytest.mark.parametrize(
        "dims,past_range",
        [
            ((171, 171, 256), {"dpc"}),  # 171! overflows a float
            ((10**6, 10**6, 2), {"dpc"}),
            ((4, 4, 10**70), {"hogmt_hosvd"}),  # its fifth power overflows
            ((4, 4, 10**400), {"hogmt_flatten", "hogmt_hosvd", "dpc"}),  # L_t itself
        ],
    )
    def test_counts_past_float_range_read_inf(self, dims, past_range):
        rows = complexity_estimate(*dims)
        assert {name for name, v in rows.items() if v == math.inf} == past_range
        assert all(v > 0 and not math.isnan(v) for v in rows.values())

    def test_no_exact_factorial_past_the_float_range(self, monkeypatch):
        # 171! is past the float range; the exact factorial of 10**6 takes
        # seconds, and its time and memory grow faster than the antenna count
        factorial = math.factorial

        def small_only(n):
            assert n <= 170, f"factorial({n}) computed"
            return factorial(n)

        monkeypatch.setattr(math, "factorial", small_only)
        assert complexity_estimate(10**6, 10**6, 2)["dpc"] == math.inf

    @pytest.mark.parametrize("antennas", [2, 10, 100, 163])
    def test_dpc_matches_the_exact_integer_count(self, antennas):
        # with users = antennas = n, L_t ((n n)^3.5 + n n^2) n! is the integer
        # L_t (n^7 + n^3) n!; at n = 163 it is just inside the float range
        exact = 3 * (antennas**7 + antennas**3) * math.factorial(antennas)
        est = complexity_estimate(antennas, antennas, 3)
        assert est["dpc"] == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("antennas", [164, 170])
    def test_dpc_past_the_float_range_before_171_reads_inf(self, antennas):
        # n! itself is still a float here; the product with the other factors is not
        assert (antennas**7 + antennas**3) * math.factorial(antennas) > sys.float_info.max
        assert complexity_estimate(antennas, antennas, 1)["dpc"] == math.inf


def run_cli(*argv):
    return main(list(argv))


class TestCliPipeline:
    def test_full_pipeline(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        for sub in ("generate", "decompose", "precode", "simulate", "stats"):
            code = run_cli(sub, "--config", str(cfg_path), "--out", str(out), "--quiet")
            assert code == 0, f"{sub} exited {code}"

        names = {p.name for p in out.iterdir()}
        expected = {
            "channel.ctf", "eigen.csv", "precoded.npy", "energy.csv",
            "ber.csv", "stats_scattering.csv", "stats_path_gain.csv",
            "stats_summary.csv", "cmd_tx.csv", "cmd_rx.csv",
            "intervals_tx.csv", "intervals_rx.csv",
            "effective_config.yaml", "manifest.yaml",
        }
        assert expected <= names, f"missing {expected - names}"

        h = load_ctf(out / "channel.ctf")
        assert h.dims == (2, 2, 12, 2)

        ber_lines = (out / "ber.csv").read_text().splitlines()
        assert ber_lines[0] == "snr_db,precoder,modulation,fraction,bits,errors,ber,tx_energy"
        assert len(ber_lines) == 2

        x = np.load(out / "precoded.npy")
        assert x.shape == (2, 12)
        assert x.dtype == np.complex128

    def test_eigen_csv_energy_footer(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        assert run_cli("decompose", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        lines = (out / "eigen.csv").read_text().splitlines()
        assert lines[0] == "n,sigma,cumulative_fraction"
        footer = lines[-1]
        assert footer.startswith("# sum_sigma_sq=")
        parts = dict(
            item.split("=") for item in footer.lstrip("# ").split(" ")
        )
        assert float(parts["sum_sigma_sq"]) == pytest.approx(
            float(parts["kernel_frob_sq"]), rel=1e-10
        )
        sigmas = [float(r.split(",")[1]) for r in lines[1:-1]]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_energy_csv_derives_its_curves_and_totals(self, tmp_path):
        # the writer adds the cumulative columns and the footer totals to
        # energy_report's per-mode columns
        cfg = {**FAST, "sim": {**FAST["sim"], "precoder": "hogmt(0.5)"}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        for sub in ("generate", "precode"):
            assert run_cli(sub, "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        lines = (out / "energy.csv").read_text().splitlines()
        assert lines[0] == "n,gain,cost_energy,cancelled_energy,cum_gain,cum_cost,cum_cancelled"
        table = np.array([[float(v) for v in row.split(",")] for row in lines[1:-1]])
        np.testing.assert_array_equal(table[:, 0], np.arange(12))  # half of 24 modes
        for col in (1, 2, 3):
            values = table[:, col]
            np.testing.assert_array_equal(table[:, col + 3], np.cumsum(values) / values.sum())
        parts = dict(item.split("=") for item in lines[-1].lstrip("# ").split(" "))
        assert float(parts["total_tx_energy"]) == pytest.approx(table[:, 2].sum(), rel=1e-12)
        x = np.load(out / "precoded.npy")
        assert float(parts["total_tx_energy"]) == pytest.approx(
            np.sum(np.abs(x) ** 2), rel=1e-12
        )
        # the retained and the dropped projections carry the 24 unit-energy
        # QPSK symbols between them
        assert table[:, 3].sum() + float(parts["dropped_energy"]) == pytest.approx(
            24.0, rel=1e-12
        )

    def test_intervals_footer_names_the_configured_window(self, tmp_path):
        cfg = {**FAST, "stats": {"ensemble": 1, "window": 5, "d0": 0.3}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run_cli("stats", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        for side in ("tx", "rx"):
            lines = (out / f"intervals_{side}.csv").read_text().splitlines()
            assert lines[0] == "start,interval_symbols"
            assert lines[-1] == "# d0=0.3 window=5"
            assert len(lines) == 2 + 12 - 5 + 1  # one row per window start
            cmd_rows = (out / f"cmd_{side}.csv").read_text().splitlines()[1:]
            assert len(cmd_rows) == (12 - 5 + 1) ** 2

    def test_csv_cells_round_trip_the_library_values(self, tmp_path):
        # every float is written as its shortest round trip, so float(cell)
        # gives back the library's value exactly
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        for sub in ("generate", "decompose", "stats"):
            assert run_cli(sub, "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        cfg = parse_config(cfg_path)

        def table(name):
            lines = (out / name).read_text().splitlines()
            return [row.split(",") for row in lines[1:] if not row.startswith("#")]

        decomp = hogmt.hogmt_decompose(
            hogmt.to_kernel(hogmt.generate_channel(cfg.scenario, cfg.sim.seed))
        )
        assert [float(r[1]) for r in table("eigen.csv")] == decomp.sigmas.tolist()

        seeds = [_child_seed(cfg.sim.seed, _SEED_STATS_MEMBER, m)
                 for m in range(cfg.stats.ensemble)]
        members = [hogmt.generate_channel(cfg.scenario, seed) for seed in seeds]
        dist = hogmt.cmd(members[0], "tx", cfg.stats.window)
        rows = table("cmd_tx.csv")
        assert len(rows) == dist.size
        for start, shift, value in rows:
            i, j = int(start), int(start) + int(shift)
            assert float(value) == dist[i, j], (i, j)

        proto = hogmt.GaussianPrototype(cfg.stats.proto_spread_t, cfg.stats.proto_spread_f)
        report = hogmt.stats_from_decomp(None, ensemble=[
            hogmt.decompose_atomic(hogmt.atomic_kernel(hogmt.tf_transfer(h, 0, 0), proto))
            for h in members
        ])
        rows = table("stats_scattering.csv")
        assert len(rows) == report.scattering.size
        for tau, nu, value in rows:
            assert float(value) == report.scattering[int(tau), int(nu)], (tau, nu)

    def test_effective_config_reparses_identically(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        eff = parse_config(out / "effective_config.yaml")
        # replaying the effective config must describe the same run, with the
        # command-line out-dir override baked in
        want = dataclasses.replace(parse_config(cfg_path), out=OutConfig(str(out)))
        assert eff == want

    def test_manifest_records_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["subcommand"] == "generate"
        assert "channel.ctf" in manifest["outputs"]
        assert manifest["seed"] == 99

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
            assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        for name in ("channel.ctf", "ber.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # configs agree apart from the differing output directory itself
        ca = dataclasses.replace(parse_config(out_a / "effective_config.yaml"), out=OutConfig())
        cb = dataclasses.replace(parse_config(out_b / "effective_config.yaml"), out=OutConfig())
        assert ca == cb

    def test_seed_override_changes_channel(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out_a), "--quiet") == 0
        assert run_cli(
            "generate", "--config", str(cfg_path), "--out", str(out_b),
            "--seed", "12346", "--quiet",
        ) == 0
        a = (out_a / "channel.ctf").read_bytes()
        b = (out_b / "channel.ctf").read_bytes()
        assert a != b

    def test_decompose_accepts_positional_input(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        moved = tmp_path / "elsewhere.ctf"
        moved.write_bytes((out / "channel.ctf").read_bytes())
        code = run_cli(
            "decompose", "--config", str(cfg_path), "--out", str(out),
            "--quiet", str(moved),
        )
        assert code == 0
        assert (out / "eigen.csv").exists()

    def test_complexity_subcommand(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST)
        fresh = tmp_path / "fresh"
        code = run_cli("complexity", "--config", str(cfg_path), "--out", str(fresh), "--quiet")
        assert code == 0
        shown = capsys.readouterr().out
        assert "hogmt_flatten" in shown and "dpc" in shown
        assert not fresh.exists()
        # it writes nothing, so an earlier run's records stay in place
        out = tmp_path / "o"
        for sub in ("generate", "simulate"):
            assert run_cli(sub, "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        records = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("complexity", "--config", str(cfg_path), "--out", str(out)) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == records
        assert yaml.safe_load(records["manifest.yaml"])["subcommand"] == "simulate"


# outputs of each file-writing subcommand, in the order it reports them
OUTPUT_ORDER = {
    "generate": ["channel.ctf"],
    "decompose": ["eigen.csv"],
    "precode": ["precoded.npy", "energy.csv"],
    "simulate": ["ber.csv"],
    "stats": [
        "stats_scattering.csv", "stats_path_gain.csv", "stats_summary.csv",
        "cmd_tx.csv", "intervals_tx.csv", "cmd_rx.csv", "intervals_rx.csv",
    ],
}


class TestCliContract:
    def test_stdout_names_each_manifest_output(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        for sub, names in OUTPUT_ORDER.items():
            assert run_cli(sub, "--config", str(cfg_path), "--out", str(out)) == 0
            lines = capsys.readouterr().out.splitlines()
            manifest = yaml.safe_load((out / "manifest.yaml").read_text())
            assert manifest["subcommand"] == sub
            assert sorted(names) == manifest["outputs"]
            assert lines == [f"wrote {out / name}" for name in names]
            assert run_cli(sub, "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
            assert capsys.readouterr().out == ""

    def test_help_lists_subcommands_and_keys(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        shown = capsys.readouterr().out
        for sub in (*OUTPUT_ORDER, "complexity"):
            assert re.search(rf"\b{sub}\b", shown), sub
        for section, values in RunConfig().to_mapping().items():
            for key in values:
                assert f"  {section}.{key} (" in shown, f"{section}.{key}"


class TestWindowRule:
    """stats.window <= scenario.time_symbols binds the stats subcommand only."""

    def test_short_block_runs_everything_but_stats(self, tmp_path, capsys):
        mapping = {**FAST, "scenario": {**FAST["scenario"], "time_symbols": 4}}
        cfg_path = write_config(tmp_path, mapping)
        out = tmp_path / "o"
        for sub in ("generate", "decompose", "precode", "simulate"):
            code = run_cli(sub, "--config", str(cfg_path), "--out", str(out), "--quiet")
            assert code == 0, f"{sub} exited {code}"
        assert load_ctf(out / "channel.ctf").dims == (2, 2, 4, 2)
        capsys.readouterr()
        for target in (out, tmp_path / "fresh"):
            existed = target.exists()
            assert run_cli("stats", "--config", str(cfg_path), "--out", str(target)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: stats.window")
            assert target.exists() == existed
        assert not any(out.glob("stats_*.csv"))
        assert yaml.safe_load((out / "manifest.yaml").read_text())["subcommand"] == "simulate"


def test_stats_size_that_cannot_fit_exits_1_before_any_work(tmp_path, capsys):
    # the atomic kernel alone would take (200000 * 4)**2 * 16 bytes = 9.31 TiB
    scenario = {"users": 1, "tx_antennas": 1, "time_symbols": 200_000,
                "min_delay_taps": 4, "max_delay_taps": 4, "mode": "wssus"}
    cfg_path = write_config(tmp_path, {"scenario": scenario})
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = run_cli("stats", "--config", str(cfg_path), "--out", str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: scenario.time_symbols 200000 needs")
    assert not out.exists()
    assert peak < 2**20, peak  # no channel was drawn


@pytest.mark.parametrize("time_symbols,taps,memory,code", [
    (256, 4, 64 * 2**20, 1),  # the 16 MiB kernel fits in 64 MiB, its SVD does not
    (8, 2, 9 * 16**2 * 16 - 1, 1),
    (8, 2, 9 * 16**2 * 16, 0),  # exactly nine 4 KiB kernels
])
def test_stats_memory_check_counts_the_svd(
    tmp_path, capsys, monkeypatch, time_symbols, taps, memory, code
):
    # a small physical memory is reported, so the rejected runs allocate nothing
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.get)
    scenario = {"users": 1, "tx_antennas": 1, "time_symbols": time_symbols,
                "min_delay_taps": taps, "max_delay_taps": taps, "mode": "wssus"}
    cfg_path = write_config(tmp_path, {"scenario": scenario})
    out = tmp_path / "o"
    assert run_cli("stats", "--config", str(cfg_path), "--out", str(out), "--quiet") == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"error: scenario.time_symbols {time_symbols} needs")
    assert out.exists() == (code == 0)


def test_stats_peaks_below_its_largest_budgeted_stage(tmp_path):
    # 9 atomic kernels of 256**2 * 16 bytes is the largest stage the check
    # counts; each cmd_*.csv, 249**2 rows, is written as its rows are formatted
    scenario = {"users": 1, "tx_antennas": 1, "time_symbols": 256,
                "min_delay_taps": 1, "max_delay_taps": 1, "mode": "wssus"}
    cfg_path = write_config(tmp_path, {"scenario": scenario})
    tracemalloc.start()
    try:
        code = run_cli("stats", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                       "--quiet")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 9 * 256**2 * 16, peak


def test_simulate_size_that_cannot_fit_exits_1_before_any_work(tmp_path, capsys):
    # the channel kernel alone would take (4 * 100000)**2 * 16 bytes = 2.3 TiB
    scenario = dict(FAST["scenario"], users=4, tx_antennas=4, time_symbols=100_000)
    cfg_path = write_config(tmp_path, {"scenario": scenario, "sim": FAST["sim"]})
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = run_cli("simulate", "--config", str(cfg_path), "--out", str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: scenario.time_symbols 100000 needs")
    assert not out.exists()
    assert peak < 2**20, peak  # no channel was drawn


# FAST's 2x2x12 channel with 2 taps: 8.5 kernels of (2 * 12)**2 * 16 bytes for
# the kernel's SVD, and the 2 * 2 * 12 * 2 * 16 bytes of the channel
FAST_CHANNEL_BUDGET = 8.5 * 24**2 * 16 + 2 * 2 * 12 * 2 * 16
# one trial of one precoder on FAST's 2 x 12 QPSK grid: 112 + 2 bits + 16 bytes a symbol
FAST_TRIAL_BUDGET = (112 + 2 + 16) * 2 * 12


@pytest.mark.parametrize("precoder,memory,code", [
    ("hogmt", FAST_CHANNEL_BUDGET - 1, 1),
    ("zf", FAST_CHANNEL_BUDGET - 1, 1),
    ("hogmt", FAST_CHANNEL_BUDGET, 0),
    # the ideal link builds no kernel; its trials are budgeted all the same
    ("ideal", FAST_TRIAL_BUDGET - 1, 1),
    ("ideal", FAST_TRIAL_BUDGET, 0),
])
def test_simulate_memory_check_counts_one_channel(
    tmp_path, capsys, monkeypatch, precoder, memory, code
):
    # a small physical memory is reported, so the rejected runs allocate nothing
    monkeypatch.setattr("hogmt.channel._physical_memory", lambda: memory)
    sim = dict(FAST["sim"], precoder=precoder)
    cfg_path = write_config(tmp_path, {"scenario": FAST["scenario"], "sim": sim})
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out), "--quiet") == code
    if code:
        assert capsys.readouterr().err.startswith("error: scenario.time_symbols 12 needs")
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("sub", ["decompose", "precode"])
@pytest.mark.parametrize("memory,code", [(FAST_CHANNEL_BUDGET - 1, 1), (FAST_CHANNEL_BUDGET, 0)])
def test_stored_channel_memory_check(tmp_path, capsys, monkeypatch, sub, memory, code):
    cfg_path = write_config(tmp_path, FAST)
    ctf = tmp_path / "channel.ctf"
    assert run_cli("generate", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet") == 0
    monkeypatch.setattr("hogmt.channel._physical_memory", lambda: memory)
    out = tmp_path / "o"
    assert run_cli(sub, "--config", str(cfg_path), "--out", str(out), "--quiet", str(ctf)) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith(f"error: input CTF {ctf} time symbols 12 needs"), err
    assert out.exists() == (code == 0)


def test_stored_channel_larger_than_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a payload that cannot be read into memory is a file problem, found
    # before the read
    cfg_path = write_config(tmp_path, FAST)
    assert run_cli("generate", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet") == 0
    monkeypatch.setattr("hogmt.channel._physical_memory", lambda: 1535)
    ctf = str(tmp_path / "channel.ctf")
    assert run_cli("decompose", "--config", str(cfg_path), "--out", str(tmp_path / "o"), ctf) == 2
    err = capsys.readouterr().err
    assert "exceeds the 1535 bytes of physical memory (at byte offset 28)" in err, err
    assert not (tmp_path / "o").exists()


# FAST's 2x2x12 draw with 2 taps: four channels of 16 bytes an entry, 256
# bytes per (user, antenna, tap, block) and 640 per (antenna, tap, symbol)
FAST_DRAW_BUDGET = 64 * 2 * 2 * 12 * 2 + 256 * 2 * 2 * 2 + 640 * 2 * 2 * 12
FAST_DRAW = "error: scenario (users, tx_antennas, time_symbols, max_delay_taps) = (2, 2, 12, 2)"


@pytest.mark.parametrize("mode,memory,code,message", [
    ("wssus", FAST_DRAW_BUDGET - 1, 1, FAST_DRAW + " needs"),
    ("wssus", FAST_DRAW_BUDGET, 0, ""),
    # with block_len 1 each of the 12 symbols is a block of its own draws
    ("block", FAST_DRAW_BUDGET + 256 * 2 * 2 * 2 * 11 - 1, 1,
     "error: scenario (users, tx_antennas, time_symbols, max_delay_taps, block_len) "
     "= (2, 2, 12, 2, 1) needs"),
    ("block", FAST_DRAW_BUDGET + 256 * 2 * 2 * 2 * 11, 0, ""),
])
def test_generate_memory_check_counts_the_draw(
    tmp_path, capsys, monkeypatch, mode, memory, code, message
):
    # a small physical memory is reported, so the rejected runs allocate nothing
    monkeypatch.setattr("hogmt.channel._physical_memory", lambda: memory)
    scenario = dict(FAST["scenario"], mode=mode, block_len=1)
    cfg_path = write_config(tmp_path, {"scenario": scenario})
    out = tmp_path / "o"
    assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == code
    assert capsys.readouterr().err.startswith(message)
    assert out.exists() == (code == 0)


# (scenario, bytes of the largest of stats' three stages, how its error starts)
STATS_LARGEST_STAGE = [
    # the draw: 64 * 8 * 8 * 16 + 256 * 8 * 8 + 640 * 8 * 16 bytes, beside
    # 9 * 16**2 * 16 for the atomic kernel and 3 * 16 * 8**2 * 16 for cmd
    ({"users": 8, "tx_antennas": 8}, 64 * 8 * 8 * 16 + 256 * 8 * 8 + 640 * 8 * 16,
     "error: scenario (users, tx_antennas, time_symbols, max_delay_taps) = (8, 8, 16, 1) needs"),
    # cmd: 3 * 16 * 64**2 * 16 bytes, beside 737,280 for the draw
    ({"users": 1, "tx_antennas": 64}, 3 * 16 * 64**2 * 16,
     "error: scenario (users, tx_antennas, time_symbols) = (1, 64, 16) needs"),
    # the atomic kernel: 9 * 16**2 * 16 bytes, beside 11,520 for the draw and 768 for cmd
    ({"users": 1, "tx_antennas": 1}, 9 * 16**2 * 16, "error: scenario.time_symbols 16 needs"),
]


@pytest.mark.parametrize("scenario,budget,message", STATS_LARGEST_STAGE,
                         ids=["draw", "cmd", "atomic_kernel"])
@pytest.mark.parametrize("short", [1, 0])
def test_stats_memory_check_counts_its_largest_stage(
    tmp_path, capsys, monkeypatch, scenario, budget, message, short
):
    monkeypatch.setattr("hogmt.channel._physical_memory", lambda: budget - short)
    scenario = dict(scenario, time_symbols=16, min_delay_taps=1, max_delay_taps=1)
    cfg_path = write_config(tmp_path, {"scenario": scenario})
    out = tmp_path / "o"
    code = run_cli("stats", "--config", str(cfg_path), "--out", str(out), "--quiet")
    assert code == short
    assert capsys.readouterr().err.startswith(message if short else "")
    assert out.exists() == (not short)


def _unfittable_runs(tmp_path):
    """(subcommand, config, input CTF or None) of runs whose first allocation,
    unchecked, would fail outright: every one needs TiBs."""
    wide = {"scenario": {"users": 100_000, "tx_antennas": 100_000}}
    long = {"scenario": {"users": 4, "tx_antennas": 4, "time_symbols": 100_000}}
    ideal = {"scenario": {"time_symbols": 10**10}, "sim": {"precoder": "ideal"}}
    # a stored 1x1x500000 channel, 8 MB, whose kernel would take 3.6 TiB
    ctf = tmp_path / "long.ctf"
    save_ctf(ImpulseResponse4D(np.ones((1, 1, 500_000, 1), dtype=complex)), ctf)
    return [
        ("generate", wide, None),
        ("generate", {"scenario": {"users": 10**400}}, None),  # past the float range
        ("decompose", {}, ctf),
        ("precode", {}, ctf),
        ("simulate", long, None),
        ("simulate", ideal, None),
        ("stats", wide, None),
    ]


def test_every_file_writing_subcommand_rejects_an_unfittable_size(tmp_path):
    # each in a process of its own, as a user runs it: one error line, no traceback
    env = dict(os.environ)
    src = str(Path(hogmt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for i, (sub, mapping, ctf) in enumerate(_unfittable_runs(tmp_path)):
        cfg_path = write_config(tmp_path, mapping, name=f"run{i}.yaml")
        out = tmp_path / f"o{i}"
        argv = [sys.executable, "-m", "hogmt.cli", sub, "--config", str(cfg_path),
                "--out", str(out), *([str(ctf)] if ctf else [])]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1, (sub, proc.stderr)
        assert len(lines) == 1 and lines[0].startswith("error: "), (sub, proc.stderr)
        assert "Traceback" not in proc.stderr and " needs " in lines[0], (sub, lines)
        assert not out.exists()


class TestCliExitCodes:
    def test_config_error_is_1(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {"bogus_key": 1}})
        assert run_cli("generate", "--config", str(path), "--quiet") == 1

    def test_validation_error_is_1(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {"doppler_max": 0.7}})
        assert run_cli("generate", "--config", str(path), "--quiet") == 1

    def test_non_utf8_config_is_1(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_bytes(b"scenario: {users: \xff}\n")
        assert run_cli("generate", "--config", str(path), "--quiet") == 1
        assert "not valid YAML" in capsys.readouterr().err

    def test_missing_config_is_2(self, tmp_path):
        assert run_cli("generate", "--config", str(tmp_path / "nope.yaml")) == 2

    def test_missing_ctf_is_2(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("decompose", "--config", str(cfg_path), "--out", str(out), "--quiet") == 2

    def test_truncated_ctf_is_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0
        ctf = out / "channel.ctf"
        ctf.write_bytes(ctf.read_bytes()[:-16])
        assert run_cli("decompose", "--config", str(cfg_path), "--out", str(out), "--quiet") == 2
        assert "byte offset 28" in capsys.readouterr().err

    def test_numerical_error_is_3(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0

        def broken(kernel):
            raise NumericalError("SVD did not converge")

        monkeypatch.setattr("hogmt.cli.hogmt_decompose", broken)
        assert run_cli("decompose", "--config", str(cfg_path), "--out", str(out), "--quiet") == 3
        assert "SVD did not converge" in capsys.readouterr().err

    def test_svd_that_does_not_converge_is_3(self, tmp_path, monkeypatch, capsys):
        # LAPACK's failure reaches the exit code through the kernels layer
        cfg_path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(out), "--quiet") == 0

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", broken)
        assert run_cli("decompose", "--config", str(cfg_path), "--out", str(out), "--quiet") == 3
        err = capsys.readouterr().err
        assert "SVD failed to converge on a (24, 24) matrix: SVD did not converge" in err, err

    @pytest.mark.parametrize(
        "mapping", [{"scenario": {"doppler_drift": math.nan}}, {"sim": {"snr_db": [math.nan]}}]
    )
    def test_non_finite_config_is_1(self, tmp_path, mapping):
        path = write_config(tmp_path, mapping)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(path), "--out", str(out), "--quiet") == 1
        assert not out.exists()

    def test_overflowing_snr_is_1(self, tmp_path, capsys):
        # -4000 dB is finite, but its noise variance 10**400 is not
        path = write_config(tmp_path, {**FAST, "sim": {**FAST["sim"], "snr_db": [-4000.0]}})
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(path), "--out", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sim.snr_db") and "Traceback" not in err
        assert not (out / "ber.csv").exists()

    @pytest.mark.parametrize("kind", ["none", "zfdpc"])
    def test_none_on_non_square_scenario_is_1(self, tmp_path, capsys, kind):
        scenario = {"users": 2, "tx_antennas": 3, "time_symbols": 8, "max_delay_taps": 2}
        path = write_config(tmp_path, {"scenario": scenario, "sim": {"precoder": kind}})
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(path), "--out", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: precoder '{kind}'") and "Traceback" not in err
        assert "users" in err and "tx_antennas" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_override_out_of_range_is_1(self, tmp_path, seed, capsys):
        path = write_config(tmp_path, FAST)
        out = tmp_path / "o"
        assert run_cli("generate", "--config", str(path), "--out", str(out), "--seed", seed) == 1
        assert "sim.seed must be in [0, 18446744073709551616)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario", [{"users": 171, "tx_antennas": 171}, {"time_symbols": 10**400}]
    )
    def test_complexity_past_float_range_is_0(self, tmp_path, scenario, capsys):
        path = write_config(tmp_path, {"scenario": scenario})
        assert run_cli("complexity", "--config", str(path)) == 0
        shown = capsys.readouterr()
        assert shown.err == "" and re.search(r"^  dpc +inf$", shown.out, re.M)

    def test_empty_config_runs_complexity_on_defaults(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text("")
        assert run_cli("complexity", "--config", str(path)) == 0
        shown = capsys.readouterr()
        assert shown.err == ""
        assert "users=4 tx_antennas=4 time_symbols=256" in shown.out

    @pytest.mark.parametrize(
        "subcommand,text,message",
        [
            ("generate", "- 1\n", "top-level config must be a mapping"),
            ("generate", "scenario: [1]\n", "section 'scenario' must be a mapping"),
            ("simulate", "sim: {snr_db: []}\n", "sim.snr_db must be a number or non-empty"),
            ("precode", "sim: {precoder: zf}\n", "requires an hogmt precoder"),
        ],
    )
    def test_malformed_config_is_1(self, tmp_path, subcommand, text, message, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert run_cli(subcommand, "--config", str(path), "--out", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_usage_error_is_1(self, tmp_path, capsys):
        # argparse errors are routed through the config-error path
        assert run_cli("generate") == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_1(self, capsys):
        assert run_cli("transmogrify") == 1
        capsys.readouterr()
