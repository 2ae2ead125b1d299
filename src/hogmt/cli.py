"""Command-line front end.

Subcommands wire the library into a file pipeline: generate writes a channel
realization (CTF), decompose turns one into an eigenvalue summary, precode
emits a precoded grid plus energy accounting, simulate runs BER sweeps,
stats emits second-order statistics and stationarity metrics, complexity
prints operation-count estimates.  Every run re-emits its effective
configuration and a manifest naming the seed and output files, so any result
can be reproduced byte-for-byte from those two files.

Exit codes: 0 success, 1 configuration/validation problem, 2 file or I/O
problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .channel import (
    _SEED_CLI_BITS,
    _SEED_STATS_MEMBER,
    ScenarioConfig,
    _substream,
    generate_channel,
    load_ctf,
    save_ctf,
    to_kernel,
)
from .errors import ConfigError, HogmtError, NumericalError, ValidationError, FormatError
from .kernels import hogmt_decompose
from .linksim import (
    MIN_BITS_FLOOR,
    PrecoderSpec,
    _noise_variance,
    get_scheme,
    modulate,
    parse_precoder,
    run_ber,
)
from .precoding import energy_report, hogmt_precode
from .stats import (
    GaussianPrototype,
    atomic_kernel,
    cmd,
    decompose_atomic,
    stationarity_interval,
    stats_from_decomp,
    tf_transfer,
)

__all__ = [
    "RunConfig",
    "ComplexityEstimate",
    "parse_config",
    "complexity_estimate",
    "main",
]

# YAML key -> RunConfig field for every section but "scenario", whose keys
# are the ScenarioConfig fields under their own names.
_SECTIONS = {
    "sim": {
        k: k for k in ("precoder", "fraction", "modulation", "snr_db", "min_bits", "seed")
    },
    "stats": {
        k: k for k in ("d0", "window", "ensemble", "proto_spread_t", "proto_spread_f")
    },
    "out": {"dir": "out_dir"},
}
_YAML_KEY = {
    field: f"{section}.{key}"
    for section, keys in _SECTIONS.items()
    for key, field in keys.items()
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration; field defaults are the YAML defaults.

    Range errors raise ``ConfigError`` naming the YAML ``section.key``.
    """

    scenario: ScenarioConfig = ScenarioConfig()
    precoder: str = "hogmt"
    fraction: float = 1.0
    modulation: str = "qam16"
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    min_bits: int = 100_000
    seed: int = 12345
    d0: float = 0.2
    window: int = 8
    ensemble: int = 1
    proto_spread_t: float = 4.0
    proto_spread_f: float = 1.0
    out_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(v):
                raise ConfigError(f"{_YAML_KEY[f.name]} must be finite, got {v}")
        for name, check in (
            ("precoder", parse_precoder),
            ("fraction", lambda f: PrecoderSpec("hogmt", f)),
            ("modulation", get_scheme),
            ("snr_db", lambda snrs: [_noise_variance(v) for v in snrs]),
        ):
            try:
                check(getattr(self, name))
            except ValidationError as exc:
                raise ConfigError(f"sim.{name}: {exc}") from exc
        if self.fraction != 1.0 and self.precoder.strip().lower() != "hogmt":
            raise ConfigError(
                "sim.fraction applies only to the bare 'hogmt' precoder, got "
                f"sim.fraction={self.fraction} with sim.precoder={self.precoder!r}"
            )
        if self.min_bits < MIN_BITS_FLOOR:
            raise ConfigError(
                f"sim.min_bits must be >= {MIN_BITS_FLOOR}, got {self.min_bits}"
            )
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"sim.seed must fit in 64 bits, got {self.seed}")
        if not (0.0 < self.d0 <= 1.0):
            raise ConfigError(f"stats.d0 must be in (0, 1], got {self.d0}")
        if self.window < 2:
            raise ConfigError(f"stats.window must be >= 2, got {self.window}")
        if self.window > self.scenario.time_symbols:
            raise ConfigError(
                f"stats.window must be <= scenario.time_symbols, got {self.window} > "
                f"{self.scenario.time_symbols}"
            )
        if self.ensemble < 1:
            raise ConfigError(f"stats.ensemble must be >= 1, got {self.ensemble}")
        for name in ("proto_spread_t", "proto_spread_f"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(
                    f"stats.{name} must be > 0, got {getattr(self, name)}"
                )

    def to_mapping(self) -> dict:
        """Schema-shaped mapping that reparses to an identical RunConfig."""
        flat = asdict(self)
        flat["snr_db"] = list(self.snr_db)
        mapping = {"scenario": flat.pop("scenario")}
        for section, keys in _SECTIONS.items():
            mapping[section] = {key: flat[field] for key, field in keys.items()}
        return mapping


_KINDS = {
    int: ((int, np.integer), "an integer"),
    float: ((int, float, np.floating), "a number"),
    str: (str, "a string"),
}


def _coerce(name: str, value, default):
    """``value`` checked against the type of ``default``; ``name`` is section.key.

    A tuple default is list-valued: a single number or a non-empty list.
    """
    if isinstance(default, tuple):
        items = value if isinstance(value, list) else [value]
        if not items:
            raise ConfigError(
                f"{name} must be a number or non-empty list of numbers, got {value!r}"
            )
        return tuple(_coerce(name, v, default[0]) for v in items)
    types, label = _KINDS[type(default)]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {label}, got {value!r}")
    return type(default)(value)


def _read_section(raw: dict, section: str, keys: dict, defaults: dict) -> dict:
    """Coerced values of one YAML section, keyed by field name."""
    sec = raw.get(section)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {section!r} must be a mapping")
    unknown = sorted(set(sec) - set(keys), key=str)
    if unknown:
        raise ConfigError(f"unknown config key {section}.{unknown[0]}")
    return {
        keys[k]: _coerce(f"{section}.{k}", v, defaults[keys[k]]) for k, v in sec.items()
    }


def config_from_mapping(raw) -> RunConfig:
    """Validate a parsed configuration mapping and apply defaults."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a mapping of sections")
    unknown = sorted(set(raw) - {"scenario", *_SECTIONS}, key=str)
    if unknown:
        raise ConfigError(f"unknown config section {unknown[0]!r}")
    scenario_fields = {f.name: f.default for f in fields(ScenarioConfig)}
    scenario = _read_section(
        raw, "scenario", {k: k for k in scenario_fields}, scenario_fields
    )
    try:
        scenario = ScenarioConfig(**scenario)
    except ValidationError as exc:
        raise ConfigError(f"scenario.{exc}") from exc
    defaults = {f.name: f.default for f in fields(RunConfig)}
    run = {}
    for section, keys in _SECTIONS.items():
        run.update(_read_section(raw, section, keys, defaults))
    return RunConfig(scenario=scenario, **run)


def parse_config(path) -> RunConfig:
    """Load and validate a YAML configuration file."""
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        # decoding errors surface as yaml.YAMLError too
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return config_from_mapping(raw)


@dataclass(frozen=True)
class ComplexityEstimate:
    """Operation-count estimates of the three precoding strategies."""

    users: int
    tx_antennas: int
    time_symbols: int
    hogmt_flatten: float
    hogmt_hosvd: float
    dpc: float

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("hogmt_flatten", self.hogmt_flatten),
            ("hogmt_hosvd", self.hogmt_hosvd),
            ("dpc", self.dpc),
        ]


def complexity_estimate(l_u: int, l_up: int, l_t: int) -> ComplexityEstimate:
    """Closed-form operation counts for the three precoding strategies.

    hogmt_flatten: SVD of the flattened kernel, L_u * L_u'^2 * L_t^3.
    hogmt_hosvd: higher-order SVD route, ((L_u + L_u' + 2 L_t)/4)^5 +
    L_u * L_u' * L_t^2.  dpc: successive encoding with per-order search,
    L_t * ((L_u L_u')^3.5 + L_u L_u'^2) * L_u'!, factorial in the antenna
    count.  Assumes at least as many users as transmit antennas; if not, a
    warning is emitted and the counts are still computed.
    """
    for name, v in (("users", l_u), ("tx_antennas", l_up), ("time_symbols", l_t)):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
            raise ValidationError(f"{name} must be an integer >= 1, got {v!r}")
    if l_u < l_up:
        warnings.warn(
            f"complexity formulas assume users >= tx_antennas, got {l_u} < {l_up}; "
            "computing anyway",
            stacklevel=2,
        )
    flatten = float(l_u) * float(l_up) ** 2 * float(l_t) ** 3
    hosvd = ((l_u + l_up + 2.0 * l_t) / 4.0) ** 5 + float(l_u) * l_up * float(l_t) ** 2
    dpc = (
        float(l_t)
        * ((float(l_u) * l_up) ** 3.5 + float(l_u) * float(l_up) ** 2)
        * float(math.factorial(l_up))
    )
    return ComplexityEstimate(
        users=int(l_u),
        tx_antennas=int(l_up),
        time_symbols=int(l_t),
        hogmt_flatten=flatten,
        hogmt_hosvd=hosvd,
        dpc=dpc,
    )


def _fmt(x) -> str:
    """Stable cell formatting: shortest roundtrip repr for floats, str as is."""
    if isinstance(x, (bool, np.bool_)):
        raise ValueError("no boolean columns in CSV outputs")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return x if isinstance(x, str) else str(float(x))


def _write_csv(path: Path, header: str, rows, footer: str | None = None) -> None:
    lines = [header]
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(map(_fmt, row)))
    if footer is not None:
        lines.append(footer)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emit_run_records(
    out_dir: Path, cfg: RunConfig, subcommand: str, outputs: list[str]
) -> None:
    eff = out_dir / "effective_config.yaml"
    eff.write_text(
        yaml.safe_dump(cfg.to_mapping(), sort_keys=True), encoding="utf-8"
    )
    manifest = {
        "subcommand": subcommand,
        "seed": cfg.seed,
        "outputs": sorted(outputs),
        "version": __version__,
    }
    (out_dir / "manifest.yaml").write_text(
        yaml.safe_dump(manifest, sort_keys=True), encoding="utf-8"
    )


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _cmd_generate(cfg: RunConfig, out_dir: Path, quiet: bool) -> list[str]:
    h = generate_channel(cfg.scenario, cfg.seed)
    target = out_dir / "channel.ctf"
    save_ctf(h, target)
    _say(quiet, f"wrote {target}")
    return ["channel.ctf"]


def _resolve_input(arg: str | None, out_dir: Path) -> Path:
    return Path(arg) if arg else out_dir / "channel.ctf"


def _resolve_precoder(cfg: RunConfig):
    """sim.precoder with sim.fraction folded in for a bare "hogmt"."""
    if cfg.precoder.strip().lower() == "hogmt":
        return PrecoderSpec("hogmt", cfg.fraction)
    return parse_precoder(cfg.precoder)


def _cmd_decompose(
    cfg: RunConfig, out_dir: Path, quiet: bool, input_path: str | None
) -> list[str]:
    src = _resolve_input(input_path, out_dir)
    h = load_ctf(src)
    kernel = to_kernel(h)
    decomp = hogmt_decompose(kernel)
    sig_sq = decomp.sigmas**2
    total = float(sig_sq.sum())
    cum = np.cumsum(sig_sq) / total if total > 0 else np.zeros_like(sig_sq)
    rows = [
        (n, float(decomp.sigmas[n]), float(cum[n])) for n in range(decomp.n_modes)
    ]
    footer = (
        f"# sum_sigma_sq={_fmt(total)} kernel_frob_sq={_fmt(kernel.frob_norm ** 2)}"
    )
    target = out_dir / "eigen.csv"
    _write_csv(target, "n,sigma,cumulative_fraction", rows, footer)
    _say(quiet, f"wrote {target}")
    return ["eigen.csv"]


def _cmd_precode(
    cfg: RunConfig, out_dir: Path, quiet: bool, input_path: str | None
) -> list[str]:
    src = _resolve_input(input_path, out_dir)
    h = load_ctf(src)
    kernel = to_kernel(h)
    decomp = hogmt_decompose(kernel)
    scheme = get_scheme(cfg.modulation)
    l_u = h.dims[0]
    l_t = h.dims[2]
    bits = _substream(cfg.seed, _SEED_CLI_BITS).integers(
        0, 2, size=scheme.bits_per_symbol * l_u * l_t, dtype=np.uint8
    )
    s = modulate(bits, scheme, (l_u, l_t))
    spec = _resolve_precoder(cfg)
    if spec.kind != "hogmt":
        raise ConfigError(
            "the precode subcommand emits eigen-domain coefficients and "
            f"requires an hogmt precoder, got sim.precoder={cfg.precoder!r}"
        )
    x, coeffs = hogmt_precode(decomp, s, spec.fraction)
    report = energy_report(decomp, coeffs)
    xt = out_dir / "precoded.npy"
    np.save(xt, x.grid)
    rows = [
        (
            n,
            float(report.gains[n]),
            float(report.cost_energy[n]),
            float(report.cancelled_energy[n]),
            float(report.cum_gain[n]),
            float(report.cum_cost[n]),
            float(report.cum_cancelled[n]),
        )
        for n in range(coeffs.retained)
    ]
    footer = (
        f"# total_tx_energy={_fmt(report.total_tx_energy)} "
        f"dropped_energy={_fmt(report.dropped_energy)}"
    )
    et = out_dir / "energy.csv"
    _write_csv(
        et,
        "n,gain,cost_energy,cancelled_energy,cum_gain,cum_cost,cum_cancelled",
        rows,
        footer,
    )
    _say(quiet, f"wrote {xt}")
    _say(quiet, f"wrote {et}")
    return ["precoded.npy", "energy.csv"]


def _cmd_simulate(cfg: RunConfig, out_dir: Path, quiet: bool) -> list[str]:
    spec = _resolve_precoder(cfg)
    report = run_ber(
        cfg.scenario,
        [spec],
        list(cfg.snr_db),
        cfg.min_bits,
        cfg.seed,
        modulations=[cfg.modulation],
    )
    rows = [
        (
            float(p.snr_db),
            p.precoder,
            p.modulation,
            float(p.fraction),
            p.bits,
            p.errors,
            float(p.ber),
            float(p.tx_energy),
        )
        for p in report.points
    ]
    target = out_dir / "ber.csv"
    _write_csv(
        target, "snr_db,precoder,modulation,fraction,bits,errors,ber,tx_energy", rows
    )
    _say(quiet, f"wrote {target}")
    return ["ber.csv"]


def _cmd_stats(cfg: RunConfig, out_dir: Path, quiet: bool) -> list[str]:
    proto = GaussianPrototype(cfg.proto_spread_t, cfg.proto_spread_f)
    decomps = []
    first_h = None
    for member in range(cfg.ensemble):
        rng = _substream(cfg.seed, _SEED_STATS_MEMBER, member)
        h = generate_channel(cfg.scenario, int(rng.integers(0, 2**63)))
        if first_h is None:
            first_h = h
        transfer = tf_transfer(h, 0, 0)
        decomps.append(decompose_atomic(atomic_kernel(transfer, proto)))
    report = stats_from_decomp(None, ensemble=decomps)

    outputs = []
    n_tau, n_nu = report.scattering.shape
    rows = [
        (tau, nu, float(report.scattering[tau, nu]))
        for tau in range(n_tau)
        for nu in range(n_nu)
    ]
    _write_csv(out_dir / "stats_scattering.csv", "tau,nu,value", rows)
    outputs.append("stats_scattering.csv")

    n_t, n_f = report.path_gain.shape
    rows = [
        (t, f, float(report.path_gain[t, f]))
        for t in range(n_t)
        for f in range(n_f)
    ]
    _write_csv(out_dir / "stats_path_gain.csv", "t,f,value", rows)
    outputs.append("stats_path_gain.csv")

    _write_csv(
        out_dir / "stats_summary.csv",
        "quantity,value",
        [
            ("total_gain", report.total_gain),
            ("ensemble_size", report.ensemble_size),
            ("scattering_sum", float(report.scattering.sum())),
            ("path_gain_sum", float(report.path_gain.sum())),
            ("lsf_min", float(report.lsf.min())),
        ],
    )
    outputs.append("stats_summary.csv")

    for side in ("tx", "rx"):
        series = cmd(first_h, side=side, window=cfg.window)
        n = series.n_starts
        dist = series.distances.tolist()  # Python floats: f"{d}" is _fmt(d)
        rows = [f"{i},{j - i},{d}" for i, r in enumerate(dist) for j, d in enumerate(r)]
        _write_csv(out_dir / f"cmd_{side}.csv", "start,shift,d_corr", rows)
        outputs.append(f"cmd_{side}.csv")
        sr = stationarity_interval(series, cfg.d0)
        rows = [(i, int(sr.intervals[i])) for i in range(n)]
        _write_csv(
            out_dir / f"intervals_{side}.csv",
            "start,interval_symbols",
            rows,
            f"# d0={_fmt(cfg.d0)} window={sr.window}",
        )
        outputs.append(f"intervals_{side}.csv")
    for name in outputs:
        _say(quiet, f"wrote {out_dir / name}")
    return outputs


def _cmd_complexity(cfg: RunConfig, out_dir: Path, quiet: bool) -> list[str]:
    est = complexity_estimate(
        cfg.scenario.users, cfg.scenario.tx_antennas, cfg.scenario.time_symbols
    )
    print(
        f"operation counts for users={est.users} tx_antennas={est.tx_antennas} "
        f"time_symbols={est.time_symbols}"
    )
    for name, count in est.rows():
        print(f"  {name:<14} {_fmt(count)}")
    return []


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"bad command line: {message}")


def _epilog() -> str:
    """Every YAML key with its default; the README documents the value ranges."""
    keys = [
        f"  {section}.{key} ({value})"
        for section, values in RunConfig().to_mapping().items()
        for key, value in values.items()
    ]
    return "\n".join(
        [
            "configuration file (YAML), all keys optional, defaults in parentheses:",
            "",
            *keys,
            "",
            "every run writes effective_config.yaml and manifest.yaml into the output",
            "directory; rerunning a subcommand from those files reproduces its outputs",
            "byte for byte.",
        ]
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hogmt",
        description=(
            "Eigenfunction-domain channel decomposition, precoding and "
            "link simulation."
        ),
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, needs_input in (
        ("generate", False),
        ("decompose", True),
        ("precode", True),
        ("simulate", False),
        ("stats", False),
        ("complexity", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--out", help="output directory (overrides out.dir)")
        p.add_argument("--seed", type=int, help="master seed (overrides sim.seed)")
        p.add_argument("--quiet", action="store_true", help="suppress log lines")
        if needs_input:
            p.add_argument(
                "input",
                nargs="?",
                help="input CTF file (default: <out dir>/channel.ctf)",
            )
    return parser


def _dispatch(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    name = args.subcommand
    if name == "generate":
        outputs = _cmd_generate(cfg, out_dir, args.quiet)
    elif name == "decompose":
        outputs = _cmd_decompose(cfg, out_dir, args.quiet, args.input)
    elif name == "precode":
        outputs = _cmd_precode(cfg, out_dir, args.quiet, args.input)
    elif name == "simulate":
        outputs = _cmd_simulate(cfg, out_dir, args.quiet)
    elif name == "stats":
        outputs = _cmd_stats(cfg, out_dir, args.quiet)
    else:
        outputs = _cmd_complexity(cfg, out_dir, args.quiet)
    _emit_run_records(out_dir, cfg, name, outputs)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        return _dispatch(parser.parse_args(argv))
    except (FormatError, OSError) as exc:
        return _fail(exc, 2)
    except NumericalError as exc:
        return _fail(exc, 3)
    except HogmtError as exc:
        return _fail(exc, 1)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
