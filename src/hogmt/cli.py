"""Command-line front end.

Subcommands wire the library into a file pipeline: generate writes a channel
realization (CTF), decompose turns one into an eigenvalue summary, precode
emits a precoded grid plus energy accounting, simulate runs BER sweeps,
stats emits second-order statistics and stationarity metrics, complexity
prints operation-count estimates and writes nothing.  Every other run
re-emits its effective configuration and a manifest naming the seed and
output files, so any result can be reproduced from those two files, byte
for byte at the same BLAS thread count.

Exit codes: 0 success, 1 configuration/validation problem, 2 file or I/O
problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import warnings
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .channel import (
    _MASTER_SEED_RANGE,
    _SEED_CLI_BITS,
    _SEED_STATS_MEMBER,
    ScenarioConfig,
    _SVD_PEAK,
    _check_channel_fits,
    _check_memory,
    _substream,
    _sweep_channel,
    generate_channel,
    load_ctf,
    save_ctf,
    to_kernel,
)
from .errors import ConfigError, HogmtError, NumericalError, ValidationError, FormatError
from .kernels import checked_fields, checked_int, hogmt_decompose
from .linksim import (
    MIN_BITS_FLOOR,
    BerPoint,
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
    "SimConfig",
    "StatsConfig",
    "OutConfig",
    "parse_config",
    "complexity_estimate",
    "main",
]


@dataclass(frozen=True)
class SimConfig:
    """The ``sim`` section: BER sweep settings and the master seed."""

    precoder: str = "hogmt"
    modulation: str = "qam16"
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    min_bits: int = field(default=100_000, metadata={"ge": MIN_BITS_FLOOR})
    seed: int = field(default=12345, metadata=_MASTER_SEED_RANGE)

    def __post_init__(self):
        checked_fields(self)
        for name, owner in (("precoder", parse_precoder), ("modulation", get_scheme)):
            try:
                owner(getattr(self, name))
            except ValidationError as exc:
                raise ValidationError(f"{name}: {exc}") from exc
        for snr in self.snr_db:
            _noise_variance(snr)
        object.__setattr__(self, "snr_db", tuple(map(float, self.snr_db)))


@dataclass(frozen=True)
class StatsConfig:
    """The ``stats`` section: stationarity metric and statistics ensemble."""

    d0: float = field(default=0.2, metadata={"gt": 0, "le": 1})
    window: int = field(default=8, metadata={"ge": 2})
    ensemble: int = field(default=1, metadata={"ge": 1})
    proto_spread_t: float = field(default=4.0, metadata={"gt": 0})
    proto_spread_f: float = field(default=1.0, metadata={"gt": 0})

    __post_init__ = checked_fields


@dataclass(frozen=True)
class OutConfig:
    """The ``out`` section."""

    dir: str = "out"


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration, one field per YAML section.

    Each section's field names are its YAML keys and its defaults the YAML
    defaults.
    """

    scenario: ScenarioConfig = ScenarioConfig()
    sim: SimConfig = SimConfig()
    stats: StatsConfig = StatsConfig()
    out: OutConfig = OutConfig()

    def to_mapping(self) -> dict:
        """Schema-shaped mapping that reparses to an identical RunConfig."""
        mapping = asdict(self)
        mapping["sim"]["snr_db"] = list(self.sim.snr_db)
        return mapping


def _coerce(name: str, value, default):
    """``value`` read for a key with this ``default``; ``name`` is section.key.

    The config dataclasses check every number.  A string key needs a string,
    and a tuple default is list-valued: a single number or a non-empty list.
    """
    if isinstance(default, tuple):
        items = value if isinstance(value, list) else [value]
        if not items:
            raise ConfigError(
                f"{name} must be a number or non-empty list of numbers, got {value!r}"
            )
        return tuple(items)
    if isinstance(default, str) and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _read_section(name: str, values, base):
    """Section ``base`` with the keys in the YAML mapping ``values`` set."""
    if values is None:
        return base
    if not isinstance(values, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    unknown = sorted(set(values) - {f.name for f in fields(base)}, key=str)
    if unknown:
        raise ConfigError(f"unknown config key {name}.{unknown[0]}")
    changes = {
        k: _coerce(f"{name}.{k}", v, getattr(base, k)) for k, v in values.items()
    }
    try:
        return replace(base, **changes)
    except ValidationError as exc:  # its message starts with the key
        raise ConfigError(f"{name}.{exc}") from exc


def config_from_mapping(raw) -> RunConfig:
    """Validate a parsed configuration mapping and apply defaults.

    Errors raise ``ConfigError`` naming the YAML ``section.key``.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a mapping of sections")
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)}, key=str)
    if unknown:
        raise ConfigError(f"unknown config section {unknown[0]!r}")
    return RunConfig(
        **{
            f.name: _read_section(f.name, raw.get(f.name), f.default)
            for f in fields(RunConfig)
        }
    )


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


def complexity_estimate(l_u: int, l_up: int, l_t: int) -> dict[str, float]:
    """Closed-form operation counts for the three precoding strategies, by name.

    hogmt_flatten: SVD of the flattened kernel, L_u * L_u'^2 * L_t^3.
    hogmt_hosvd: higher-order SVD route, ((L_u + L_u' + 2 L_t)/4)^5 +
    L_u * L_u' * L_t^2.  dpc: successive encoding with per-order search,
    L_t * ((L_u L_u')^3.5 + L_u L_u'^2) * L_u'!, factorial in the antenna
    count.  Assumes at least as many users as transmit antennas; if not, a
    warning is emitted and the counts are still computed.  A count past the
    float range reads inf.
    """
    l_u = checked_int(l_u, "users", ge=1)
    l_up = checked_int(l_up, "tx_antennas", ge=1)
    l_t = checked_int(l_t, "time_symbols", ge=1)
    if l_u < l_up:
        warnings.warn(
            f"complexity formulas assume users >= tx_antennas, got {l_u} < {l_up}; "
            "computing anyway",
            stacklevel=2,
        )
    flatten = _or_inf(lambda: float(l_u) * float(l_up) ** 2 * float(l_t) ** 3)
    hosvd = _or_inf(
        lambda: ((l_u + l_up + 2.0 * l_t) / 4.0) ** 5 + float(l_u) * l_up * float(l_t) ** 2
    )
    # 171! is past the float range, so the factorial is not worked out from there on
    dpc = math.inf if l_up > 170 else _or_inf(
        lambda: float(l_t)
        * ((float(l_u) * l_up) ** 3.5 + float(l_u) * float(l_up) ** 2)
        * float(math.factorial(l_up))
    )
    return {"hogmt_flatten": flatten, "hogmt_hosvd": hosvd, "dpc": dpc}


def _or_inf(count) -> float:
    """``count()``, or inf once a part of it (each is >= 1) passes the float range."""
    try:
        return count()
    except OverflowError:
        return math.inf


def _cumulative_normalized(values: np.ndarray) -> np.ndarray:
    """Running sum of ``values`` over their total: ends at 1, or stays 0 for no total."""
    total = float(values.sum())
    if total <= 0.0:
        return np.zeros_like(values)
    return np.cumsum(values) / total


def _csv(header: str, rows, footer: str | None = None):
    """Writer of a CSV file: ``header``, a line per row (a tuple of Python
    scalars, each cell its ``str``: a float's shortest round trip), then
    ``footer``.  Rows are formatted as they are written, so no text is held."""
    line = ",".join(["%s"] * (header.count(",") + 1)) + "\n"

    def write(path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(line % row for row in rows)
            if footer is not None:
                fh.write(footer + "\n")

    return write


def _cells(grid: np.ndarray):
    """(i, j, value) for each entry of a 2-D array, one row of floats at a time."""
    return ((i, j, v) for i, r in enumerate(grid) for j, v in enumerate(r.tolist()))


# Every subcommand is a function (cfg, src) -> outputs, src being the CTF file
# it may read.  ``outputs`` maps each output file name, in the order the run
# reports them, to a function that writes it to a path.


def _cmd_generate(cfg: RunConfig, src: Path) -> dict:
    h = generate_channel(cfg.scenario, cfg.sim.seed)
    return {"channel.ctf": lambda path: save_ctf(h, path)}


def _decompose_ctf(src: Path):
    """Kernel of the channel stored at ``src`` and its decomposition."""
    h = load_ctf(src)
    _check_channel_fits(h.dims, f"input CTF {src} time symbols")
    kernel = to_kernel(h)
    del h  # not needed beside the SVD
    return kernel, hogmt_decompose(kernel)


def _cmd_decompose(cfg: RunConfig, src: Path) -> dict:
    kernel, decomp = _decompose_ctf(src)
    sig_sq = decomp.sigmas**2
    total = float(sig_sq.sum())
    cum = _cumulative_normalized(sig_sq)
    rows = ((n, *pair) for n, pair in enumerate(zip(decomp.sigmas.tolist(), cum.tolist())))
    footer = f"# sum_sigma_sq={total} kernel_frob_sq={kernel.frob_norm ** 2}"
    return {"eigen.csv": _csv("n,sigma,cumulative_fraction", rows, footer)}


def _cmd_precode(cfg: RunConfig, src: Path) -> dict:
    spec = parse_precoder(cfg.sim.precoder)
    if spec.kind != "hogmt":
        raise ConfigError(
            "the precode subcommand emits eigen-domain coefficients and "
            f"requires an hogmt precoder, got sim.precoder={cfg.sim.precoder!r}"
        )
    kernel, decomp = _decompose_ctf(src)
    scheme = get_scheme(cfg.sim.modulation)
    l_u, l_t = kernel.dims[:2]
    bits = _substream(cfg.sim.seed, _SEED_CLI_BITS).integers(
        0, 2, size=scheme.bits_per_symbol * l_u * l_t, dtype=np.uint8
    )
    s = modulate(bits, scheme, (l_u, l_t))
    x, coeffs = hogmt_precode(decomp, s, spec.fraction)
    per_mode = energy_report(decomp, coeffs)  # gains, cost, cancelled
    columns = (*per_mode, *map(_cumulative_normalized, per_mode))
    footer = (
        f"# total_tx_energy={float(per_mode[1].sum())} "
        f"dropped_energy={coeffs.dropped_energy}"
    )
    return {
        "precoded.npy": lambda path: np.save(path, x.grid),
        "energy.csv": _csv(
            "n,gain,cost_energy,cancelled_energy,cum_gain,cum_cost,cum_cancelled",
            ((n, *row) for n, row in enumerate(zip(*(c.tolist() for c in columns)))),
            footer,
        ),
    }


def _cmd_simulate(cfg: RunConfig, src: Path) -> dict:
    sim = cfg.sim
    report = run_ber(cfg.scenario, [sim.precoder], list(sim.snr_db), sim.min_bits, sim.seed,
                     modulations=[sim.modulation])
    header = ",".join(f.name for f in fields(BerPoint))
    return {"ber.csv": _csv(header, map(astuple, report.points))}


def _cmd_stats(cfg: RunConfig, src: Path) -> dict:
    if cfg.stats.window > cfg.scenario.time_symbols:
        raise ConfigError(
            f"stats.window must be <= scenario.time_symbols, got {cfg.stats.window} > "
            f"{cfg.scenario.time_symbols}"
        )
    # checked before any channel is drawn (generate_channel budgets each draw):
    # the larger of two stages must fit.  A member's atomic kernel is n x n
    # complex (n = time_symbols * max_delay_taps); its SVD takes _SVD_PEAK kernels, the
    # running lsf sum half a kernel and the cmd distance matrix at most that.
    # cmd's window correlations: three complex arrays of time_symbols * max(users, tx_antennas)**2
    sc = cfg.scenario
    l_t, kernels, arrays = sc.time_symbols, _SVD_PEAK + 0.5, 3
    needs = [
        (kernels * (l_t * sc.max_delay_taps) ** 2 * 16, f"scenario.time_symbols {l_t}",
         f"the atomic kernel and its SVD, {kernels:g} * (time_symbols * max_delay_taps)**2"
         " * 16 bytes"),
        (arrays * l_t * max(sc.users, sc.tx_antennas) ** 2 * 16,
         f"scenario (users, tx_antennas, time_symbols) = {(sc.users, sc.tx_antennas, l_t)}",
         f"cmd's window correlations, {arrays} * time_symbols * max(users, tx_antennas)**2"
         " * 16 bytes"),
    ]
    _check_memory(*max(needs, key=lambda need: need[0]))
    proto = GaussianPrototype(cfg.stats.proto_spread_t, cfg.stats.proto_spread_f)
    channels = (_sweep_channel(cfg.scenario, cfg.sim.seed, _SEED_STATS_MEMBER, m)
                for m in range(cfg.stats.ensemble))
    first_h = next(channels)  # cmd runs on it below
    # a generator, so one member's decomposition is alive at a time
    members = (
        decompose_atomic(atomic_kernel(tf_transfer(h, 0, 0), proto))
        for h in itertools.chain([first_h], channels)
    )
    report = stats_from_decomp(None, ensemble=members)
    outputs = {
        "stats_scattering.csv": _csv("tau,nu,value", _cells(report.scattering)),
        "stats_path_gain.csv": _csv("t,f,value", _cells(report.path_gain)),
        "stats_summary.csv": _csv(
            "quantity,value",
            [
                ("total_gain", float(report.total_gain)),
                ("ensemble_size", report.ensemble_size),
                ("scattering_sum", float(report.scattering.sum())),
                ("path_gain_sum", float(report.path_gain.sum())),
                ("lsf_min", float(report.lsf.min())),
            ],
        ),
    }
    for side in ("tx", "rx"):
        distances = cmd(first_h, side=side, window=cfg.stats.window)
        outputs[f"cmd_{side}.csv"] = _csv(
            "start,shift,d_corr", ((i, j - i, d) for i, j, d in _cells(distances))
        )
        sr = stationarity_interval(distances, cfg.stats.d0)
        outputs[f"intervals_{side}.csv"] = _csv(
            "start,interval_symbols",
            enumerate(sr.intervals.tolist()),
            f"# d0={cfg.stats.d0} window={cfg.stats.window}",
        )
    return outputs


def _cmd_complexity(cfg: RunConfig, src: Path) -> dict:
    sc = cfg.scenario
    est = complexity_estimate(sc.users, sc.tx_antennas, sc.time_symbols)
    print(
        f"operation counts for users={sc.users} tx_antennas={sc.tx_antennas} "
        f"time_symbols={sc.time_symbols}"
    )
    for name, count in est.items():
        print(f"  {name:<14} {count}")
    return {}


# subcommand -> (command, whether it takes the positional CTF input)
_COMMANDS = {
    "generate": (_cmd_generate, False),
    "decompose": (_cmd_decompose, True),
    "precode": (_cmd_precode, True),
    "simulate": (_cmd_simulate, False),
    "stats": (_cmd_stats, False),
    "complexity": (_cmd_complexity, False),
}


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
            "byte for byte at the same BLAS thread count.",
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
    for name, (_, takes_input) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--out", help="output directory (overrides out.dir)")
        p.add_argument("--seed", type=int, help="master seed (overrides sim.seed)")
        p.add_argument("--quiet", action="store_true", help="suppress log lines")
        if takes_input:
            p.add_argument(
                "input",
                nargs="?",
                help="input CTF file (default: <out dir>/channel.ctf)",
            )
    return parser


def _dispatch(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, sim=_read_section("sim", {"seed": args.seed}, cfg.sim))
    if args.out is not None:
        cfg = replace(cfg, out=_read_section("out", {"dir": args.out}, cfg.out))
    out_dir = Path(cfg.out.dir)
    command, _ = _COMMANDS[args.subcommand]
    src = getattr(args, "input", None) or out_dir / "channel.ctf"
    outputs = command(cfg, Path(src))
    if not outputs:  # a stdout-only run leaves the output directory as it was
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in outputs.items():
        write(out_dir / name)
        if not args.quiet:
            print(f"wrote {out_dir / name}")
    manifest = {
        "subcommand": args.subcommand,
        "seed": cfg.sim.seed,
        "outputs": sorted(outputs),
        "version": __version__,
    }
    for name, record in (
        ("effective_config.yaml", cfg.to_mapping()),
        ("manifest.yaml", manifest),
    ):
        text = yaml.safe_dump(record, sort_keys=True)
        (out_dir / name).write_text(text, encoding="utf-8")
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
