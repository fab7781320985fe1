"""Command-line front end: one command per published dataset.

Subcommands
    coeffs   rate constants at one parameter point
    evolve   time evolution of a state with its concurrence breakdown
    rate     analytic and finite-difference initial concurrence rate
    region   boolean generation-region mask over the (omega_l, a/omega) plane
    sweep    initial-rate or max-concurrence curves along one axis
    maxc     maximum concurrence during evolution at one point
    steady   asymptotic populations and concurrence
    oracle   dense-integrator cross-check against the closed-form flow

Output is CSV (default) or column-oriented JSON with a full configuration
echo, written with 17 significant digits so downstream diffs are exact.
Errors print a single machine-parsable line `error: <code>: <message>` and
exit with 2 (usage), 3 (numerics), 4 (invalid state/parameter) or 1 (I/O).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .entanglement import (
    clamped_rate,
    concurrence_x,
    generation_rate_product,
    initial_rate_superposition,
    numerical_initial_rate,
)
from .errors import (
    FormulaSingularError,
    HorizonError,
    InvalidParameterError,
    NonConvergenceError,
    SimulationError,
    UsageError,
)
from .oracle import build_gkls, from_xstate, integrate, step_bound, to_xstate
from .params import SimConfig, coefficients
from .sweeps import (
    DEFAULT_REGION_RESOLUTION,
    DEFAULT_SWEEP_POINTS,
    default_region_scan,
    max_concurrence,
    max_concurrence_sweep,
    rate_sweep,
)
from .xstate import (
    XState,
    _check_sample_count,
    evolve,
    initial_product_eg,
    initial_superposition,
    steady_state,
    trajectory,
)

_EXIT_OK = 0
_EXIT_IO = 1
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_INVALID = 4

_FLOAT_FMT = "{:.16e}"  # 17 significant digits


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: subcommand plus every knob it honours."""

    command: str
    accel: float | None = None
    sep: float | None = None
    gamma0: float = 1.0
    with_d: bool = True
    init: str = "product-eg"
    theta: float | None = None
    phi: float | None = None
    tau_max: float = 20.0
    samples: int = 201
    grid: int = DEFAULT_REGION_RESOLUTION
    quantity: str | None = None
    points: int = DEFAULT_SWEEP_POINTS
    sweep_min: float | None = None
    sweep_max: float | None = None
    out: str | None = None
    format: str = "csv"
    gnuplot_hint: bool = False
    state: dict | None = None

    def to_meta(self) -> dict:
        meta = dataclasses.asdict(self)
        meta["version"] = __version__
        return meta

    @classmethod
    def from_meta(cls, meta: dict) -> "RunConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in meta.items() if k in fields})


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2) with its own format
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="unruh-pair", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add_common(p, point=True):
        if point:
            p.add_argument("--accel", type=float, help="acceleration ratio a/omega")
            p.add_argument("--sep", type=float, help="separation omega*L")
        p.add_argument("--gamma0", type=float, help="spontaneous-emission rate (default 1)")
        g = p.add_mutually_exclusive_group()
        g.add_argument("--with-d", dest="with_d", action="store_true", default=None,
                       help="keep the environment-induced exchange (default)")
        g.add_argument("--no-d", dest="with_d", action="store_false", default=None,
                       help="drop the environment-induced exchange")
        p.add_argument("--init", choices=("product-eg", "superposition", "xstate"),
                       help="initial state kind")
        p.add_argument("--theta", type=float, help="superposition weight angle (radians)")
        p.add_argument("--phi", type=float, help="superposition phase angle (radians)")
        p.add_argument("--tau-max", dest="tau_max", type=float, help="time horizon (1/Gamma0)")
        p.add_argument("--samples", type=int, help="number of trajectory samples")
        p.add_argument("--grid", type=int, help="region-scan resolution per axis")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--config", help="JSON file with the same keys; flags override")
        p.add_argument("--gnuplot-hint", dest="gnuplot_hint", action="store_true",
                       default=None, help="print a plotting one-liner after writing")

    add_common(sub.add_parser("coeffs", help="rate constants at one point"))
    add_common(sub.add_parser("evolve", help="time evolution with concurrence"))
    add_common(sub.add_parser("rate", help="initial concurrence rate, all routes"))
    add_common(sub.add_parser("region", help="generation-region mask"), point=False)
    p_sweep = sub.add_parser("sweep", help="one-axis curves for both exchange settings")
    add_common(p_sweep)
    p_sweep.add_argument("--quantity", choices=("rate", "maxc"),
                         help="what to sweep (required)")
    p_sweep.add_argument("--points", type=int, help="sweep resolution (default 200)")
    p_sweep.add_argument("--sweep-min", dest="sweep_min", type=float,
                         help="lower end of the swept axis")
    p_sweep.add_argument("--sweep-max", dest="sweep_max", type=float,
                         help="upper end of the swept axis")
    add_common(sub.add_parser("maxc", help="maximum concurrence at one point"))
    add_common(sub.add_parser("steady", help="asymptotic state at one point"))
    add_common(sub.add_parser("oracle", help="dense integrator vs closed form"))
    return parser


def parse_cli(argv: list[str]) -> RunConfig:
    """Resolve argv (plus an optional --config file) into a RunConfig."""
    ns = _build_parser().parse_args(argv)
    file_values: dict = {}
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError("config file must contain a JSON object")

    defaults = RunConfig(command=ns.command)
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(file_values) - known - {"command", "version"}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")

    def pick(name, flag_value):
        if flag_value is not None:
            return flag_value
        if name in file_values and file_values[name] is not None:
            return file_values[name]
        return getattr(defaults, name)

    resolved = {
        name: pick(name, getattr(ns, name, None))
        for name in known
        if name not in ("command", "state")
    }
    resolved["command"] = ns.command
    resolved["state"] = file_values.get("state")
    _coerce_types(resolved)

    cfg = RunConfig(**resolved)
    _check_consistency(cfg)
    return cfg


_FLOAT_KEYS = ("accel", "sep", "gamma0", "theta", "phi", "tau_max", "sweep_min", "sweep_max")
_INT_KEYS = ("samples", "grid", "points")
_BOOL_KEYS = ("with_d", "gnuplot_hint")


def _coerce_types(resolved: dict) -> None:
    """Normalize values that arrived as JSON strings/numbers from --config."""
    try:
        for keys, kind in ((_FLOAT_KEYS, float), (_INT_KEYS, int), (_BOOL_KEYS, bool)):
            for key in keys:
                if resolved.get(key) is not None:
                    resolved[key] = kind(resolved[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {key!r}: {exc}")


def _check_consistency(cfg: RunConfig) -> None:
    if cfg.init != "superposition" and (cfg.theta is not None or cfg.phi is not None):
        raise UsageError("--theta/--phi are only meaningful with --init superposition")
    if cfg.init == "superposition" and (cfg.theta is None or cfg.phi is None):
        raise UsageError("--init superposition requires --theta and --phi")
    if cfg.init == "xstate" and cfg.state is None:
        raise UsageError("--init xstate requires a 'state' object in --config")
    if cfg.command == "rate" and cfg.init == "xstate":
        raise UsageError(
            "the closed-form rates exist for product-eg and superposition starts only"
        )
    if cfg.command == "sweep":
        if cfg.quantity is None:
            raise UsageError("sweep requires --quantity rate|maxc")
        fixed = (cfg.accel is not None) + (cfg.sep is not None)
        if fixed != 1:
            raise UsageError("sweep requires exactly one fixed axis: --accel or --sep")
    elif cfg.command not in ("region",):
        if cfg.accel is None or cfg.sep is None:
            raise UsageError(f"{cfg.command} requires --accel and --sep")


def _sim_config(cfg: RunConfig, with_d: bool | None = None) -> SimConfig:
    return SimConfig(
        accel_ratio=cfg.accel,
        separation=cfg.sep,
        gamma0=cfg.gamma0,
        include_interaction=cfg.with_d if with_d is None else with_d,
    )


def _initial_state(cfg: RunConfig) -> XState:
    if cfg.init == "product-eg":
        return initial_product_eg()
    if cfg.init == "superposition":
        return initial_superposition(cfg.theta, cfg.phi)
    s = cfg.state
    try:
        return XState(
            p_gg=float(s["p_gg"]), p_ee=float(s["p_ee"]),
            p_aa=float(s["p_aa"]), p_ss=float(s["p_ss"]),
            c_as=complex(float(s.get("re_as", 0.0)), float(s.get("im_as", 0.0))),
            c_ge=complex(float(s.get("re_ge", 0.0)), float(s.get("im_ge", 0.0))),
        )
    except (KeyError, TypeError) as exc:
        raise UsageError(f"explicit state needs p_gg/p_ee/p_aa/p_ss fields: {exc}")


# ---------------------------------------------------------------------------
# emit


_BOOL_TEXT = {"csv": ("0", "1"), "json": ("false", "true")}
_FLOAT_TEXT = {"csv": _FLOAT_FMT.format, "json": json.dumps}  # json: repr, NaN, Infinity


def _cells(col, fmt: str) -> list[str]:
    """Texts of one column's cells; a float is formatted once per distinct bit pattern.

    An array's dtype decides how its cells are written; a list's cells each
    keep their own type, as numpy would not.
    """
    kind = col.dtype.kind if isinstance(col, np.ndarray) else None
    if kind not in ("b", "i", "u", "f"):
        kinds = {"b" if isinstance(v, (bool, np.bool_)) else
                 "i" if isinstance(v, (int, np.integer)) else "f" for v in col}
        if len(kinds) > 1:
            return [_cells([v], fmt)[0] for v in col]
        kind = kinds.pop() if kinds else "f"
    if kind == "b":
        return np.array(_BOOL_TEXT[fmt], dtype=object)[np.asarray(col, dtype=np.intp)].tolist()
    if kind in "iu":
        return [str(int(v)) for v in col]
    x = np.ascontiguousarray(col, dtype=float).ravel()
    _, first, inverse = np.unique(x.view(np.uint64), return_index=True, return_inverse=True)
    texts = np.array([_FLOAT_TEXT[fmt](v) for v in x[first].tolist()], dtype=object)
    return texts[inverse].tolist()


def emit(meta: dict, columns: dict, fmt: str, path: str | None) -> None:
    """Write a column table as CSV or JSON, byte-stable for identical input.

    CSV: header row of column names, one row per entry, LF line endings,
    '.' decimal separator, floats with 17 significant digits, meta omitted.
    JSON: object with 'meta' (full configuration echo including the package
    version) and 'data' (column-oriented arrays), keys sorted: the text of
    ``json.dumps({"meta": meta, "data": data}, sort_keys=True, indent=1)``.
    Both are written column by column, not cell by cell.
    """
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    cells = {name: _cells(col, fmt) for name, col in columns.items()}
    if fmt == "csv":
        text = "\n".join([",".join(cells), *map(",".join, zip(*cells.values()))]) + "\n"
    else:  # the layout json.dumps gives at indent=1, with "data" (sorted first) written here
        arrays = (json.dumps(name) + (": [\n   " + ",\n   ".join(col) + "\n  ]" if col else ": []")
                  for name, col in sorted(cells.items()))
        data = "{\n  " + ",\n  ".join(arrays) + "\n }" if cells else "{}"
        rest = json.dumps({"data": 0, "meta": meta}, sort_keys=True, indent=1)
        text = '{\n "data": ' + data + rest[len('{\n "data": 0'):] + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit(cfg: RunConfig, columns: dict) -> int:
    emit(cfg.to_meta(), columns, cfg.format, cfg.out)
    if cfg.gnuplot_hint and cfg.out and cfg.format == "csv":
        cols = ":".join(str(i) for i in range(1, min(len(columns), 3) + 1))
        print(f"# gnuplot: set datafile separator ','; plot '{cfg.out}' using {cols} with lines")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_coeffs(cfg: RunConfig) -> int:
    c = coefficients(_sim_config(cfg))
    cols = {name: [getattr(c, name)] for name in ("a1", "a2", "b1", "b2", "d", "f", "gamma0")}
    return _emit(cfg, cols)


def _cmd_evolve(cfg: RunConfig) -> int:
    c = coefficients(_sim_config(cfg))
    state0 = _initial_state(cfg)
    names = ("tau", "c", "k1", "k2", "p_gg", "p_ee", "p_aa", "p_ss", "re_as", "im_as")
    rows = [(t, b.c, b.k1, b.k2, s.p_gg, s.p_ee, s.p_aa, s.p_ss, s.c_as.real, s.c_as.imag)
            for t, s in trajectory(state0, c, cfg.tau_max, cfg.samples)
            for b in (concurrence_x(s),)]
    return _emit(cfg, dict(zip(names, zip(*rows))))


def _rate_triplet(cfg: RunConfig, with_d: bool):
    c = coefficients(_sim_config(cfg, with_d=with_d))
    state0 = _initial_state(cfg)
    numeric = numerical_initial_rate(state0, c)
    singular = False
    try:
        raw = (initial_rate_superposition(c, cfg.theta, cfg.phi) if cfg.init == "superposition"
               else generation_rate_product(c))
    except FormulaSingularError:  # the finite difference is the rate there
        raw, singular = numeric, True
    return raw, clamped_rate(concurrence_x(state0).k1, raw), numeric, singular


def _cmd_rate(cfg: RunConfig) -> int:
    on, off = _rate_triplet(cfg, True), _rate_triplet(cfg, False)
    cols = {f"{kind}_{switch}": [value]
            for switch, rates in (("with_d", on), ("without_d", off))
            for kind, value in zip(("analytic", "clamped", "numerical"), rates)}
    cols["formula_singular"] = [on[3] or off[3]]
    return _emit(cfg, cols)


def _cmd_region(cfg: RunConfig) -> int:
    mask = default_region_scan(cfg.grid)
    omega_l, accel = np.meshgrid(mask.omega_l, mask.accel)  # rows: accel outer, omega_l inner
    cols = {"omega_l": omega_l.ravel(), "a_over_omega": accel.ravel(),
            "with_d": mask.with_interaction.ravel(), "without_d": mask.without_interaction.ravel()}
    return _emit(cfg, cols)


def _cmd_sweep(cfg: RunConfig) -> int:
    fixed_axis = "accel_ratio" if cfg.accel is not None else "separation"
    fixed_value = cfg.accel if cfg.accel is not None else cfg.sep
    sweep_range = None
    if cfg.sweep_min is not None or cfg.sweep_max is not None:
        if cfg.sweep_min is None or cfg.sweep_max is None:
            raise UsageError("--sweep-min and --sweep-max must be given together")
        sweep_range = (cfg.sweep_min, cfg.sweep_max)
    if cfg.quantity == "rate":
        if cfg.init == "xstate":
            raise UsageError("rate sweeps support --init product-eg or superposition")
        result = rate_sweep(
            fixed_axis, fixed_value, sweep_range, cfg.points,
            initial=cfg.init, theta=cfg.theta or 0.0, phi=cfg.phi or 0.0,
            gamma0=cfg.gamma0,
        )
    else:
        result = max_concurrence_sweep(
            fixed_axis, fixed_value, sweep_range, cfg.points,
            state0=_initial_state(cfg), tau_max=cfg.tau_max, gamma0=cfg.gamma0,
        )
    cols = {
        "x": result.values,
        "value_with_d": result.with_interaction,
        "value_without_d": result.without_interaction,
    }
    return _emit(cfg, cols)


def _cmd_maxc(cfg: RunConfig) -> int:
    state0 = _initial_state(cfg)
    sets = [coefficients(_sim_config(cfg, with_d)) for with_d in (True, False)]
    (c_on, c_off), (t_on, t_off) = max_concurrence(state0, sets, cfg.tau_max)
    cols = {
        "c_max_with_d": [c_on],
        "tau_star_with_d": [t_on],
        "c_max_without_d": [c_off],
        "tau_star_without_d": [t_off],
    }
    return _emit(cfg, cols)


def _cmd_steady(cfg: RunConfig) -> int:
    s = steady_state(coefficients(_sim_config(cfg)))
    cols = {
        "p_gg": [s.p_gg], "p_ee": [s.p_ee], "p_aa": [s.p_aa], "p_ss": [s.p_ss],
        "concurrence": [concurrence_x(s).c],
    }
    return _emit(cfg, cols)


def _cmd_oracle(cfg: RunConfig) -> int:
    c = coefficients(_sim_config(cfg))
    state0 = _initial_state(cfg)
    # /32 keeps the step-halving check comfortable even for a single long
    # segment dominated by the exchange phase rotation
    dt = step_bound(c) / 32.0
    if dt == 0.0:  # 40*a1 overflowed: so would the dense generator
        raise InvalidParameterError("the rates overflow the float range of the integrator",
                                    code="rate-overflow")
    n = cfg.samples
    _check_sample_count(n)
    data = build_gkls(c)
    taus = np.linspace(0.0, cfg.tau_max, n)
    rho = from_xstate(state0)
    cols = {"tau": [], "max_abs_diff": []}
    worst = 0.0
    for k in range(n):
        if k > 0:
            rho = integrate(rho, data, taus[k] - taus[k - 1], dt)
        reference = evolve(state0, c, float(taus[k]))
        got = to_xstate(rho)
        diff = max(abs(getattr(got, k) - getattr(reference, k))
                   for k in ("p_gg", "p_ee", "p_aa", "p_ss", "c_as", "c_ge"))
        worst = max(worst, diff)
        cols["tau"].append(float(taus[k]))
        cols["max_abs_diff"].append(diff)
    _emit(cfg, cols)
    if worst > 1e-8:
        raise NonConvergenceError(
            f"dense integrator deviates from the closed form by {worst:.3e}"
        )
    return _EXIT_OK


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "evolve": _cmd_evolve,
    "rate": _cmd_rate,
    "region": _cmd_region,
    "sweep": _cmd_sweep,
    "maxc": _cmd_maxc,
    "steady": _cmd_steady,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_cli(argv)
        return _COMMANDS[cfg.command](cfg)
    except SimulationError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return _EXIT_USAGE
        numeric = (NonConvergenceError, HorizonError, FormulaSingularError)
        return _EXIT_NUMERIC if isinstance(exc, numeric) else _EXIT_INVALID
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
