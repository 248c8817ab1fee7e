"""Command-line surface: every computation as a reproducible batch run.

Output is CSV or JSON with a metadata header (tool version, canonical
config echo, config hash, the s0 value in use); identical configs produce
byte-identical output.  Exit codes: 0 success, 2 invalid configuration or
out of memory, 3 numerical non-convergence or overflow.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import ladder as ladder_mod
from . import oracle as oracle_mod
from . import stm, symbols, thomas
from .specfun import k0

_COMMANDS = ("s0", "delta0", "ladder", "symbol", "scan", "residual", "thomas", "oracle")

# command -> {parameter: (type, default)}; None default means required
_PARAMS: dict[str, dict[str, tuple[type, object]]] = {
    "s0": {"tol": (float, 1e-12)},
    "delta0": {},
    "ladder": {"beta": (float, 0.0), "n": (str, "-3..3"), "tol": (float, 1e-12)},
    "symbol": {"delta": (float, None), "s_max": (float, 50.0), "n": (int, 5000)},
    "scan": {"delta": (float, None), "mu_lo": (float, 1e-3), "mu_hi": (float, 1e3),
             "n_mu": (int, 31), "grid": (int, 1000), "p_min": (float, 1e-4),
             "p_max": (float, 1e4)},
    "residual": {"mu": (float, 1.0), "n": (int, 2000), "delta": (float, 0.0)},
    "thomas": {"eta": (float, 1.0), "n_points": (int, 10), "h": (float, 1e-3),
               "eps": (float, 1e-3), "seed": (int, 12345)},
    "oracle": {"s": (str, "0.25,0.5,1,2,5,10"), "x": (str, "0.5,1,2"),
               "tol": (float, 1e-9)},
}

# The Thomas sampler gives up after this many rejected draws in a row.  No
# point is farther than 2 sqrt(3) from a coincidence set, so h >= sqrt(3)/6
# rejects every draw; an h accepting one draw in 100 gives up with
# probability 0.99^10000 < 1e-43.
_THOMAS_MAX_MISSES = 10000

_FORMATS = {"s0": "json", "delta0": "json", "residual": "json",
            "ladder": "csv", "symbol": "csv", "scan": "csv",
            "thomas": "csv", "oracle": "csv"}


@dataclass(frozen=True)
class RunConfig:
    """A validated batch run: command, parameters, destination, format."""

    command: str
    parameters: dict = field(default_factory=dict)
    output_path: str | None = None
    format: str = ""

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        spec = _PARAMS[self.command]
        clean: dict[str, object] = {}
        for key, raw in self.parameters.items():
            if key not in spec:
                raise ValueError(f"unknown parameter {key!r} for command {self.command!r}")
            typ, _ = spec[key]
            try:
                clean[key] = typ(raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"parameter {key!r}: {exc}") from exc
            if typ is float and not math.isfinite(clean[key]):
                raise ValueError(f"parameter {key!r} must be finite, got {raw!r}")
        for key, (_, default) in spec.items():
            if key not in clean:
                if default is None:
                    raise ValueError(f"missing required parameter {key!r}")
                clean[key] = default
        object.__setattr__(self, "parameters", clean)
        fmt = self.format or _FORMATS[self.command]
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        if fmt != _FORMATS[self.command]:
            raise ValueError(
                f"command {self.command!r} emits {_FORMATS[self.command]}, not {fmt}")
        object.__setattr__(self, "format", fmt)

    def canonical(self) -> str:
        return json.dumps({"command": self.command, "format": self.format,
                           "parameters": self.parameters}, sort_keys=True)

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _meta_lines(config: RunConfig, s0: float) -> list[str]:
    return [
        f"# tribos {__version__}",
        f"# config: {config.canonical()}",
        f"# config_sha256: {config.sha256()}",
        f"# s0: {_fmt(s0)}",
    ]


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tribos-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_csv(config: RunConfig, s0: float, columns: list[str], rows: list[tuple],
             notes: tuple[str, ...] = ()) -> None:
    """Write the metadata header, a "# note" line per note, then the table."""
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row does not match the column schema")
    lines = _meta_lines(config, s0) + [f"# {note}" for note in notes]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write_atomic(config.output_path, "\n".join(lines) + "\n")


def emit_json(config: RunConfig, s0: float, doc: dict) -> None:
    payload = {
        "meta": {
            "tool": f"tribos {__version__}",
            "config": json.loads(config.canonical()),
            "config_sha256": config.sha256(),
            "s0": s0,
        },
        "result": doc,
    }
    _write_atomic(config.output_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def _parse_floats(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"values must be finite, got {text!r}")
    return values


def _run_s0(config: RunConfig, s0: float) -> None:
    found = symbols.find_s0(config.parameters["tol"])
    emit_json(config, found.s0,
              {"s0": found.s0, "residual": found.residual, "tol": found.tol})


def _run_delta0(config: RunConfig, s0: float) -> None:
    emit_json(config, s0, {
        "delta0": symbols.delta0(),
        "gamma_bound": symbols.gamma_bound(),
        "delta_bound": symbols.delta_bound(),
        "gamma_bound_mapped": symbols.gamma_to_delta(symbols.gamma_bound()),
    })


def _run_ladder(config: RunConfig, s0: float) -> None:
    p = config.parameters
    n_lo, n_hi = _parse_range(p["n"])
    found = symbols.find_s0(p["tol"])
    built = ladder_mod.build_ladder(p["beta"], n_lo, n_hi, found.s0)
    ratio = math.exp(2.0 * math.pi / found.s0)
    rows = []
    for n, mu, energy in built.entries:
        rows.append((n, mu, energy, ratio,
                     ladder_mod.quantization_residual(mu, p["beta"], found.s0)))
    emit_csv(config, found.s0,
             ["n", "mu", "energy", "ratio", "quantization_residual"], rows)


def _run_symbol(config: RunConfig, s0: float) -> None:
    p = config.parameters
    scan = symbols.certify_positivity(p["delta"], p["s_max"], p["n"])
    s = symbols.symbol_samples(p["s_max"], p["n"])
    bracket = np.zeros(s.size, dtype=int)
    bracket[np.searchsorted(s, [lo for lo, _ in scan.sign_changes])] = 1
    rows = list(zip(s.tolist(), symbols.eval_g(s).tolist(),
                    symbols.eval_reg_symbol(s, p["delta"]).tolist(), bracket.tolist()))
    emit_csv(config, s0, ["s", "g", "reg_symbol", "sign_change_bracket"], rows,
             notes=(f"scan: min_value={_fmt(scan.min_value)} argmin={_fmt(scan.argmin)} "
                    f"n_sign_changes={len(scan.sign_changes)}",))


def _run_scan(config: RunConfig, s0: float) -> None:
    p = config.parameters
    grid = stm.build_grid(p["p_min"], p["p_max"], p["grid"])
    result = stm.scan_spectrum(grid, p["delta"], p["mu_lo"], p["mu_hi"], p["n_mu"])
    rows = []
    for i, mu in enumerate(result.mus):
        inside = ""
        if i + 1 < len(result.mus):
            hits = [c for c in result.crossings
                    if result.mus[i] <= c < result.mus[i + 1]]
            inside = ";".join(_fmt(c) for c in hits)
        rows.append((float(mu), float(result.smallest[i]),
                     int(result.negative_counts[i]), inside))
    emit_csv(config, s0, ["mu", "smallest_eigenvalue", "negative_count", "crossing"], rows)


def _run_residual(config: RunConfig, s0: float) -> None:
    p = config.parameters
    value = stm.closed_form_residual(p["mu"], n=p["n"], delta=p["delta"], s0=s0)
    emit_json(config, s0, {"mu": p["mu"], "n": p["n"], "delta": p["delta"],
                           "residual": value})


def _run_thomas(config: RunConfig, s0: float) -> None:
    p = config.parameters
    if not p["eta"] > 0.0:
        raise ValueError("eta must be positive")
    if not p["n_points"] > 0:
        raise ValueError("n_points must be positive")
    rng = np.random.default_rng(p["seed"])
    rows = []
    count = 0
    misses = 0  # consecutive rejected draws
    while count < p["n_points"]:
        if misses == _THOMAS_MAX_MISSES:
            raise ValueError(
                f"h = {p['h']} too large: {misses} draws in a row found no point "
                f"of [-2, 2]^3 x [-2, 2]^3 farther than 12 h from a coincidence set")
        s1 = rng.uniform(-2.0, 2.0, size=3)
        s2 = rng.uniform(-2.0, 2.0, size=3)
        misses += 1
        try:
            pt = thomas.ThomasPoint(s1=s1, s2=s2, eta=p["eta"])
        except ValueError:
            continue
        if pt.min_separation() <= 12.0 * p["h"]:
            continue
        misses = 0
        psi = thomas.thomas_psi(pt)
        res = thomas.pde_residual(pt, p["h"])
        bc_est = thomas.boundary_coefficient(s2, p["eta"], p["eps"])
        r2 = float(np.linalg.norm(s2))
        bc_ref = (math.pi / math.sqrt(3.0)) * k0(p["eta"] * r2) / r2
        rows.append((*s1, *s2, psi, res, bc_est, bc_ref))
        count += 1
    emit_csv(config, s0,
             ["s1x", "s1y", "s1z", "s2x", "s2y", "s2z",
              "psi", "pde_residual", "bc_estimate", "bc_reference"], rows)


def _run_oracle(config: RunConfig, s0: float) -> None:
    p = config.parameters
    tol = p["tol"]
    rows = []
    for name, check in oracle_mod.check_transforms(_parse_floats(p["s"])):
        rows.append((f"transform_{name}", check.s, check.numeric, check.analytic,
                     check.abs_err, "pass" if check.abs_err <= 10.0 * tol else "fail"))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-5.0, 5.0, size=2)
        plus, minus = oracle_mod.factorization_check(float(x), float(y))
        scale = max(1.0, math.cosh(x + y) * math.cosh(x - y))
        worst = max(worst, plus / scale, minus / scale)
    rows.append(("factorization", 0.0, worst, 0.0, worst,
                 "pass" if worst <= 1e-10 else "fail"))
    for x in _parse_floats(p["x"]):
        err = oracle_mod.odd_extension_check(lambda y: math.sin(s0 * y), x)
        rows.append(("odd_extension", x, err, 0.0, err,
                     "pass" if err <= 1e-6 else "fail"))
        bal = oracle_mod.convolution_balance(s0, x)
        rows.append(("balance_at_s0", x, bal, 0.0, abs(bal),
                     "pass" if abs(bal) <= 1e-6 else "fail"))
    emit_csv(config, s0, ["check", "param", "numeric", "analytic", "abs_err", "status"],
             rows)


_RUNNERS = {"s0": _run_s0, "delta0": _run_delta0, "ladder": _run_ladder,
            "symbol": _run_symbol, "scan": _run_scan, "residual": _run_residual,
            "thomas": _run_thomas, "oracle": _run_oracle}


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        s0 = symbols.default_s0()
        _RUNNERS[config.command](config, s0)
    except (np.linalg.LinAlgError, RuntimeError, OverflowError) as exc:
        # before ValueError, a base of LinAlgError; QuadratureBudgetError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc!r}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc} (path: {config.output_path})", file=sys.stderr)
        return 1
    return 0


def build_config(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="tribos",
        description="Spectral structure of three-boson zero-range models")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _PARAMS.items():
        p = sub.add_parser(command)
        for name, (typ, default) in spec.items():
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, type=typ, default=None, required=False)
        p.add_argument("--out", default=None)
        p.add_argument("--format", default=None)
        p.add_argument("--config", default=None,
                       help="JSON file with a parameters object")
    ns = parser.parse_args(argv)
    params: dict[str, object] = {}
    if ns.config is not None:
        with open(ns.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        params.update(loaded)
    for name in _PARAMS[ns.command]:
        value = getattr(ns, name.replace("-", "_"))
        if value is not None:
            params[name] = value
    return RunConfig(command=ns.command, parameters=params,
                     output_path=ns.out, format=ns.format or "")


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
