"""Command-line surface: every computation as a reproducible batch run.

Output is CSV or JSON with a metadata header (tool version, canonical
config echo, config hash, the s0 value in use); identical configs produce
byte-identical output.  Exit codes: 0 success, 1 the output could not be
written, 2 invalid configuration or out of memory, 3 numerical
non-convergence or overflow.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
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

# The Thomas sampler gives up after this many rejected draws in a row.  No
# point is farther than 2 sqrt(3) from a coincidence set, so h >= sqrt(3)/6
# rejects every draw; an h accepting one draw in 100 gives up with
# probability 0.99^10000 < 1e-43.
_THOMAS_MAX_MISSES = 10000
_THOMAS_BLOCK = 256  # Thomas points per array pass: memory bounded at any --n-points
_CSV_BLOCK = 4096  # CSV rows formatted by one %-template

@dataclass(frozen=True)
class RunConfig:
    """A validated batch run: command, parameters, destination."""

    command: str
    parameters: dict = field(default_factory=dict)
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        _, _, spec = _COMMANDS[self.command]
        clean: dict[str, object] = {}
        for key, raw in self.parameters.items():
            if key not in spec:
                raise ValueError(f"unknown parameter {key!r} for command {self.command!r}")
            typ, _ = spec[key]
            if isinstance(raw, bool) or (typ is int and isinstance(raw, float)
                                         and not raw.is_integer()):
                raise ValueError(f"parameter {key!r}: {raw!r} is not a valid {typ.__name__}")
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

    def canonical(self) -> str:
        return json.dumps({"command": self.command, "format": _COMMANDS[self.command][1],
                           "parameters": self.parameters}, sort_keys=True)

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def _fmt(x) -> str:
    # "%.17g" % x is format(x, ".17g") for floats (np.float64 included);
    # "%s" % (x,) is str(x)
    return ("%.17g" if isinstance(x, float) else "%s") % (x,)


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


def emit_csv(config: RunConfig, s0: float, table: dict[str, object],
             notes: tuple[str, ...] = ()) -> None:
    """Write the metadata header, a "# note" line per note, then the table
    {column name: values}.  Float64 and integer array columns are formatted
    by %.17g and %d, _CSV_BLOCK rows per %-template, other columns value by
    value by _fmt: every cell has the bytes _fmt gives its value."""
    columns = list(table.values())
    n = len(columns[0]) if columns else 0
    if any(len(values) != n for values in columns):
        raise ValueError("table columns differ in length")
    specs = ["%.17g" if isinstance(v, np.ndarray) and v.dtype == np.float64 else
             "%d" if isinstance(v, np.ndarray) and v.dtype.kind in "iu" else "%s" for v in columns]
    template = ",".join(specs) + "\n"
    lines = _meta_lines(config, s0) + [f"# {note}" for note in notes] + [",".join(table)]
    text = ["\n".join(lines) + "\n"]
    for lo in range(0, n, _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, n)
        flat = [None] * ((hi - lo) * len(columns))
        for j, (spec, values) in enumerate(zip(specs, columns)):
            flat[j::len(columns)] = (list(map(_fmt, values[lo:hi])) if spec == "%s"
                                     else values[lo:hi].tolist())
        text.append(template * (hi - lo) % tuple(flat))
    _write_atomic(config.output_path, "".join(text))


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
    n, mu, energy = zip(*ladder_mod.build_ladder(p["beta"], n_lo, n_hi, found.s0))
    ratio = [math.exp(2.0 * math.pi / found.s0)] * len(n)
    residual = [ladder_mod.quantization_residual(m, p["beta"], found.s0) for m in mu]
    emit_csv(config, found.s0, {"n": n, "mu": mu, "energy": energy, "ratio": ratio,
                                "quantization_residual": residual})


def _run_symbol(config: RunConfig, s0: float) -> None:
    p = config.parameters
    scan = symbols.certify_positivity(p["delta"], p["s_max"], p["n"])
    s = symbols.symbol_samples(p["s_max"], p["n"])
    bracket = np.zeros(s.size, dtype=int)
    bracket[np.searchsorted(s, [lo for lo, _ in scan.sign_changes])] = 1
    emit_csv(config, s0, {"s": s, "g": symbols.eval_g(s),
                          "reg_symbol": symbols.eval_reg_symbol(s, p["delta"]),
                          "sign_change_bracket": bracket},
             notes=(f"scan: min_value={_fmt(scan.min_value)} argmin={_fmt(scan.argmin)} "
                    f"n_sign_changes={len(scan.sign_changes)}",))


def _run_scan(config: RunConfig, s0: float) -> None:
    p = config.parameters
    grid = stm.build_grid(p["p_min"], p["p_max"], p["grid"])
    result = stm.scan_spectrum(grid, p["delta"], p["mu_lo"], p["mu_hi"], p["n_mu"])
    crossing = [";".join(_fmt(c) for c in result.crossings if lo <= c < hi)
                for lo, hi in zip(result.mus, result.mus[1:])] + [""]  # n_mu >= 2
    emit_csv(config, s0, {"mu": result.mus, "smallest_eigenvalue": result.smallest,
                          "negative_count": result.negative_counts, "crossing": crossing})


def _run_residual(config: RunConfig, s0: float) -> None:
    p = config.parameters
    value = stm.closed_form_residual(p["mu"], n=p["n"], s0=s0)
    emit_json(config, s0, {"mu": p["mu"], "n": p["n"], "residual": value})


def _thomas_draws(rng: np.random.Generator, h: float):
    """The draws (s1, s2) farther than 12 h from the degenerate sets, in order.

    Candidates are drawn _THOMAS_BLOCK at a time, as rows of six uniform
    doubles (the doubles of two 3-vector draws per candidate, in order), and
    tested in one array pass; a candidate that ThomasPoint would reject is a
    miss.  Ends after _THOMAS_MAX_MISSES misses in a row."""
    misses = 0  # consecutive rejected draws
    while True:
        block = rng.uniform(-2.0, 2.0, size=(_THOMAS_BLOCK, 6))
        s1, s2 = block[:, :3], block[:, 3:]
        separation, finite = thomas._separations(s1, s2)
        last = -1
        for i in np.flatnonzero(finite & (separation != 0.0) & (separation > 12.0 * h)).tolist():
            misses += i - last - 1
            if misses >= _THOMAS_MAX_MISSES:
                return
            misses, last = 0, i
            yield s1[i], s2[i]
        misses += _THOMAS_BLOCK - 1 - last
        if misses >= _THOMAS_MAX_MISSES:
            return


def _thomas_rows(s1: np.ndarray, s2: np.ndarray, eta: float, h: float, eps: float) -> np.ndarray:
    """The table rows of sampled points (s1, s2)."""
    try:
        residual = thomas.pde_residuals(s1, s2, eta, h)
        estimate = thomas.boundary_coefficients(s2, eta, eps)
    except ValueError:  # the first failing point's error, its PDE check first
        for i in range(len(s1)):
            thomas.pde_residuals(s1[i:i + 1], s2[i:i + 1], eta, h)
            thomas.boundary_coefficients(s2[i:i + 1], eta, eps)
        raise
    r2 = thomas._norms(s2)
    reference = (math.pi / thomas.SQRT3) * k0(eta * r2) / r2
    return np.column_stack([s1, s2, thomas.psi(s1, s2, eta), residual, estimate, reference])


def _run_thomas(config: RunConfig, s0: float) -> None:
    p = config.parameters
    eta, h, n_points = p["eta"], p["h"], p["n_points"]
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    if not n_points > 0:
        raise ValueError("n_points must be positive")
    draws = _thomas_draws(np.random.default_rng(p["seed"]), h)
    blocks = []
    for start in range(0, n_points, _THOMAS_BLOCK):
        size = min(_THOMAS_BLOCK, n_points - start)
        block = list(itertools.islice(draws, size))
        if block:
            blocks.append(_thomas_rows(*map(np.array, zip(*block)), eta, h, p["eps"]))
        if len(block) < size:
            raise ValueError(
                f"h = {h} too large: {_THOMAS_MAX_MISSES} draws in a row found no point "
                f"of [-2, 2]^3 x [-2, 2]^3 farther than 12 h from a coincidence set")
    emit_csv(config, s0, dict(zip(["s1x", "s1y", "s1z", "s2x", "s2y", "s2z", "psi",
                                   "pde_residual", "bc_estimate", "bc_reference"],
                                  np.concatenate(blocks).T)))


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
    xs = _parse_floats(p["x"])
    odd = oracle_mod.odd_extension_check(lambda y: np.sin(s0 * y), xs).tolist()
    balance = oracle_mod.convolution_balance(s0, xs).tolist()
    for x, err, bal in zip(xs, odd, balance):
        # vacuous: the mirror terms cannot reach the tolerance, so no error could fail the row
        vacuous = oracle_mod.mirror_bound(x) <= 1e-6
        rows.append(("odd_extension", x, err, 0.0, err,
                     "fail" if not err <= 1e-6 else "vacuous" if vacuous else "pass"))
        rows.append(("balance_at_s0", x, bal, 0.0, abs(bal),
                     "pass" if abs(bal) <= 1e-6 else "fail"))
    emit_csv(config, s0, dict(zip(["check", "param", "numeric", "analytic", "abs_err", "status"],
                                  zip(*rows))))


# command -> (runner, output format, {parameter: (type, default)}); a None
# default means required.  No parameter takes a boolean, and an int parameter
# no non-integral number.
_COMMANDS: dict[str, tuple] = {
    "s0": (_run_s0, "json", {"tol": (float, 1e-12)}),
    "delta0": (_run_delta0, "json", {}),
    "ladder": (_run_ladder, "csv",
               {"beta": (float, 0.0), "n": (str, "-3..3"), "tol": (float, 1e-12)}),
    "symbol": (_run_symbol, "csv",
               {"delta": (float, None), "s_max": (float, 50.0), "n": (int, 5000)}),
    "scan": (_run_scan, "csv",
             {"delta": (float, None), "mu_lo": (float, 1e-3), "mu_hi": (float, 1e3),
              "n_mu": (int, 31), "grid": (int, 1000), "p_min": (float, 1e-4),
              "p_max": (float, 1e4)}),
    "residual": (_run_residual, "json", {"mu": (float, 1.0), "n": (int, 2000)}),
    "thomas": (_run_thomas, "csv",
               {"eta": (float, 1.0), "n_points": (int, 10), "h": (float, 1e-3),
                "eps": (float, 1e-3), "seed": (int, 12345)}),
    "oracle": (_run_oracle, "csv",
               {"s": (str, "0.25,0.5,1,2,5,10"), "x": (str, "0.5,1,2"), "tol": (float, 1e-9)}),
}


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        s0 = symbols.default_s0()
        _COMMANDS[config.command][0](config, s0)
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
    for command, (_, _, spec) in _COMMANDS.items():
        p = sub.add_parser(command)
        for name, (typ, _) in spec.items():
            p.add_argument("--" + name.replace("_", "-"), type=typ)
        p.add_argument("--out")
        p.add_argument("--config", help="JSON file with a parameters object")
    ns = parser.parse_args(argv)
    params: dict[str, object] = {}
    if ns.config is not None:
        with open(ns.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        params.update(loaded)
    for name in _COMMANDS[ns.command][2]:
        value = getattr(ns, name)
        if value is not None:
            params[name] = value
    return RunConfig(command=ns.command, parameters=params, output_path=ns.out)


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
