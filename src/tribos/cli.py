"""Command-line surface: every computation as a reproducible batch run.

Output is CSV or JSON with a metadata header (tool version, canonical
config echo, config hash, the s0 value in use); identical configs produce
byte-identical output on one machine and numpy build (the last bits of
numpy's exp, expm1 and tanh follow the SIMD level it dispatches to).  Exit
codes: 0 success, 1 the output could not be written, 2 invalid
configuration or out of memory, 3 numerical non-convergence or overflow.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import ladder as ladder_mod
from . import oracle as oracle_mod
from . import stm, symbols, thomas

_CSV_BLOCK = 4096  # CSV rows formatted by one array pass: bounds its working memory

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
    """Write text as one chunk of _write_chunks.  bench/layers.py counts the
    bytes written through this name, so it keeps taking a str."""
    _write_chunks(path, (text.encode("utf-8"),))


def _write_chunks(path: str | None, chunks: Iterable[bytes]) -> None:
    """Write chunks of UTF-8 text, each ending at a line end, as they come:
    to stdout, or into a temporary file renamed onto path after the last."""
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk.decode("utf-8", "surrogatepass"))
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tribos-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# A CSV row block is built as fixed-width fields of little-endian words, one
# per cell, each the cell's "," then its text, _PAD filling the bytes the cell
# leaves unused; deleting _PAD and each row's first "," leaves the block's
# text.  UTF-8 never holds the byte 0xff, so a text cell keeps all its bytes.
_PAD = b"\xff"
_U32, _U64 = np.dtype("<u4"), np.dtype("<u8")
_K = 300  # the per-exponent tables span k in [-_K, _K); fast-path cells have |k| <= 292


@functools.lru_cache(maxsize=None)
def _pow10(q: int) -> tuple[float, float, float, float]:
    """10^q as hi + lo, each the nearest double, and hi's Dekker halves."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    hi = num / den  # int / int rounds correctly
    a, b = hi.as_integer_ratio()
    m, e = math.frexp(hi)
    c = 134217729.0 * m  # 2^27 + 1
    top = c - (c - m)
    return hi, (num * b - a * den) / (den * b), math.ldexp(top, e), math.ldexp(m - top, e)


@functools.lru_cache(maxsize=None)
def _cell_tables() -> tuple[np.ndarray, ...]:
    """The cell kernels' lookup tables, built on first use.

    The four ASCII digits of 0..9999 as a word, and their trailing zeros (4
    for 0000); a float field's keep, shift and fill words per (c, L), for a
    '.' at region byte c and L region bytes kept (see _float_cells); and per
    exponent k: c, the index of the last digit always kept (the units digit
    in fixed notation) and the "e+XX" word; the first word (",", sign,
    "0.000" prefix) per sign and min(max(k, -5), 0)."""
    d = np.arange(10000, dtype=np.int16)
    quad = (np.stack([d // 1000, d // 100, d // 10, d], axis=1) % 10 + 48).astype(np.uint8)
    zeros = (d % 10 == 0).astype(np.int8) + (d % 100 == 0) + (d % 1000 == 0) + (d == 0)
    j = np.arange(32) - 8  # the region byte of each field byte
    c, kept = np.arange(18)[:, None, None], np.arange(19)[None, :, None]
    masks = np.stack([
        ((j < c) & (j < kept)) * np.uint8(255), ((j > c) & (j < kept)) * np.uint8(255),
        np.where(j >= kept, np.uint8(255), np.where(j == c, np.uint8(ord(".")), np.uint8(0)))])
    ks = np.arange(-_K, _K)
    fixed = (ks >= -4) & (ks <= 16)
    first = b"".join((b"," + sign + (b"0." + b"0" * (-k - 1) if -5 < k < 0 else b""))
                     .ljust(8, _PAD) for k in range(-5, 1) for sign in (_PAD, b"-"))
    expo = b"".join((b"" if -4 <= k <= 16 else _PAD * 2 + b"e%+03d" % k).ljust(8, _PAD)
                    for k in ks.tolist())
    return (quad.view(_U32).ravel(), zeros,
            masks.view(_U64).reshape(3, 18 * 19, 4),
            np.where(fixed, np.where(ks < 0, 17, ks + 1), 1), np.where(fixed & (ks >= 0), ks, 0),
            np.frombuffer(first, _U64), np.frombuffer(expo, _U64))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = round(a 10^(16 - k)) as int64, and whether that rounding is sure.

    a 10^q is p + t: p = a hi rounded, t its exact error (Dekker's product,
    no FMA) plus a lo.  Near 10^16..10^17 p is an integer and p + t is within
    1e-14 of a 10^q, so a fraction of t farther than 1e-9 from 1/2 decides
    the rounding; a tie like 1234567890123456.75 is never sure."""
    q = 16 - k
    q0 = int(q.min())
    table = np.array([_pow10(v) for v in range(q0, int(q.max()) + 1)]).T
    hi, lo, hh, hl = table.take(q - q0, axis=1)
    p = a * hi
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    r = np.rint(t)
    return p.astype(np.int64) + r.astype(np.int64), np.abs(t - r) < 0.5 - 1e-9


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The fields of "," + "%.17g" % v for each v of the float64 array x:
    (len(x), 8) words.

    A field is 32 bytes: ",", the sign, "0." and up to three zeros (fixed
    notation below 1), then from byte 8 the region: the 17 digits of
    N = round(|v| 10^(16 - k)), k = floor(log10 |v|) for 10^16 <= N < 10^17,
    with the '.' inserted at byte c, after the integer digits, and trailing
    zeros dropped, then "e+XX" for k outside [-4, 16].  A cell the
    double-double product does not decide goes through "%.17g", as do 0,
    inf, nan, subnormals and |v| beyond 1e+-290."""
    quad, zeros4, masks, dot, min_kept, first, expo = _cell_tables()
    a = np.abs(x)
    ok = (a >= 1e-290) & (a < 1e290)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    big, sure = _scaled(a, k)
    for step in (-1, 1):  # log10 may be one off, and N within 1/2 of 10^16 may need k - 1
        i = (big <= 10**16 if step < 0 else big > 10**17).nonzero()[0]
        if i.size:
            k[i] += step
            big[i], sure[i] = _scaled(a[i], k[i])
    carry = big == 10**17  # rounded up to 18 digits: 10^16 at k + 1
    big[carry] = 10**16
    k[carry] += 1
    bad = (~(ok & sure & (big >= 10**16) & (big < 10**17))).nonzero()[0]
    head = big // 10
    last = big - 10 * head
    g1 = head // 10**12
    r = head - g1 * 10**12
    g2 = r // 10**8
    r -= g2 * 10**8
    g3 = r // 10**4
    g4 = r - g3 * 10**4
    ki = k + _K
    cell = np.empty((x.size, 4), _U64)
    cell[:, 0] = first.take(2 * np.clip(k, -5, 0) + 10 + np.signbit(x))
    words = cell.view(_U32)
    for j, g in enumerate((g1, g2, g3, g4)):
        words[:, 2 + j] = quad.take(g)
    words[:, 6] = last + 0xFFFFFF30
    words[:, 7] = 0xFFFFFFFF
    alive = last == 0
    tz = alive.astype(np.int64)
    for g in (g4, g3, g2, g1):
        tz += alive * zeros4.take(g)
        alive &= g == 0
    shifted = np.empty_like(cell)  # the field one byte on
    shifted.view(np.uint8).reshape(-1)[1:] = cell.view(np.uint8).reshape(-1)[:-1]
    c = dot.take(ki)
    m = np.maximum(16 - tz, min_kept.take(ki))  # the last digit kept
    keep, move, fill = masks.take(19 * c + m + 1 + (m >= c), axis=1)  # '.' kept if m >= c
    cell &= keep
    cell |= shifted & move
    cell |= fill
    cell[:, 3] &= expo.take(ki)
    if bad.size:
        text = b"".join((b",%.17g" % v).ljust(32, _PAD) for v in x[bad].tolist())
        cell.view(np.uint8)[bad] = np.frombuffer(text, np.uint8).reshape(-1, 32)
    return words


def _int_cells(v: np.ndarray) -> np.ndarray:
    """The fields of "," + "%d" % x for each x of the integer array v:
    (len(v), 1 + w) words, "," and sign in the first, the digits in w more."""
    quad = _cell_tables()[0]
    neg = v < 0
    mag = v.astype(_U64)
    np.negative(mag, out=mag, where=neg)  # modulo 2^64: |x| for every int64
    w = -(-len(str(mag.max())) // 4)
    cell = np.empty((v.size, 1 + w), _U32)
    cell[:, 0] = np.where(neg, 0x2DFFFF2C, 0xFFFFFF2C)
    for j in range(w):
        cell[:, 1 + j] = quad.take(mag // 10 ** (4 * (w - 1 - j)) % 10**4)
    digits = 1 + np.searchsorted(10 ** np.arange(1, 20, dtype=np.uint64), mag, side="right")
    leading = ((np.arange(4 * w) < np.arange(4 * w + 1)[:, None]) * 255).astype(np.uint8)
    cell[:, 1:] |= leading.view(_U32).take(4 * w - digits, axis=0)
    return cell


def _text_cells(values) -> np.ndarray:
    """The fields of "," + _fmt(x), UTF-8, for each x of values: (len(values), w) words."""
    cells = [b"," + _fmt(x).encode("utf-8", "surrogatepass") for x in values]
    w = -(-max(map(len, cells)) // 4)
    return np.frombuffer(b"".join(c.ljust(4 * w, _PAD) for c in cells),
                         _U32).reshape(len(cells), w)


def emit_csv(config: RunConfig, s0: float, table: dict[str, object],
             notes: tuple[str, ...] = ()) -> None:
    """Write the metadata header, a "# note" line per note, then the table
    {column name: values}.  Every cell has the bytes _fmt gives its value:
    float64 and integer array columns are formatted by array passes of
    _CSV_BLOCK rows, other columns value by value.  Each block is written
    as soon as it is built, so the writer holds one block, not the table."""
    columns = list(table.values())
    n = len(columns[0]) if columns else 0
    if any(len(values) != n for values in columns):
        raise ValueError("table columns differ in length")
    kernels = [_float_cells if isinstance(v, np.ndarray) and v.dtype == np.float64 else
               _int_cells if isinstance(v, np.ndarray) and v.dtype.kind in "iu" else
               _text_cells for v in columns]
    lines = _meta_lines(config, s0) + [f"# {note}" for note in notes] + [",".join(table)]

    def chunks():
        yield ("\n".join(lines) + "\n").encode("utf-8")
        for lo in range(0, n, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, n)
            fields = [kernel(values[lo:hi]) for kernel, values in zip(kernels, columns)]
            fields.append(np.full((hi - lo, 1), 0xFFFFFF0A, _U32))  # the row's "\n"
            block = np.concatenate(fields, axis=1)
            block.view(np.uint8)[:, 0] = 0xFF  # the first cell's ","
            yield block.tobytes().translate(None, _PAD)

    _write_chunks(config.output_path, chunks())


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
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"n must be a range lo..hi of integers, got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"values must be finite, got {text!r}")
    return values


def _run_s0(config: RunConfig, s0: float) -> None:
    emit_json(config, s0, {"s0": s0, "residual": abs(symbols.eval_g(s0)), "tol": symbols.S0_TOL})


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
    n, mu, energy = zip(*ladder_mod.build_ladder(p["beta"], n_lo, n_hi, s0))
    ratio = [math.exp(2.0 * math.pi / s0)] * len(n)
    residual = [ladder_mod.quantization_residual(m, p["beta"], s0) for m in mu]
    emit_csv(config, s0, {"n": n, "mu": mu, "energy": energy, "ratio": ratio,
                          "quantization_residual": residual})


def _run_symbol(config: RunConfig, s0: float) -> None:
    p = config.parameters
    s, reg_symbol, scan = symbols._scan(p["delta"], p["s_max"], p["n"])
    if not np.isfinite(reg_symbol).all():  # eval_reg_symbol's inf beyond double range
        raise OverflowError(f"reg_symbol leaves double range at delta = {_fmt(p['delta'])}")
    bracket = np.zeros(s.size, dtype=int)
    bracket[np.searchsorted(s, [lo for lo, _ in scan.sign_changes])] = 1
    emit_csv(config, s0, {"s": s, "g": symbols.eval_g(s), "reg_symbol": reg_symbol,
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
    value = stm.closed_form_residual(p["mu"], n=p["n"])
    emit_json(config, s0, {"mu": p["mu"], "n": p["n"], "residual": value})


def _run_thomas(config: RunConfig, s0: float) -> None:
    p = config.parameters
    emit_csv(config, s0, thomas.table(np.random.default_rng(p["seed"]), p["n_points"],
                                      p["eta"], p["h"], p["eps"]))


def _run_oracle(config: RunConfig, s0: float) -> None:
    p = config.parameters
    tol = oracle_mod._ABS_TOL  # what the integrator meets per integral
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
    "s0": (_run_s0, "json", {}),
    "delta0": (_run_delta0, "json", {}),
    "ladder": (_run_ladder, "csv",
               {"beta": (float, 0.0), "n": (str, "-3..3")}),
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
               {"s": (str, "0.25,0.5,1,2,5,10"), "x": (str, "0.5,1,2")}),
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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
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
    return parser


def build_config(argv: list[str]) -> RunConfig:
    ns = _parser().parse_args(argv)
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
