import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribos import cli, stm
from tribos.cli import RunConfig, main, run


def read_meta(path):
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        meta[key] = value
    return meta


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="bogus")
    with pytest.raises(ValueError):
        RunConfig(command="s0", parameters={"nope": 1})
    with pytest.raises(ValueError):
        RunConfig(command="symbol")  # delta is required
    cfg = RunConfig(command="s0")
    assert cfg.parameters == {"tol": 1e-12}
    assert json.loads(cfg.canonical())["format"] == "json"


def test_s0_json_output(tmp_path):
    out = tmp_path / "s0.json"
    assert main(["s0", "--tol", "1e-12", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 1.000 < doc["result"]["s0"] < 1.010
    assert doc["result"]["residual"] <= 1e-12
    assert doc["meta"]["tool"].startswith("tribos ")
    # json floats round-trip at 17 significant digits
    assert doc["result"]["s0"] == doc["meta"]["s0"]


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ladder", "--beta", "0.5", "--n=-2..2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_hash_matches_echo(tmp_path):
    out = tmp_path / "ladder.csv"
    assert main(["ladder", "--out", str(out)]) == 0
    meta = read_meta(out)
    recomputed = hashlib.sha256(meta["config"].encode()).hexdigest()
    assert meta["config_sha256"] == recomputed


def test_ladder_rows_and_ratio(tmp_path, s0):
    out = tmp_path / "ladder.csv"
    assert main(["ladder", "--beta", "0", "--n=-3..3", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["n", "mu", "energy", "ratio", "quantization_residual"]
    assert len(rows) == 7
    ratio = math.exp(2.0 * math.pi / s0)
    mus = [float(r[1]) for r in rows]
    for r in rows:
        assert float(r[3]) == pytest.approx(ratio, rel=1e-12)
        assert abs(float(r[4])) < 1e-13
        assert float(r[2]) == -float(r[1])
    for a, b in zip(mus, mus[1:]):
        assert b / a == pytest.approx(ratio, rel=1e-12)


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "ladder.csv"
    assert main(["ladder", "--beta", "0.3", "--n", "0..1", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    from tribos.ladder import mu_n
    from tribos.symbols import find_s0
    s0 = find_s0(1e-12).s0
    assert float(rows[0][1]) == mu_n(0.3, 0, s0)  # exact 17-digit round trip


def test_scan_above_threshold_has_empty_crossings(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--delta", "1.0", "--mu-lo", "0.1", "--mu-hi", "10",
                 "--n-mu", "5", "--grid", "200", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["mu", "smallest_eigenvalue", "negative_count", "crossing"]
    assert len(rows) == 5
    for r in rows:
        assert float(r[1]) > 0.0
        assert r[2] == "0"
        assert r[3] == ""


def test_symbol_command(tmp_path):
    out = tmp_path / "symbol.csv"
    assert main(["symbol", "--delta", "1.0", "--s-max", "10", "--n", "101",
                 "--out", str(out)]) == 0
    meta = read_meta(out)
    assert "scan" in meta
    header, rows = read_rows(out)
    assert header == ["s", "g", "reg_symbol", "sign_change_bracket"]
    assert len(rows) == 101
    assert all(float(r[2]) > 0.0 for r in rows)


def _symbol_reference(s, delta):
    # g and the regularized symbol in scalar math, sinh_ratio in its exponential form
    if s == 0.0:
        ratio, tanh_ratio = math.pi / 6.0, 0.5 * math.pi
    else:
        x = math.pi * s / 3.0
        ratio = math.exp(-x) * -math.expm1(-x) / (s * (1.0 + math.exp(-3.0 * x)))
        tanh_ratio = math.tanh(0.5 * math.pi * s) / s
    return (1.0 - (8.0 / math.sqrt(3.0)) * ratio,
            1.0 + (2.0 / math.sqrt(3.0)) * (delta * tanh_ratio - 4.0 * ratio))


@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_symbol_table_matches_math_reference(tmp_path, delta):
    out = tmp_path / "symbol.csv"
    assert main(["symbol", "--delta", str(delta), "--s-max", "50", "--n", "5000",
                 "--out", str(out)]) == 0
    tol = 4.0 * sys.float_info.epsilon  # numpy's exp/tanh against libm's
    _, rows = read_rows(out)
    s = [i * (50.0 / 4999) for i in range(5000)]
    assert [float(r[0]) for r in rows] == s
    for (_, g, reg, _), s_i in zip(rows, s):
        g_ref, reg_ref = _symbol_reference(s_i, delta)
        assert abs(float(g) - g_ref) <= tol and abs(float(reg) - reg_ref) <= tol
    reg = [float(r[2]) for r in rows]
    flags = [int(r[3]) for r in rows]
    assert flags == [int(a * b < 0.0) for a, b in zip(reg, reg[1:])] + [0]
    scan = dict(item.split("=") for item in read_meta(out)["scan"].split())
    assert int(scan["n_sign_changes"]) == sum(flags) == int(delta == 0.5)
    assert float(scan["min_value"]) == min(reg)
    assert float(scan["argmin"]) == s[reg.index(min(reg))]


def _reference_csv_row(row):
    # the per-value formatting emit_csv replaced
    return ",".join(format(x, ".17g") if isinstance(x, float) else str(x) for x in row)


_CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, math.inf, -math.inf, np.float64(-0.0), 2**53 + 1, -(2**70),
                     True, False, np.int64(-(2**63)), "", "pass", "0.5;2", "%s %%"]),
    st.integers(), st.integers(-(2**63), 2**63 - 1).map(np.int64), st.text(max_size=5))


def _columns(n):
    # a column of n cells: mixed kinds as in the scan crossing column ("" or
    # "a;b") and the oracle table, or a float64 or int64 array
    return st.one_of(st.lists(_CELLS, min_size=n, max_size=n),
                     st.lists(st.floats(), min_size=n, max_size=n).map(np.array),
                     st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
                     .map(lambda v: np.array(v, dtype=np.int64)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(1, 6), st.integers(0, 12)).flatmap(
    lambda shape: st.lists(_columns(shape[1]), min_size=shape[0], max_size=shape[0])))
def test_emit_csv_matches_per_value_formatting(columns):
    config = RunConfig(command="ladder")
    table = {f"c{j}": values for j, values in enumerate(columns)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit_csv(config, 1.0, table)
    rows = list(zip(*columns))
    expected = cli._meta_lines(config, 1.0) + [",".join(table)]
    assert out.getvalue() == "\n".join(expected + [_reference_csv_row(r) for r in rows]) + "\n"
    assert all(",".join(map(cli._fmt, r)) == _reference_csv_row(r) for r in rows)


def test_emit_csv_formats_across_row_blocks():
    rng = np.random.default_rng(3)
    n = 2 * cli._CSV_BLOCK + 7
    columns = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n),
               rng.integers(-(2**62), 2**62, size=n), [str(v) for v in range(n)]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit_csv(RunConfig(command="ladder"), 1.0, dict(zip("abc", columns)))
    lines = out.getvalue().splitlines()[-n:]
    assert lines == [_reference_csv_row(r) for r in zip(*columns)]


@pytest.mark.parametrize("rows", [(1, 0), (2, 1), (2, 2, 3)])
def test_emit_csv_rejects_rows_off_the_schema(rows, tmp_path):
    # rows holds the length of each column: a ragged table raises before
    # anything is written
    table = {f"c{j}": np.ones(k) if j % 2 else ["x"] * k for j, k in enumerate(rows)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(ValueError, match="differ in length"):
        cli.emit_csv(RunConfig(command="ladder"), 1.0, table)
    assert out.getvalue() == ""
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="differ in length"):
        cli.emit_csv(RunConfig(command="ladder", output_path=str(path)), 1.0, table)
    assert list(tmp_path.iterdir()) == []


# SHA-256 of the CSV body (the lines after the "#" header), as the
# row-at-a-time formatting and the point-at-a-time Thomas loop wrote it.
# s below 1e-6 keeps the symbol in its Taylor branches, plain arithmetic
# whose bits do not depend on the platform's vectorized exp and tanh.
_CSV_BODY_SHA256 = {
    ("symbol", "--delta", "0.5", "--s-max", "5e-7", "--n", "5000"):
        "cc68eea5fa8d352bce1aeeafb631d59201f10d6d020a6f22997d7f8e07be2971",
    ("thomas", "--n-points", "300", "--seed", "7"):
        "46d296ee11c07f0e7bcfabfcb203d404e3b0b1bd449262c64bcc364c11b9ca48",
    ("oracle", "--s", "0.5,1", "--x", "1"):
        "9ab6fe8902a9eff1a4d7de8f98fab8e772e73c2ad94abf2ad3de05ed16eafbc9",
    ("ladder", "--n=-3..3", "--beta", "0.3"):
        "e640e40afaef26f8668d8c9b752cc047f553dcc0f70f06ffc77dec24f26ded48",
}


@pytest.mark.parametrize("argv", list(_CSV_BODY_SHA256))
def test_csv_body_bytes_are_unchanged(argv):
    code, text = _main_output(list(argv))
    assert code == 0
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == _CSV_BODY_SHA256[argv]


def test_residual_command(tmp_path):
    out = tmp_path / "residual.json"
    assert main(["residual", "--mu", "1.0", "--n", "2000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["residual"] <= 1e-6


def test_thomas_command_rows(tmp_path):
    out = tmp_path / "thomas.csv"
    assert main(["thomas", "--n-points", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 3
    for r in rows:
        assert float(r[7]) <= 1e-4  # pde residual
        assert float(r[8]) == pytest.approx(float(r[9]), rel=0.01)  # bc vs reference


def test_oracle_command_all_pass(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--s", "0.5,1", "--x", "1", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) >= 4
    assert all(r[-1] == "pass" for r in rows)


def test_config_file_and_unknown_key(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"beta": 1.0, "n": "0..2"}))
    out = tmp_path / "out.csv"
    assert main(["ladder", "--config", str(good), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 3

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"betta": 1.0}))
    assert main(["ladder", "--config", str(bad), "--out", str(out)]) == 2


@pytest.mark.parametrize("command, params", [
    ("scan", {"delta": 1, "grid": 64.9, "n_mu": 3}),
    ("scan", {"delta": True}),
    ("scan", {"delta": 1, "n_mu": 2.5}),
    ("scan", {"delta": 1, "grid": math.inf}),
    ("ladder", {"beta": False}),
    ("ladder", {"n": True}),
    ("thomas", {"seed": 1.5}),
])
def test_config_file_values_are_not_coerced(tmp_path, capsys, command, params):
    # the same values on the command line exit 2; from a file they ran at a
    # truncated or converted value and shared its config hash
    path = tmp_path / "config.json"
    path.write_text(json.dumps(params))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: parameter ")


def test_config_integral_float_is_an_int():
    cfg = RunConfig(command="scan", parameters={"delta": 1, "grid": 64.0})
    assert cfg.parameters["grid"] == 64 and type(cfg.parameters["grid"]) is int
    assert cfg.parameters["delta"] == 1.0 and type(cfg.parameters["delta"]) is float


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_cli_flags_are_the_parameters(capsys, command):
    with pytest.raises(SystemExit) as done:
        cli.build_config([command, "--help"])
    assert done.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert flags == {"--" + name.replace("_", "-") for name in cli._COMMANDS[command][2]} | {
        "--out", "--config"}


def test_format_flag_is_rejected(capsys):
    # each command has one output format, so there is no --format flag
    assert main(["ladder", "--format", "csv"]) == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["scan", "--delta", "1", "--grid", "x"], "argument --grid: invalid int value: 'x'"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
])
def test_usage_errors_return_2(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_help_returns_0(capsys):
    assert main(["scan", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: tribos scan")


@pytest.mark.parametrize("target", ["missing/out.json", "directory"])
def test_unwritable_out_exits_1(tmp_path, capsys, target):
    (tmp_path / "directory").mkdir()
    assert main(["delta0", "--out", str(tmp_path / target)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.rglob(".tribos-*"))


def test_exit_codes():
    assert main(["scan", "--delta", "1.0", "--mu-lo", "10", "--mu-hi", "1",
                 "--n-mu", "5", "--grid", "64"]) == 2  # mu_lo >= mu_hi
    assert run(RunConfig(command="delta0")) == 0


_SMALL_LADDER_SCAN = ["scan", "--delta", "0", "--mu-lo", "1e-4", "--mu-hi", "1e4",
                      "--n-mu", "3", "--grid", "250"]


def test_scan_linalg_error_exits_3(monkeypatch):
    # delta >= delta0: a failed certificate, and a failed band solve where
    # the certificate does not pass; delta = 0 (no band solve): a failed
    # LDL^T factorization.  The certificate takes a non-finite factor of its
    # own LDL^T for a failed check, so the error is raised at its call.
    def fail(*args):
        raise np.linalg.LinAlgError("did not converge")

    positive = ["scan", "--delta", "1", "--mu-lo", "1e-2", "--mu-hi", "1e2",
                "--n-mu", "3", "--grid", "64"]
    with monkeypatch.context() as patch:
        patch.setattr(stm, "_certified_lower_bound", fail)
        assert main(positive) == 3
    with monkeypatch.context() as patch:
        patch.setattr(stm, "_certified_lower_bound", lambda *args: None)
        patch.setattr(stm, "_lowest_eigenvalue", fail)
        assert main(positive) == 3
    monkeypatch.setattr(stm, "_inertia_logdet", fail)
    assert main(_SMALL_LADDER_SCAN) == 3


def _band_path_csv(monkeypatch, capsys, args):
    # (the scan's CSV, that of the band solve at every point): the latter is
    # the path every point took before the block solve
    assert main(args) == 0
    csv = capsys.readouterr().out
    with monkeypatch.context() as patch:
        patch.setattr(stm, "_block_ritz", lambda matrix: None)
        assert main(args) == 0
    return csv, capsys.readouterr().out


def test_scan_whose_block_residual_misses_the_tolerance_takes_the_band(monkeypatch, capsys):
    # p in [1e-2, 1e2]: the ground state spreads past the leading block at
    # every point; no certificate runs and the CSV is the band path's
    calls = []
    monkeypatch.setattr(stm, "_certified_lower_bound", lambda *args: calls.append(1))
    csv, band = _band_path_csv(monkeypatch, capsys, [
        "scan", "--delta", "1", "--p-min", "1e-2", "--p-max", "1e2", "--grid", "300",
        "--n-mu", "13"])
    assert csv == band and not calls


def test_scan_with_failed_certificates_takes_the_band(monkeypatch, capsys, failed_certificates):
    # every certificate runs, spends the C lower triangle and fails: the band
    # solve on the untouched upper triangle gives the band path's CSV
    csv, band = _band_path_csv(monkeypatch, capsys, [
        "scan", "--delta", "1", "--mu-lo", "1e-2", "--mu-hi", "1e2", "--n-mu", "5",
        "--grid", "250"])
    assert csv == band and len(failed_certificates) == 5


def test_scan_with_a_negative_delta_exits_2(capsys):
    # every sweep point, the head first, rejects its parameters before any
    # solve; the scan reports it instead of waiting for the head's Ritz vector
    codes = []
    runner = threading.Thread(target=lambda: codes.append(main(
        ["scan", "--delta", "-0.5", "--mu-lo", "1e-2", "--mu-hi", "1e2",
         "--n-mu", "3", "--grid", "64"])), daemon=True)
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive() and codes == [2]
    assert "delta must be nonnegative" in capsys.readouterr().err


def test_scan_with_crossings_byte_identical(tmp_path, monkeypatch):
    outputs = []
    for i, threads in enumerate(("4", "4", "1")):
        monkeypatch.setenv("TRIBOS_THREADS", threads)
        out = tmp_path / f"scan{i}.csv"
        assert main(_SMALL_LADDER_SCAN + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    _, rows = read_rows(tmp_path / "scan0.csv")
    assert sum(len(r[3].split(";")) for r in rows if r[3]) == 3
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", [
    ["scan", "--delta", "nan"],
    ["scan", "--delta", "1", "--p-max", "inf"],
    ["oracle", "--tol", "nan"],
    ["oracle", "--s", "nan,1"],
    ["ladder", "--n=0..2000"],
    ["ladder", "--n=-2000..0"],
    ["thomas", "--h", "10"],
    ["thomas", "--eta", "-1"],
    ["thomas", "--n-points", "0"],
    ["thomas", "--n-points", "-3"],
    ["thomas", "--h", "1e-200"],
    ["thomas", "--h", "1e-12"],
    ["thomas", "--h", "3e-8"],
    ["thomas", "--eps", "1e200", "--n-points", "2"],
    ["thomas", "--eta", "300", "--n-points", "2"],
])
def test_invalid_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_residual_negative_mu_message(capsys):
    assert main(["residual", "--mu", "-1"]) == 2
    assert capsys.readouterr().err == "error: mu must be positive\n"


def test_memory_error_exits_2(monkeypatch, capsys):
    def fail(config, s0):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "delta0", (fail, *cli._COMMANDS["delta0"][1:]))
    assert main(["delta0"]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory")


def test_oracle_overflow_exits_3(capsys):
    # cosh overflows in the odd-extension kernels for x beyond about 315
    assert main(["oracle", "--s", "1", "--x", "1e300"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_scan_output_independent_of_thread_variables(tmp_path):
    # OpenBLAS reads OPENBLAS_NUM_THREADS when it loads: one process per setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for threads in ("1", "4"):
        for blas in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            env["TRIBOS_THREADS"] = threads
            if blas is not None:
                env["OPENBLAS_NUM_THREADS"] = blas
            out = tmp_path / f"scan-{threads}-{blas}.csv"
            subprocess.run([sys.executable, "-m", "tribos.cli", *_SMALL_LADDER_SCAN,
                            "--out", str(out)], env=env, check=True, timeout=120)
            outputs.add(out.read_bytes())
    assert len(outputs) == 1


# The input contract: whatever the parameters (nan, inf, negative, zero,
# reversed ranges), main returns 0, 2 or 3 without raising, and a run that
# succeeds gives the same bytes when repeated.  Sizes are bounded so that each
# run is short: symbol --n <= 5000, oracle --s/--x at most two values each,
# ladder levels |n| <= 150, scan --grid <= 64 and --n-mu <= 4, residual
# --n <= 400, thomas --n-points <= 3.
_FLOATS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-300",
                                     "-1e-300", "5e-324", "1e300", "-1e308"]),
                    st.floats(-50.0, 50.0).map(repr))
_ARGV = st.one_of(
    st.builds(lambda tol: ["s0", f"--tol={tol}"], _FLOATS),
    st.just(["delta0"]),
    st.builds(lambda beta, lo, hi, tol: ["ladder", f"--beta={beta}", f"--n={lo}..{hi}",
                                         f"--tol={tol}"],
              _FLOATS, st.integers(-150, 150), st.integers(-150, 150), _FLOATS),
    st.builds(lambda delta, s_max, n: ["symbol", f"--delta={delta}", f"--s-max={s_max}",
                                       f"--n={n}"],
              _FLOATS, _FLOATS, st.integers(-2, 5000)),
    st.builds(lambda s, x, tol: ["oracle", "--s=" + ",".join(s), "--x=" + ",".join(x),
                                 f"--tol={tol}"],
              st.lists(_FLOATS, max_size=2), st.lists(_FLOATS, max_size=2), _FLOATS),
    st.builds(lambda delta, lo, hi, n_mu, grid, p_min, p_max: [
        "scan", f"--delta={delta}", f"--mu-lo={lo}", f"--mu-hi={hi}", f"--n-mu={n_mu}",
        f"--grid={grid}", f"--p-min={p_min}", f"--p-max={p_max}"],
              _FLOATS, _FLOATS, _FLOATS, st.integers(-1, 4), st.integers(-2, 64),
              _FLOATS, _FLOATS),
    st.builds(lambda mu, n, delta: ["residual", f"--mu={mu}", f"--n={n}", f"--delta={delta}"],
              _FLOATS, st.integers(-2, 400), _FLOATS),
    st.builds(lambda n, h, eps, seed: ["thomas", f"--n-points={n}", f"--h={h}", f"--eps={eps}",
                                       f"--seed={seed}"],
              st.integers(-1, 3), _FLOATS, _FLOATS, st.integers(0, 2**31 - 1)),
)


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_ARGV)
def test_cli_input_contract(argv):
    code, text = _main_output(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert "nan" not in text.lower()  # no NaN passed off as a result
        assert _main_output(argv) == (0, text)


def test_scan_at_subnormal_scales_exits_cleanly():
    # eigenvalues near 1e-125: the crossing refinement's interpolation
    # denominator underflowed to 0 and the scan died with ZeroDivisionError
    argv = ["scan", "--delta=0", "--mu-lo=5e-324", "--mu-hi=48.9", "--n-mu=3", "--grid=26",
            "--p-min=5e-324", "--p-max=1.1e-124"]
    assert _main_output(argv)[0] == 0


def test_residual_at_subnormal_delta_is_silent():
    # delta / pi underflows to 0, and the infinite Coulomb diagonal gave inf * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = _main_output(["residual", "--mu=8.87", "--n=283", "--delta=5e-324"])
    assert code == 0
    assert math.isfinite(json.loads(text)["result"]["residual"])


def test_residual_overflow_exits_3(capsys):
    # the Coulomb part at delta = 1e300 overflows; the JSON held NaN before
    assert main(["residual", "--mu=1e300", "--n=308", "--delta=1e300"]) == 3
    assert capsys.readouterr().err.startswith("error: residual left double range")


@pytest.mark.parametrize("argv", [["--mu=3e288"], ["--mu=1e300"], ["--mu=1e308"],
                                  ["--mu=5e-324"], ["--n=100000"]])
def test_residual_beyond_double_range_exits_3_naming_the_grid(argv, capsys):
    # the canonical grid reaches p = 1e10 sqrt(mu), where the closed-form
    # samples overflow from mu about 3e288 on (two RuntimeWarnings, then
    # exit 2) and underflow at 5e-324 (exit 2); at n = 100000 the grid end
    # 1e-6 sqrt(mu) 10^(n/125) overflows (an errno message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["residual", *argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "canonical grid of " in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--delta=1", "--p-max=1e200"],
    ["--delta=0", "--p-max=1e200"],
    ["--delta=1", "--p-min=1e-300", "--p-max=1e300"],
])
def test_overflowing_scan_exits_3_without_a_warning(argv, capsys):
    # p^2 overflows in the TMS kernel and the diagonal term; the finiteness
    # check, not a RuntimeWarning, ends the scan
    assert main(["scan", *argv, "--grid=40", "--n-mu=3"]) == 3
    assert capsys.readouterr().err == "error: non-finite matrix\n"


def test_scan_at_a_huge_delta_takes_the_band_without_a_warning(monkeypatch, capsys):
    # the leading block's residual norm overflows at delta = 1e300: r = inf
    # fails the tolerance and every point takes the band solve, silently
    argv = ["scan", "--delta=1e300", "--grid=40", "--n-mu=3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    csv, err = capsys.readouterr()
    monkeypatch.setattr(stm, "_block_ritz", lambda matrix: None)
    assert main(argv) == 0
    assert err == "" and csv == capsys.readouterr().out
