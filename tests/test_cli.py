import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tribos import cli, oracle, stm, symbols, thomas
from tribos.cli import RunConfig, main, run
from tribos.specfun import k0


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
    assert cfg.parameters == {}
    assert json.loads(cfg.canonical())["format"] == "json"


def test_s0_json_output(tmp_path):
    out = tmp_path / "s0.json"
    assert main(["s0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert 1.000 < doc["result"]["s0"] < 1.010
    assert doc["result"]["residual"] <= doc["result"]["tol"] == symbols.S0_TOL
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
    assert float(rows[0][1]) == mu_n(0.3, 0, symbols.default_s0())  # exact 17-digit round trip


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


def _cell_texts(words):
    # the cells of the fields a cell kernel built, each "," and its text
    return words.tobytes().translate(None, cli._PAD).split(b",")[1:]


def _assert_float_cells_are_17g(values):
    x = np.asarray(values, dtype=np.float64)
    assert _cell_texts(cli._float_cells(x)) == [b"%.17g" % v for v in x.tolist()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, st.integers(1, 40), elements=st.floats()))
def test_float_cells_are_17g(x):
    _assert_float_cells_are_17g(x)


def test_float_cells_at_the_edges():
    powers = np.array([float(f"1e{e}") for e in range(-307, 309)])
    # k = -5, -4, 16, 17: the edges of fixed notation, with the largest
    # doubles below 10^k, whose 17 digits may round up to 10^k
    edges = [float(f"{m}e{e}") for e in (-5, -4, -3, 15, 16, 17, 18)
             for m in ("1", "9.9999999999999999", "9.99999999999999995", "9.9999999999999995")]
    # exact ties at the 18th digit, 1234567890123456.75 among them
    ints = 10**15 + 7919 * np.arange(200)
    ties = np.concatenate([ints + 0.25, ints + 0.75, ints // 10 + 0.125, ints // 10 + 0.875])
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
               sys.float_info.max, -sys.float_info.max, sys.float_info.min,
               2.225073858507201e-308, 1e-290, 1e290, 1234567890123456.75]
    values = np.concatenate([powers, edges, ties, -ties, special])
    with np.errstate(over="ignore"):  # past the largest double
        neighbours = [np.nextafter(values, 0.0), np.nextafter(values, math.inf)]
    _assert_float_cells_are_17g(np.concatenate([values, -values, *neighbours]))


def test_float_cells_of_random_bit_patterns():
    bits = np.random.default_rng(29).integers(0, 2**64, size=10**6, dtype=np.uint64)
    _assert_float_cells_are_17g(bits.view(np.float64))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_int_cells_are_d(dtype):
    info = np.iinfo(dtype)
    v = np.concatenate([np.array([info.min, info.max, 0, 1], dtype=dtype),
                        np.random.default_rng(5).integers(info.min, info.max, 2000, dtype=dtype,
                                                          endpoint=True)])
    assert _cell_texts(cli._int_cells(v)) == [b"%d" % x for x in v.tolist()]


def test_benchmark_symbol_table_is_its_values_in_17g():
    # the symbol command of the benchmark's verify_suite, row by row as the
    # per-value formatting wrote it.  Its values come from numpy's vectorized
    # exp and tanh, whose bits depend on the SIMD level numpy dispatches to,
    # so the body is checked against the values rather than pinned by a hash.
    code, text = _main_output(["symbol", "--delta", "0.79", "--s-max", "200", "--n", "100000"])
    assert code == 0
    s = symbols.symbol_samples(200.0, 100000)
    columns = s, symbols.eval_g(s), symbols.eval_reg_symbol(s, 0.79)
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body == ["s,g,reg_symbol,sign_change_bracket"] + [
        "%.17g,%.17g,%.17g,0" % row for row in zip(*(c.tolist() for c in columns))]


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


def test_emit_csv_memory_is_one_block(tmp_path):
    # the writer holds one block of rows, not the table: its traced peak
    # measured 2.2 MB at 3e5 rows (a 13.7 MB file) and at 1e6 rows alike;
    # holding the decoded blocks, their join and its encoding took 41 MB at 3e5
    n = 3 * 10**5
    rng = np.random.default_rng(34)
    table = {"a": rng.normal(size=n), "b": rng.normal(size=n) * 1e-7,
             "c": rng.integers(0, 2, size=n)}
    path = tmp_path / "table.csv"
    config = RunConfig(command="ladder", output_path=str(path))
    cli.emit_csv(config, 1.0, {k: v[:10] for k, v in table.items()})  # the cell tables
    tracemalloc.start()
    try:
        cli.emit_csv(config, 1.0, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
    assert path.stat().st_size > 4 * peak


def test_out_file_gets_the_mode_of_a_new_file(tmp_path):
    # mkstemp creates its file 0600, which the rename kept: --out was owner-only
    umask = os.umask(0o022)
    try:
        (tmp_path / "plain").open("w").close()
        for argv in (_CHEAP["s0"], _CHEAP["symbol"]):
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    finally:
        os.umask(umask)
    mode = (tmp_path / "plain").stat().st_mode
    assert [(tmp_path / name).stat().st_mode for name in ("s0", "symbol")] == [mode, mode]


def test_symbol_command_evaluates_sinh_ratio_once(monkeypatch):
    # g and reg_symbol share one pass; the bisection of default_s0 runs first
    symbols.default_s0()
    calls, sinh_ratio = [], symbols.sinh_ratio
    monkeypatch.setattr(symbols, "sinh_ratio", lambda s: calls.append(np.size(s)) or sinh_ratio(s))
    assert _main_output(["symbol", "--delta", "0.79", "--n", "1000"])[0] == 0
    assert calls == [1000]


def test_a_failure_mid_table_writes_no_file(tmp_path, monkeypatch, capsys):
    # the second block's int cells raise: --out leaves no file, and an existing
    # target keeps its bytes; stdout has the rows written before the failure
    int_cells, calls = cli._int_cells, []

    def fail_on_the_second_block(v):
        calls.append(len(v))
        if len(calls) == 2:
            raise OverflowError("second block")
        return int_cells(v)

    monkeypatch.setattr(cli, "_int_cells", fail_on_the_second_block)
    argv = ["symbol", "--delta", "0.79", "--s-max", "200", "--n", "10000"]
    target = tmp_path / "symbol.csv"
    assert main([*argv, "--out", str(target)]) == 3
    assert calls == [4096, 4096]
    assert list(tmp_path.iterdir()) == []
    target.write_bytes(b"old")
    calls.clear()
    assert main([*argv, "--out", str(target)]) == 3
    assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == b"old"
    calls.clear()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == "error: second block\n" * 3
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(body) == 1 + 4096 and out.endswith("\n")


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
    # as the one-integral-at-a-time recursion wrote them: the benchmark's
    # oracle parameters, and x whose nodes lie beyond 700, where m_log_kernel
    # and the half-line regularization kernel switch form
    ("oracle", "--s", "0.1,0.25,0.5,0.75,1,1.5,2,2.5,3,4,5,7.5,10", "--x", "0.25,0.5,1,2,3"):
        "fec28e9460765bd629f2ae9d1138f70751994e12c9a218f81c08d0d72100e8ab",
    ("oracle", "--s", "1", "--x", "320,640"):
        "ef308988e27f6d67835582b62c56a87f686324fb2f4bfb6eb743b67c0b1188df",
    # pinned at default_s0 = 1.006237825102782: every cell but n follows s0's last bit
    ("ladder", "--n=-3..3", "--beta", "0.3"):
        "b13e6a792e7b90585707e636f03eb038542f0015381de951e6eba706cd4e2695",
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
    assert sorted(doc["result"]) == ["mu", "n", "residual"]


def test_residual_takes_no_delta(tmp_path, capsys):
    # residual checks the delta = 0 equation, the one the closed-form density
    # solves; delta is neither a flag nor a config field of it
    assert main(["residual", "--delta", "1"]) == 2
    assert "unrecognized arguments: --delta 1" in capsys.readouterr().err
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"delta": 0.0}))
    assert main(["residual", "--config", str(path)]) == 2
    assert "unknown parameter 'delta'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["s0", "ladder", "oracle"])
def test_tol_is_not_a_parameter(command, tmp_path, capsys):
    # s0 and ladder use the run's one s0, default_s0; an oracle transform row
    # passes within 10 times the tolerance the integrator meets, a constant
    assert main([command, "--tol", "1e-9"]) == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tol": 1e-9}))
    assert main([command, "--config", str(path)]) == 2
    assert "unknown parameter 'tol'" in capsys.readouterr().err


_CHEAP = {
    "s0": ["s0"],
    "delta0": ["delta0"],
    "ladder": ["ladder", "--n=0..1"],
    "symbol": ["symbol", "--delta", "1", "--s-max", "10", "--n", "11"],
    "scan": ["scan", "--delta", "1", "--grid", "40", "--n-mu", "3"],
    "residual": ["residual", "--n", "400"],
    "thomas": ["thomas", "--n-points", "2"],
    "oracle": ["oracle", "--s", "1", "--x", "1"],
}


@pytest.mark.parametrize("argv", [*_CHEAP.values(), ["symbol", "--delta", "0.79", "--s-max",
                                                      "200", "--n", "10000"]], ids=" ".join)
def test_stdout_and_out_get_the_same_bytes(argv, tmp_path):
    # the 10000-row symbol table crosses two seams of 4096 rows
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    code, text = _main_output(argv)
    assert code == 0 and text.encode("utf-8") == path.read_bytes()


def test_every_output_carries_the_one_s0():
    assert set(_CHEAP) == set(cli._COMMANDS)
    for command, argv in _CHEAP.items():
        code, text = _main_output(argv)
        assert code == 0, command
        if cli._COMMANDS[command][1] == "json":
            doc = json.loads(text)
            values = [doc["meta"]["s0"]] + ([doc["result"]["s0"]] if command == "s0" else [])
        else:
            values = [float(line[len("# s0: "):]) for line in text.splitlines()
                      if line.startswith("# s0: ")]
        assert values and all(v == symbols.default_s0() for v in values), command


def test_thomas_command_rows(tmp_path):
    out = tmp_path / "thomas.csv"
    assert main(["thomas", "--n-points", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 3
    for r in rows:
        assert float(r[7]) <= 1e-4  # pde residual
        assert float(r[8]) == pytest.approx(float(r[9]), rel=0.01)  # bc vs reference


def _thomas_draws_one_at_a_time(rng, h):
    # the sampler as it drew two 3-vectors and built one ThomasPoint per
    # candidate: the reference for the block sampler's points and miss limit
    misses = 0
    while misses < thomas._MAX_MISSES:
        s1 = rng.uniform(-2.0, 2.0, size=3)
        s2 = rng.uniform(-2.0, 2.0, size=3)
        misses += 1
        try:
            pt = thomas.ThomasPoint(s1=s1, s2=s2, eta=1.0)
        except ValueError:
            continue
        if pt.min_separation() > 12.0 * h:
            misses = 0
            yield s1, s2


# (h, miss limit): from every draw accepted to none; at 0.18, 0.2 and 0.22
# the limit ends the run after a few accepted points, with runs of misses
# across block boundaries
@pytest.mark.parametrize("h, max_misses", [(1e-3, 10000), (0.1, 40), (0.18, 40), (0.2, 40),
                                           (0.22, 300), (0.3, 10000)])
def test_thomas_block_sampler_draws_as_the_point_sampler(h, max_misses, monkeypatch):
    monkeypatch.setattr(thomas, "_MAX_MISSES", max_misses)
    for seed in (1, 2, 3):
        expected = itertools.islice(_thomas_draws_one_at_a_time(np.random.default_rng(seed), h),
                                    600)
        got = thomas._draws(np.random.default_rng(seed), h, 600)
        assert got.tolist() == [np.concatenate(pt).tolist() for pt in expected]


def test_thomas_block_sampler_gives_up_at_the_same_miss(monkeypatch):
    # the longest run of misses before one of the first 30 accepted draws at
    # h = 0.2, as the miss limit and one above it: the runs end just before
    # that draw, and go past it
    h, rng, gaps, misses = 0.2, np.random.default_rng(5), [], 0
    while len(gaps) < 30:
        s1, s2 = rng.uniform(-2.0, 2.0, size=3), rng.uniform(-2.0, 2.0, size=3)
        if thomas.ThomasPoint(s1=s1, s2=s2, eta=1.0).min_separation() > 12.0 * h:
            gaps.append(misses)
            misses = 0
        else:
            misses += 1
    longest = max(gaps)
    for limit, accepted in ((longest, gaps.index(longest)), (longest + 1, 30)):
        monkeypatch.setattr(thomas, "_MAX_MISSES", limit)
        got = thomas._draws(np.random.default_rng(5), h, 30)
        expected = list(itertools.islice(
            _thomas_draws_one_at_a_time(np.random.default_rng(5), h), 30))
        assert len(got) == accepted
        assert np.array_equal(got, np.reshape(expected, (-1, 6)))


# (h, miss limit): 257 rows cross the seam of the 256-row passes; at h = 0.2
# the limit ends each run after 64, 57 and 79 rows
@pytest.mark.parametrize("h, max_misses", [(1e-3, 10000), (0.2, 150)])
def test_thomas_table_rows_are_the_one_point_functions(h, max_misses, monkeypatch):
    monkeypatch.setattr(thomas, "_MAX_MISSES", max_misses)
    eta, eps = 1.0, 1e-3
    for seed in (1, 2, 3):
        expected = []
        for s1, s2 in itertools.islice(
                _thomas_draws_one_at_a_time(np.random.default_rng(seed), h), 257):
            pt, r = thomas.ThomasPoint(s1=s1, s2=s2, eta=eta), np.linalg.norm(s2)
            expected.append([*s1, *s2, thomas.thomas_psi(pt), thomas.pde_residual(pt, h),
                             thomas.boundary_coefficient(s2, eta, eps),
                             (math.pi / math.sqrt(3.0)) * k0(eta * r) / r])
        if len(expected) < 257:
            with pytest.raises(ValueError, match=f"h = {h} too large: {max_misses} draws"):
                thomas.table(np.random.default_rng(seed), 257, eta, h, eps)
        got = thomas.table(np.random.default_rng(seed), len(expected), eta, h, eps)
        assert list(got) == ["s1x", "s1y", "s1z", "s2x", "s2y", "s2z", "psi", "pde_residual",
                             "bc_estimate", "bc_reference"]
        assert np.array(list(got.values())).T.tolist() == expected


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the sampler's 12 h distance cut does "
                   "not bound the stencil error near the coincidence sets")
def test_thomas_rows_meet_the_pde_bound_for_seeds_1_to_30():
    # seeds 4, 17 and 19 give a worst pde_residual of 4.8, 1.3e-4 and 1.5e-3
    worst = {}
    for seed in range(1, 31):
        code, text = _main_output(["thomas", "--n-points", "10", "--seed", str(seed)])
        assert code == 0
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        column = lines[0].split(",").index("pde_residual")
        worst[seed] = max(float(line.split(",")[column]) for line in lines[1:])
    assert {seed: r for seed, r in worst.items() if not r <= 1e-4} == {}


def test_oracle_command_all_pass(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--s", "0.5,1", "--x", "1", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) >= 4
    assert all(r[-1] == "pass" for r in rows)


def test_oracle_table_is_the_command_table():
    # 14.51 gives a vacuous odd_extension row
    code, text = _main_output(["oracle", "--s", "1", "--x", "1,14.51"])
    columns = oracle.table([1.0], [1.0, 14.51], symbols.default_s0())
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert code == 0 and lines[0] == ",".join(columns)
    assert lines[1:] == [",".join(map(cli._fmt, row)) for row in zip(*columns.values())]
    assert columns["status"][-2:] == ("vacuous", "pass")


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
    # p in [1e-1, 1e1]: the ground state spreads past the leading block at
    # every point; no certificate runs and the CSV is the band path's
    calls = []
    monkeypatch.setattr(stm, "_certified_lower_bound", lambda *args: calls.append(1))
    csv, band = _band_path_csv(monkeypatch, capsys, [
        "scan", "--delta", "1", "--p-min", "1e-1", "--p-max", "1e1", "--grid", "300",
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
    # the odd-extension check cannot resolve its quadrature nodes near x
    assert main(["oracle", "--s", "1", "--x", "1e300"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_beyond_the_range_of_cosh_passes(tmp_path):
    # the half-line integrals evaluate the kernels up to 2x + 80, beyond
    # 710.5, where math.cosh (and from x = 630 on math.sinh) overflowed: exit 3
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--s", "1", "--x", "320,640", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert [r[0] for r in rows[-4:]] == ["odd_extension", "balance_at_s0"] * 2
    assert [r[-1] for r in rows[-4:]] == ["vacuous", "pass"] * 2  # see the test below
    assert all(r[-1] == "pass" for r in rows[:-4])


@pytest.mark.parametrize("x", ["20", "1e5"])
def test_oracle_marks_an_odd_extension_row_that_cannot_fail(x, tmp_path):
    # from x = asinh(1e6) = 14.5087 on, the mirror terms that tell the
    # half-line integrals from the full-line ones integrate to at most
    # 1/sinh(x) <= 1e-6, the row's tolerance: it would pass whatever the
    # code did (at 1e5 both sides are exactly 0), so it is not a pass
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--s", "1", "--x", f"3,14.5,{x}", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    status = {(r[0], float(r[1])): r[-1] for r in rows if r[0] in ("odd_extension",
                                                                    "balance_at_s0")}
    assert status == {("odd_extension", 3.0): "pass", ("odd_extension", 14.5): "pass",
                      ("odd_extension", float(x)): "vacuous", ("balance_at_s0", 3.0): "pass",
                      ("balance_at_s0", 14.5): "pass", ("balance_at_s0", float(x)): "pass"}
    assert oracle.mirror_bound(14.5) > 1e-6 >= oracle.mirror_bound(14.51)


@pytest.mark.parametrize("eta", ["1e155", "1e160", "1.7e308"])
def test_thomas_at_a_huge_eta_exits_2_naming_it(eta, capsys):
    # psi underflows at every point; (eta h)^2 in the step guard overflowed
    # from eta = 1.3e157 on, an exit 3 with an errno tuple
    assert main(["thomas", "--eta", eta, "--n-points", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: psi = 0 underflows the normal doubles")
    assert f"eta = {float(eta):.17g} too large" in err


@pytest.mark.parametrize("delta", ["9.9112017035097915e307", "1e308", "-1e308"])
def test_symbol_beyond_double_range_exits_3_naming_delta(delta, capsys):
    # eval_reg_symbol keeps its inf there, which the table printed at s = 0 with
    # exit 0; the double below the first such delta still runs
    assert main(["symbol", f"--delta={delta}", "--n", "3"]) == 3
    assert capsys.readouterr() == (
        "", f"error: reg_symbol leaves double range at delta = {float(delta):.17g}\n")
    assert _main_output(["symbol", "--delta=9.91120170350979e307", "--n", "3"])[0] == 0


def test_symbol_scan_whose_step_underflows_exits_2(capsys):
    # s_max/(n - 1) = 0 put every sample at s = 0, reported as a scan of [0, s_max]
    assert main(["symbol", "--delta", "0.79", "--s-max", "5e-324", "--n", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: the sample step s_max/(n - 1) underflows to 0 at s_max = 5e-324, n = 5\n")
    with pytest.raises(ValueError, match="underflows to 0"):
        symbols.certify_positivity(0.79, 5e-324, 5)
    code, text = _main_output(["symbol", "--delta", "0.79", "--s-max", "1e-320", "--n", "3"])
    assert code == 0 and [line.split(",")[0] for line in text.splitlines()[-3:]] == [
        "0", "4.999944335913415e-321", "9.9998886718268301e-321"]


@pytest.mark.parametrize("n", ["5", "1..x", "", "1..2..3"])
def test_ladder_range_message(n, capsys):
    assert main(["ladder", f"--n={n}"]) == 2
    assert capsys.readouterr().err == f"error: n must be a range lo..hi of integers, got {n!r}\n"


def test_thomas_at_an_eps_whose_square_underflows_exits_2_naming_it(capsys):
    # below sqrt(float_info.min), about 1.5e-154, eps^2 is subnormal or 0: |s1|
    # lost bits (at 2e-162 bc_estimate read 0.58855 against its limit 0.65410,
    # with exit 0) or read 0, and the error said the point lay on a coincidence set
    for eps in ("1e-170", "2e-162", "1e-158"):
        assert main(["thomas", "--n-points", "2", "--eps", eps]) == 2
        assert capsys.readouterr().err == (
            f"error: eps = {float(eps)} too small: eps^2 underflows the normal doubles\n")
    code, text = _main_output(["thomas", "--n-points", "2", "--eps", "1.5e-154"])
    rows = [line.split(",") for line in text.splitlines()[-2:]]
    assert code == 0 and all(float(r[-2]) == pytest.approx(float(r[-1]), rel=1e-6) for r in rows)


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
    st.just(["s0"]),
    st.just(["delta0"]),
    st.builds(lambda beta, lo, hi: ["ladder", f"--beta={beta}", f"--n={lo}..{hi}"],
              _FLOATS, st.integers(-150, 150), st.integers(-150, 150)),
    st.builds(lambda delta, s_max, n: ["symbol", f"--delta={delta}", f"--s-max={s_max}",
                                       f"--n={n}"],
              _FLOATS, _FLOATS, st.integers(-2, 5000)),
    st.builds(lambda s, x: ["oracle", "--s=" + ",".join(s), "--x=" + ",".join(x)],
              st.lists(_FLOATS, max_size=2), st.lists(_FLOATS, max_size=2)),
    st.builds(lambda delta, lo, hi, n_mu, grid, p_min, p_max: [
        "scan", f"--delta={delta}", f"--mu-lo={lo}", f"--mu-hi={hi}", f"--n-mu={n_mu}",
        f"--grid={grid}", f"--p-min={p_min}", f"--p-max={p_max}"],
              _FLOATS, _FLOATS, _FLOATS, st.integers(-1, 4), st.integers(-2, 64),
              _FLOATS, _FLOATS),
    st.builds(lambda mu, n: ["residual", f"--mu={mu}", f"--n={n}"], _FLOATS, st.integers(-2, 400)),
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
