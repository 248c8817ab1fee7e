import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        RunConfig(command="ladder", format="json")  # schema mismatch
    cfg = RunConfig(command="s0")
    assert cfg.parameters == {"tol": 1e-12}
    assert cfg.format == "json"


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


def test_residual_command(tmp_path):
    out = tmp_path / "residual.json"
    assert main(["residual", "--mu", "1.0", "--n", "2000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["residual"] <= 1e-6


def test_thomas_command_header_only_when_empty(tmp_path):
    out = tmp_path / "thomas.csv"
    assert main(["thomas", "--n-points", "0", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert rows == []
    assert header[0] == "s1x"


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


def test_exit_codes():
    assert main(["scan", "--delta", "1.0", "--mu-lo", "10", "--mu-hi", "1",
                 "--n-mu", "5", "--grid", "64"]) == 2  # mu_lo >= mu_hi
    assert main(["ladder", "--format", "json"]) == 2  # schema mismatch
    assert run(RunConfig(command="delta0")) == 0


_SMALL_LADDER_SCAN = ["scan", "--delta", "0", "--mu-lo", "1e-4", "--mu-hi", "1e4",
                      "--n-mu", "3", "--grid", "250"]


def test_scan_linalg_error_exits_3(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(_SMALL_LADDER_SCAN) == 3


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
])
def test_invalid_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
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
