"""Command-line surface: outputs, exit codes, reproducibility."""

import io

import pytest

from sudler import cli


def run(args):
    buf = io.StringIO()
    status = cli.run(args, stdout=buf)
    return status, buf.getvalue()


def test_fib_subcommand():
    status, out = run(["fib", "40"])
    assert status == 0
    assert out.strip() == "102334155"


def test_zeck_subcommand():
    status, out = run(["zeck", "7"])
    assert status == 0
    assert "F_5 + F_3" in out
    assert "length = 2" in out


def test_q_subcommand_reports_value_and_err():
    status, out = run(["q", "1"])
    assert status == 0
    assert "1.86406484" in out  # 2 sin(pi omega)
    assert "|log err| <=" in out


def test_q_above_direct_reach_takes_factor_route():
    status, out = run(["q", "33"])
    assert status == 0
    assert "route: A_n B_n C_n factors" in out
    assert float(out.split("|log err| <= ")[1].split(",")[0]) < 1e-12


def test_p_prints_17_significant_digits():
    status, out = run(["p", "10"])
    assert status == 0
    mantissa = out.split("=")[1].split("(")[0].strip()
    digits = mantissa.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) >= 16


def test_decompose_residual_small():
    status, out = run(["decompose", "15"])
    assert status == 0
    assert "residual/Q" in out
    assert all(f"{f}_15 = " in line and "|log err| <= " in line
               for f, line in zip("ABCQ", out.splitlines()))
    rel = float(out.rsplit("residual/Q = ", 1)[1].rstrip(")\n"))
    assert abs(rel) < 1e-10


def test_climit_reports_both_forms():
    status, out = run(["climit", "1000"])
    assert status == 0
    assert "U(1000)" in out and "U^2" in out and "closer form" in out


def test_argument_error_exit_code():
    assert cli.run(["fib"]) == 2
    assert cli.run(["nonsense"]) == 2
    assert cli.run(["perturbed", "5", "0.5"]) == 2  # alpha out of range


def test_precision_exhaustion_exit_code():
    assert cli.run(["p", "200000", "--precision", "64"]) == 3


def test_workers_below_one_is_argument_error():
    assert cli.run(["q", "5", "--workers", "0"]) == 2


def test_profile_past_the_float64_floor_refused_before_any_row(capsys):
    status, out = run(["profile", "32"])
    assert status == 3
    assert out.splitlines()[1:] == []
    assert "rounding floor" in capsys.readouterr().err


def test_scan_refusal_names_float64_rounding(tmp_path, capsys):
    """1.6M terms fit the 4.5 eps floor, but the log terms' own rounding
    crosses the budget partway through the scan."""
    status = cli.run(["scan", "1600000", "--output", str(tmp_path / "scan.csv")])
    assert status == 3
    err = capsys.readouterr().err
    assert "prefix pass at k=" in err
    assert "the log terms' float64 rounding, which no --precision lowers" in err


def test_precision_too_low_is_argument_error():
    assert cli.run(["q", "5", "--precision", "16"]) == 2
    # commands that need no omega reject it too
    assert cli.run(["fib", "5", "--precision", "32"]) == 2
    assert cli.run(["zeck", "7", "--precision", "32"]) == 2


def test_env_var_precision(monkeypatch):
    monkeypatch.setenv("SUDLER_PRECISION_BITS", "16")
    assert cli.run(["q", "5"]) == 2
    monkeypatch.setenv("SUDLER_PRECISION_BITS", "128")
    status, out = run(["q", "5"])
    assert status == 0


def test_profile_csv_schema():
    status, out = run(["profile", "8", "--stride", "5"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "k,P,logP"
    assert lines[1].startswith("1,")
    assert out.endswith("\n")
    # shortest round-trip floats
    k, p, logp = lines[1].split(",")
    assert float(p) == float(repr(float(p)))


def test_cotprofile_csv_schema():
    status, out = run(["cotprofile", "7"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "k,partial"
    assert len(lines) == 13  # F_7 - 1 = 12 rows


def test_scan_csv_schema():
    status, out = run(["scan", "50"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "k,logP_over_logk"
    assert lines[1].startswith("2,")
    assert len(lines) == 50  # k = 2..50


def test_csv_identical_across_workers():
    outputs = {workers: run(["profile", "11", "--workers", str(workers)])[1] for workers in (1, 4, 8)}
    assert outputs[1] == outputs[4] == outputs[8]


def test_output_file(tmp_path):
    path = tmp_path / "profile.csv"
    status, out = run(["profile", "6", "--output", str(path)])
    assert status == 0
    assert out == ""
    assert path.read_text().startswith("k,P,logP\n")


def test_unopenable_output_is_argument_error(tmp_path, capsys):
    status = cli.run(["profile", "5", "-o", str(tmp_path / "missing" / "x.csv")])
    assert status == 2
    assert capsys.readouterr().err.startswith("argument error: cannot open --output")


def test_identities_subcommand():
    status, out = run(["identities", "30"])
    assert status == 0
    assert "sine-roots-product" in out


def test_verify_quick_reports_known_unattainable_checks():
    """The suite runs everything and exits 1: two documented checks assert
    asymptotic sign conditions that no finite scan can satisfy."""
    status, out = run(["verify", "--level", "quick"])
    assert status == 1
    failing = {line.split()[0] for line in out.splitlines() if "  FAIL  " in line}
    assert failing == {"accumulation-point-zero", "power-law-k1-sign"}
