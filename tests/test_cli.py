"""Command-line surface: outputs, exit codes, reproducibility."""

import hashlib
import io
import math

import pytest

from sudler import birkhoff, cli, products


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


def test_profile_refusals_write_nothing(tmp_path, capsys):
    """An argument error or the up-front floor refusal comes before the
    header, on stdout and with -o, which then creates no file."""
    path = tmp_path / "profile.csv"
    cases = ((["profile", "0"], 2), (["profile", "5", "--stride", "0"], 2), (["profile", "32"], 3))
    for args, status in cases:
        assert run(args) == (status, ""), args
        assert cli.run(args + ["-o", str(path)]) == status, args
        assert not path.exists(), args
    assert "stride must be >= 1" in capsys.readouterr().err


def test_cotprofile_below_level_3_writes_nothing(tmp_path, capsys):
    path = tmp_path / "cot.csv"
    assert run(["cotprofile", "2"]) == (2, "")
    assert cli.run(["cotprofile", "2", "-o", str(path)]) == 2
    assert not path.exists()
    assert "level n must be >= 3" in capsys.readouterr().err


def test_scan_below_2_is_argument_error(capsys):
    """ln P_k / ln k starts at k = 2, as in power_law_scan."""
    for kmax in ("1", "0", "-5"):
        assert run(["scan", kmax]) == (2, ""), kmax
    assert "KMAX must be >= 2" in capsys.readouterr().err


def per_row_csv(header, rows):
    """The CSV writer before it formatted whole chunks: one join per row."""
    lines = [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n" for row in rows]
    return header + "\n" + "".join(lines)


def flat(chunks):
    return [row for cols in chunks for row in zip(*cols)]


@pytest.mark.parametrize("args", [
    ["profile", "22", "--stride", "1"],
    ["profile", "22", "--stride", "7"],
    ["cotprofile", "21"],
    ["cotprofile", "22"],
    ["scan", "20000"],
], ids="-".join)
def test_chunked_csv_equals_per_row_writer(ctx, args):
    """Each output crosses chunk cuts; cotprofile 21 is negated and scan
    drops k = 1."""
    n = int(args[1])
    if args[0] == "profile":
        want = per_row_csv("k,P,logP", flat(products.profile(n, int(args[3]), ctx)))
    elif args[0] == "cotprofile":
        want = per_row_csv("k,partial", flat(birkhoff.cot_profile(n, ctx)))
    else:
        rows = flat(products._log_prefix_iter(n, 1, ctx))
        want = per_row_csv("k,logP_over_logk", [(k, lp / math.log(k)) for k, lp in rows if k >= 2])
    assert run(args) == (0, want)


@pytest.mark.parametrize("args, digest", [
    (["profile", "27", "--stride", "1"], "ba632e150bd6c0d6de412d235827a9770b5bc0c77ddea6f8ed96b51768be6853"),
    (["cotprofile", "25"], "2c51fd5ad5278c84dce609399de13bba4803500dcca2bcbb497b233e5b5951bc"),
], ids=["profile-27", "cotprofile-25"])
def test_csv_bytes_pinned(args, digest):
    """sha256 of the output of the per-row writer these commands had
    before the CSV went out a chunk at a time."""
    status, out = run(args)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cotsum_prints_its_bounds():
    status, out = run(["cotsum", "10"])
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 2 and all("(|err| <= " in line for line in lines)
    assert 0 < float(lines[0].rsplit("<= ", 1)[1].rstrip(")")) < 1e-12


def test_scan_refusal_names_float64_rounding(tmp_path, capsys):
    """1.6M terms fit the 4.5 eps floor, but the log terms' own rounding
    crosses the budget partway through the scan."""
    status = cli.run(["scan", "1600000", "--output", str(tmp_path / "scan.csv")])
    assert status == 3
    err = capsys.readouterr().err
    assert "prefix pass at k=" in err
    assert "the log terms' float64 rounding, which no --precision lowers" in err


def test_scan_refused_before_any_row(tmp_path, capsys):
    """The prefix pass's own refusal comes before the output is opened or
    a row is written, with the same message as a streamed pass."""
    path = tmp_path / "scan.csv"
    assert cli.run(["scan", "1600000", "-o", str(path)]) == 3
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prefix pass at k=1556480, P=192" in captured.err
    assert run(["profile", "25", "-P", "64"]) == (3, "")
    assert "prefix pass at k=40960, P=64" in capsys.readouterr().err


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
