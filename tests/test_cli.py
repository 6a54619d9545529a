import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jordanrep import cli, irrep, ncseries
from jordanrep.cli import main
from jordanrep.errors import InputError
from jordanrep.exact import PolyMatrix
from jordanrep.irrep import Irrep, verma_basis_irrep
from jordanrep.latexout import matrix_latex
from jordanrep.report import VerificationReport


SRC = str(Path(cli.__file__).resolve().parent.parent)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_singvec_lambda_six(capsys):
    code, payload = run_json(capsys, ["singvec", "--lambda", "6"])
    assert code == 0
    assert payload["schema"] == "jordan-rep/1"
    assert payload["coefficients"] == [
        [{"c": "126", "l": 0, "h": 2}],
        [{"c": "3105", "l": 0, "h": 4}],
        [{"c": "8100", "l": 0, "h": 6}],
    ]


def test_irrep_verma_json_contains_golden_term(capsys):
    code, payload = run_json(capsys, ["irrep", "--j", "7/2", "--basis", "verma"])
    assert code == 0
    x = payload["matrices"]["X"]
    assert x[0][3] == [{"c": "-42", "l": 0, "h": 2}]
    rebuilt = Irrep.from_obj(payload, Fraction(7, 2))
    assert rebuilt == verma_basis_irrep(Fraction(7, 2))


def test_irrep_json_round_trip_via_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["irrep", "--j", "2", "--basis", "diagonal", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    rebuilt = Irrep.from_obj(payload, Fraction(2))
    assert rebuilt.to_obj() == {k: v for k, v in payload.items() if k != "schema"}


def test_verify_sl2_small(capsys):
    code, payload = run_json(capsys, ["verify", "sl2", "--j-max", "3/2"])
    assert code == 0
    assert payload["status"] == "pass"
    assert len(payload["reports"]) == 6  # three spins, two bases


CASIMIR = "Casimir scalar with classical value j(j+1)"


def test_verify_from_json_good_and_corrupted(tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    assert main(["irrep", "--j", "3/2", "--output", str(rep_file)]) == 0
    assert main(["verify", "sl2", "--from-json", str(rep_file)]) == 0
    capsys.readouterr()

    payload = json.loads(rep_file.read_text())
    entry = payload["matrices"]["X"][0][1][0]
    entry["c"] = "-" + entry["c"]
    bad_file = tmp_path / "corrupted.json"
    bad_file.write_text(json.dumps(payload))
    code, report = run_json(capsys, ["verify", "sl2", "--from-json", str(bad_file)])
    assert code == 1
    assert report["status"] == "fail"
    failing = {
        e["relation_label"]: e
        for r in report["reports"]
        for e in r["entries"]
        if e["status"] == "fail"
    }
    sinh = failing["[H,X] = (2/h) sinh(hX)"]
    assert "mismatch at" in sinh["detail"]
    assert sinh["residual_sample"] == "lhs=-108*h^2 rhs=-24*h^2"
    # the corrupted X also breaks the Casimir
    assert failing[CASIMIR]["detail"].startswith("is_scalar=False")


@pytest.mark.parametrize("x, y, h, detail", [
    ([[0] * 3] * 3, [[0] * 3] * 3, [[0] * 3] * 3, "is_scalar=True, value=0"),
    # V_{1/2} + V_0: X = E01, Y = E10, H = diag(1, -1, 0)
    ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
     [[1, 0, 0], [0, -1, 0], [0, 0, 0]], "is_scalar=False, value=3/4"),
], ids=["zero", "doublet_plus_singlet"])
def test_from_json_triple_that_is_not_the_irrep_fails_the_casimir(x, y, h, detail, tmp_path,
                                                                   capsys):
    """The three relations hold on the zero triple and on V_{1/2} + V_0, so
    only the Casimir tells them from the 3-dimensional irrep they claim.
    Each entry is a constant, the power h^0 that its grade fixes."""
    grid = lambda m: [[[{"c": str(c), "l": 0, "h": 0}] if c else [] for c in row] for row in m]
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({"j": "1", "basis": "diagonal",
                                    "matrices": {"X": grid(x), "Y": grid(y), "H": grid(h)}}))
    code, payload = run_json(capsys, ["verify", "sl2", "--from-json", str(rep_file)])
    assert code == 1 and payload["status"] == "fail"
    (report,) = payload["reports"]
    status = {e["relation_label"]: e["status"] for e in report["entries"]}
    assert status == {"[H,X] = (2/h) sinh(hX)": "pass", "[H,Y] = -{Y, cosh(hX)}": "pass",
                      "[X,Y] = H": "pass", CASIMIR: "fail"}
    assert [e["detail"] for e in report["entries"] if e["status"] == "fail"] == [detail]


@pytest.mark.parametrize("basis", ["verma", "diagonal"])
def test_from_json_irrep_passes_all_four_checks(basis, tmp_path, capsys):
    rep_file = str(tmp_path / "rep.json")
    assert main(["irrep", "--j", "3/2", "--basis", basis, "--output", rep_file]) == 0
    code, payload = run_json(capsys, ["verify", "sl2", "--from-json", rep_file])
    assert code == 0
    (report,) = payload["reports"]
    assert [e["relation_label"] for e in report["entries"]] == [
        CASIMIR, "[H,X] = (2/h) sinh(hX)", "[H,Y] = -{Y, cosh(hX)}", "[X,Y] = H"]
    assert all(e["status"] == "pass" for e in report["entries"])
    assert report["entries"][0]["detail"] == "value 15/4"


@pytest.mark.parametrize("argv, usage", [
    (["verify", "sl2", "--order", "500"], "usage: jordanrep verify sl2 [-h]"),
    (["elements", "--max-level", "1", "--bogus", "1"], "usage: jordanrep elements [-h]"),
], ids=["verify_sl2", "elements"])
def test_unread_option_is_reported_with_its_subcommand_usage(argv, usage, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err.startswith(usage)
    prog = usage.split(" [-h]")[0].removeprefix("usage: ")
    unread = " ".join(argv[-2:])
    assert captured.err.endswith(f"{prog}: error: unrecognized arguments: {unread}\n")


def test_verify_help_describes_every_suite(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one line per suite
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for suite in ("sl2", "hopf", "so4", "e2", "e3", "qe3", "all"):
        described = [line.split(None, 1) for line in lines if line.split()[:1] == [suite]]
        assert len(described) == 1 and len(described[0]) == 2, suite


#: The options that each verify suite reads, besides --output.
SUITE_OPTIONS = {
    "sl2": {"--j-max", "--from-json"},
    "hopf": {"--j1", "--j2"}, "so4": {"--j1", "--j2"},
    "e2": {"--order"}, "e3": {"--order"}, "qe3": {"--order"},
    "all": {"--j-max", "--order"},
}
OPTION_VALUES = {"--j-max": "1", "--from-json": "rep.json", "--j1": "1/2", "--j2": "0",
                 "--order": "2"}


@pytest.mark.parametrize("option", OPTION_VALUES)
@pytest.mark.parametrize("suite", SUITE_OPTIONS)
def test_each_suite_takes_only_the_options_it_reads(suite, option, tmp_path, monkeypatch,
                                                    capsys):
    """Every (suite, option) pair: a pair the suite reads runs it (each suite
    function here returns one passing entry), any other is a usage error
    that prints nothing and writes no --output file."""
    (tmp_path / "rep.json").write_text(json.dumps(verma_basis_irrep(Fraction(1, 2)).to_obj()))
    monkeypatch.chdir(tmp_path)

    def one(*args):
        report = VerificationReport("stub")
        report.add_pass("stub")
        return report

    monkeypatch.setattr(cli, "_sl2_suite", lambda j_max: [one()])
    for name in ("verify_sl2_relations", "verify_hopf"):
        monkeypatch.setattr(cli, name, one)
    for name in ("build_so4", "verify_so4_relations", "verify_so4_coalgebra"):
        monkeypatch.setattr(cli.so4, name, one)
    for name in ("suite_e2", "suite_e3", "suite_qe3"):
        monkeypatch.setattr(cli.ncseries, name, one)
    argv = ["verify", suite, option, OPTION_VALUES[option], "--output", "out.json"]
    if option in SUITE_OPTIONS[suite]:
        assert main(argv) == 0
        assert json.loads((tmp_path / "out.json").read_text())["status"] == "pass"
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()
    assert capsys.readouterr().out == ""


def test_from_json_excludes_j_max(tmp_path, capsys):
    """verify sl2 checks either the irreps built up to --j-max or one read
    from a file, never both."""
    rep_file = str(tmp_path / "rep.json")
    assert main(["irrep", "--j", "1", "--output", rep_file]) == 0
    assert main(["verify", "sl2", "--from-json", rep_file]) == 0
    capsys.readouterr()
    for argv in (["--from-json", rep_file, "--j-max", "1"],
                 ["--j-max", "1", "--from-json", rep_file]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sl2", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


def test_verify_e3_exit_zero(capsys):
    code, payload = run_json(capsys, ["verify", "e3", "--order", "4"])
    assert code == 0
    assert payload["status"] == "pass"


def test_verify_hopf_cli(capsys):
    code, payload = run_json(capsys, ["verify", "hopf", "--j1", "1", "--j2", "1/2"])
    assert code == 0


def test_verify_all_smoke(capsys):
    code, payload = run_json(capsys, ["verify", "all", "--j-max", "1", "--order", "3"])
    assert code == 0
    assert payload["status"] == "pass"
    suites = {r["suite"] for r in payload["reports"]}
    assert any(s.startswith("e2") for s in suites)
    assert any(s.startswith("so4 coalgebra") for s in suites)


def test_spectrum_csv(capsys):
    code = main(["spectrum", "--omega", "1", "--grid", "-3:3:0.5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "input_pi_plus,class,re_p_plus,im_p_plus,p_minus,p_zero"
    table = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert table["-1.0"] == "singular"
    assert table["-3.0"] == "complex"
    assert table["3.0"] == "regular"


def test_spectrum_json(tmp_path, monkeypatch, capsys):
    # --out is spectrum's format option, next to --output: it writes no file
    monkeypatch.chdir(tmp_path)
    code, payload = run_json(capsys, ["spectrum", "--omega", "2", "--grid", "0:1:0.5", "--out", "json"])
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    assert payload["kind"] == "spectrum"
    assert len(payload["rows"]) == 3
    assert "nearest_approach" in payload


def test_elements_dump(capsys):
    code, payload = run_json(capsys, ["elements", "--max-level", "2", "--lambda", "7"])
    assert code == 0
    lookup = {
        (e["generator"], e["n"], e["m"]): e["value"] for e in payload["elements"]
    }
    assert lookup[("H", 0, 0)] == [{"c": "7", "l": 0, "h": 0}]
    assert lookup[("H", 2, 0)] == [{"c": "-42", "l": 0, "h": 2}]


def test_elements_latex(capsys):
    code = main(["elements", "--max-level", "1", "--format", "latex"])
    out = capsys.readouterr().out
    assert code == 0
    assert "H_{1}^{1} &= \\lambda - 2" in out


def test_latex_one_by_one_zero():
    assert matrix_latex(PolyMatrix.zeros((0,), 0)) == "0"


def test_latex_half_spin_x(capsys):
    code = main(["irrep", "--j", "1/2", "--format", "latex"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\\begin{pmatrix}\n0 & 1 \\\\\n0 & 0\n\\end{pmatrix}" in out


def test_latex_diagonal_h(capsys):
    code = main(["irrep", "--j", "7/2", "--basis", "diagonal", "--format", "latex"])
    out = capsys.readouterr().out
    assert code == 0
    h_block = out.split("H = ")[1]
    for value in ("7", "5", "3", "1", "-1", "-3", "-5", "-7"):
        assert value in h_block


@pytest.mark.parametrize(
    "argv",
    [
        ["irrep", "--j", "3.5"],
        ["irrep", "--j", "4/2"],
        ["irrep", "--j", "-1"],
        ["spectrum", "--omega", "1", "--grid", "nonsense"],
        ["bogus"],
        [],
        ["elements", "--max-level", "3", "--lambda", "1/0"],
        # options are spelled out in full: --out is not --output (which
        # wrote a file named json), nor --max-lev --max-level
        ["verify", "qe3", "--order", "6", "--out", "json"],
        ["elements", "--max-lev", "3"],
        # each verify suite takes only the options it reads: --from-json
        # reads a representation for the sl2 relations only
        ["verify", "so4", "--from-json", "nofile"],
        ["verify", "hopf", "--from-json", "nofile"],
        ["verify", "e2", "--from-json", "nofile"],
        ["verify", "all", "--from-json", "nofile"],
        # spectrum numbers are exact rationals, so argparse refuses non-finite ones
        ["spectrum", "--omega", "1", "--grid", "0:1:nan"],
        ["spectrum", "--omega", "1", "--grid", "0:inf:1"],
        ["spectrum", "--omega", "nan", "--grid", "0:1:0.5", "--out", "json"],
        ["spectrum", "--omega", "1", "--grid", "0:1:0.5", "--pi0", "inf"],
        ["spectrum", "--omega", "1", "--grid", "0:1:0.5", "--pim", "nan"],
        # nor does a suite take another's size: --order belongs to the series
        # suites and all, --j1 --j2 to hopf and so4, --j-max to sl2 and all
        ["verify", "sl2", "--order", "500"],
        ["verify", "so4", "--order", "1"],
        ["verify", "e3", "--j1", "200", "--j2", "200", "--order", "2"],
        ["verify", "e2", "--j-max", "100", "--order", "2"],
        ["verify", "all", "--j1", "1", "--output", "out.json"],
        # an option before the suite name belongs to no suite
        ["verify", "--order", "6", "qe3"],
    ],
)
def test_usage_errors_exit_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


#: 10^-400 as a rational: nonzero, and too small for a float.
_TINY = Fraction(1, 10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--omega", "0", "--grid", "0:1:0.5"],
        ["verify", "sl2", "--j-max", "0"],
        # grids refused before any point is allocated
        ["spectrum", "--omega", "1", "--grid", "0:1e12:1e-3"],
        ["spectrum", "--omega", "1", "--grid", "0:1:0"],
        ["spectrum", "--omega", "1", "--grid", "2:1:0.5"],
        # scans whose p_minus = pim + (omega/4) pi0**2 / u leaves the float range
        ["spectrum", "--omega", "1", "--grid", "0:1:0.5", "--pi0", "1e200"],
        ["spectrum", "--omega", "1e10", "--grid", "0:1:0.5", "--pi0", "1e154", "--out", "json"],
        ["verify", "e2", "--order", "1"],
        ["verify", "qe3", "--order", str(cli.MAX_ORDER + 1)],
        ["verify", "all", "--order", "1000000000"],
        ["irrep", "--j", "1", "--output", "/nonexistent/x.json"],
        # exact inputs whose scan leaves the float range: a nonzero u = 1 + omega pi+
        # too small for a float, an omega too small for one, a pi+ too large,
        # and ln|u|/omega and pi/omega beyond the largest float
        ["spectrum", "--omega", "1", "--grid", f"{_TINY - 1}:{_TINY - 1}:1"],
        ["spectrum", "--omega", "1e-400", "--grid", "0:1:0.5"],
        ["spectrum", "--omega", "1", "--grid", "1e400:1e400:1"],
        ["spectrum", "--omega", f"1/{2**1020}", "--grid", f"{2**20 - 2**1020}:0:{2**1021}"],
        ["spectrum", f"--omega=-1/{2**1023}", "--grid", f"{3 * 2**1022}:{3 * 2**1022}:1"],
    ],
)
def test_refused_inputs_exit_two_without_traceback(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_zero_omega_is_refused_with_its_own_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--omega", "0", "--grid", "0:1:0.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: the spectrum scan needs a nonzero deformation parameter\n")


def test_malformed_from_json_exits_two(tmp_path, capsys):
    assert main(["irrep", "--j", "1/2", "--output", str(tmp_path / "rep.json")]) == 0
    ragged = json.loads((tmp_path / "rep.json").read_text())
    ragged["matrices"]["X"] = [[[], []], [[], []], [[], []]]  # 3x2 against 2x2
    assert main(["irrep", "--j", "1", "--output", str(tmp_path / "rep.json")]) == 0
    relabelled = json.loads((tmp_path / "rep.json").read_text())
    relabelled["j"] = "1/2"  # 3x3 matrices labelled as a doublet
    zero_denominator = json.loads((tmp_path / "rep.json").read_text())
    zero_denominator["matrices"]["X"][0][1][0]["c"] = "1/0"
    huge = []  # infinities, and 1e400, which json also reads as one
    for literal in ("Infinity", "-Infinity", "1e400"):
        for field in ("j", "c", "h"):
            payload = json.loads((tmp_path / "rep.json").read_text())
            if field == "j":
                payload["j"] = "@"
            else:
                payload["matrices"]["X"][0][1][0][field] = "@"
            huge.append((f"{field}{literal}.json", json.dumps(payload).replace('"@"', literal)))
    for name, payload in (
        ("missing.json", {"j": "1/2"}),
        ("wrong.json", [1, 2]),
        ("ragged.json", ragged),
        ("relabelled.json", relabelled),
        ("basis.json", {**relabelled, "j": "1", "basis": "bogus"}),
        ("zero_denominator.json", zero_denominator),
        ("not_json.json", "{not json"),
        *huge,
    ):
        rep_file = tmp_path / name
        rep_file.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sl2", "--from-json", str(rep_file)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_repeated_term_from_json_exits_two(tmp_path, capsys):
    """An entry that lists the same (l, h) twice is refused: read as a dict,
    the second term would silently replace the first, so a file with a
    wrong term before the right one passed."""
    assert main(["irrep", "--j", "1", "--basis", "diagonal",
                 "--output", str(tmp_path / "rep.json")]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "rep.json").read_text())
    entry = payload["matrices"]["X"][0][1]
    payload["matrices"]["X"][0][1] = [{"c": "5", "l": 0, "h": 0}, *entry]
    rep_file = tmp_path / "repeated.json"
    rep_file.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sl2", "--from-json", str(rep_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "is not a representation" in captured.err and "repeated term" in captured.err


def test_off_grade_from_json_entry_exits_two(tmp_path, capsys):
    """X has weight 2, so its (0, 1) entry on the diagonal basis is a pure
    number: a term in h or in lam there is off its grade and refused as
    input, not compared at h = 1."""
    assert main(["irrep", "--j", "1", "--basis", "diagonal",
                 "--output", str(tmp_path / "rep.json")]) == 0
    capsys.readouterr()
    for extra in ({"c": "1", "l": 0, "h": 1}, {"c": "1", "l": 1, "h": 0}):
        payload = json.loads((tmp_path / "rep.json").read_text())
        payload["matrices"]["X"][0][1].append(extra)
        rep_file = tmp_path / "off_grade.json"
        rep_file.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sl2", "--from-json", str(rep_file)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "off its grade" in captured.err


def test_non_integer_exponent_from_json_exits_two(tmp_path, capsys):
    """An exponent that is a float or a bool is refused, not truncated to
    the int that the entry's grade asks for."""
    assert main(["irrep", "--j", "1/2", "--basis", "diagonal",
                 "--output", str(tmp_path / "rep.json")]) == 0
    for field, value in (("h", 0.5), ("l", 0.9), ("h", False), ("l", False), ("h", True)):
        payload = json.loads((tmp_path / "rep.json").read_text())
        payload["matrices"]["X"][0][1][0][field] = value
        rep_file = tmp_path / "exponent.json"
        rep_file.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sl2", "--from-json", str(rep_file)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "exponents must be integers" in captured.err


def test_non_string_coefficient_from_json_exits_two(tmp_path, capsys):
    """A coefficient is encoded as a "p/q" string: a JSON bool or float is
    refused, not read as 1 or as the binary value of 0.1."""
    assert main(["irrep", "--j", "1/2", "--basis", "diagonal",
                 "--output", str(tmp_path / "rep.json")]) == 0
    for value in (True, 1.0, 0.1):
        payload = json.loads((tmp_path / "rep.json").read_text())
        payload["matrices"]["X"][0][1][0]["c"] = value
        rep_file = tmp_path / "coefficient.json"
        rep_file.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sl2", "--from-json", str(rep_file)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "coefficients must be" in captured.err


def test_bool_spin_from_json_exits_two(tmp_path, capsys):
    """A JSON true is not the spin 1, though Python reads it as 1: the j = 1
    irrep with "j": true is refused, and with "j": 1 it passes."""
    assert main(["irrep", "--j", "1", "--basis", "diagonal",
                 "--output", str(tmp_path / "rep.json")]) == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    rep_file = tmp_path / "spin.json"
    rep_file.write_text(json.dumps({**payload, "j": 1}))
    assert main(["verify", "sl2", "--from-json", str(rep_file)]) == 0
    capsys.readouterr()
    rep_file.write_text(json.dumps({**payload, "j": True}))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sl2", "--from-json", str(rep_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "half-integer" in captured.err


def test_order_cap_is_checked_before_any_work(monkeypatch, capsys):
    def never(*args):
        raise AssertionError(f"suite ran at {args}")

    for name in ("suite_e2", "suite_e3", "suite_qe3"):
        monkeypatch.setattr(cli.ncseries, name, never)
    for name in ("_sl2_suite", "verify_hopf"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(cli.so4, "build_so4", never)
    for suite, order in (("qe3", cli.MAX_ORDER + 1), ("qe3", 1), ("all", 1)):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--order", str(order)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if order == 1:
            assert "order must be at least 2" in err
    # the smallest and largest allowed orders reach the suite
    for order in (2, cli.MAX_ORDER):
        with pytest.raises(AssertionError, match=f"suite ran at \\({order},\\)"):
            main(["verify", "qe3", "--order", str(order)])


def test_tensor_cap_is_checked_before_any_work(monkeypatch, capsys):
    def never(j1, j2):
        raise AssertionError(f"suite ran at ({j1}, {j2})")

    monkeypatch.setattr(cli.so4, "build_so4", never)
    monkeypatch.setattr(cli, "verify_hopf", never)
    # 2j2 + 1 = MAX_TENSOR_DIM + 1 with j1 = 0, and a square just past the cap
    side = math.isqrt(cli.MAX_TENSOR_DIM) + 1
    too_big = [("0", str(Fraction(cli.MAX_TENSOR_DIM, 2))),
               (str(Fraction(side - 1, 2)), str(Fraction(side - 1, 2)))]
    for suite in ("so4", "hopf"):
        for j1, j2 in too_big:
            with pytest.raises(SystemExit) as exc:
                main(["verify", suite, "--j1", j1, "--j2", j2])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "tensor dimension" in err
        # the largest allowed dimension reaches the suite
        largest = str(Fraction(cli.MAX_TENSOR_DIM - 1, 2))
        with pytest.raises(AssertionError, match=f"suite ran at \\(0, {largest}\\)"):
            main(["verify", suite, "--j1", "0", "--j2", largest])


def test_level_and_spin_caps_are_checked_before_any_work(monkeypatch, capsys):
    class Started(Exception):
        pass

    def never(*args):
        raise Started(*args)

    for name in ("build_table", "verma_basis_irrep", "map_to_deformed", "singular_vector"):
        monkeypatch.setattr(cli, name, never)
    over = str(cli.MAX_SPIN + Fraction(1, 2))
    wide = 10**cli.MAX_LAMBDA_DIGITS - 1  # the largest MAX_LAMBDA_DIGITS-digit integer
    too_big = [
        ["elements", "--max-level", str(cli.MAX_LEVEL + 1)],
        ["elements", "--max-level", str(2 * cli.MAX_SPIN + 2), "--lambda", "7"],
        ["irrep", "--j", over, "--basis", "verma"],
        ["irrep", "--j", over, "--basis", "diagonal"],
        ["singvec", "--lambda", str(2 * cli.MAX_SPIN + 1)],
        ["verify", "sl2", "--j-max", over],
        ["verify", "all", "--j-max", over],
        # a --lambda with one part above MAX_LAMBDA_DIGITS digits, whatever the level
        ["elements", "--max-level", "1", "--lambda", f"{10**cli.MAX_LAMBDA_DIGITS}/3"],
        ["elements", "--max-level", "1", "--lambda", f"-7/{10**cli.MAX_LAMBDA_DIGITS + 1}"],
        ["elements", "--max-level", "27", "--lambda", "1e170"],
    ]
    for argv in too_big:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert "is above the largest" in captured.err
    # the largest allowed sizes reach the builders
    largest = [
        (["elements", "--max-level", str(cli.MAX_LEVEL)], (cli.MAX_LEVEL,)),
        (["elements", "--max-level", str(2 * cli.MAX_SPIN + 1), "--lambda", "7"],
         (2 * cli.MAX_SPIN + 1, 7)),
        (["irrep", "--j", str(cli.MAX_SPIN), "--basis", "verma"], (cli.MAX_SPIN,)),
        (["irrep", "--j", str(cli.MAX_SPIN), "--basis", "diagonal"], (cli.MAX_SPIN,)),
        (["singvec", "--lambda", str(2 * cli.MAX_SPIN)], (cli.MAX_SPIN,)),
        (["elements", "--max-level", "27", "--lambda", f"-{wide}/{wide - 2}"],
         (27, Fraction(-wide, wide - 2))),
    ]
    for argv, args in largest:
        with pytest.raises(Started) as exc:
            main(argv)
        assert exc.value.args == args, argv
    for suite in ("sl2", "all"):
        with pytest.raises(Started):
            main(["verify", suite, "--j-max", str(cli.MAX_SPIN)])


def test_huge_j_from_json_is_refused_before_any_basis_weight(tmp_path, monkeypatch, capsys):
    """A "j" far above its grids' size exits 2 on the size check, before
    spin_weights could build 2j + 1 basis weights."""
    def never(j):
        raise AssertionError(f"spin_weights({j}) ran")

    monkeypatch.setattr(irrep, "spin_weights", never)
    payload = {"j": "1000000000000", "basis": "diagonal",
               "matrices": {name: [[[]]] for name in ("X", "Y", "H")}}
    rep_file = tmp_path / "huge.json"
    rep_file.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sl2", "--from-json", str(rep_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "needs 2000000000001" in captured.err


def test_from_json_above_the_tensor_cap_is_refused_before_any_grid(tmp_path, monkeypatch,
                                                                    capsys):
    """2j + 1 above MAX_TENSOR_DIM exits 2 with one error line as soon as "j"
    is read, before a grid entry is parsed; at the cap the file goes on to
    the grid-size check."""
    def never(obj):
        raise AssertionError("BiPoly.from_obj ran")

    monkeypatch.setattr(irrep.BiPoly, "from_obj", never)
    over = Fraction(cli.MAX_TENSOR_DIM, 2)  # 2j + 1 = MAX_TENSOR_DIM + 1
    payload = {"j": str(over), "basis": "diagonal",
               "matrices": {name: [[[]]] for name in ("X", "Y", "H")}}
    rep_file = tmp_path / "over.json"
    rep_file.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sl2", "--from-json", str(rep_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"above the largest {cli.MAX_TENSOR_DIM}" in captured.err

    monkeypatch.undo()
    payload["j"] = str(over - Fraction(1, 2))
    rep_file.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sl2", "--from-json", str(rep_file)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "is not a representation" in err and f"needs {cli.MAX_TENSOR_DIM}" in err


def test_from_json_spin_is_checked_once(tmp_path, monkeypatch, capsys):
    """The spin of a --from-json file is read and checked once, where the
    size cap needs it: a file whose 2j + 1 is above MAX_TENSOR_DIM is
    refused with one error line though it has no matrices at all, and a
    good file passes its spin to Irrep.from_obj as checked."""
    checked, honest = [], cli.half_integer

    def counting(j):
        checked.append(j)
        return honest(j)

    monkeypatch.setattr(cli, "half_integer", counting)
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({"j": str(Fraction(cli.MAX_TENSOR_DIM, 2)), "basis": "verma"}))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sl2", "--from-json", str(rep_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"above the largest {cli.MAX_TENSOR_DIM}" in captured.err
    assert checked == [str(Fraction(cli.MAX_TENSOR_DIM, 2))]

    assert main(["irrep", "--j", "3/2", "--output", str(rep_file)]) == 0
    checked.clear()  # argparse read --j through the same reader
    assert main(["verify", "sl2", "--from-json", str(rep_file)]) == 0
    capsys.readouterr()
    assert checked == ["3/2"]


def test_elements_json_puts_back_each_power_of_h(capsys):
    """The table keeps h-coefficients; every JSON entry carries h^{n-m} (H)
    or h^{n-m-1} (X), symbolic or at a rational lam."""
    for extra in ([], ["--lambda", "5/3"]):
        code, payload = run_json(capsys, ["elements", "--max-level", "9", *extra])
        assert code == 0
        assert len(payload["elements"]) == 30 + 25  # H and X elements up to level 9
        kinds = set()
        for e in payload["elements"]:
            degree = e["n"] - e["m"] - (e["generator"] == "X")
            assert e["value"] and all(t["h"] == degree for t in e["value"]), e
            kinds.add(e["generator"])
        assert kinds == {"H", "X"}


def test_grid_cap_is_checked_before_allocating():
    top = Fraction(cli.MAX_GRID_POINTS)
    assert len(cli.grid_points(Fraction(0), top - 1, Fraction(1))) == cli.MAX_GRID_POINTS
    with pytest.raises(InputError, match="more than"):
        cli.grid_points(Fraction(0), top, Fraction(1))
    with pytest.raises(InputError, match="more than"):
        cli.grid_points(Fraction(-10**308), Fraction(10**308), Fraction(1, 10**300))


def test_exactly_singular_grid_point_is_a_singular_hit(capsys):
    """u = 1 + omega pi+ is zero exactly at pi+ = -2 for omega = 1/2, the
    second point of the grid, which -2.01 + 0.01 in floats is not."""
    argv = ["spectrum", "--omega", "0.5", "--grid", "-2.01:-1.99:0.01"]
    code, payload = run_json(capsys, argv + ["--out", "json"])
    assert code == 0 and payload["singular_hit"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[2] == "-2.0,singular,,,,"


def test_grid_keeps_its_last_point(capsys):
    """(1.5001 - 1.5) / 1e-5 is exactly 10; in floats it is 1.1e-12 short
    of 10, which a rounding slack of 1e-12 does not make up."""
    assert main(["spectrum", "--omega", "1", "--grid", "1.5:1.5001:1e-5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 11
    assert rows[-1].split(",")[0] == "1.5001"


def test_numbers_past_the_float_range_are_input_errors():
    """Refused by the scan and the grid count themselves, not by the exit
    code main gives a ValueError: a nonzero u = 1 + omega pi+ that rounds to
    0.0, and omegas and a grid bound of 5001 digits, more than a refusal
    could print."""
    one, huge = Fraction(1), Fraction(10**5000)
    with pytest.raises(InputError, match="leave the float range"):
        ncseries.momentum_spectrum(one, [_TINY - 1], one, one)
    for omega in (huge, 1 / huge):
        with pytest.raises(InputError, match="leave the float range"):
            ncseries.momentum_spectrum(omega, [one], one, one)
    with pytest.raises(InputError, match="empty"):
        cli.grid_points(huge, one, one)


def test_internal_package_errors_propagate(monkeypatch):
    """A KeyError from a table read past its level is a defect, not an input
    error, and leaves main as it was raised."""
    def broken(args):
        raise KeyError("defect, not an input error")

    monkeypatch.setattr(cli, "cmd_spectrum", broken)
    with pytest.raises(KeyError):
        main(["spectrum", "--omega", "1", "--grid", "0:1:0.5"])


def test_half_integer():
    """The one spin reader, of --j, --j1, --j2, --j-max and a JSON "j": an
    int or the text "n" or "odd/2", nonnegative."""
    assert cli.half_integer("7/2") == Fraction(7, 2)
    assert cli.half_integer(1) == 1 and cli.half_integer("0") == 0
    for refused in (True,  # a JSON true, which Python reads as 1
                    Fraction(1, 3), -1, "-1", "1.5", "6/4", 1.5, "1e100000000"):
        with pytest.raises(ValueError, match="half-integer"):
            cli.half_integer(refused)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--omega", "1e100000000", "--grid", "0:1:1"],
    ["elements", "--max-level", "1", "--lambda", "1e100000000"],
    ["verify", "sl2", "--from-json", "j.json"],
    ["verify", "sl2", "--from-json", "c.json"],
    ["elements", "--max-level", "27", "--lambda", "1e170"],
])
def test_huge_exponents_are_refused_at_once(argv, tmp_path):
    """A decimal exponent far past the float range is refused before any
    power of ten is built, on the command line and as a --from-json "j" or
    coefficient, with one error line; each of these ran for minutes when
    Fraction read the text.  A --lambda of more than MAX_LAMBDA_DIGITS
    digits is refused before its table is built (1e170 took 22 s)."""
    assert main(["irrep", "--j", "1/2", "--basis", "diagonal",
                 "--output", str(tmp_path / "rep.json")]) == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    (tmp_path / "j.json").write_text(json.dumps({**payload, "j": "1e100000000"}))
    payload["matrices"]["X"][0][1][0]["c"] = "1e100000000"
    (tmp_path / "c.json").write_text(json.dumps(payload))
    done = subprocess.run([sys.executable, "-m", "jordanrep.cli", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                          text=True, timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("error:") == 1, done.stderr


@pytest.mark.parametrize("head, option, value", [
    (["spectrum", "--grid", "0:1:1"], "--omega", "-1/2"),
    (["spectrum", "--grid", "0:1:1"], "--omega", "-1e-20"),
    (["elements", "--max-level", "1"], "--lambda", "-7/3"),
])
def test_negative_values_need_no_equals_sign(head, option, value, capsys):
    assert main([*head, f"{option}={value}"]) == 0
    expected = capsys.readouterr().out
    assert main([*head, option, value]) == 0
    assert capsys.readouterr().out == expected
