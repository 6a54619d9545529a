import json
import math
from fractions import Fraction

import pytest

from jordanrep import cli, irrep
from jordanrep.cli import main
from jordanrep.errors import InputError
from jordanrep.exact import PolyMatrix
from jordanrep.irrep import Irrep, verma_basis_irrep
from jordanrep.latexout import matrix_latex


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
    rebuilt = Irrep.from_obj(payload)
    assert rebuilt == verma_basis_irrep(Fraction(7, 2))


def test_irrep_json_round_trip_via_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["irrep", "--j", "2", "--basis", "diagonal", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    rebuilt = Irrep.from_obj(payload)
    assert rebuilt.to_obj() == {k: v for k, v in payload.items() if k != "schema"}


def test_verify_sl2_small(capsys):
    code, payload = run_json(capsys, ["verify", "sl2", "--j-max", "3/2"])
    assert code == 0
    assert payload["status"] == "pass"
    assert len(payload["reports"]) == 6  # three spins, two bases


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
    failing = [
        e
        for r in report["reports"]
        for e in r["entries"]
        if e["status"] == "fail"
    ]
    assert failing and "mismatch at" in failing[0]["detail"]
    assert failing[0]["residual_sample"] == "lhs=-108*h^2 rhs=-24*h^2"


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
        # --from-json reads a representation for the sl2 relations only
        ["verify", "so4", "--from-json", "nofile"],
        ["verify", "hopf", "--from-json", "nofile"],
        ["verify", "e2", "--from-json", "nofile"],
        ["verify", "all", "--from-json", "nofile"],
    ],
)
def test_usage_errors_exit_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--omega", "0", "--grid", "0:1:0.5"],
        ["verify", "sl2", "--j-max", "0"],
        # grids refused before any point is allocated
        ["spectrum", "--omega", "1", "--grid", "0:1:nan"],
        ["spectrum", "--omega", "1", "--grid", "0:inf:1"],
        ["spectrum", "--omega", "1", "--grid", "0:1e12:1e-3"],
        ["spectrum", "--omega", "1", "--grid", "0:1:0"],
        ["spectrum", "--omega", "1", "--grid", "2:1:0.5"],
        ["spectrum", "--omega", "nan", "--grid", "0:1:0.5", "--out", "json"],
        ["spectrum", "--omega", "1", "--grid", "0:1:0.5", "--pi0", "inf"],
        ["spectrum", "--omega", "1", "--grid", "0:1:0.5", "--pim", "nan"],
        # finite inputs whose scan overflows floats: pi0**2, then p_minus
        ["spectrum", "--omega", "1", "--grid", "0:1:0.5", "--pi0", "1e200"],
        ["spectrum", "--omega", "1e10", "--grid", "0:1:0.5", "--pi0", "1e154", "--out", "json"],
        ["verify", "e2", "--order", "1"],
        ["verify", "qe3", "--order", str(cli.MAX_ORDER + 1)],
        ["verify", "all", "--order", "1000000000"],
        ["irrep", "--j", "1", "--output", "/nonexistent/x.json"],
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
    too_big = [
        ["elements", "--max-level", str(cli.MAX_LEVEL + 1)],
        ["elements", "--max-level", str(2 * cli.MAX_SPIN + 2), "--lambda", "7"],
        ["irrep", "--j", over, "--basis", "verma"],
        ["irrep", "--j", over, "--basis", "diagonal"],
        ["singvec", "--lambda", str(2 * cli.MAX_SPIN + 1)],
        ["verify", "sl2", "--j-max", over],
        ["verify", "all", "--j-max", over],
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
    assert len(cli.grid_points(0.0, cli.MAX_GRID_POINTS - 1.0, 1.0)) == cli.MAX_GRID_POINTS
    with pytest.raises(InputError, match="more than"):
        cli.grid_points(0.0, float(cli.MAX_GRID_POINTS), 1.0)
    with pytest.raises(InputError, match="more than"):
        cli.grid_points(-1e308, 1e308, 1e-300)


def test_internal_package_errors_propagate(monkeypatch):
    """A KeyError from a table read past its level is a defect, not an input
    error, and leaves main as it was raised."""
    def broken(args):
        raise KeyError("defect, not an input error")

    monkeypatch.setattr(cli, "cmd_spectrum", broken)
    with pytest.raises(KeyError):
        main(["spectrum", "--omega", "1", "--grid", "0:1:0.5"])
