"""Acceptance criteria, one test per criterion.

Every check is an exact identity or an exact golden-value comparison (zero
tolerance); each test enforces its wall-clock budget and prints one
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from fractions import Fraction

from jordanrep.cli import main
from jordanrep.exact import ZERO, BiPoly
from jordanrep.irrep import (
    Irrep,
    casimir,
    map_to_deformed,
    verify_hopf,
    verify_sl2_relations,
    verma_basis_irrep,
)
from jordanrep.ncseries import suite_e2, suite_e3, suite_qe3
from jordanrep.so4 import build_so4, verify_so4_coalgebra, verify_so4_relations
from jordanrep.verma import build_table

import golden
from oracles import brute_force_actions, closed_form_oracle, failures, term, with_h


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {status}: {self.name} ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None and elapsed >= self.seconds:
            raise AssertionError(
                f"{self.name} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
            )


def run_cli_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_singular_vector_table(capsys):
    with Budget("1 singular-vector table lambda=0..7", 1.0):
        for lam, expected in golden.SINGULAR_VECTORS.items():
            code, payload = run_cli_json(capsys, ["singvec", "--lambda", str(lam)])
            assert code == 0
            got = [BiPoly.from_obj(c) for c in payload["coefficients"]]
            want = [term(v, 0, 2 * p) for p, v in enumerate(expected, start=1)]
            assert got == want, f"lambda={lam}"


def _located_mismatch(name, got, want):
    diff = got.first_difference(want)
    if diff is None:
        return None
    i, j, a, b = diff
    return f"{name} differs at ({i},{j}): computed {a}, expected {b}"


def test_criterion_2_verma_golden_matrices(capsys):
    with Budget("2 verma-basis golden matrices j=7/2", 1.0):
        code, payload = run_cli_json(capsys, ["irrep", "--j", "7/2", "--basis", "verma"])
        assert code == 0
        rep = Irrep.from_obj(payload, Fraction(7, 2))
        for name, want in (("X", golden.VERMA_X), ("Y", golden.VERMA_Y), ("H", golden.VERMA_H)):
            message = _located_mismatch(name, getattr(rep, name), want)
            assert message is None, message


def test_criterion_3_diagonal_golden_matrices(capsys):
    with Budget("3 diagonal-basis golden matrices j=7/2", 1.0):
        code, payload = run_cli_json(capsys, ["irrep", "--j", "7/2", "--basis", "diagonal"])
        assert code == 0
        rep = Irrep.from_obj(payload, Fraction(7, 2))
        for name, want in (("X", golden.DIAGONAL_X), ("Y", golden.DIAGONAL_Y), ("H", golden.DIAGONAL_H)):
            message = _located_mismatch(name, getattr(rep, name), want)
            assert message is None, message


def test_criterion_4_closed_form_equivalence():
    with Budget("4 closed-form oracle equivalence n<=12, symbolic weight", 5.0):
        table = build_table(17)
        for n in range(13):
            # the table holds each element's coefficient of h^2 or h^4
            assert table.H(n + 2, n) == closed_form_oracle("rho2", n), n
            assert table.X(n + 3, n) == closed_form_oracle("sigma2", n), n
            assert table.H(n + 4, n) == closed_form_oracle("rho4", n), n
            assert table.X(n + 5, n) == closed_form_oracle("sigma4", n), n


def test_criterion_5_relation_suite_all_spins():
    with Budget("5 defining relations + Casimir, j<=6, both bases", 30.0):
        j = Fraction(1, 2)
        while j <= 6:
            for rep in (verma_basis_irrep(j), map_to_deformed(j)):
                report = verify_sl2_relations(rep)
                assert report.passed, (j, rep.basis, [e.relation_label for e in failures(report)])
                is_scalar, value = casimir(rep)
                assert is_scalar, (j, rep.basis)
                assert value == j * (j + 1), (j, rep.basis)
            j += Fraction(1, 2)


def test_criterion_6_direct_action_oracle():
    with Budget("6 direct-action oracle matches recursion, j<=5/2", 10.0):
        max_level = 6  # levels reach 2j+1 for j = 5/2
        x_act, h_act = brute_force_actions(max_level)
        table = build_table(max_level)
        zero = ZERO
        for n in range(max_level + 1):
            for m in range(n + 1):
                if (n - m) % 2:
                    assert x_act[n].get(m, zero) == with_h(table.X(n, m), n - m - 1), ("X", n, m)
                else:
                    assert h_act[n].get(m, zero) == with_h(table.H(n, m), n - m), ("H", n, m)


def test_criterion_7_hopf_checks():
    with Budget("7 coproduct/counit/antipode on (1/2,1/2) and (1,1/2)", 10.0):
        for j1, j2 in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))):
            report = verify_hopf(j1, j2)
            assert report.passed, [e.relation_label for e in failures(report)]


def test_criterion_8_so4_relations_and_coalgebra():
    with Budget("8 composite algebra relations + both coproduct routes", 60.0):
        pairs = (
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(1, 2)),
            (Fraction(1), Fraction(1)),
        )
        for j1, j2 in pairs:
            rep = build_so4(j1, j2)
            relations = verify_so4_relations(rep)
            assert relations.passed, (j1, j2, [e.relation_label for e in failures(relations)])
            coalgebra = verify_so4_coalgebra(rep)
            assert coalgebra.passed, (j1, j2, [e.relation_label for e in failures(coalgebra)])


def test_criterion_9_series_suites():
    with Budget("9 series suites e2/e3/qe3 at order 8, zero residuals", 60.0):
        for suite in (suite_e2, suite_e3, suite_qe3):
            report = suite(8)
            assert report.passed, (report.suite, [e.relation_label for e in failures(report)])


def test_criterion_10_singularity_scan(capsys):
    with Budget("10 spectrum scan classifies the singular locus", 1.0):
        code = main(["spectrum", "--omega", "1", "--grid", "-3:3:0.5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "input_pi_plus,class,re_p_plus,im_p_plus,p_minus,p_zero"
        for line in lines[1:]:
            fields = line.split(",")
            value, cls = float(fields[0]), fields[1]
            if value == -1.0:
                assert cls == "singular", line
            elif value < -1.0:
                assert cls == "complex", line
            else:
                assert cls == "regular", line
