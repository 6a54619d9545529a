"""Per-relation pass/fail records for the verification suites."""

from __future__ import annotations

from collections import namedtuple


class CheckEntry(namedtuple("CheckEntry", "relation_label status detail residual_sample")):
    """One relation's outcome: status is "pass" or "fail"; detail and
    residual_sample are strings or None."""

    def to_obj(self) -> dict:
        obj = {"relation_label": self.relation_label, "status": self.status}
        if self.detail is not None:
            obj["detail"] = self.detail
        if self.residual_sample is not None:
            obj["residual_sample"] = self.residual_sample
        return obj


class VerificationReport:
    """A suite's entries in the order checked, with optional JSON ``meta``."""

    def __init__(self, suite: str, meta: dict | None = None):
        self.suite = suite
        self.entries: list[CheckEntry] = []
        self.meta = meta

    def add_pass(self, label: str, detail: str | None = None):
        self.entries.append(CheckEntry(label, "pass", detail, None))

    def add_fail(self, label: str, detail: str, residual_sample: str | None = None):
        self.entries.append(CheckEntry(label, "fail", detail, residual_sample))

    @property
    def passed(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def check_matrix_identity(self, label: str, lhs, rhs):
        """Record exact equality of two polynomial matrices, locating the
        first bad entry on failure."""
        diff = lhs.first_difference(rhs)
        if diff is None:
            self.add_pass(label)
        else:
            i, j, a, b = diff
            self.add_fail(
                label,
                f"first mismatch at ({i},{j})",
                f"lhs={a} rhs={b}",
            )

    def check_series_zero(self, label: str, residual, min_order: int):
        """Record that a normal-ordered residual vanishes identically through
        at least ``min_order`` in the deformation parameter."""
        if residual.order < min_order:
            self.add_fail(
                label,
                f"residual known only to order {residual.order} < {min_order}",
            )
            return
        bad = residual.first_nonzero()
        if bad is None:
            self.add_pass(label, f"zero through order {residual.order}")
        else:
            word, order, coeff = bad
            self.add_fail(
                label,
                f"first nonzero at order {order}, monomial {word}",
                str(coeff),
            )

    def to_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "status": "pass" if self.passed else "fail",
            "entries": [
                e.to_obj() for e in sorted(self.entries, key=lambda e: e.relation_label)
            ],
        }
        if self.meta:
            obj["meta"] = dict(sorted(self.meta.items()))
        return obj
