"""Verification targets: every closed form re-derived by an independent
route and compared coefficient by coefficient.

Each target returns a ``VerifyReport`` that passes exactly when all of its
comparisons agree. On a disagreement the report records the first
differing coefficient of the first comparison that failed. An exponential
route keeps its size guard, which only ``budget.lifted()`` lifts.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import budget, diamonds, oracle, permstat, poset as posets, series


def _list_difference(left: Sequence[int], right: Sequence[int]):
    """First power where two coefficient lists differ, with both
    coefficients (None past the end of a list), or None when equal."""
    if left == right:
        return None
    for n, (lc, rc) in enumerate(itertools.zip_longest(left, right)):
        if lc != rc:
            return (n, lc, rc)
    return None


@dataclass
class VerifyReport:
    """Outcome of one verification target. The mismatch is the one record of
    failure: ``status`` is "fail" exactly when it is present, else "pass"."""

    command: str
    parameters: dict
    mismatch: Optional[dict] = None
    details: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.mismatch is None

    @property
    def status(self) -> str:
        return "pass" if self.mismatch is None else "fail"

    def compare(self, lhs_name: str, lhs, rhs_name: str, rhs, **context) -> bool:
        """Whether ``lhs`` equals ``rhs``.

        The first disagreement on this report is recorded as its mismatch,
        and the report fails. The mismatch names the first differing
        coefficient: ``power`` for coefficient lists, ``monomial`` (graded-lex
        first) for polynomials and series, plus any ``context`` given.
        """
        if isinstance(lhs, list):
            key, diff = "power", _list_difference(lhs, rhs)
        else:
            key, diff = "monomial", lhs.first_difference(rhs)
        if diff is None:
            return True
        if self.mismatch is None:
            where, lc, rc = diff
            self.mismatch = {
                **context,
                key: list(where) if key == "monomial" else where,
                "lhs": lhs_name,
                "rhs": rhs_name,
                "lhs_coefficient": "absent" if lc is None else str(lc),
                "rhs_coefficient": "absent" if rc is None else str(rc),
            }
        return False

    def as_json_dict(self) -> dict:
        # Deterministic: identical invocations must serialize identically,
        # so the elapsed time stays out.
        return {
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "mismatch": self.mismatch,
            "details": self.details,
        }

    def text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.parameters:
            lines.append(
                "parameters: " + " ".join(f"{k}={v}" for k, v in self.parameters.items())
            )
        lines.extend(f"  {detail}" for detail in self.details)
        if self.mismatch is not None:
            lines.append("mismatch: " + json.dumps(self.mismatch, sort_keys=True))
        lines.append(f"status: {self.status}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _timed(target):
    """Record the target's wall time in the report it returns."""

    @functools.wraps(target)
    def timed(*args, **kwargs) -> VerifyReport:
        start = time.monotonic()
        report = target(*args, **kwargs)
        report.elapsed = time.monotonic() - start
        return report

    return timed


@_timed
def verify_theorem1(dmax: int) -> VerifyReport:
    """The recurrence polynomial against the count of the d! words by
    state for every d <= dmax."""
    dmax = permstat.check_enum_guard(dmax)
    report = VerifyReport("verify theorem1", {"dmax": dmax})
    for d in range(1, dmax + 1):
        by_recursion = permstat.djsw_recursion(d)
        by_enumeration = permstat.euler_mahonian(d)
        equal = report.compare("recursion", by_recursion, "enumeration", by_enumeration, d=d)
        report.details.append(
            f"d={d}: {'equal' if equal else 'DIFFER'} "
            f"(recursion {len(by_recursion.terms)} terms, "
            f"enumeration {len(by_enumeration.terms)} terms)"
        )
    return report


@_timed
def verify_main(d: int, length: int, truncation: int) -> VerifyReport:
    """The uniform closed form against Stanley's formula on the diamond
    poset and against direct enumeration. Stanley's route walks the (d!)^M
    linear extensions, within the poset-size guard of ``jordan_holder``;
    past its word budget, which nothing lifts, the target refuses before it
    computes anything."""
    spec = posets.DiamondSpec.uniform(d, length)
    # Each block's folds form an antichain between two links, so the diamond
    # has prod d_k! linear extensions.
    posets.check_extensions(k for fold in spec.folds for k in range(2, fold + 1))
    closed = diamonds.sigma_closed(d, length, truncation)
    diamond_poset, tags = posets.build_diamond_poset(spec)
    stanley = posets.stanley_sigma(diamond_poset, tags, truncation)
    enumerated = oracle.enumerate_diamonds(spec, truncation)
    report = VerifyReport("verify main", {"d": d, "M": length, "trunc": truncation})
    report.compare("closed", closed, "stanley", stanley)
    report.compare("closed", closed, "oracle", enumerated)
    report.details.append(f"closed form: {len(closed.terms)} terms through degree {truncation}")
    if report.passed:
        report.details.append("closed == stanley == oracle")
    return report


@_timed
def verify_multifold(folds: Sequence[int], truncation: int) -> VerifyReport:
    """The multifold closed form against direct enumeration; a uniform fold
    sequence is also compared against the exact single-d rational form
    ``sigma_rational``, a transcription apart from the multifold one."""
    spec = posets.DiamondSpec(tuple(folds))
    closed = diamonds.sigma_multifold_closed(spec, truncation)
    enumerated = oracle.enumerate_diamonds(spec, truncation)
    report = VerifyReport(
        command="verify multifold",
        parameters={"folds": ",".join(str(f) for f in spec.folds), "trunc": truncation},
    )
    report.compare("closed", closed, "oracle", enumerated)
    report.details.append(f"fold sequence {spec.folds}, {len(closed.terms)} terms")
    if len(set(spec.folds)) == 1:
        uniform = diamonds.sigma_rational(spec.folds[0], spec.length).expand(truncation)
        report.compare("multifold", closed, "uniform-closed", uniform)
        report.details.append("uniform sequence: also compared against the single-d closed form")
    return report


@_timed
def verify_schmidt(d: int, length: int, truncation: int) -> VerifyReport:
    """The links-only closed form against its oracle, and against the
    infinite product on the powers where length M cannot matter."""
    closed = diamonds.schmidt_closed(d, length, truncation)
    product = diamonds.schmidt_product(d, truncation)
    enumerated = oracle.schmidt_oracle(d, length, truncation)
    window = min(length, truncation)
    report = VerifyReport("verify schmidt", {"d": d, "M": length, "trunc": truncation})
    report.compare("closed", closed, "oracle", enumerated)
    report.compare("closed", closed[: window + 1], "product", product[: window + 1])
    report.details.append(
        f"closed == oracle on 0..{truncation}; closed == product on 0..{window}"
    )
    return report


@_timed
def verify_stanley(count: int, max_size: int, truncation: int, seed: int) -> VerifyReport:
    """Stanley's formula against direct enumeration on a seeded corpus of
    random posets; stops at the first poset that disagrees. Stanley's route
    walks every linear extension of each connected component and multiplies
    the components' series, while enumeration counts the whole poset, so a
    disconnected poset also checks that product rule. Its guards apply per
    component, but a drawn poset may be connected, so ``max_size`` may not
    pass ``poset.MAX_JH_SIZE`` unless ``budget.lifted()``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    guard = posets.MAX_JH_SIZE
    budget.check(max_size, guard, f"max_size={max_size} exceeds the linear-extension guard {guard}")
    report = VerifyReport(
        command="verify stanley",
        parameters={"count": count, "max_size": max_size, "trunc": truncation, "seed": seed},
    )
    for index, (p, tags) in enumerate(oracle.random_poset_corpus(count, seed, max_size)):
        lhs = posets.stanley_sigma(p, tags, truncation)
        rhs = oracle.enumerate_ppartitions(p, tags, truncation)
        if not report.compare("stanley", lhs, "enumeration", rhs, poset_index=index):
            report.mismatch["covers"] = sorted(list(pair) for pair in p.covers)
            break
    report.details.append(
        f"checked {count} random posets (size <= {max_size}, truncation {truncation}, seed {seed})"
    )
    return report


@_timed
def verify_apr(truncation: int) -> VerifyReport:
    """The plane partition diamond product against enumeration and against
    the d = 2 closed form, with a = b set before expanding, at lengths
    M = T and M = T + 1."""
    # Length M >= T stabilises every coefficient through q^T; M must also be
    # at least 1, which T = 0 alone would not give.
    length = max(truncation, 1)
    product = diamonds.apr_product(truncation)
    enumerated = oracle.enumerate_infinite_univariate(2, truncation)
    stabilized = diamonds.sigma_univariate(posets.DiamondSpec.uniform(2, length), truncation)
    recheck = diamonds.sigma_univariate(posets.DiamondSpec.uniform(2, length + 1), truncation)
    report = VerifyReport("verify apr", {"trunc": truncation})
    report.compare("product", product, "oracle", enumerated)
    report.compare("product", product, "closed(M=T)", stabilized)
    report.compare("closed(M=T)", stabilized, "closed(M=T+1)", recheck)
    report.details.append(f"coefficients 0..{truncation}: {series.coeffs_text(product[:8])} ...")
    report.details.append("product == oracle == closed(M=T) == closed(M=T+1)")
    return report


@_timed
def verify_djsw_product(d: int, truncation: int) -> VerifyReport:
    """The d-fold diamond product, built from the recurrence, against
    enumeration and against the same product built from E_d."""
    by_enumeration = diamonds.djsw_product(d, truncation, base=permstat.euler_mahonian(d))
    by_recursion = diamonds.djsw_product(d, truncation)
    enumerated = oracle.enumerate_infinite_univariate(d, truncation)
    report = VerifyReport("verify djsw-product", {"d": d, "trunc": truncation})
    report.compare("product", by_recursion, "oracle", enumerated)
    report.compare("product", by_recursion, "product-from-enumeration", by_enumeration)
    report.details.append(
        f"coefficients 0..{truncation}: {series.coeffs_text(by_recursion[:8])} ..."
    )
    return report
