import gc
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import diamondgf
from diamondgf import budget, cli, diamonds, oracle, permstat, poset, series
from diamondgf.budget import TooLarge
from diamondgf.cli import main
from diamondgf.series import Monomial2, Poly2, RationalExpr, TruncSeries2, geometric_series
from diamondgf.verify import VerifyReport, verify_stanley

CHAIN_FILE = "elements 3\ncover 1 2\ncover 2 3\n"
DIAMOND_FILE = "elements 4\ncover 1 2\ncover 1 3\ncover 2 4\ncover 3 4\nassign a 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_em_command(capsys):
    code, out, _ = run(capsys, "em", "--d", "3")
    assert code == 0
    assert out.strip() == "1 + 2*x*y + 2*x*y^2 + x^2*y^3"

    code, out, _ = run(capsys, "em", "--d", "1")
    assert code == 0
    assert out.strip() == "1"


def test_em_json(capsys):
    code, out, _ = run(capsys, "em", "--d", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"truncation": None, "terms": [[0, 0, "1"], [1, 1, "1"]]}


def test_em_guard_exit_code(capsys):
    assert run(capsys, "em", "--d", "25")[0] == 0
    code, _, err = run(capsys, "em", "--d", "26")
    assert code == 2
    assert "guard" in err


def test_recursion_command(capsys):
    code, out, _ = run(capsys, "recursion", "--d", "2")
    assert code == 0
    assert out.strip() == "1 + x*y"


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_recursion_takes_force_like_every_subcommand(capsys, extra):
    # The recurrence has no guard, so --force changes nothing.
    plain = run(capsys, "recursion", "--d", "4", *extra)
    assert plain[0] == 0 and plain[2] == ""
    assert run(capsys, "recursion", "--d", "4", *extra, "--force") == plain


def test_sigma_bivariate(capsys):
    code, out, _ = run(capsys, "sigma", "--d", "1", "--M", "1", "--trunc", "2")
    assert code == 0
    assert out.strip() == "1 + b + b^2 + a*b"


def test_sigma_specialized(capsys):
    code, out, _ = run(
        capsys, "sigma", "--d", "2", "--M", "1", "--trunc", "4", "--a-eq-b"
    )
    assert code == 0
    assert out.strip() == "1, 1, 3, 4, 7"


@pytest.mark.parametrize(
    "shape, bivariate",
    [
        (("--d", "2", "--M", "12"), lambda t: diamonds.sigma_closed(2, 12, t)),
        (("--d", "3"), lambda t: diamonds.sigma_closed(3, 1, t)),
        (("--folds", "3,1,2"), lambda t: diamonds.sigma_multifold_closed(poset.DiamondSpec((3, 1, 2)), t)),
    ],
    ids=["uniform", "default-M", "folds"],
)
def test_sigma_a_eq_b_prints_the_specialized_bivariate_form(capsys, shape, bivariate):
    expected = bivariate(30).specialize_univariate()
    code, out, err = run(capsys, "sigma", *shape, "--trunc", "30", "--a-eq-b")
    assert (code, err) == (0, "")
    assert out == ", ".join(map(str, expected)) + "\n"
    code, out, _ = run(capsys, "sigma", *shape, "--trunc", "30", "--a-eq-b", "--json")
    assert code == 0
    assert json.loads(out) == {"truncation": 30, "coefficients": [str(c) for c in expected]}


def test_sigma_a_eq_b_never_expands_the_bivariate_triangle(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the a = b route expanded a bivariate series")

    monkeypatch.setattr(diamonds, "sigma_closed", refuse)
    monkeypatch.setattr(diamonds, "sigma_multifold_closed", refuse)
    start = time.monotonic()
    code, out, err = run(capsys, "sigma", "--d", "2", "--M", "60", "--trunc", "400", "--a-eq-b")
    elapsed = time.monotonic() - start
    assert (code, err) == (0, "")
    coeffs = [int(c) for c in out.split(", ")]
    assert len(coeffs) == 401
    # A diamond of sum n <= M fits in its first n blocks, so through q^M the
    # length-M counts are the infinite product's.
    assert coeffs[:61] == diamonds.apr_product(60)
    assert elapsed < 0.5, f"{elapsed:.2f} s"


def test_sigma_schmidt(capsys):
    code, out, _ = run(
        capsys, "sigma", "--d", "1", "--M", "1", "--trunc", "2", "--schmidt"
    )
    assert code == 0
    assert out.strip() == "1, 2, 4"


def test_sigma_multifold(capsys):
    # the (1,2) diamond: two degree-2 assignments put one fold of the top
    # block at 1 together with the closing link, hence coefficient 2 on ab
    code, out, _ = run(capsys, "sigma", "--folds", "1,2", "--trunc", "2")
    assert code == 0
    assert out.strip() == "1 + b + b^2 + 2*a*b"


def test_sigma_usage_errors(capsys):
    code, _, err = run(capsys, "sigma", "--folds", "1,2", "--d", "1", "--trunc", "2")
    assert code == 2 and "either" in err
    code, _, _ = run(capsys, "sigma", "--trunc", "2")
    assert code == 2
    code, _, _ = run(capsys, "sigma", "--folds", "1,x", "--trunc", "2")
    assert code == 2
    code, _, _ = run(
        capsys, "sigma", "--d", "1", "--trunc", "2", "--a-eq-b", "--schmidt"
    )
    assert code == 2
    code, _, _ = run(capsys, "sigma", "--folds", "1,2", "--trunc", "2", "--schmidt")
    assert code == 2


def test_verify_targets_pass(capsys):
    assert run(capsys, "verify", "theorem1", "--dmax", "4")[0] == 0
    assert run(capsys, "verify", "main", "--d", "2", "--M", "1", "--trunc", "6")[0] == 0
    assert run(capsys, "verify", "multifold", "--folds", "1,2", "--trunc", "5")[0] == 0
    assert run(capsys, "verify", "schmidt", "--d", "1", "--M", "6", "--trunc", "6")[0] == 0
    assert (
        run(
            capsys,
            "verify",
            "stanley",
            "--count",
            "5",
            "--max-size",
            "5",
            "--trunc",
            "5",
            "--seed",
            "3",
        )[0]
        == 0
    )
    assert run(capsys, "verify", "apr", "--trunc", "8")[0] == 0
    assert run(capsys, "verify", "apr", "--trunc", "0")[0] == 0
    assert run(capsys, "verify", "djsw-product", "--d", "2", "--trunc", "8")[0] == 0


def test_verify_text_report_shape(capsys):
    code, out, _ = run(capsys, "verify", "theorem1", "--dmax", "3")
    assert code == 0
    assert "command: verify theorem1" in out
    assert "status: pass" in out
    assert "d=3: equal" in out


def test_verify_json_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "main", "--d", "1", "--M", "2", "--trunc", "5", "--json")
    _, second, _ = run(capsys, "verify", "main", "--d", "1", "--M", "2", "--trunc", "5", "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["status"] == "pass"
    assert payload["mismatch"] is None
    assert "elapsed" not in payload


def test_verify_main_needs_force_beyond_guard(capsys):
    # d=3, M=3 gives a 13-element poset, past the default extension guard
    code, _, err = run(capsys, "verify", "main", "--d", "3", "--M", "3", "--trunc", "4")
    assert code == 2
    assert "13" in err
    code, _, _ = run(
        capsys, "verify", "main", "--d", "3", "--M", "3", "--trunc", "4", "--force"
    )
    assert code == 0


def test_recurrence_routes_need_no_force_past_the_enumeration_guard(capsys):
    code, out, _ = run(capsys, "sigma", "--d", "26", "--M", "1", "--trunc", "4")
    assert code == 0
    assert out.strip().endswith(" + 2600*a^3*b")  # C(26, 3)
    assert run(capsys, "verify", "multifold", "--folds", "26", "--trunc", "4")[0] == 0
    # Routes that count the words of S_d still refuse, and run when forced.
    for argv in (
        ["sigma", "--d", "26", "--M", "1", "--trunc", "4", "--schmidt"],
        ["verify", "djsw-product", "--d", "26", "--trunc", "4"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            2, "", "error: d=26 exceeds the enumeration guard 25; use --force to override\n"
        )
        assert run(capsys, *argv, "--force")[0] == 0
    # verify main enumerates no S_d, but Stanley's route would walk the
    # (d!)^M linear extensions (each block's folds are an antichain between
    # two links), past the word budget that --force does not lift. So it
    # refuses by that count before it computes anything, naming no --force.
    for d, length, trunc in (("10", "1", "4"), ("11", "1", "4"), ("3", "10", "10")):
        for force in ([], ["--force"]):
            argv = ["verify", "main", "--d", d, "--M", length, "--trunc", trunc, *force]
            start = time.perf_counter()
            refusal = run(capsys, *argv)
            assert time.perf_counter() - start < 0.1, argv
            assert refusal == (
                2, "", f"error: poset has more than {poset.MAX_JH_WORDS} linear extensions\n"
            ), argv


def test_verify_unknown_target(capsys):
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 2


def test_ppartition_command(capsys, tmp_path):
    path = tmp_path / "chain.poset"
    path.write_text(CHAIN_FILE)
    code, out, _ = run(capsys, "ppartition", str(path), "--trunc", "3")
    assert code == 0
    assert out.strip() == "1 + b + 2*b^2 + 3*b^3"


def test_ppartition_oracle_match(capsys, tmp_path):
    path = tmp_path / "diamond.poset"
    path.write_text(DIAMOND_FILE)
    code, out, _ = run(capsys, "ppartition", str(path), "--trunc", "6", "--oracle")
    assert code == 0
    assert out.strip().endswith("MATCH")

    code, out, _ = run(
        capsys, "ppartition", str(path), "--trunc", "4", "--oracle", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["stanley"] == payload["oracle"]


def test_ppartition_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.poset"
    path.write_text("elements 2\ncover 2 1\n")
    code, _, err = run(capsys, "ppartition", str(path), "--trunc", "3")
    assert code == 2
    assert "line 2" in err


def test_ppartition_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "ppartition", str(tmp_path / "absent"), "--trunc", "3")
    assert code == 2
    assert "cannot read" in err


def test_ppartition_on_a_deep_chain(capsys, tmp_path):
    # One linear extension, 1100 letters long: enumerating it needs no
    # stack frame per element.
    lines = ["elements 1100"] + [f"cover {j} {j + 1}" for j in range(1, 1100)]
    path = tmp_path / "deep-chain.poset"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "ppartition", str(path), "--trunc", "4", "--force")
    assert (code, err) == (0, "")
    assert out.strip() == "1 + b + 2*b^2 + 3*b^3 + 5*b^4"


def test_ppartition_oracle_matches_on_a_deep_chain(capsys, tmp_path):
    # The oracle is a loop over the elements, so an 1100-element chain,
    # deeper than the interpreter's recursion limit, is counted like any
    # other poset.
    lines = ["elements 1100"] + [f"cover {j} {j + 1}" for j in range(1, 1100)]
    path = tmp_path / "deep-chain.poset"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "ppartition", str(path), "--trunc", "4", "--force", "--oracle")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "stanley: 1 + b + 2*b^2 + 3*b^3 + 5*b^4",
        "oracle:  1 + b + 2*b^2 + 3*b^3 + 5*b^4",
        "MATCH",
    ]


def test_ppartition_guard_and_force(capsys, tmp_path):
    lines = ["elements 13"] + [f"cover {j} {j + 1}" for j in range(1, 13)]
    path = tmp_path / "long-chain.poset"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "ppartition", str(path), "--trunc", "2")
    assert code == 2 and "guard" in err
    code, out, _ = run(capsys, "ppartition", str(path), "--trunc", "2", "--force")
    assert code == 0
    assert out.strip() == "1 + b + 2*b^2"


def test_ppartition_on_a_forced_antichain_reaches_the_oracle(capsys, tmp_path):
    # Each element of an antichain is a component of one word, so past the
    # size guard (lifted by --force) the word budget never refuses it.
    path = tmp_path / "antichain.poset"
    path.write_text("elements 13\nassign a 2 3 5 8 13\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "ppartition", str(path), "--trunc", "6", "--force", "--oracle",
                         "--json")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["match"] is True
    # 1/((1 - a)^5 (1 - b)^8): the linear terms count the elements by tag.
    assert payload["stanley"][1:3] == [[0, 1, "8"], [1, 0, "5"]]


def test_ppartition_refuses_an_oversized_poset_before_building_it(capsys, tmp_path):
    # The declared count meets the guard before the parser allocates
    # anything per element, so a million elements cost no memory or time.
    path = tmp_path / "huge.poset"
    path.write_text("elements 1000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "ppartition", str(path), "--trunc", "3")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == "error: poset has 1000000 elements, guard is 12; use --force to override\n"


def test_every_guard_refusal_names_force_once(capsys, tmp_path):
    path = tmp_path / "long-chain.poset"
    path.write_text("\n".join(["elements 13"] + [f"cover {j} {j + 1}" for j in range(1, 13)]) + "\n")
    for argv in (
        ["em", "--d", "26"],
        ["sigma", "--d", "26", "--M", "1", "--trunc", "4", "--schmidt"],
        ["verify", "theorem1", "--dmax", "26"],
        ["verify", "main", "--d", "2", "--M", "4", "--trunc", "4"],
        ["verify", "schmidt", "--d", "26"],
        ["verify", "stanley", "--max-size", "13"],
        ["verify", "djsw-product", "--d", "26"],
        ["ppartition", str(path), "--trunc", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.endswith("; use --force to override\n"), argv
        assert err.count("--force") == 1 and err.count("\n") == 1, argv
        assert "max_size to" not in err, argv
    # 13 elements but only 2^4 = 16 linear extensions: the size guard refuses,
    # and --force lifts it.
    code, _, err = run(capsys, "verify", "main", "--d", "2", "--M", "4", "--trunc", "4")
    assert err == "error: poset has 13 elements, guard is 12; use --force to override\n"
    assert run(capsys, "verify", "main", "--d", "2", "--M", "4", "--trunc", "4", "--force")[0] == 0


@pytest.mark.parametrize("size, force", [(13, ["--force"]), (12, [])])
def test_ppartition_refuses_too_many_linear_extensions_whatever_the_force(
    capsys, tmp_path, size, force
):
    # An 11-element antichain under size - 11 caps is connected and has
    # (size - 11)! * 11! linear extensions; the walk counts each level before
    # building it and stops at the budget, so neither the time nor the memory
    # grows with the word count.
    caps = range(12, size + 1)
    lines = [f"elements {size}"] + [f"cover {j} {k}" for j in range(1, 12) for k in caps]
    path = tmp_path / "capped-antichain.poset"
    path.write_text("\n".join(lines) + "\n")
    argv = ["ppartition", str(path), "--trunc", "1", *force]
    start = time.perf_counter()
    refusal = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0  # timed apart: tracemalloc slows every allocation
    assert refusal == (2, "", f"error: poset has more than {poset.MAX_JH_WORDS} linear extensions\n")
    gc.collect()
    tracemalloc.start()
    try:
        assert run(capsys, *argv) == refusal
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _bump_last(out, *args):
    return out[:-1] + [out[-1] + 1]


def _bump(exp_a, exp_b):
    def perturb(out, *args):
        terms = dict(out.terms)
        terms[Monomial2(exp_a, exp_b)] = out.coefficient(exp_a, exp_b) + 1
        return Poly2(terms) if isinstance(out, Poly2) else TruncSeries2(out.truncation, terms)

    return perturb


def _bump_at_d(bad_d, exp_a, exp_b):
    # corrupts only the descent polynomial of one d
    def perturb(out, d, *args):
        return _bump(exp_a, exp_b)(out) if d == bad_d else out

    return perturb


def _drop_last(out, *args):
    return out[:-1]


def _drop_factor_b(out, *args):
    # the builder's denominator list without its factor 1 - b
    numerators, denominator = out
    return numerators, [m for m in denominator if m != (0, 1)]


def _drop_last_factor(out, *args):
    return RationalExpr(out.numerator, out.denominator_factors[:-1])


def _one_copy_fewer(out, mono, truncation, power=1):
    # 1/(1 - m)^(p - 1) in place of 1/(1 - m)^p: no copy at all when p = 1
    if power == 1:
        return TruncSeries2.from_poly(Poly2.one(), truncation)
    return geometric_series(mono, truncation, power - 1)


def _swap_exponents(out, mono, truncation):
    # 1/(1 - b^j a^i) in place of 1/(1 - a^i b^j)
    return geometric_series((mono[1], mono[0]), truncation)


MUTATIONS = [
    # verify target argv, library function corrupted, expected mismatch
    (["apr", "--trunc", "6"], diamonds, "apr_product", _bump_last,
     {"power": 6, "lhs": "product", "rhs": "oracle"}),
    # The infinite-product oracle counts by link value; a miscount there
    # fails the same check from the other side.
    (["apr", "--trunc", "6"], oracle, "enumerate_infinite_univariate", _bump_last,
     {"power": 6, "lhs": "product", "rhs": "oracle"}),
    (["djsw-product", "--d", "2", "--trunc", "6"], diamonds, "djsw_product", _bump_last,
     {"power": 6, "lhs": "product", "rhs": "oracle"}),
    (["schmidt", "--d", "1", "--M", "4", "--trunc", "6"], diamonds, "schmidt_closed",
     _bump_last, {"power": 6, "lhs": "closed", "rhs": "oracle"}),
    # The links-only oracle counts fold tuples per link chain; a miscount
    # there fails the same check from the other side.
    (["schmidt", "--d", "2", "--M", "3", "--trunc", "6"], oracle, "schmidt_oracle",
     _bump_last, {"power": 6, "lhs": "closed", "rhs": "oracle"}),
    # The closed form expands each repeated factor (1 - q^n)^-(d+1) as one
    # powered series; one copy short of the power fails at q^1.
    (["schmidt", "--d", "2", "--M", "3", "--trunc", "6"], series, "geometric_series",
     _one_copy_fewer, {"power": 1, "lhs": "closed", "rhs": "oracle"}),
    (["main", "--d", "2", "--M", "1", "--trunc", "6"], diamonds, "sigma_closed",
     _bump(1, 1), {"monomial": [1, 1], "lhs": "closed", "rhs": "stanley"}),
    (["multifold", "--folds", "1,2", "--trunc", "5"], diamonds, "sigma_multifold_closed",
     _bump(1, 1), {"monomial": [1, 1], "lhs": "closed", "rhs": "oracle"}),
    (["stanley", "--count", "3", "--max-size", "4", "--trunc", "4", "--seed", "3"], oracle,
     "enumerate_ppartitions", _bump(0, 0),
     {"monomial": [0, 0], "poset_index": 0, "lhs_coefficient": "1", "rhs_coefficient": "2"}),
    # E_3 = 1 + 2xy + 2xy^2 + x^2y^3
    (["theorem1", "--dmax", "4"], permstat, "euler_mahonian", _bump_at_d(3, 1, 1),
     {"d": 3, "monomial": [1, 1], "lhs_coefficient": "2", "rhs_coefficient": "3"}),
    # The count by state runs past d = 9 too: E_11 has ten words whose one
    # descent is at position 1 (any first letter but 1, the rest increasing).
    (["theorem1", "--dmax", "12"], permstat, "euler_mahonian", _bump_at_d(11, 1, 1),
     {"d": 11, "monomial": [1, 1], "lhs_coefficient": "10", "rhs_coefficient": "11"}),
    # The closed forms take E_d from the recurrence, stored once per d;
    # Stanley's route does not. The stored E_d is what they read, so its
    # corruption reaches them whatever ran earlier in the process.
    (["main", "--d", "2", "--M", "1", "--trunc", "6"], diamonds, "_descent_polynomial",
     _bump_at_d(2, 1, 1), {"monomial": [1, 1], "lhs": "closed", "rhs": "stanley"}),
    (["multifold", "--folds", "1,2", "--trunc", "5"], diamonds, "_multifold_factors",
     _drop_factor_b, {"monomial": [0, 1], "lhs": "closed", "rhs": "oracle"}),
    # The uniform branch of verify multifold reads the exact single-d form,
    # a transcription apart from the multifold factor list.
    (["multifold", "--folds", "2,2", "--trunc", "6"], diamonds, "sigma_rational",
     _drop_last_factor, {"monomial": [2, 2], "lhs": "multifold", "rhs": "uniform-closed",
                         "lhs_coefficient": "4", "rhs_coefficient": "3"}),
    # Stanley's route: a lost linear extension, or a denominator factor with
    # its a and b exponents swapped. Poset 0 of this corpus is a 2-element
    # antichain, walked as two one-word components, so a lost word empties
    # the product.
    (["stanley", "--count", "3", "--max-size", "4", "--trunc", "4", "--seed", "3"], poset,
     "jordan_holder", _drop_last,
     {"monomial": [0, 0], "poset_index": 0, "lhs": "stanley", "rhs": "enumeration",
      "lhs_coefficient": "0", "rhs_coefficient": "1"}),
    (["main", "--d", "2", "--M", "1", "--trunc", "6"], poset, "jordan_holder", _drop_last,
     {"monomial": [1, 1], "lhs": "closed", "rhs": "stanley",
      "lhs_coefficient": "2", "rhs_coefficient": "1"}),
    (["stanley", "--count", "3", "--max-size", "4", "--trunc", "4", "--seed", "3"], poset,
     "geometric_series", _swap_exponents,
     {"monomial": [0, 1], "poset_index": 0, "lhs": "stanley", "rhs": "enumeration",
      "lhs_coefficient": "0", "rhs_coefficient": "2"}),
    (["main", "--d", "2", "--M", "1", "--trunc", "6"], poset, "geometric_series",
     _swap_exponents,
     {"monomial": [0, 1], "lhs": "closed", "rhs": "stanley",
      "lhs_coefficient": "1", "rhs_coefficient": "0"}),
]


def _mutation_ids(cases):
    """The target name, plus the corrupted function on a repeated target."""
    ids = []
    for argv, _, name, *_ in cases:
        ids.append(f"{argv[0]}-{name.lstrip('_')}" if argv[0] in ids else argv[0])
    return ids


@pytest.mark.parametrize(
    "argv, module, name, perturb, expected", MUTATIONS, ids=_mutation_ids(MUTATIONS)
)
def test_verify_detects_an_off_by_one_result(capsys, monkeypatch, argv, module, name, perturb,
                                             expected):
    # One corrupted library result (a coefficient off by one, a dropped
    # denominator factor or linear extension, or a factor with its exponents
    # swapped) must fail its target with exit 1 and name the first
    # differing coefficient.
    original = getattr(module, name)

    def perturbed(*args, **kwargs):
        return perturb(original(*args, **kwargs), *args)

    monkeypatch.setattr(module, name, perturbed)
    code, out, err = run(capsys, "verify", *argv, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert expected.items() <= payload["mismatch"].items()
    reproduce = _reproduce_argv(err, argv[0])
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert "status: fail" in out and "mismatch: " in out
    assert _reproduce_argv(err, argv[0]) == reproduce
    # The printed command, run with the corruption still in place, fails the
    # same way.
    code, out, err = run(capsys, *reproduce[1:])
    assert code == 1
    assert json.loads(out) == payload
    assert _reproduce_argv(err, argv[0]) == reproduce


def test_closed_forms_store_e_d_and_theorem1_recomputes_it(capsys, monkeypatch):
    # The closed forms run the recurrence at most once per d in a process;
    # verify theorem1 runs it afresh for every d it checks.
    calls = []
    original = permstat.djsw_recursion

    def counted(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(permstat, "djsw_recursion", counted)
    monkeypatch.setattr(diamonds, "djsw_recursion", counted)
    diamonds._recurrence.cache_clear()
    first = diamonds.sigma_closed(3, 2, 8)
    assert diamonds.sigma_closed(3, 2, 8) == first
    diamonds.sigma_multifold_closed(poset.DiamondSpec((3, 3)), 8)
    assert calls == [3]
    calls.clear()
    code, _, _ = run(capsys, "verify", "theorem1", "--dmax", "3")
    assert code == 0
    assert calls == [1, 2, 3]
    code, _, _ = run(capsys, "verify", "theorem1", "--dmax", "3")
    assert calls == [1, 2, 3] * 2


def _reproduce_argv(err, target):
    """The argv of the one reproduce line on stderr, checked for its form."""
    lines = [line for line in err.splitlines() if line.startswith("reproduce: ")]
    assert len(lines) == 1, err
    argv = shlex.split(lines[0].removeprefix("reproduce: "))
    assert argv[:3] == ["diamondgf", "verify", target] and argv[-1] == "--json"
    return argv


def test_passing_verify_writes_nothing_to_stderr(capsys):
    for argv in (["theorem1", "--dmax", "4"], ["apr", "--trunc", "6"]):
        for extra in ([], ["--json"]):
            code, _, err = run(capsys, "verify", *argv, *extra)
            assert code == 0 and err == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "stanley", "--count", "0"], "--count"),
        (["verify", "stanley", "--count", "-3"], "--count"),
        (["verify", "stanley", "--max-size", "0"], "--max-size"),
        (["verify", "apr", "--trunc", "-1"], "--trunc"),
        (["verify", "theorem1", "--dmax", "0"], "--dmax"),
        (["verify", "djsw-product", "--d", "0"], "--d"),
        (["sigma", "--d", "1", "--M", "0", "--trunc", "2"], "--M"),
    ],
)
def test_integer_options_are_validated(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"argument {option}:" in err
    assert "randrange" not in out + err


def test_verify_stanley_checks_its_bounds():
    with pytest.raises(ValueError, match="count"):
        verify_stanley(0, 5, 4, 1)
    with pytest.raises(ValueError, match="max_size"):
        verify_stanley(3, 0, 4, 1)
    with pytest.raises(TooLarge, match="guard 12"):
        verify_stanley(3, 13, 4, 1)
    with budget.lifted():
        assert verify_stanley(3, 13, 4, 1).passed


def test_verify_stanley_max_size_keeps_the_extension_guard(capsys):
    # Stanley's route walks every linear extension of posets of up to
    # --max-size elements; past the guard, the size is refused before any
    # poset is drawn, not after an unbounded walk.
    for seed in ("1", "2", "3"):
        start = time.monotonic()
        code, out, err = run(capsys, "verify", "stanley", "--count", "3", "--max-size", "40",
                             "--trunc", "4", "--seed", seed)
        assert time.monotonic() - start < 2.0
        assert (code, out) == (2, "")
        assert err == ("error: max_size=40 exceeds the linear-extension guard 12; "
                       "use --force to override\n")
    code, out, _ = run(capsys, "verify", "stanley", "--count", "3", "--max-size", "13",
                       "--trunc", "4", "--seed", "1", "--force")
    assert code == 0
    assert "checked 3 random posets (size <= 13, truncation 4, seed 1)" in out


@pytest.mark.parametrize("d, length", [(9, 10), (5, 3)])
def test_verify_schmidt_at_large_d_passes_in_seconds(capsys, d, length):
    # The links-only oracle walks each chain of links once and counts the
    # (v - u + 1)^d fold tuples of a block between links u <= v, so a large
    # d costs no more search than a small one.
    start = time.monotonic()
    code, out, err = run(capsys, "verify", "schmidt", "--d", str(d), "--M", str(length),
                         "--trunc", "10", "--json")
    assert time.monotonic() - start < 5.0
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_recursion_is_a_usage_error(capsys):
    # Room for the command itself but not for a frame per element of the
    # 3T + 1 elements of a length-T 2-fold diamond: the infinite-product
    # oracle counts by link value in a loop, so it needs none of them.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        code, out, err = run(capsys, "verify", "apr", "--trunc", "12", "--json")
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize(
    "argv, hint",
    [
        (("sigma", "--d", "1", "--M", "1", "--trunc", "100000"), "use a smaller --trunc"),
        (("verify", "theorem1", "--dmax", "3"), "use smaller parameters"),
    ],
)
def test_running_out_of_memory_is_a_usage_error(capsys, monkeypatch, argv, hint):
    # The rows of a large truncation outgrow memory before anything checks
    # their size; the command says so in one line instead of a traceback.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(diamonds, "sigma_multifold_closed", exhausted)
    monkeypatch.setattr(permstat, "djsw_recursion", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: out of memory; {hint}\n"
    assert out == ""


HUGE = "99999999999999999999"  # past sys.maxsize, so no list of that size can be asked for


@pytest.mark.parametrize(
    "argv",
    [
        ("sigma", "--d", "1", "--M", "1", "--trunc", HUGE),
        ("sigma", "--d", "1", "--M", "1", "--a-eq-b", "--trunc", HUGE),
        ("sigma", "--d", "1", "--M", "1", "--schmidt", "--trunc", HUGE),
        ("sigma", "--d", "1", "--trunc", "5", "--M", HUGE),
        ("verify", "main", "--d", "1", "--M", "1", "--trunc", HUGE),
        ("verify", "multifold", "--folds", "1,2", "--trunc", HUGE),
        ("verify", "schmidt", "--d", "1", "--trunc", HUGE),
        ("verify", "stanley", "--trunc", HUGE),
        ("ppartition", "FILE", "--trunc", HUGE),
        ("ppartition", "FILE", "--oracle", "--trunc", HUGE),
        # The univariate path allocates its row of T + 1 entries before it
        # builds a single factor, so these refuse at once instead of hanging.
        ("verify", "apr", "--trunc", HUGE),
        ("verify", "djsw-product", "--d", "2", "--trunc", HUGE),
    ],
)
def test_huge_arguments_are_a_usage_error(capsys, tmp_path, argv):
    # Exit 1 means a mismatch; a size past sys.maxsize is the caller's error,
    # reported in one line that names the option, with no traceback.
    path = tmp_path / "chain.poset"
    path.write_text(CHAIN_FILE)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: a size does not fit in memory; use a smaller {argv[-2]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("recursion", "--d", HUGE),
        ("sigma", "--d", HUGE, "--M", "1", "--trunc", "4"),
        ("sigma", "--folds", f"1,{HUGE}", "--trunc", "4"),
        ("verify", "multifold", "--folds", f"1,{HUGE}", "--trunc", "4"),
    ],
)
def test_a_huge_d_is_refused_by_the_recurrence_guard(capsys, argv):
    # The recurrence costs about d^5, so a huge d would run for ever; it is
    # refused before the first step, and --force would lift the refusal.
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: d={HUGE} exceeds the recurrence guard 60; use --force to override\n"


def run_capped(*argv) -> tuple[subprocess.CompletedProcess, float]:
    """The command in a child that caps its own address space at 1 GiB, so
    a regression fails a time bound instead of taking the machine's memory;
    with the seconds it took."""
    src = str(Path(diamondgf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    capped = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
              "from diamondgf.cli import main; sys.exit(main(sys.argv[1:]))")
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", capped, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    return done, time.monotonic() - start


def test_a_bivariate_triangle_past_the_cell_budget_is_refused_before_it_is_filled():
    # T = 100000 needs about 5e9 cells; the sweep refuses them before it
    # allocates a row.
    done, seconds = run_capped("sigma", "--d", "1", "--M", "1", "--trunc", "100000")
    assert seconds < 2.0
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: out of memory; use a smaller --trunc\n"


def test_a_poset_file_with_a_huge_element_count_is_refused_at_once_under_force(tmp_path):
    # --force lifts the size guard, so the count reaches the parser and the
    # Poset; each allocates per element in one step before any per-element
    # loop, so a count past sys.maxsize fails at once instead of running on.
    path = tmp_path / "huge.poset"
    path.write_text("elements 99999999999999999999\n")
    done, seconds = run_capped("ppartition", str(path), "--trunc", "3", "--force")
    assert seconds < 2.0
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: a poset of 99999999999999999999 elements does not fit in memory\n"


def test_a_poset_past_memory_is_refused_by_its_element_count(tmp_path):
    # The count fits a list size but not the memory, so the Poset's first
    # allocation raises MemoryError; the fix is a smaller poset, not a
    # smaller --trunc.
    path = tmp_path / "big.poset"
    path.write_text("elements 999999999999\n")
    done, seconds = run_capped("ppartition", str(path), "--trunc", "3", "--force")
    assert seconds < 2.0
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: a poset of 999999999999 elements does not fit in memory\n"


def test_djsw_product_oracle_at_trunc_200_passes_in_seconds(capsys):
    # The count by (last link, part sum) passes where a search object by
    # object over the 5 * 200 + 1 elements of the length-T diamond would run
    # for far longer than this bound.
    start = time.monotonic()
    code, out, err = run(capsys, "verify", "djsw-product", "--d", "4", "--trunc", "200",
                         "--json")
    assert time.monotonic() - start < 8.0
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize(
    "argv, seconds",
    [
        # far past the T an object-by-object search of the infinite diamond
        # reaches in seconds
        (("apr", "--trunc", "60"), 2.0),
        # a chain of 1201 links, and a poset of 1201 elements, past the
        # interpreter's default recursion limit
        (("schmidt", "--d", "1", "--M", "1200", "--trunc", "3"), 5.0),
        (("multifold", "--folds", ",".join(["1"] * 600), "--trunc", "2"), 5.0),
        # 40 elements at T = 40: the P-partition oracle counts by frontier
        # state, where a search object by object runs for minutes
        (("multifold", "--folds", "3,1,4,1,5,9,2,6", "--trunc", "40"), 5.0),
    ],
    ids=["apr", "schmidt", "multifold", "multifold-trunc-40"],
)
def test_large_oracle_targets_pass_in_seconds(capsys, argv, seconds):
    start = time.monotonic()
    code, out, err = run(capsys, "verify", *argv, "--json")
    assert time.monotonic() - start < seconds
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"


def test_verify_report_invariant():
    # The status is read from the mismatch, so it cannot be given apart from it.
    passing = VerifyReport(command="verify x", parameters={})
    assert passing.passed and passing.mismatch is None and passing.status == "pass"
    failing = VerifyReport(
        command="verify x",
        parameters={},
        mismatch={"monomial": [0, 1], "lhs_coefficient": "1", "rhs_coefficient": "2"},
    )
    assert not failing.passed and failing.status == "fail"
    assert (failing.status == "fail") == (failing.mismatch is not None)
    assert (passing.status == "fail") == (passing.mismatch is not None)
    assert not passing.compare("lhs", [1, 2], "rhs", [1, 3])
    assert passing.mismatch == {
        "power": 1, "lhs": "lhs", "rhs": "rhs", "lhs_coefficient": "2", "rhs_coefficient": "3"
    }
    assert (passing.passed, passing.status) == (False, "fail")
    with pytest.raises(TypeError):
        VerifyReport(command="verify x", parameters={}, status="pass")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    run(capsys, "recursion", "--d", "2")

    def rebuild():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert run(capsys, "sigma", "--d", "2", "--M", "3", "--trunc", "4", "--a-eq-b")[:2] == (
        0, "1, 1, 3, 4, 7\n"
    )
    # Neither --M 3 nor --a-eq-b carries over to the next call.
    code, out, _ = run(capsys, "sigma", "--d", "1", "--trunc", "4")
    assert code == 0
    assert out.strip().endswith(" + 2*a*b^3 + a^2*b^2")


def test_module_runs_from_a_checkout():
    # python -m diamondgf needs only the package on the path, not the
    # installed script; importing the package must not start the command.
    src = str(Path(diamondgf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "diamondgf", "verify", "apr", "--trunc", "5", "--json"]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "pass"
    probe = "import sys, diamondgf; print('diamondgf.__main__' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.stdout.strip() == "False", done.stderr


def test_a_closed_pipe_exits_141_with_nothing_on_stderr():
    # The read end is closed before the child starts, so its first write
    # fails: that is the reader's choice, not a mismatch, and no traceback.
    src = str(Path(diamondgf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "diamondgf", "em", "--d", "9"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == cli.EXIT_BROKEN_PIPE == 141
