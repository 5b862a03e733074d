import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import diamondgf
from diamondgf import cli, diamonds, oracle, permstat, poset
from diamondgf.cli import main
from diamondgf.poset import PosetTooLarge
from diamondgf.series import Monomial2, Poly2, TruncSeries2, geometric_series
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
    code, _, err = run(capsys, "em", "--d", "10")
    assert code == 2
    assert "guard" in err


def test_recursion_command(capsys):
    code, out, _ = run(capsys, "recursion", "--d", "2")
    assert code == 0
    assert out.strip() == "1 + x*y"


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
    code, out, _ = run(capsys, "sigma", "--d", "10", "--M", "1", "--trunc", "4")
    assert code == 0
    assert out.strip().endswith(" + 120*a^3*b")
    assert run(capsys, "verify", "multifold", "--folds", "10", "--trunc", "4")[0] == 0
    # Routes that enumerate S_d, or walk (d!)^M linear extensions, still refuse.
    for argv in (
        ["sigma", "--d", "10", "--M", "1", "--trunc", "4", "--schmidt"],
        ["verify", "main", "--d", "10", "--M", "1", "--trunc", "4"],
        ["verify", "djsw-product", "--d", "10", "--trunc", "4"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: d=10 exceeds the enumeration guard 9\n")


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


def test_ppartition_deep_oracle_hint_names_its_own_inputs(capsys, tmp_path):
    # The oracle searches one stack frame per element, so an 1100-element
    # chain is too deep for it; ppartition has no --d to suggest.
    lines = ["elements 1100"] + [f"cover {j} {j + 1}" for j in range(1, 1100)]
    path = tmp_path / "deep-chain.poset"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "ppartition", str(path), "--trunc", "4", "--force", "--oracle")
    assert (code, out) == (2, "")
    assert err == "error: recursion too deep; use a smaller poset, or leave out --oracle\n"
    assert "--d" not in err


def test_ppartition_guard_and_force(capsys, tmp_path):
    lines = ["elements 13"] + [f"cover {j} {j + 1}" for j in range(1, 13)]
    path = tmp_path / "long-chain.poset"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "ppartition", str(path), "--trunc", "2")
    assert code == 2 and "guard" in err
    code, out, _ = run(capsys, "ppartition", str(path), "--trunc", "2", "--force")
    assert code == 0
    assert out.strip() == "1 + b + 2*b^2"


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


def _swap_exponents(out, mono, truncation):
    # 1/(1 - b^j a^i) in place of 1/(1 - a^i b^j)
    return geometric_series((mono[1], mono[0]), truncation)


MUTATIONS = [
    # verify target argv, library function corrupted, expected mismatch
    (["apr", "--trunc", "6"], diamonds, "apr_product", _bump_last,
     {"power": 6, "lhs": "product", "rhs": "oracle"}),
    (["djsw-product", "--d", "2", "--trunc", "6"], diamonds, "djsw_product", _bump_last,
     {"power": 6, "lhs": "product", "rhs": "oracle"}),
    (["schmidt", "--d", "1", "--M", "4", "--trunc", "6"], diamonds, "schmidt_closed",
     _bump_last, {"power": 6, "lhs": "closed", "rhs": "oracle"}),
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
    # The closed forms take E_d from the recurrence, stored once per d;
    # Stanley's route does not. The stored E_d is what they read, so its
    # corruption reaches them whatever ran earlier in the process.
    (["main", "--d", "2", "--M", "1", "--trunc", "6"], diamonds, "_descent_polynomial",
     _bump_at_d(2, 1, 1), {"monomial": [1, 1], "lhs": "closed", "rhs": "stanley"}),
    (["multifold", "--folds", "1,2", "--trunc", "5"], diamonds, "_multifold_denominator",
     _drop_last, {"monomial": [0, 1], "lhs": "closed", "rhs": "oracle"}),
    # Stanley's route: a lost linear extension, or a denominator factor with
    # its a and b exponents swapped. Poset 0 of this corpus is an antichain.
    (["stanley", "--count", "3", "--max-size", "4", "--trunc", "4", "--seed", "3"], poset,
     "jordan_holder", _drop_last,
     {"monomial": [0, 1], "poset_index": 0, "lhs": "stanley", "rhs": "enumeration",
      "lhs_coefficient": "1", "rhs_coefficient": "2"}),
    (["main", "--d", "2", "--M", "1", "--trunc", "6"], poset, "jordan_holder", _drop_last,
     {"monomial": [1, 1], "lhs": "closed", "rhs": "stanley",
      "lhs_coefficient": "2", "rhs_coefficient": "1"}),
    (["stanley", "--count", "3", "--max-size", "4", "--trunc", "4", "--seed", "3"], poset,
     "geometric_series", _swap_exponents,
     {"monomial": [0, 1], "poset_index": 0, "lhs": "stanley", "rhs": "enumeration",
      "lhs_coefficient": "1", "rhs_coefficient": "2"}),
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
    diamonds._descent_polynomial.cache_clear()
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
    with pytest.raises(PosetTooLarge, match="guard 12"):
        verify_stanley(3, 13, 4, 1)
    assert verify_stanley(3, 13, 4, 1, guard=13).passed


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
        assert err == "error: max_size=40 exceeds the linear-extension guard 12\n"
    code, out, _ = run(capsys, "verify", "stanley", "--count", "3", "--max-size", "13",
                       "--trunc", "4", "--seed", "1", "--force")
    assert code == 0
    assert "checked 3 random posets (size <= 13, truncation 4, seed 1)" in out


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_recursion_is_a_usage_error(capsys):
    # The infinite-product oracle recurses 3T+1 deep for d = 2; leave room
    # for the command itself but not for that search.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        code, out, err = run(capsys, "verify", "apr", "--trunc", "12")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    assert err.startswith("error: recursion too deep")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in out + err


def test_deep_oracle_search_is_refused_before_it_starts(capsys):
    # The oracle would search 5 * 200 + 2 calls deep, past the default
    # recursion limit; building its 1001-element poset alone takes seconds.
    start = time.monotonic()
    code, out, err = run(capsys, "verify", "djsw-product", "--d", "4", "--trunc", "200")
    assert time.monotonic() - start < 8.0
    assert code == 2
    assert out == ""
    assert err == "error: recursion too deep; use a smaller --trunc or --d\n"


def test_verify_report_invariant():
    passing = VerifyReport(command="verify x", parameters={}, status="pass")
    assert passing.passed and passing.mismatch is None
    failing = VerifyReport(
        command="verify x",
        parameters={},
        status="fail",
        mismatch={"monomial": [0, 1], "lhs_coefficient": "1", "rhs_coefficient": "2"},
    )
    assert not failing.passed
    assert (failing.status == "fail") == (failing.mismatch is not None)
    assert (passing.status == "fail") == (passing.mismatch is not None)


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
