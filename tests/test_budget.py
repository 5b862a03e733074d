"""The one switch that lifts the size guards: what it lifts, and that a lift
never outlives the ``with`` statement that made it."""

import threading

import pytest

from diamondgf import budget, cli, permstat
from diamondgf.diamonds import djsw_product, schmidt_closed, schmidt_product, sigma_closed
from diamondgf.budget import TooLarge
from diamondgf.permstat import djsw_recursion, euler_mahonian, eulerian
from diamondgf.poset import Poset, jordan_holder, stanley_sigma
from diamondgf.verify import verify_stanley, verify_theorem1

CHAIN13 = Poset(13, [(j, j + 1) for j in range(1, 13)])
D26 = (TooLarge, "d=26 exceeds the enumeration guard 25")
C13 = (TooLarge, "poset has 13 elements, guard is 12")
D61 = (TooLarge, "d=61 exceeds the recurrence guard 60")

GUARDED = {
    "euler_mahonian": (lambda: euler_mahonian(26), D26),
    "eulerian": (lambda: eulerian(26), D26),
    "schmidt_closed": (lambda: schmidt_closed(26, 1, 4), D26),
    "schmidt_product": (lambda: schmidt_product(26, 4), D26),
    "jordan_holder": (lambda: jordan_holder(CHAIN13), C13),
    "stanley_sigma": (lambda: stanley_sigma(CHAIN13, ("b",) * 13, 3), C13),
    "verify_stanley": (
        lambda: verify_stanley(1, 13, 2, 1),
        (TooLarge, "max_size=13 exceeds the linear-extension guard 12"),
    ),
    "verify_theorem1": (lambda: verify_theorem1(26), D26),
    "djsw_recursion": (lambda: djsw_recursion(61), D61),
    # The closed forms store each E_d once per process: a lifted call fills
    # the store, and the next unlifted call must still be refused.
    "sigma_closed": (lambda: sigma_closed(61, 1, 2), D61),
    "djsw_product": (lambda: djsw_product(61, 2), D61),
}


@pytest.mark.parametrize("name", GUARDED)
def test_each_guard_refuses_by_default_and_passes_when_lifted(name):
    call, (error, message) = GUARDED[name]
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error and str(refused.value) == message
    with budget.lifted():
        result = call()
    assert getattr(result, "passed", True)
    with pytest.raises(error):  # the lift ended with the with statement
        call()


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["em", "--d", "26"],
    ["verify", "stanley", "--count", "1", "--max-size", "13", "--trunc", "2"],
    ["verify", "main", "--d", "3", "--M", "3", "--trunc", "2"],
])
def test_force_lifts_one_command_only(capsys, argv):
    assert _run(capsys, argv + ["--force"])[0] == 0
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "") and err.endswith("; use --force to override\n")


def test_a_command_that_fails_inside_the_lift_leaves_the_next_guarded(capsys, monkeypatch):
    # A refusal inside the lift (the word budget, which --force does not
    # lift) and an exception that escapes main both end the lift.
    refused = _run(capsys, ["verify", "main", "--d", "10", "--M", "1", "--trunc", "2", "--force"])
    assert refused[0] == 2 and "linear extensions" in refused[2]
    assert _run(capsys, ["em", "--d", "26"])[0] == 2

    def crash(d):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(permstat, "euler_mahonian", crash)
    with pytest.raises(RuntimeError, match="handler failed"):
        cli.main(["em", "--d", "26", "--force"])
    with pytest.raises(TooLarge):
        euler_mahonian(26)


def test_a_thread_started_inside_the_lift_is_guarded():
    outcome = []

    def probe():
        try:
            euler_mahonian(26)
            outcome.append("lifted")
        except TooLarge:
            outcome.append("guarded")

    with budget.lifted():
        euler_mahonian(26)  # lifted in this thread
        worker = threading.Thread(target=probe)
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert outcome == ["guarded"]


def test_lifted_false_keeps_the_guards_and_nesting_restores_the_outer_state():
    with budget.lifted():
        with budget.lifted(False):
            with pytest.raises(TooLarge):
                euler_mahonian(26)
        euler_mahonian(26)
    with pytest.raises(TooLarge):
        euler_mahonian(26)
