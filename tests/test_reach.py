"""tools/reach.py: every public name of every module is reached by a
command or has its reason in `reach.UNREACHED`, and no name has both. The
trace takes about 4 s."""
import reach

from framemeasures.suites import COMMANDS


def test_every_exported_name_is_reached_or_has_a_reason():
    reached = reach.reach()
    assert reach.problems(reached) == []
    # the trace ran every command
    assert set().union(*reached.values()) == set(COMMANDS)


def test_problems_names_a_missing_and_a_stale_reason():
    reached = {"a": [], "b": ["dpp"], "c": []}
    assert reach.problems(reached, {"a": "kept", "c": "kept"}) == []
    assert reach.problems(reached, {}) == [
        "a: no command reaches it and UNREACHED gives no reason",
        "c: no command reaches it and UNREACHED gives no reason"]
    assert reach.problems(reached, {"a": "x", "b": "y", "c": "z", "d": "w"}) == [
        "b: UNREACHED gives a reason, but dpp reach it",
        "d: UNREACHED gives a reason, but the package has no such public name"]
