"""The reach census's verdict (``tests/reach_census.py``), on synthetic
inputs: the census itself runs every verb and example, so CI runs it as
its own step."""

from tests.reach_census import ALLOW, _functions, gate, modules

MODULES = ["cli.py", "core/sheriff.py", "storage/oracle.py"]
REACHED = ["cli.py", "core/sheriff.py"]


def test_an_unreached_module_fails():
    assert gate(MODULES, REACHED, {}) == [
        "storage/oracle.py: reached by no verb, example or mesh worker",
    ]


def test_an_allowed_unreached_module_passes():
    assert gate(MODULES, REACHED, {"storage/oracle.py": "the tests' oracle"}) == []


def test_a_reached_allow_entry_fails():
    allow = {"storage/oracle.py": "the tests' oracle", "cli.py": "a reason"}
    assert gate(MODULES, REACHED, allow) == [
        "cli.py: ALLOW entry is reached (stale entry)",
    ]


def test_an_allow_entry_without_a_reason_fails():
    assert gate(MODULES, REACHED, {"storage/oracle.py": " "}) == [
        "storage/oracle.py: ALLOW entry gives no reason",
    ]


def test_an_allow_entry_naming_no_module_fails():
    allow = {"storage/oracle.py": "the tests' oracle", "gone.py": "a reason"}
    assert gate(MODULES, REACHED, allow) == [
        "gone.py: ALLOW names no module (stale entry)",
    ]


def test_the_allow_list_names_modules_with_reasons():
    every = modules()
    assert gate(every, set(every) - set(ALLOW), ALLOW) == []


def test_functions_are_listed_by_qualified_name():
    source = (
        "class A:\n"
        "    def f(self):\n"
        "        def inner():\n"
        "            return [x for x in ()]\n"
        "        return inner\n"
        "def g():\n"
        "    return lambda: 0\n"
    )
    names = [name for name, _ in _functions(compile(source, "m.py", "exec"))]
    assert names == ["A.f", "A.f.<locals>.inner", "g"]
