"""The reach census's verdict (``tests/reach_census.py``), on synthetic
inputs, and its recorder on a small script: the census itself runs every
verb, example and the benchmark's smoke pass, so CI runs it as its own
step."""

import ast
import os
import subprocess
import sys
import textwrap

from tests.reach_census import (
    ALLOW,
    SITECUSTOMIZE,
    _functions,
    defs,
    gate,
    modules,
    read_records,
)

MODULES = ["cli.py", "core/sheriff.py", "storage/oracle.py"]
REACHED = ["cli.py", "core/sheriff.py"]
DEFS = ["cli.py::main", "core/sheriff.py::PriceSheriff.check",
        "core/sheriff.py::PriceSheriff.unused"]


def test_an_unreached_module_fails():
    assert gate(MODULES, REACHED, {}) == [
        "storage/oracle.py: reached by no verb, example, mesh worker or bench workload",
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
        "gone.py: ALLOW names nothing (stale entry)",
    ]


class TestTheDefGate:
    everything = REACHED + DEFS
    reached = REACHED + DEFS[:2]

    def test_an_unreached_def_fails(self):
        assert gate(self.everything, self.reached, {}) == [
            "core/sheriff.py::PriceSheriff.unused: "
            "reached by no verb, example, mesh worker or bench workload",
        ]

    def test_an_allowed_unreached_def_passes(self):
        allow = {"core/sheriff.py::PriceSheriff.unused": "a planned caller"}
        assert gate(self.everything, self.reached, allow) == []

    def test_a_reached_allow_def_fails(self):
        allow = {"core/sheriff.py::PriceSheriff.unused": "a planned caller",
                 "cli.py::main": "a reason"}
        assert gate(self.everything, self.reached, allow) == [
            "cli.py::main: ALLOW entry is reached (stale entry)",
        ]

    def test_an_allow_def_without_a_reason_fails(self):
        allow = {"core/sheriff.py::PriceSheriff.unused": ""}
        assert gate(self.everything, self.reached, allow) == [
            "core/sheriff.py::PriceSheriff.unused: ALLOW entry gives no reason",
        ]

    def test_an_allow_entry_naming_no_def_fails(self):
        allow = {"core/sheriff.py::PriceSheriff.unused": "a planned caller",
                 "core/sheriff.py::PriceSheriff.gone": "a reason"}
        assert gate(self.everything, self.reached, allow) == [
            "core/sheriff.py::PriceSheriff.gone: ALLOW names nothing (stale entry)",
        ]

    def test_an_entry_covers_what_is_nested_in_it(self):
        everything = self.everything + ["core/sheriff.py::PriceSheriff.unused.<locals>.f"]
        allow = {"core/sheriff.py::PriceSheriff.unused": "a planned caller"}
        assert gate(everything, self.reached, allow) == []

    def test_a_module_entry_covers_its_defs(self):
        everything = MODULES + ["storage/oracle.py::Oracle.scan"]
        assert gate(everything, REACHED, {"storage/oracle.py": "the tests' oracle"}) == []


def test_the_allow_list_names_defs_with_reasons():
    """Every real entry names an existing module or def, gives one of
    the five reasons, and no module is on it."""
    everything = set(modules()) | set(defs())
    for entry, reason in ALLOW.items():
        assert entry in everything, entry
        assert "::" in entry, entry
        assert reason.split(":", 1)[0] in (
            "benchmark surface", "planned caller", "error or limit path",
            "reference", "shape property",
        ), (entry, reason)
    assert gate(everything, everything - set(ALLOW), ALLOW) == []


def test_every_test_an_allow_reason_names_exists():
    """A reason that names a test (``tests/…py::Class::test``) names one
    the suite has."""
    import re

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for entry, reason in ALLOW.items():
        for ref in re.findall(r"(?:tests|benchmarks)/[\w/]+\.py(?:::\w+)*", reason):
            path, *names = ref.split("::")
            source = open(os.path.join(repo, path)).read()
            for name in names:
                assert re.search(rf"\b(def|class) {name}\b", source), (entry, ref)


def test_functions_are_listed_by_qualified_name():
    source = (
        "class A:\n"
        "    def f(self):\n"
        "        def inner():\n"
        "            return [x for x in ()]\n"
        "        return inner\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 1\n"
        "def g():\n"
        "    return lambda: 0\n"
    )
    found = [(name, key[1]) for name, key, _ in _functions(ast.parse(source), "m.py")]
    # a decorated def's code object starts at its first decorator
    assert found == [("A.f", 2), ("A.f.<locals>.inner", 3), ("A.p", 6), ("g", 9)]


def test_a_declaration_is_skipped():
    source = (
        "class Base:\n"
        "    def docstring_only(self):\n"
        "        '''What subclasses do.'''\n"
        "    def ellipsis(self): ...\n"
        "    def passes(self):\n"
        "        '''Nothing.'''\n"
        "        pass\n"
        "    def abstract(self):\n"
        "        raise NotImplementedError\n"
        "    def abstract_call(self):\n"
        "        raise NotImplementedError('subclass it')\n"
        "    def real(self):\n"
        "        return 1\n"
    )
    declared = {name: declaration for name, _, declaration
                in _functions(ast.parse(source), "m.py")}
    assert declared == {
        "Base.docstring_only": True, "Base.ellipsis": True, "Base.passes": True,
        "Base.abstract": True, "Base.abstract_call": True, "Base.real": False,
    }


def test_a_def_called_only_in_a_fork_pool_worker_is_recorded(tmp_path):
    """A fork-pool worker leaves through ``os._exit``, which runs no
    ``atexit`` hook: the recorder writes its record there."""
    package, hook, records = tmp_path / "pkg", tmp_path / "hook", tmp_path / "records"
    for directory in (package, hook, records):
        directory.mkdir()
    (package / "forked.py").write_text(textwrap.dedent("""\
        import multiprocessing


        def only_in_the_worker(x):
            return x + 1


        if __name__ == "__main__":
            pool = multiprocessing.get_context("fork").Pool(1)
            assert pool.map(only_in_the_worker, [1]) == [2]
            pool.close()
            pool.join()
    """))
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        root=str(package) + os.sep, out=str(records),
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(hook), str(package))))
    subprocess.run([sys.executable, str(package / "forked.py")], env=env,
                   check=True, timeout=60)
    reached = {name for _, _, name in read_records(records)}
    assert "only_in_the_worker" in reached
