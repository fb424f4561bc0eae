"""The reach census's verdict (``tests/reach_census.py``), on synthetic
inputs, its static passes on a small tree, and its recorder on a small
script: the census itself runs every verb, example and the benchmark's
smoke pass, so CI runs it as its own step."""

import ast
import os
import subprocess
import sys
import textwrap

import pytest

from tests.reach_census import (
    ALLOW,
    PACKAGE,
    REPO,
    SITECUSTOMIZE,
    _functions,
    defaulted_params,
    defs,
    gate,
    main,
    modules,
    read_records,
    static_problems,
    stored_state,
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
    """Every real entry names an existing def, stored attribute or
    defaulted parameter, gives one of the seven reasons, and no module
    is on it."""
    sources = {m: ast.parse((PACKAGE / m).read_text()) for m in modules()}
    everything = (set(modules()) | set(defs()) | set(stored_state(sources))
                  | set(defaulted_params(sources)))
    for entry, reason in ALLOW.items():
        assert entry in everything, entry
        assert "::" in entry, entry
        assert reason.split(":", 1)[0] in (
            "benchmark surface", "planned caller", "error or limit path",
            "reference", "shape property", "deployment setting", "indirect call",
        ), (entry, reason)
    assert gate(everything, everything - set(ALLOW), ALLOW) == []


def test_the_static_passes_hold_on_the_repo():
    assert static_problems(REPO, ALLOW)[1] == []


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


# -- the static passes, on a small tree -------------------------------------

UNREAD = "read by no file in src/, tests/, bench/, examples/ or benchmarks/"
UNSET = "set by no call in src/, tests/, bench/, examples/ or benchmarks/"


@pytest.fixture
def tree(tmp_path):
    """A repo of one module and one test; ``write(path, source)`` adds files."""
    def write(path, source):
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))

    write.root = tmp_path
    write("src/repro/shop.py", """\
        class Shop:
            def __init__(self, name):
                self.name = name
    """)
    write("tests/test_shop.py", """\
        from repro.shop import Shop

        def test_name():
            assert Shop("a").name == "a"
    """)
    return write


def test_a_clean_tree_passes(tree):
    assert static_problems(tree.root, {}) == (
        "1 of 1 stored attributes read and 0 of 0 defaulted parameters set; "
        "0 ALLOW entries", [])


def test_a_write_only_attribute_fails(tree):
    tree("src/repro/log.py", """\
        class Counter:
            def tick(self):
                self.ticks = 1
                self.ticks += 1
    """)
    assert static_problems(tree.root, {})[1] == [f"log.py::Counter.ticks: {UNREAD}"]


def test_a_list_only_appended_to_fails(tree):
    tree("src/repro/log.py", """\
        from dataclasses import dataclass, field

        @dataclass
        class Log:
            entries: list = field(default_factory=list)
            by_key: dict = field(default_factory=dict)
            last: str = ""

            def record(self, entry):
                self.entries.append(entry)
                self.by_key[entry] = 1
                self.by_key[self.last] += 1
    """)
    assert static_problems(tree.root, {})[1] == [
        f"log.py::Log.by_key: {UNREAD}", f"log.py::Log.entries: {UNREAD}",
    ]


def test_a_keyword_argument_is_no_read(tree):
    tree("src/repro/log.py", """\
        from dataclasses import dataclass

        @dataclass
        class Entry:
            original: str

        def make(text):
            return Entry(original=text)
    """)
    assert static_problems(tree.root, {})[1] == [f"log.py::Entry.original: {UNREAD}"]


def test_a_read_in_tests_passes(tree):
    tree("src/repro/log.py", """\
        class Counter:
            def tick(self):
                self.ticks = 1
    """)
    tree("tests/test_log.py", """\
        def test_ticks(counter):
            assert counter.ticks == 1
    """)
    assert static_problems(tree.root, {})[1] == []


def test_a_string_constant_read_passes(tree):
    tree("src/repro/log.py", """\
        class Counter:
            def tick(self):
                self.ticks = 1

        def read(counter):
            return getattr(counter, "ticks")
    """)
    assert static_problems(tree.root, {})[1] == []


def test_an_unset_defaulted_parameter_fails(tree):
    tree("src/repro/fetch.py", """\
        class Client:
            def __init__(self, url, retries=2):
                self.url, self.retries = url, retries

            def get(self, path, timeout=1.0):
                return self.url, self.retries, path, timeout

        Client("u").get("/")
    """)
    assert static_problems(tree.root, {})[1] == [
        f"fetch.py::Client.__init__(retries): {UNSET}",
        f"fetch.py::Client.get(timeout): {UNSET}",
    ]


def test_a_positional_pass_clears_one(tree):
    tree("src/repro/fetch.py", """\
        class Client:
            def __init__(self, url, retries=2):
                self.url, self.retries = url, retries

            def get(self, path, timeout=1.0):
                return self.url, self.retries, path, timeout

        Client("u", 3).get("/")
    """)
    tree("tests/test_fetch.py", """\
        def test_get(client):
            assert client.get("/", 5.0)
    """)
    assert static_problems(tree.root, {})[1] == []


def test_a_subclass_call_and_super_init_set_a_base_parameter(tree):
    tree("src/repro/fetch.py", """\
        class Base:
            def __init__(self, url="u", retries=2):
                pass

        class Plain(Base):
            pass

        class Eager(Base):
            def __init__(self):
                super().__init__("v")

        Plain(retries=1), Eager()
    """)
    assert static_problems(tree.root, {})[1] == []


def test_an_allowed_entry_passes_and_a_stale_or_reasonless_one_fails(tree):
    tree("src/repro/log.py", """\
        class Counter:
            def tick(self, by=1):
                self.ticks = by
    """)
    allow = {"log.py::Counter.ticks": "a reason", "log.py::Counter.tick(by)": "a reason"}
    assert static_problems(tree.root, allow)[1] == []
    stale = {**allow, "shop.py::Shop.name": "a reason", "log.py::Counter.gone": "a reason",
             "log.py::Counter.tick(by)": " "}
    assert static_problems(tree.root, stale)[1] == [
        "log.py::Counter.gone: ALLOW names nothing (stale entry)",
        "shop.py::Shop.name: ALLOW entry is reached (stale entry)",
        "log.py::Counter.tick(by): ALLOW entry gives no reason",
    ]


@pytest.mark.parametrize("source, failure", [
    ("class Counter:\n    def tick(self):\n        self.ticks = 1\n",
     f"log.py::Counter.ticks: {UNREAD}"),
    ("def tick(by=1):\n    return by\n\ntick()\n",
     f"log.py::tick(by): {UNSET}"),
])
def test_the_census_exits_1_before_it_runs_anything(tree, capsys, source, failure):
    tree("src/repro/log.py", source)
    assert main(tree.root, {}) == 1
    assert f"- FAIL {failure}" in capsys.readouterr().out.splitlines()
