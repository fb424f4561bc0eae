"""Reach census: which modules of ``src/repro`` does anything run?

Runs every row of :data:`repro.cli.VERBS` (with the cheap flags of
:data:`VERB_ARGS`; a verb not listed there runs with its defaults) and
every ``examples/*.py``, each in its own interpreter.  A
``sitecustomize`` on ``PYTHONPATH`` records every ``repro`` code object
that starts running, in every thread, and writes the record when the
interpreter exits; child processes inherit ``PYTHONPATH``, so the mesh's
worker processes are followed too.

The gate: exit 1 when a run exits non-zero, when a module under
``src/repro`` is reached by no verb, example or mesh worker and is not on
:data:`ALLOW`, or when an ``ALLOW`` entry is reached (a stale entry),
names no module or gives no reason.  After the verdict
the functions nothing reached are listed.  That list is advisory: error
paths, and forked pool workers (which leave with ``os._exit``, before
the record is written), make it noisy, so it gates nothing.

    PYTHONPATH=src python tests/reach_census.py
"""

from __future__ import annotations

import inspect
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import types
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"

#: modules nothing runs on purpose (path under src/repro → why)
ALLOW: Dict[str, str] = {
    "storage/sharding.py": "the benchmark's report_rw workload runs the "
                           "4-shard router; it goes with ROADMAP item 13",
    "storage/memory.py": "the equivalence oracle the benchmark's check "
                         "workloads run on; it moves to tests/oracles with "
                         "ROADMAP item 13",
}

#: cheap arguments per verb; the output files land in the run's directory
VERB_ARGS: Dict[str, Tuple[str, ...]] = {
    "reproduce": ("all", "--scale", "test", "--out", "report.md"),
    "watch": ("--days", "2"),
    "chaos": ("--profile", "lossy", "--seed", "3", "--requests", "24"),
    "supervise": ("--requests", "24", "--users", "12"),
    "mesh": ("--servers", "2", "--checks", "8"),
    "metrics": ("--requests", "24", "--out", "metrics.prom"),
    "trace": ("--requests", "24", "--out", "spans.jsonl"),
    "journey": ("--out", "journey.json"),
    "slo": ("--out", "slo.json"),
}

#: a record: (absolute file, first line, code name)
Code = Tuple[str, int, str]

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = set()


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith({root!r}):
            _seen.add((code.co_filename, code.co_firstlineno, code.co_name))


def _dump():
    sys.setprofile(None)
    path = os.path.join({out!r}, f"{{os.getpid()}}.reach")
    with open(path, "w") as fh:
        fh.writelines(f"{{f}}\\t{{line}}\\t{{name}}\\n" for f, line, name in _seen)


atexit.register(_dump)
sys.setprofile(_record)
threading.setprofile(_record)
'''


def runs() -> List[Tuple[str, List[str]]]:
    """(label, argv) of every verb and every example."""
    from repro.cli import VERBS

    verbs = [
        (f"repro {verb.name}",
         [sys.executable, "-m", "repro", verb.name, *VERB_ARGS.get(verb.name, ())])
        for verb in VERBS
    ]
    examples = [
        (f"examples/{path.name}", [sys.executable, str(path)])
        for path in sorted((REPO / "examples").glob("*.py"))
    ]
    return verbs + examples


def take_census(work: pathlib.Path) -> Set[Code]:
    """Run everything under the recorder; the union of what ran."""
    hook, records = work / "hook", work / "records"
    hook.mkdir()
    records.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        root=str(PACKAGE) + os.sep, out=str(records),
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(hook), str(PACKAGE.parent))))
    for label, argv in runs():
        cwd = work / label.replace("/", "_").replace(" ", "_")
        cwd.mkdir()
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=600)
        print(f"  {label:<34} exit {proc.returncode}  "
              f"{time.perf_counter() - start:5.1f} s", file=sys.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{label} failed (exit {proc.returncode}):\n"
                             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    reached: Set[Code] = set()
    for record in records.iterdir():
        for line in record.read_text().splitlines():
            path, first, name = line.split("\t")
            reached.add((path, int(first), name))
    return reached


def modules() -> List[str]:
    """Every module under src/repro, as its path there."""
    return sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))


def gate(all_modules: Iterable[str], reached: Iterable[str],
         allow: Mapping[str, str]) -> List[str]:
    """The census's verdict, one line per failure (none: it passes)."""
    all_modules, reached = set(all_modules), set(reached)
    problems = [f"{m}: reached by no verb, example or mesh worker"
                for m in sorted(all_modules - reached - set(allow))]
    for module, reason in sorted(allow.items()):
        if not reason.strip():
            problems.append(f"{module}: ALLOW entry gives no reason")
        if module not in all_modules:
            problems.append(f"{module}: ALLOW names no module (stale entry)")
        elif module in reached:
            problems.append(f"{module}: ALLOW entry is reached (stale entry)")
    return problems


def _functions(code: types.CodeType, prefix: str = "") -> Iterator[Tuple[str, Code]]:
    """(qualified name, record key) of every def in a compiled module,
    class bodies walked through, lambdas and comprehensions skipped."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        name = f"{prefix}{const.co_name}"
        is_function = const.co_flags & inspect.CO_NEWLOCALS  # not a class body
        if is_function:
            yield name, (const.co_filename, const.co_firstlineno, const.co_name)
        yield from _functions(const, f"{name}.<locals>." if is_function else f"{name}.")


def unreached_functions(reached: Set[Code]) -> Dict[str, List[str]]:
    """Module → the defs in it that never started running."""
    report: Dict[str, List[str]] = {}
    for module in modules():
        path = PACKAGE / module
        code = compile(path.read_text(), str(path), "exec")
        missing = [name for name, key in _functions(code) if key not in reached]
        if missing:
            report[module] = missing
    return report


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        reached = take_census(pathlib.Path(tmp))
    reached_modules = {pathlib.Path(path).relative_to(PACKAGE).as_posix()
                       for path, _, _ in reached}
    all_modules = modules()
    problems = gate(all_modules, reached_modules, ALLOW)

    print("## Reach census")
    print()
    print(f"{len(reached_modules & set(all_modules))} of {len(all_modules)} "
          f"modules under src/repro reached; allowed unreached: "
          f"{', '.join(sorted(ALLOW)) or 'none'}")
    for problem in problems:
        print(f"- FAIL {problem}")
    unreached = unreached_functions(reached)
    print()
    print(f"### Functions no run reached (advisory): "
          f"{sum(map(len, unreached.values()))} in {len(unreached)} modules")
    print()
    for module, names in unreached.items():
        print(f"- `{module}` ({len(names)}): {', '.join(names)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
