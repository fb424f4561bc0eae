"""The cold-start contract: a process imports only the tiers it runs.

The package hubs resolve their re-exports on first access, and the
optional tiers (secure k-means, the operations layer, numpy through the
cleartext k-means) load where they start.  Each case runs in a fresh
interpreter, so what this test process already imported does not leak
into the answer.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

OPTIONAL = ("numpy", "scipy", "networkx")


def fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LOADED = "print(json.dumps(sorted(sys.modules)))"


def loaded_after(imports: str):
    return set(fresh(f"import json, sys\n{textwrap.dedent(imports)}\n{LOADED}"))


def test_import_repro_loads_no_optional_dependency():
    loaded = loaded_after("import repro")
    assert not loaded & set(OPTIONAL)


def test_database_server_imports_load_no_other_tier():
    loaded = loaded_after(
        "import repro.core.database, repro.net.socket_transport, repro.storage\n"
        "from repro.storage import ShardedDatabase"
    )
    assert "numpy" not in loaded
    for tier in ("repro.web", "repro.browser", "repro.crypto", "repro.core.sheriff"):
        assert not {m for m in loaded if m == tier or m.startswith(tier + ".")}, tier


def test_an_unsupervised_check_loads_no_optional_tier():
    loaded = loaded_after("""
        import random
        from repro.workloads.deployment import DeploymentConfig, LiveDeployment
        dep = LiveDeployment(DeploymentConfig.test_scale())
        dep.population.build()
        rng = random.Random(5)
        store = dep.stores[dep.specs[0].domain]
        url = store.product_url(store.catalog.sample(rng, 1)[0].product_id)
        assert dep.population.pick_user(rng).check_price(url).rows
    """)
    assert not loaded & {"numpy", "repro.crypto.secure_kmeans", "repro.ops.supervisor"}


def test_clustering_loads_the_crypto_tier_on_demand():
    loaded = fresh("""
        import json, sys
        from repro.core.sheriff import PriceSheriff, SheriffWorld
        world = SheriffWorld.create(seed=1)
        sheriff = PriceSheriff(world, n_measurement_servers=1, ipc_sites=[])
        for _ in range(6):
            sheriff.install_addon(world.make_browser("ES", "Madrid"))
        before = "repro.crypto.secure_kmeans" in sys.modules
        out = sheriff.run_doppelganger_clustering(["a.example", "b.example"], k=2,
                                                  max_iterations=2)
        print(json.dumps([before, len(out.mapping),
                          "repro.crypto.secure_kmeans" in sys.modules]))
    """)
    assert loaded == [False, 6, True]


def test_every_hub_name_resolves_to_its_defining_object():
    problems = fresh("""
        import importlib, json, pkgutil, sys, types
        import repro
        hubs = ["repro"] + [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
                            if m.ispkg]
        problems = []
        for name in hubs:
            hub = importlib.import_module(name)
            own = set(vars(hub))  # what the hub binds itself, before any lookup
            listed = dir(hub)
            for attr in hub.__all__:
                value = getattr(hub, attr)
                if attr not in listed:
                    problems.append(f"{name}.{attr} not in dir()")
                if isinstance(value, types.ModuleType):
                    if value.__name__ != f"{name}.{attr}":
                        problems.append(f"{name}.{attr} is {value.__name__}")
                    continue
                homes = [m for m, mod in list(sys.modules.items())
                         if m.startswith(name + ".") and m not in hubs
                         and getattr(mod, attr, None) is value]
                if not homes and attr not in own:
                    problems.append(f"{name}.{attr} is bound by no submodule")
            star = {}
            exec(f"from {name} import *", star)
            missing = set(hub.__all__) - set(star)
            if missing:
                problems.append(f"from {name} import * misses {sorted(missing)}")
            try:
                getattr(hub, "no_such_name")
                problems.append(f"{name}.no_such_name resolved")
            except AttributeError as exc:
                if repr(name) not in str(exc):
                    problems.append(f"{name}: {exc}")
        print(json.dumps([len(hubs), problems]))
    """)
    n_hubs, problems = problems
    assert n_hubs >= 17
    assert problems == []


def test_the_2048_bit_group_is_built_on_first_access():
    first_built, same, bits, bad = fresh("""
        import json
        import repro.crypto.group as group
        built = "RFC3526_GROUP_2048" in vars(group)
        first = group.RFC3526_GROUP_2048
        from repro.crypto.group import RFC3526_GROUP_2048
        try:
            group.SchnorrGroup(p=first.p, q=first.q, g=first.p - 1)
            bad = None
        except ValueError as exc:
            bad = str(exc)
        print(json.dumps([built, RFC3526_GROUP_2048 is first,
                          [first.bits, pow(first.g, first.q, first.p)], bad]))
    """)
    assert first_built is False
    assert same is True
    assert bits == [2048, 1]
    assert bad == "generator does not have order q"


@pytest.mark.parametrize("hub", ["repro", "repro.crypto"])
def test_a_hub_import_builds_nothing(hub):
    loaded = loaded_after(f"import {hub}")
    assert {m for m in loaded if m.startswith("repro")} == {"repro", "repro._lazy", hub}
