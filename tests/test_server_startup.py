"""What a server process imports before it says ``LISTENING``.

Every ``tcp://`` and ``cluster://`` deployment starts its servers as
``python -m repro.net`` children, and a fresh database on the real stack
is a fresh child; each ``repro`` module it imports is compiled and run on
every start.  The gate is a count, not a time: in a fresh interpreter,
the control loop's module plus one served shard of a two-shard
population load at most ``MODULE_BUDGET`` ``repro`` modules and none of
the client, cluster, observability, analysis or SDG-rewriter ones.
The packages that defer their re-exports (PEP 562) must still resolve
every name they advertise.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

#: 32 today (50 for a shard and 42 for a plain server before the import
#: closure was cut).
MODULE_BUDGET = 32

#: Modules a server never needs: the router and fleet, the wire client,
#: metrics and tracing, the certifiers, the simulator and the SDG rewrite.
FORBIDDEN = (
    "repro.cluster",
    "repro.obs",
    "repro.analysis",
    "repro.sim",
    "repro.net.client",
    "repro.core.advisor",
    "repro.core.edge_selection",
    "repro.smallbank.strategies",
)

PROBE = """
import json, sys
import repro.net.__main__
from repro.net.shard import ThreadShard
shard = ThreadShard(0, 2, customers=20, record=False)
shard.shutdown()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def fresh_interpreter(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def server_modules() -> "list[str]":
    return json.loads(fresh_interpreter(PROBE).splitlines()[-1])


class TestServerImportClosure:
    def test_a_shard_loads_at_most_the_budget(self, server_modules):
        assert len(server_modules) <= MODULE_BUDGET, server_modules

    @pytest.mark.parametrize("prefix", FORBIDDEN)
    def test_a_shard_never_loads(self, server_modules, prefix):
        assert [
            m for m in server_modules if m == prefix or m.startswith(prefix + ".")
        ] == []

    def test_a_shard_can_build_smallbank_programs(self, server_modules):
        """The CALL factory registers on import of the programs module."""
        assert "repro.smallbank.transactions" in server_modules


PACKAGES = (
    "repro.core", "repro.smallbank", "repro.net", "repro.sim",
    "repro.workload", "repro.cluster",
)

#: An import and the modules it must not load: a package's re-exports
#: resolve on first use, so one module of it does not pay for the rest.
LEAN_IMPORTS = {
    "from repro.workload.retry import RetryPolicy": (
        "repro.workload.driver", "repro.obs",
    ),
    "import repro.cluster.router": (
        "repro.cluster.chaos", "repro.workload.driver", "repro.obs",
        "repro.smallbank.strategies",
    ),
}


class TestDeferredReExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_advertised_name_resolves(self, package):
        module = importlib.import_module(package)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import_in_a_fresh_interpreter(self, package):
        """Nothing imported earlier in this process can resolve a name."""
        fresh_interpreter(
            f"from {package} import *\n"
            f"import {package} as package\n"
            "assert set(package.__all__) <= set(globals())\n"
        )

    @pytest.mark.parametrize("statement", LEAN_IMPORTS)
    def test_one_module_does_not_load_its_siblings(self, statement):
        loaded = json.loads(
            fresh_interpreter(
                f"import json, sys\n{statement}\n"
                "print(json.dumps(sorted(sys.modules)))\n"
            )
        )
        assert [m for m in LEAN_IMPORTS[statement] if m in loaded] == []

    def test_unknown_name_is_an_attribute_error(self):
        import repro.smallbank

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.smallbank.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from repro.core import no_such_name  # noqa: F401

    def test_re_export_is_the_defining_modules_object(self):
        import repro.core
        import repro.core.modify
        import repro.core.specs

        assert repro.core.Modification is repro.core.specs.Modification
        assert repro.core.modify.Modification is repro.core.specs.Modification
