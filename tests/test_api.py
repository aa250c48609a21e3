"""The public API surface: imports, exports, version, packaging."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.server


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_headline_symbols(self):
        # The names used in README/quickstart must exist at top level.
        for name in (
            "GateLibrary",
            "express",
            "express_all",
            "express_probabilistic",
            "find_minimum_cost_circuits",
            "named",
            "Circuit",
            "Permutation",
            "Qv",
            "LabelSpace",
        ):
            assert hasattr(repro, name), name


#: Each lazily exporting package, with the names it binds at import.
LAZY_PACKAGES = [
    (repro, {"__version__"}), (repro.core, set()), (repro.server, set()),
]


@pytest.mark.parametrize(
    "package, eager", LAZY_PACKAGES,
    ids=["repro", "repro.core", "repro.server"],
)
class TestLazyExports:
    def test_table_and_eager_names_are_exactly_all(self, package, eager):
        assert len(package.__all__) == len(set(package.__all__))
        assert not eager & set(package._EXPORTS)
        assert set(package._EXPORTS) | eager == set(package.__all__)

    def test_each_name_is_the_defining_modules_object(self, package, eager):
        for name, module in package._EXPORTS.items():
            defining = importlib.import_module(module)
            assert getattr(package, name) is getattr(defining, name), name

    def test_star_import_binds_every_name(self, package, eager):
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_unknown_name_raises_attribute_error(self, package, eager):
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export  # noqa: B018
        assert not hasattr(package, "no_such_export")


def test_router_process_never_imports_the_closure_engine():
    """What ``repro fleet serve``'s own process imports leaves numpy and
    the closure engine unloaded; only its replicas need them."""
    code = (
        "import sys\n"
        "import repro.cli, repro.fleet.manager, repro.fleet.router\n"
        "import repro.fleet.supervisor, repro.server.app, repro.client\n"
        "print(sorted(m for m in ('numpy', 'repro.core') "
        "if m in sys.modules))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_serving_never_imports_the_paper_analysis_modules():
    """A replica's service module loads the store/batch/MCE path only;
    ``repro.core``'s lazy exports keep the analysis modules out."""
    unused = tuple(
        f"repro.core.{name}"
        for name in (
            "canonical", "identities", "plan", "probabilistic",
            "schedule", "theorems", "universality",
        )
    )
    code = (
        "import sys\n"
        "import repro.server.service\n"
        f"print(sorted(m for m in {unused!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestSubpackageImports:
    def test_every_subpackage_imports_cleanly(self):
        for module in (
            "repro.mvl",
            "repro.linalg",
            "repro.perm",
            "repro.gates",
            "repro.core",
            "repro.sim",
            "repro.automata",
            "repro.baselines",
            "repro.render",
            "repro.io",
            "repro.cli",
            "repro.errors",
        ):
            importlib.import_module(module)

    def test_subpackage_alls_resolve(self):
        for module_name in (
            "repro.mvl",
            "repro.linalg",
            "repro.perm",
            "repro.gates",
            "repro.core",
            "repro.sim",
            "repro.automata",
            "repro.baselines",
            "repro.render",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name}"


class TestDocumentation:
    def test_every_public_module_has_docstring(self):
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, info.name

    def test_quickstart_snippet_from_readme(self):
        from repro import GateLibrary, express, named

        library = GateLibrary(n_qubits=3)
        result = express(named.TOFFOLI, library)
        assert result.cost == 5
