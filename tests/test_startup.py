"""Start-up contract: ``import repro`` and ``repro run`` load only what they use.

Package ``__init__`` modules export their names lazily (``repro._exports``):
a name's defining module is imported on first access.  Each check runs in a
fresh interpreter, since this test process has long since imported
everything.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.cluster",
    "repro.core",
    "repro.electrical",
    "repro.modulation",
    "repro.noc",
    "repro.photonics",
    "repro.scenarios",
    "repro.service",
    "repro.simulation",
    "repro.spad",
    "repro.tdc",
)

#: Subsystems a serial point-to-point run has no use for.
UNUSED_BY_LINK_RUNS = ("repro.service", "repro.cluster", "repro.electrical", "repro.noc", "asyncio")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def declared_exports(package: str) -> dict:
    """``{name: defining module}`` as the package's ``lazy_exports`` call declares it."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            exports = ast.literal_eval(node.args[1])
            return {name: package + module for module, names in exports.items() for name in names}
    raise AssertionError(f"{path} does not call lazy_exports")


def test_bare_import_loads_no_submodule_it_exports():
    loaded = run_fresh(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    assert loaded == ["repro", "repro._exports"]


def test_serial_link_run_skips_unused_subsystems():
    result = run_fresh(
        """
        import json, runpy, sys
        sys.argv = ["repro", "run", "ber-vs-photons", "--bits", "512",
                    "--executor", "serial", "--no-store", "--quiet"]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exit:
            code = exit.code
        print()
        print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
        """
    )
    assert result["code"] in (0, None)
    loaded = [
        name
        for name in result["modules"]
        if any(name == unused or name.startswith(unused + ".") for unused in UNUSED_BY_LINK_RUNS)
    ]
    assert loaded == []


def test_every_export_is_its_defining_modules_object():
    declared = {package: declared_exports(package) for package in PACKAGES}
    mismatches = run_fresh(
        f"""
        import importlib, json
        declared = {declared!r}
        mismatches = []
        for package, exports in declared.items():
            module = importlib.import_module(package)
            public = set(module.__all__) - {{"__version__"}}
            if public != set(exports):
                mismatches.append([package, "__all__", sorted(public ^ set(exports))])
            if not set(module.__all__) <= set(dir(module)):
                mismatches.append([package, "dir", sorted(set(module.__all__) - set(dir(module)))])
            for name, origin in exports.items():
                expected = getattr(importlib.import_module(origin), name)
                namespace = {{}}
                exec(f"from {{package}} import {{name}}", namespace)
                if getattr(module, name) is not expected or namespace[name] is not expected:
                    mismatches.append([package, name, origin])
            namespace = {{}}
            exec(f"from {{package}} import *", namespace)
            if set(module.__all__) - set(namespace):
                mismatches.append([package, "*", sorted(set(module.__all__) - set(namespace))])
        print(json.dumps(mismatches))
        """
    )
    assert mismatches == []


@pytest.mark.parametrize("submodule_first", [True, False], ids=["submodule-first", "export-first"])
def test_export_wins_over_same_named_submodule(submodule_first):
    kinds = run_fresh(
        f"""
        import json
        import repro.core, repro.noc
        if not {submodule_first}:
            repro.core.throughput, repro.noc.broadcast
        import repro.core.throughput, repro.noc.broadcast
        from repro.core import throughput
        from repro.noc import broadcast
        print(json.dumps([type(repro.core.throughput).__name__, type(repro.noc.broadcast).__name__,
                          type(throughput).__name__, type(broadcast).__name__]))
        """
    )
    assert kinds == ["function"] * 4


def test_deprecated_analysis_alias_still_warns():
    import repro.analysis
    from repro.analysis.report import TextReport

    with pytest.warns(DeprecationWarning, match="renamed to TextReport"):
        assert repro.analysis.ExperimentReport is TextReport
    with pytest.warns(DeprecationWarning, match="renamed to TextReport"):
        from repro.analysis import ExperimentReport  # noqa: F401
    assert "ExperimentReport" not in repro.analysis.__all__


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(package):
    import importlib

    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_process_pool_forks_from_a_parent_holding_the_noc_bus():
    result = run_fresh(
        """
        import concurrent.futures, json, sys
        from repro.scenarios import ExperimentRunner, get_scenario

        scenario = get_scenario("noc-load-latency").with_budget(512)
        before = "repro.noc" in sys.modules
        seen = []
        submit = concurrent.futures.ProcessPoolExecutor.submit

        def recording_submit(self, *args, **kwargs):
            seen.append("repro.noc.bus" in sys.modules)
            return submit(self, *args, **kwargs)

        concurrent.futures.ProcessPoolExecutor.submit = recording_submit
        process = ExperimentRunner(scenario, seed=5, executor="process", workers=2).run()
        concurrent.futures.ProcessPoolExecutor.submit = submit
        serial = ExperimentRunner(scenario, seed=5).run()
        print(json.dumps({"before": before, "seen": seen,
                          "identical": process.to_mapping() == serial.to_mapping()}))
        """
    )
    assert result["before"] is False
    assert result["seen"] and all(result["seen"])
    assert result["identical"] is True
