"""What each entry point imports, and the lazy package re-exports.

The server and the CLI import only the layers they run; every package
re-exports its public names lazily (PEP 562).  The import checks run in a
fresh interpreter, because this test process has imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Nothing the service (or the CLI parser) needs: the experiment fabric, the
#: dynamics, Monte-Carlo, search and scenario layers, and multiprocessing.
NOT_SERVED = (
    "repro.analysis",
    "repro.experiments",
    "repro.dynamics",
    "repro.simulation",
    "repro.batch.dynamics",
    "repro.batch.simulation",
    "repro.batch.scenarios",
    "repro.batch.extensions",
    "repro.batch.spoa",
    "repro.batch.search",
    "multiprocessing",
)


def _fresh_modules(code: str) -> list[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    return json.loads(out.splitlines()[-1])


def _within(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


@pytest.mark.parametrize(
    "code",
    [
        "import repro.serving.http",
        "import contextlib, repro.cli\n"
        "with contextlib.suppress(SystemExit):\n    repro.cli.main(['serve', '--help'])",
    ],
    ids=["server", "serve-help"],
)
def test_serving_imports_only_the_serving_layers(code):
    assert _within(_fresh_modules(code), NOT_SERVED) == []


def test_importing_repro_runs_no_kernel_or_solver_module():
    # ``import repro`` binds only the names that shadow a repro.core submodule.
    loaded = _within(_fresh_modules("import repro"), ("repro.batch", "repro.core"))
    assert loaded == ["repro.core", "repro.core.coverage", "repro.core.optimal_coverage",
                      "repro.core.sigma_star", "repro.core.strategy", "repro.core.values"]


def _packages() -> list[types.ModuleType]:
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    return [importlib.import_module(name) for name in names]


def test_lazy_exports_are_the_defining_modules_objects():
    # Import every submodule first: a name that is also a submodule's name
    # would then read as the module instead of the function.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    defining = [m for name, m in sys.modules.items()
                if name.startswith("repro.") and not hasattr(m, "__path__")]
    packages = _packages()
    assert len(packages) == 12
    for package in packages:
        for name in package.__all__:
            value = getattr(package, name)
            assert not isinstance(value, types.ModuleType), (package.__name__, name)
            if name != "__version__":
                assert any(vars(m).get(name) is value for m in defining), (package.__name__, name)
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert all(namespace[name] is getattr(package, name) for name in package.__all__)
        assert set(package.__all__) <= set(dir(package))
        with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
            package.not_exported


_FORKED_TASKS = """
import functools, json, sys
import numpy as np
from repro.experiments import ProcessExecutor, TaskPayload, build_experiment

def record(task, params, rng):
    before = set(sys.modules)
    task(params, rng)
    return sorted(set(sys.modules) ^ before)

specs = [
    build_experiment("figure1", c_grid=(0.0,)),
    build_experiment("mechanism", k_values=(2,), batch_rows=1),
    build_experiment("dynamics", k_values=(3,)),
    build_experiment("coverage-times"),
]
payloads = [
    TaskPayload(index=i, task=functools.partial(record, spec.task), params=spec.grid[0],
                seed=np.random.SeedSequence(i))
    for i, spec in enumerate(specs)
]
changed = dict(ProcessExecutor(2).run(payloads))
print(json.dumps({spec.name: changed[i] for i, spec in enumerate(specs)}))
"""


def test_forked_sweep_workers_import_nothing():
    # A module first imported inside a pool worker is compiled again in every
    # fresh worker of a cold sweep; the parent must import it before forking.
    out = subprocess.run(
        [sys.executable, "-c", _FORKED_TASKS], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    assert json.loads(out.splitlines()[-1]) == {
        "figure1": [], "mechanism": [], "dynamics": [], "coverage-times": []
    }
