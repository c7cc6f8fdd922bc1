"""The import graph matches the work.

Package ``__init__`` modules re-export their public names lazily
(:func:`repro._lazy.lazy_exports`) and numpy loads on first use
(:mod:`repro.sim.vector`), so a process-pool or service worker imports
what it unpickles and nothing else.  Import checks run in a fresh
interpreter: the modules this test session has loaded cannot leak in.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import needs_compiled
from repro.sim import vector

SRC = str(Path(__file__).resolve().parents[1] / "src")

LAZY_PACKAGES = ("repro.autosoc", "repro.circuit", "repro.core",
                 "repro.engine", "repro.faults", "repro.sim",
                 "repro.soft_error")


def _fresh(script: str):
    """Run ``script`` in a new interpreter; its last line of output, as
    JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# what the engine and the service import
# ----------------------------------------------------------------------
#: Modules no SEU, PPSFP or slicing campaign runs: importing the engine
#: and the service must load none of them (prefix match).
NOT_ON_THE_ENGINE_PATH = (
    "numpy", "repro.autosoc", "repro.crypto", "repro.ftol",
    "repro.soft_error.fit", "repro.soft_error.ml", "repro.soft_error.cdn",
    "repro.soft_error.statistical", "repro.soft_error.set_analysis",
    "repro.core.flow", "repro.core.registry", "repro.core.riif",
    "repro.core.report", "repro.circuit.builder", "repro.circuit.library",
    "repro.circuit.scoap", "repro.circuit.verilog", "repro.sim.event",
)


def _loaded(modules, prefixes=NOT_ON_THE_ENGINE_PATH):
    return sorted(m for m in modules for p in prefixes
                  if m == p or m.startswith(p + "."))


def test_engine_and_service_import_lean():
    modules = _fresh("import json, sys\n"
                     "import repro.engine, repro.service\n"
                     "print(json.dumps(sorted(sys.modules)))\n")
    assert _loaded(modules) == []
    assert "repro.engine.backends" not in modules  # nothing until used


def test_spawned_worker_runs_int_carrier_backends_without_numpy():
    # the real worker path: payload file unpickled, prepare(), chunks
    # run in a spawn worker — on a pool of the test's own, so that the
    # same worker can then report what it has imported
    result = _fresh("""
import json, pickle, tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from repro.circuit.library import random_combinational, random_sequential
from repro.engine import (EngineConfig, PpsfpBackend, SeuBackend,
                          SlicingBackend, executors, run_campaign)
from repro.engine.core import plan_campaign
from repro.faults.universe import collapse
from repro.sim.logic import random_patterns
from repro.soft_error.seu import random_workload

seq = random_sequential(6, 60, 8, 4, seed=5)
stimuli = random_workload(seq, 12, seed=5)
comb = random_combinational(8, 60, seed=5)
backends = [
    SeuBackend(seq, stimuli, lane_width=64),
    PpsfpBackend(comb, collapse(comb)[0],
                 [(random_patterns(comb.inputs, 64, seed=1), 64)]),
    SlicingBackend(seq, collapse(seq)[0][:20], stimuli),
]
config = EngineConfig(executor="process", workers=1)
executors_used = [run_campaign(b, config).executor for b in backends]
probe = "sorted(__import__('sys').modules)"
modules = set()
for backend in backends:
    plan = plan_campaign(backend, config)
    with tempfile.NamedTemporaryFile(suffix=".pkl") as fh:
        pickle.dump((backend, plan.chunks, plan.seeds), fh)
        fh.flush()
        with ProcessPoolExecutor(1, mp_context=get_context("spawn"),
                                 initializer=executors._worker_init,
                                 initargs=(fh.name,)) as pool:
            list(pool.map(executors._worker_run, range(len(plan.chunks))))
            modules.update(pool.submit(eval, probe).result())
print(json.dumps([executors_used, sorted(modules)]))
""")
    executors_used, modules = result
    assert executors_used == ["process"] * 3
    assert "repro.engine.workloads" in modules  # the worker did the work
    assert _loaded(modules, ("numpy",)) == []


@needs_compiled
@pytest.mark.skipif(not vector.HAVE_NUMPY, reason="numpy not installed")
def test_wide_lanes_still_resolve_soa_and_load_numpy():
    backing, before, after = _fresh("""
import json, sys
from repro.circuit.library import random_sequential
from repro.engine import EngineConfig, SeuBackend, run_campaign
from repro.soft_error.seu import random_workload

circuit = random_sequential(64, 2000, 96, 16, seed=3)
backend = SeuBackend(circuit, random_workload(circuit, 6, seed=3),
                     lane_width=4096)
before = "numpy" in sys.modules
run_campaign(backend, EngineConfig(executor="serial"))
print(json.dumps([backend._lane_ctx.backing, before,
                  "numpy" in sys.modules]))
""")
    assert backing == "soa"
    assert (before, after) == (False, True)


# ----------------------------------------------------------------------
# lazy exports are complete
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_lazy_export_resolves_to_its_defining_object(name):
    package = importlib.import_module(name)
    submodules = [importlib.import_module(f"{name}.{info.name}")
                  for info in pkgutil.iter_modules(package.__path__)]
    assert package.__all__ == sorted(set(package.__all__))
    for export in package.__all__:
        value = getattr(package, export)
        owner = sys.modules.get(getattr(value, "__module__", None) or "")
        if owner is not None and owner.__name__.startswith(name + "."):
            # a class or function: the object its own module defines
            assert getattr(owner, export) is value, export
        else:  # a constant: the object a submodule binds
            assert any(getattr(sub, export, None) is value
                       for sub in submodules), export
    assert set(dir(package)) >= set(package.__all__)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_and_unknown_names(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert package.__all__ and set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match=repr(name)):
        package.no_such_name
