"""The import graph matches the work.

Package ``__init__`` modules re-export their public names lazily
(:func:`repro._lazy.lazy_exports`), no campaign loads numpy, and the
native kernels (with :mod:`ctypes`) load on the first packed walk or
PPSFP sweep, so a process-pool or service worker imports what it
unpickles and nothing else.  Import checks run
in a fresh interpreter: the modules this test session has loaded cannot
leak in.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import needs_native

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
    "numpy", "ctypes", "repro.sim.native", "repro.autosoc", "repro.crypto",
    "repro.ftol",
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


@needs_native
def test_native_walker_loads_with_the_golden_pass():
    # building the backend loads neither ctypes nor the native module;
    # prepare() runs the golden pass on the native step, so it loads
    # both, and neither it nor the first packed walk builds the step
    # program's int kernel
    before, after, fn = _fresh("""
import json, sys
from repro.circuit.library import random_sequential
from repro.engine import SeuBackend
from repro.sim import compiled
from repro.soft_error.seu import random_workload

native = ("ctypes", "repro.sim.native")
circuit = random_sequential(6, 60, 8, 4, seed=5)
backend = SeuBackend(circuit, random_workload(circuit, 12, seed=5),
                     lane_width=64)
before = [m for m in native if m in sys.modules]
backend.prepare()
after = [m for m in native if m in sys.modules]
backend.run_batch([(flop, 3) for flop in circuit.flops])
print(json.dumps([before, after,
                  "fn" in vars(compiled.step_program(circuit))]))
""")
    assert (before, after, fn) == ([], ["ctypes", "repro.sim.native"], False)


@needs_native
def test_native_root_walk_loads_on_the_first_sweep():
    # importing fault_sim and prepare() (the pattern windows) load
    # neither ctypes nor the native module; the first sweep does
    before, after = _fresh("""
import json, sys
from repro.circuit.library import random_combinational
from repro.engine import PpsfpBackend
from repro.faults.universe import collapse
from repro.sim import fault_sim
from repro.sim.logic import random_patterns

native = ("ctypes", "repro.sim.native")
circuit = random_combinational(8, 60, seed=5)
faults = collapse(circuit)[0]
backend = PpsfpBackend(circuit, faults,
                       [(random_patterns(circuit.inputs, 64, seed=1), 64)])
backend.prepare()
before = [m for m in native if m in sys.modules]
backend.run_batch(faults)
print(json.dumps([before, [m for m in native if m in sys.modules]]))
""")
    assert (before, after) == ([], ["ctypes", "repro.sim.native"])


@needs_native
def test_wide_lanes_walk_natively_without_numpy():
    # 4096 lanes run on the native walker like 64 do, and the wide
    # outcome words unpack on the standard library: no campaign loads
    # numpy
    before, after = _fresh("""
import json, sys
from repro.circuit.library import random_sequential
from repro.engine import EngineConfig, SeuBackend, run_campaign
from repro.soft_error.seu import random_workload

circuit = random_sequential(64, 2000, 96, 16, seed=3)
backend = SeuBackend(circuit, random_workload(circuit, 6, seed=3),
                     lane_width=4096)
loaded = ("numpy", "repro.sim.native")
before = [m for m in loaded if m in sys.modules]
run_campaign(backend, EngineConfig(executor="serial"))
assert backend._lane_ctx.steps_run > 0
print(json.dumps([before, [m for m in loaded if m in sys.modules]]))
""")
    assert (before, after) == ([], ["repro.sim.native"])


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
