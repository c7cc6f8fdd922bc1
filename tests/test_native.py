"""The native kernels' build, cache and degraded paths
(`repro.sim.native`): the lane walker and the PPSFP root walk.

Outcomes never depend on whether a C kernel could be had: with no
compiler on ``PATH``, a compiler that fails, a garbage library at the
cache path, or a cache directory that cannot be used, the Python
references run with one logged warning per process and the campaign
reports the reference (``test_oracle.check``).  The cache is per user,
created ``0o700``, refused when it is not the user's, and filled by an
atomic rename, so two processes building one design cold both load a
whole library.
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from conftest import needs_native
from repro.engine import SeuBackend
from repro.engine.lanes import seu_outcomes
from repro.sim import compiled, fault_sim, native
from test_oracle import Config, _inputs, check

#: a long SEU campaign: several 64-lane walks
CONFIG = Config(lane_width=64, long=True, batch_size=64)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _design():
    return _inputs("seu", CONFIG.circuit, CONFIG.long)[0]


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """An empty cache directory, nothing loaded in this process and no
    warning logged yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setattr(native, "_warned", False)
    return tmp_path


def _python_walker_with_one_warning(caplog):
    """The campaign reports the reference on the Python walker, neither
    kernel loads, and the process logs one warning however many programs
    and kernels ask."""
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        check(CONFIG)
        assert compiled.StepProgram(_design()).native is None
        assert fault_sim.native_kernel() is None
        check(CONFIG)
    warnings = [r for r in caplog.records if r.name == native.__name__]
    assert len(warnings) == 1, warnings
    return warnings[0].getMessage()


# ----------------------------------------------------------------------
# degraded paths: the Python walker, one warning, identical rows
# ----------------------------------------------------------------------
def test_no_compiler_on_path(fresh, monkeypatch, caplog):
    (fresh / "bin").mkdir()
    monkeypatch.setenv("PATH", str(fresh / "bin"))
    assert native.compiler() is None
    assert "no C compiler" in _python_walker_with_one_warning(caplog)


def test_compiler_that_fails(fresh, monkeypatch, caplog):
    (fresh / "bin").mkdir()
    gcc = fresh / "bin" / "gcc"
    gcc.write_text("#!/bin/sh\necho 'cc1: out of cheese' >&2\nexit 3\n")
    gcc.chmod(0o755)
    monkeypatch.setenv("PATH", str(fresh / "bin"))
    message = _python_walker_with_one_warning(caplog)
    assert "exited 3" in message and "out of cheese" in message
    # the failed build leaves nothing behind in the cache
    assert os.listdir(fresh / "cache" / "repro-native") == []


@needs_native
def test_garbage_library_at_the_cache_path(fresh, caplog):
    for source in (compiled.StepProgram(_design()).c_source,
                   fault_sim._C_ROOT_WALK):
        path = native.library_path(native.compiler(), source)
        Path(path).write_bytes(b"\x7fELF but not really a library")
    _python_walker_with_one_warning(caplog)


@pytest.mark.parametrize("how", ("not_a_directory", "read_only"))
def test_unwritable_cache_dir(fresh, monkeypatch, caplog, how):
    if how == "not_a_directory":
        (fresh / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(fresh / "file"))
    else:
        if os.geteuid() == 0:
            pytest.skip("root writes through a read-only mode")
        cache = fresh / "cache" / "repro-native"
        cache.mkdir(parents=True, mode=0o700)
        cache.chmod(0o500)
    _python_walker_with_one_warning(caplog)


def test_cache_dir_the_user_does_not_own_is_refused(fresh, monkeypatch,
                                                    caplog):
    native.cache_dir()  # created by this user ...
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)  # ... not this one
    with pytest.raises(PermissionError, match="refusing"):
        native.cache_dir()
    _python_walker_with_one_warning(caplog)


def test_cache_dir_others_may_write_is_refused(fresh):
    cache = fresh / "cache" / "repro-native"
    cache.mkdir(parents=True)
    cache.chmod(0o777)
    with pytest.raises(PermissionError, match="refusing"):
        native.cache_dir()


# ----------------------------------------------------------------------
# where the cache lives
# ----------------------------------------------------------------------
def test_cache_dir_is_per_user_and_private(fresh, monkeypatch):
    path = native.cache_dir()
    assert path == str(fresh / "cache" / "repro-native")
    assert os.stat(path).st_mode & 0o777 == 0o700
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(fresh / "home"))
    assert native.cache_dir() == str(fresh / "home" / ".cache"
                                     / "repro-native")
    # no home directory at all: the temporary directory, per uid
    monkeypatch.setattr(os.path, "expanduser", lambda path: path)
    monkeypatch.setattr("tempfile.tempdir", str(fresh))
    assert native.cache_dir() == str(fresh / f"repro-native-{os.getuid()}")


# ----------------------------------------------------------------------
# building and loading
# ----------------------------------------------------------------------
@needs_native
def test_built_once_then_loaded(fresh, monkeypatch):
    first = compiled.StepProgram(_design()).native
    assert first is not None
    # a second program of the design in this process: the same library
    source = compiled.StepProgram(_design()).c_source
    assert native.load(source) is native.load(source)
    assert compiled.StepProgram(_design()).native.path == first.path
    # a new process (nothing loaded) finds it on disk and builds nothing
    monkeypatch.setattr(native, "_loaded", {})

    def no_build(*args, **kwargs):
        raise AssertionError("built a cached library again")

    monkeypatch.setattr(native, "_build", no_build)
    again = compiled.StepProgram(_design()).native
    assert again is not None and again.path == first.path
    assert os.listdir(fresh / "cache" / "repro-native") == [
        os.path.basename(first.path)]


@needs_native
def test_two_kernels_are_cached_side_by_side(fresh, monkeypatch):
    # the lane walker of a design and the PPSFP root walk: two sources,
    # two libraries, each built once and then loaded from the cache
    built = []
    build = native._build

    def counted(cc, source, path):
        built.append(path)
        build(cc, source, path)

    monkeypatch.setattr(native, "_build", counted)
    lane = compiled.StepProgram(_design()).native
    root = fault_sim.native_kernel()
    assert lane is not None and root is not None
    assert fault_sim.native_kernel().path == root.path
    paths = sorted({lane.path, root.path})
    assert sorted(built) == paths  # two libraries, one build each
    cache = fresh / "cache" / "repro-native"
    assert sorted(str(cache / name) for name in os.listdir(cache)) == paths
    # a new process (nothing loaded) loads both and builds neither
    monkeypatch.setattr(native, "_loaded", {})
    assert compiled.StepProgram(_design()).native.path == lane.path
    assert fault_sim.native_kernel().path == root.path
    assert sorted(built) == paths


@needs_native
def test_two_processes_build_one_design_cold(fresh):
    script = """
import json, sys
from repro.engine import SeuBackend
from repro.engine.lanes import seu_outcomes
from repro.sim import compiled
sys.path.insert(0, sys.argv[1])
from test_oracle import _inputs
circuit, stimuli = _inputs("seu", "rand_seq", True)
backend = SeuBackend(circuit.copy(), stimuli, lane_width=64)
backend.prepare()
points = backend.enumerate_points()[:64]
kernel = compiled.step_program(backend.circuit).native
print(json.dumps([kernel.path, seu_outcomes(backend._lane_ctx, points)]))
"""
    env = dict(os.environ, PYTHONPATH=SRC,
               XDG_CACHE_HOME=str(fresh / "cache"))
    tests = str(Path(__file__).resolve().parent)
    procs = [subprocess.Popen([sys.executable, "-c", script, tests], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        results.append(json.loads(out.splitlines()[-1]))
    assert results[0] == results[1]
    assert os.listdir(fresh / "cache" / "repro-native") == [
        os.path.basename(results[0][0])]
    circuit, stimuli = _inputs("seu", "rand_seq", True)
    with mock.patch.object(native, "load", lambda source: None):
        backend = SeuBackend(circuit.copy(), stimuli, lane_width=64)
        backend.prepare()
        assert results[0][1] == seu_outcomes(
            backend._lane_ctx, backend.enumerate_points()[:64])
