"""Source guards: deleted names stay deleted, one-way decisions stay made.

Each row of :data:`GUARDS` is a regular expression, the files it is
searched in, and the one-line reason it exists.  A row fails when the
pattern matches anywhere in those files (``present=True`` rows fail
when it matches nowhere).  Patterns are searched per file with
``re.MULTILINE``, so ``^`` anchors at line starts and a pattern may
span lines.

Scopes mirror ``grep -r``: a directory is searched recursively, an
``include`` glob narrows the file names, and ``exclude_dirs`` drops any
directory of that name at any depth.  ``benchmarks/campaign`` is the
frozen benchmark, excluded wherever it would be scanned: its files
never named the deleted code.  Two things are never scanned: bytecode
under ``__pycache__`` (generated from the scanned sources) and this
file, whose table spells out every pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve()

#: Everything that ships or tests code, the frozen benchmark aside.
CODE = ("src", "tests", "examples", "benchmarks")


@dataclass(frozen=True)
class Guard:
    name: str
    reason: str
    pattern: str
    paths: tuple[str, ...]
    include: str | None = "*.py"
    exclude_dirs: tuple[str, ...] = ("campaign",)
    present: bool = False


GUARDS = (
    Guard("lazy_reexports",
          "package re-exports resolve on first use through repro._lazy, "
          "so a worker imports only what it unpickles; an eager "
          "'from .x import' in an __init__ loads everything again",
          r"^\s*from \.[^.]",
          tuple(f"src/repro/{pkg}/__init__.py"
                for pkg in ("autosoc", "circuit", "core", "engine",
                            "faults", "sim", "soft_error"))),
    Guard("one_env_knob",
          "carrier choice and crossovers are arguments and constants; "
          "the one environment variable read selects the reference "
          "interpreter",
          r"RESCUE_(?!NO_COMPILE(?![A-Z_]))[A-Z_]+",
          ("src",)),
    Guard("process_pool_or_serial",
          "the thread rung, the one-shot pool, the blob-shipping channel "
          "and the smoke bench that was their only traffic are gone",
          r"reuse_pool|ShippedBlob|ship_if_large|SHIP_BYTES_MIN|run_thread"
          r"|GIL_RELEASE_MIN|bench_engine_smoke|check_engine_regression"
          r"|BENCH_engine",
          CODE),
    Guard("pool_per_campaign",
          "run_process spawns its own pool and joins it before returning; "
          "the cross-campaign registry, campaign tokens, release messages "
          "and pool eviction are gone",
          r"_pool_registry|persistent_pool|_campaign_tokens"
          r"|_persistent_worker_|_discard_pool",
          CODE),
    Guard("one_lane_walker",
          "the shared-clock SoA walk (busy windows, quiescence tests, "
          "column bands) is gone: both carriers run under "
          "lanes._propagate_skewed",
          r"_SoaBand|SOA_BAND_BLOCKS|quiescence_tests|bands_run"
          r"|raw_views_soa|_propagate_soa\b",
          CODE),
    Guard("no_lanes_walk",
          "the same deletion; rsn/network.py has an unrelated _walk, so "
          "the name is guarded in engine/lanes.py only",
          r"def _walk",
          ("src/repro/engine/lanes.py",)),
    Guard("packed_outcome_blocks",
          "CampaignDb stores one BLOB per record_many / record_chunk call; "
          "the only mention of the per-row table left is _migrate's "
          "read-and-drop of a legacy file",
          r"INTO injections|idx_inj_",
          ("src",), include=None, exclude_dirs=()),
    Guard("chunk_failures_are_values",
          "a rung yields a failed chunk's exception in its slot and goes "
          "on: no wrapper type, no rung re-open",
          r"ChunkError|_open_rung",
          ("src", "tests", "examples"), include=None, exclude_dirs=()),
    Guard("no_per_call_compile_flag",
          "the reference interpreter is selected by RESCUE_NO_COMPILE / "
          "compiled.disabled() only, never per call",
          r"compile=(False|True)|enable: bool",
          ("src/repro/sim",), include=None, exclude_dirs=()),
    Guard("no_per_site_programs",
          "per-fault-site cone / detection programs, their hit gate and "
          "source interning are gone: fault simulation walks one cone per "
          "region, in the fixed C root walk or on the interpreter "
          "(test_lanes has an unrelated property_walkers test, hence the "
          "word boundaries)",
          r"cone_program|det_program|ConeProgram|DetProgram"
          r"|COMPILE_AFTER_HITS|\b_interned\b|\b_walkers\b",
          CODE),
    Guard("no_unread_instrumentation",
          "the campaign_finished hook, the walk-summary debug lines, the "
          "lock-guarded walker tallies and ProgramStats are gone; "
          "steps_run / root_walks stay as plain counters",
          r"campaign_finished|log_walk_summary|cycles_skipped|early_exits"
          r"|never_activated|first_window_drops|_count_lock|ProgramStats"
          r"|fused_ops|scratch_bytes|_SLOT_LINE",
          ("src", "tests", "examples"), exclude_dirs=()),
    Guard("injection_not_a_dataclass",
          "Injection is a NamedTuple built positionally: one object per "
          "point, no __dict__",
          r"@dataclass.*\nclass Injection\b",
          ("src/repro/engine/core.py",)),
    Guard("injection_is_a_namedtuple",
          "the same record, asserted by its declaration",
          r"^class Injection\(NamedTuple\):",
          ("src/repro/engine/core.py",), present=True),
    Guard("simulate_interprets",
          "logic.simulate is the interpreter only: a one-shot evaluation "
          "never repays a full-circuit compile, so CircuitProgram and its "
          "factory are gone (test_compiled's "
          "..._per_circuit_programs test is unrelated, hence the word "
          "boundaries)",
          r"\bCircuitProgram\b|\bcircuit_program\b",
          CODE),
    Guard("no_full_program_key",
          "Circuit._program_cache holds step programs only; the 'full' key "
          "went with the full-circuit program",
          r"\[\s*[\"']full[\"']\s*\]|\.get\(\s*[\"']full[\"']",
          CODE),
    Guard("logic_does_not_import_compiled",
          "sim/logic.py has no compiled branch; the compiled tier is the "
          "per-circuit step programs that sim/sequential.py and the lane "
          "walker run",
          r"^\s*(from|import)\s.*\bcompiled\b|import_module\(.*compiled",
          ("src/repro/sim/logic.py",)),
    Guard("one_step_program",
          "StepProgram is the only program object: its int kernel replaced "
          "CompiledProgram; the per-width SoA step programs and their "
          "factory are gone",
          r"SoaStepProgram|soa_step_program|\bat_width\b|CompiledProgram",
          CODE),
    Guard("no_block_conversions",
          "packed int -> uint64 block conversions went with the SoA "
          "program's test-only run; the lane walker builds its words in "
          "one bytes pass",
          r"\bto_blocks\b|\bmask_array\b",
          CODE),
    Guard("no_soa_step_key",
          "Circuit._program_cache holds the one 'step' key; its kernels "
          "are attributes of that program, not cache entries",
          r"[\"']soa_step[\"']",
          CODE),
    Guard("no_facade_lane_backing",
          "the façades take no carrier: there is one, and only "
          "SeuBackend keeps lane_backing, as a retired-name shim that "
          "accepts None",
          r"lane_backing",
          ("src/repro/soft_error/seu.py", "src/repro/safety/slicing.py")),
    Guard("one_lane_carrier",
          "every lane width runs on the packed-int carrier (the native "
          "walker, the Python walker as reference and fallback): the SoA "
          "kernel, its lane word, golden table and level-width "
          "crossovers, and the carrier resolver and its validator are gone",
          r"_SoaKernel|_SoaLanes|_cycle_table|SOA_MIN_|resolve_backing"
          r"|check_backing|\.soa\b",
          ("src",)),
    Guard("no_dense_flip_masks",
          "flips cross into the native lane walker as one (cycle, flop, "
          "lane) triple each, read in place: the dense per-entry block "
          "masks, their to_bytes packing and the buffer lent through "
          "c_char.from_buffer are gone",
          r"c_char\.from_buffer|\bmasks\s*(?::\s*bytearray|\[)"
          r"|uint64_t\s*\*\s*masks\b|\bentries,\s*masks\b",
          ("src",)),
    Guard("engine_needs_no_numpy",
          "every lane width runs on the standard library on every host: "
          "the lane walkers and outcome unpacking read no numpy, so a "
          "width never degrades and no campaign loads it (vector."
          "HAVE_NUMPY stays, via find_spec, for the frozen benchmark)",
          r"\bimport numpy\b|\bfrom numpy\b|\bnp\.|vector\.np\b",
          tuple(f"src/repro/{pkg}"
                for pkg in ("engine", "sim", "core", "service"))),
    Guard("no_round_batching",
          "a multi-round facade (RSN diagnosis, the GPGPU encoding study) "
          "runs one plain campaign per round: the fused composite "
          "backend, its speculative diagnosis windows and their knob are "
          "gone",
          r"CompositeBackend|batch_rounds|_speculated_tables",
          ("src",)),
    Guard("outcomes_stay_columns",
          "a chunk's outcomes travel as one Outcomes block from the "
          "backend to the database: the fold, CheckpointSink, the replay "
          "source and the service worker rebuild no per-point row tuple "
          "or Injection record (report.injections builds them on read)",
          r"\.row\(\)|(?<!class )\bInjection\((?!NamedTuple)",
          ("src/repro/engine/core.py", "src/repro/service")),
    Guard("census_stays_columns",
          "a filter's census is one Outcomes block from filter_points to "
          "the database and the report: the in-tree filters build no "
          "per-point Injection, and the engine stores plan.skipped as it "
          "is instead of re-zipping records into columns",
          r"def filter_points\((?:(?!\n {0,4}def |\nclass )[\s\S])*?"
          r"\bInjection\(|Outcomes\.of\(plan\.skipped\)",
          ("src/repro/engine/backends.py", "src/repro/engine/workloads.py",
           "src/repro/engine/core.py")),
    Guard("step_program_orders_its_cone",
          "a step program orders its live cone by one walk from the "
          "observables: the full-netlist sort (and the index built on "
          "it) stays off the SEU campaign path, whose designs are mostly "
          "dead logic",
          r"\btopo_(?:order|index)\b",
          ("src/repro/sim/compiled.py",)),
    Guard("one_copy_of_each_test_helper",
          "report identity is one signature and one row list, defined in "
          "tests/conftest.py and imported wherever a test compares reports",
          r"\bdef (?:_signature|_rows)\(",
          ("tests",), include="test_*.py"),
)


def _files(guard: Guard) -> list[Path]:
    files = []
    for rel in guard.paths:
        path = ROOT / rel
        assert path.exists(), f"{guard.name}: {rel} does not exist"
        if path.is_file():
            files.append(path)
            continue
        for found in sorted(path.rglob(guard.include or "*")):
            parts = found.relative_to(path).parts[:-1]
            if (found.is_file() and "__pycache__" not in parts
                    and not set(parts) & set(guard.exclude_dirs)):
                files.append(found)
    return [f for f in files if f.resolve() != SELF]


def _matches(guard: Guard) -> list[str]:
    regex = re.compile(guard.pattern, re.MULTILINE)
    hits = []
    for path in _files(guard):
        text = path.read_text(encoding="utf-8", errors="replace")
        for m in regex.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            hits.append(f"{path.relative_to(ROOT)}:{line}: {m.group(0)!r}")
    return hits


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.name)
def test_source_guard(guard):
    hits = _matches(guard)
    if guard.present:
        assert hits, f"{guard.name} not found — {guard.reason}"
    else:
        assert not hits, f"{guard.name}: {guard.reason}\n" + "\n".join(hits)


def test_guards_bite(tmp_path, monkeypatch):
    # every forbidding row matches the text it forbids, so a typo in a
    # pattern cannot turn a guard off silently
    samples = {
        "lazy_reexports": "from .netlist import Circuit\n",
        "one_env_knob": 'os.environ["RESCUE_SOA_MIN"]\n',
        "process_pool_or_serial": "run_thread(x)\n",
        "pool_per_campaign": "_pool_registry = {}\n",
        "one_lane_walker": "def _propagate_soa(ctx):\n",
        "no_lanes_walk": "def _walk(self):\n",
        "packed_outcome_blocks": "INSERT INTO injections VALUES\n",
        "chunk_failures_are_values": "class ChunkError(Exception):\n",
        "no_per_call_compile_flag": "simulate(c, p, 1, compile=False)\n",
        "no_per_site_programs": "prog = cone_program(c, site)\n",
        "no_unread_instrumentation": "class ProgramStats:\n",
        "injection_not_a_dataclass": "@dataclass(frozen=True)\n"
                                     "class Injection:\n",
        "simulate_interprets": "program = compiled.circuit_program(c)\n",
        "no_full_program_key": 'cache["full"] = prog\n',
        "logic_does_not_import_compiled": "from . import compiled\n",
        "one_step_program": "prog = compiled.soa_step_program(c, 64)\n",
        "no_block_conversions": "arr = vector.to_blocks(v, 4)\n",
        "no_soa_step_key": 'cache[("soa_step", w)] = prog\n',
        "no_facade_lane_backing": "    lane_backing: str | None = None,\n",
        "one_lane_carrier": "kernel = compiled.step_program(c).soa\n",
        "no_dense_flip_masks": "lent = ctypes.c_char.from_buffer(masks)\n",
        "engine_needs_no_numpy": "by_row = _vector.np.frombuffer(buf)\n",
        "no_round_batching": "backend = CompositeBackend(parts)\n",
        "outcomes_stay_columns": "[inj.row() for inj in event.batch]\n",
        "census_stays_columns": (
            "    def filter_points(self, points):\n"
            "        return [], [Injection(p, 'x', 0, 'masked')"
            " for p in points]\n"),
        "step_program_orders_its_cone": (
            "    return [g for g in circuit.topo_order()"
            " if g.output in needed]\n"),
        "one_copy_of_each_test_helper": "    def _rows(self, report):\n",
    }
    forbidding = [g for g in GUARDS if not g.present]
    assert set(samples) == {g.name for g in forbidding}
    for guard in forbidding:
        root = tmp_path / guard.name
        for rel in guard.paths:
            path = root / rel
            if path.suffix:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.touch()
            else:
                path.mkdir(parents=True)
        target = root / guard.paths[0]
        if not target.suffix:  # a directory: one file the row searches
            target = target / (guard.include or "*.py").replace("*", "sample")
        target.write_text(samples[guard.name])
        monkeypatch.setitem(globals(), "ROOT", root)
        assert _matches(guard), guard.name


def test_clean_names_pass():
    # names the guards must leave alone
    regexes = {g.name: re.compile(g.pattern, re.MULTILINE) for g in GUARDS}
    assert not regexes["one_env_knob"].search("RESCUE_NO_COMPILE")
    assert regexes["one_env_knob"].search("RESCUE_NO_COMPILE_X")
    assert not regexes["no_per_site_programs"].search("property_walkers")
    assert not regexes["simulate_interprets"].search(
        "def test_cache_only_per_circuit_programs():")
    assert not regexes["no_full_program_key"].search(
        '("full", "early-stop", "die")')
    assert not regexes["logic_does_not_import_compiled"].search(
        "from ..circuit.netlist import Circuit\n")
    assert not regexes["injection_not_a_dataclass"].search(
        "class Injection(NamedTuple):\n")
    assert not regexes["no_block_conversions"].search(
        "vector.from_blocks(arr)")
    assert not regexes["no_soa_step_key"].search("def _soa_step(c, w):")
    assert not regexes["one_lane_carrier"].search(
        'name="seu_soa4096", backing="soa"')
    for clean in ("detection masks ride in detail",
                  "per-warp active masks", "lane masks into flop states"):
        assert not regexes["no_dense_flip_masks"].search(clean)
    assert not regexes["one_copy_of_each_test_helper"].search(
        "def _rows_of(report):")
    assert not regexes["outcomes_stay_columns"].search(
        "class Injection(NamedTuple):\n    rows = block.rows()")
    for dirty in ("batch = [Injection(point, location, cycle, outcome)",
                  "[inj.row() for inj in batch]"):
        assert regexes["outcomes_stay_columns"].search(dirty), dirty
    census = regexes["census_stays_columns"]
    assert not census.search(
        "    def filter_points(self, points):\n"
        "        def is_dead(flop):\n            return True\n"
        "        return kept, Outcomes(skipped, locations, cycles, codes,\n"
        "                              ('masked',), rules)\n\n"
        "    def run_batch(self, points):\n"
        "        return [Injection(p, 'x', 0, 'masked') for p in points]\n")
    assert not census.search("db.record_many(cid, report.skipped)")
    for dirty in ("    def filter_points(self, points):\n"
                  "        for point in points:\n"
                  "            skipped.append(Injection(point, flop, cyc,\n",
                  "db.record_many(cid, Outcomes.of(plan.skipped))"):
        assert census.search(dirty), dirty
    for clean in ('HAVE_NUMPY = find_spec("numpy") is not None',
                  "inp.append(x)", "snp.x", "no campaign loads numpy"):
        assert not regexes["engine_needs_no_numpy"].search(clean)
    for dirty in ("import numpy as np\n", "from numpy import uint64\n",
                  "x = np.zeros(4)\n", "mod = _vector.np\n"):
        assert regexes["engine_needs_no_numpy"].search(dirty), dirty
    for clean in ("composite cells (mux, decoders)", "RsnDiagnosisBackend",
                  "max_extra_rounds: int = 8", "batch_size=8",
                  "one campaign per round"):
        assert not regexes["no_round_batching"].search(clean)
    for dirty in ("diagnostic_test(f, faults, base, batch_rounds=False)",
                  "tables = _speculated_tables(factory, faults, window)",
                  "from repro.engine import CompositeBackend"):
        assert regexes["no_round_batching"].search(dirty), dirty
    cone = regexes["step_program_orders_its_cone"]
    for clean in ("each gate after its inputs: a topological order",
                  "self._topo_cache = None", "def _live_gates(circuit):"):
        assert not cone.search(clean), clean
    for dirty in ("order = circuit.topo_order()",
                  "index = circuit.topo_index()"):
        assert cone.search(dirty), dirty
