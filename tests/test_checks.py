"""Correctness tooling: reprolint rules, baseline, CLI, runtime sanitizer.

The golden fixtures under ``tests/fixtures/reprolint/`` carry one file
per rule with positive, negative, and suppressed sites; the directory
layout arms the path-scoped rules (``letkf/`` -> DTY001+LAY001,
``model/`` -> MUT001+ROL001, ``workflow/`` -> DET002 off, ``fleet/`` ->
ASY001+ASY002; SHM001/RES001/OWN001 apply everywhere). The
integration tests at the bottom lock in the bit-identity guarantees of
both runtime sanitizers (array + concurrency) on real cycling runs.
"""

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.checks import (
    ArraySanitizer,
    Baseline,
    ConcurrencySanitizer,
    Finding,
    LoopStallProbe,
    NULL_CONCURRENCY,
    NULL_SANITIZER,
    OwnershipError,
    RULES,
    SanitizerError,
    SegmentLeakMonitor,
    lint_file,
    lint_paths,
    lint_source,
    make_concurrency_sanitizer,
    make_sanitizer,
)
from repro.checks.concurrency import parent_owner, worker_owner
from repro.checks.runner import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE
from repro.checks.runner import main as checks_main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "reprolint"


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# golden fixtures, one per rule
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    def test_det001_unseeded_and_global_rng(self):
        found = lint_file(FIXTURES / "det001.py")
        assert codes(found) == ["DET001"] * 5
        assert [f.line for f in found] == [9, 10, 15, 16, 17]
        # negatives: the seeded constructors and generator methods stay clean
        assert all(f.line < 20 for f in found)

    def test_det002_wall_clock(self):
        found = lint_file(FIXTURES / "det002.py")
        assert codes(found) == ["DET002"] * 4
        assert [f.line for f in found] == [7, 8, 9, 10]

    def test_det002_off_under_workflow(self):
        assert lint_file(FIXTURES / "workflow" / "clocks_allowed.py") == []

    def test_det002_rearmed_for_fleet_paths(self):
        # fleet scheduling must be replayable: the workflow/telemetry
        # wall-clock exemption does not extend to any fleet/ path, even
        # one nested under workflow/.
        src = "import time\nt = time.time()\n"
        assert lint_source(src, "src/repro/workflow/clocks.py") == []
        assert codes(lint_source(src, "src/repro/fleet/scheduler.py")) == ["DET002"]
        assert codes(lint_source(src, "pkg/workflow/fleet/dispatch.py")) == ["DET002"]

    def test_dty001_dtype_discipline(self):
        found = lint_file(FIXTURES / "letkf" / "dty001.py")
        assert codes(found) == ["DTY001"] * 5
        assert [f.line for f in found] == [6, 7, 8, 9, 10]

    def test_dty001_scoped_to_hot_paths(self):
        # the same source outside letkf//eigen/ is not in scope
        source = (FIXTURES / "letkf" / "dty001.py").read_text()
        assert lint_source(source, "pkg/radar/dty001.py") == []

    def test_mut001_parameter_mutation(self):
        found = lint_file(FIXTURES / "model" / "mut001.py")
        assert codes(found) == ["MUT001"] * 5
        assert [f.line for f in found] == [6, 7, 8, 9, 10]

    def test_rol001_roll_in_stencil_paths(self):
        found = lint_file(FIXTURES / "model" / "rol001.py")
        assert codes(found) == ["ROL001"] * 2
        assert [f.line for f in found] == [9, 10]
        assert "periodic_shift" in found[0].hint

    def test_rol001_scoped_to_model_and_grid(self):
        src = "import numpy as np\ndef f(a):\n    return np.roll(a, 1, axis=-1)\n"
        assert codes(lint_source(src, "src/repro/grid.py")) == ["ROL001"]
        assert codes(lint_source(src, "src/repro/model/advection.py")) == ["ROL001"]
        assert lint_source(src, "src/repro/radar/pawr.py") == []

    def test_lay001_floating_operands(self):
        found = lint_file(FIXTURES / "letkf" / "lay001.py")
        assert codes(found) == ["LAY001"] * 3
        assert [f.line for f in found] == [6, 8, 10]

    def test_asy001_blocking_in_async(self):
        found = lint_file(FIXTURES / "fleet" / "asy001.py")
        assert codes(found) == ["ASY001"] * 5
        assert [f.line for f in found] == [10, 11, 12, 13, 14]

    def test_asy001_scoped_to_fleet_and_serving(self):
        # the same source off the async tiers is out of scope; under
        # serving/ it is just as armed as under fleet/
        source = (FIXTURES / "fleet" / "asy001.py").read_text()
        assert lint_source(source, "pkg/radar/asy001.py") == []
        found = lint_source(source, "src/repro/serving/tiles.py")
        assert codes(found) == ["ASY001"] * 5

    def test_asy002_unawaited_coroutines(self):
        found = lint_file(FIXTURES / "fleet" / "asy002.py")
        assert codes(found) == ["ASY002"] * 4
        assert [f.line for f in found] == [10, 11, 12, 13]

    def test_shm001_segment_lifecycle(self):
        found = lint_file(FIXTURES / "shm001.py")
        assert codes(found) == ["SHM001"] * 2
        assert [f.line for f in found] == [8, 13]

    def test_res001_resource_lifecycle(self):
        found = lint_file(FIXTURES / "res001.py")
        assert codes(found) == ["RES001"] * 2
        assert [f.line for f in found] == [8, 13]

    def test_own001_foreign_slab_writes(self):
        found = lint_file(FIXTURES / "own001.py")
        assert codes(found) == ["OWN001"] * 3
        assert [f.line for f in found] == [5, 10, 14]

    def test_own001_off_inside_the_slab_module(self):
        # shm.py builds the views it hands out; its writes are the
        # implementation of ownership, not a violation of it
        src = 'def fill(out_slab, arr):\n    out_slab.fields["U"][:] = arr\n'
        assert codes(lint_source(src, "src/repro/core/x.py")) == ["OWN001"]
        assert lint_source(src, "src/repro/model/shm.py") == []

    def test_every_rule_has_a_fixture_hit(self):
        all_found = lint_paths([FIXTURES])
        assert set(codes(all_found)) == set(RULES)

    def test_suppression_one_per_fixture(self):
        for rel in (
            "det001.py",
            "det002.py",
            "letkf/dty001.py",
            "model/mut001.py",
            "model/rol001.py",
            "letkf/lay001.py",
            "fleet/asy001.py",
            "fleet/asy002.py",
            "shm001.py",
            "res001.py",
            "own001.py",
        ):
            everything = lint_file(FIXTURES / rel, include_suppressed=True)
            suppressed = [f for f in everything if f.suppressed]
            assert len(suppressed) == 1, rel
            # suppressed findings are hidden from the default listing
            assert suppressed[0] not in lint_file(FIXTURES / rel)


# ---------------------------------------------------------------------------
# linter mechanics
# ---------------------------------------------------------------------------


class TestLinterMechanics:
    def test_alias_resolution(self):
        src = "import numpy.random as nr\nrng = nr.default_rng()\n"
        assert codes(lint_source(src, "x.py")) == ["DET001"]

    def test_from_import_resolution(self):
        src = "from numpy.random import default_rng as mk\nr = mk()\n"
        assert codes(lint_source(src, "x.py")) == ["DET001"]

    def test_seed_kwarg_accepted(self):
        src = "from numpy.random import default_rng\nr = default_rng(seed=3)\n"
        assert lint_source(src, "x.py") == []

    def test_unrelated_name_not_resolved(self):
        src = "class T:\n    def time(self):\n        return 0\nt = T().time()\n"
        assert lint_source(src, "x.py") == []

    def test_suppression_on_multiline_expression(self):
        src = (
            "import time\n"
            "t = time.time(\n"
            ")  # reprolint: ok DET002 fixture\n"
        )
        assert lint_source(src, "x.py") == []

    def test_suppression_requires_matching_code(self):
        src = "import time\nt = time.time()  # reprolint: ok DET001 wrong code\n"
        assert codes(lint_source(src, "x.py")) == ["DET002"]

    def test_finding_text_and_dict(self):
        (f,) = lint_source("import time\nt = time.time()\n", "a/b.py")
        assert f.text().startswith("a/b.py:2:")
        d = f.to_dict()
        assert d["code"] == "DET002" and d["hint"] == RULES["DET002"].hint
        assert d["source"] == "t = time.time()"

    def test_out_params_exempt_from_mut001(self):
        src = (
            "def kernel(x, out):\n"
            "    out[:] = x\n"
            "    return out\n"
        )
        assert lint_source(src, "pkg/model/k.py") == []

    def test_pinned_operand_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(A, B):\n"
            "    C = np.ascontiguousarray(A.T)\n"
            "    return C @ B\n"
        )
        assert lint_source(src, "pkg/letkf/f.py") == []

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", "x.py")


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def _findings(self):
        return lint_file(FIXTURES / "det002.py")

    def test_roundtrip(self, tmp_path):
        found = self._findings()
        b = Baseline.from_findings(found)
        p = b.save(tmp_path / "base.json")
        loaded = Baseline.load(p)
        assert len(loaded) == len(found)
        new, old = loaded.split(found)
        assert new == [] and len(old) == len(found)

    def test_missing_file_is_empty(self, tmp_path):
        b = Baseline.load(tmp_path / "absent.json")
        assert len(b) == 0
        new, old = b.split(self._findings())
        assert old == [] and len(new) == 4

    def test_keys_survive_line_shifts(self):
        found = self._findings()
        b = Baseline.from_findings(found)
        shifted = [
            Finding(
                path=f.path, line=f.line + 40, col=f.col, code=f.code,
                message=f.message, source=f.source,
            )
            for f in found
        ]
        new, old = b.split(shifted)
        assert new == [] and len(old) == len(found)

    def test_duplicated_pattern_is_new(self):
        found = self._findings()
        b = Baseline.from_findings(found)
        new, old = b.split(found + [found[0]])
        assert len(old) == len(found) and new == [found[0]]

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValueError):
            Baseline.load(p)


# ---------------------------------------------------------------------------
# CLI runner
# ---------------------------------------------------------------------------


class TestRunnerCLI:
    def test_findings_exit_code_and_text(self, tmp_path, capsys):
        rc = checks_main(
            ["lint", str(FIXTURES / "det002.py"),
             "--baseline", str(tmp_path / "none.json")]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_FINDINGS
        assert "DET002" in out and "hint:" in out
        assert "4 new finding(s)" in out

    def test_clean_exit_code(self, tmp_path, capsys):
        rc = checks_main(
            ["lint", str(FIXTURES / "workflow"),
             "--baseline", str(tmp_path / "none.json")]
        )
        assert rc == EXIT_OK
        assert "reprolint: clean" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        rc = checks_main(
            ["lint", str(FIXTURES / "det002.py"), "--format", "json",
             "--baseline", str(tmp_path / "none.json")]
        )
        assert rc == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "reprolint"
        assert payload["summary"] == {"new": 4, "baselined": 0}
        assert set(payload["rules"]) == set(RULES)
        assert all("hint" in f for f in payload["new"])

    def test_github_format(self, tmp_path, capsys):
        checks_main(
            ["lint", str(FIXTURES / "det002.py"), "--format", "github",
             "--baseline", str(tmp_path / "none.json")]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(l.startswith("::") for l in lines)
        assert sum(l.startswith("::error ") for l in lines) == 4
        assert lines[-1].startswith("::notice ")

    def test_write_then_gate_with_baseline(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        rc = checks_main(
            ["lint", str(FIXTURES / "det002.py"), "--write-baseline",
             "--baseline", str(base)]
        )
        assert rc == EXIT_OK and base.exists()
        capsys.readouterr()
        rc = checks_main(
            ["lint", str(FIXTURES / "det002.py"), "--baseline", str(base)]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "4 baselined finding(s) not shown" in out

    def test_no_baseline_overrides(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        checks_main(
            ["lint", str(FIXTURES / "det002.py"), "--write-baseline",
             "--baseline", str(base)]
        )
        capsys.readouterr()
        rc = checks_main(
            ["lint", str(FIXTURES / "det002.py"), "--baseline", str(base),
             "--no-baseline"]
        )
        assert rc == EXIT_FINDINGS

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        rc = checks_main(["lint", str(tmp_path / "nope")])
        assert rc == EXIT_USAGE
        assert "no such path" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        checks_main(
            ["lint", str(FIXTURES / "det002.py"), "--format", "json",
             "--output", str(out_file),
             "--baseline", str(tmp_path / "none.json")]
        )
        capsys.readouterr()
        assert json.loads(out_file.read_text())["summary"]["new"] == 4

    def test_rules_command(self, capsys):
        assert checks_main(["rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out
        assert "fix:" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.checks", "rules"],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_OK
        assert "DET001" in proc.stdout


# ---------------------------------------------------------------------------
# the repo itself is lint-clean
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_src_has_no_findings(self):
        findings = lint_paths([REPO / "src"])
        assert findings == [], "\n".join(f.text() for f in findings)

    def test_committed_baseline_is_empty(self):
        baseline = Baseline.load(REPO / "reprolint.baseline.json")
        assert len(baseline) == 0


# ---------------------------------------------------------------------------
# runtime sanitizer
# ---------------------------------------------------------------------------


class TestArraySanitizer:
    def test_dtype_contract(self):
        san = ArraySanitizer()
        ok = {"x": np.zeros(3, dtype=np.float32)}
        san.check_dtype("k", ok, np.float32)
        bad = {"x": np.zeros(3, dtype=np.float64)}
        with pytest.raises(SanitizerError, match="dtype float64"):
            san.check_dtype("k", bad, np.float32)

    def test_contiguity_contract(self):
        san = ArraySanitizer()
        a = np.zeros((4, 5), dtype=np.float32)
        san.check_contiguous("k", {"a": a})
        with pytest.raises(SanitizerError, match="not C-contiguous"):
            san.check_contiguous("k", {"a": a.T})

    def test_guard_traps_input_mutation(self):
        san = ArraySanitizer()
        x = np.zeros(4, dtype=np.float32)
        with pytest.raises(SanitizerError, match="in-place write"):
            with san.guard("kernel", {"x": x}):
                x[0] = 1.0
        # flags restored, value untouched
        assert x.flags.writeable and x[0] == 0.0

    def test_guard_restores_writeable_on_success(self):
        san = ArraySanitizer()
        x = np.zeros(4, dtype=np.float32)
        with san.guard("kernel", {"x": x}):
            assert not x.flags.writeable
        assert x.flags.writeable

    def test_guard_leaves_readonly_inputs_readonly(self):
        san = ArraySanitizer()
        x = np.zeros(4, dtype=np.float32)
        x.flags.writeable = False
        with san.guard("kernel", {"x": x}):
            pass
        assert not x.flags.writeable

    def test_nan_creation_trapped(self):
        san = ArraySanitizer()
        finite = {"x": np.ones(3, dtype=np.float32)}
        with san.guard("kernel", finite) as rec:
            out = {"y": np.array([1.0, np.nan], dtype=np.float32)}
        with pytest.raises(SanitizerError, match="non-finite"):
            san.check_outputs(rec, out)

    def test_nonfinite_inputs_do_not_trap(self):
        # a degraded ensemble already carrying NaN must not re-raise
        san = ArraySanitizer()
        dirty = {"x": np.array([np.nan], dtype=np.float32)}
        with san.guard("kernel", dirty) as rec:
            out = {"y": np.array([np.inf], dtype=np.float32)}
        san.check_outputs(rec, out)  # no raise

    def test_integer_arrays_ignored_by_finiteness(self):
        san = ArraySanitizer()
        with san.guard("kernel", {"i": np.arange(3)}) as rec:
            pass
        san.check_outputs(rec, {"j": np.arange(3)})

    def test_entry_checks_via_guard(self):
        san = ArraySanitizer()
        bad = {"x": np.zeros(3, dtype=np.float64)}
        with pytest.raises(SanitizerError):
            with san.guard("k", bad, expect_dtype=np.float32):
                pass

    def test_call_counter(self):
        san = ArraySanitizer()
        for _ in range(3):
            with san.guard("letkf", {}):
                pass
        assert san.calls["letkf"] == 3

    def test_null_sanitizer_is_free(self):
        x = np.zeros(3, dtype=np.float64)
        NULL_SANITIZER.check_dtype("k", {"x": x}, np.float32)  # no raise
        with NULL_SANITIZER.guard("k", {"x": x}) as rec:
            assert rec is None
            x[0] = 1.0  # not frozen
        NULL_SANITIZER.check_outputs(rec, {"x": x})
        assert not NULL_SANITIZER.enabled

    def test_make_sanitizer(self):
        assert make_sanitizer(False) is NULL_SANITIZER
        assert isinstance(make_sanitizer(True), ArraySanitizer)
        assert make_sanitizer(True).enabled


class TestSanitizedBackend:
    def _state(self, dtype=np.float32):
        fields = {"theta": np.ones((2, 3), dtype=dtype)}
        return SimpleNamespace(
            fields=fields, aux={}, grid=SimpleNamespace(dtype=np.dtype(dtype))
        )

    def _wrap(self, integrate):
        """A backend whose integrate step is ``integrate``, sanitizer armed."""
        from repro.core.backends import ExecutionBackend, make_backend

        class Stub(ExecutionBackend):
            name = "stub"

            def _integrate(self, model, state, duration):
                return integrate(model, state, duration)

        return make_backend(Stub(), sanitize=True)

    def test_make_backend_arms_from_config(self):
        from repro.config import ExecutionConfig
        from repro.core.backends import SerialBackend, make_backend

        b = make_backend(ExecutionConfig(backend="serial", sanitize=True))
        assert isinstance(b, SerialBackend)
        assert b.name == "serial"  # telemetry span names unchanged
        assert b.sanitizer.enabled
        # off by default, and never re-armed
        from repro.core.backends import VectorizedBackend

        plain = make_backend("vectorized")
        assert isinstance(plain, VectorizedBackend)
        assert plain.sanitizer is NULL_SANITIZER
        san = b.sanitizer
        assert make_backend(b, sanitize=True) is b and b.sanitizer is san

    def test_clean_forecast_passes_through(self):
        state = self._state()
        out_state = self._state()
        wrapped = self._wrap(lambda model, s, d: out_state)
        assert wrapped.forecast(None, state, 30.0) is out_state
        assert wrapped.sanitizer.calls["forecast"] == 1

    def test_dtype_drift_trapped(self):
        state = self._state(dtype=np.float64)
        state.grid = SimpleNamespace(dtype=np.dtype(np.float32))
        with pytest.raises(SanitizerError, match="dtype"):
            self._wrap(lambda m, s, d: s).forecast(None, state, 30.0)

    def test_input_mutation_trapped(self):
        state = self._state()

        def evil(model, s, d):
            s.fields["theta"][0, 0] = 99.0
            return s

        with pytest.raises(SanitizerError, match="in-place write"):
            self._wrap(evil).forecast(None, state, 30.0)
        assert state.fields["theta"][0, 0] == 1.0

    def test_nan_creation_trapped(self):
        state = self._state()

        def broken(model, s, d):
            out = self._state()
            out.fields["theta"][0, 0] = np.nan
            return out

        with pytest.raises(SanitizerError, match="non-finite"):
            self._wrap(broken).forecast(None, state, 30.0)


# ---------------------------------------------------------------------------
# runtime concurrency sanitizer
# ---------------------------------------------------------------------------


class TestConcurrencySanitizer:
    def test_acquire_conflict_raises(self):
        san = ConcurrencySanitizer()
        san.acquire("slab", 0, 2, worker_owner(0))
        with pytest.raises(OwnershipError, match="may not claim"):
            san.acquire("slab", 1, 3, worker_owner(1))
        san.acquire("slab", 2, 4, worker_owner(1))  # disjoint range is fine
        assert san.owner_of("slab", 0) == worker_owner(0)
        assert san.owner_of("slab", 3) == worker_owner(1)
        assert san.owner_of("slab", 9) is None
        assert san.violations == 1

    def test_release_frees_the_range(self):
        san = ConcurrencySanitizer()
        san.acquire("slab", 0, 4, worker_owner(0))
        san.release("slab", 0, 4, worker_owner(0))
        san.release("slab", 0, 4, worker_owner(0))  # idempotent
        san.acquire("slab", 0, 4, worker_owner(1))  # no conflict left

    def test_handoff_traps_foreign_write(self):
        san = ConcurrencySanitizer()
        x = np.zeros(4, dtype=np.float64)
        with pytest.raises(OwnershipError, match="foreign write"):
            with san.handoff("slab", {"fields.U": x}, [(0, 4, worker_owner(0))]):
                x[0] = 1.0
        # flags restored, value untouched, lease dropped
        assert x.flags.writeable and x[0] == 0.0
        assert san.violations == 1
        assert san.owner_of("slab", 0) is None

    def test_handoff_restores_flags_on_success(self):
        san = ConcurrencySanitizer()
        x = np.zeros(4, dtype=np.float64)
        frozen = np.zeros(2)
        frozen.flags.writeable = False
        with san.handoff("slab", {"x": x, "ro": frozen}, [(0, 4, worker_owner(0))]):
            assert not x.flags.writeable
        assert x.flags.writeable
        assert not frozen.flags.writeable  # already-read-only stays that way
        assert san.handoffs == 1

    def test_reclaim_requires_ownership(self):
        san = ConcurrencySanitizer()
        x = np.zeros(4, dtype=np.float64)
        with san.handoff("slab", {"x": x}, [(0, 4, worker_owner(0))]) as hoff:
            with pytest.raises(OwnershipError, match="foreign write"):
                with hoff.reclaim(0, 4, parent_owner()):
                    pass

    def test_reclaim_steal_transfers_lease_and_thaws(self):
        san = ConcurrencySanitizer()
        x = np.zeros(4, dtype=np.float64)
        with san.handoff("slab", {"x": x}, [(0, 4, worker_owner(0))]) as hoff:
            with hoff.reclaim(0, 4, parent_owner(), steal=True):
                x[:] = 7.0  # the audited crash-recovery write
            assert san.owner_of("slab", 1) == parent_owner()
            assert not x.flags.writeable  # refrozen after the reclaim
        assert x.flags.writeable and (x == 7.0).all()
        assert san.violations == 0

    def test_null_object_and_factory(self):
        assert make_concurrency_sanitizer(False) is NULL_CONCURRENCY
        assert not NULL_CONCURRENCY.enabled
        san = make_concurrency_sanitizer(True)
        assert isinstance(san, ConcurrencySanitizer) and san.enabled
        x = np.zeros(2, dtype=np.float64)
        with NULL_CONCURRENCY.handoff(
            "slab", {"x": x}, [(0, 2, worker_owner(0))]
        ) as hoff:
            x[0] = 1.0  # never frozen
            with hoff.reclaim(0, 2, parent_owner()):
                pass
        assert NULL_CONCURRENCY.owner_of("slab", 0) is None


class TestLoopStallProbe:
    def test_detects_a_blocked_loop(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        probe = LoopStallProbe(threshold_s=0.05, interval_s=0.01, telemetry=tel)

        async def scenario():
            probe.start()
            probe.start()  # idempotent: one heartbeat task
            await asyncio.sleep(0.03)
            time.sleep(0.25)  # a blocking callback holds the loop
            await asyncio.sleep(0.03)
            await probe.stop()

        asyncio.run(scenario())
        assert probe.stalls >= 1
        assert probe.worst_lag_s >= 0.05
        assert probe._hist.count == probe.stalls
        assert probe._counter.value == probe.stalls

    def test_cooperative_loop_is_clean(self):
        probe = LoopStallProbe(threshold_s=0.25, interval_s=0.01)

        async def scenario():
            probe.start()
            for _ in range(5):
                await asyncio.sleep(0.01)
            await probe.stop()
            await probe.stop()  # safe to call twice

        asyncio.run(scenario())
        assert probe.stalls == 0 and probe.worst_lag_s == 0.0


class TestSegmentLeakAccounting:
    def test_monitor_and_sweep_report_leaks(self):
        import repro.model.shm as shm

        from repro.telemetry import Telemetry

        tel = Telemetry()
        monitor = SegmentLeakMonitor(telemetry=tel)
        slab = shm.SharedStateSlab({"U": ((2, 3), "float32")}, {})
        name = slab.name  # deliberately leaked: no close()
        leaked = monitor.check()
        assert name in leaked
        assert tel.metrics.counter("checks_shm_leaked_total").value >= 1

        seen = []

        def listener(names):
            seen.extend(names)

        shm.add_sweep_listener(listener)
        try:
            with pytest.warns(ResourceWarning, match="leaked"):
                swept = shm.sweep_leaked()
        finally:
            shm._SWEEP_LISTENERS.remove(listener)
        assert name in swept and name in seen
        # the sweep reclaimed it: nothing new is live any more
        monitor_after = SegmentLeakMonitor()
        assert name not in monitor_after.snapshot()
        assert monitor.check() == set()

    def test_clean_scope_has_no_leaks(self):
        import repro.model.shm as shm

        monitor = SegmentLeakMonitor()
        with shm.SharedStateSlab({"U": ((2, 2), "float64")}, {}) as slab:
            slab.fields["U"][:] = 1.0
        assert monitor.check() == set()

    def test_attach_sweep_telemetry_counts(self):
        import repro.model.shm as shm

        from repro.checks.concurrency import attach_sweep_telemetry
        from repro.telemetry import Telemetry

        tel = Telemetry()
        attach_sweep_telemetry(tel)
        try:
            slab = shm.SharedStateSlab({"U": ((2, 2), "float32")}, {})
            with pytest.warns(ResourceWarning):
                shm.sweep_leaked()  # slab still referenced: a true leak
        finally:
            shm._SWEEP_LISTENERS.pop()
        assert tel.metrics.counter("checks_shm_leaked_total").value == 1
        slab.close()  # already swept; idempotent


# ---------------------------------------------------------------------------
# integration: sanitized cycling is bit-identical
# ---------------------------------------------------------------------------


def _mini_system(sanitize):
    from repro.config import ExecutionConfig, LETKFConfig, RadarConfig, ScaleConfig
    from repro.core import BDASystem
    from repro.model.initial import convective_sounding

    scfg = ScaleConfig().reduced(nx=8, nz=8, members=3)
    lcfg = LETKFConfig(
        ensemble_size=3,
        analysis_zmin=0.0,
        analysis_zmax=20000.0,
        localization_h=12000.0,
        localization_v=4000.0,
        gross_error_refl_dbz=100.0,
        gross_error_doppler_ms=100.0,
    )
    bda = BDASystem(
        scfg, lcfg, RadarConfig().reduced(),
        sounding=convective_sounding(cape_factor=1.1), seed=11,
        backend=ExecutionConfig(backend="vectorized", sanitize=sanitize),
    )
    bda.trigger_convection(n=1, amplitude=5.0)
    bda.spinup_nature(300.0)
    bda.cycle()
    return bda


class TestSanitizedCycleBitIdentity:
    def test_sanitize_on_equals_off(self):
        plain = _mini_system(sanitize=False)
        guarded = _mini_system(sanitize=True)
        for name, arr in plain.ensemble.state.fields.items():
            other = guarded.ensemble.state.fields[name]
            assert arr.dtype == other.dtype
            assert np.array_equal(arr, other, equal_nan=True), name
        # the guarded run actually went through the sanitizer
        calls = guarded.backend.sanitizer.calls
        assert calls["forecast"] >= 1 and calls["letkf"] >= 1
        # (the "letkf" calls above were counted on the backend's
        # instance: the cycler reads the sanitizer off its backend)
        assert guarded.cycler.backend is guarded.backend


# ---------------------------------------------------------------------------
# integration: concurrency-checked processes runs are bit-identical
# ---------------------------------------------------------------------------


class TestConcurrencyCheckedBackend:
    def test_processes_forecast_bit_identical_with_checks(self):
        from repro.config import ExecutionConfig
        from repro.core.backends import make_backend
        from repro.model.model import ScaleRM

        from .test_backends import tiny_ensemble

        cfg, _, ens = tiny_ensemble(members=4)
        spec_off = ExecutionConfig(backend="processes", workers=2)
        spec_on = ExecutionConfig(
            backend="processes", workers=2, concurrency_checks=True
        )
        with make_backend(spec_off) as off, make_backend(spec_on) as on:
            assert off.concurrency is NULL_CONCURRENCY
            assert isinstance(on.concurrency, ConcurrencySanitizer)
            # two windows: the second exercises the reserved-slab path
            a = off.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
            a = off.forecast(ScaleRM(cfg), a, 30.0)
            b = on.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
            b = on.forecast(ScaleRM(cfg), b, 30.0)
            assert set(a.fields) == set(b.fields)
            for k in a.fields:
                assert np.array_equal(a.fields[k], b.fields[k]), k
            for k in a.aux:
                assert np.array_equal(a.aux[k], b.aux[k]), k
            assert on.concurrency.handoffs >= 2
            assert on.concurrency.violations == 0
            # all leases were returned at the end of each window
            assert all(not v for v in on.concurrency._ledger.values())

    def test_crash_recovery_survives_the_checks(self):
        from repro.core.backends import ProcessesBackend, VectorizedBackend
        from repro.model.model import ScaleRM

        from .test_backends import tiny_ensemble

        cfg, _, ens = tiny_ensemble(members=4)
        vec = VectorizedBackend().forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        san = ConcurrencySanitizer()
        with ProcessesBackend(2, concurrency=san) as pool:
            pool.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
            pool._task_qs[0].put({"op": "exit"})  # hard-kill worker 0
            out = pool.forecast(ScaleRM(cfg), ens.state.copy(), 30.0)
        for k in vec.fields:
            np.testing.assert_array_equal(out.fields[k], vec.fields[k])
        # the recompute went through the audited reclaim, not a violation
        assert san.violations == 0

    def test_foreign_write_into_worker_block_raises(self):
        from repro.model.shm import SharedStateSlab, state_spec

        from .test_backends import tiny_ensemble

        _, _, ens = tiny_ensemble(members=3)
        fspec, aspec = state_spec(ens.state)
        san = ConcurrencySanitizer()
        with SharedStateSlab(fspec, aspec) as slab:
            leases = [(0, 2, worker_owner(0)), (2, 3, worker_owner(1))]
            first = next(iter(slab.fields.values()))
            with pytest.raises(OwnershipError, match="foreign write"):
                with san.handoff(slab.name, slab.fields, leases):
                    first[0] = 1.0  # the parent racing its own workers
            assert first.flags.writeable  # restored for the real owner
        assert san.violations == 1
