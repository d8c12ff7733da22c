"""simlint: rule fixtures, framework behavior, CLI, lint cache, cache
hardening."""

import json
import os
import textwrap
import time
import warnings

import pytest

from repro.lint import (
    ModuleSource,
    ProjectIndex,
    all_rules,
    collect_files,
    get_rule,
    lint_files,
    lint_paths,
    select_rules,
)
from repro.lint.astutil import (
    collect_aliases,
    dynamic_import_lines,
    module_name_for_path,
    resolve_call_name,
)
from repro.lint.cli import main as lint_main
from repro.lint.rules import layer_rank
from repro.lint.runner import load_baseline, split_baselined, write_baseline
from repro.runtime import cache as runtime_cache

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "lint_fixtures")
SRC_REPRO = os.path.normpath(os.path.join(HERE, "..", "src", "repro"))


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def findings_for(name: str, rule_id: str, module: str = None):
    """Run one rule over one fixture, suppressions applied."""
    source_module = ModuleSource(fixture(name), module=module)
    assert source_module.syntax_error is None
    project = ProjectIndex.build([source_module])
    rule = get_rule(rule_id)
    return sorted((f for f in rule.check(source_module, project)
                   if not source_module.is_suppressed(f.line, f.rule)),
                  key=lambda f: f.sort_key)


class TestDet001WallClock:
    def test_positive_lines(self):
        found = findings_for("det001_wallclock.py", "DET001")
        assert [f.line for f in found] == [9, 13, 17]
        assert all(f.rule == "DET001" and f.severity == "error"
                   for f in found)

    def test_from_import_resolves(self):
        found = findings_for("det001_wallclock.py", "DET001")
        assert "time.perf_counter()" in found[1].message

    def test_allowlisted_module_is_exempt(self):
        source_module = ModuleSource(fixture("det001_wallclock.py"),
                                     module="repro.obs.fake")
        rule = get_rule("DET001")
        assert list(rule.check(source_module, ProjectIndex())) == []

    def test_obs_profiler_is_allowlisted_in_src(self):
        profiler = os.path.join(SRC_REPRO, "obs", "profiler.py")
        found = [f for f in lint_files([profiler]) if f.rule == "DET001"]
        assert found == []  # uses perf_counter but lives in repro.obs

    def test_denylist_overrides_allowlist(self):
        # repro.obs.trace sits under the repro.obs allowlist prefix but
        # records sim time, so wall-clock use there IS a finding.
        source_module = ModuleSource(fixture("det001_wallclock.py"),
                                     module="repro.obs.trace")
        rule = get_rule("DET001")
        found = [f for f in rule.check(source_module, ProjectIndex())
                 if not source_module.is_suppressed(f.line, f.rule)]
        assert [f.line for f in found] == [9, 13, 17]

    def test_trace_module_in_src_is_clean(self):
        trace = os.path.join(SRC_REPRO, "obs", "trace.py")
        found = [f for f in lint_files([trace]) if f.rule == "DET001"]
        assert found == []  # denylisted, and actually wall-clock free


class TestDet002Random:
    def test_positive_lines(self):
        found = findings_for("det002_random.py", "DET002")
        assert [f.line for f in found] == [8, 12, 16, 20]

    def test_seeded_random_is_fine(self):
        found = findings_for("det002_random.py", "DET002")
        assert not any(f.line == 24 for f in found)


class TestDet003Unordered:
    def test_positive_lines(self):
        found = findings_for("det003_unordered.py", "DET003")
        assert [f.line for f in found] == [14, 20, 24, 28, 33]

    def test_sorted_wrappers_are_fine(self):
        found = findings_for("det003_unordered.py", "DET003")
        assert not any(f.line in (37, 41) for f in found)

    def test_cross_file_set_attribute(self, tmp_path):
        """An attribute annotated Set in one file flags iteration over
        the same attribute name in another file."""
        declaring = tmp_path / "declaring.py"
        declaring.write_text(
            "from typing import Set\n"
            "class Backend:\n"
            "    def __init__(self):\n"
            "        self.members: Set[int] = set()\n")
        consuming = tmp_path / "consuming.py"
        consuming.write_text(
            "def peers(backend):\n"
            "    return [m for m in backend.members]\n")
        found = lint_files([str(declaring), str(consuming)],
                           rules=[get_rule("DET003")])
        assert [(os.path.basename(f.path), f.line) for f in found] == [
            ("consuming.py", 2)]


class TestPickle001SweepTargets:
    def test_positive_lines(self):
        found = findings_for("pickle001_sweep.py", "PICKLE001")
        assert [f.line for f in found] == [9, 16, 24]

    def test_messages_name_the_sink(self):
        found = findings_for("pickle001_sweep.py", "PICKLE001")
        assert "sweep_map" in found[0].message
        assert "sweep_imap" in found[2].message

    def test_module_level_target_is_fine(self):
        found = findings_for("pickle001_sweep.py", "PICKLE001")
        assert not any(f.line == 32 for f in found)


class TestSim001BlockingProcess:
    def test_positive_lines(self):
        found = findings_for("sim001_blocking.py", "SIM001")
        assert [f.line for f in found] == [7, 12]

    def test_conditional_early_return_is_fine(self):
        found = findings_for("sim001_blocking.py", "SIM001")
        assert not any(17 <= f.line <= 21 for f in found)

    def test_plain_generator_is_not_a_sim_process(self):
        found = findings_for("sim001_blocking.py", "SIM001")
        assert not any(23 <= f.line <= 27 for f in found)


class TestCache001DynamicImports:
    def test_positive_lines_with_experiments_module(self):
        found = findings_for("cache001_dynamic.py", "CACHE001",
                             module="repro.experiments.fixture")
        assert [f.line for f in found] == [7, 15]

    def test_rule_only_applies_to_experiments_package(self):
        found = findings_for("cache001_dynamic.py", "CACHE001",
                             module="tests.lint_fixtures.cache001_dynamic")
        assert found == []

    def test_rule_covers_faults_package(self):
        # Chaos-aware exhibits import repro.faults on the cached path,
        # so its modules get the same dynamic-import scrutiny.
        found = findings_for("cache001_dynamic.py", "CACHE001",
                             module="repro.faults.fixture")
        assert [f.line for f in found] == [7, 15]

    def test_rule_covers_trace_module(self):
        # Traces ride the cached report path too (write_run_artifacts
        # serializes them), so repro.obs.trace gets the same scrutiny.
        found = findings_for("cache001_dynamic.py", "CACHE001",
                             module="repro.obs.trace")
        assert [f.line for f in found] == [7, 15]

    def test_rule_covers_simcore_package(self):
        # Every exhibit's cache key is a function of the simulation
        # kernel, so the event loop gets the same scrutiny.
        found = findings_for("cache001_dynamic.py", "CACHE001",
                             module="repro.simcore.sim")
        assert [f.line for f in found] == [7, 15]


class TestFleetLintCoverage:
    """The fluid tier is state-layer code: full determinism scrutiny."""

    def test_wall_clock_fires_in_fleet(self):
        found = findings_for("fleet_violations.py", "DET001",
                             module="repro.fleet.fixture")
        assert [f.line for f in found] == [18]

    def test_unseeded_rng_fires_in_fleet(self):
        found = findings_for("fleet_violations.py", "DET002",
                             module="repro.fleet.fixture")
        assert [f.line for f in found] == [22]

    def test_dynamic_import_fires_in_fleet(self):
        # fleet modules feed the fleet_* exhibits' cache keys, so
        # CACHE001's package list includes them.
        found = findings_for("fleet_violations.py", "CACHE001",
                             module="repro.fleet.fixture")
        assert [f.line for f in found] == [9]

    def test_fleet_package_in_src_is_clean(self):
        fleet_dir = os.path.join(SRC_REPRO, "fleet")
        files = [os.path.join(fleet_dir, name)
                 for name in sorted(os.listdir(fleet_dir))
                 if name.endswith(".py")]
        assert len(files) >= 8
        assert lint_files(files) == []


class TestResilienceLintCoverage:
    """Installed policies steer every protected exhibit's output, so
    ``repro.resilience`` gets the cached-path determinism scrutiny."""

    def test_dynamic_import_fires_in_resilience(self):
        found = findings_for("resilience_violations.py", "CACHE001",
                             module="repro.resilience.fixture")
        assert [f.line for f in found] == [10]

    def test_resilience_package_in_src_is_clean(self):
        resilience_dir = os.path.join(SRC_REPRO, "resilience")
        files = [os.path.join(resilience_dir, name)
                 for name in sorted(os.listdir(resilience_dir))
                 if name.endswith(".py")]
        assert len(files) >= 7
        assert lint_files(files) == []


class TestSlab001SlabRecycle:
    def test_positive_lines(self):
        found = findings_for("slab001_stale_callbacks.py", "SLAB001",
                             module="repro.simcore.fake")
        assert [f.line for f in found] == [11, 16]
        assert all("callbacks" in f.message for f in found)

    def test_module_outside_simcore_is_exempt(self):
        found = findings_for(
            "slab001_stale_callbacks.py", "SLAB001",
            module="tests.lint_fixtures.slab001_stale_callbacks")
        assert found == []

    def test_sim_module_in_src_is_clean(self):
        # The simulator's recycle site reattaches a cleared callbacks
        # list before the slab append.
        sim = os.path.join(SRC_REPRO, "simcore", "sim.py")
        found = [f for f in lint_files([sim]) if f.rule == "SLAB001"]
        assert found == []


class TestLayer001Fixture:
    def test_firing_lines(self):
        found = findings_for("layer001_upward.py", "LAYER001",
                             module="repro.simcore.fake")
        assert [f.line for f in found] == [7, 8, 10]
        assert all("upward" in f.message for f in found)

    def test_clean_fixture(self):
        assert findings_for("layer001_clean.py", "LAYER001",
                            module="repro.mesh.fake") == []

    def test_layer_ranks(self):
        assert layer_rank("repro.simcore.sim") == 0
        assert layer_rank("repro.mesh.router") == 1
        assert layer_rank("repro.obs.trace") == 1  # sim-time trace: kernel-adjacent
        assert layer_rank("repro.resilience.breaker") == 1  # peer of core
        assert layer_rank("repro.faults.plans") == 2
        assert layer_rank("repro.fleet.model") == 2  # peer of repro.faults
        assert layer_rank("repro.experiments.exhibits") == 3
        assert layer_rank("repro.serve.app") == 4
        assert layer_rank("collections.abc") is None
        assert layer_rank(None) is None

    def test_fleet_upward_imports_fire(self):
        # rank 2 -> experiments (3) and serve (4) are both upward.
        found = findings_for("fleet_violations.py", "LAYER001",
                             module="repro.fleet.fixture")
        assert [f.line for f in found] == [13, 14]

    def test_fleet_same_rank_fault_import_is_legal(self):
        # fleet's validation scenarios build FaultPlans: faults sits at
        # the same rank, and LAYER001 only flags *upward* edges.
        found = findings_for("layer001_clean.py", "LAYER001",
                             module="repro.fleet.fake")
        assert found == []

    def test_resilience_upward_imports_fire(self):
        # repro.resilience is rank 1: imports into faults (2) and
        # experiments (3) are both upward edges.
        found = findings_for("resilience_violations.py", "LAYER001",
                             module="repro.resilience.fixture")
        assert [f.line for f in found] == [12, 13]


class TestLeak001Fixture:
    def test_firing_lines(self):
        found = findings_for("leak001_leak.py", "LEAK001")
        assert [f.line for f in found] == [7, 14, 23]

    def test_messages_name_the_leaked_binding(self):
        found = findings_for("leak001_leak.py", "LEAK001")
        assert "'timeout'" in found[0].message
        assert "'connection'" in found[1].message

    def test_clean_fixture(self):
        assert findings_for("leak001_clean.py", "LEAK001") == []


class TestDet003OrderInsensitiveConsumers:
    def test_only_order_sensitive_materializations_fire(self):
        found = findings_for("det003_consumers.py", "DET003")
        # sum/len/any/all/sorted/set-comp/membership are all clean;
        # the list and dict comprehensions still fire.
        assert [f.line for f in found] == [23, 24]


class TestSuppressionAndSelection:
    def test_same_line_and_line_above_suppression(self, tmp_path):
        target = tmp_path / "sup.py"
        target.write_text(
            "import time\n"
            "a = time.time()  # simlint: ignore[DET001] reason\n"
            "# simlint: ignore[DET001] reason\n"
            "b = time.time()\n"
            "c = time.time()\n")
        found = lint_files([str(target)], rules=[get_rule("DET001")])
        assert [f.line for f in found] == [5]

    def test_bare_ignore_suppresses_every_rule(self, tmp_path):
        target = tmp_path / "bare.py"
        target.write_text("import time\n"
                          "a = time.time()  # simlint: ignore\n")
        assert lint_files([str(target)]) == []

    def test_skip_file_pragma(self, tmp_path):
        target = tmp_path / "skipped.py"
        target.write_text("# simlint: skip-file\n"
                          "import time\n"
                          "a = time.time()\n")
        assert lint_files([str(target)]) == []

    def test_select_and_ignore(self):
        only_det001 = select_rules(select=["DET001"])
        assert [r.id for r in only_det001] == ["DET001"]
        without = select_rules(ignore=["DET003"])
        assert "DET003" not in [r.id for r in without]
        with pytest.raises(KeyError):
            select_rules(select=["NOPE999"])

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        found = lint_files([str(target)])
        assert [f.rule for f in found] == ["PARSE"]


class TestRunnerAndBaseline:
    def test_walk_excludes_fixtures_but_explicit_file_lints(self):
        walked = collect_files([HERE])
        assert not any("lint_fixtures" in path for path in walked)
        explicit = collect_files([fixture("det001_wallclock.py")])
        assert len(explicit) == 1

    def test_baseline_roundtrip(self, tmp_path):
        found = lint_files([fixture("det001_wallclock.py")],
                           rules=[get_rule("DET001")])
        assert found
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), found)
        keys = load_baseline(str(baseline_path))
        new, old = split_baselined(found, keys)
        assert new == [] and len(old) == len(found)

    def test_src_repro_is_clean(self):
        """The tentpole gate: the shipped tree has zero findings."""
        assert lint_paths([SRC_REPRO]) == []

    def test_tests_are_clean(self):
        assert lint_paths([HERE]) == []


class TestCLI:
    def test_list_rules_exits_zero(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_fixture_violation_exits_nonzero(self, capsys):
        code = lint_main([fixture("det001_wallclock.py"),
                          "--select", "DET001"])
        assert code == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_output_roundtrips(self, capsys):
        code = lint_main([fixture("det002_random.py"), "--format", "json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "simlint"
        assert report["summary"]["findings"] == len(report["findings"])
        assert report["summary"]["by_rule"].get("DET002") == 4

    def test_output_file_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        lint_main([fixture("det002_random.py"), "--format", "json",
                   "--output", str(out_path)])
        capsys.readouterr()
        assert json.loads(out_path.read_text())["tool"] == "simlint"

    def test_baseline_flag_gates_exit_code(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        target = fixture("det001_wallclock.py")
        assert lint_main([target, "--select", "DET001",
                          "--write-baseline", str(baseline_path)]) == 0
        capsys.readouterr()
        assert lint_main([target, "--select", "DET001",
                          "--baseline", str(baseline_path)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--select", "NOPE999", FIXTURES]) == 2

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["does/not/exist.txt"]) == 2

    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([SRC_REPRO]) == 0


class TestAstutil:
    def test_module_name_for_path(self):
        assert module_name_for_path(
            os.path.join(SRC_REPRO, "mesh", "ambient.py")) == \
            "repro.mesh.ambient"
        assert module_name_for_path(
            os.path.join(SRC_REPRO, "obs", "__init__.py")) == "repro.obs"

    def test_alias_resolution(self):
        import ast as ast_mod
        tree = ast_mod.parse(
            "import time\n"
            "from datetime import datetime as dt\n"
            "from time import perf_counter\n")
        aliases = collect_aliases(tree)
        assert aliases["dt"] == "datetime.datetime"
        assert aliases["perf_counter"] == "time.perf_counter"
        call = ast_mod.parse("dt.now()").body[0].value
        assert resolve_call_name(call.func, aliases) == \
            "datetime.datetime.now"

    def test_dynamic_import_lines(self):
        import ast as ast_mod
        tree = ast_mod.parse("import importlib\n"
                             "x = 1\n"
                             "mod = __import__('os')\n")
        assert dynamic_import_lines(tree) == [1, 3]


class TestCacheHardening:
    def test_real_exhibits_have_no_dynamic_imports(self):
        assert runtime_cache.closure_dynamic_imports(
            "repro.experiments.cloud_ops") == {}

    def test_closure_dynamic_imports_detects(self, monkeypatch):
        files = {"repro": "a", "repro.x": "b", "repro.y": "c"}
        graph = {"repro": set(), "repro.x": {"repro.y"}, "repro.y": set()}
        dynamic = {"repro.y": [10]}
        monkeypatch.setattr(runtime_cache, "_graph_cache",
                            (files, graph, dynamic))
        assert runtime_cache.closure_dynamic_imports("repro.x") == {
            "repro.y": [10]}
        assert runtime_cache.closure_dynamic_imports("repro") == {}

    def test_cached_run_skips_unsound_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runtime_cache, "closure_dynamic_imports",
            lambda module: {"repro.experiments.fake": [3]})
        cache_dir = tmp_path / "cache"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, hit = runtime_cache.cached_run(
                "fig17", cache_dir=str(cache_dir))
        assert not hit and result is not None
        assert any("cache disabled" in str(w.message) for w in caught)
        assert not cache_dir.exists()  # nothing read or written

    def test_cached_run_sound_closure_still_caches(self, tmp_path):
        _first, hit1 = runtime_cache.cached_run(
            "fig17", cache_dir=str(tmp_path))
        _second, hit2 = runtime_cache.cached_run(
            "fig17", cache_dir=str(tmp_path))
        assert (hit1, hit2) == (False, True)


TAINTED = b'import time\n\n\ndef stamp():\n    return time.time()\n'
CLEAN = b'def stamp():\n    return 0.0\n'


class TestIncrementalCache:
    def test_edit_invalidates_cached_findings(self, tmp_path):
        target = tmp_path / "thing.py"
        target.write_bytes(TAINTED)
        cache_dir = str(tmp_path / "cache")
        first = lint_files([str(target)], cache_dir=cache_dir)
        assert [f.rule for f in first] == ["DET001"]

        # Unchanged file: warm run returns identical findings.
        warm = lint_files([str(target)], cache_dir=cache_dir)
        assert [(f.path, f.line, f.col, f.rule, f.message) for f in warm] == \
            [(f.path, f.line, f.col, f.rule, f.message) for f in first]

        # Editing the file must bust the content-hash key.
        target.write_bytes(CLEAN)
        assert lint_files([str(target)], cache_dir=cache_dir) == []

    def test_neighbor_edit_invalidates_program_context(self, tmp_path):
        # Findings keys include a digest of the set-attribute table:
        # adding a Set-annotated attribute in module B changes module
        # A's verdict.
        consumer = tmp_path / "consumer.py"
        consumer.write_bytes(textwrap.dedent("""
            def order(gateway):
                return [s for s in gateway.services]
            """).encode("utf-8"))
        owner = tmp_path / "owner.py"
        owner.write_bytes(b"class Gateway:\n    pass\n")
        cache_dir = str(tmp_path / "cache")
        files = [str(consumer), str(owner)]
        assert lint_files(files, cache_dir=cache_dir) == []

        owner.write_bytes(textwrap.dedent("""
            from typing import Set


            class Gateway:
                def __init__(self):
                    self.services: Set[str] = set()
            """).encode("utf-8"))
        found = lint_files(files, cache_dir=cache_dir)
        assert [f.rule for f in found] == ["DET003"]
        assert found[0].path == str(consumer)

    def test_warm_run_is_at_least_3x_faster(self, tmp_path):
        lint_pkg = os.path.normpath(
            os.path.join(HERE, "..", "src", "repro", "lint"))
        files = [
            os.path.join(lint_pkg, name)
            for name in sorted(os.listdir(lint_pkg))
            if name.endswith(".py")]
        cache_dir = str(tmp_path / "cache")

        start = time.perf_counter()  # simlint: ignore[DET001]
        cold = lint_files(files, cache_dir=cache_dir)
        cold_elapsed = time.perf_counter() - start  # simlint: ignore[DET001]

        start = time.perf_counter()  # simlint: ignore[DET001]
        warm = lint_files(files, cache_dir=cache_dir)
        warm_elapsed = time.perf_counter() - start  # simlint: ignore[DET001]

        assert [(f.path, f.line, f.rule) for f in warm] == \
            [(f.path, f.line, f.rule) for f in cold]
        assert warm_elapsed * 3 <= cold_elapsed, (
            f"warm {warm_elapsed:.3f}s vs cold {cold_elapsed:.3f}s")


class TestJobsParity:
    def test_jobs_1_and_4_produce_identical_json(self, tmp_path):
        reports = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}.json"
            code = lint_main([FIXTURES, "--format", "json",
                              "--output", str(out),
                              "--baseline", "",
                              "--no-cache",
                              "--jobs", str(jobs)])
            assert code == 1  # the fixture dir is findings-bearing
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["findings"], "expected findings over lint_fixtures"
