"""simlint: rule fixtures, framework behavior, the one-walk module
record, CLI."""

import ast
import json
import os

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
    import_statements,
    module_name_for_path,
    resolve_call_name,
)
from repro.lint.cli import main as lint_main
from repro.lint.rules import layer_rank

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

    def test_denylist_overrides_allowlist(self):
        # repro.obs.trace sits under the repro.obs allowlist prefix but
        # records sim time, so wall-clock use there IS a finding.
        source_module = ModuleSource(fixture("det001_wallclock.py"),
                                     module="repro.obs.trace")
        rule = get_rule("DET001")
        found = [f for f in rule.check(source_module, ProjectIndex())
                 if not source_module.is_suppressed(f.line, f.rule)]
        assert [f.line for f in found] == [9, 13, 17]


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

    def test_nested_generator_is_not_the_first_yield(self, tmp_path):
        # The yields that count are the process's own: a nested
        # generator's yield does not suspend the process.
        target = tmp_path / "nested.py"
        target.write_text(
            "def process(sim):\n"
            "    def inner():\n"
            "        yield 1\n"
            "    return inner\n"
            "    yield sim.timeout(1.0)\n")
        found = lint_files([str(target)], rules=[get_rule("SIM001")])
        assert [f.line for f in found] == [4]


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
        assert layer_rank("repro.lint.rules") == 3
        assert layer_rank("collections.abc") is None
        assert layer_rank(None) is None

    def test_fleet_upward_imports_fire(self):
        # rank 2 -> experiments (3) and lint (3) are both upward.
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

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--select", "NOPE999", FIXTURES]) == 2

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["does/not/exist.txt"]) == 2

    def test_missing_py_file_is_a_usage_error(self, capsys):
        # Exit 1 means findings; a mistyped path must not read as one.
        assert lint_main(["nosuch.py"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nosuch.py" in err

    @pytest.mark.parametrize("argv", [["--select", ""], ["--select", ","],
                                      ["--ignore", ","]])
    def test_option_naming_no_rule_is_a_usage_error(self, argv, capsys):
        assert lint_main(argv + [fixture("det001_wallclock.py")]) == 2

    def test_bare_run_lints_every_ci_directory(self, tmp_path, monkeypatch,
                                              capsys):
        for directory in ("src", "tests", "benchmarks", "examples"):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "stamp.py").write_text(
                "import time\nnow = time.time()\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 1
        out = capsys.readouterr().out
        assert "4 finding(s) in 4 file(s)" in out
        assert os.path.join("examples", "stamp.py") in out

    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([fixture("layer001_clean.py")]) == 0


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
        aliases = collect_aliases(import_statements(ast_mod.walk(tree)))
        assert aliases["dt"] == "datetime.datetime"
        assert aliases["perf_counter"] == "time.perf_counter"
        call = ast_mod.parse("dt.now()").body[0].value
        assert resolve_call_name(call.func, aliases) == \
            "datetime.datetime.now"


class TestOneWalk:
    """Each file is parsed once and walked once; rules read the walk."""

    def test_nodes_parents_and_owners(self):
        module = ModuleSource(fixture("nested_imports.py"))
        tree = module.tree
        assert module.nodes == list(ast.walk(tree))
        # Imports from every statement block, in ast.walk order, so a
        # later alias still overrides an earlier one.
        assert module.imports == [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert len(module.imports) == 16
        functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        for node in module.nodes[1:]:
            parent = module.parents[node]
            assert any(child is node
                       for child in ast.iter_child_nodes(parent))
            while parent is not None and not isinstance(parent, functions):
                parent = module.parents.get(parent)
            assert module.owners[node] is parent

    def test_a_run_parses_each_file_once(self, monkeypatch):
        files = collect_files([os.path.join(SRC_REPRO, "lint"), FIXTURES])
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        lint_files(files)
        assert sorted(parsed) == sorted(files)
