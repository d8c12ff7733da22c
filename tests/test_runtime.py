"""Tests for ``repro.runtime``: sweep determinism, the result cache,
and the exhibit CLI."""

import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys

import pytest

import repro
from repro.experiments import EXPERIMENTS, exhibit_ids
from repro.obs import get_telemetry, use_telemetry
from repro.experiments.__main__ import main as cli_main
from repro.runtime import cache as cache_module
from repro.runtime import (
    ResultCache,
    RunSpec,
    SweepExecutor,
    SweepPointError,
    cached_run,
    exhibit_fingerprint,
    run_exhibit,
    sweep_imap,
    sweep_map,
    use_executor,
)


def _square(point):
    return point * point


def _counted_square(point):
    """``_square`` that also counts into the ambient telemetry."""
    get_telemetry().inc("points_total", parity=point % 2)
    get_telemetry().set("last_point", point)
    return point * point


def _explode_on_37(point):
    if point == 37:
        raise ValueError("boom")
    return point


def _concurrent_cache_writer(cache_dir, results):
    """Child-process body for the concurrent-writer race test."""
    try:
        result, hit = cached_run("fig17", cache_dir=cache_dir)
        results.put(("ok", result.exp_id, hit))
    except BaseException as exc:  # report, never hang the parent
        results.put(("error", repr(exc), None))


class TestSweepExecutor:
    def test_serial_map_preserves_order(self):
        assert sweep_map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_serial_imap_is_lazy(self):
        calls = []

        def probe(point):
            calls.append(point)
            return point

        # simlint: ignore[PICKLE001] serial executor — probe never pickled
        iterator = sweep_imap(probe, [1, 2, 3])
        assert next(iterator) == 1
        assert calls == [1]  # points past the cursor not yet computed

    def test_parallel_map_matches_serial(self):
        points = list(range(20))
        with SweepExecutor(jobs=4) as executor:
            assert executor.map(_square, points) == [
                p * p for p in points]

    def test_use_executor_scopes_ambient(self):
        with use_executor(jobs=4):
            assert sweep_map(_square, [2, 3]) == [4, 9]
        # back to serial outside the context
        assert sweep_map(_square, [2]) == [4]

    def test_jobs_zero_means_all_cores(self):
        executor = SweepExecutor(jobs=0)
        assert executor.jobs >= 1
        executor.close()

    @pytest.mark.parametrize("jobs", [-1, -5, 2.7, "2", True, None])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            SweepExecutor(jobs=jobs)

    def test_worker_exception_carries_point_repr(self):
        points = list(range(30, 45))
        with SweepExecutor(jobs=2) as executor:
            with pytest.raises(SweepPointError) as excinfo:
                executor.map(_explode_on_37, points)
        message = str(excinfo.value)
        # The failing point's index, repr, and original error all travel.
        assert "37" in message
        assert "_explode_on_37" in message
        assert "ValueError('boom')" in message

    def test_worker_exception_wrapper_is_transparent_on_success(self):
        points = list(range(20))
        with SweepExecutor(jobs=2) as executor:
            assert executor.map(_square, points) == [p * p for p in points]

    def test_pooled_points_return_their_telemetry(self):
        """With telemetry on, a pooled sweep leaves the same samples in
        the ambient registry as a serial one."""
        points = list(range(9))
        with use_telemetry() as serial:
            serial_results = sweep_map(_counted_square, points)
        with SweepExecutor(jobs=2) as executor, use_telemetry() as pooled:
            assert executor.map(_counted_square, points) == serial_results
        assert pooled.snapshot() == serial.snapshot()
        assert pooled.value("points_total", parity=0) == 5
        assert pooled.value("last_point") == 8


class TestDeterminism:
    def test_fig17_seed_sweep_identical_and_picklable(self):
        from repro.experiments.cloud_ops import fig17_scaling_cdf

        kwargs = dict(reuse_events=6, new_events=2, seeds=[37, 38])
        serial = fig17_scaling_cdf(**kwargs)
        with use_executor(jobs=2):
            parallel = fig17_scaling_cdf(**kwargs)
        assert serial == parallel
        pickle.loads(pickle.dumps(parallel))


class TestResultCache:
    def test_miss_then_hit_equal(self, tmp_path):
        first, hit1 = cached_run("fig17", cache_dir=str(tmp_path))
        second, hit2 = cached_run("fig17", cache_dir=str(tmp_path))
        assert (hit1, hit2) == (False, True)
        assert first == second
        assert first.formatted() == second.formatted()

    def test_refresh_recomputes_but_stores(self, tmp_path):
        cached_run("fig17", cache_dir=str(tmp_path))
        result, hit = cached_run("fig17", cache_dir=str(tmp_path),
                                 refresh=True)
        assert not hit
        _again, hit_again = cached_run("fig17", cache_dir=str(tmp_path))
        assert hit_again

    def test_fingerprint_distinct_per_exhibit(self):
        assert exhibit_fingerprint("fig2") != exhibit_fingerprint("fig17")

    def test_fingerprint_stable_and_cost_sensitive(self, monkeypatch):
        import dataclasses
        import repro.mesh
        before = exhibit_fingerprint("fig2")
        assert exhibit_fingerprint("fig2") == before
        monkeypatch.setattr(repro.mesh, "DEFAULT_COSTS", dataclasses.replace(
            repro.mesh.DEFAULT_COSTS, istio_sidecar_l7_s=1e-3))
        assert exhibit_fingerprint("fig2") != before

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cached_run("fig17", cache_dir=str(tmp_path))
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"not a pickle")
        assert cache.load("fig17") is None

    def test_unsupported_pickle_protocol_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cached_run("fig17", cache_dir=str(tmp_path))
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"\x80\x10")
        assert cache.load("fig17") is None

    def test_payload_that_is_not_a_result_is_a_miss(self, tmp_path):
        cached_run("fig17", cache_dir=str(tmp_path))
        for entry in tmp_path.iterdir():
            entry.write_bytes(pickle.dumps(1))
        result, hit = cached_run("fig17", cache_dir=str(tmp_path))
        assert not hit and result.exp_id == "fig17"

    def test_run_exhibit_reports_cache_hit(self, tmp_path):
        spec = RunSpec("fig17", cache_dir=str(tmp_path))
        cold = run_exhibit(spec)
        warm = run_exhibit(spec)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.result == warm.result

    def test_concurrent_writers_one_valid_entry(self, tmp_path):
        """Two processes caching the same key must both succeed via the
        atomic tmp+rename path and leave exactly one valid entry."""
        cache_dir = str(tmp_path / "shared")
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        results = context.SimpleQueue()
        writers = [
            context.Process(target=_concurrent_cache_writer,
                            args=(cache_dir, results))
            for _index in range(2)]
        for writer in writers:
            writer.start()
        outcomes = [results.get() for _writer in writers]
        for writer in writers:
            writer.join(timeout=60)
        assert [w.exitcode for w in writers] == [0, 0]
        # Both writers succeed — whichever order the tmp+rename races
        # resolved in — and both return the same exhibit.
        assert sorted(outcome[0] for outcome in outcomes) == ["ok", "ok"]
        assert all(outcome[1] == "fig17" for outcome in outcomes)
        entries = sorted(p.name for p in (tmp_path / "shared").iterdir())
        assert len([e for e in entries if e.endswith(".pkl")]) == 1
        assert not [e for e in entries if e.endswith(".tmp")]
        # The surviving entry is valid and loadable.
        cached = ResultCache(cache_dir).load("fig17")
        assert cached is not None and cached.exp_id == "fig17"


REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


class TestPackageKey:
    """The cache key hashes every ``repro`` source file, by path and
    bytes, once per process."""

    @pytest.fixture
    def package_copy(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(REPRO_ROOT, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    def test_editing_any_file_changes_the_digest(self, package_copy):
        before = cache_module.package_digest(str(package_copy))
        sources = sorted(package_copy.rglob("*.py"))
        assert len(sources) > 100
        assert package_copy / "lint" / "cli.py" in sources
        for path in sources:
            original = path.read_bytes()
            path.write_bytes(original + b"\n")
            assert cache_module.package_digest(str(package_copy)) != before, \
                path
            path.write_bytes(original)
        assert cache_module.package_digest(str(package_copy)) == before

    def test_renaming_a_file_changes_the_digest(self, package_copy):
        before = cache_module.package_digest(str(package_copy))
        cli = package_copy / "lint" / "cli.py"
        cli.rename(package_copy / "lint" / "cli2.py")
        assert cache_module.package_digest(str(package_copy)) != before

    def test_bytecode_does_not_change_the_digest(self, package_copy):
        before = cache_module.package_digest(str(package_copy))
        cache_dir = package_copy / "lint" / "__pycache__"
        cache_dir.mkdir()
        (cache_dir / "cli.cpython-311.pyc").write_bytes(b"\0")
        assert cache_module.package_digest(str(package_copy)) == before

    def test_fingerprint_folds_in_the_package_digest(self, monkeypatch):
        assert cache_module._source_digest() == \
            cache_module.package_digest(REPRO_ROOT)
        before = {exp_id: exhibit_fingerprint(exp_id)
                  for exp_id in EXPERIMENTS}
        monkeypatch.setattr(cache_module, "_repro_digest", "0" * 64)
        assert all(exhibit_fingerprint(exp_id) != digest
                   for exp_id, digest in before.items())

    def test_key_is_stable_across_hash_seed_and_cwd(self, tmp_path):
        exp_ids = sorted(EXPERIMENTS)
        env = dict(os.environ, PYTHONHASHSEED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(REPRO_ROOT),
                        os.environ.get("PYTHONPATH")) if p)
        script = ("import sys\n"
                  "from repro.runtime import exhibit_fingerprint\n"
                  "for exp_id in sys.argv[1:]:\n"
                  "    print(exhibit_fingerprint(exp_id))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, *exp_ids], cwd=str(tmp_path),
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == [
            exhibit_fingerprint(exp_id) for exp_id in exp_ids]


class TestCLI:
    def test_unknown_exhibit_exits_1_and_lists_known(self, capsys):
        code = cli_main(["prog", "bogus_id"])
        captured = capsys.readouterr()
        assert code == 1
        assert "bogus_id" in captured.err
        assert "fig17" in captured.err and "table1" in captured.err

    def test_negative_jobs_exits_1_naming_the_field(self, capsys):
        code = cli_main(["prog", "--jobs", "-3", "fig17"])
        captured = capsys.readouterr()
        assert code == 1
        assert "jobs must be an int >= 0, got -3" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # nothing ran

    def test_no_args_lists_exhibits(self, capsys):
        code = cli_main(["prog"])
        captured = capsys.readouterr()
        assert code == 1
        assert all(exp_id in captured.out for exp_id in EXPERIMENTS)

    def test_list_prints_sorted_ids_and_exits_0(self, capsys):
        code = cli_main(["prog", "--list", "--tier", "all"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        listed = [line.split()[0] for line in lines]
        assert listed == sorted(EXPERIMENTS)
        assert listed == exhibit_ids()  # the one shared catalog
        # Every id carries its scheduling tier annotation.
        assert all(line.split()[1] in ("[testbed]", "[fleet]")
                   for line in lines)

    def test_list_default_tier_is_testbed(self, capsys):
        from repro.experiments import exhibit_tier
        code = cli_main(["prog", "--list"])
        captured = capsys.readouterr()
        assert code == 0
        listed = [line.split()[0] for line in captured.out.splitlines()]
        assert listed == [exp_id for exp_id in exhibit_ids()
                          if exhibit_tier(exp_id) == "testbed"]

    def test_single_exhibit_with_jobs_and_no_cache(self, capsys):
        code = cli_main(["prog", "fig17", "--jobs", "2", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 0
        assert "fig17 regenerated" in captured.out

    def test_multi_exhibit_parallel_with_cache(self, tmp_path, capsys):
        argv = ["prog", "fig17", "table4", "--jobs", "2",
                "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        # request order preserved even under exhibit-level parallelism
        assert out.index("[fig17 ") < out.index("[table4 ")
        assert cli_main(argv) == 0
        assert "fig17 cached" in capsys.readouterr().out

    def test_report_writes_artifacts(self, tmp_path, capsys):
        report_dir = tmp_path / "report"
        code = cli_main(["prog", "fig17", "--no-cache",
                         "--report", str(report_dir)])
        assert code == 0
        assert (report_dir / "fig17.report.json").exists()
        assert (report_dir / "fig17.prom").exists()
        assert (report_dir / "fig17.trace.json").exists()

