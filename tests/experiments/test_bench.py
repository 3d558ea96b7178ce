"""Bench harness tests: document generation, schema validation, CLI."""

import copy
import json

import pytest

from repro.experiments.bench import (
    IDENTITIES,
    QUICK_PRESET,
    REQUIRED_STAGES,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    gate_against_baseline,
    main,
    run_bench,
    stage_summary,
    validate_bench_document,
)
from repro.observability.tracer import Tracer

from tests.observability.test_tracer import FakeClock


@pytest.fixture(scope="module")
def tiny_doc(tmp_path_factory):
    """One cheap traced bench shared by every assertion here."""
    trace_dir = tmp_path_factory.mktemp("traces")
    return run_bench(
        ["crazy"], width=64, height=32, frames=1, detail=1,
        quick=True, trace_dir=trace_dir,
    ), trace_dir


class TestStageSummary:
    def test_counts_totals_cycles(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for wall, cycles in ((1.0, 10.0), (3.0, 20.0), (2.0, 30.0)):
            with tracer.span("stage") as span:
                clock.tick(wall)
            span.cycles = cycles
        summary = stage_summary(tracer)
        assert summary == {"stage": {"count": 3, "cycles": 60.0}}


class TestDeterminism:
    def test_two_runs_produce_equal_documents(self):
        """Every field of the document is a model output, so running a
        quick scene twice must reproduce it exactly, tile grids
        included."""
        preset = dict(QUICK_PRESET, frames=2)
        first = run_bench(["crazy"], **preset, quick=True, tile_profile=True)
        again = run_bench(["crazy"], **preset, quick=True, tile_profile=True)
        assert first == again


class TestRunBench:
    def test_document_is_schema_valid(self, tiny_doc):
        doc, _ = tiny_doc
        validate_bench_document(doc)  # must not raise
        assert doc["schema"] == SCHEMA_NAME
        assert doc["version"] == SCHEMA_VERSION
        assert set(doc["scenes"]) == {"crazy"}
        # v8 dropped the host-time fields.
        assert "stats" not in doc
        assert "runs" not in doc["config"] and "profile" not in doc["config"]
        # v9 names no kernel backend and no broad phase.
        assert set(doc["config"]) == {
            "width", "height", "frames", "detail", "quick", "tile_profile",
        }

    def test_scene_entry_contents(self, tiny_doc):
        doc, _ = tiny_doc
        entry = doc["scenes"]["crazy"]
        for stage in REQUIRED_STAGES:
            assert stage in entry["stages"]
        for record in entry["stages"].values():
            assert set(record) == {"count", "cycles"}
        assert entry["stages"]["frame"]["count"] == 1
        assert entry["totals"]["fragments_produced"] > 0
        assert entry["totals"]["gpu_cycles"] > 0
        assert "throughput" not in entry
        # Counters carry the merged registry namespaces.
        assert entry["counters"]["gpu.frames"] == 1
        assert any(name.startswith("gpu.rbcd.") for name in entry["counters"])

    def test_oracle_block_matches_forensics(self):
        """tp/fp/fn are the forensics engine's agreements and
        divergences over the same frames."""
        from repro.gpu.config import GPUConfig
        from repro.observability.forensics import run_forensics
        from repro.scenes.benchmarks import workload_by_alias

        preset = dict(QUICK_PRESET, frames=2)
        doc = run_bench(["crazy"], **preset)
        report = run_forensics(
            workload_by_alias("crazy", detail=preset["detail"]),
            GPUConfig().with_screen(preset["width"], preset["height"]),
            frames=preset["frames"],
        )
        kinds = [d.kind for d in report.divergences]
        assert doc["scenes"]["crazy"]["oracle"] == {
            "tp": report.agreements,
            "fp": kinds.count("false_positive"),
            "fn": kinds.count("false_negative"),
        }
        assert report.agreements > 0

    def test_energy_section(self, tiny_doc):
        doc, _ = tiny_doc
        entry = doc["scenes"]["crazy"]
        energy = entry["energy"]
        assert energy["total_j"] > 0
        assert energy["gpu"]["total_j"] > 0
        assert energy["rbcd"]["total_j"] > 0
        assert energy["edp_js"] == pytest.approx(
            energy["total_j"] * energy["delay_s"]
        )
        assert energy["total_j"] == pytest.approx(
            energy["gpu"]["total_j"] + energy["rbcd"]["total_j"]
        )
        # The merged counters expose the same numbers by name.
        assert entry["counters"]["energy.total_j"] == pytest.approx(
            energy["total_j"]
        )
        assert entry["counters"]["energy.gpu.fragment_j"] == pytest.approx(
            energy["gpu"]["fragment_j"]
        )

    def test_tile_profile_defaults_off_and_recorded(self, tiny_doc):
        doc, _ = tiny_doc
        assert doc["config"]["tile_profile"] is False
        # Disabled runs carry the tiny sentinel block only: no grids.
        assert doc["scenes"]["crazy"]["tile_profile"] == {"enabled": False}

    def test_tile_profile_enabled_records_grids(self):
        doc = run_bench(
            ["crazy"], width=64, height=32, frames=1, detail=1,
            tile_profile=True,
        )
        validate_bench_document(doc)
        assert doc["config"]["tile_profile"] is True
        entry = doc["scenes"]["crazy"]
        profile = entry["tile_profile"]
        assert profile["enabled"] is True
        tile_count = profile["tiles_x"] * profile["tiles_y"]
        for name in ("cycles", "energy_j", "activity", "lookups"):
            assert len(profile[name]) == tile_count
        assert "hits" not in profile
        # The grids are a spatial decomposition of frame totals: tile
        # cycles sum to the ZEB insertions (one cycle per fragment in)
        # plus the Z-Overlap cycles, tile activity to the ZEB insertion
        # counter, and dynamic tile energy to the rbcd component joules
        # minus static leakage.
        counters = entry["counters"]
        assert sum(profile["cycles"]) == pytest.approx(
            counters["gpu.rbcd.rbcd_fragments_in"]
            + counters["gpu.rbcd.rbcd_cycles"]
        )
        assert sum(profile["activity"]) == pytest.approx(
            entry["counters"]["gpu.rbcd.zeb_insertions"]
        )
        rbcd_j = entry["energy"]["rbcd"]
        assert sum(profile["energy_j"]) == pytest.approx(
            rbcd_j["insertion_j"] + rbcd_j["overlap_j"] + rbcd_j["output_j"]
        )
        # Everything outside the profile block is untouched by
        # profiling: the profiler is strictly observational.
        bare = run_bench(
            ["crazy"], width=64, height=32, frames=1, detail=1,
        )
        assert bare["scenes"]["crazy"]["totals"] == entry["totals"]
        assert bare["scenes"]["crazy"]["counters"] == entry["counters"]

    def test_trace_files_written(self, tiny_doc):
        _, trace_dir = tiny_doc
        ndjson = trace_dir / "trace_crazy.ndjson"
        chrome = trace_dir / "trace_crazy.json"
        assert ndjson.exists() and chrome.exists()
        first = json.loads(ndjson.read_text().splitlines()[0])
        assert first["name"] == "frame"
        chrome_doc = json.loads(chrome.read_text())
        assert chrome_doc["traceEvents"][0]["ph"] == "M"

    def test_document_round_trips_through_json(self, tiny_doc):
        doc, _ = tiny_doc
        validate_bench_document(json.loads(json.dumps(doc)))


def valid_doc():
    """A minimal valid v10 document for validator tests: schema-valid,
    and its values keep every one of the model's identities."""
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": {"width": 64, "height": 32, "frames": 1,
                   "detail": 1, "quick": True, "tile_profile": False},
        "scenes": {
            "crazy": {
                "frames": 1,
                "stages": {
                    **{stage: {"count": 1, "cycles": 10.0}
                       for stage in REQUIRED_STAGES},
                    "rbcd": {"count": 1, "cycles": 4.0},
                },
                "totals": {"fragments_produced": 5,
                           "pair_records_written": 1,
                           "gpu_cycles": 100.0, "colliding_pairs": 1},
                "counters": {"gpu.frames": 1, "gpu.gpu_cycles": 100.0,
                             "gpu.geometry.geometry_cycles": 40.0,
                             "gpu.raster.raster_pipeline_cycles": 60.0,
                             "gpu.rbcd.rbcd_fragments_in": 6,
                             "gpu.rbcd.rbcd_cycles": 4.0,
                             "energy.total_j": 1e-3},
                "energy": {
                    "gpu": {"geometry_j": 1e-4, "raster_j": 1e-4,
                            "fragment_j": 5e-4, "memory_j": 1e-4,
                            "static_j": 1e-4, "total_j": 9e-4},
                    "rbcd": {"insertion_j": 4e-5, "overlap_j": 4e-5,
                             "output_j": 1e-5, "static_j": 1e-5,
                             "total_j": 1e-4},
                    "total_j": 1e-3,
                    "delay_s": 1e-3,
                    "edp_js": 1e-6,
                },
                "cases": {"disjoint": 3, "crossing": 1, "nested": 0,
                          "self_filtered": 0, "evidence_records": 1},
                "oracle": {"tp": 1, "fp": 0, "fn": 2},
                "tile_profile": {"enabled": False},
            }
        },
    }


def valid_doc_profiled():
    """The same document with an enabled 2x1 tile_profile block."""
    doc = valid_doc()
    doc["config"]["tile_profile"] = True
    doc["scenes"]["crazy"]["tile_profile"] = {
        "enabled": True, "tiles_x": 2, "tiles_y": 1, "frames": 1,
        "cycles": [8.0, 2.0], "energy_j": [7e-5, 2e-5],
        "activity": [5.0, 1.0], "lookups": [1.0, 1.0],
    }
    return doc


class TestValidator:
    def test_accepts_valid(self):
        validate_bench_document(valid_doc())

    @pytest.mark.parametrize("version", [4, 5])
    def test_rejects_pre_v6_documents(self, version):
        # Only v10 is accepted: an older document is refused with a
        # version error, by the validator and therefore by the gate.
        old = valid_doc()
        old["version"] = version
        with pytest.raises(ValueError, match=r"version: expected one of \(10,\)"):
            validate_bench_document(old)
        report = gate_against_baseline(valid_doc(), old)
        assert not report.ok
        assert any("baseline document invalid" in e for e in report.errors)

    def test_rejects_v6_document(self):
        # v7 dropped the tile-cache blocks; a v6 document is refused
        # with an error naming its version, even with those blocks.
        old = valid_doc()
        old["version"] = 6
        old["config"]["tile_cache"] = False
        with pytest.raises(ValueError, match=r"expected one of \(10,\), got 6"):
            validate_bench_document(old)

    def test_rejects_v7_document(self):
        # v8 dropped the wall-time fields; a v7 document is refused
        # with an error naming its version, even with those fields.
        old = valid_doc()
        old["version"] = 7
        old["config"].update(runs=3, profile=False)
        old["stats"] = {"bootstrap_resamples": 2000, "confidence": 0.95}
        with pytest.raises(ValueError, match=r"expected one of \(10,\), got 7"):
            validate_bench_document(old)

    def test_rejects_v8_document(self):
        # v9 dropped the kernel-backend and broad-phase config keys; a
        # v8 document is refused with an error naming its version.
        old = valid_doc()
        old["version"] = 8
        old["config"].update(kernel_backend="vectorized", broad_phase="lbvh")
        with pytest.raises(ValueError, match=r"expected one of \(10,\), got 8"):
            validate_bench_document(old)

    def test_rejects_v9_document(self):
        # v10 dropped the per-tile RBCD stage entries; a v9 document is
        # refused with an error naming its version, even with them.
        old = valid_doc()
        old["version"] = 9
        old["scenes"]["crazy"]["stages"].update({
            "rbcd.tile": {"count": 2, "cycles": 10.0},
            "rbcd.zeb-insert": {"count": 2, "cycles": 6.0},
            "rbcd.z-overlap": {"count": 2, "cycles": 4.0},
        })
        with pytest.raises(ValueError, match=r"expected one of \(10,\), got 9"):
            validate_bench_document(old)

    def test_accepts_enabled_tile_profile(self):
        validate_bench_document(valid_doc_profiled())

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d["scenes"]["crazy"]["tile_profile"].update(tiles_x=0),
         "tile_profile.tiles_x"),
        (lambda d: d["scenes"]["crazy"]["tile_profile"].pop("frames"),
         "tile_profile.frames"),
        (lambda d: d["scenes"]["crazy"]["tile_profile"].update(
            cycles=[1.0]), "tile_profile.cycles"),
        (lambda d: d["scenes"]["crazy"]["tile_profile"].update(
            energy_j=[1e-5, "hot"]), r"tile_profile.energy_j\[1\]"),
        (lambda d: d["scenes"]["crazy"]["tile_profile"].update(
            lookups="none"), "tile_profile.lookups"),
    ])
    def test_rejects_bad_enabled_tile_profile(self, mutate, needle):
        doc = valid_doc_profiled()
        mutate(doc)
        with pytest.raises(ValueError, match=needle):
            validate_bench_document(doc)

    def test_accepts_unknown_extra_keys(self):
        # Additive schema growth must not invalidate older validators'
        # output — or this validator's own future documents.
        doc = valid_doc()
        doc["config"]["future_knob"] = 7
        doc["scenes"]["crazy"]["future_block"] = {"x": 1}
        validate_bench_document(doc)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_bench_document([1, 2])

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(schema="other"), "schema"),
        (lambda d: d.update(version=1), "version"),
        (lambda d: d.pop("config"), "config"),
        (lambda d: d["config"].update(width=0), "config.width"),
        (lambda d: d["config"].update(quick="yes"), "config.quick"),
        (lambda d: d.update(scenes={}), "scenes"),
        (lambda d: d["scenes"]["crazy"]["stages"].pop("rbcd"), "rbcd"),
        (lambda d: d["scenes"]["crazy"]["stages"]["frame"].update(count=0),
         "count"),
        (lambda d: d["scenes"]["crazy"]["stages"]["frame"].update(
            cycles=-1.0), "frame.cycles"),
        (lambda d: d["scenes"]["crazy"]["stages"]["frame"].pop("cycles"),
         "frame.cycles"),
        (lambda d: d["scenes"]["crazy"]["totals"].update(
            fragments_produced=1.5), "fragments_produced"),
        (lambda d: d["scenes"]["crazy"].pop("oracle"), "oracle"),
        (lambda d: d["scenes"]["crazy"]["oracle"].pop("fn"), "oracle.fn"),
        (lambda d: d["scenes"]["crazy"]["oracle"].update(tp=1.0),
         "oracle.tp"),
        (lambda d: d["scenes"]["crazy"]["oracle"].update(fp=-1),
         "oracle.fp"),
        (lambda d: d["scenes"]["crazy"].update(counters={}), "counters"),
        (lambda d: d["scenes"]["crazy"]["counters"].update(bad="x"),
         "counters.bad"),
        (lambda d: d["scenes"]["crazy"]["counters"].pop("energy.total_j"),
         "energy"),
        (lambda d: d["scenes"]["crazy"].pop("energy"), "energy"),
        (lambda d: d["scenes"]["crazy"].pop("cases"), "cases"),
        (lambda d: d["scenes"]["crazy"]["cases"].pop("crossing"),
         "cases.crossing"),
        (lambda d: d["scenes"]["crazy"]["cases"].update(nested=-1),
         "cases.nested"),
        (lambda d: d["scenes"]["crazy"]["energy"].pop("edp_js"), "edp_js"),
        (lambda d: d["scenes"]["crazy"]["energy"]["gpu"].pop("fragment_j"),
         "fragment_j"),
        (lambda d: d["scenes"]["crazy"]["energy"]["rbcd"].update(
            insertion_j="lots"), "insertion_j"),
        (lambda d: d["config"].pop("tile_profile"), "config.tile_profile"),
        (lambda d: d["config"].update(tile_profile="on"),
         "config.tile_profile"),
        (lambda d: d["scenes"]["crazy"].pop("tile_profile"), "tile_profile"),
        (lambda d: d["scenes"]["crazy"]["tile_profile"].pop("enabled"),
         "tile_profile.enabled"),
    ])
    def test_rejects_each_mutation(self, mutate, needle):
        doc = valid_doc()
        mutate(doc)
        with pytest.raises(ValueError, match=needle):
            validate_bench_document(doc)

    def test_error_lists_all_problems(self):
        doc = valid_doc()
        doc["config"]["width"] = 0
        doc["scenes"]["crazy"]["frames"] = 0
        with pytest.raises(ValueError) as excinfo:
            validate_bench_document(doc)
        message = str(excinfo.value)
        assert "config.width" in message and "frames" in message


@pytest.fixture(scope="module")
def profiled_doc():
    """One real profiled document, so every identity has operands."""
    return run_bench(
        ["crazy"], width=64, height=32, frames=1, detail=1,
        tile_profile=True,
    )


class TestIdentities:
    """The validator checks the model's identities in every scene, so a
    document that breaks one is refused wherever it is validated."""

    def test_cross_checks_pass_on_real_document(self, profiled_doc):
        validate_bench_document(profiled_doc)

    def test_broken_counter_algebra_is_caught(self, profiled_doc):
        broken = copy.deepcopy(profiled_doc)
        # gpu_cycles no longer equals its counter, nor geometry +
        # raster_pipeline.
        broken["scenes"]["crazy"]["totals"]["gpu_cycles"] += 1.0
        with pytest.raises(ValueError) as excinfo:
            validate_bench_document(broken)
        message = str(excinfo.value)
        assert f"scenes.crazy: breaks {IDENTITIES[0][0]}" in message
        assert f"scenes.crazy: breaks {IDENTITIES[1][0]}" in message
        report = gate_against_baseline(profiled_doc, broken)
        assert not report.ok and report.checked == 0
        assert any(IDENTITIES[0][0] in e for e in report.errors)

    def test_broken_tile_profile_sum_is_caught(self, profiled_doc):
        broken = copy.deepcopy(profiled_doc)
        profile = broken["scenes"]["crazy"]["tile_profile"]
        profile["cycles"] = [v + 1.0 for v in profile["cycles"]]
        with pytest.raises(ValueError, match=r"sum\(tile_profile\.cycles\)"):
            validate_bench_document(broken)

    def test_unprofiled_scene_skips_the_grid_identities(self):
        doc = valid_doc()
        # Only the tile-grid identity reads the fragment counter.
        doc["scenes"]["crazy"]["counters"]["gpu.rbcd.rbcd_fragments_in"] += 1
        validate_bench_document(doc)
        doc["scenes"]["crazy"]["stages"]["rbcd"]["cycles"] += 1.0
        with pytest.raises(ValueError, match=r"breaks stages\[rbcd\]"):
            validate_bench_document(doc)

    @pytest.mark.parametrize("name", [
        "gpu.rbcd.rbcd_cycles", "gpu.rbcd.rbcd_fragments_in",
    ])
    def test_missing_rbcd_counter_is_reported(self, name):
        doc = valid_doc_profiled()
        doc["scenes"]["crazy"]["counters"].pop(name)
        with pytest.raises(ValueError) as excinfo:
            validate_bench_document(doc)
        message = str(excinfo.value)
        assert f"missing counter {name!r}" in message
        assert "breaks" not in message

    def test_malformed_operand_is_reported_once(self):
        doc = valid_doc()
        doc["scenes"]["crazy"]["counters"].pop("gpu.gpu_cycles")
        with pytest.raises(ValueError) as excinfo:
            validate_bench_document(doc)
        message = str(excinfo.value)
        assert "missing counter 'gpu.gpu_cycles'" in message
        assert "breaks" not in message


class TestCli:
    def test_check_mode_accepts_valid_file(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(valid_doc()))
        assert main(["--check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_mode_rejects_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "wrong"}))
        assert main(["--check", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_check_mode_rejects_missing_file(self, tmp_path):
        assert main(["--check", str(tmp_path / "absent.json")]) == 1

    def test_check_mode_rejects_v1_document(self, tmp_path):
        doc = valid_doc()
        doc["version"] = 1
        path = tmp_path / "bench_v1.json"
        path.write_text(json.dumps(doc))
        assert main(["--check", str(path)]) == 1

    @pytest.mark.parametrize("config_profiled", [True, False])
    def test_check_refuses_tile_profile_disagreeing_with_config(
        self, config_profiled, tmp_path, capsys
    ):
        # config says profiled but the scene is {"enabled": false}, and
        # the other way round: both break the document's own layout.
        doc = valid_doc() if config_profiled else valid_doc_profiled()
        doc["config"]["tile_profile"] = config_profiled
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        assert main(["--check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "scenes.crazy.tile_profile.enabled: " in err
        assert f"disagrees with config.tile_profile {config_profiled}" in err

    def test_gate_requires_baseline(self, capsys):
        with pytest.raises(SystemExit):
            main(["--gate"])
        assert "--baseline" in capsys.readouterr().err

    def test_end_to_end_writes_valid_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_rbcd.json"
        code = main([
            "--scenes", "crazy", "--width", "64", "--height", "32",
            "--frames", "1", "--detail", "1",
            "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        validate_bench_document(doc)
        assert main(["--check", str(out)]) == 0

    @pytest.mark.parametrize("flag", ["--width", "--height", "--frames",
                                      "--detail"])
    def test_quick_refuses_an_explicit_workload_flag(self, flag, capsys):
        # --quick used to override the flag silently.
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", flag, "8"])
        assert excinfo.value.code == 2
        assert f"{flag} cannot be combined with --quick" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv", [
        ["--runs", "3"], ["--profile"], ["--wall-tol", "20"],
        ["--metric-tol", "0"], ["--alpha", "0.05"],
    ])
    def test_wall_time_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--explain"], ["--explain-json", "ATTRIBUTION.json"],
    ])
    def test_explain_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tile_profile_flag_threads_through(self, tmp_path, capsys):
        out = tmp_path / "BENCH_tp.json"
        code = main([
            "--scenes", "crazy", "--width", "64", "--height", "32",
            "--frames", "1", "--detail", "1", "--tile-profile",
            "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["tile_profile"] is True
        assert doc["scenes"]["crazy"]["tile_profile"]["enabled"] is True

    def test_append_history_writes_ndjson_line(self, tmp_path):
        out = tmp_path / "BENCH_h.json"
        history = tmp_path / "hist" / "HISTORY.ndjson"
        argv = [
            "--scenes", "crazy", "--width", "64", "--height", "32",
            "--frames", "1", "--detail", "1",
            "--output", str(out), "--append-history", str(history),
        ]
        assert main(argv) == 0
        assert main(argv) == 0  # appends, never truncates
        lines = history.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["schema"] == "rbcd-bench"  # tags lines in the
        assert record["version"] == SCHEMA_VERSION  # shared trend file
        assert record["config"]["width"] == 64
        scene = record["scenes"]["crazy"]
        doc = json.loads(out.read_text())
        entry = doc["scenes"]["crazy"]
        assert scene["gpu_cycles"] == entry["totals"]["gpu_cycles"]
        assert scene["total_j"] == entry["energy"]["total_j"]
        assert scene["edp_js"] == entry["energy"]["edp_js"]
        assert set(scene) == {"gpu_cycles", "total_j", "edp_js"}
