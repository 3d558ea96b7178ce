"""Public-API audit: ``__all__`` contracts of repro and repro.observability.

Guards the import surface the docs advertise: every name in ``__all__``
resolves, key telemetry names are importable from the package top
level, and the submodule ``__all__`` lists stay in sync with what the
package re-exports.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.observability as obs

SUBMODULES = (
    "repro.observability.counters",
    "repro.observability.tracer",
    "repro.observability.window",
    "repro.observability.log",
    "repro.observability.live",
    "repro.observability.flightrecorder",
)

SERVE_SUBMODULES = (
    "repro.serve.service",
)


class TestObservabilityExports:
    def test_all_names_resolve(self):
        missing = [name for name in obs.__all__ if not hasattr(obs, name)]
        assert missing == [], f"__all__ names missing attributes: {missing}"

    def test_no_duplicate_all_entries(self):
        assert len(obs.__all__) == len(set(obs.__all__))

    def test_tracer_names_importable_from_top_level(self):
        from repro.observability import NULL_TRACER, NullTracer, Tracer

        assert isinstance(NULL_TRACER, NullTracer)
        assert Tracer is not NullTracer

    def test_live_telemetry_names_importable_from_top_level(self):
        from repro.observability import (
            Alert,
            Ewma,
            JsonFormatter,
            LiveMonitor,
            MetricSnapshot,
            QuantileSketch,
            SlidingWindow,
            WatchdogRule,
            configure_json_logging,
            default_rules,
            get_logger,
            log_event,
        )

        for name in (
            Alert, Ewma, JsonFormatter, LiveMonitor, MetricSnapshot,
            QuantileSketch, SlidingWindow, WatchdogRule,
            configure_json_logging, default_rules, get_logger, log_event,
        ):
            assert name is not None

    @pytest.mark.parametrize("module_name", SUBMODULES)
    def test_submodule_all_is_reexported_by_package(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} missing __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"
            # Everything a telemetry submodule declares public is
            # reachable from the package, except deliberately
            # module-scoped constants.
            if module_name in (
                "repro.observability.window",
                "repro.observability.log",
                "repro.observability.flightrecorder",
            ):
                assert hasattr(obs, name), (
                    f"{module_name}.{name} not re-exported"
                )

    def test_flightrecorder_names_importable_from_top_level(self):
        from repro.observability import (
            FlightRecorder,
            RingBuffer,
            atomic_write_text,
            config_fingerprint,
            deterministic_events,
            validate_postmortem_document,
            verify_alert_record,
            window_values_from_snapshots,
        )

        for name in (
            FlightRecorder, RingBuffer, atomic_write_text, config_fingerprint,
            deterministic_events, validate_postmortem_document,
            verify_alert_record, window_values_from_snapshots,
        ):
            assert name is not None

    def test_forensics_stays_module_scoped(self):
        # repro.observability.forensics sits above the GPU pipeline; the
        # package __init__ must not import it (cycle), so its names are
        # intentionally absent from the package namespace.
        assert not hasattr(obs, "DivergenceReport")


class TestServeExports:
    def test_all_names_resolve(self):
        import repro.serve as serve

        missing = [
            name for name in serve.__all__ if not hasattr(serve, name)
        ]
        assert missing == [], f"__all__ names missing attributes: {missing}"
        assert len(serve.__all__) == len(set(serve.__all__))

    def test_service_names_importable_from_package(self):
        from repro.serve import (
            AdmissionError,
            CollisionService,
            ServedFrame,
            TenantSession,
        )

        for name in (
            AdmissionError, CollisionService, ServedFrame, TenantSession,
        ):
            assert name is not None

    @pytest.mark.parametrize("module_name", SERVE_SUBMODULES)
    def test_submodule_all_is_reexported_by_package(self, module_name):
        import repro.serve as serve

        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} missing __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"
            assert hasattr(serve, name), (
                f"{module_name}.{name} not re-exported by repro.serve"
            )


class TestTopLevelExports:
    def test_all_names_resolve(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == []

    def test_observability_importable_as_attribute(self):
        from repro import observability

        assert observability is obs
        assert "observability" in repro.__all__

    def test_core_and_serve_import_no_http_server(self):
        # Telemetry is read in process; no import pulls in a web server.
        code = (
            "import sys, repro.core, repro.serve, repro.observability; "
            "assert 'http.server' not in sys.modules"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", code], check=True,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_core_api_still_present(self):
        assert repro.RBCDSystem is not None
        assert repro.detect_collisions is not None
        assert isinstance(repro.__version__, str)
