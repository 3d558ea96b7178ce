"""Golden OpenMetrics exposition: byte-exact snapshot of the cap scene.

Renders three fixed frames of the ``cap`` workload at a small
resolution, feeds them to a :class:`LiveMonitor` with *scripted* wall
times (host clocks would break byte-exactness), and compares the full
``/metrics`` exposition against a committed fixture.  Any drift in the
counter set, the metric naming scheme, the window/quantile math, or
the renderer's formatting shows up here as a precise text diff.

Regenerate the fixture (after an *intentional* change) with:

    PYTHONPATH=src python tests/integration/test_golden_openmetrics.py
"""

import difflib
from pathlib import Path

from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.observability.live import LiveMonitor
from repro.observability.openmetrics import parse_openmetrics, validate_openmetrics
from repro.scenes.benchmarks import workload_by_alias

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "fixtures" / "golden_openmetrics_cap.txt"
)
SCENE = "cap"
WIDTH, HEIGHT = 160, 96
DETAIL = 1
FRAMES = 3
# Scripted host latencies, one per frame: deterministic stand-ins for
# time.perf_counter() so the wall-time series is reproducible.
WALL_S = (0.004, 0.002, 0.008)


def render_exposition() -> str:
    config = GPUConfig().with_screen(WIDTH, HEIGHT)
    workload = workload_by_alias(SCENE, detail=DETAIL)
    monitor = LiveMonitor(window=8)
    gpu = GPU(config, rbcd_enabled=True)
    for t, wall_s in zip(workload.times(FRAMES), WALL_S):
        result = gpu.render_frame(workload.scene.frame_at(float(t), config))
        monitor.observe(result, wall_s=wall_s)
    return monitor.to_openmetrics()


def test_golden_openmetrics_exposition():
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; regenerate with "
        f"PYTHONPATH=src python {__file__}"
    )
    expected = FIXTURE.read_text()
    actual = render_exposition()
    if actual != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), actual.splitlines(),
            fromfile="fixture", tofile="actual", lineterm="",
        ))
        raise AssertionError(f"OpenMetrics exposition drifted:\n{diff}")


def test_fixture_is_valid_openmetrics():
    """The committed fixture itself passes the strict validator."""
    text = FIXTURE.read_text()
    assert validate_openmetrics(text) > 0
    families = parse_openmetrics(text)
    assert families["repro_frames_observed"]["samples"][0][2] == float(FRAMES)
    # The paper's envelope holds on the quick cap scene: healthy stream.
    assert families["repro_health"]["samples"][0][2] == 1.0
    assert families["repro_watchdog_alerts"]["samples"][0][2] == 0.0


def test_fixture_round_trips_through_parser():
    """Render -> parse -> values agree with the monitor's own view."""
    families = parse_openmetrics(render_exposition())
    window = {
        labels["metric"]: value
        for _, labels, value in families["repro_window"]["samples"]
    }
    assert window["window.frames"] == float(FRAMES)
    assert 0.0 < window["window.rbcd.activity_ratio"] < 0.01
    summary = families["repro_frame_wall_seconds"]["samples"]
    by_suffix = {name: value for name, _, value in summary}
    assert by_suffix["repro_frame_wall_seconds_count"] == float(FRAMES)
    assert by_suffix["repro_frame_wall_seconds_sum"] == sum(WALL_S)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(render_exposition())
    print(f"wrote {FIXTURE}")
