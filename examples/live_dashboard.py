"""Live telemetry in one page: monitor a frame stream, scrape yourself.

Attaches a LiveMonitor to an RBCD system as one of its `observers=`,
streams a handful of `cap` frames while a background MetricsServer
serves /metrics, /healthz and /snapshot.json, then fetches all three
endpoints over real HTTP and prints a tiny text dashboard.  A second pass with a deliberately tight
energy budget shows a watchdog tripping and /healthz going 503.

Run:  python examples/live_dashboard.py
"""

import json
from urllib.error import HTTPError
from urllib.request import urlopen

from repro.core import RBCDSystem
from repro.gpu.config import GPUConfig
from repro.observability import (
    LiveMonitor,
    MetricsServer,
    default_rules,
    validate_openmetrics,
)
from repro.scenes.benchmarks import make_cap

CFG = GPUConfig().with_screen(160, 96)
FRAMES = 5


def stream(monitor: LiveMonitor) -> None:
    workload = make_cap(detail=1)
    with RBCDSystem(config=CFG, observers=[monitor]) as system:
        for t in workload.times(FRAMES):
            system.detect_frame(workload.scene.frame_at(float(t), CFG))


def fetch(url: str) -> tuple[int, str]:
    try:
        with urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except HTTPError as err:  # /healthz answers 503 while failing
        return err.code, err.read().decode("utf-8")


def main() -> None:
    monitor = LiveMonitor(window=32)
    with MetricsServer(monitor) as server:
        stream(monitor)

        status, text = fetch(server.url + "/metrics")
        samples = validate_openmetrics(text)
        print(f"GET /metrics -> {status}: {samples} valid samples")

        status, body = fetch(server.url + "/healthz")
        print(f"GET /healthz -> {status}: {json.loads(body)['status']}")

        snapshot = json.loads(fetch(server.url + "/snapshot.json")[1])
        window = snapshot["window"]
        print(f"\n-- dashboard after {snapshot['frames']} frames --")
        print(f"RBCD activity  {window['window.rbcd.activity_ratio']:8.4%}"
              "   (paper envelope: < 1%)")
        print(f"ZEB overflow   {window['window.zeb.overflow_rate']:8.4%}")
        print(f"joules/frame   {window['window.energy.joules_per_frame']:.6f}")
        print(f"sim p95        {window['quantile.frame.sim_ms.p95']:.3f} ms")
        print(f"pairs/frame    {window['window.pairs.per_frame']:.1f}")

    # Same stream under an absurdly tight energy budget: the watchdog
    # trips on frame 0 and the health endpoint flips to 503.
    strict = LiveMonitor(
        window=32, rules=default_rules(max_joules_per_frame=1e-9)
    )
    with MetricsServer(strict) as server:
        stream(strict)
        status, body = fetch(server.url + "/healthz")
        print(f"\n-- tight budget -- GET /healthz -> {status}: "
              f"{json.loads(body)['status']}")
        for alert in strict.alerts:
            print(f"  {alert.message}")


if __name__ == "__main__":
    main()
