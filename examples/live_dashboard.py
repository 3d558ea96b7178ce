"""Live telemetry in one page: monitor a frame stream, read it in process.

Attaches a LiveMonitor to an RBCD system as one of its `observers=`,
streams a handful of `cap` frames, then reads the monitor's health,
alerts and window aggregates straight off the object and prints a tiny
text dashboard.  A second pass with a deliberately tight energy budget
shows a watchdog tripping and the stream turning unhealthy.

Run:  python examples/live_dashboard.py
"""

from repro.core import RBCDSystem
from repro.gpu.config import GPUConfig
from repro.observability import LiveMonitor, default_rules
from repro.scenes.benchmarks import make_cap

CFG = GPUConfig().with_screen(160, 96)
FRAMES = 5


def stream(monitor: LiveMonitor) -> None:
    workload = make_cap(detail=1)
    with RBCDSystem(config=CFG, observers=[monitor]) as system:
        for t in workload.times(FRAMES):
            system.detect_frame(workload.scene.frame_at(float(t), CFG))


def report(title: str, monitor: LiveMonitor) -> None:
    print(f"-- {title}: {monitor.frames} frames, "
          f"healthy={monitor.healthy}, {len(monitor.alerts)} alert(s) --")
    for alert in monitor.alerts:
        print(f"  {alert.message}")


def main() -> None:
    monitor = LiveMonitor(window=32)
    stream(monitor)
    report("default envelope", monitor)

    window = monitor.window_values()
    print(f"RBCD activity  {window['window.rbcd.activity_ratio']:8.4%}"
          "   (paper envelope: < 1%)")
    print(f"ZEB overflow   {window['window.zeb.overflow_rate']:8.4%}")
    print(f"joules/frame   {window['window.energy.joules_per_frame']:.6f}")
    print(f"sim p95        {window['quantile.frame.sim_ms.p95']:.3f} ms")
    print(f"pairs/frame    {window['window.pairs.per_frame']:.1f}")

    # Same stream under an absurdly tight energy budget: the watchdog
    # trips on frame 0 and the monitor reports the stream unhealthy.
    strict = LiveMonitor(
        window=32, rules=default_rules(max_joules_per_frame=1e-9)
    )
    stream(strict)
    print()
    report("tight budget", strict)
    if strict.healthy or not strict.alerts:
        raise SystemExit("the tight energy budget should have tripped")


if __name__ == "__main__":
    main()
