"""Tracer unit tests: nesting, clocks, the null tracer's contract."""

import pytest

from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    ensure_tracer,
)


class FakeClock:
    """Deterministic clock: advances only when told to."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestSpanTree:
    def test_nesting_records_parent_and_depth(self, tracer):
        with tracer.span("frame") as frame:
            with tracer.span("geometry") as geometry:
                with tracer.span("geometry.shade") as shade:
                    pass
            with tracer.span("raster"):
                pass
        assert [s.name for s in tracer.spans] == [
            "frame", "geometry", "geometry.shade", "raster",
        ]
        assert frame.parent == -1 and frame.depth == 0
        assert geometry.parent == frame.index and geometry.depth == 1
        assert shade.parent == geometry.index and shade.depth == 2
        assert [s.name for s in tracer.spans if s.parent == frame.index] == [
            "geometry", "raster",
        ]

    def test_wall_time_from_clock(self, tracer, clock):
        with tracer.span("outer") as outer:
            clock.tick(2.0)
            with tracer.span("inner") as inner:
                clock.tick(3.0)
        assert inner.wall_s == pytest.approx(3.0)
        assert outer.wall_s == pytest.approx(5.0)
        assert outer.t_start == pytest.approx(0.0)
        assert inner.t_start == pytest.approx(2.0)

    def test_open_span_reads_zero_wall(self, tracer, clock):
        sp = tracer.start("open")
        clock.tick(4.0)
        assert not sp.closed
        assert sp.wall_s == 0.0
        tracer.end(sp)
        assert sp.closed and sp.wall_s == pytest.approx(4.0)

    def test_out_of_order_close_raises(self, tracer):
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(RuntimeError, match="out of order"):
            tracer.end(outer)

    def test_cycles_attribution(self, tracer):
        with tracer.span("stage") as span:
            span.cycles = 10.0
        assert span.cycles == 10.0
        span.cycles = 99.0             # post-close assignment is allowed
        assert [s.cycles for s in tracer.by_name("stage")] == [99.0]

    def test_annotate_and_start_attrs(self, tracer):
        with tracer.span("stage", tile=7) as span:
            span.annotate(fragments=100)
        assert span.attrs == {"tile": 7, "fragments": 100}

    def test_reset_requires_closed_stack(self, tracer, clock):
        tracer.start("open")
        with pytest.raises(RuntimeError, match="open spans"):
            tracer.reset()

    def test_reset_rezeros_epoch(self, tracer, clock):
        with tracer.span("a"):
            clock.tick(5.0)
        tracer.reset()
        assert tracer.spans == []
        with tracer.span("b") as b:
            pass
        assert b.t_start == pytest.approx(0.0)

    def test_queries(self, tracer):
        with tracer.span("frame"):
            with tracer.span("stage"):
                pass
            with tracer.span("stage"):
                pass
        assert len(tracer.by_name("stage")) == 2
        assert tracer.by_name("nothing") == []


class TestNullTracer:
    def test_ensure_tracer_defaults_to_null(self):
        assert ensure_tracer(None) is NULL_TRACER
        real = Tracer()
        assert ensure_tracer(real) is real
        assert isinstance(NULL_TRACER, NullTracer)

    def test_null_span_absorbs_all_mutation(self):
        with NULL_TRACER.span("anything", tile=3) as span:
            span.cycles = 123.0      # must not stick
            span.annotate(x=1)
        assert span.cycles == 0.0
        assert span.attrs == {}
        assert NULL_TRACER.spans == []

    def test_null_tracer_structural_compat(self):
        sp = NULL_TRACER.start("x")
        NULL_TRACER.end(sp)
        NULL_TRACER.reset()
        assert NULL_TRACER.by_name("x") == []

    def test_real_span_dataclass_defaults(self):
        sp = Span(name="s")
        assert not sp.closed
        assert sp.wall_s == 0.0
        assert sp.cycles == 0.0


class TestContext:
    """Request-scoped attribute stamping (the serving frontend's
    tenant/stream/frame_seq path) and its restoration guarantees."""

    def test_context_stamps_every_span(self, tracer):
        with tracer.context(tenant="t00", frame_seq=3):
            with tracer.span("frame"):
                with tracer.span("rbcd"):
                    pass
        assert all(
            s.attrs["tenant"] == "t00" and s.attrs["frame_seq"] == 3
            for s in tracer.spans
        )

    def test_explicit_span_attrs_win_over_context(self, tracer):
        with tracer.context(tile=0, tenant="t00"):
            with tracer.span("rbcd", tile=7) as sp:
                pass
        assert sp.attrs == {"tile": 7, "tenant": "t00"}

    def test_nested_contexts_layer_and_restore(self, tracer):
        with tracer.context(tenant="outer", stream="s0"):
            with tracer.context(tenant="inner", frame_seq=1):
                with tracer.span("a") as inner:
                    pass
            with tracer.span("b") as outer:
                pass
        with tracer.span("c") as bare:
            pass
        assert inner.attrs == {
            "tenant": "inner", "stream": "s0", "frame_seq": 1,
        }
        assert outer.attrs == {"tenant": "outer", "stream": "s0"}
        assert bare.attrs == {}

    def test_reentrant_context_same_keys(self, tracer):
        with tracer.context(tenant="a"):
            with tracer.context(tenant="b"):
                with tracer.context(tenant="a"):
                    with tracer.span("x") as sp:
                        pass
                with tracer.span("y") as mid:
                    pass
        assert sp.attrs == {"tenant": "a"}
        assert mid.attrs == {"tenant": "b"}

    def test_context_restores_on_exception(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.context(tenant="doomed"):
                raise ValueError("boom")
        with tracer.span("after") as sp:
            pass
        assert sp.attrs == {}

    def test_nested_context_restores_outer_on_exception(self, tracer):
        with tracer.context(tenant="outer"):
            with pytest.raises(RuntimeError, match="inner"):
                with tracer.context(tenant="inner", extra=1):
                    raise RuntimeError("inner boom")
            with tracer.span("recovered") as sp:
                pass
        assert sp.attrs == {"tenant": "outer"}

    def test_context_does_not_mutate_open_spans(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.context(tenant="late"):
                with tracer.span("inner") as inner:
                    pass
        assert outer.attrs == {}
        assert inner.attrs == {"tenant": "late"}

    def test_null_tracer_context_is_inert(self):
        with NULL_TRACER.context(tenant="ignored"):
            with NULL_TRACER.span("x") as sp:
                pass
        assert sp.attrs == {}
        assert NULL_TRACER.spans == []

    def test_null_tracer_context_survives_exception(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.context(tenant="ignored"):
                raise KeyError("k")
        # still usable, still records nothing
        with NULL_TRACER.span("y"):
            pass
        assert NULL_TRACER.spans == []


class TestListeners:
    def test_listener_sees_spans_in_close_order(self, tracer):
        closed = []
        tracer.add_listener(lambda sp: closed.append(sp.name))
        with tracer.span("frame"):
            with tracer.span("geometry"):
                pass
            with tracer.span("raster"):
                pass
        assert closed == ["geometry", "raster", "frame"]

    def test_listener_sees_closed_span_with_attrs(self, tracer, clock):
        seen = []
        tracer.add_listener(seen.append)
        with tracer.context(tenant="t"):
            with tracer.span("frame"):
                clock.tick(2.0)
        (sp,) = seen
        assert sp.closed and sp.wall_s == pytest.approx(2.0)
        assert sp.attrs == {"tenant": "t"}

    def test_keep_spans_false_clears_per_root(self, clock):
        tracer = Tracer(clock=clock, keep_spans=False)
        seen = []
        tracer.add_listener(lambda sp: seen.append(sp.name))
        with tracer.span("frame"):
            with tracer.span("rbcd"):
                pass
        assert tracer.spans == []          # cleared once the root closed
        with tracer.span("frame") as again:
            pass
        assert again.index == 0            # indices restart per root
        assert tracer.spans == []
        assert seen == ["rbcd", "frame", "frame"]

    def test_null_tracer_add_listener_is_noop(self):
        NULL_TRACER.add_listener(lambda sp: 1 / 0)
        with NULL_TRACER.span("x"):
            pass
