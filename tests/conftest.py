"""Shared fixtures: tiny trained/untrained models and graphs, and the trace oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.models import build_resnet, build_vgg_like, randomize_batchnorm
from repro.nn import export_model


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def inject_maxpool_fault(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make max pooling raise a plain ``RuntimeError``: a fault, not a budget abort.

    The fault hits every route a run can take through a max-pool kernel: its
    ``tick`` (engine runs), its ``op_program`` (schedule solves) and its
    ``batch_compute`` (batched outputs).
    """
    from repro.kernels.pooling import MaxPoolKernel

    def fault(self, *args):
        raise RuntimeError("injected max-pool fault")

    for method in ("tick", "op_program", "batch_compute"):
        monkeypatch.setattr(MaxPoolKernel, method, fault)


def record_trace(engine, done, max_cycles, tracer) -> int:
    """``engine.run(done, max_cycles)`` with its event log recorded into ``tracer``: the trace oracle.

    The reference loop has no hooks.  The ``done`` callback it calls once per
    cycle, before that cycle's ticks, reads what the last cycle changed: the
    kernel counter that moved names each kernel's cycle class, the stream
    counters its push, pop (in tick order, with the FIFO depth after each)
    and reject, and the host lists its image completions.  An aborted run is
    read once more at its budget and left unsealed.
    """
    from repro.dataflow.engine import CycleBudgetExceeded
    from repro.dataflow.trace import ImageCompletion, KernelSpan, RejectSpan, StreamEvent
    from repro.kernels import HostSink, HostSource

    tracer.attach(engine)
    kernels, streams = engine.kernels, engine.streams
    position = {id(kernel): i for i, kernel in enumerate(kernels)}
    source = next((k for k in kernels if isinstance(k, HostSource)), None)
    sink = next((k for k in kernels if isinstance(k, HostSink)), None)

    def counters():
        return (
            [(k.stats.active_cycles, k.stats.input_starved_cycles, k.stats.output_blocked_cycles,
              k.stats.idle_cycles) for k in kernels],
            [(s.stats.pushes, s.stats.pops, s.stats.full_rejections, len(s._fifo)) for s in streams],
        )

    last = counters()

    def read(cycle):  # what ticking ``cycle`` changed
        nonlocal last
        now = counters()
        for kernel, moved, was in zip(kernels, now[0], last[0]):
            (kind,) = [k for k, a, b in zip(("compute", "starved", "blocked", "idle"), moved, was) if a != b]
            spans = tracer.kernel_spans[kernel.name]
            if spans and spans[-1].kind == kind:
                spans[-1].end = cycle
            else:
                spans.append(KernelSpan(kernel.name, kind, cycle, cycle))
        for stream, (pushes, pops, rejects, _), (pushed, popped, rejected, depth) in zip(
            streams, now[1], last[1]
        ):
            events = [("push", pushes - pushed, cycle + 1 + stream.latency), ("pop", pops - popped, -1)]
            if position.get(id(stream.reader), -1) < position.get(id(stream.writer), -1):
                events.reverse()  # the reader ticks first
            for kind, count, ready in events:
                assert count in (0, 1), (stream.name, kind, count)
                if count:
                    depth += 1 if kind == "push" else -1
                    event = StreamEvent(stream.name, kind, cycle, depth, ready)
                    tracer.stream_events[stream.name].append(event)
            if rejects != rejected:
                spans = tracer.reject_spans[stream.name]
                if spans and spans[-1].end == cycle - 1:
                    spans[-1].end = cycle
                else:
                    spans.append(RejectSpan(stream.name, cycle, cycle))
        admissions = source.admission_cycles if source is not None else []
        for index in range(len(tracer.completions), len(sink.completion_cycles) if sink else 0):
            admission = admissions[index] if index < len(admissions) else -1
            tracer.completions.append(ImageCompletion(index, sink.completion_cycles[index], admission))
        last = now

    calls = itertools.count()

    def observed():
        ticked = next(calls)
        if ticked:
            read(ticked - 1)
        return done()

    try:
        cycles = engine.run(observed, max_cycles)
    except CycleBudgetExceeded:
        read(max_cycles - 1)
        raise
    tracer.finish(cycles)
    return cycles


def make_tiny_chain_model(seed: int = 7):
    """A small conv+pool+fc chain with diverse BatchNorm statistics."""
    model = build_vgg_like(input_size=16, width=0.0625, classes=4, seed=seed)
    randomize_batchnorm(model, np.random.default_rng(seed + 1))
    model.eval()
    return model


def make_tiny_resnet_model(seed: int = 9):
    """A small residual network with one plain and one downsampling block."""
    model = build_resnet(
        input_size=16,
        width=0.0625,
        classes=4,
        stages=[(64, 1, 1), (128, 1, 2)],
        stem_kernel=3,
        stem_stride=1,
        stem_pool=False,
        seed=seed,
    )
    randomize_batchnorm(model, np.random.default_rng(seed + 1))
    model.eval()
    return model


@pytest.fixture(scope="session")
def tiny_chain_model():
    return make_tiny_chain_model()


@pytest.fixture(scope="session")
def tiny_chain_graph(tiny_chain_model):
    return export_model(tiny_chain_model, (16, 16, 3), name="tiny-chain")


@pytest.fixture(scope="session")
def tiny_resnet_model():
    return make_tiny_resnet_model()


@pytest.fixture(scope="session")
def tiny_resnet_graph(tiny_resnet_model):
    return export_model(tiny_resnet_model, (16, 16, 3), name="tiny-resnet")


@pytest.fixture()
def images16(rng):
    return rng.uniform(0.0, 1.0, size=(2, 16, 16, 3))
