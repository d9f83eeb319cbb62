"""Spans for the traced run, recorded around the calls into each layer.

A :class:`Tracer` keeps spans in memory in every process that records
them, forked pool workers included, and writes each process's spans to
``<out_dir>/spans-<pid>.jsonl`` when that process ends (or on an explicit
:meth:`Tracer.flush`).  A span is ``(id, name, start, end, parent, uid,
attrs)``: ``parent`` is the enclosing span on the same thread, ``uid`` is
the work unit or wedge the span belongs to, shared along its path.

:func:`install` wraps the public entry points of the program's layers
(compressor, adaptive tier, batcher, router, archive splitting).  The
wrappers live here, not in the program; they record only while the shared
on/off flag is set, so one traced run can time an untraced phase and a
traced phase on the same set-up.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import multiprocessing
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path

clock = time.perf_counter


class Tracer:
    """Process-local span buffers behind one flag shared across forks."""

    def __init__(self, out_dir: Path | None) -> None:
        self.out_dir = out_dir
        # A raw shared byte: forked workers see the parent's toggles.
        self._flag = multiprocessing.RawValue("b", 0)
        self._pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self._spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Per-process scratch the layer wrappers share (seen shapes,
        #: compressors whose plans are summarized at flush, batch uids).
        self.state: dict = {"shapes": set(), "compressors": {}, "uids": {},
                            "batches": itertools.count()}
        self.flush_hooks: list = []

    def _own_process(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: start its own buffer and
            # write it out when the worker exits normally.
            self._pid = pid
            hooks = self.flush_hooks
            self._reset()
            self.flush_hooks = hooks
            mp_util.Finalize(None, self.flush, exitpriority=10)

    def process_state(self) -> dict:
        """This process's wrapper scratch (fresh in each forked worker)."""

        self._own_process()
        return self.state

    @property
    def on(self) -> bool:
        return bool(self._flag.value)

    def enable(self, on: bool = True) -> None:
        self._flag.value = 1 if on else 0

    def record(self, name: str, start: float, end: float, uid=None,
               parent: str | None = None, **attrs) -> str:
        self._own_process()
        span_id = f"{self._pid}:{next(self._ids)}"
        self._spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "uid": uid, "pid": self._pid, **attrs,
        })
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, uid=None, **attrs):
        """Time the body; nested spans on this thread get it as parent."""

        self._own_process()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = f"{self._pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = clock()
        try:
            yield attrs
        finally:
            end = clock()
            stack.pop()
            self._spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "uid": uid, "pid": self._pid, **attrs,
            })

    def flush(self) -> None:
        """Write this process's spans (and flush-hook records) to disk."""

        if self.out_dir is None:
            return
        for hook in self.flush_hooks:
            for name, attrs in hook(self):
                now = clock()
                self.record(name, now, now, **attrs)
        if not self._spans:
            return
        path = Path(self.out_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self._spans:
                fh.write(json.dumps(span) + "\n")
        self._spans = []


def load_spans(out_dir: Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------


def _wrap(cls, attr: str, make):
    original = getattr(cls, attr)
    setattr(cls, attr, functools.wraps(original)(make(original)))


def _plan_records(tracer: Tracer):
    """Flush hook: compiled-plan facts of every compressor this process
    ran (read once at exit, so no cost inside the timed window)."""

    for compressor in tracer.state["compressors"].values():
        plans = []
        workspace = 0
        encoder = getattr(compressor, "_fast", None)
        if encoder is not None:
            plans.append(encoder.plan)
            workspace += int(encoder.workspace_bytes)
        decoder = getattr(compressor, "_fast_dec", None)
        if decoder is not None:
            plans.extend(decoder.plans.values())
            workspace += int(decoder.workspace_bytes)
        blocked_pad = 0
        for plan in plans:
            stats = plan.plan_stats()
            blocked_pad += sum(1 for g in stats["gemms"].values()
                               if g.get("formulation") == "blocked_pad")
        yield "core.plan", {"workspace_bytes": workspace,
                            "blocked_pad_sites": blocked_pad}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points with span recording."""

    from repro.baselines.sparse import SparseIndexCodec
    from repro.core.compressor import BCAECompressor
    from repro.rate.policy import OccupancyPolicy
    from repro.rate.tier import AdaptiveCompressor
    from repro.serve import service as service_module
    from repro.serve.batcher import AsyncMicroBatcher
    from repro.serve.gateway import StreamRouter

    tracer.flush_hooks.append(_plan_records)

    def core(name, count):
        def make(original):
            def wrapper(self, data, *args, **kwargs):
                n, shape = count(data)
                state = tracer.process_state()
                first = (name, shape) not in state["shapes"]
                state["shapes"].add((name, shape))
                if not tracer.on:
                    return original(self, data, *args, **kwargs)
                state["compressors"][id(self)] = self
                with tracer.span(name, n=n, first=first):
                    return original(self, data, *args, **kwargs)
            return wrapper
        return make

    def wedge_count(wedges):
        shape = tuple(wedges.shape)
        return (1 if len(shape) == 3 else shape[0]), shape

    def code_count(compressed):
        return compressed.n_wedges, (compressed.n_wedges,
                                     tuple(compressed.code_shape))

    _wrap(BCAECompressor, "compress_into",
          core("core.compress_into", wedge_count))
    _wrap(BCAECompressor, "decompress_into",
          core("core.decompress_into", code_count))

    def traced(name):
        def make(original):
            def wrapper(self, *args, **kwargs):
                if not tracer.on:
                    return original(self, *args, **kwargs)
                with tracer.span(name):
                    return original(self, *args, **kwargs)
            return wrapper
        return make

    _wrap(AdaptiveCompressor, "compress_into", traced("rate.compress_into"))
    _wrap(OccupancyPolicy, "select", traced("rate.select"))
    _wrap(SparseIndexCodec, "compress", traced("rate.sparse_compress"))

    def batches(original):
        async def wrapper(self, source, stop=None):
            inner = original(self, source, stop=stop)
            try:
                async for batch in inner:
                    if tracer.on:
                        end = clock()
                        uid = f"b{next(tracer.state['batches'])}"
                        tracer.state["uids"][id(batch)] = uid
                        tracer.record("serve.batcher.batch",
                                      end - batch.wait_s, end, uid=uid,
                                      n=batch.n_wedges,
                                      closed_by=batch.closed_by)
                    yield batch
            finally:
                await inner.aclose()
        return wrapper

    _wrap(AsyncMicroBatcher, "batches", batches)

    def submit(original):
        async def wrapper(self, item, session: int = -1):
            if not tracer.on:
                return await original(self, item, session=session)
            uid = tracer.state["uids"].pop(id(item), None)
            start = clock()
            future = await original(self, item, session=session)
            routed = clock()
            tracer.record("serve.gateway.route", start, routed, uid=uid,
                          session=session)

            def resolved(fut) -> None:
                end = clock()
                if fut.cancelled() or fut.exception() is not None:
                    tracer.record("serve.gateway.unit", routed, end,
                                  uid=uid, failed=True)
                    return
                record, _result = fut.result()
                tracer.record("serve.gateway.unit", routed, end, uid=uid,
                              n=record.n_wedges, compute_s=record.compress_s,
                              worker=record.worker,
                              transport=record.transport)

            future.add_done_callback(resolved)
            return future
        return wrapper

    _wrap(StreamRouter, "submit", submit)

    # The decompression service re-chunks archives through the name it
    # imported from repro.io.codes; wrap that binding.
    split = service_module.split_compressed

    @functools.wraps(split)
    def split_compressed(compressed, batch_size):
        chunks = split(compressed, batch_size)
        while True:
            start = clock()
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            finally:
                if tracer.on:
                    tracer.record("io.codes.split", start, clock())
            yield chunk

    service_module.split_compressed = split_compressed
