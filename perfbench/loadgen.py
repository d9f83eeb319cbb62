"""Load generator: one process, up to two producer connections.

Run as a separate process by the ingest workloads::

    python3 perfbench/loadgen.py <config.json>

The config names the gateway port, the stacked input wedges (``.npy``),
the order in which to send them and the loop:

* ``closed`` — each connection keeps ``window`` wedges outstanding and
  sends the next one only when a response arrives, until ``seconds`` have
  passed and its send count is a whole number of ``group`` wedges (so the
  gateway's batches still close full); then it waits for the outstanding
  responses.
* ``open`` — the send schedule is fixed in advance (wedge ``k`` is due at
  ``t0 + k / rate``, alternating connections) and never slows when the
  gateway does; a late send goes out as soon as it can, and its lateness
  is recorded.

Responses are matched to sends in order per connection.  Timings, the
backlog after each send and every response frame go to ``<out>.npz``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import sys
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


async def generate(cfg: dict, tracer) -> dict:
    import numpy as np

    from repro.serve.source import read_wedge_frame, write_wedge_frame

    wedges = np.load(cfg["inputs"], mmap_mode="r")
    order = [int(i) for i in cfg["order"]]
    n_conn = int(cfg["connections"])
    closed = cfg["mode"] == "closed"
    seconds = float(cfg["seconds"])
    rate = float(cfg.get("rate", 0.0))
    n_sends = len(order)

    conns = [await asyncio.open_connection(cfg["host"], cfg["port"])
             for _ in range(n_conn)]
    sent: dict[int, tuple] = {}
    recv: dict[int, tuple] = {}
    backlog: list[tuple[float, int]] = []
    counter = itertools.count()
    t0 = time.perf_counter() + 0.05
    t_end = t0 + seconds

    async def send(writer, k: int, due: float) -> None:
        wedge = np.asarray(wedges[order[k % n_sends]])
        start = time.perf_counter()
        write_wedge_frame(writer, wedge)
        await writer.drain()
        end = time.perf_counter()
        if tracer is not None:
            tracer.record("serve.source.write", start, end, uid=f"w{k}",
                          bytes=wedge.nbytes)
        sent[k] = (order[k % n_sends], due, start)
        backlog.append((start, len(sent) - len(recv)))

    async def receive(reader, k: int) -> bool:
        start = time.perf_counter()
        frame = await read_wedge_frame(reader, max_frame_bytes=None)
        end = time.perf_counter()
        if frame is None:
            return False
        if tracer is not None:
            tracer.record("serve.source.read", start, end, uid=f"w{k}",
                          bytes=frame.nbytes)
        recv[k] = (end, frame)
        return True

    async def finish(reader, writer) -> None:
        if writer.can_write_eof():
            writer.write_eof()
        while await read_wedge_frame(reader, max_frame_bytes=None) is not None:
            pass
        writer.close()
        await writer.wait_closed()

    async def closed_loop(reader, writer) -> None:
        outstanding: deque[int] = deque()
        group = int(cfg["group"])
        n_sent = 0
        for _ in range(int(cfg["window"])):
            k = next(counter)
            await send(writer, k, time.perf_counter())
            outstanding.append(k)
            n_sent += 1
        while outstanding:
            k = outstanding.popleft()
            if not await receive(reader, k):
                break
            if time.perf_counter() < t_end or n_sent % group:
                nxt = next(counter)
                await send(writer, nxt, time.perf_counter())
                outstanding.append(nxt)
                n_sent += 1
        await finish(reader, writer)

    async def open_loop(reader, writer, c: int) -> None:
        mine = list(range(c, n_sends, n_conn))

        async def sender() -> None:
            for k in mine:
                due = t0 + k / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                await send(writer, k, due)

        async def receiver() -> None:
            for k in mine:
                if not await receive(reader, k):
                    return

        await asyncio.gather(sender(), receiver())
        await finish(reader, writer)

    delay = t0 - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)
    if closed:
        await asyncio.gather(*(closed_loop(r, w) for r, w in conns))
    else:
        await asyncio.gather(*(open_loop(r, w, c)
                               for c, (r, w) in enumerate(conns)))

    keys = sorted(sent)
    frames = [recv[k][1] if k in recv else np.zeros(0, np.uint8)
              for k in keys]
    blob = np.concatenate([np.frombuffer(f.tobytes(), np.uint8)
                           for f in frames]) if frames else np.zeros(0, np.uint8)
    offsets = np.cumsum([0] + [f.nbytes for f in frames])
    return {
        "arrays": {
            "k": np.array(keys, dtype=np.int64),
            "idx": np.array([sent[k][0] for k in keys], dtype=np.int64),
            "due": np.array([sent[k][1] for k in keys]),
            "sent": np.array([sent[k][2] for k in keys]),
            "recv": np.array([recv[k][0] if k in recv else np.nan
                              for k in keys]),
            "backlog_t": np.array([b[0] for b in backlog]),
            "backlog_n": np.array([b[1] for b in backlog], dtype=np.int64),
            "frame_offsets": offsets.astype(np.int64),
            "frame_blob": blob,
        },
        "meta": {
            "t0": t0,
            "t_end": t_end,
            "frame_dtypes": [f.dtype.str for f in frames],
            "frame_shapes": [list(f.shape) for f in frames],
        },
    }


def main(argv: list[str]) -> int:
    cfg = json.loads(Path(argv[1]).read_text())
    sys.path.insert(1, str(ROOT / "src"))
    import numpy as np

    from perfbench.spans import Tracer

    tracer = None
    if cfg.get("trace_dir"):
        tracer = Tracer(Path(cfg["trace_dir"]))
        tracer.enable()
    result = asyncio.run(generate(cfg, tracer))
    out = Path(cfg["out"])
    np.savez(out.with_suffix(".npz"), **result["arrays"])
    out.with_suffix(".json").write_text(json.dumps(result["meta"]))
    if tracer is not None:
        tracer.flush()
    return 0


if __name__ == "__main__":
    # The repository root replaces this script's directory on the path.
    sys.path[0] = str(ROOT)
    from perfbench.host import pin_threads

    pin_threads(os.environ)  # before the first numpy import
    sys.exit(main(sys.argv))
