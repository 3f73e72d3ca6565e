"""The equilibrium service with the benchmark's span hooks installed.

Same server as ``repro-dispersal serve`` with its CLI defaults (inline
executor, cache 4096, max_batch 64, max_wait 2 ms, max_pending 1024).  On
SIGINT or SIGTERM it closes the server and writes every recorded span to the
``--spans`` file as JSON.

    PYTHONPATH=src python -u perfbench/traced_server.py --spans spans.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal

import tracing


async def serve(spans_path: str) -> None:
    from repro.serving.http import start_server

    recorder = tracing.Recorder()
    tracing.install_serving_hooks(recorder)
    running = await start_server("127.0.0.1", 0)
    print(f"repro-dispersal serving on 127.0.0.1:{running.port} (traced)", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        await running.close()
        with open(spans_path, "w") as handle:
            json.dump({"spans": recorder.spans, "counts": dict(recorder.counts)}, handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="Where to write the spans on shutdown.")
    asyncio.run(serve(parser.parse_args().spans))


if __name__ == "__main__":
    main()
