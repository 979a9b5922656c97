"""Load generator of ``daemon-jobs``: closed-loop HTTP clients.

Runs as a child process of ``run.py``, so the clients share neither the
interpreter lock nor the CPU accounting of the daemon they measure, as
real clients would not.  It reads one JSON request per stdin line::

    {"url": ..., "phase": "cold", "clients": 2, "instances": [[name, model, property], ...]}

splits the instances round-robin over ``clients`` threads, each of which
submits its instances one at a time and waits for every answer, and
writes one JSON line back: the final job record of every instance, plus
its ``latency`` in seconds (POST to terminal state, as the client sees
it).  A ``{"ready": true}`` line announces that imports are done; end
of input ends the process.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path


def run_phase(request: dict) -> dict:
    from repro.service.client import ServiceClient

    answers: dict[str, dict] = {}
    failures: list[str] = []
    lock = threading.Lock()

    def client(share: list) -> None:
        api = ServiceClient(request["url"])
        try:
            for name, model, prop in share:
                start = time.perf_counter()
                job = api.submit(
                    {"model": model, "property": prop,
                     "label": f"{name}:{request['phase']}"}
                )
                final = api.wait_for(job["id"], timeout=120.0)
                final["latency"] = time.perf_counter() - start
                with lock:
                    answers[name] = final
        except Exception as exc:  # reported to run.py, which fails the run
            failures.append(f"{type(exc).__name__}: {exc}")

    count = request["clients"]
    threads = [
        threading.Thread(target=client, args=(request["instances"][k::count],))
        for k in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"answers": answers, "failures": failures}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro.service.client  # noqa: F401  (before the first timed phase)

    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        print(json.dumps(run_phase(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
