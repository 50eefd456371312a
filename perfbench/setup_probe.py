"""Time one cold set-up in a fresh interpreter: import the public API,
load the experiment registry, and make a session ready. Prints one
JSON object of phase times in seconds.

Run with ``PYTHONPATH=src python3 perfbench/setup_probe.py``.
"""

import json
import time


def main() -> None:
    started = time.perf_counter()
    from repro.api import LocalConfig, Session, describe_experiments

    imported = time.perf_counter()
    describe_experiments()
    registry = time.perf_counter()
    with Session(LocalConfig(workers=0)):
        ready = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - started,
                "registry_s": registry - imported,
                "session_s": ready - registry,
            }
        )
    )


if __name__ == "__main__":
    main()
