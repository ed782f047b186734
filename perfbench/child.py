"""One benchmark child process: ``python3 -m perfbench.child MODE JSON``.

``iterate`` runs one workload iteration (printing ``READY`` once set up),
``setup`` only sets the iteration up and exits at ``READY``, and
``check`` runs the output check.  ``iterate`` and ``check`` print one
JSON record as their last line.  ``run.py`` starts these with ``src`` on
the path.
"""

from __future__ import annotations

import json
import pathlib
import sys
import traceback


def main(argv) -> int:
    mode, payload = argv[0], json.loads(argv[1])
    try:
        if mode in ("iterate", "setup"):
            from perfbench.workloads import run_iteration

            def ready():
                print("READY", flush=True)
                if mode == "setup":
                    sys.exit(0)

            out_dir = pathlib.Path(payload["out_dir"])
            record = run_iteration(
                payload["workload"], payload["inputs"], out_dir, ready,
                payload["run_id"], payload["traced"],
            )
            summary = record.pop("summary")
            (out_dir / "summary.json").write_text(json.dumps(summary))
        else:
            from perfbench.check import run_check

            summary = json.loads(pathlib.Path(payload["summary"]).read_text())
            record = run_check(
                payload["workload"], payload["inputs"], summary,
                payload["seed"], payload["scale"],
            )
    except Exception:
        record = {"error": traceback.format_exc()}
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
