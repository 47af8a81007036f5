"""Run the ``qsafe`` command as ``python -m qsafe`` does, with spans.

    PERFBENCH_SPANS=out.json python -X importtime perfbench/cli_traced.py capacity

The traced ``cli-cold`` pass runs this in place of ``python -m qsafe``.
When the command ends, the per-layer totals of its spans are written
once to the JSON file named by ``PERFBENCH_SPANS``.  With
``PERFBENCH_ALLOC=1`` the allocation peaks are recorded as well.
"""

import json
import os
import sys

import tracing


def main():
    tracer = tracing.Tracer()
    tracer.alloc = os.environ.get("PERFBENCH_ALLOC") == "1"
    import qsafe.cli_report

    tracing.install(tracer)
    code = 0
    try:
        qsafe.cli_report.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as handle:
            json.dump(tracer.layer_metrics(), handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
