"""Run one nhsym command with layer tracing; write its spans as JSON.

    python3 -X importtime perfbench/clichild.py SPANS.json ARGS...

The traced counterpart of ``python -m nhsym.cli ARGS...`` for the
cli-cold workload: same exit code and output, plus the span file.  The
worker starts it with the environment ``run.py`` set up.
"""

import json
import sys

import nhsym.cli  # an import statement, so -X importtime lists the package

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return nhsym.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
