"""Run ``cdfdr`` CLI arguments with spans recorded, then write the spans.

Usage: python3 bench/traced_cli.py SPANS_JSON fdr --input ... (the CLI's own
arguments follow the output path).  The package must be importable, e.g.
with ``PYTHONPATH=src``.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys

import cdfdr.cli

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = cdfdr.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
