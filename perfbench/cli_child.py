"""Traced stand-in for ``python -m gweave.cli``, used only by traced runs.

``python3 perfbench/cli_child.py SPANS_OUT REQUEST_ID ARG...`` installs the
span wrappers, runs ``gweave.cli.main(ARG...)`` inside one request span,
writes the spans to ``SPANS_OUT`` and exits with ``main``'s exit code.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    out_path, request, cli_args = argv[0], argv[1], argv[2:]
    import gweave.cli  # imports every layer before they are wrapped

    from spans import Tracer

    tracer = Tracer()
    found = sorted(tracer.install())
    tracer.begin(request)
    try:
        code = gweave.cli.main(cli_args)
    finally:
        tracer.end()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"found": found, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
