"""Start the whk command line, optionally traced.

    python3 bench/cli_launcher.py SPANS_PATH|- <whk arguments...>

With a path, the Tracer wraps whk's public functions before the command
runs, and its spans and their summary are written to SPANS_PATH
afterwards; stdout and the exit code are the command's own either way.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import whk.cli

    if spans_path == "-":
        return whk.cli.main(argv)
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli.main", whk.cli.main, argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
