"""Run one unruh-pair CLI command with layer spans (the traced figures-cli run).

    python perfbench/tracecli.py SPANS_JSON [unruh-pair arguments...]

Imports the package (timed as an ``import.unruh_pair`` span), installs the
tracer, runs ``cli.main`` and writes its spans, counters and flow-cache
statistics to SPANS_JSON.  Exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

_start = time.perf_counter()
from unruh_pair import cli, xstate  # noqa: E402

_end = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append((-1, None, "import.unruh_pair", _start, _end))
    with tracer.installed():
        code = cli.main(argv)
    info = xstate._population_flow.cache_info()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters,
                   "cache": [info.hits, info.misses]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
