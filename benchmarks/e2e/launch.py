"""Start ``htp serve`` or ``htp route`` with the benchmark's spans installed.

Usage::

    python benchmarks/e2e/launch.py SPANS.json serve --port 9000 ...

Wraps the service, router, client and solver layers (see
:mod:`tracer`), runs ``repro.cli.main`` on the remaining arguments and,
once it returns (SIGTERM makes both servers drain and return), writes
every recorded span to ``SPANS.json``.  The traced run of the benchmark
starts its servers through this file; the untraced run starts them
with ``python -m repro.cli`` directly.
"""

from __future__ import annotations

import atexit
import sys

from tracer import Tracer, install


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer, "server")
    atexit.register(tracer.dump, out, "router" if argv[0] == "route" else "worker")
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
