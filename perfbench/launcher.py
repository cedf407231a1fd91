"""Start ``repro serve`` with span wrappers installed (traced runs only).

    python3 perfbench/launcher.py --spans FILE [--corpus FILE]

Installs the :class:`tracing.Tracer` wrappers, then calls the daemon's
own ``serve_forever`` on an ephemeral port.  After SIGTERM has drained
the daemon, the wrappers are removed and the spans, the removal check
and the wrapper's per-call cost are written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--corpus", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    import tracing

    tracer = tracing.Tracer()
    tracer.install(service=True)
    from repro.service import app

    code = app.serve_forever(host="127.0.0.1", port=0, corpus=args.corpus)
    removed = tracer.uninstall()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "removed": removed,
                "leftover": tracing.leftover_wrappers(),
                "wrapper_cost_s": tracing.wrapper_cost_s(),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
