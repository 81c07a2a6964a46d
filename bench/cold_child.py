"""One command-line request in a fresh interpreter, for the cli_cold workload.

Usage: python cold_child.py [--trace] VERB ARGS...

Runs `ngonstab.cli.main` on the arguments, exactly as the installed
`ngonstab` script would.  The first line written to stderr is
`import_ns <n>`: how long `import ngonstab.cli` took here.  With
`--trace` the request runs under the benchmark's tracer and the last
stderr line is `trace <json>` with the per-layer span totals and the
rigid-point cache counts.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    start = time.perf_counter_ns()
    import ngonstab.cli

    sys.stderr.write(f"import_ns {time.perf_counter_ns() - start}\n")
    sys.stderr.flush()
    if not traced:
        return ngonstab.cli.main(argv)

    from tracer import Tracer

    tracer = Tracer(sys.modules["ngonstab"])
    tracer.install()
    try:
        code = ngonstab.cli.main(argv)
    finally:
        tracer.uninstall()
    report = tracer.collect()
    info = sys.modules["ngonstab.moduli"].enumerate_rigid.cache_info()
    report["rigid_cache"] = [info.hits, info.misses]
    sys.stderr.write("trace " + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
