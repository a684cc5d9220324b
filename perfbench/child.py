"""One program invocation, optionally traced.

    python3 perfbench/child.py [--trace SPANS.json] save-bench-skeleton PATH
    python3 perfbench/child.py [--trace SPANS.json] <kinedeep CLI arguments>

Without --trace this is the `kinedeep` console script: it calls
`kinedeep.cli.main` with the arguments and exits with its code. The one
extra command, save-bench-skeleton, writes `bench.benchmark_skeleton()` as
a config file, because the CLI has no command for it.

With --trace the layer functions are wrapped first (see trace_layers.py) and the
recorded spans are written to SPANS.json when the call returns.
"""
from __future__ import annotations

import sys


def _run(argv) -> int:
    from kinedeep import bench, cli
    from kinedeep import skeleton as sk

    if argv[:1] == ["save-bench-skeleton"]:
        if len(argv) != 2:
            print("usage: save-bench-skeleton PATH", file=sys.stderr)
            return 1
        # module attributes, so a traced run sees the wrapped functions
        sk.save_skeleton(bench.benchmark_skeleton(), argv[1])
        return 0
    return cli.main(argv)


def main(argv) -> int:
    if argv[:1] != ["--trace"]:
        return _run(argv)
    if len(argv) < 3:
        print("usage: child.py --trace SPANS.json ARGS...", file=sys.stderr)
        return 1
    import trace_layers

    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        with tracer.span("cli"):
            code = _run(argv[2:])
    finally:
        tracer.write(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
