"""One measured execution of the boseloops CLI in a fresh interpreter.

    python3 bench/child.py <setup|run|trace> <result.json> <cli argv...>

Set-up is `import boseloops.cli` plus parsing the config the CLI is given,
timed from interpreter start-up.  In `run` and `trace` mode the child then
calls `boseloops.cli.main(<cli argv>)` once and records its wall time, the
process CPU time spent in it and the peak resident memory of the process;
`trace` mode installs the layer tracer first and adds its report.  The
result is written as JSON to <result.json>.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    mode, result_path, *cli_argv = sys.argv[1:]
    config = cli_argv[cli_argv.index("--config") + 1]

    import boseloops.cli as cli

    with open(config, encoding="utf-8") as fh:
        cli.parse_config(json.load(fh))
    out = {"setup_s": time.perf_counter() - _T0, "module": cli.__file__,
           "versions": {"python": platform.python_version(),
                        "numpy": sys.modules["numpy"].__version__,
                        "scipy": sys.modules["scipy"].__version__}}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out["rc"] = cli.main(cli_argv)
        except Exception:  # a crash is a miss for every row, not a lost run
            traceback.print_exc()
            out["rc"] = "crash"
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = time.process_time() - c0
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["trace"] = tracer.report()

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
