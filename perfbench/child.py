"""Run one qgraph CLI operation in a fresh interpreter and record its timings.

    python3 child.py TRACE -- QGRAPH_ARGV...

Writes one JSON object to stdout: the operation's report text under "out",
exactly as `python -m qgraph.cli` would have written it, the exit code, the
process's max RSS, and the timings.  "setup_s" is the CPU time of the
process from its start to the end of the `qgraph.cli` import; "wall_s"
and "cpu_s" are the wall and CPU seconds of `cli.main` alone.  Untraced, a
speed.Sampler runs throughout and all three are in seconds at the
reference speed; "raw_wall_s" is the wall time as measured, less the
calibrations in it.
With TRACE=1 there is no sampler and every timing is as measured; the
package's public functions are wrapped in spans first (see spans.py) and
the record also holds the span aggregates and the cache_info() of the
package's lru caches at the end of the operation.
"""

import contextlib
import io
import json
import resource
import sys
import time

import speed


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    traced = argv[0] == "1"
    if argv[1] != "--":
        raise SystemExit("usage: child.py TRACE -- QGRAPH_ARGV...")
    cli_argv = argv[2:]

    sampler = speed.Sampler()
    if not traced:
        sampler.sample()
        sampler.start()

    import qgraph.cli as cli

    setup = _cpu()
    at_import = sampler.totals()
    tracer = None
    run = cli.main
    if traced:
        import spans

        tracer = spans.install()
        run = tracer.wrap("cli.main", cli.main)
    else:
        sampler.sample()
    before = sampler.totals()
    out = io.StringIO()
    cpu0, wall0 = _cpu(), time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            code = run(cli_argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code if isinstance(exc.code, int) else 1
    wall = time.monotonic() - wall0
    cpu = _cpu() - cpu0
    inside = speed.diff(sampler.totals(), before)
    if not traced:
        sampler.stop()
        sampler.sample()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    setup -= at_import.cpu_s
    wall -= inside.wall_s
    cpu -= inside.cpu_s
    record = {"raw_wall_s": wall, "rss_kb": rss_kb, "code": code, "out": out.getvalue()}
    if not traced:
        setup *= speed.factors(at_import)[1]
        wall_f, cpu_f = speed.factors(speed.diff(sampler.totals(), at_import))
        wall, cpu = wall * wall_f, cpu * cpu_f
    record.update(setup_s=setup, wall_s=wall, cpu_s=cpu)
    if tracer is not None:
        record["trace"] = tracer.summary()
        record["caches"] = spans.cache_dump()
    json.dump(record, sys.stdout)
    return code

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
