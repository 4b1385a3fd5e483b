"""Run one braidfree CLI command in a fresh process, as the ``braidfree``
console script would, and write a JSON result for the benchmark:

    python3 perfbench/child.py --out FILE [--trace] -- <braidfree arguments>

The result holds the exit code, the report printed on stdout, the seconds
from before ``import braidfree`` to the end of the command, whether a Free
certificate passes ``saito_check`` (checked after the timed region), and,
with ``--trace``, the spans and counters recorded at the module boundaries.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    out = Path(opts[opts.index("--out") + 1])
    trace = "--trace" in opts

    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from braidfree import cli, saito_check
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    certified = []
    verdict = cli.freeness_verdict

    def keep(arrangement, *rest, **kwargs):
        cert = verdict(arrangement, *rest, **kwargs)
        certified.append((arrangement, cert))
        return cert

    cli.freeness_verdict = keep
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        rc = tracer.root("cli.main", 0, cli.main, argv) if tracer else cli.main(argv)
    seconds = perf_counter() - t0
    cli.freeness_verdict = verdict
    if tracer:
        tracer.restore()

    saito = None
    if certified and certified[-1][1].status == "Free":
        arrangement, cert = certified[-1]
        saito = bool(saito_check(arrangement, cert.generators, seed=cert.seed))
    result = {"rc": rc, "report": report.getvalue(), "seconds": seconds, "saito": saito,
              "trace": tracer.dump() if tracer else None}
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
