"""Traced stand-in for ``python -m robustfolio.cli``.

    python3 bench/cli_traced.py SPANS_OUT <robustfolio arguments...>

Times ``import robustfolio.cli``, installs the span wrappers, runs
``cli.main(argv)`` with stdout untouched, writes the spans as JSON to
SPANS_OUT and exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    start = time.perf_counter()
    import robustfolio.cli as cli
    tracer.add_span("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        Path(spans_out).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
