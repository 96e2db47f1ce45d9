"""Run ``repro-landlord`` with the benchmark's layer probes installed.

Usage: ``python traced_serve.py SPANS_OUT serve [serve options...]``
(with the repository's ``src`` on ``PYTHONPATH``).

Class-level wrappers go on ``VectorizedEngine``, ``LandlordCache``,
``JournaledState``, ``Journal`` and ``LandlordDaemon``; then the normal
CLI runs in this process, so the daemon's topology is the same as an
untraced ``serve``.  When the CLI returns (SIGTERM drains the daemon),
the recorded spans are written to ``SPANS_OUT`` as JSON lines.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import SpanRecorder, write_spans  # noqa: E402
from layers import (  # noqa: E402
    install_cache,
    install_daemon,
    install_engine,
    install_journal,
)


def main(argv) -> int:
    """Install the probes, run the CLI, write the spans."""
    from repro.cli import main as cli_main
    from repro.core.cache import LandlordCache
    from repro.core.engine import VectorizedEngine
    from repro.core.journal import Journal, JournaledState
    from repro.service import LandlordDaemon

    spans_out, cli_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    install_engine(recorder, VectorizedEngine)
    install_cache(recorder, LandlordCache)
    install_journal(recorder, JournaledState, Journal)
    install_daemon(recorder, LandlordDaemon)
    try:
        return cli_main(cli_argv)
    finally:
        write_spans(spans_out, recorder.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
