"""Start ``repro-race serve`` with the layer spans installed.

Usage: serve_launcher.py SPANS_OUT serve [serve options...]

Installs the same wrappers as the traced replay (engine) plus the wire
codec, marks each session's wall time from the server decoding its
HELLO to the server encoding its BYE reply, then hands the remaining
arguments to ``repro.cli.main``.  The spans are written when the
server exits (SIGTERM drains it).
"""

from __future__ import annotations

import sys
import time

from tracing import Recorder, install_engine, install_protocol


def _mark_sessions(rec: Recorder) -> None:
    """Sum of session wall times: minus the start, plus the end."""
    from repro.serve import protocol

    decode_hello = protocol.decode_hello
    encode_bye_summary = protocol.encode_bye_summary

    def opened(payload):
        rec.count("session_s", -time.perf_counter())
        rec.count("sessions_opened")
        return decode_hello(payload)

    def closed(events, races):
        out = encode_bye_summary(events, races)
        rec.count("session_s", time.perf_counter())
        rec.count("sessions_closed")
        return out

    protocol.decode_hello = opened
    protocol.encode_bye_summary = closed


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install_engine(rec)
    install_protocol(rec)
    _mark_sessions(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
