"""One transport surface: nothing above the transports asks which stack it holds.

:class:`~repro.core.executor.ProtocolSpec` is the one place a protocol
name becomes a stack, and both connection classes expose one application
surface (:class:`~repro.transport.base.TransportEndpoint`).  Two guards
keep it that way:

* an AST scan of the layers above the transports — the proxy, the video
  player and drivers, the page loader and the runner — for comparisons
  with ``"quic"``/``"tcp"`` and for ``hasattr``/``getattr`` probes of
  ``loss_detector`` or ``handshake_ready_time``; the one comparison
  allowed is the proxy's "no 0-RTT on a QUIC proxy" leg config (Sec. 5.5);
* a check that :class:`QuicConnection` and :class:`TcpConnection` expose
  the same public methods plus the ``protocol`` and
  ``handshake_ready_time`` attributes.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.netem import Simulator, build_path, emulated
from repro.quic import QuicConnection, open_quic_pair, quic_config
from repro.tcp import TcpConnection, open_tcp_pair, tcp_config

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The modules above the transports, relative to ``src/repro``.
ABOVE_TRANSPORTS = (
    sorted(p.relative_to(SRC).as_posix() for p in (SRC / "proxy").glob("*.py"))
    + sorted(p.relative_to(SRC).as_posix() for p in (SRC / "video").glob("*.py"))
    + ["http/client.py", "core/runner.py"]
)

#: (module, source) of every protocol-name comparison allowed there.
ALLOWED_COMPARISONS = [("proxy/base.py", 'spec.name == "quic"')]

PROTOCOL_NAMES = {"quic", "tcp"}
SNIFFED_ATTRIBUTES = {"loss_detector", "handshake_ready_time"}

#: The application methods both connection classes must offer.
APPLICATION_METHODS = {
    "connect", "request", "respond", "open_streaming_response",
    "stream_append", "stream_finish", "close",
}


def _names_a_protocol(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Constant) and sub.value in PROTOCOL_NAMES
               for sub in ast.walk(node))


def stack_branches(relpath: str, source: str):
    """(module, source) of each protocol-name comparison and each
    hasattr/getattr probe of a stack-specific attribute in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            if any(_names_a_protocol(side)
                   for side in [node.left, *node.comparators]):
                found.append((relpath, ast.get_source_segment(source, node)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("hasattr", "getattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in SNIFFED_ATTRIBUTES):
            found.append((relpath, ast.get_source_segment(source, node)))
    return found


def public_methods(cls) -> set:
    return {name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))}


class TestNoStackBranchesAboveTransports:
    def test_scan_covers_the_layers(self):
        assert {"proxy/base.py", "video/qoe.py", "video/player.py",
                "http/client.py", "core/runner.py"} <= set(ABOVE_TRANSPORTS)

    def test_only_the_sec55_proxy_leg_compares_a_protocol_name(self):
        found = []
        for relpath in ABOVE_TRANSPORTS:
            found += stack_branches(relpath, (SRC / relpath).read_text())
        assert found == ALLOWED_COMPARISONS

    def test_scan_sees_each_form(self):
        source = ('if protocol == "tcp": pass\n'
                  'x = name in ("quic", "tcp")\n'
                  'y = getattr(conn, "handshake_ready_time", None)\n'
                  'z = hasattr(conn, "loss_detector")\n'
                  'ok = conn.protocol\n')
        assert [segment for _, segment in stack_branches("m.py", source)] == [
            'protocol == "tcp"', 'name in ("quic", "tcp")',
            'getattr(conn, "handshake_ready_time", None)',
            'hasattr(conn, "loss_detector")']


class TestOneApplicationSurface:
    def test_same_public_methods(self):
        assert public_methods(QuicConnection) == public_methods(TcpConnection)
        assert APPLICATION_METHODS <= public_methods(QuicConnection)

    def test_protocol_and_handshake_ready_time(self):
        sim = Simulator()
        path = build_path(sim, emulated(10.0), seed=1)
        pairs = {
            "quic": open_quic_pair(sim, path.client, path.server,
                                   quic_config(34)),
            "tcp": open_tcp_pair(sim, path.client, path.server, tcp_config()),
        }
        for name, (client, server) in pairs.items():
            for end in (client, server):
                assert end.protocol == name
                # A plain attribute, None until the handshake completes.
                assert "handshake_ready_time" in vars(end)
            assert client.handshake_ready_time is None
        assert QuicConnection.protocol == "quic"
        assert TcpConnection.protocol == "tcp"
