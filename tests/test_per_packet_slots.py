"""Guard: the objects built once per packet stay ``__slots__`` classes.

One of each is allocated for every packet, frame or segment the classic
stack sends, so a ``__dict__`` on any of them costs memory and attribute
time on the hottest path.  A class turned back into a plain class or a
dataclass, or a subclass that forgets ``__slots__``, fails here.
"""

import pytest

from repro.netem.packet import Packet
from repro.quic.frames import AckFrame, QuicPacket, StreamFrame
from repro.quic.loss import SentPacketRecord
from repro.tcp.segment import Piece, SegmentRecord, TcpSegment

INSTANCES = {
    "Packet": lambda: Packet("a", "b", 100),
    "QuicPacket": lambda: QuicPacket("c", 1, [StreamFrame(1, 0, 10)]),
    "StreamFrame": lambda: StreamFrame(1, 0, 10),
    "AckFrame": lambda: AckFrame(5, 0.0, ((4, 5), (1, 2))),
    "TcpSegment": lambda: TcpSegment("c", "data", seq=0, length=10),
    "SegmentRecord": lambda: SegmentRecord(0, 10, 0.0, [Piece(1, 10)]),
    "Piece": lambda: Piece(1, 10),
    "SentPacketRecord": lambda: SentPacketRecord(1, 0.0, 1350),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_per_packet_object_has_no_dict(name):
    instance = INSTANCES[name]()
    assert type(instance).__name__ == name
    assert not hasattr(instance, "__dict__")


def test_sent_packet_record_keeps_its_constructor():
    """Positional and keyword construction as the dataclass allowed."""
    first = SentPacketRecord(7, 1.5, 1200)
    assert (first.pkt_num, first.sent_time, first.size_bytes, first.frames,
            first.is_probe, first.nacks, first.loss_eligible_at) == (
        7, 1.5, 1200, [], False, 0, None)
    frames = [StreamFrame(1, 0, 10)]
    second = SentPacketRecord(8, 2.0, 900, frames=frames, is_probe=True)
    assert second.frames is frames and second.is_probe
    # Each record gets a list of its own.
    assert SentPacketRecord(9, 0.0, 1).frames is not first.frames
