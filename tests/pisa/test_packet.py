"""Packet-container tests."""

from repro.pisa.packet import Packet


class TestPacket:
    def test_field_access(self):
        p = Packet(fields={"flow_id": 7})
        assert p.field("flow_id") == 7
        assert p.field("missing", default=0) == 0

    def test_field_missing_without_default_raises(self):
        import pytest

        with pytest.raises(KeyError):
            Packet().field("nope")

    def test_with_fields_copies(self):
        p = Packet(fields={"a": 1}, length=100)
        q = p.with_fields(a=2, b=3)
        assert p.fields == {"a": 1}
        assert q.fields == {"a": 2, "b": 3}
        assert q.length == 100

    def test_packet_ids_unique(self):
        ids = {Packet().packet_id for _ in range(10)}
        assert len(ids) == 10

    def test_repr_stable(self):
        assert "flow_id=5" in repr(Packet(fields={"flow_id": 5}))


class TestMakeFlowPackets:
    def test_count_and_fields(self):
        # One flow's packets, as a controller test builds them.
        packets = [Packet(fields={"flow_id": 9, "dport": 80},
                          timestamp=10.0 + i) for i in range(4)]
        assert len(packets) == 4
        assert all(p.fields["flow_id"] == 9 for p in packets)
        assert all(p.fields["dport"] == 80 for p in packets)
        assert [p.timestamp for p in packets] == [10.0, 11.0, 12.0, 13.0]
