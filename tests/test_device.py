"""Endpoint behavior: the messaging API, delays, diagnostics, batching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestnet.device import (
    DeviceConfig,
    Endpoint,
    SimClock,
    connect,
    log_session,
    pack_batch,
    transport_session,
    unpack_batch,
)
from attestnet import kernel as kernel_mod
from attestnet.errors import (
    DuplicateSession,
    TransportClosed,
    UnknownPeer,
    UnknownSession,
    WrongSessionRole,
)
from attestnet.simnet import FaultAction, FaultSchedule, Network
from attestnet.wire import encode_frame

KEY1 = bytes(range(32))
KEY2 = bytes(range(1, 33))
KEY3 = bytes(range(2, 34))
LOG = log_session(1)


def make_pair(attest_delay_ns=0, net=None):
    net = net or Network(clock=SimClock())
    a = connect(DeviceConfig(device=1, attest_delay_ns=attest_delay_ns), net)
    b = connect(DeviceConfig(device=2, attest_delay_ns=attest_delay_ns), net)
    a.provision([(1, 2, KEY1)])
    b.provision([(1, 1, KEY1)])
    return net, a, b


def test_transport_session_refuses_ids_its_layout_cannot_hold():
    assert transport_session(255, 1) == transport_session(1, 255) == 0x0100_01FF
    # (1, 258) would pack to (1, 2)'s session.
    for a, b in ((1, 256), (1, 258), (-1, 2)):
        with pytest.raises(ValueError, match="device ids 0..255"):
            transport_session(a, b)


def test_connect_both_sides_share_session():
    net, a, b = make_pair()
    assert a.sessions() == [1] and b.sessions() == [1]


@pytest.mark.parametrize("bad, error", [
    ((2, 4, KEY3), DuplicateSession),
    ((1, 4, KEY3), DuplicateSession),
    ((3, 4, KEY3[:-1]), ValueError),
    ((2 ** 32, 4, KEY3), ValueError),
], ids=["repeated-in-list", "already-held", "short-key", "id-out-of-range"])
def test_refused_provision_installs_nothing(bad, error):
    ep = Endpoint(DeviceConfig(device=1))
    ep.provision([(1, 2, KEY1), (LOG, 1, KEY2)])
    before = (ep.sessions(), dict(ep.peers), list(ep._inboxes))
    with pytest.raises(error):
        ep.provision([(2, 3, KEY2), bad])
    assert (ep.sessions(), dict(ep.peers), list(ep._inboxes)) == before
    ep.provision([(2, 3, KEY2)])
    assert ep.sessions() == [1, LOG, 2] and list(ep._inboxes) == [1, 2]


def test_send_to_an_unattached_peer_uses_up_no_counter():
    # connect does not look at peers; the send is refused before the kernel
    # attests, so the peer that attaches later gets counter 0 first.
    net = Network(clock=SimClock())
    a = connect(DeviceConfig(device=1), net)
    a.provision([(1, 2, KEY1)])
    with pytest.raises(UnknownPeer):
        a.auth_send(1, b"unsent")
    assert a.kernel.session_state(1).send_cnt == 0
    b = connect(DeviceConfig(device=2), net)
    b.provision([(1, 1, KEY1)])
    a.auth_send(1, b"sent")
    net.run_until_quiescent()
    assert [(m.counter, m.payload) for m in b.poll(1)] == [(0, b"sent")]
    assert b.rejection_events == [] and net.exhausted == []


def test_attached_endpoint_charges_the_network_clock():
    net = Network(clock=SimClock())
    ep = Endpoint(DeviceConfig(1, attest_delay_ns=5))
    ep.provision([(LOG, 1, KEY1)])
    net.attach(ep)
    ep.local_send(LOG, b"entry")
    assert net.clock.now_ns == 5


def test_three_sessions_independent_counter_streams():
    net = Network(clock=SimClock())
    ep = connect(DeviceConfig(device=1), net)
    ep.provision([(1, 2, KEY1), (2, 3, KEY2), (3, 4, KEY3)])
    ep.local_send(1, b"x")
    ep.local_send(1, b"y")
    ep.local_send(2, b"z")
    assert ep.kernel.session_state(1).send_cnt == 2
    assert ep.kernel.session_state(2).send_cnt == 1
    assert ep.kernel.session_state(3).send_cnt == 0


def test_auth_send_round_trip():
    net, a, b = make_pair()
    a.auth_send(1, b"hello")
    net.run_until_quiescent()
    msgs = b.poll(1)
    assert len(msgs) == 1
    assert msgs[0].payload == b"hello"
    assert msgs[0].counter == 0


def test_two_auth_sends_in_order():
    net, a, b = make_pair()
    a.auth_send(1, b"one")
    a.auth_send(1, b"two")
    net.run_until_quiescent()
    assert [m.payload for m in b.poll(1)] == [b"one", b"two"]


def test_swapped_frames_recover_to_send_order():
    """Reorder on the wire: first delivery rejected, retransmission restores
    send order. The checker's no_reorder lemma enumerates every delivery
    order exhaustively; this exercises the live transport path."""
    net = Network(clock=SimClock())
    net.install_schedule(FaultSchedule(actions=[
        FaultAction(kind="reorder", session=1, sender=1, index=0)]))
    a = connect(DeviceConfig(device=1), net)
    a.provision([(1, 2, KEY1)])
    b = connect(DeviceConfig(device=2), net)
    b.provision([(1, 1, KEY1)])
    a.auth_send(1, b"first")
    a.auth_send(1, b"second")
    net.run_until_quiescent()
    assert [m.payload for m in b.poll(1)] == [b"first", b"second"]
    assert (1, "CounterMismatch") in b.rejection_events


def test_local_send_multicast_same_triple_to_both_peers():
    # one attested message, unicast to two receivers holding the same key
    net = Network(clock=SimClock())
    sender = connect(DeviceConfig(device=1), net)
    sender.provision([(9, 1, KEY1)])
    r1 = connect(DeviceConfig(device=2), net)
    r1.provision([(9, 1, KEY1)])
    r2 = connect(DeviceConfig(device=3), net)
    r2.provision([(9, 1, KEY1)])
    msg = sender.local_send(9, b"multicast")
    out1 = r1.kernel.verify(msg)
    out2 = r2.kernel.verify(msg)
    assert ((out1.device, out1.session, out1.counter)
            == (out2.device, out2.session, out2.counter) == (1, 9, 0))


def make_log_pair():
    """Two endpoints sharing device 1's log session."""
    net = Network(clock=SimClock())
    a = connect(DeviceConfig(device=1), net)
    b = connect(DeviceConfig(device=2), net)
    for ep in (a, b):
        ep.provision([(LOG, 1, KEY1)])
    return net, a, b


def test_local_send_counters_and_colocated_verify():
    net, a, b = make_log_pair()
    m0 = a.local_send(LOG, b"l0")
    m1 = a.local_send(LOG, b"l1")
    assert (m0.counter, m1.counter) == (0, 1)
    assert b.local_verify(LOG, m0) == m0
    assert b.local_verify(LOG, m1) == m1


def test_local_verify_on_a_transport_session_is_a_wrong_role():
    net, a, b = make_pair()
    with pytest.raises(WrongSessionRole):
        b.local_verify(1, a.local_send(1, b"not a log entry"))
    assert b.kernel.session_state(1).recv_cnt == 0


@pytest.mark.parametrize("named, header, error", [
    (1, 1, WrongSessionRole),                          # a transport session
    (LOG, log_session(2), WrongSessionRole),           # a mislabelled header
    (log_session(9), log_session(9), UnknownSession),
], ids=["transport-session", "mislabelled-header", "unknown-session"])
def test_local_verify_records_a_rejection_before_any_tag_or_charge(
        monkeypatch, named, header, error):
    # One event under the session the caller names; no tag, no charge, and
    # the counter stays where the genuine entry expects it.
    net, a, b = make_pair(attest_delay_ns=500)
    for ep in (a, b):
        ep.provision([(LOG, 1, KEY2)])
    entry = a.local_send(LOG, b"log entry")
    tags = []
    compute_tag = kernel_mod.compute_tag
    monkeypatch.setattr(kernel_mod, "compute_tag",
                        lambda *args: tags.append(args) or compute_tag(*args))
    before = b.clock.now_ns
    with pytest.raises(error):
        b.local_verify(named, entry._replace(session=header))
    assert b.rejection_events == [(named, error.__name__)]
    assert (b.clock.now_ns, tags) == (before, [])
    assert b.local_verify(LOG, entry) == entry


def test_network_frame_on_a_log_session_is_rejected_untagged(monkeypatch):
    # A log frame copied onto the wire reaches no inbox and moves no counter;
    # it is charged a verification, but no tag is computed for it.
    net, a, b = make_log_pair()
    for ep in (a, b):
        ep.config.attest_delay_ns = 500
    entry = a.local_send(LOG, b"log entry")
    tags = []
    compute_tag = kernel_mod.compute_tag
    monkeypatch.setattr(kernel_mod, "compute_tag",
                        lambda *args: tags.append(args) or compute_tag(*args))
    before = b.clock.now_ns
    assert b.deliver_frame(encode_frame(entry)) is False
    assert b.clock.now_ns - before == 500
    assert tags == []
    assert b.rejection_events == [(LOG, "WrongSessionRole")]
    assert b.poll(LOG) == [] and b.expected_counter(LOG) == 0
    assert b.local_verify(LOG, entry) == entry


def test_poll_empty_and_fifo_chunks():
    net, a, b = make_pair()
    assert b.poll(1) == []
    for chunk in ([0, 1, 2], [3, 4]):
        for i in chunk:
            a.auth_send(1, bytes([i]))
        net.run_until_quiescent()
        # A poll takes the whole inbox, in counter order.
        assert [m.counter for m in b.poll(1)] == chunk
    assert b.poll(1) == []


def test_tampered_frame_never_reaches_poll():
    net = Network(clock=SimClock())
    net.install_schedule(FaultSchedule(actions=[
        FaultAction(kind="tamper", session=1, sender=1, index=0,
                    bit_offset=20 * 8)]))
    a = connect(DeviceConfig(device=1), net)
    a.provision([(1, 2, KEY1)])
    b = connect(DeviceConfig(device=2), net)
    b.provision([(1, 1, KEY1)])
    a.auth_send(1, b"target")
    net.run_until_quiescent()
    # retransmission repairs delivery; the tampered copy was counted
    assert b.rejection_events == [(1, "AuthFailure")]
    assert [m.payload for m in b.poll(1)] == [b"target"]


def test_delay_accounting_lower_bound():
    delay = 23_000
    net, a, b = make_pair(attest_delay_ns=delay)
    n = 7
    start = net.clock.now_ns
    for i in range(n):
        a.auth_send(1, bytes([i]))
    assert net.clock.now_ns - start >= n * delay
    net.run_until_quiescent()
    assert len(b.poll(1)) == n


def test_send_without_transport_uses_up_no_counter():
    net = Network(clock=SimClock())
    a = Endpoint(DeviceConfig(device=1))
    a.provision([(1, 2, KEY1)])
    b = connect(DeviceConfig(device=2), net)
    b.provision([(1, 1, KEY1)])
    with pytest.raises(TransportClosed):
        a.auth_send(1, b"unsent")
    net.attach(a)
    a.auth_send(1, b"sent")
    net.run_until_quiescent()
    assert [(m.counter, m.payload) for m in b.poll(1)] == [(0, b"sent")]
    assert b.rejection_events == [] and net.exhausted == []


@given(records=st.lists(st.binary(min_size=0, max_size=40), min_size=0,
                        max_size=20))
@settings(max_examples=100, deadline=None)
def test_batch_pack_unpack_roundtrip(records):
    assert unpack_batch(pack_batch(records)) == records


def test_batch_example_shape():
    payload = pack_batch([b"ab", b"c"])
    assert payload[:4] == (2).to_bytes(4, "big")
