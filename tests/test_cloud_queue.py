"""Tests for the simulated message queue (SQS / Azure Queue)."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.cloud import AWS_PRICES, CostMeter, Message, MessageQueue
from repro.cloud.queue import StaleReceiptError
from repro.sim import Environment


def make_queue(env, **kwargs):
    defaults = dict(
        rng=np.random.default_rng(5),
        visibility_timeout_s=30.0,
        request_latency_s=0.010,
        latency_sigma=0.0,
        propagation_delay_s=0.0,
        miss_probability=0.0,
    )
    defaults.update(kwargs)
    return MessageQueue(env, "tasks", **defaults)


def drive(env, gen):
    return env.run(until=env.process(gen))


def test_send_receive_delete_happy_path():
    env = Environment()
    q = make_queue(env)
    drive(env, q.send({"task": 1}))
    msg = drive(env, q.receive())
    assert isinstance(msg, Message)
    assert msg.body == {"task": 1}
    assert msg.receive_count == 1
    drive(env, q.delete(msg))
    assert q.approximate_size() == 0
    assert drive(env, q.receive()) is None


def test_empty_receive_returns_none():
    env = Environment()
    q = make_queue(env)
    assert drive(env, q.receive()) is None
    assert q.stats.empty_receives == 1


def test_message_hidden_during_visibility_timeout():
    env = Environment()
    q = make_queue(env, visibility_timeout_s=60.0)
    drive(env, q.send("t"))
    first = drive(env, q.receive())
    assert first is not None
    # Immediately after: the message is invisible.
    assert drive(env, q.receive()) is None
    assert q.visible_now() == 0


def test_message_reappears_after_visibility_timeout():
    env = Environment()
    q = make_queue(env, visibility_timeout_s=10.0)
    drive(env, q.send("t"))
    msg1 = drive(env, q.receive())
    env.run(until=env.now + 11.0)
    msg2 = drive(env, q.receive())
    assert msg2 is not None
    assert msg2.message_id == msg1.message_id
    assert msg2.receive_count == 2
    assert q.stats.reappearances == 1
    assert q.stats.duplicate_deliveries == 1


def test_delete_with_stale_receipt_fails():
    """If a message reappeared and was re-received, the original receipt
    can no longer delete it — the new consumer owns it (SQS behaviour)."""
    env = Environment()
    q = make_queue(env, visibility_timeout_s=5.0)
    drive(env, q.send("t"))
    old = drive(env, q.receive())
    env.run(until=env.now + 6.0)
    new = drive(env, q.receive())
    assert new.receipt != old.receipt
    with pytest.raises(StaleReceiptError):
        drive(env, q.delete(old))
    drive(env, q.delete(new))  # the live receipt works
    assert q.approximate_size() == 0


def test_delete_before_reappearance_prevents_redelivery():
    env = Environment()
    q = make_queue(env, visibility_timeout_s=5.0)
    drive(env, q.send("t"))
    msg = drive(env, q.receive())
    drive(env, q.delete(msg))
    env.run(until=env.now + 10.0)
    assert drive(env, q.receive()) is None
    assert q.stats.reappearances == 0


def test_propagation_delay_hides_fresh_messages():
    env = Environment()
    q = make_queue(env, propagation_delay_s=2.0)
    drive(env, q.send("t"))
    # Sent but not yet propagated.
    assert drive(env, q.receive()) is None
    env.run(until=env.now + 2.5)
    assert drive(env, q.receive()) is not None


def test_no_ordering_guarantee():
    """Receives return messages in effectively arbitrary order."""
    env = Environment()
    q = make_queue(env, rng=np.random.default_rng(42))
    for i in range(50):
        drive(env, q.send(i))
    received = []
    while True:
        msg = drive(env, q.receive())
        if msg is None:
            break
        received.append(msg.body)
        drive(env, q.delete(msg))
    assert sorted(received) == list(range(50))  # all delivered...
    assert received != list(range(50))  # ...but not FIFO


def test_miss_probability_causes_empty_receives_with_backlog():
    env = Environment()
    q = make_queue(env, rng=np.random.default_rng(1), miss_probability=0.5)
    for i in range(10):
        drive(env, q.send(i))
    outcomes = [drive(env, q.receive(visibility_timeout_s=0.001)) for _ in range(40)]
    assert any(m is None for m in outcomes)
    assert any(m is not None for m in outcomes)


def test_duplicate_probability_leaves_message_visible():
    env = Environment()
    q = make_queue(
        env, rng=np.random.default_rng(2), duplicate_probability=1.0
    )
    drive(env, q.send("dup"))
    m1 = drive(env, q.receive())
    m2 = drive(env, q.receive())  # still visible: duplicated delivery
    assert m1 is not None and m2 is not None
    assert m1.message_id == m2.message_id
    assert q.stats.duplicate_deliveries >= 1


def test_per_receive_visibility_override():
    env = Environment()
    q = make_queue(env, visibility_timeout_s=1000.0)
    drive(env, q.send("t"))
    drive(env, q.receive(visibility_timeout_s=2.0))
    env.run(until=env.now + 3.0)
    assert drive(env, q.receive()) is not None


def test_request_metering():
    env = Environment()
    meter = CostMeter(AWS_PRICES)
    q = make_queue(env, meter=meter)
    drive(env, q.send("a"))
    msg = drive(env, q.receive())
    drive(env, q.delete(msg))
    assert meter.queue_requests == 3
    # ~10,000 requests cost $0.01 (Table 4 line item).
    assert AWS_PRICES.queue_cost(10_000) == pytest.approx(0.01)


def test_send_batch_meters_one_request():
    env = Environment()
    meter = CostMeter(AWS_PRICES)
    q = make_queue(env, meter=meter)
    ids = drive(env, q.send_batch(list(range(10))))
    assert len(ids) == 10
    assert meter.queue_requests == 1
    assert q.stats.sent == 10
    received = set()
    while True:
        msg = drive(env, q.receive())
        if msg is None:
            break
        received.add(msg.body)
        drive(env, q.delete(msg))
    assert received == set(range(10))


def test_send_batch_size_limits():
    env = Environment()
    q = make_queue(env)
    with pytest.raises(ValueError):
        drive(env, q.send_batch([]))
    with pytest.raises(ValueError):
        drive(env, q.send_batch(list(range(11))))


def test_stats_counters():
    env = Environment()
    q = make_queue(env)
    drive(env, q.send("a"))
    drive(env, q.send("b"))
    m = drive(env, q.receive())
    drive(env, q.delete(m))
    drive(env, q.receive())
    assert q.stats.sent == 2
    assert q.stats.received == 2
    assert q.stats.deleted == 1
    assert q.approximate_size() == 1


def test_at_least_once_no_message_lost_under_crash_pattern():
    """Receive-without-delete (simulating crashed workers) never loses
    messages: everything is eventually deliverable again."""
    env = Environment()
    q = make_queue(env, visibility_timeout_s=5.0, rng=np.random.default_rng(9))
    n = 20
    for i in range(n):
        drive(env, q.send(i))
    # Round 1: receive all, delete none (all workers "crash").
    got = 0
    while drive(env, q.receive()) is not None:
        got += 1
    assert got == n
    # After the visibility timeout, all reappear; now process properly.
    env.run(until=env.now + 6.0)
    completed = set()
    while True:
        msg = drive(env, q.receive())
        if msg is None:
            break
        completed.add(msg.body)
        drive(env, q.delete(msg))
    assert completed == set(range(n))


def test_delete_after_reappearance_without_rereceive_succeeds():
    """A receipt is only invalidated by a *newer receive*.  If the
    message reappeared but nobody picked it up, the original consumer's
    delete still lands (the reappearance accounting cleared the
    in-flight entry, so there is no competing owner)."""
    env = Environment()
    q = make_queue(env, visibility_timeout_s=5.0)
    drive(env, q.send("t"))
    msg = drive(env, q.receive())
    env.run(until=env.now + 6.0)
    assert q.visible_now() == 1  # reappeared, accounted, unclaimed
    assert q.stats.reappearances == 1
    drive(env, q.delete(msg))  # no StaleReceiptError
    assert q.stats.stale_deletes == 0
    assert q.approximate_size() == 0
    assert drive(env, q.receive()) is None


def test_double_receive_rotates_receipts_monotonically():
    """Every receive mints a fresh receipt; only the newest deletes."""
    env = Environment()
    q = make_queue(env, visibility_timeout_s=2.0)
    drive(env, q.send("t"))
    receipts = []
    for _ in range(3):
        msg = drive(env, q.receive())
        assert msg is not None
        receipts.append(msg.receipt)
        env.run(until=env.now + 3.0)  # lapse the visibility window
    assert receipts == sorted(receipts)
    assert len(set(receipts)) == 3
    final = drive(env, q.receive())
    assert final.receive_count == 4
    # Each superseded receipt fails; the latest one wins.
    for stale in receipts:
        with pytest.raises(StaleReceiptError):
            drive(env, q.delete(replace(final, receipt=stale)))
    assert q.stats.stale_deletes == 3
    drive(env, q.delete(final))
    assert q.approximate_size() == 0


def test_sanitizer_leak_detection_on_abandoned_inflight_message():
    """The SanitizedEnvironment hook flags a receipt that went stale
    without the reappearance ever being accounted — a lost message."""
    from repro.lint.sanitizer import SanitizedEnvironment

    env = SanitizedEnvironment()
    q = make_queue(env, visibility_timeout_s=5.0)
    drive(env, q.send("a"))
    drive(env, q.send("b"))
    kept = drive(env, q.receive())
    abandoned = drive(env, q.receive())
    assert {kept.body, abandoned.body} == {"a", "b"}
    drive(env, q.delete(kept))
    env.run(until=env.now + 30.0)
    leaks = env.sanitizer_report().queue_leaks
    assert len(leaks) == 1
    assert f"message {abandoned.message_id} " in leaks[0]


def test_lost_delete_leaves_message_in_flight():
    """A dropped delete (delete_loss_probability=1) is metered and the
    message reappears after the visibility timeout — a benign duplicate,
    exactly how chaos windows model SQS losing deletes."""
    env = Environment()
    q = make_queue(env, visibility_timeout_s=5.0, delete_loss_probability=1.0)
    drive(env, q.send("a"))
    msg = drive(env, q.receive())
    drive(env, q.delete(msg))
    assert q.stats.lost_deletes == 1
    assert q.approximate_size() == 1  # still in flight, not deleted
    env.run(until=env.now + 10.0)
    again = drive(env, q.receive())
    assert again.body == "a"
    assert again.receive_count == 2


def test_delete_loss_defaults_off():
    """Two identically-seeded queues — one built before the feature
    existed (no kwarg), one with it explicitly off — delete through the
    same RNG states: the disabled guard consumes no draws, so seeded
    legacy runs stay byte-identical with the feature compiled in."""
    def play(**kwargs):
        env = Environment()
        q = make_queue(env, latency_sigma=0.35, **kwargs)
        drive(env, q.send("a"))
        msg = drive(env, q.receive())
        drive(env, q.delete(msg))
        assert q.stats.lost_deletes == 0
        assert q.approximate_size() == 0
        return env.now, q.rng.bit_generator.state

    assert play() == play(delete_loss_probability=0.0)


# -- poll(): the re-armed poll entry against a receive() loop -------------


def reference_poll(queue, keep_going, backoff_s, extra_latency_s=0.0,
                   backoff=None):
    """What :meth:`MessageQueue.poll` replaces: receive() in a loop with
    an ``env.timeout`` WAN delay and backoff."""
    env = queue.env
    while keep_going():
        msg = yield from queue.receive()
        if extra_latency_s:
            yield env.timeout(extra_latency_s)
        if msg is not None:
            return msg
        delay = backoff_s
        if backoff is not None:
            delay += backoff()
        yield env.timeout(delay)
    return None


POLL_CASES = {
    "empty-queue": dict(),
    "late-send": dict(send_at=7.3),
    "misses": dict(send_at=0.5, miss_probability=0.6),
    "wan-latency": dict(send_at=7.3, extra_latency_s=0.08),
    "jittered-backoff": dict(send_at=7.3, jitter=True),
}


def run_poller(poller, send_at=None, miss_probability=0.0,
               extra_latency_s=0.0, jitter=False):
    """One seeded poll against a fresh queue; everything observable."""
    env = Environment()
    q = make_queue(
        env,
        rng=np.random.default_rng(11),
        latency_sigma=0.35,
        propagation_delay_s=0.05,
        miss_probability=miss_probability,
    )
    backoff_rng = np.random.default_rng(3)
    backoff = (lambda: float(backoff_rng.uniform(0.0, 0.5))) if jitter else None
    if send_at is not None:
        def late_send():
            yield env.timeout(send_at)
            yield from q.send("late")

        env.process(late_send())
    msg = env.run(
        until=env.process(
            poller(
                q,
                lambda: env.now < 20.0,
                1.0,
                extra_latency_s=extra_latency_s,
                backoff=backoff,
            )
        )
    )
    return dict(
        message=None if msg is None else (msg.message_id, msg.receipt),
        now=env.now,
        events_scheduled=env.events_scheduled,
        stats=asdict(q.stats),
        rng=q.rng.bit_generator.state,
        backoff_rng=backoff_rng.bit_generator.state,
    )


@pytest.mark.parametrize("case", sorted(POLL_CASES))
def test_poll_matches_a_receive_loop(case):
    poll = run_poller(MessageQueue.poll, **POLL_CASES[case])
    assert poll == run_poller(reference_poll, **POLL_CASES[case])
    assert poll["stats"]["requests"] > 1
    if case == "empty-queue":
        assert poll["message"] is None
    else:
        assert poll["message"] is not None


def test_poll_told_to_stop_sends_no_request():
    env = Environment()
    q = make_queue(env)
    drive(env, q.send("t"))
    requests, scheduled = q.stats.requests, env.events_scheduled
    poller = q.poll(lambda: False, 1.0)
    with pytest.raises(StopIteration) as stop:
        next(poller)
    assert stop.value.value is None
    assert q.stats.requests == requests
    assert env.events_scheduled == scheduled


def test_poll_rejects_negative_delays():
    q = make_queue(Environment())
    with pytest.raises(ValueError):
        next(q.poll(lambda: True, -1.0))
    with pytest.raises(ValueError):
        next(q.poll(lambda: True, 1.0, extra_latency_s=-0.1))
