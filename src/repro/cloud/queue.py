"""Simulated distributed message queue (Amazon SQS / Azure Queue).

Semantics modelled straight from the paper's SQS description:

* **at-least-once, unordered** delivery — no FIFO guarantee; a receive
  returns *some* visible message (uniformly chosen);
* **eventual consistency** — a freshly sent message only becomes visible
  after a short propagation delay, and a receive may return empty even
  when messages exist (availability is only guaranteed *over multiple
  requests*);
* **visibility timeout** — a received message is hidden from other
  consumers until the timeout expires; if the consumer does not delete it
  in time, the message *reappears* and will be processed again (this is
  the Classic Cloud framework's entire fault-tolerance story);
* **receipt handles** — deletion requires the receipt from the most recent
  receive; a stale receipt fails, exactly like SQS after a reappearance;
* priced per API request.

Every operation is a DES process generator paying a request latency.

Idle polling is cheap: a :meth:`MessageQueue.poll` whose receive came
back empty, on a queue with nothing in view, is *parked* off the event
heap.  The queue replays its empty cycles — the same latency draws,
metered requests and backoffs, in the same order — right before
anything next observes or changes the queue.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Generator

import numpy as np

from repro.cloud.billing import CostMeter
from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment, Event, IdleWait

__all__ = ["Message", "MessageQueue", "QueueStats", "StaleReceiptError"]


class StaleReceiptError(RuntimeError):
    """Delete attempted with a receipt that is no longer current."""


@dataclass
class Message:
    """A queue message as seen by a consumer."""

    message_id: int
    body: Any
    enqueued_at: float
    receive_count: int = 0
    receipt: int = 0  # changes on every receive
    first_received_at: float | None = None
    visible_at: float = 0.0  # authoritative next-visible time


@dataclass
class QueueStats:
    """Observable counters for tests and experiments."""

    sent: int = 0
    received: int = 0
    empty_receives: int = 0
    deleted: int = 0
    reappearances: int = 0
    duplicate_deliveries: int = 0
    stale_deletes: int = 0
    lost_deletes: int = 0  # delete requests dropped by chaos injection
    dead_lettered: int = 0
    requests: int = 0  # every priced API request (send/receive/delete/...)


class MessageQueue:
    """One simulated SQS queue / Azure queue."""

    def __init__(
        self,
        env: Environment,
        name: str,
        rng: np.random.Generator,
        meter: CostMeter | None = None,
        visibility_timeout_s: float = 300.0,
        request_latency_s: float = 0.020,
        latency_sigma: float = 0.35,
        propagation_delay_s: float = 0.050,
        miss_probability: float = 0.02,
        duplicate_probability: float = 0.0,
        delete_loss_probability: float = 0.0,
        max_receive_count: int | None = None,
        dead_letter_queue: "MessageQueue | None" = None,
    ):
        """Create a queue.

        ``visibility_timeout_s`` is the default hide window after a receive.
        ``propagation_delay_s`` is how long a sent message takes to become
        receivable.  ``miss_probability`` is the chance a receive returns
        empty despite visible messages (eventual-consistency artefact).
        ``duplicate_probability`` is the chance a received message is *also*
        left visible (at-least-once duplication artefact).
        ``delete_loss_probability`` is the chance a delete request is
        silently dropped server-side: the client believes the message is
        gone, but it stays in flight and reappears after the visibility
        timeout — a benign duplicate, the way real SQS loses deletes.
        :mod:`repro.chaos` raises it during queue-chaos windows.

        ``max_receive_count`` with ``dead_letter_queue`` configures an
        SQS-style redrive policy: a message received more than
        ``max_receive_count`` times without deletion moves to the DLQ
        instead of reappearing — the defence against *poison tasks*
        (tasks that crash every worker), which the paper's "rare
        re-execution is harmless" argument does not cover.
        """
        if max_receive_count is not None and max_receive_count < 1:
            raise ValueError("max_receive_count must be >= 1")
        self.env = env
        self.name = name
        self._rng = rng
        self._bit_generator = rng.bit_generator
        # Bound method caches for the per-request hot path.
        self._lognormal = rng.lognormal
        # Past the first few draws of a run of latency draws, they come
        # in blocks of lognormal(size=n), which match n scalar draws bit
        # for bit.  _lat_state is the generator state before the block,
        # so _rewind() can undo the unconsumed tail before any other
        # draw.
        self._lat_block: list[float] = []
        self._lat_next = 0
        self._lat_streak = 0  # latency draws since another draw
        self._lat_state: dict | None = None
        self.meter = meter
        self.visibility_timeout_s = visibility_timeout_s
        self.request_latency_s = request_latency_s
        self.latency_sigma = latency_sigma
        self.propagation_delay_s = propagation_delay_s
        self.miss_probability = miss_probability
        self.duplicate_probability = duplicate_probability
        self.delete_loss_probability = delete_loss_probability
        self.max_receive_count = max_receive_count
        self.dead_letter_queue = dead_letter_queue
        self._stats = QueueStats()
        # Metrics instruments fetched once; null no-ops unless a caller
        # wrapped this run in repro.obs.observe().
        obs = _current_obs()
        metrics = obs.metrics
        self._m_requests = metrics.counter(f"queue.{name}.requests")
        self._m_depth = metrics.gauge(f"queue.{name}.depth")
        # Timeline sampling: depth over sim time (null no-op by default).
        self._timeline = obs.timeline
        self._tl_depth = f"queue.{name}.depth"
        self._m_redeliveries = metrics.counter(f"queue.{name}.redeliveries")
        self._m_dead_letters = metrics.counter(f"queue.{name}.dead_letters")
        self._m_empty_receives = metrics.counter(f"queue.{name}.empty_receives")
        self._ids = itertools.count()
        self._receipts = itertools.count(1)
        self._messages: dict[int, Message] = {}
        # (visible_at, seq, message_id): both fresh sends and in-flight
        # (invisible) messages wait here until their visible_at.
        self._pending: list[tuple[float, int, int]] = []
        self._seq = itertools.count()
        self._visible: list[int] = []
        self._inflight: dict[int, int] = {}  # message_id -> current receipt
        # Parked pollers: (next wake, tiebreak, entry).  A poller parks
        # only after an empty check with nothing in view.
        self._parked: list[tuple[float, int, _PollEntry]] = []
        self._park_ids = itertools.count()
        # The one live wake-up for the parked pollers: at the earlier of
        # the pending head and _bound_min (a lower bound on the parked
        # pollers' stable_until) or, while a message is in view, at the
        # next parked wake.  Wake-ups are numbered; only the latest one
        # armed is live (a number, not the event, so the queue and its
        # wake-up form no reference cycle).
        self._sentinels = 0
        self._sentinel_at = math.inf
        self._bound_min = math.inf
        env._run_hooks.append(self._settle)
        # Sanitizer hook: a SanitizedEnvironment enrols the queue in
        # stale-receipt leak detection (repro.lint.sanitizer).
        register = getattr(env, "register_queue", None)
        if register is not None:
            register(self)

    # -- inspection of counters and the generator -------------------------------
    @property
    def stats(self) -> QueueStats:
        """The queue's counters, with parked idle cycles replayed up to now."""
        self._catch_up(self.env._now)
        return self._stats

    @property
    def rng(self) -> np.random.Generator:
        """The queue's generator, positioned exactly after the draws the
        queue has taken up to now (unused block draws undone)."""
        self._catch_up(self.env._now)
        self._rewind()
        return self._rng

    # -- internals --------------------------------------------------------------
    def _latency(self) -> float:
        index = self._lat_next
        if index == len(self._lat_block):
            return self.request_latency_s * self._draw_latency()
        self._lat_next = index + 1
        return self.request_latency_s * self._lat_block[index]

    def _draw_latency(self) -> float:
        """One lognormal factor once the block is used up: a scalar draw
        early in a run of latency draws, else the head of a new block
        (twice the size of the last one)."""
        streak = self._lat_streak
        if streak < _SCALAR_LATENCY_DRAWS:
            self._lat_streak = streak + 1
            return float(self._lognormal(0.0, self.latency_sigma))
        size = min(streak, _LATENCY_BLOCK_MAX)
        self._lat_streak = streak + size
        self._lat_state = self._bit_generator.state
        self._lat_block = block = self._lognormal(
            0.0, self.latency_sigma, size=size
        ).tolist()
        self._lat_next = 1
        return block[0]

    def _rewind(self) -> None:
        """Leave the generator right after the latency draws consumed so
        far.  Runs before every other draw from it."""
        consumed = self._lat_next
        if consumed < len(self._lat_block):
            self._bit_generator.state = self._lat_state
            self._lognormal(0.0, self.latency_sigma, size=consumed)
        self._lat_block = []
        self._lat_next = 0
        self._lat_streak = 0

    def _meter_request(self) -> None:
        self._stats.requests += 1
        self._m_requests.inc()
        if self.meter is not None:
            self.meter.record_queue_request()

    def _set_depth(self) -> None:
        depth = len(self._messages)
        self._m_depth.set(depth)
        self._timeline.sample(self._tl_depth, self.env.now, depth)

    def _push_pending(self, visible_at: float, message_id: int) -> None:
        """Schedule a message to come into view at ``visible_at``."""
        heapq.heappush(self._pending, (visible_at, next(self._seq), message_id))
        if self._parked and visible_at < self._sentinel_at:
            self._arm_sentinel()

    def _promote_due(self) -> None:
        """Move pending messages whose visible_at has passed into view."""
        while self._pending and self._pending[0][0] <= self.env.now:
            entry_time, _, message_id = heapq.heappop(self._pending)
            message = self._messages.get(message_id)
            if message is None:
                continue  # deleted while pending
            if entry_time < message.visible_at:
                continue  # superseded by a visibility extension
            was_inflight = self._inflight.pop(message_id, None)
            if was_inflight is not None:
                self._stats.reappearances += 1
                self._m_redeliveries.inc()
                # Redrive policy: poison messages go to the DLQ instead
                # of reappearing forever.
                if (
                    self.max_receive_count is not None
                    and message.receive_count >= self.max_receive_count
                ):
                    del self._messages[message_id]
                    self._stats.dead_lettered += 1
                    self._m_dead_letters.inc()
                    self._set_depth()
                    if self.dead_letter_queue is not None:
                        self.dead_letter_queue._accept_dead_letter(message)
                    continue
            if message_id not in self._visible:
                self._visible.append(message_id)

    # -- parked pollers -----------------------------------------------------------
    def _catch_up(self, horizon: float) -> None:
        """Replay the parked pollers' idle cycles that wake before
        ``horizon``, in wake-time order.

        Each replayed cycle is what the heap entry would have done: one
        metered request and latency draw at the wake; when its check
        falls before ``horizon``, one empty receive, one backoff and the
        next wake ``(check + extra latency) + delay``.  A check at or
        after ``horizon`` goes back on the heap at that time, because it
        may see what the caller is about to change.  The sentinel keeps
        ``horizon`` at or before the next time a message can come into
        view, so every replayed check is empty.
        """
        parked = self._parked
        if not parked or parked[0][0] >= horizon:
            return
        requests = empties = 0
        latency_s = self.request_latency_s
        block = self._lat_block
        index = self._lat_next
        end = len(block)
        park_ids = self._park_ids
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        while parked:
            wake, _, entry = parked[0]
            if wake >= horizon:
                break
            requests += 1
            if index < end:
                check = wake + latency_s * block[index]
                index += 1
            else:
                self._lat_next = index
                check = wake + latency_s * self._draw_latency()
                block = self._lat_block
                index = self._lat_next
                end = len(block)
            if check >= horizon:
                heappop(parked)
                entry._arm_at(check, _CHECK)
                continue
            empties += 1
            backoff = entry._backoff
            if backoff is None:
                delay = entry._backoff_s
            else:
                delay = entry._backoff_s + backoff()
            wake = (check + entry._extra_latency_s) + delay
            if wake < entry._stable_until:
                heapreplace(parked, (wake, next(park_ids), entry))
            else:
                heappop(parked)
                entry._arm_at(wake, _WAKE)
        self._lat_next = index
        self._stats.requests += requests
        self._m_requests.inc(requests)
        if self.meter is not None:
            self.meter.record_queue_request(requests)
        self._stats.empty_receives += empties
        self._m_empty_receives.inc(empties)

    def _park(self, entry: "_PollEntry", wake: float) -> None:
        heapq.heappush(self._parked, (wake, next(self._park_ids), entry))
        if entry._stable_until < self._bound_min:
            self._bound_min = entry._stable_until
        self._arm_sentinel()

    def _arm_sentinel(self) -> None:
        """Make sure a wake-up fires by the earlier of the pending head
        and the parked pollers' time bound."""
        at = self._bound_min
        if self._pending and self._pending[0][0] < at:
            at = self._pending[0][0]
        self._arm_sentinel_at(at)

    def _arm_sentinel_at(self, at: float) -> None:
        if at < self._sentinel_at:
            # A stale _bound_min can lie in the past.
            at = max(at, self.env._now)
            self._sentinel_at = at
            self._sentinels += 1
            self.env._enqueue_at(_Sentinel(self, self._sentinels), at)

    def _on_sentinel(self, sentinel: "_Sentinel") -> None:
        if sentinel._number != self._sentinels:
            return  # superseded by an earlier wake-up
        self._sentinel_at = math.inf
        if not self._parked:
            return
        now = self.env._now
        self._catch_up(now)
        pending = self._pending
        while pending and pending[0][0] <= now:
            entry_time, _, message_id = pending[0]
            message = self._messages.get(message_id)
            if message is not None and entry_time >= message.visible_at:
                break  # it comes into view at the next check
            heapq.heappop(pending)  # dropped unseen by _promote_due too
        if self._visible or (pending and pending[0][0] <= now):
            # Something is in view: until a check takes it, each parked
            # poller's wake runs on time, here, and its check on the
            # heap takes (or redrives) what it finds.
            while self._parked and self._parked[0][0] <= now:
                heapq.heappop(self._parked)[2]._wake()
            if self._parked:
                self._arm_sentinel_at(self._parked[0][0])
            return
        if now >= self._bound_min:
            self._bound_min = min(
                (entry._stable_until for _, _, entry in self._parked),
                default=math.inf,
            )
        if self._parked:
            self._arm_sentinel()

    def _abandon(self, entry: "_PollEntry") -> None:
        """The poller on ``entry`` is being interrupted: replay its
        cycles (and everyone's) up to now, then forget it."""
        self._catch_up(self.env._now)
        parked = self._parked
        if any(item[2] is entry for item in parked):
            self._parked = [item for item in parked if item[2] is not entry]
            heapq.heapify(self._parked)

    def _settle(self, horizon: float) -> None:
        """Run hook: complete the counters and the generator at the end
        of :meth:`Environment.run`."""
        self._catch_up(horizon)
        self._rewind()

    def recheck(self) -> None:
        """Re-evaluate parked pollers' ``keep_going`` now.

        Call this after flipping anything a parked poller's
        ``keep_going`` reads (a completion count, a stop flag, a host's
        state).  Pollers whose ``keep_going()`` is now false go back on
        the heap at their next wake, where they stop exactly as an eager
        poll loop would.
        """
        if not self._parked:
            return
        self._catch_up(self.env._now)
        stay, leave = [], []
        for item in self._parked:
            (stay if item[2]._keep_going() else leave).append(item)
        if leave:
            heapq.heapify(stay)
            self._parked = stay
            for wake, _, entry in sorted(leave):
                entry._arm_at(wake, _WAKE)

    # -- operations ---------------------------------------------------------------
    def send(self, body: Any) -> Generator:
        """Enqueue a message (process).  Returns its message id."""
        self._catch_up(self.env._now)
        self._meter_request()
        yield self.env.timeout(self._latency())
        message_id = next(self._ids)
        visible_at = self.env.now + self.propagation_delay_s
        self._messages[message_id] = Message(
            message_id=message_id,
            body=body,
            enqueued_at=self.env.now,
            visible_at=visible_at,
        )
        self._push_pending(visible_at, message_id)
        self._stats.sent += 1
        self._set_depth()
        return message_id

    def _accept_dead_letter(self, message: Message) -> None:
        """Server-side redrive: take a poison message from a source
        queue (no client request, no latency)."""
        self._catch_up(self.env._now)
        message_id = next(self._ids)
        self._messages[message_id] = Message(
            message_id=message_id,
            body=message.body,
            enqueued_at=self.env.now,
            receive_count=message.receive_count,
            visible_at=self.env.now,
        )
        self._push_pending(self.env.now, message_id)
        self._stats.sent += 1
        self._set_depth()

    def send_batch(self, bodies: list[Any]) -> Generator:
        """Enqueue up to 10 messages in one API request (process).

        Mirrors SQS ``SendMessageBatch``: one metered request and one
        round-trip latency for the whole batch.  Returns the message ids.
        """
        if not 1 <= len(bodies) <= 10:
            raise ValueError("batch size must be 1..10")
        self._catch_up(self.env._now)
        self._meter_request()
        yield self.env.timeout(self._latency())
        ids = []
        for body in bodies:
            message_id = next(self._ids)
            visible_at = self.env.now + self.propagation_delay_s
            self._messages[message_id] = Message(
                message_id=message_id,
                body=body,
                enqueued_at=self.env.now,
                visible_at=visible_at,
            )
            self._push_pending(visible_at, message_id)
            self._stats.sent += 1
            ids.append(message_id)
        self._set_depth()
        return ids

    def receive(self, visibility_timeout_s: float | None = None) -> Generator:
        """Receive one message (process).

        Returns a :class:`Message` (with a fresh receipt) or ``None`` on an
        empty receive.  The message is hidden for ``visibility_timeout_s``
        (queue default if omitted).
        """
        self._catch_up(self.env._now)
        self._meter_request()
        yield self.env.timeout(self._latency())
        self._catch_up(self.env._now)
        self._promote_due()
        if self._visible:
            return self._take(visibility_timeout_s)
        self._empty()
        return None

    def poll(
        self,
        keep_going: Callable[[], bool],
        backoff_s: float,
        extra_latency_s: float = 0.0,
        backoff: Callable[[], float] | None = None,
        stable_until: float | None = None,
    ) -> Generator:
        """Receive until a message arrives (process).  Returns the first
        :class:`Message` taken, or ``None`` once ``keep_going()`` is
        false at the top of a cycle (checked before any request is sent).

        Each cycle is one metered request, the check, an optional
        ``extra_latency_s`` wait (a WAN round trip, after every check)
        and, on an empty receive, a wait of ``backoff_s`` plus
        ``backoff()`` when given.  The cycles run on one re-armed heap
        entry rather than a generator round trip per request; without
        ``stable_until`` they schedule exactly what a loop of
        :meth:`receive` and ``env.timeout`` calls would, at the same
        ``(time, sequence)`` slots, with the same RNG draws in the same
        order.

        ``stable_until`` declares what ``keep_going`` reads: it promises
        that ``keep_going()`` keeps its value before that simulated time
        unless the owner calls :meth:`recheck`.  With it, a poller whose
        receive came back empty while nothing is in view parks off the
        heap, and the queue replays its cycles exactly when it is next
        observed.  ``None`` (the default) promises nothing: every cycle
        runs on the heap.
        """
        if backoff_s < 0 or extra_latency_s < 0:
            raise ValueError("poll delays must be non-negative")
        if not keep_going():
            return None
        waiter = _PollWaiter(self.env)
        waiter._entry = entry = _PollEntry(
            self,
            waiter,
            keep_going,
            backoff_s,
            extra_latency_s,
            backoff,
            stable_until,
        )
        entry._request()
        return (yield waiter)

    def _take(self, visibility_timeout_s: float | None = None) -> Message | None:
        """Take one visible message: the miss draw, the index draw, the
        duplicate draw, then hide it.  ``None`` on an eventual-
        consistency miss.  Needs at least one visible message."""
        self._rewind()
        rng = self._rng
        if self.miss_probability and rng.random() < self.miss_probability:
            self._empty()
            return None
        index = int(rng.integers(len(self._visible)))
        message_id = self._visible[index]
        message = self._messages[message_id]
        message.receive_count += 1
        if message.receive_count > 1:
            self._stats.duplicate_deliveries += 1
        if message.first_received_at is None:
            message.first_received_at = self.env.now
        message.receipt = next(self._receipts)
        timeout = (
            self.visibility_timeout_s
            if visibility_timeout_s is None
            else visibility_timeout_s
        )
        duplicated = (
            self.duplicate_probability
            and rng.random() < self.duplicate_probability
        )
        if not duplicated:
            self._visible.pop(index)
            self._inflight[message_id] = message.receipt
            message.visible_at = self.env.now + timeout
            self._push_pending(message.visible_at, message_id)
        self._stats.received += 1
        # Hand back a snapshot: the receipt of *this* receive must not
        # mutate when the message is later re-received by someone else.
        return replace(message)

    def _empty(self) -> None:
        """Count one empty receive."""
        self._stats.empty_receives += 1
        self._m_empty_receives.inc()

    def delete(self, message: Message) -> Generator:
        """Delete a received message (process).

        Fails with :class:`StaleReceiptError` if the message reappeared and
        was re-received since this receipt was issued — the later consumer
        now owns it.
        """
        self._catch_up(self.env._now)
        self._meter_request()
        yield self.env.timeout(self._latency())
        self._catch_up(self.env._now)
        # Chaos: the request is metered and paid for, but the server
        # never processes it — the message stays in flight and will
        # reappear after the visibility timeout (benign duplicate).
        if self.delete_loss_probability:
            self._rewind()
            if self._rng.random() < self.delete_loss_probability:
                self._stats.lost_deletes += 1
                return
        current = self._inflight.get(message.message_id)
        if current is not None and current != message.receipt:
            self._stats.stale_deletes += 1
            raise StaleReceiptError(
                f"receipt {message.receipt} superseded by {current}"
            )
        self._inflight.pop(message.message_id, None)
        if self._messages.pop(message.message_id, None) is not None:
            self._stats.deleted += 1
            self._set_depth()
        if message.message_id in self._visible:
            self._visible.remove(message.message_id)

    # -- inspection (no simulated time) ---------------------------------------
    def peek_bodies(self) -> list[Any]:
        """Bodies of all undeleted messages (test/diagnostic helper)."""
        return [m.body for m in self._messages.values()]

    def approximate_size(self) -> int:
        """Messages not yet deleted (visible + in flight + propagating)."""
        return len(self._messages)

    def visible_now(self) -> int:
        """Messages receivable at this instant (test helper)."""
        self._catch_up(self.env._now)
        self._promote_due()
        return len(self._visible)


#: Latency draws after another draw that stay scalar: busy stretches
#: interleave latency and take draws, and a block would be undone
#: (_rewind) almost whole.  Past them, blocks double up to the maximum.
_SCALAR_LATENCY_DRAWS = 16
_LATENCY_BLOCK_MAX = 1024

# _PollEntry phases: what the entry does when it next fires.
_CHECK, _WAN, _WAKE = range(3)


class _PollWaiter(IdleWait):
    """The event a poller waits on; an interrupt hands its entry back to
    the queue (:meth:`MessageQueue._abandon`).  The waiter points at its
    entry only while the poll is outstanding: resuming or abandoning it
    unlinks the two, so no poll leaves a reference cycle behind."""

    __slots__ = ("_entry",)

    def _abandoned(self) -> None:
        entry, self._entry = self._entry, None
        entry._queue._abandon(entry)


class _Sentinel(Event):
    """The parked pollers' wake-up: fires at the earlier of the pending
    head and their time bound and, while a message is in view, at each
    parked wake (:meth:`MessageQueue._on_sentinel`)."""

    __slots__ = ("_queue", "_number")

    #: Label in the sanitizer's event trace.
    name = "queue.wake"

    def __init__(self, queue: MessageQueue, number: int):
        self.env = queue.env
        self.callbacks = None
        self._ok = True
        self._value = None
        self._processed = False
        self._queue = queue
        self._number = number

    def _run_callbacks(self) -> None:
        self._processed = True
        self._queue._on_sentinel(self)


class _PollEntry(Event):
    """One poller's heap entry, re-armed in place for every step of
    :meth:`MessageQueue.poll`.

    Each step is one ``env._enqueue`` of this entry: the request latency
    (then the check), the optional WAN delay, the backoff (then the
    wake).  No Timeout, callback list or generator resume is spent per
    step.  The entry resumes the poller parked on ``waiter`` inline —
    the way a fired Timeout resumes its process — when it takes a
    message or ``keep_going()`` turns false.  If the poller was
    interrupted (``Process.interrupt`` detaches it from ``waiter``),
    an armed entry fires once more as a no-op and is not re-armed.

    After an empty check with nothing in view, an entry that
    :meth:`_may_park` leaves the heap and waits in the queue's parked
    heap instead; the queue re-arms it (``_arm_at``) or runs its wake
    (``_wake``) when its next step can see something.

    ``_processed`` stays False across re-arms; the sanitizer catches an
    entry armed twice for one cycle by tracking what is in its heap.
    """

    __slots__ = (
        "_queue",
        "_waiter",
        "_keep_going",
        "_backoff_s",
        "_extra_latency_s",
        "_backoff",
        "_stable_until",
        "_phase",
        "_message",
    )

    #: Label in the sanitizer's event trace.
    name = "queue.poll"

    def __init__(
        self,
        queue: MessageQueue,
        waiter: Event,
        keep_going: Callable[[], bool],
        backoff_s: float,
        extra_latency_s: float,
        backoff: Callable[[], float] | None,
        stable_until: float | None,
    ):
        self.env = queue.env
        self.callbacks = None
        self._ok = True
        self._value = None
        self._processed = False
        self._queue = queue
        self._waiter = waiter
        self._keep_going = keep_going
        self._backoff_s = backoff_s
        self._extra_latency_s = extra_latency_s
        self._backoff = backoff
        self._stable_until = stable_until
        self._message: Message | None = None

    def _request(self) -> None:
        queue = self._queue
        queue._catch_up(self.env._now)
        queue._meter_request()
        self._phase = _CHECK
        self.env._enqueue(self, queue._latency())

    def _arm_at(self, time: float, phase: int) -> None:
        self._phase = phase
        self.env._enqueue_at(self, time)

    def _wake(self) -> None:
        """Run this parked poller's wake step now, off the heap."""
        self._phase = _WAKE
        self._run_callbacks()

    def _may_park(self) -> bool:
        """Whether this poller may leave the heap after an empty receive
        with nothing in view: it declared ``stable_until`` and its
        ``keep_going()`` holds now.  Evaluated at the check, so a flip
        while the request was in flight keeps the poller on the heap."""
        return self._stable_until is not None and self._keep_going()

    def _resume_poller(self, message: Message | None) -> None:
        waiter = self._waiter
        waiter._entry = None
        waiter._value = message
        waiter._ok = True
        waiter._run_callbacks()

    def _run_callbacks(self) -> None:
        if not self._waiter.callbacks:
            return  # the poller was interrupted: fire as a no-op
        phase = self._phase
        if phase == _CHECK:
            queue = self._queue
            queue._catch_up(self.env._now)
            queue._promote_due()
            if queue._visible:
                message = queue._take()
            else:
                queue._empty()
                message = None
                if self._may_park():
                    self._park_or_wait()
                    return
            if self._extra_latency_s:
                self._message = message
                self._phase = _WAN
                self.env._enqueue(self, self._extra_latency_s)
                return
        elif phase == _WAN:
            message = self._message
        else:  # _WAKE
            if self._keep_going():
                self._request()
            else:
                self._resume_poller(None)
            return
        if message is not None:
            self._resume_poller(message)
            return
        delay = self._backoff_s
        if self._backoff is not None:
            delay += self._backoff()
        self._phase = _WAKE
        self.env._enqueue(self, delay)

    def _park_or_wait(self) -> None:
        """After an empty check: park until the next wake, or — when a
        pending message or the time bound comes first — wait for it on
        the heap."""
        queue = self._queue
        delay = self._backoff_s
        if self._backoff is not None:
            delay += self._backoff()
        wake = (self.env._now + self._extra_latency_s) + delay
        pending = queue._pending
        if wake < self._stable_until and not (pending and pending[0][0] <= wake):
            queue._park(self, wake)
        else:
            self._arm_at(wake, _WAKE)
