//! The engine's event calendar: the pending-event set behind the
//! dispatch loop.
//!
//! The calendar holds what is neither a same-instant hop nor a
//! fixed-delay delivery — timers, jittered delays, whatever
//! `Engine::schedule` files from outside a run; those two kinds of
//! emission wait in the engine's FIFO lanes (see [`crate::engine`]) and
//! never reach it. The dispatch loop asks three things of its calendar,
//! each with a **single probe** of the structure:
//!
//! * accept an event ([`Calendar::push`]), new or back from a lost tie;
//! * surrender the earliest event unless it lies beyond a bound — the
//!   run's horizon or the earliest lane front
//!   ([`Calendar::pop_not_after`]): one head lookup decides both "is
//!   it due?" and "which one?", half the work of asking
//!   [`Calendar::next_time`] and then [`Calendar::pop`];
//! * say whether anything is pending at the clock's own instant
//!   ([`Calendar::next_is_at`]), once per instant, so the engine learns
//!   its same-instant events have nothing to be ordered against. Nothing
//!   precedes the clock, so the wheel answers from the one bucket the
//!   instant maps to — which the pop before it just walked.
//!
//! *Earliest* always means minimal `(time, seq)`, the total order that
//! makes simultaneous events fire in scheduling order and replays
//! bit-exact. Every time is finite and non-negative: `Engine::schedule`
//! and `Context::send` reject any other delay before it is filed.
//!
//! The engine owns one calendar type, [`WheelCalendar`]: a calendar
//! queue (Brown 1988) — a ring of buckets, each one *width* seconds
//! wide, with a cursor that sweeps forward in time. Steady-state
//! schedule and pop are O(1), which is what keeps 10⁴–10⁵ concurrent
//! flows affordable. Events beyond the ring's horizon wait in an
//! overflow heap and migrate in as the cursor approaches them.
//! [`Calendar`] and [`HeapCalendar`] stay public for two readers only:
//! the performance ledger's hold-model probes, which time the wheel
//! against the heap through the trait, and the property tests, which
//! check the wheel's pop order against the heap's.
//!
//! Every store holds the engine's packed record — time, payload and one
//! key, `seq << 16 | target`, ordered as `(time, seq)` since seqs are
//! unique — and the trait's [`Scheduled`] is packed on the way in and
//! unpacked on the way out, so [`WheelCalendar::push`] refuses a `seq`
//! or `target` the key cannot hold. The ring owns one allocation for
//! its events: a *slab* of slots, each a pending record plus the index
//! of the next slot in the same bucket (64 bytes for a 32-byte payload).
//! A bucket is the head of such a chain and its length — eight bytes,
//! `Copy`, owning nothing — and slots a pop vacates are threaded onto a
//! free list through the same link and handed to the next push. Ring
//! memory is therefore O(peak pending set), wherever in the ring those
//! events happened to land over the run; a ring of growable per-bucket
//! vectors instead keeps every bucket's high-water capacity forever
//! (176 MiB for a 5 MiB pending set at 10⁴ flows).
//!
//! Determinism is structural, not tuned: any monotone time→bucket
//! mapping plus an in-bucket `(time, seq)` minimum reproduces exactly
//! the heap's total order, so bucket count and width are pure
//! performance knobs — the golden corpus cannot move when they change.
//! The same argument covers where a bucket keeps its events: keys are
//! unique (seqs are), so the minimum of a chain is the same event in
//! whatever order pushes, pops, refits and slot reuse left the chain.

pub use crate::pending::Scheduled;
use crate::pending::{seq_of, Pending};
use std::collections::BinaryHeap;

/// The pending-event set contract the engine's dispatch loop runs on.
///
/// Implementations must serve events in ascending `(time, seq)` order.
/// The engine calls [`WheelCalendar`] directly; the trait exists so the
/// ledger's hold-model probes and the wheel's property tests can drive
/// the wheel and its [`HeapCalendar`] oracle through one interface.
///
/// The head reads (`next_time`, `next_key`) take `&mut self`
/// deliberately: the wheel locates its head by advancing a cursor (and
/// migrating overflow events into the ring), so even a read of the
/// head may reorganize internal state.
pub trait Calendar<E> {
    /// Creates a calendar pre-sized for about `events` pending events.
    /// The hint is a performance knob only — any value is correct.
    fn with_capacity(events: usize) -> Self
    where
        Self: Sized;

    /// Accepts a pending event at a finite, non-negative time (a NaN
    /// would poison the `(time, seq)` total order).
    fn push(&mut self, item: Scheduled<E>);

    /// Removes and returns the pending event with the smallest
    /// `(time, seq)`, or `None` when empty.
    fn pop(&mut self) -> Option<Scheduled<E>>;

    /// The delivery time of the event [`Calendar::pop`] would return,
    /// without removing it. `None` when empty.
    fn next_time(&mut self) -> Option<f64> {
        self.next_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` key of the event [`Calendar::pop`] would
    /// return, without removing it. `None` when empty.
    fn next_key(&mut self) -> Option<(f64, u64)>;

    /// Whether an event is pending at exactly `time`, asked by a caller
    /// who knows that none is pending before it (the engine asks about
    /// its clock) — so the event would be the head. Cheaper than
    /// [`Calendar::next_key`] where the head takes finding: the wheel
    /// looks only where `time` maps to.
    fn next_is_at(&mut self, time: f64) -> bool {
        self.next_key().is_some_and(|(head, _)| head == time)
    }

    /// [`Calendar::pop`], unless the earliest event's time lies
    /// strictly after `horizon` — then the calendar is left untouched
    /// and the answer is `None`. One probe of the structure serves
    /// both the comparison and the removal; tell "empty" from "not yet
    /// due" with [`Calendar::is_empty`].
    fn pop_not_after(&mut self, horizon: f64) -> Option<Scheduled<E>>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether the calendar is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reference calendar: a binary heap ordered by `(time, seq)`.
///
/// O(log n) per operation with perfect worst-case behavior — the
/// implementation the wheel must be indistinguishable from (modulo
/// speed). No engine runs on it: it is public only as the oracle of the
/// wheel's property tests and the baseline of the ledger's
/// `sim.heap_hold_ns_*` probe.
pub struct HeapCalendar<E> {
    heap: BinaryHeap<Scheduled<E>>,
}

impl<E> Calendar<E> for HeapCalendar<E> {
    fn with_capacity(events: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(events),
        }
    }

    fn push(&mut self, item: Scheduled<E>) {
        self.heap.push(item);
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop()
    }

    fn next_key(&mut self) -> Option<(f64, u64)> {
        self.heap.peek().map(|s| (s.time, s.seq))
    }

    fn pop_not_after(&mut self, horizon: f64) -> Option<Scheduled<E>> {
        if self.heap.peek()?.time > horizon {
            return None;
        }
        self.heap.pop()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Bucket-count floor: even a tiny sim gets a ring wide enough that
/// cursor sweeps stay cheap.
const MIN_BUCKETS: usize = 64;
/// A bucket this full, holding several times the wheel's average
/// occupancy, is a fitting miss (see
/// [`WheelCalendar::bucket_concentrated`]).
const CONCENTRATED_BUCKET: usize = 64;

/// Ticks holding at most this many events are served straight from
/// their bucket by linear min-scan — cheaper than heapifying for the
/// fitted steady state of a few events per tick (the fit aims at
/// 2 per bucket; `manyflow_10k` measures 4.4 slots scanned per bucket
/// pop). Bigger ticks (and ticks that keep receiving same-tick pushes)
/// drain into the `head` heap and are served at O(log k).
const SMALL_TICK: usize = 16;

/// Smallest tick width that keeps `time / width` comfortably inside
/// `u64` for times of magnitude `t`.
fn width_floor(t: f64) -> f64 {
    t.max(1.0) * 1e-12
}
/// Bucket-count ceiling: beyond this the ring's memory footprint buys
/// nothing — overflow migration amortizes the rest.
const MAX_BUCKETS: usize = 1 << 16;

/// The "no slot" link: end of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;

/// One ring bucket: the first slot of its chain and the chain's length.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    len: u32,
}

const EMPTY: Bucket = Bucket { head: NIL, len: 0 };

/// One slab slot: a [`Pending`] event and the link to the next slot
/// of its chain. The key sits outside the `Option`, so a min-scan reads
/// `(time, key)` without testing a tag; only the payload is optional,
/// `None` marking a slot on the free list (where `next` is the free
/// link and the key is stale).
struct Slot<E> {
    time: f64,
    key: u64,
    next: u32,
    event: Option<E>,
}

impl<E> Slot<E> {
    /// The slot's event, leaving the slot vacant; `None` if it was.
    fn take(&mut self) -> Option<Pending<E>> {
        let event = self.event.take()?;
        Some(Pending {
            time: self.time,
            key: self.key,
            event,
        })
    }
}

/// How often each storage path ran, so the tests can prove their
/// workloads reach the paths they claim to: big ticks drained into
/// `head`, concentration refits, pushes served from the free list.
#[cfg(test)]
#[derive(Clone, Copy, Default, Debug, PartialEq)]
struct PathCounts {
    drains: u64,
    refits: u64,
    slot_reuses: u64,
}

/// A calendar queue: O(1) steady-state schedule/pop.
///
/// Time is divided into *ticks* of `width` seconds; tick `t` hashes to
/// ring bucket `t mod n` (n a power of two). A monotone `cursor` names
/// the earliest tick any pending event may occupy, so the ring covers
/// the window `[cursor, cursor + n)` and exactly one tick maps to each
/// bucket within it — the cursor's bucket holds only the current
/// tick's events. Events beyond the window wait in an overflow heap and
/// migrate into the ring as the cursor sweeps forward.
///
/// Ring buckets are unordered staging, chained through one slab
/// (`slots`): a push takes a slot off the free list (or grows the slab
/// by one) and links it at its bucket's head; a pop unlinks the chain's
/// `(time, seq)` minimum and frees its slot, so the slab never holds
/// more slots than the ring's peak population. When the cursor reaches
/// a tick holding more than `SMALL_TICK` (16) events, its whole chain is
/// heapified into the small `head` heap (O(k)) and served in `(time,
/// seq)` order from there — sub-width-delay events that keep landing
/// on the current tick (a zero-delay hop chain, a same-time burst) push
/// straight into `head` at O(log k) instead of forcing a per-pop
/// re-scan of the bucket.
///
/// The first head access *fits* the ring: bucket count and width are
/// derived from the pending set (≈2 events per bucket over the dense
/// bulk of the observed span) and the `with_capacity` hint. One rule
/// fits it again: the cursor reaching a bucket that holds a large
/// multiple of the average load, which a refit splits by relinking
/// the slab in place. That decision depends only on the push/pop
/// sequence — never on wall clock — so runs stay deterministic, and
/// the pop order is `(time, seq)` regardless of the parameters chosen.
pub struct WheelCalendar<E> {
    buckets: Vec<Bucket>,
    /// The ring's only event store: every ring event, plus the slots
    /// pops have vacated.
    slots: Vec<Slot<E>>,
    /// Head of the free list threaded through vacated slots' `next`.
    free: u32,
    /// `buckets.len() - 1`; bucket index is `tick & mask`.
    mask: u64,
    /// Seconds per tick and its reciprocal (multiplication beats
    /// division on the hot path).
    width: f64,
    inv_width: f64,
    /// The earliest tick any pending event may occupy; never decreases
    /// between refits.
    cursor: u64,
    /// Events currently in the ring (excludes `head` and overflow).
    wheel_len: usize,
    /// The tick currently being served: the cursor bucket's events,
    /// heapified, plus any later push that clamps to the cursor while
    /// serving. Its top is the global minimum whenever it is non-empty.
    head: BinaryHeap<Pending<E>>,
    /// Events beyond the ring's window, plus everything before the
    /// first fit.
    overflow: BinaryHeap<Pending<E>>,
    fitted: bool,
    hint: usize,
    /// Pops since the last refit — a refit costs O(pending), so
    /// triggering one only after at least `len()` pops keeps the
    /// amortized cost O(1) per event however adversarial the schedule
    /// (`concentration_refits_are_amortized`). Saturated until the
    /// first refit: the first fit leaves the gate open.
    pops_since_refit: u64,
    /// Largest time ever pushed — a cheap running estimate of the
    /// pending set's span, used to predict whether a refit would
    /// actually split a concentrated bucket.
    t_max_seen: f64,
    #[cfg(test)]
    paths: PathCounts,
}

impl<E> WheelCalendar<E> {
    /// Maps a time to its absolute tick, saturating at `u64::MAX`: the
    /// cast truncates, which is `floor` for the non-negative.
    fn raw_tick(&self, time: f64) -> u64 {
        (time * self.inv_width) as u64
    }

    /// First tick *outside* the ring's current window.
    fn window_end(&self) -> u64 {
        self.cursor.saturating_add(self.buckets.len() as u64)
    }

    /// Files `item` under `tick`: a free slot if a pop left one,
    /// otherwise one more slab entry, linked at the bucket's head.
    #[inline]
    fn insert_wheel(&mut self, tick: u64, item: Pending<E>) {
        let bucket = &mut self.buckets[(tick & self.mask) as usize];
        let slot = Slot {
            time: item.time,
            key: item.key,
            next: bucket.head,
            event: Some(item.event),
        };
        let i = self.free;
        if i != NIL {
            let vacant = &mut self.slots[i as usize];
            self.free = vacant.next;
            *vacant = slot;
            bucket.head = i;
            #[cfg(test)]
            {
                self.paths.slot_reuses += 1;
            }
        } else {
            // `NIL` itself must never name a slot.
            assert!(self.slots.len() < NIL as usize, "calendar slab is full");
            bucket.head = self.slots.len() as u32;
            self.slots.push(slot);
        }
        bucket.len += 1;
        self.wheel_len += 1;
    }

    /// Moves chained slot `i` to the free list; returns its event and
    /// its chain successor (mending the chain is the caller's job).
    #[inline]
    fn release(&mut self, i: u32) -> (Pending<E>, u32) {
        let slot = &mut self.slots[i as usize];
        let item = slot.take().expect("a chained slot holds an event");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = i;
        (item, next)
    }

    /// Moves every overflow event whose tick has entered the window
    /// into the ring. Called whenever the cursor moves.
    fn migrate(&mut self) {
        let end = self.window_end();
        while let Some(head) = self.overflow.peek() {
            let tick = self.raw_tick(head.time).max(self.cursor);
            if tick >= end {
                break;
            }
            let item = self.overflow.pop().expect("peeked");
            self.insert_wheel(tick, item);
        }
    }

    /// Fits bucket count and width to the pending set, wherever it
    /// waits, then relinks the slab in place under the new window:
    /// each event whose tick falls inside is chained into its bucket,
    /// the rest move to `overflow`, and every vacant slot is threaded
    /// onto a fresh free list; `head` and in-window overflow events
    /// then migrate in. Called with at least one event pending.
    fn refit(&mut self) {
        let ring = self.slots.iter().filter(|s| s.event.is_some());
        let mut times: Vec<f64> = ring.map(|s| s.time).collect();
        times.extend(self.head.iter().chain(self.overflow.iter()).map(|s| s.time));
        let t_min = times.iter().fold(f64::INFINITY, |m, &t| m.min(t));
        let t_max = times.iter().fold(0.0, |m: f64, &t| m.max(t));

        let n = (times.len() * 2)
            .max(self.hint / 16)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Fit the width to the dense bulk of the pending set: the span
        // up to the 90th-percentile time. A min–max span is poisoned by
        // a sparse far tail (a sim ramping up holds its dense live
        // workload plus staggered start timers reaching minutes ahead),
        // which would inflate the width by orders of magnitude and pack
        // the steady state into giant buckets. The tail beyond the
        // window waits in overflow and migrates in as the cursor
        // advances.
        let mut width = 1.0;
        if times.len() >= 2 {
            let k = ((times.len() * 9) / 10).min(times.len() - 1);
            let (_, q, _) = times.select_nth_unstable_by(k, |a, b| a.total_cmp(b));
            let span = *q - t_min;
            let full_span = t_max - t_min;
            // ≈2 events per bucket over the covered span; the window
            // then covers the bulk (n ≥ 2·len ⇒ n·width ≥ 4·span)
            // unless n hit its ceiling, where overflow migration picks
            // up the rest. The floor keeps `time / width` far below
            // 2^64 even when the pending set is packed into a sliver
            // of time, so tick arithmetic never saturates.
            let fitted = if span > 0.0 {
                2.0 * span / (k + 1) as f64
            } else if full_span > 0.0 {
                2.0 * full_span / times.len() as f64
            } else {
                1.0
            };
            width = fitted.max(width_floor(t_max));
        }

        self.buckets.clear();
        self.buckets.resize(n, EMPTY);
        self.mask = n as u64 - 1;
        self.width = width;
        self.inv_width = width.recip();
        self.cursor = self.raw_tick(t_min);
        self.wheel_len = 0;
        if self.fitted {
            self.pops_since_refit = 0;
        }
        self.fitted = true;

        let (end, cursor, inv_width) = (self.window_end(), self.cursor, self.inv_width);
        self.free = NIL;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let tick = ((slot.time * inv_width) as u64).max(cursor);
            if slot.event.is_some() && tick < end {
                let bucket = &mut self.buckets[(tick & self.mask) as usize];
                slot.next = std::mem::replace(&mut bucket.head, i as u32);
                bucket.len += 1;
                self.wheel_len += 1;
            } else {
                self.overflow.extend(slot.take());
                slot.next = std::mem::replace(&mut self.free, i as u32);
            }
        }
        self.overflow.extend(self.head.drain());
        self.migrate();
        // Only events past the window stay: hand back the rest of the
        // buffer, which held every event before the first fit.
        self.overflow.shrink_to_fit();
    }

    /// True when the cursor bucket holds several times the wheel's
    /// average occupancy with a nonzero time spread — the signature of
    /// a width fitted against an unrepresentative set (e.g. the sparse
    /// staggered start timers of a sim whose steady state is thousands
    /// of times denser), which packs the live workload into giant
    /// buckets re-sorted on every pop. The pop-count gate amortizes
    /// the O(pending) refit.
    fn bucket_concentrated(&self, b: usize) -> bool {
        let blen = self.buckets[b].len as usize;
        let total = self.len();
        let avg = (total / self.buckets.len()).max(1);
        if blen < CONCENTRATED_BUCKET || blen < avg * 8 || self.pops_since_refit < total as u64 {
            return false;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut i = self.buckets[b].head;
        while i != NIL {
            let slot = &self.slots[i as usize];
            lo = lo.min(slot.time);
            hi = hi.max(slot.time);
            i = slot.next;
        }
        if hi <= lo {
            return false;
        }
        // Only worth an O(pending) refit if the refitted width —
        // ≈2·span/len over the pending set, no finer than the floor —
        // would split this bucket into several. A tight burst (a 64-way
        // fan-out within a microsecond) concentrates under any sane
        // width; refitting for it would churn forever.
        let span_est = (self.t_max_seen - lo).max(hi - lo);
        let refit_width = (2.0 * span_est / total as f64).max(width_floor(self.t_max_seen));
        hi - lo > 2.0 * refit_width
    }

    /// Locates the globally-minimal pending event, advancing the
    /// cursor (and migrating overflow) as needed. Small ticks are
    /// served in place from their bucket; large ones are heapified
    /// into `head` first.
    fn locate(&mut self) -> Location {
        if !self.fitted {
            self.refit();
        }
        loop {
            if !self.head.is_empty() {
                return Location::Head;
            }
            if self.wheel_len > 0 {
                let b = (self.cursor & self.mask) as usize;
                if self.buckets[b].len != 0 {
                    if self.bucket_concentrated(b) {
                        // Refit the width to the pending set as it
                        // looks now. The minimum lands back inside the
                        // fresh window, so the loop always finds it.
                        #[cfg(test)]
                        {
                            self.paths.refits += 1;
                        }
                        self.refit();
                        continue;
                    }
                    if self.buckets[b].len as usize <= SMALL_TICK {
                        // The fitted common case: a couple of events
                        // in the tick. A linear min-scan beats any sort
                        // or heap shuffle.
                        return Location::Bucket(b);
                    }
                    // A big tick — a same-time burst or a zero-delay
                    // chain magnet. Serve it through the head heap:
                    // O(k) heapify now, O(log k) per pop/push while
                    // the tick drains; same-tick pushes join the heap
                    // directly instead of re-sorting a bucket.
                    let chain = std::mem::replace(&mut self.buckets[b], EMPTY);
                    self.wheel_len -= chain.len as usize;
                    let mut staging = std::mem::take(&mut self.head).into_vec();
                    staging.reserve(chain.len as usize);
                    let mut i = chain.head;
                    while i != NIL {
                        let (item, next) = self.release(i);
                        staging.push(item);
                        i = next;
                    }
                    self.head = BinaryHeap::from(staging);
                    #[cfg(test)]
                    {
                        self.paths.drains += 1;
                    }
                    return Location::Head;
                }
                self.cursor += 1;
                self.migrate();
            } else {
                // Only overflow holds events. Jump the cursor straight
                // to its head's tick — stepping bucket-by-bucket across
                // a long idle gap would cost O(gap / width).
                let Some(head) = self.overflow.peek() else {
                    return Location::Overflow;
                };
                self.cursor = self.raw_tick(head.time).max(self.cursor);
                self.migrate();
                if self.wheel_len == 0 {
                    // The tick saturated past the window's end (times
                    // near the u64 horizon); such events can never
                    // enter the ring. The overflow head is the global
                    // minimum.
                    return Location::Overflow;
                }
            }
        }
    }

    /// The slot linking to non-empty bucket `b`'s minimal `(time, seq)`
    /// event (`NIL` at the chain's head), and that event's slot. A
    /// one-event chain — all a sim with a handful of pending events
    /// sees — is answered here; longer ones pay for the scan's call.
    #[inline]
    fn bucket_min(&self, b: usize) -> (u32, u32) {
        let head = self.buckets[b].head;
        if self.slots[head as usize].next == NIL {
            (NIL, head)
        } else {
            self.chain_min(head)
        }
    }

    /// [`Self::bucket_min`] for the chain starting at slot `head`.
    #[inline(never)]
    fn chain_min(&self, head: u32) -> (u32, u32) {
        let mut min = &self.slots[head as usize];
        let (mut min_prev, mut min_i) = (NIL, head);
        let (mut prev, mut i) = (head, min.next);
        while i != NIL {
            let slot = &self.slots[i as usize];
            // Pop order: `Pending`'s `Ord`, un-reversed.
            let order = slot.time.total_cmp(&min.time);
            if order.then_with(|| slot.key.cmp(&min.key)).is_lt() {
                (min_prev, min_i, min) = (prev, i, slot);
            }
            (prev, i) = (i, slot.next);
        }
        (min_prev, min_i)
    }

    /// [`Calendar::push`] for an event already packed: the engine's
    /// way in.
    pub(crate) fn file(&mut self, item: Pending<E>) {
        debug_assert!(
            (0.0..f64::INFINITY).contains(&item.time),
            "calendar time {} is not finite and non-negative",
            item.time
        );
        self.t_max_seen = self.t_max_seen.max(item.time);
        if self.fitted {
            let tick = self.raw_tick(item.time).max(self.cursor);
            if tick == self.cursor && !self.head.is_empty() {
                // The tick being served right now — its bucket is
                // already drained, so the event joins the head heap
                // directly. This is the zero/sub-width-delay chain
                // fast path.
                self.head.push(item);
                return;
            }
            if tick < self.window_end() {
                self.insert_wheel(tick, item);
                return;
            }
        }
        self.overflow.push(item);
    }

    /// [`Calendar::pop_not_after`], packed: the engine's way out.
    pub(crate) fn take_not_after(&mut self, horizon: f64) -> Option<Pending<E>> {
        if self.len() == 0 {
            return None;
        }
        // One `locate()` and (for a small tick) one min-scan answer
        // both "is the head due?" and "which event is it?".
        let item = match self.locate() {
            Location::Head => {
                if self.head.peek()?.time > horizon {
                    return None;
                }
                self.head.pop()
            }
            Location::Bucket(b) => {
                let (prev, i) = self.bucket_min(b);
                if self.slots[i as usize].time > horizon {
                    return None;
                }
                let (item, next) = self.release(i);
                match prev {
                    NIL => self.buckets[b].head = next,
                    _ => self.slots[prev as usize].next = next,
                }
                self.buckets[b].len -= 1;
                self.wheel_len -= 1;
                Some(item)
            }
            Location::Overflow => {
                if self.overflow.peek()?.time > horizon {
                    return None;
                }
                self.overflow.pop()
            }
        };
        self.pops_since_refit = self.pops_since_refit.saturating_add(1);
        item
    }
}

/// Where [`WheelCalendar::locate`] found the global minimum.
enum Location {
    /// Top of the `head` heap.
    Head,
    /// Inside this small ring bucket (unordered; min-scan to serve).
    Bucket(usize),
    /// Head of the overflow heap (a tick past the ring's reach).
    Overflow,
}

impl<E> Calendar<E> for WheelCalendar<E> {
    fn with_capacity(events: usize) -> Self {
        Self {
            buckets: vec![EMPTY; MIN_BUCKETS],
            // The hint sizes the slab, where pending events live —
            // not `overflow`, which the first fit empties. Reserved,
            // not filled: a page no event reaches is never touched.
            slots: Vec::with_capacity(events.min(1 << 20)),
            free: NIL,
            mask: MIN_BUCKETS as u64 - 1,
            width: 1.0,
            inv_width: 1.0,
            cursor: 0,
            wheel_len: 0,
            head: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            fitted: false,
            hint: events,
            pops_since_refit: u64::MAX,
            t_max_seen: 0.0,
            #[cfg(test)]
            paths: PathCounts::default(),
        }
    }

    /// Packs `item` and files it.
    ///
    /// # Panics
    /// Panics if its `seq` or `target` does not fit the packed key
    /// (2⁴⁸ and 2¹⁶).
    fn push(&mut self, item: Scheduled<E>) {
        self.file(Pending::pack(item));
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        // Every time is finite, so this horizon holds nothing back.
        self.pop_not_after(f64::INFINITY)
    }

    fn next_key(&mut self) -> Option<(f64, u64)> {
        if self.len() == 0 {
            return None;
        }
        let key = |s: &Pending<E>| (s.time, seq_of(s.key));
        match self.locate() {
            Location::Head => self.head.peek().map(key),
            Location::Bucket(b) => {
                let slot = &self.slots[self.bucket_min(b).1 as usize];
                Some((slot.time, seq_of(slot.key)))
            }
            Location::Overflow => self.overflow.peek().map(key),
        }
    }

    fn next_is_at(&mut self, time: f64) -> bool {
        // Nothing precedes `time`, so wherever an event at `time` waits
        // it is that store's minimum: the top of `head` while a tick is
        // being served, else somewhere in its tick's bucket or — past
        // the window, before the first fit — the top of `overflow`.
        if let Some(top) = self.head.peek() {
            return top.time == time;
        }
        let tick = self.raw_tick(time).max(self.cursor);
        if !self.fitted || tick >= self.window_end() {
            return self.overflow.peek().is_some_and(|top| top.time == time);
        }
        let mut i = self.buckets[(tick & self.mask) as usize].head;
        while i != NIL {
            let slot = &self.slots[i as usize];
            if slot.time == time {
                return true;
            }
            i = slot.next;
        }
        false
    }

    fn pop_not_after(&mut self, horizon: f64) -> Option<Scheduled<E>> {
        self.take_not_after(horizon).map(Pending::unpack)
    }

    fn len(&self) -> usize {
        self.wheel_len + self.head.len() + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(time: f64, seq: u64) -> Scheduled<u32> {
        Scheduled {
            time,
            seq,
            target: 0,
            event: seq as u32,
        }
    }

    fn drain<C: Calendar<u32>>(cal: &mut C) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(t) = cal.next_time() {
            let item = cal.pop().expect("non-empty");
            assert_eq!(item.time.to_bits(), t.to_bits(), "next_time lied");
            out.push((item.time, item.seq));
        }
        out
    }

    fn key_bits(key: Option<(f64, u64)>) -> Option<(u64, u64)> {
        key.map(|(t, s)| (t.to_bits(), s))
    }

    fn assert_sorted(order: &[(f64, u64)]) {
        for w in order.windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "out of order: {w:?}");
        }
    }

    #[test]
    fn wheel_pops_in_time_seq_order() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        // Interleave in-window, same-timestamp, and far-future events.
        let times = [5.0, 1.0, 5.0, 3.0, 1e9, 0.0, 5.0, 2.5, 1e9, 0.25];
        for (i, t) in times.iter().enumerate() {
            cal.push(ev(*t, i as u64));
        }
        let order = drain(&mut cal);
        assert_eq!(order.len(), times.len());
        assert_sorted(&order);
    }

    #[test]
    fn wheel_matches_heap_under_interleaved_push_pop() {
        let mut wheel: WheelCalendar<u32> = Calendar::with_capacity(64);
        let mut heap: HeapCalendar<u32> = Calendar::with_capacity(64);
        let mut seq = 0u64;
        let mut clock = 0.0f64;
        // Deterministic pseudo-random workload.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for round in 0..2000 {
            let burst = (next() % 4) as usize + 1;
            for _ in 0..burst {
                let delay = (next() % 1000) as f64 / 100.0;
                // Occasional far-future event that overflows the ring.
                let delay = if next() % 37 == 0 { delay + 1e6 } else { delay };
                let item_time = clock + delay;
                wheel.push(ev(item_time, seq));
                heap.push(ev(item_time, seq));
                seq += 1;
            }
            if round % 3 != 0 {
                for _ in 0..(next() % 3) {
                    // Head reads agree before every removal…
                    assert_eq!(key_bits(wheel.next_key()), key_bits(heap.next_key()));
                    assert_eq!(
                        wheel.next_time().map(f64::to_bits),
                        heap.next_time().map(f64::to_bits)
                    );
                    // …and removals alternate between the plain pop and
                    // the single-probe form, with horizons on both
                    // sides of the head (a refusal must leave the
                    // calendar untouched).
                    let (a, b) = match next() % 3 {
                        0 => (wheel.pop(), heap.pop()),
                        k => {
                            let horizon = clock + (next() % 600) as f64 / 100.0 * (k - 1) as f64;
                            let (a, b) =
                                (wheel.pop_not_after(horizon), heap.pop_not_after(horizon));
                            if let Some(x) = &a {
                                assert!(x.time <= horizon, "popped past the horizon");
                            } else if let Some((t, _)) = wheel.next_key() {
                                assert!(t > horizon, "held back a due event");
                            }
                            (a, b)
                        }
                    };
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!((x.time.to_bits(), x.seq), (y.time.to_bits(), y.seq));
                            clock = x.time.max(clock);
                        }
                        (None, None) => {}
                        other => panic!("emptiness diverged: {:?}", other.0.is_some()),
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
        }
        assert_eq!(drain(&mut wheel), drain(&mut heap));
    }

    #[test]
    fn wheel_same_timestamp_burst_pops_fifo() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        for i in 0..100 {
            cal.push(ev(7.25, i));
        }
        let order = drain(&mut cal);
        assert_eq!(
            order.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
    }

    /// A refit must leave an event whose new tick is the window's end
    /// in overflow: filed in the ring, it would share the cursor's
    /// bucket and pop before the ticks between them.
    #[test]
    fn refit_leaves_the_tick_at_the_window_end_in_overflow() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        cal.push(ev(122.0, 0));
        cal.push(ev(200.0, 1));
        // Fit on those two: ticks 78 s wide, both in the ring.
        assert_eq!(cal.next_time(), Some(122.0));
        for i in 0..20 {
            cal.push(ev(0.5 + i as f64, 2 + i));
        }
        assert_eq!(cal.wheel_len, 22);
        // The refit: 1.9 s ticks from t = 0 over 64 buckets, so 122 s
        // lands on tick 64, the first past the window.
        cal.refit();
        assert_eq!((cal.width, cal.buckets.len()), (1.9, 64));
        assert_eq!(cal.raw_tick(122.0), cal.window_end());
        let order = drain(&mut cal);
        assert_eq!(order.len(), 22);
        assert_sorted(&order);
    }

    #[test]
    fn wheel_rebuild_keeps_order_when_workload_drifts() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        // Calibrate on a microsecond-scale cluster…
        for i in 0..64 {
            cal.push(ev(i as f64 * 1e-6, i));
        }
        assert!(cal.next_time().is_some());
        // …then drift to second-scale spacing: far outside the fitted
        // window, served through overflow migration alone.
        for i in 0..4000u64 {
            cal.push(ev(10.0 + i as f64, 64 + i));
        }
        let order = drain(&mut cal);
        assert_eq!(order.len(), 64 + 4000);
        assert_sorted(&order);
    }

    #[test]
    fn empty_calendar_behaves() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(8);
        assert!(cal.is_empty());
        assert_eq!(cal.next_time(), None);
        assert_eq!(cal.next_key(), None);
        assert!(cal.pop().is_none());
        assert!(cal.pop_not_after(f64::INFINITY).is_none());
        cal.push(ev(1.0, 0));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.next_key(), Some((1.0, 0)));
        assert!(cal.pop_not_after(0.5).is_none(), "not due yet");
        assert_eq!(cal.len(), 1);
        assert!(cal.pop_not_after(1.0).is_some(), "the horizon is inclusive");
        assert!(cal.is_empty());
        // Reuse after emptying, at a later clock.
        cal.push(ev(500.0, 1));
        assert_eq!(cal.next_time(), Some(500.0));
    }

    /// One step of a calendar-level workload. Times are relative to
    /// the clock — the latest time popped so far — as the engine's are.
    #[derive(Debug, Clone)]
    enum Step {
        /// `k` events `gap` apart, the first `delay` after the clock.
        Push { delay: f64, gap: f64, k: usize },
        /// Fit the ring again now, wherever the pending events wait.
        Refit,
        /// Up to `n` removals, every other one through
        /// `pop_not_after` with a horizon `reach` past the clock.
        Pop { n: usize, reach: f64 },
        /// The hold model: `n` times, pop one event and push one up to
        /// `spread` later — every push finds a slot a pop just vacated.
        Hold { n: usize, spread: f64 },
    }

    /// Workloads for the paths `arb_calendar_op` (`tests/properties.rs`,
    /// ≤ 300 events, bursts of ≤ 5) never reaches: ticks too big to
    /// serve in place, the concentration refit, refits forced at any
    /// step, and slot reuse after each.
    fn arb_script() -> impl Strategy<Value = Vec<Step>> {
        const ALL: f64 = 1e9;
        let push = |delay, gap, k| Step::Push { delay, gap, k };
        let arm = prop_oneof![
            3 => (0.0f64..20.0).prop_map(move |d| vec![push(d, 0.0, 1)]),
            // One instant, more events than `SMALL_TICK`: drains to `head`.
            2 => (0.0f64..20.0, 17usize..201).prop_map(move |(d, k)| vec![push(d, 0.0, k)]),
            // A µs-scale population, then second-scale spacing: more
            // than a thousand events beyond the fitted window, served
            // through overflow migration.
            1 => (1100usize..1500).prop_map(move |k| {
                vec![push(0.0, 1e-6, 64), Step::Pop { n: 1, reach: ALL }, push(10.0, 1.0, k)]
            }),
            // A sparse population fits a wide tick; ≥ 64 distinct times
            // then land in that one tick, and the cursor bucket is
            // concentrated the next time it is read.
            1 => (64usize..200).prop_map(move |k| {
                vec![push(0.0, 10.0, 10), Step::Pop { n: 1, reach: ALL }, push(0.0, 0.1, k)]
            }),
            // Far-future outlier: parks in overflow, migrates in later.
            1 => (1.0e4f64..1.0e7).prop_map(move |d| vec![push(d, 0.0, 1)]),
            // The same, then the ring popped empty under it, so the head
            // is an event the cursor has yet to jump to.
            1 => (1.0e4f64..1.0e7).prop_map(move |d| {
                vec![push(d, 0.0, 2), Step::Pop { n: 1500, reach: ALL }]
            }),
            3 => (0usize..40, 0.0f64..30.0).prop_map(|(n, reach)| vec![Step::Pop { n, reach }]),
            // Enough pops to re-arm the concentration trigger's
            // amortization gate after a refit.
            1 => (100usize..600).prop_map(|n| vec![Step::Pop { n, reach: ALL }]),
            // A refit between any two arms, and one while a big tick is
            // served from `head`.
            2 => Just(vec![Step::Refit]),
            1 => (17usize..100).prop_map(move |k| {
                vec![push(0.0, 0.0, k), Step::Pop { n: 1, reach: ALL }, Step::Refit]
            }),
            2 => (20usize..200, 0.001f64..20.0)
                .prop_map(|(n, spread)| vec![Step::Hold { n, spread }]),
        ];
        proptest::collection::vec(arm, 1..10).prop_map(|arms| arms.concat())
    }

    /// The wheel and its oracle, fed the same operations.
    struct Pair {
        wheel: WheelCalendar<u32>,
        heap: HeapCalendar<u32>,
        seq: u64,
        clock: f64,
        /// [`Calendar::next_is_at`] questions by where the wheel had to
        /// look — `[before the first fit, head, ring, overflow]` — then
        /// how many were answered yes, and how many followed a drain
        /// into `head` or a concentration refit directly.
        asked: [u64; 7],
    }

    impl Pair {
        fn push(&mut self, time: f64) -> Result<(), TestCaseError> {
            let was = self.wheel.paths;
            self.wheel.push(ev(time, self.seq));
            self.heap.push(ev(time, self.seq));
            self.seq += 1;
            self.ask_instant(was)
        }

        /// Removes the head of both — through `pop_not_after` when a
        /// horizon is given — checking that they agree on the head key
        /// first and on the removed event after. `Ok(false)`: nothing
        /// was removed.
        fn pop(&mut self, horizon: Option<f64>) -> Result<bool, TestCaseError> {
            let was = self.wheel.paths;
            prop_assert_eq!(
                key_bits(self.wheel.next_key()),
                key_bits(self.heap.next_key())
            );
            let (a, b) = match horizon {
                Some(h) => (self.wheel.pop_not_after(h), self.heap.pop_not_after(h)),
                None => (self.wheel.pop(), self.heap.pop()),
            };
            let key = |x: &Option<Scheduled<u32>>| key_bits(x.as_ref().map(|x| (x.time, x.seq)));
            prop_assert_eq!(key(&a), key(&b));
            prop_assert_eq!(self.wheel.len(), self.heap.len());
            self.clock = a.as_ref().map_or(self.clock, |x| x.time.max(self.clock));
            self.ask_instant(was)?;
            Ok(a.is_some())
        }

        /// After every operation (`was`: the path counts before it),
        /// asks both calendars about the two instants an engine can ask
        /// about — its clock, which nothing pending precedes, and the
        /// head's own time. The wheel must agree with the heap's
        /// default and stay exactly as it was.
        fn ask_instant(&mut self, was: PathCounts) -> Result<(), TestCaseError> {
            let head = self.heap.next_time();
            for time in [Some(self.clock), head].into_iter().flatten() {
                let w = &self.wheel;
                let place = if !w.fitted {
                    0
                } else if !w.head.is_empty() {
                    1
                } else if w.raw_tick(time).max(w.cursor) < w.window_end() {
                    2
                } else {
                    3
                };
                let before = (w.paths, w.cursor, w.len());
                let answer = self.wheel.next_is_at(time);
                prop_assert_eq!(answer, self.heap.next_is_at(time), "at {}", time);
                prop_assert_eq!(answer, head == Some(time));
                let w = &self.wheel;
                prop_assert!(
                    before == (w.paths, w.cursor, w.len()),
                    "the question moved the wheel"
                );
                self.asked[place] += 1;
                self.asked[4] += u64::from(answer);
                self.asked[5] += u64::from(w.paths.drains > was.drains);
                self.asked[6] += u64::from(w.paths.refits > was.refits);
            }
            Ok(())
        }
    }

    thread_local! {
        /// `[drains, concentration refits, slot reuses, steps that
        /// reused a slot after a drain or refit]`, then forced refits
        /// with events `[anywhere, in the ring, in head, in overflow]`
        /// and with slots on the free list, then `Pair::asked`, summed
        /// over the cases of `rewired_path_cases` (which run on the
        /// calling test's thread).
        static SEEN: std::cell::Cell<[u64; 16]> = const { std::cell::Cell::new([0; 16]) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Not a `#[test]` itself: `wheel_matches_heap_on_the_rewired_paths`
        // runs the cases, then checks what they reached.
        fn rewired_path_cases(script in arb_script()) {
            let mut pair = Pair {
                wheel: Calendar::with_capacity(0),
                heap: Calendar::with_capacity(0),
                seq: 0,
                clock: 0.0,
                asked: [0; 7],
            };
            let mut reused_after_recycling = 0;
            let mut forced = [0u64; 5];
            for step in &script {
                let was = pair.wheel.paths;
                let forced_before = forced[0];
                match *step {
                    Step::Refit if !pair.wheel.is_empty() => {
                        let w = &pair.wheel;
                        let reached = [
                            true,
                            w.wheel_len > 0,
                            !w.head.is_empty(),
                            !w.overflow.is_empty(),
                            w.free != NIL,
                        ];
                        for (n, hit) in forced.iter_mut().zip(reached) {
                            *n += u64::from(hit);
                        }
                        pair.wheel.refit();
                        pair.ask_instant(was)?;
                    }
                    Step::Refit => {}
                    Step::Push { delay, gap, k } => {
                        for j in 0..k {
                            pair.push(pair.clock + delay + gap * j as f64)?;
                        }
                    }
                    Step::Pop { n, reach } => {
                        for j in 0..n {
                            let horizon = (j % 2 == 1).then_some(pair.clock + reach);
                            if !pair.pop(horizon)? {
                                break;
                            }
                        }
                    }
                    Step::Hold { n, spread } => {
                        for j in 0..n {
                            if !pair.pop(None)? {
                                break;
                            }
                            pair.push(pair.clock + spread * (j * 7 % 11) as f64 / 11.0)?;
                        }
                    }
                }
                let now = pair.wheel.paths;
                let recycled = was.drains + was.refits + forced_before > 0;
                if recycled && now.slot_reuses > was.slot_reuses {
                    reused_after_recycling += 1;
                }
            }
            let paths = pair.wheel.paths;
            prop_assert_eq!(drain(&mut pair.wheel), drain(&mut pair.heap));
            let case = [paths.drains, paths.refits, paths.slot_reuses, reused_after_recycling];
            let case: Vec<u64> = case.into_iter().chain(forced).chain(pair.asked).collect();
            SEEN.with(|seen| seen.set(std::array::from_fn(|i| seen.get()[i] + case[i])));
        }
    }

    #[test]
    fn wheel_matches_heap_on_the_rewired_paths() {
        rewired_path_cases();
        let seen = SEEN.with(std::cell::Cell::get);
        assert!(
            seen.iter().all(|&n| n > 0),
            "the generator went vacuous: [drains, concentration refits, slot reuses, \
             reuses after recycling, forced refits, with events in the ring, in head, \
             in overflow, with free slots, instants asked before the first fit, of the \
             head, of the ring, of overflow, answered yes, asked right after a drain, \
             after a refit] = {seen:?}"
        );
    }

    /// The regression test for the 176 MiB: a ring of per-bucket
    /// vectors retains every bucket's high-water capacity, so a stable
    /// population that wanders over the whole ring — and overfills a
    /// bucket now and then — grows storage far past the pending set.
    /// The slab may not.
    #[test]
    fn ring_storage_tracks_the_pending_set() {
        const POPULATION: usize = 1000;
        const OPS: usize = 1_000_000;
        const BURST: usize = 100;
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        let mut state = 0x2002_5eed_u64;
        let mut offset = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / u32::MAX as f64 * 10.0
        };
        for seq in 0..POPULATION as u64 {
            cal.push(ev(offset(), seq));
        }
        let mut seq = POPULATION as u64;
        let mut peak = cal.len();
        let mut touched = Vec::new();
        // Pushes one event, noting the bucket it lands in.
        let mut file = |cal: &mut WheelCalendar<u32>, time: f64| {
            if touched.len() != cal.buckets.len() {
                touched = vec![false; cal.buckets.len()];
            }
            touched[(cal.raw_tick(time).max(cal.cursor) & cal.mask) as usize] = true;
            cal.push(ev(time, seq));
            seq += 1;
        };
        for op in 0..OPS {
            let now = cal.pop().expect("population is stable").time;
            file(&mut cal, now + offset());
            if op == OPS / 3 || op == 2 * OPS / 3 {
                // Overfill one tick a little ahead of the cursor with
                // distinct times, then pop the surplus back off.
                let (start, step) = ((cal.cursor + 3) as f64 * cal.width, cal.width / 200.0);
                for j in 0..BURST {
                    file(&mut cal, start + step * j as f64);
                }
                peak = peak.max(cal.len());
                for _ in 0..BURST {
                    cal.pop().expect("surplus");
                }
            }
        }
        assert_eq!(cal.len(), POPULATION);
        assert!(touched.iter().all(|&t| t), "the workload skipped a bucket");
        let overfills = cal.paths.drains + cal.paths.refits;
        assert!(
            overfills >= 2,
            "the bursts fit a small tick: {:?}",
            cal.paths
        );
        // Buckets are `Copy`, so the slab is all the ring owns.
        assert!(
            cal.slots.len() <= peak,
            "{} slots for a pending set that peaked at {peak}",
            cal.slots.len()
        );
    }

    /// The concentration refit costs O(pending), so it must stay
    /// amortized: at most one per `pending` pops, plus the first. The
    /// adversary is a dense cluster far ahead that pins the fitted span
    /// and bursts of `CONCENTRATED_BUCKET` events in front of it, each
    /// packed into one tick of the current width and closer to the
    /// cluster than the last, so that every burst reads as concentrated
    /// and a refit would split it.
    #[test]
    fn concentration_refits_are_amortized() {
        const FAR: usize = 1000;
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        let mut seq = 0;
        let mut push = |cal: &mut WheelCalendar<u32>, time: f64| {
            cal.push(ev(time, seq));
            seq += 1;
        };
        for j in 0..FAR {
            push(&mut cal, 1000.0 + j as f64 * 1e-9);
        }
        push(&mut cal, 0.0);
        let mut clock = cal.pop().expect("pending").time;
        let mut pops = 1;
        for _ in 0..12 {
            let w = cal.width;
            let target = (cal.t_max_seen - 0.2 * w * FAR as f64).max(clock);
            let start = (cal.raw_tick(target) + 1) as f64 * w;
            for j in 0..CONCENTRATED_BUCKET {
                push(
                    &mut cal,
                    start + w * (0.05 + 0.9 * j as f64 / CONCENTRATED_BUCKET as f64),
                );
            }
            while cal.len() > FAR {
                clock = cal.pop().expect("pending").time;
                pops += 1;
            }
        }
        let refits = cal.paths.refits;
        assert!(refits >= 1, "no burst read as concentrated");
        assert!(
            refits <= pops / FAR as u64 + 1,
            "{refits} concentration refits for {pops} pops over {FAR} pending"
        );
        let order = drain(&mut cal);
        assert_eq!(order.len(), FAR);
        assert_sorted(&order);
    }

    /// A tick narrower than the width floor stays concentrated under
    /// any refit, so the split prediction, clamped to the floor as the
    /// refit is, never asks for one.
    #[test]
    fn a_refit_at_the_width_floor_is_not_repeated() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        for i in 0..1000 {
            cal.push(ev(1.0 + i as f64 * 1e-15, i));
        }
        let order = drain(&mut cal);
        assert_eq!(order.len(), 1000);
        assert_sorted(&order);
        assert_eq!(cal.paths.refits, 0, "{:?}", cal.paths);
    }

    /// A 32-byte stand-in for `ebrc-net`'s `NetEvent`: a packet whose
    /// `NonZeroU32` size holds the tag, and a timer token.
    #[allow(dead_code)]
    enum NetLike {
        Packet(u32, u64, std::num::NonZeroU32, Option<Box<u8>>, f64),
        Timer(u64),
    }

    /// Every pending event waits as a `Pending` in a lane or as a slot
    /// in the wheel. The packed key keeps a `NetEvent`'s record at 48
    /// bytes and its slot at 64 (a slot adds the link, and the
    /// `Option` around an event with no spare niche its tag): growing
    /// either grows every event in flight.
    #[test]
    fn pending_records_and_slots_stay_compact() {
        use std::mem::size_of;
        assert_eq!(size_of::<NetLike>(), 32);
        let record = size_of::<Pending<NetLike>>();
        assert!(record <= 48, "a pending NetEvent grew to {record} bytes");
        let slot = size_of::<Slot<NetLike>>();
        assert!(slot <= 64, "a wheel slot grew to {slot} bytes");
        assert!(size_of::<Slot<u64>>() <= size_of::<Pending<u64>>() + 16);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn push_refuses_a_target_past_the_key() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        cal.push(Scheduled {
            target: 1 << 16,
            ..ev(1.0, 0)
        });
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn push_refuses_a_seq_past_the_key() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        cal.push(ev(1.0, 1 << 48));
    }
}
