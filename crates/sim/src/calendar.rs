//! Pluggable event calendars: the pending-event set behind the engine.
//!
//! The calendar holds the engine's *timed* events — the ones due
//! strictly after the clock, plus whatever `Engine::schedule` files
//! from outside a run. Same-instant emissions never reach it; they
//! wait in the engine's FIFO lane (see [`crate::engine`]). The
//! dispatch loop asks three things of its calendar, each with a
//! **single probe** of the structure:
//!
//! * accept an event ([`Calendar::push`]);
//! * surrender the earliest event unless it lies beyond the run's
//!   horizon ([`Calendar::pop_not_after`]) — one head lookup decides
//!   both "is it due?" and "which one?", half the work of asking
//!   [`Calendar::next_time`] and then [`Calendar::pop`];
//! * report the earliest event's `(time, seq)` key without removing
//!   it ([`Calendar::next_key`]), so the engine can decide whether a
//!   same-instant calendar event precedes the lane's front.
//!
//! *Earliest* always means minimal `(time, seq)`, the total order that
//! makes simultaneous events fire in scheduling order and replays
//! bit-exact. [`Calendar::pop`] and [`Calendar::next_time`] remain as
//! the unconditional forms for callers outside the engine (benches,
//! probes, tests).
//!
//! Two implementations share that contract:
//!
//! * [`HeapCalendar`] — the original `BinaryHeap`, O(log n) per
//!   operation. Kept as the obviously-correct reference; the property
//!   tests and the calendar microbench compare the wheel against it.
//! * [`WheelCalendar`] — a calendar queue (Brown 1988): a ring of
//!   buckets, each one *width* seconds wide, with a cursor that sweeps
//!   forward in time. Steady-state schedule and pop are O(1), which is
//!   what keeps 10⁴–10⁵ concurrent flows affordable. Events beyond the
//!   ring's horizon wait in an overflow heap and migrate in as the
//!   cursor approaches them.
//!
//! Determinism is structural, not tuned: any monotone time→bucket
//! mapping plus an in-bucket `(time, seq)` sort reproduces exactly the
//! heap's total order, so bucket count and width are pure performance
//! knobs — the golden corpus cannot move when they change.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event: delivery time, scheduling sequence number (the
/// deterministic tie-breaker), target component index, and payload.
pub struct Scheduled<E> {
    /// Absolute delivery time in seconds.
    pub time: f64,
    /// Global scheduling sequence number — unique per engine, assigned
    /// in `schedule`/emission order. Ties on `time` resolve by `seq`,
    /// which is what makes simultaneous events fire FIFO.
    pub seq: u64,
    /// Index of the component the event is addressed to.
    pub target: usize,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want earliest first;
        // ties broken by scheduling order for determinism. The same
        // reversal makes the natural minimum the `Ord`-maximal
        // element, which is what the wheel's bucket min-scan selects.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pending-event set contract the engine's dispatch loop runs on.
///
/// Implementations must serve events in ascending `(time, seq)` order —
/// the engine's determinism guarantee rests on every calendar agreeing
/// on that total order, which the `wheel ≡ heap` property tests pin
/// down over arbitrary interleaved push/pop sequences.
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

    /// Accepts a pending event. The engine only ever pushes finite,
    /// non-negative times (`Engine::schedule` and `Context::send`
    /// reject anything else — a NaN would poison the `(time, seq)`
    /// total order). Implementations still tolerate `±inf`
    /// structurally, sorting it after every finite time, but must
    /// never see NaN.
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
/// implementation every alternative calendar must be indistinguishable
/// from (modulo speed).
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
/// occupancy, is a calibration miss (see
/// [`WheelCalendar::seek_bucket`]).
const CONCENTRATED_BUCKET: usize = 64;

/// Ticks holding at most this many events are served straight from
/// their bucket by linear min-scan — cheaper than heapifying for the
/// calibrated steady state of ~2 events per bucket. Bigger ticks (and
/// ticks that keep receiving same-tick pushes) drain into the `head`
/// heap and are served at O(log k).
const SMALL_TICK: usize = 16;

/// Smallest tick width that keeps `time / width` comfortably inside
/// `u64` for times of magnitude `t`.
fn width_floor(t: f64) -> f64 {
    t.abs().max(1.0) * 1e-12
}
/// Bucket-count ceiling: beyond this the ring's memory footprint buys
/// nothing — overflow migration amortizes the rest.
const MAX_BUCKETS: usize = 1 << 16;

/// A calendar queue: O(1) steady-state schedule/pop.
///
/// Time is divided into *ticks* of `width` seconds; tick `t` hashes to
/// ring bucket `t mod n` (n a power of two). A monotone `cursor` names
/// the earliest tick any pending event may occupy, so the ring covers
/// the window `[cursor, cursor + n)` and exactly one tick maps to each
/// bucket within it — the cursor's bucket holds only the current
/// tick's events. Events beyond the window (or with non-finite times)
/// wait in an overflow heap and migrate into the ring as the cursor
/// sweeps forward.
///
/// Ring buckets are unordered staging: when the cursor reaches a
/// non-empty tick, its whole bucket is heapified into the small `head`
/// heap (O(k)) and served in `(time, seq)` order from there —
/// sub-width-delay events that keep landing on the current tick (a
/// zero-delay hop chain, a same-time burst) push straight into `head`
/// at O(log k) instead of forcing a per-pop re-sort of the bucket.
///
/// The first head access *calibrates* the ring: bucket count and width
/// are derived from the pending set (≈2 events per bucket over the
/// dense bulk of the observed span) and the `with_capacity` hint. If
/// the workload drifts until most pushes land in overflow, or the
/// cursor keeps hitting buckets holding a large multiple of the
/// average load, the wheel rebuilds itself with fresh parameters. All
/// such decisions depend only on the push/pop sequence — never on wall
/// clock — so runs stay deterministic, and the pop order is `(time,
/// seq)` regardless of the parameters chosen.
pub struct WheelCalendar<E> {
    buckets: Vec<Vec<Scheduled<E>>>,
    /// `buckets.len() - 1`; bucket index is `tick & mask`.
    mask: u64,
    /// Seconds per tick and its reciprocal (multiplication beats
    /// division on the hot path).
    width: f64,
    inv_width: f64,
    /// The earliest tick any pending event may occupy; never decreases.
    cursor: u64,
    /// Events currently in the ring (excludes `head` and overflow).
    wheel_len: usize,
    /// The tick currently being served: the cursor bucket's events,
    /// heapified, plus any later push that clamps to the cursor while
    /// serving. Its top is the global minimum whenever it is non-empty.
    head: BinaryHeap<Scheduled<E>>,
    /// Events beyond the ring's window, plus everything before the
    /// first calibration.
    overflow: BinaryHeap<Scheduled<E>>,
    calibrated: bool,
    hint: usize,
    /// Pops since the last rebuild — a rebuild costs O(pending), so
    /// triggering one only after at least `len()` pops keeps the
    /// amortized cost O(1) per event no matter how adversarial the
    /// schedule is.
    pops_since_rebuild: u64,
    /// Largest finite time ever pushed — a cheap running estimate of
    /// the pending set's span, used to predict whether a rebuild would
    /// actually split a concentrated bucket.
    t_max_seen: f64,
}

impl<E> WheelCalendar<E> {
    /// Maps a time to its absolute tick, saturating at the ends.
    fn raw_tick(&self, time: f64) -> u64 {
        let t = (time * self.inv_width).floor();
        if t <= 0.0 {
            0
        } else if t >= u64::MAX as f64 {
            u64::MAX
        } else {
            t as u64
        }
    }

    /// First tick *outside* the ring's current window.
    fn window_end(&self) -> u64 {
        self.cursor.saturating_add(self.buckets.len() as u64)
    }

    fn insert_wheel(&mut self, tick: u64, item: Scheduled<E>) {
        let b = (tick & self.mask) as usize;
        self.buckets[b].push(item);
        self.wheel_len += 1;
    }

    /// Moves every overflow event whose tick has entered the window
    /// into the ring. Called whenever the cursor moves.
    fn migrate(&mut self) {
        let end = self.window_end();
        while let Some(head) = self.overflow.peek() {
            if !head.time.is_finite() {
                break;
            }
            let tick = self.raw_tick(head.time).max(self.cursor);
            if tick >= end {
                break;
            }
            let item = self.overflow.pop().expect("peeked");
            self.insert_wheel(tick, item);
        }
    }

    /// Derives ring parameters from the current pending set (all of it
    /// sitting in `overflow`), then distributes the events.
    fn calibrate(&mut self) {
        self.calibrated = true;
        let items = std::mem::take(&mut self.overflow).into_vec();
        let len = items.len();

        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        let mut times: Vec<f64> = Vec::with_capacity(len);
        for it in &items {
            if it.time.is_finite() {
                t_min = t_min.min(it.time);
                t_max = t_max.max(it.time);
                times.push(it.time);
            }
        }

        let n = (len * 2)
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
            let span = (*q - t_min).max(0.0);
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
        if width <= 0.0 || !width.is_finite() {
            width = 1.0;
        }

        // Every bucket is empty here (fresh wheel, or drained by
        // `rebuild`) — when the count is unchanged, keep the ring and
        // its per-bucket allocations instead of reallocating.
        if self.buckets.len() != n {
            self.buckets = (0..n).map(|_| Vec::new()).collect();
        }
        self.mask = n as u64 - 1;
        self.width = width;
        self.inv_width = width.recip();
        self.cursor = if t_min.is_finite() {
            self.raw_tick(t_min)
        } else {
            0
        };
        self.wheel_len = 0;

        let end = self.window_end();
        for item in items {
            if item.time.is_finite() {
                let tick = self.raw_tick(item.time).max(self.cursor);
                if tick < end {
                    self.insert_wheel(tick, item);
                    continue;
                }
            }
            self.overflow.push(item);
        }
    }

    /// Tears the ring down and recalibrates from the full pending set —
    /// the escape hatch when the workload has drifted so far off the
    /// calibrated width that pushes mostly land in overflow.
    fn rebuild(&mut self) {
        for b in &mut self.buckets {
            for item in b.drain(..) {
                self.overflow.push(item);
            }
        }
        for item in std::mem::take(&mut self.head) {
            self.overflow.push(item);
        }
        self.wheel_len = 0;
        self.pops_since_rebuild = 0;
        self.calibrate();
    }

    /// True when the cursor bucket holds several times the wheel's
    /// average occupancy with a nonzero time spread — the signature of
    /// a width calibrated against an unrepresentative set (e.g. the
    /// sparse staggered start timers of a sim whose steady state is
    /// thousands of times denser), which packs the live workload into
    /// giant buckets re-sorted on every pop. The pop-count gate
    /// amortizes the O(pending) rebuild.
    fn bucket_concentrated(&self, b: usize) -> bool {
        let blen = self.buckets[b].len();
        let total = self.len();
        let avg = (total / self.buckets.len()).max(1);
        if blen < CONCENTRATED_BUCKET || blen < avg * 8 || self.pops_since_rebuild < total as u64 {
            return false;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for it in &self.buckets[b] {
            lo = lo.min(it.time);
            hi = hi.max(it.time);
        }
        if hi <= lo {
            return false;
        }
        // Only worth an O(pending) rebuild if the refitted width —
        // ≈2·span/len over the pending set — would actually split this
        // bucket into several. An inherently tight burst (say a 64-way
        // fan-out within a microsecond) concentrates under *any* sane
        // width; rebuilding for it would churn forever.
        let span_est = (self.t_max_seen - lo).max(hi - lo);
        let refit_width = 2.0 * span_est / total as f64;
        hi - lo > 2.0 * refit_width
    }

    /// Locates the globally-minimal pending event, advancing the
    /// cursor (and migrating overflow) as needed. Small ticks are
    /// served in place from their bucket; large ones are heapified
    /// into `head` first.
    fn locate(&mut self) -> Location {
        if !self.calibrated {
            self.calibrate();
        }
        loop {
            if !self.head.is_empty() {
                return Location::Head;
            }
            if self.wheel_len > 0 {
                let b = (self.cursor & self.mask) as usize;
                if !self.buckets[b].is_empty() {
                    if self.bucket_concentrated(b) {
                        // Refit the width to the pending set as it
                        // looks now. The minimum is finite and lands
                        // back inside the fresh window, so the loop
                        // always finds it.
                        self.rebuild();
                        continue;
                    }
                    if self.buckets[b].len() <= SMALL_TICK {
                        // The calibrated common case: a couple of
                        // events in the tick. A linear min-scan beats
                        // any sort or heap shuffle.
                        return Location::Bucket(b);
                    }
                    // A big tick — a same-time burst or a zero-delay
                    // chain magnet. Serve it through the head heap:
                    // O(k) heapify now, O(log k) per pop/push while
                    // the tick drains; same-tick pushes join the heap
                    // directly instead of re-sorting a bucket.
                    self.wheel_len -= self.buckets[b].len();
                    let mut staging = std::mem::take(&mut self.head).into_vec();
                    staging.append(&mut self.buckets[b]);
                    self.head = BinaryHeap::from(staging);
                    return Location::Head;
                }
                self.cursor += 1;
                self.migrate();
            } else {
                match self.overflow.peek() {
                    Some(h) if h.time.is_finite() => {
                        // Jump the cursor straight to the overflow
                        // head's tick — stepping bucket-by-bucket
                        // across a long idle gap would cost
                        // O(gap / width).
                        self.cursor = self.raw_tick(h.time).max(self.cursor);
                        self.migrate();
                        if self.wheel_len == 0 {
                            // The tick saturated past the window's end
                            // (times near the u64 horizon); such
                            // events can never enter the ring. The
                            // overflow head is the global minimum.
                            return Location::Overflow;
                        }
                    }
                    _ => return Location::Overflow,
                }
            }
        }
    }

    /// Index of the bucket's minimal `(time, seq)` event. `Scheduled`'s
    /// reversed `Ord` makes that the `Ord`-maximal element.
    fn bucket_min(items: &[Scheduled<E>]) -> usize {
        let mut mi = 0;
        for i in 1..items.len() {
            if items[i] > items[mi] {
                mi = i;
            }
        }
        mi
    }
}

/// Where [`WheelCalendar::locate`] found the global minimum.
enum Location {
    /// Top of the `head` heap.
    Head,
    /// Inside this small ring bucket (unordered; min-scan to serve).
    Bucket(usize),
    /// Head of the overflow heap (non-finite or beyond-window times).
    Overflow,
}

impl<E> Calendar<E> for WheelCalendar<E> {
    fn with_capacity(events: usize) -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS as u64 - 1,
            width: 1.0,
            inv_width: 1.0,
            cursor: 0,
            wheel_len: 0,
            head: BinaryHeap::new(),
            overflow: BinaryHeap::with_capacity(events.min(1 << 20)),
            calibrated: false,
            hint: events,
            pops_since_rebuild: u64::MAX,
            t_max_seen: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, item: Scheduled<E>) {
        if item.time.is_finite() && item.time > self.t_max_seen {
            self.t_max_seen = item.time;
        }
        if self.calibrated && item.time.is_finite() {
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
        // A drifted workload parks almost everything in overflow and
        // degenerates to heap behavior plus migration churn — rebuild
        // with parameters fitted to what is actually pending.
        if self.calibrated
            && self.overflow.len() > 1024
            && self.overflow.len() > 4 * (self.wheel_len + self.head.len())
        {
            self.rebuild();
        }
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        // `inf > inf` is false, so an infinite horizon holds nothing
        // back — not even the `+inf` events the wheel tolerates.
        self.pop_not_after(f64::INFINITY)
    }

    fn next_key(&mut self) -> Option<(f64, u64)> {
        if self.len() == 0 {
            return None;
        }
        let head = match self.locate() {
            Location::Head => self.head.peek()?,
            Location::Bucket(b) => {
                let bucket = &self.buckets[b];
                &bucket[Self::bucket_min(bucket)]
            }
            Location::Overflow => self.overflow.peek()?,
        };
        Some((head.time, head.seq))
    }

    fn pop_not_after(&mut self, horizon: f64) -> Option<Scheduled<E>> {
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
                let mi = Self::bucket_min(&self.buckets[b]);
                if self.buckets[b][mi].time > horizon {
                    return None;
                }
                self.wheel_len -= 1;
                Some(self.buckets[b].swap_remove(mi))
            }
            Location::Overflow => {
                if self.overflow.peek()?.time > horizon {
                    return None;
                }
                self.overflow.pop()
            }
        };
        self.pops_since_rebuild = self.pops_since_rebuild.saturating_add(1);
        item
    }

    fn len(&self) -> usize {
        self.wheel_len + self.head.len() + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn wheel_handles_infinite_times() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        cal.push(ev(f64::INFINITY, 0));
        cal.push(ev(1.0, 1));
        cal.push(ev(f64::INFINITY, 2));
        let order = drain(&mut cal);
        assert_eq!(order[0], (1.0, 1));
        assert_eq!(order[1], (f64::INFINITY, 0));
        assert_eq!(order[2], (f64::INFINITY, 2));
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

    #[test]
    fn wheel_rebuild_keeps_order_when_workload_drifts() {
        let mut cal: WheelCalendar<u32> = Calendar::with_capacity(0);
        // Calibrate on a microsecond-scale cluster…
        for i in 0..64 {
            cal.push(ev(i as f64 * 1e-6, i));
        }
        assert!(cal.next_time().is_some());
        // …then drift to second-scale spacing, forcing overflow churn
        // and eventually a rebuild.
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
}
