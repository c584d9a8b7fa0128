//! The pending-event record, in its two forms.
//!
//! [`Scheduled`] is the public one: what the [`Calendar`] trait, the
//! reference [`HeapCalendar`] and the ledger's probes push and pop, with
//! its `seq` and `target` in a word each. Inside the engine an event
//! waits as a [`Pending`] instead — in the same-instant lane, in the
//! fixed-delay lane and in the wheel's slab, `head` and overflow heaps —
//! carrying one packed **key**, `seq << 16 | target`, in their place.
//! That is 16 bytes of header where `Scheduled` spends 24: a 32-byte
//! `NetEvent` waits in 48 bytes in a lane and in a 64-byte wheel slot.
//!
//! Seqs are unique, so ordering events by `(time, key)` is ordering
//! them by `(time, seq)`: the target in the low bits never decides a
//! comparison. The limits the packing implies are asserted, never
//! assumed: an engine registers at most [`MAX_COMPONENTS`] (65 536)
//! components ([`Engine::add`](crate::Engine::add) panics on the next),
//! numbers at most [`MAX_SEQ`] (2⁴⁸) events — about 160 days at 2·10⁷
//! events a second — and [`Pending::pack`] refuses a `Scheduled` whose
//! fields do not fit.
//!
//! [`Calendar`]: crate::Calendar
//! [`HeapCalendar`]: crate::HeapCalendar

use std::cmp::Ordering;

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
        // ties broken by scheduling order for determinism.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Low bits of a key that hold the target's index.
const TARGET_BITS: u32 = 16;
/// Components one engine can address: the targets a key can hold.
pub(crate) const MAX_COMPONENTS: usize = 1 << TARGET_BITS;
/// Sequence numbers one engine can assign: the seqs a key can hold.
pub(crate) const MAX_SEQ: u64 = 1 << (u64::BITS - TARGET_BITS);

/// A pending event as the engine stores it: [`Scheduled`] with `seq`
/// and `target` packed into one `key`.
pub(crate) struct Pending<E> {
    pub(crate) time: f64,
    /// `seq << 16 | target`.
    pub(crate) key: u64,
    pub(crate) event: E,
}

impl<E> Pending<E> {
    /// A new event for `target`, numbered with the next value of the
    /// engine's sequence `counter`.
    ///
    /// # Panics
    /// Panics once the counter has reached [`MAX_SEQ`].
    #[inline]
    pub(crate) fn number(time: f64, counter: &mut u64, target: usize, event: E) -> Self {
        assert!(
            *counter < MAX_SEQ,
            "event sequence numbers exhausted: an engine files at most 2^48 events"
        );
        debug_assert!(target < MAX_COMPONENTS, "target {target} outside the key");
        let key = *counter << TARGET_BITS | target as u64;
        *counter += 1;
        Self { time, key, event }
    }

    /// Packs a [`Scheduled`].
    ///
    /// # Panics
    /// Panics if its `seq` or `target` does not fit the key.
    pub(crate) fn pack(item: Scheduled<E>) -> Self {
        assert!(
            item.seq < MAX_SEQ && item.target < MAX_COMPONENTS,
            "seq {} / target {} do not fit a 48 / 16-bit key",
            item.seq,
            item.target
        );
        let key = item.seq << TARGET_BITS | item.target as u64;
        Self {
            time: item.time,
            key,
            event: item.event,
        }
    }

    /// The [`Scheduled`] this record packs.
    pub(crate) fn unpack(self) -> Scheduled<E> {
        Scheduled {
            time: self.time,
            seq: seq_of(self.key),
            target: self.target(),
            event: self.event,
        }
    }

    /// The index of the component the event is addressed to.
    #[inline]
    pub(crate) fn target(&self) -> usize {
        (self.key & (MAX_COMPONENTS as u64 - 1)) as usize
    }
}

/// The sequence number a key packs.
#[inline]
pub(crate) fn seq_of(key: u64) -> u64 {
    key >> TARGET_BITS
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, as `Scheduled`'s: the earliest `(time, key)` is the
        // `Ord`-maximal element, the top of a `BinaryHeap`.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_and_unpack_are_inverse_at_the_limits() {
        for (seq, target) in [(0, 0), (1, MAX_COMPONENTS - 1), (MAX_SEQ - 1, 7)] {
            let item = Pending::pack(Scheduled {
                time: 2.5,
                seq,
                target,
                event: (),
            });
            assert_eq!(item.target(), target);
            let back = item.unpack();
            assert_eq!((back.time, back.seq, back.target), (2.5, seq, target));
        }
    }

    #[test]
    fn key_order_is_seq_order_whatever_the_targets() {
        let mut counter = 0;
        let first = Pending::number(1.0, &mut counter, MAX_COMPONENTS - 1, ());
        let second = Pending::number(1.0, &mut counter, 0, ());
        assert!(first.key < second.key);
        assert_eq!((seq_of(first.key), seq_of(second.key)), (0, 1));
        // Reversed: the earlier event is the heap's top.
        assert!(first > second);
    }
}
