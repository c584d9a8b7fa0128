//! Queue disciplines: DropTail and RED.
//!
//! The paper's scenarios use exactly these two. The ns-2 experiments run
//! RED with buffer `5/2·BDP`, thresholds `1/4` and `5/4` of the BDP; the
//! lab runs DropTail with 64 and 100 packets, and RED with
//! `w_q ≈ 0.002`, `max_p = 1/10`, **gentle mode off** ("this was not
//! possible with the traffic control module of the Linux kernel").
//!
//! A DropTail buffer is where a many-flow bottleneck keeps its backlog
//! (~70 000 packets at 10⁴ flows), so it stores each packet in 24
//! bytes, not the 32 of a [`Packet`]: flow, size, seq and send time in
//! the FIFO, and the 8-byte report pointer, which is `None` for every
//! data packet, only for the packets that carry one, in a second FIFO
//! keyed by queue position. RED keeps plain `Packet`s: its buffers
//! hold a few hundred at most.

use crate::packet::{FlowId, Packet, Report};
use ebrc_dist::Rng;
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// Aggregate counters every discipline maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets handed to the link.
    pub dequeued: u64,
    /// Packets dropped by the discipline (RED early drops included).
    pub dropped: u64,
    /// Drops forced by a full buffer (subset of `dropped`).
    pub forced_drops: u64,
}

/// A queue discipline in front of a link.
pub trait AqmQueue: Send {
    /// Offers a packet at time `now`; returns the packet back if the
    /// discipline drops it.
    fn enqueue(&mut self, pkt: Packet, now: f64, rng: &mut Rng) -> Result<(), Packet>;

    /// Removes the head packet, noting the time (RED tracks idle
    /// periods).
    fn dequeue(&mut self, now: f64) -> Option<Packet>;

    /// Packets currently queued.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    fn stats(&self) -> QueueStats;
}

/// A queued packet less its report, in 24 bytes: seq, the bits of
/// the send time, and `flow << 32 | size`.
type Queued = [u64; 3];

/// [`DropTailQueue`]'s FIFO of [`Queued`] packets, with the reports of
/// those that carry one beside it.
#[derive(Debug)]
struct PacketFifo {
    packets: VecDeque<Queued>,
    /// `(position, report)` in queue order, a position counting every
    /// packet ever pushed.
    reports: VecDeque<(u64, Box<Report>)>,
    /// The position of the front packet: how many have been popped.
    popped: u64,
}

impl PacketFifo {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            packets: VecDeque::with_capacity(capacity),
            reports: VecDeque::new(),
            popped: 0,
        }
    }

    fn len(&self) -> usize {
        self.packets.len()
    }

    fn push(&mut self, pkt: Packet) {
        if let Some(report) = pkt.report {
            let position = self.popped + self.packets.len() as u64;
            self.reports.push_back((position, report));
        }
        let flow_size = u64::from(pkt.flow.0) << 32 | u64::from(pkt.size.get());
        self.packets
            .push_back([pkt.seq, pkt.sent_at.to_bits(), flow_size]);
    }

    fn pop(&mut self) -> Option<Packet> {
        let [seq, sent_at, flow_size] = self.packets.pop_front()?;
        let report = match self.reports.front() {
            Some(&(position, _)) if position == self.popped => self.reports.pop_front(),
            _ => None,
        };
        self.popped += 1;
        Some(Packet {
            flow: FlowId((flow_size >> 32) as u32),
            seq,
            size: NonZeroU32::new(flow_size as u32).expect("a queued packet has a size"),
            report: report.map(|(_, report)| report),
            sent_at: f64::from_bits(sent_at),
        })
    }
}

/// Plain FIFO with a fixed capacity in packets.
#[derive(Debug)]
pub struct DropTailQueue {
    capacity: usize,
    q: PacketFifo,
    stats: QueueStats,
}

impl DropTailQueue {
    /// FIFO holding at most `capacity` packets.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            q: PacketFifo::with_capacity(capacity),
            stats: QueueStats::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl AqmQueue for DropTailQueue {
    fn enqueue(&mut self, pkt: Packet, _now: f64, _rng: &mut Rng) -> Result<(), Packet> {
        if self.q.len() >= self.capacity {
            self.stats.dropped += 1;
            self.stats.forced_drops += 1;
            Err(pkt)
        } else {
            self.stats.enqueued += 1;
            self.q.push(pkt);
            Ok(())
        }
    }

    fn dequeue(&mut self, _now: f64) -> Option<Packet> {
        let p = self.q.pop();
        if p.is_some() {
            self.stats.dequeued += 1;
        }
        p
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// RED configuration (ns-2 conventions, packet mode).
#[derive(Debug, Clone, Copy)]
pub struct RedConfig {
    /// Hard buffer limit in packets.
    pub limit: usize,
    /// Lower average-queue threshold (packets).
    pub min_th: f64,
    /// Upper average-queue threshold (packets).
    pub max_th: f64,
    /// EWMA weight of the average-queue filter (the lab targeted 0.002).
    pub wq: f64,
    /// Nominal packet transmission time on the outgoing link (seconds),
    /// used to age the average across idle periods.
    pub mean_pkt_time: f64,
}

impl RedConfig {
    /// Drop probability as the average reaches `max_th`: 1/10 in both
    /// the lab and the ns-2 settings. Past `max_th` every arrival
    /// drops: the paper runs RED with gentle mode off.
    pub const MAX_P: f64 = 0.1;

    /// The paper's ns-2 setting: buffer `5/2·bdp`, `min_th = bdp/4`,
    /// `max_th = 5/4·bdp` (all in packets), ns-2 default `w_q`.
    pub fn ns2_paper(bdp_packets: f64, mean_pkt_time: f64) -> Self {
        Self {
            limit: (2.5 * bdp_packets).round().max(1.0) as usize,
            min_th: bdp_packets / 4.0,
            max_th: 1.25 * bdp_packets,
            wq: 0.002,
            mean_pkt_time,
        }
    }

    /// The paper's lab setting around `U = 62500 B` with `u` packets per
    /// `U` (1500-byte packets ⇒ `U ≈ 41.7` packets): buffer `5/2·U`,
    /// `min_th = 3/20·U`, `max_th = 5/4·U`, `w_q = 0.002`.
    pub fn lab_paper(mean_pkt_time: f64) -> Self {
        let u_packets: f64 = 62_500.0 / 1_500.0;
        Self {
            limit: (2.5 * u_packets).round() as usize,
            min_th: 0.15 * u_packets,
            max_th: 1.25 * u_packets,
            wq: 0.002,
            mean_pkt_time,
        }
    }
}

/// Random Early Detection, ns-2 style: EWMA average queue with idle-time
/// aging, geometric inter-drop spacing via the `count` rule.
#[derive(Debug)]
pub struct RedQueue {
    cfg: RedConfig,
    q: VecDeque<Packet>,
    avg: f64,
    count: i64,
    idle_since: Option<f64>,
    stats: QueueStats,
}

impl RedQueue {
    /// Creates the queue.
    ///
    /// # Panics
    /// Panics on inconsistent thresholds or parameters outside their
    /// ranges.
    pub fn new(cfg: RedConfig) -> Self {
        assert!(cfg.limit > 0, "limit must be positive");
        assert!(
            0.0 < cfg.min_th && cfg.min_th < cfg.max_th,
            "need 0 < min_th < max_th"
        );
        assert!(cfg.wq > 0.0 && cfg.wq < 1.0, "wq in (0, 1)");
        assert!(cfg.mean_pkt_time > 0.0, "mean_pkt_time must be positive");
        Self {
            cfg,
            q: VecDeque::new(),
            avg: 0.0,
            count: -1,
            idle_since: Some(0.0),
            stats: QueueStats::default(),
        }
    }

    /// Current EWMA average queue length (packets).
    pub fn average(&self) -> f64 {
        self.avg
    }

    /// The configuration in use.
    pub fn config(&self) -> &RedConfig {
        &self.cfg
    }

    fn update_average(&mut self, now: f64) {
        if let Some(idle_start) = self.idle_since.take() {
            // Age the average as if m small packets had passed while idle.
            let m = ((now - idle_start) / self.cfg.mean_pkt_time).max(0.0);
            self.avg *= (1.0 - self.cfg.wq).powf(m);
        }
        self.avg = (1.0 - self.cfg.wq) * self.avg + self.cfg.wq * self.q.len() as f64;
    }

    /// Early-drop probability given the current average (the `count`
    /// spacing rule is applied by the caller).
    fn base_drop_probability(&self) -> f64 {
        let c = &self.cfg;
        if self.avg < c.min_th {
            0.0
        } else if self.avg < c.max_th {
            RedConfig::MAX_P * (self.avg - c.min_th) / (c.max_th - c.min_th)
        } else {
            1.0
        }
    }
}

impl AqmQueue for RedQueue {
    fn enqueue(&mut self, pkt: Packet, now: f64, rng: &mut Rng) -> Result<(), Packet> {
        self.update_average(now);
        if self.q.len() >= self.cfg.limit {
            self.stats.dropped += 1;
            self.stats.forced_drops += 1;
            self.count = 0;
            return Err(pkt);
        }
        let pb = self.base_drop_probability();
        let drop = if pb <= 0.0 {
            self.count = -1;
            false
        } else if pb >= 1.0 {
            self.count = 0;
            true
        } else {
            self.count += 1;
            // ns-2 inter-drop spacing: pa = pb / (1 − count·pb).
            let pa = {
                let denom = 1.0 - self.count as f64 * pb;
                if denom <= 0.0 {
                    1.0
                } else {
                    (pb / denom).min(1.0)
                }
            };
            if rng.chance(pa) {
                self.count = 0;
                true
            } else {
                false
            }
        };
        if drop {
            self.stats.dropped += 1;
            Err(pkt)
        } else {
            self.stats.enqueued += 1;
            self.q.push_back(pkt);
            Ok(())
        }
    }

    fn dequeue(&mut self, now: f64) -> Option<Packet> {
        let p = self.q.pop_front();
        if p.is_some() {
            self.stats.dequeued += 1;
            if self.q.is_empty() {
                self.idle_since = Some(now);
            }
        }
        p
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AckInfo, FeedbackInfo};

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, 1500, 0.0)
    }

    #[test]
    fn droptail_accepts_until_full_then_drops() {
        let mut q = DropTailQueue::new(3);
        let mut rng = Rng::seed_from(1);
        for i in 0..3 {
            assert!(q.enqueue(pkt(i), 0.0, &mut rng).is_ok());
        }
        assert!(q.enqueue(pkt(3), 0.0, &mut rng).is_err());
        assert_eq!(q.len(), 3);
        let s = q.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.forced_drops, 1);
    }

    #[test]
    fn droptail_is_fifo() {
        let mut q = DropTailQueue::new(10);
        let mut rng = Rng::seed_from(2);
        for i in 0..5 {
            q.enqueue(pkt(i), 0.0, &mut rng).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.dequeue(0.0).unwrap().seq, i);
        }
        assert!(q.dequeue(0.0).is_none());
    }

    #[test]
    fn packet_conservation_droptail() {
        let mut q = DropTailQueue::new(7);
        let mut rng = Rng::seed_from(3);
        let mut dropped = 0u64;
        let mut dequeued = 0u64;
        for i in 0..1000 {
            if q.enqueue(pkt(i), 0.0, &mut rng).is_err() {
                dropped += 1;
            }
            if i % 3 == 0 && q.dequeue(0.0).is_some() {
                dequeued += 1;
            }
        }
        let s = q.stats();
        assert_eq!(s.enqueued, 1000 - dropped);
        assert_eq!(s.dequeued, dequeued);
        assert_eq!(s.enqueued, s.dequeued + q.len() as u64);
    }

    /// The bottleneck backlog is the largest store of packets in a
    /// many-flow run: keep a queued one at 24 bytes.
    #[test]
    fn a_queued_packet_stays_compact() {
        let size = std::mem::size_of::<Queued>();
        assert!(size <= 24, "a queued packet grew to {size} bytes");
    }

    /// Data and report packets interleaved, one report dropped at the
    /// full buffer: every accepted packet comes back unchanged and in
    /// order, reports on the packets that carried them and nowhere
    /// else.
    #[test]
    fn droptail_returns_every_accepted_packet_unchanged() {
        let ack = |n: u64| {
            Report::Ack(AckInfo {
                cum_ack: n,
                sack: vec![(n + 2, n + 5)],
                echo_seq: n + 1,
                echo_ts: -0.0,
            })
        };
        let feedback = Report::Feedback(FeedbackInfo {
            avg_interval: f64::INFINITY,
            x_recv: 12.5,
            x_recv_bytes: 18_750.0,
            echo_ts: 3.25,
            events: 4,
        });
        let offered = [
            Packet::data(FlowId(7), 0, 1500, 0.5),
            Packet::report(FlowId(u32::MAX), u64::MAX, 40, ack(1), 0.75),
            Packet::report(FlowId(3), 9, 1, feedback, f64::MIN_POSITIVE),
            Packet::data(FlowId(0), 1 << 40, u32::MAX, -0.0),
            // The buffer is full: refused whole, report and all.
            Packet::report(FlowId(5), 2, 40, ack(2), 1.0),
            Packet::data(FlowId(8), 3, 576, 1.0),
            Packet::report(FlowId(9), 4, 40, ack(3), 1.5),
        ];
        let mut q = DropTailQueue::new(4);
        let mut rng = Rng::seed_from(9);
        let mut accepted = Vec::new();
        let mut returned = Vec::new();
        for (i, pkt) in offered.iter().enumerate() {
            match q.enqueue(pkt.clone(), 0.0, &mut rng) {
                Ok(()) => accepted.push(pkt.clone()),
                Err(back) => {
                    assert_eq!(i, 4, "only the fifth packet meets a full buffer");
                    assert_eq!(back, *pkt, "a refused packet comes back as offered");
                }
            }
            if i == 4 {
                returned.extend(q.dequeue(0.0));
                returned.extend(q.dequeue(0.0));
            }
        }
        while let Some(pkt) = q.dequeue(0.0) {
            returned.push(pkt);
        }
        assert_eq!(accepted.len(), 6);
        assert_eq!(returned, accepted);
        for (out, sent) in returned.iter().zip(&accepted) {
            assert_eq!(out.sent_at.to_bits(), sent.sent_at.to_bits());
        }
        assert_eq!(q.stats().dropped, 1);
    }

    fn red_cfg() -> RedConfig {
        RedConfig {
            limit: 100,
            min_th: 10.0,
            max_th: 50.0,
            wq: 0.2, // fast-moving average for compact tests
            mean_pkt_time: 0.001,
        }
    }

    #[test]
    fn red_no_drops_below_min_threshold() {
        let mut q = RedQueue::new(red_cfg());
        let mut rng = Rng::seed_from(4);
        // Keep the instantaneous queue at ~5 packets: avg stays < min_th.
        for i in 0..500 {
            let _ = q.enqueue(pkt(i), i as f64 * 0.001, &mut rng);
            if q.len() > 5 {
                q.dequeue(i as f64 * 0.001);
            }
        }
        assert_eq!(q.stats().dropped, 0);
        assert!(q.average() < 10.0);
    }

    #[test]
    fn red_drops_everything_above_max_threshold_non_gentle() {
        let mut q = RedQueue::new(red_cfg());
        let mut rng = Rng::seed_from(5);
        // Fill without draining: avg climbs past max_th, after which every
        // arrival is dropped (gentle off).
        let mut accepted = 0;
        for i in 0..300 {
            if q.enqueue(pkt(i), 0.0, &mut rng).is_ok() {
                accepted += 1;
            }
        }
        assert!(q.average() > 50.0);
        assert!(accepted < 100, "accepted {accepted}");
        // Now every further arrival must be dropped.
        let before = q.stats().dropped;
        for i in 300..320 {
            assert!(q.enqueue(pkt(i), 0.0, &mut rng).is_err());
        }
        assert_eq!(q.stats().dropped, before + 20);
    }

    #[test]
    fn red_early_drop_rate_tracks_average() {
        // Hold the queue near 30 packets (between thresholds): the drop
        // rate should be near max_p·(30−10)/40 = 0.05, modulo the
        // geometric spacing rule which keeps it in that ballpark.
        let mut q = RedQueue::new(red_cfg());
        let mut rng = Rng::seed_from(6);
        let mut offered = 0u64;
        let mut dropped = 0u64;
        let mut t = 0.0;
        for i in 0..200_000u64 {
            t += 0.001;
            offered += 1;
            if q.enqueue(pkt(i), t, &mut rng).is_err() {
                dropped += 1;
            }
            while q.len() > 30 {
                q.dequeue(t);
            }
        }
        let rate = dropped as f64 / offered as f64;
        assert!(
            rate > 0.02 && rate < 0.12,
            "early-drop rate {rate} out of plausible band"
        );
        assert_eq!(q.stats().forced_drops, 0);
    }

    #[test]
    fn red_average_ages_during_idle() {
        let mut q = RedQueue::new(red_cfg());
        let mut rng = Rng::seed_from(8);
        for i in 0..60 {
            let _ = q.enqueue(pkt(i), 0.0, &mut rng);
        }
        let avg_busy = q.average();
        while q.dequeue(1.0).is_some() {}
        // Long idle: the next arrival sees a much smaller average.
        let _ = q.enqueue(pkt(999), 100.0, &mut rng);
        assert!(
            q.average() < avg_busy * 0.1,
            "{} vs {avg_busy}",
            q.average()
        );
    }

    #[test]
    fn ns2_paper_config_shape() {
        let c = RedConfig::ns2_paper(100.0, 0.0008);
        assert_eq!(c.limit, 250);
        assert!((c.min_th - 25.0).abs() < 1e-9);
        assert!((c.max_th - 125.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "min_th")]
    fn red_rejects_bad_thresholds() {
        let mut c = red_cfg();
        c.min_th = 60.0;
        RedQueue::new(c);
    }
}
