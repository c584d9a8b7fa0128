//! Queue disciplines: DropTail and RED.
//!
//! The paper's scenarios use exactly these two. The ns-2 experiments run
//! RED with buffer `5/2·BDP`, thresholds `1/4` and `5/4` of the BDP; the
//! lab runs DropTail with 64 and 100 packets, and RED with
//! `w_q ≈ 0.002`, `max_p = 1/10`, **gentle mode off** ("this was not
//! possible with the traffic control module of the Linux kernel").

use crate::packet::Packet;
use ebrc_dist::Rng;
use std::collections::VecDeque;

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

/// Plain FIFO with a fixed capacity in packets.
#[derive(Debug)]
pub struct DropTailQueue {
    capacity: usize,
    q: VecDeque<Packet>,
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
            q: VecDeque::with_capacity(capacity),
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
            self.q.push_back(pkt);
            Ok(())
        }
    }

    fn dequeue(&mut self, _now: f64) -> Option<Packet> {
        let p = self.q.pop_front();
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
    use crate::packet::FlowId;

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
