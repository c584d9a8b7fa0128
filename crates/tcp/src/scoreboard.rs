//! SACK scoreboard: what has been sent, acked, sacked, lost,
//! retransmitted.

use std::collections::BTreeSet;

/// Result of feeding one acknowledgment to the scoreboard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckOutcome {
    /// Packets newly acknowledged cumulatively by this ACK.
    pub newly_acked: u64,
    /// Packets newly covered by SACK blocks.
    pub newly_sacked: u64,
}

/// Per-flow transmission state, sequence numbers counted in packets.
///
/// Invariants: `high_ack ≤ high_sent`; `sacked`, `lost`, `retx` contain
/// only sequences in `[high_ack, high_sent)`; `retx ⊆ lost`.
#[derive(Debug, Clone, Default)]
pub struct SackScoreboard {
    high_ack: u64,
    high_sent: u64,
    sacked: BTreeSet<u64>,
    lost: BTreeSet<u64>,
    retx: BTreeSet<u64>,
}

impl SackScoreboard {
    /// Fresh scoreboard: nothing sent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next sequence number above everything cumulatively acked.
    pub fn high_ack(&self) -> u64 {
        self.high_ack
    }

    /// Next new sequence number to send.
    pub fn high_sent(&self) -> u64 {
        self.high_sent
    }

    /// Registers the transmission of the next *new* packet, returning
    /// its sequence number.
    pub fn send_new(&mut self) -> u64 {
        let s = self.high_sent;
        self.high_sent += 1;
        s
    }

    /// Number of distinct sequences currently SACKed.
    pub fn sacked_count(&self) -> usize {
        self.sacked.len()
    }

    /// Number of sequences currently marked lost and not yet
    /// retransmitted.
    pub fn pending_retransmits(&self) -> usize {
        self.lost.len() - self.retx.len()
    }

    /// Feeds an acknowledgment (cumulative + SACK ranges).
    ///
    /// Sequences below the new cumulative point are forgotten; the
    /// outcome reports how much new ground it covered.
    pub fn on_ack(&mut self, cum_ack: u64, sack: &[(u64, u64)]) -> AckOutcome {
        let mut out = AckOutcome::default();
        if cum_ack > self.high_ack {
            // Count only packets not already sacked as newly acked
            // progress for window growth purposes.
            for s in self.high_ack..cum_ack.min(self.high_sent) {
                if !self.sacked.contains(&s) {
                    out.newly_acked += 1;
                }
            }
            self.high_ack = cum_ack.min(self.high_sent);
            let ha = self.high_ack;
            self.sacked.retain(|&s| s >= ha);
            self.lost.retain(|&s| s >= ha);
            self.retx.retain(|&s| s >= ha);
        }
        for &(lo, hi) in sack {
            for s in lo.max(self.high_ack)..hi.min(self.high_sent) {
                if self.sacked.insert(s) {
                    out.newly_sacked += 1;
                    // A sacked packet is certainly not lost.
                    self.lost.remove(&s);
                    self.retx.remove(&s);
                }
            }
        }
        out
    }

    /// Highest SACKed sequence, if any.
    pub fn highest_sacked(&self) -> Option<u64> {
        self.sacked.iter().next_back().copied()
    }

    /// Marks every unsacked sequence below the highest SACKed one as
    /// lost (the recovery-entry hole-marking rule). Returns how many
    /// sequences were newly marked.
    pub fn mark_holes_lost(&mut self) -> u64 {
        let Some(top) = self.highest_sacked() else {
            return 0;
        };
        let mut newly = 0;
        for s in self.high_ack..top {
            if !self.sacked.contains(&s) && self.lost.insert(s) {
                newly += 1;
            }
        }
        newly
    }

    /// Marks **all** outstanding unsacked sequences lost (the RTO rule)
    /// and forgets previous retransmissions (they are presumed lost too).
    pub fn mark_all_lost(&mut self) {
        for s in self.high_ack..self.high_sent {
            if !self.sacked.contains(&s) {
                self.lost.insert(s);
            }
        }
        self.retx.clear();
    }

    /// Next lost-and-not-yet-retransmitted sequence, lowest first.
    pub fn next_retransmit(&self) -> Option<u64> {
        self.lost.iter().find(|s| !self.retx.contains(s)).copied()
    }

    /// Records that `seq` was retransmitted.
    ///
    /// # Panics
    /// Panics if `seq` was not marked lost (retransmitting a healthy
    /// packet is a sender bug).
    pub fn note_retransmitted(&mut self, seq: u64) {
        assert!(self.lost.contains(&seq), "retransmit of non-lost {seq}");
        self.retx.insert(seq);
    }

    /// FlightSize (RFC 5681): outstanding data not yet cumulatively or
    /// selectively acknowledged, regardless of loss marks. This is the
    /// quantity `ssthresh` is computed from at a timeout.
    pub fn flight_size(&self) -> u64 {
        (self.high_sent - self.high_ack).saturating_sub(self.sacked.len() as u64)
    }

    /// The pipe: packets believed to be in the network. A sequence in
    /// `[high_ack, high_sent)` contributes 1 unless it is SACKed
    /// (delivered) or lost-and-not-retransmitted (gone).
    pub fn pipe(&self) -> u64 {
        let outstanding = self.high_sent - self.high_ack;
        let sacked = self.sacked.len() as u64;
        let lost_gone = (self.lost.len() - self.retx.len()) as u64;
        outstanding.saturating_sub(sacked + lost_gone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_board_is_empty() {
        let sb = SackScoreboard::new();
        assert_eq!(sb.pipe(), 0);
        assert_eq!(sb.high_ack(), 0);
        assert_eq!(sb.next_retransmit(), None);
    }

    #[test]
    fn sending_grows_pipe_acking_shrinks_it() {
        let mut sb = SackScoreboard::new();
        for _ in 0..10 {
            sb.send_new();
        }
        assert_eq!(sb.pipe(), 10);
        let out = sb.on_ack(4, &[]);
        assert_eq!(out.newly_acked, 4);
        assert_eq!(sb.pipe(), 6);
        assert_eq!(sb.high_ack(), 4);
    }

    #[test]
    fn sack_blocks_reduce_pipe_without_cum_progress() {
        let mut sb = SackScoreboard::new();
        for _ in 0..10 {
            sb.send_new();
        }
        let out = sb.on_ack(0, &[(5, 8)]);
        assert_eq!(out.newly_acked, 0);
        assert_eq!(out.newly_sacked, 3);
        assert_eq!(sb.pipe(), 7);
        assert_eq!(sb.highest_sacked(), Some(7));
    }

    #[test]
    fn hole_marking_and_retransmission_flow() {
        let mut sb = SackScoreboard::new();
        for _ in 0..10 {
            sb.send_new();
        }
        // Packets 0..3 lost, 3..8 sacked.
        sb.on_ack(0, &[(3, 8)]);
        let marked = sb.mark_holes_lost();
        assert_eq!(marked, 3);
        assert_eq!(sb.pending_retransmits(), 3);
        // Pipe: 10 outstanding − 5 sacked − 3 lost = 2.
        assert_eq!(sb.pipe(), 2);
        let r = sb.next_retransmit().unwrap();
        assert_eq!(r, 0);
        sb.note_retransmitted(0);
        assert_eq!(sb.pipe(), 3); // retransmitted packet re-enters pipe
        assert_eq!(sb.next_retransmit(), Some(1));
    }

    #[test]
    fn cum_ack_prunes_state() {
        let mut sb = SackScoreboard::new();
        for _ in 0..10 {
            sb.send_new();
        }
        sb.on_ack(0, &[(3, 8)]);
        sb.mark_holes_lost();
        sb.note_retransmitted(0);
        sb.on_ack(8, &[]);
        assert_eq!(sb.sacked_count(), 0);
        assert_eq!(sb.pending_retransmits(), 0);
        assert_eq!(sb.pipe(), 2); // seqs 8, 9 outstanding
    }

    #[test]
    fn newly_acked_excludes_already_sacked() {
        let mut sb = SackScoreboard::new();
        for _ in 0..6 {
            sb.send_new();
        }
        sb.on_ack(0, &[(2, 6)]);
        // Cum ack jumps to 6: only seqs 0 and 1 are *newly* delivered.
        let out = sb.on_ack(6, &[]);
        assert_eq!(out.newly_acked, 2);
        assert_eq!(sb.pipe(), 0);
    }

    #[test]
    fn rto_marks_everything_lost() {
        let mut sb = SackScoreboard::new();
        for _ in 0..8 {
            sb.send_new();
        }
        sb.on_ack(0, &[(4, 6)]);
        sb.mark_all_lost();
        // 8 outstanding − 2 sacked = 6 lost; pipe = 0.
        assert_eq!(sb.pending_retransmits(), 6);
        assert_eq!(sb.pipe(), 0);
        assert_eq!(sb.next_retransmit(), Some(0));
    }

    #[test]
    fn sack_beyond_high_sent_is_clamped() {
        let mut sb = SackScoreboard::new();
        for _ in 0..3 {
            sb.send_new();
        }
        let out = sb.on_ack(0, &[(1, 99)]);
        assert_eq!(out.newly_sacked, 2);
        assert_eq!(sb.pipe(), 1);
    }

    #[test]
    fn duplicate_sack_blocks_do_not_double_count() {
        let mut sb = SackScoreboard::new();
        for _ in 0..5 {
            sb.send_new();
        }
        sb.on_ack(0, &[(1, 3)]);
        let out = sb.on_ack(0, &[(1, 3)]);
        assert_eq!(out.newly_sacked, 0);
    }

    #[test]
    #[should_panic(expected = "non-lost")]
    fn retransmitting_healthy_packet_panics() {
        let mut sb = SackScoreboard::new();
        sb.send_new();
        sb.note_retransmitted(0);
    }
}
