//! Property tests: SACK scoreboard invariants under arbitrary
//! operation sequences, and RTO estimator sanity.

use ebrc_tcp::{RtoEstimator, SackScoreboard};
use proptest::prelude::*;

/// Operations a fuzzer can apply to a scoreboard.
#[derive(Debug, Clone)]
enum Op {
    SendNew,
    /// Ack up to `high_ack + k` with a sack block `k2` beyond it.
    Ack(u8, u8),
    MarkHoles,
    MarkAll,
    Retransmit,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::SendNew),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Ack(a, b)),
        1 => Just(Op::MarkHoles),
        1 => Just(Op::MarkAll),
        2 => Just(Op::Retransmit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Core scoreboard invariants hold after any operation sequence:
    /// `high_ack ≤ high_sent`, `pipe ≤ outstanding`, flight ≥ pipe only
    /// when retransmissions are outstanding, counters never underflow.
    #[test]
    fn scoreboard_invariants(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut sb = SackScoreboard::new();
        for op in ops {
            match op {
                Op::SendNew => {
                    sb.send_new();
                }
                Op::Ack(a, b) => {
                    let cum = sb.high_ack() + (a % 8) as u64;
                    let lo = cum + 1 + (b % 4) as u64;
                    let hi = lo + 1 + (b % 3) as u64;
                    sb.on_ack(cum, &[(lo, hi)]);
                }
                Op::MarkHoles => {
                    sb.mark_holes_lost();
                }
                Op::MarkAll => {
                    sb.mark_all_lost();
                }
                Op::Retransmit => {
                    if let Some(seq) = sb.next_retransmit() {
                        sb.note_retransmitted(seq);
                    }
                }
            }
            prop_assert!(sb.high_ack() <= sb.high_sent());
            let outstanding = sb.high_sent() - sb.high_ack();
            prop_assert!(sb.pipe() <= outstanding);
            prop_assert!(sb.flight_size() <= outstanding);
            prop_assert!(sb.sacked_count() as u64 <= outstanding);
            // A pending retransmit must reference an outstanding seq.
            if let Some(seq) = sb.next_retransmit() {
                prop_assert!(seq >= sb.high_ack() && seq < sb.high_sent());
            }
        }
    }

    /// Acking everything empties the pipe completely.
    #[test]
    fn full_ack_drains_pipe(sends in 1_u64..200) {
        let mut sb = SackScoreboard::new();
        for _ in 0..sends {
            sb.send_new();
        }
        sb.mark_holes_lost();
        sb.on_ack(sends, &[]);
        prop_assert_eq!(sb.pipe(), 0);
        prop_assert_eq!(sb.flight_size(), 0);
        prop_assert_eq!(sb.next_retransmit(), None);
        prop_assert_eq!(sb.sacked_count(), 0);
    }

    /// The RTO estimator stays within its clamps for any sample stream
    /// and backoff pattern.
    #[test]
    fn rto_within_clamps(
        samples in proptest::collection::vec(0.001_f64..5.0, 1..100),
        timeouts in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut e = RtoEstimator::new(0.2, 60.0);
        let mut ti = timeouts.iter().cycle();
        for s in &samples {
            e.sample(*s);
            if *ti.next().unwrap() {
                e.on_timeout();
            }
            let rto = e.rto();
            prop_assert!((0.2..=60.0).contains(&rto), "rto {rto}");
            prop_assert!(e.srtt().unwrap() > 0.0);
        }
    }

    /// Constant RTT stream: srtt converges to the true value.
    #[test]
    fn rto_converges_on_constant_rtt(rtt in 0.01_f64..2.0) {
        let mut e = RtoEstimator::new(0.001, 600.0);
        for _ in 0..300 {
            e.sample(rtt);
        }
        let srtt = e.srtt().unwrap();
        prop_assert!((srtt - rtt).abs() / rtt < 0.01, "srtt {srtt} vs {rtt}");
    }
}
