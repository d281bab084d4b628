#![cfg(test)]
//! Property tests for the recorder and exporter invariants the rest of
//! the workspace leans on: balanced spans, monotone virtual time, exact
//! oldest-first overflow accounting, and always-valid Chrome JSON.

use crate::event::{Marker, Phase, TraceEvent, NO_GPU, NO_LAYER, NO_REQUEST, NO_SLOT};
use crate::export::chrome_trace_json;
use crate::json;
use crate::recorder::RingRecorder;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Begin(u64, u64, u32),
    End(u64, u64, u32),
    Span(u64, u64, u32, u64),
    Instant(u64, u64, u32, u64),
}

const PHASES: [Phase; 9] = [
    Phase::Queue,
    Phase::ContextCollect,
    Phase::Gate,
    Phase::PrefetchIssue,
    Phase::Transfer,
    Phase::OnDemandWait,
    Phase::Compute,
    Phase::All2All,
    Phase::Iteration,
];

const MARKERS: [Marker; 6] = [
    Marker::PrefetchIssued,
    Marker::PrefetchArrived,
    Marker::OnDemandLoad,
    Marker::CacheEvict,
    Marker::Shed,
    Marker::TransferRetry,
];

fn phase_for(sel: u32) -> Phase {
    PHASES[(sel as usize) % PHASES.len()]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000_000, 0u64..4, 0u32..3).prop_map(|(at, req, sel)| Op::Begin(at, req, sel)),
        (0u64..1_000_000, 0u64..4, 0u32..3).prop_map(|(at, req, sel)| Op::End(at, req, sel)),
        (0u64..1_000_000, 0u64..4, 0u32..3, 0u64..10_000)
            .prop_map(|(at, req, sel, dur)| Op::Span(at, req, sel, dur)),
        (0u64..1_000_000, 0u64..4, 0u32..6, 0u64..1_000_000)
            .prop_map(|(at, req, sel, val)| Op::Instant(at, req, sel, val)),
    ]
}

fn apply(rec: &mut RingRecorder, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Begin(at, req, sel) => rec.begin(at, phase_for(sel), req, sel % 3),
            Op::End(at, req, sel) => rec.end(at, phase_for(sel), req, sel % 3),
            Op::Span(at, req, sel, dur) => {
                rec.span(at, phase_for(sel), req, sel % 3, NO_GPU, dur, 0);
            }
            Op::Instant(at, req, sel, val) => rec.instant(
                at,
                MARKERS[(sel as usize) % MARKERS.len()],
                req,
                NO_LAYER,
                NO_SLOT,
                NO_GPU,
                val,
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After `take`, every identity's Begin count equals its End count,
    /// and no prefix of the trace closes a span it hasn't opened.
    #[test]
    fn spans_are_always_balanced(ops in prop::collection::vec(op_strategy(), 1..200)) {
        // Ample capacity: overflow would evict Begin records and is
        // exercised separately below.
        let mut rec = RingRecorder::with_capacity(4096);
        apply(&mut rec, &ops);
        let records = rec.take();
        let mut depth: std::collections::BTreeMap<(u32, u64, u32), i64> =
            std::collections::BTreeMap::new();
        for r in &records {
            match r.event {
                TraceEvent::Begin { phase, request, layer } => {
                    *depth.entry((phase as u32, request, layer)).or_insert(0) += 1;
                }
                TraceEvent::End { phase, request, layer } => {
                    let d = depth.entry((phase as u32, request, layer)).or_insert(0);
                    *d -= 1;
                    prop_assert!(*d >= 0, "End without a matching open Begin");
                }
                _ => {}
            }
        }
        for (id, d) in depth {
            prop_assert_eq!(d, 0, "unbalanced span for identity {:?}", id);
        }
    }

    /// Drained records are non-decreasing in virtual time no matter how
    /// adversarially the producer stamps them.
    #[test]
    fn timestamps_are_non_decreasing(
        ops in prop::collection::vec(op_strategy(), 1..200),
        capacity in 1usize..64,
    ) {
        let mut rec = RingRecorder::with_capacity(capacity);
        apply(&mut rec, &ops);
        let records = rec.take();
        for pair in records.windows(2) {
            prop_assert!(
                pair[0].at_ns <= pair[1].at_ns,
                "time went backwards: {} then {}",
                pair[0].at_ns,
                pair[1].at_ns
            );
        }
    }

    /// The clamp counter is exact: it counts the records actually pushed
    /// (an unmatched `End` pushes nothing) whose timestamp was below the
    /// previous record's, and `take` closing open spans adds none.
    #[test]
    fn clamp_counter_counts_every_out_of_order_push(
        ops in prop::collection::vec(op_strategy(), 1..200),
        capacity in 0usize..64,
    ) {
        let mut rec = RingRecorder::with_capacity(capacity);
        let mut expected = 0u64;
        for op in &ops {
            let at = match *op {
                Op::Begin(at, ..) | Op::End(at, ..) | Op::Span(at, ..) | Op::Instant(at, ..) => at,
            };
            let (pushes, last_ns) = (rec.len() as u64 + rec.dropped(), rec.last_ns());
            apply(&mut rec, std::slice::from_ref(op));
            if rec.len() as u64 + rec.dropped() > pushes && at < last_ns {
                expected += 1;
            }
        }
        prop_assert_eq!(rec.clamped(), expected);
        let _ = rec.take();
        prop_assert_eq!(rec.clamped(), expected);
    }

    /// Overflow evicts oldest-first and the drop counter is exact:
    /// pushing N instants through capacity C drops exactly N-C and keeps
    /// the most recent C, in order.
    #[test]
    fn overflow_drops_oldest_first_and_counts_exactly(
        n in 0usize..300,
        capacity in 0usize..40,
    ) {
        let mut rec = RingRecorder::with_capacity(capacity);
        for i in 0..n {
            rec.instant(
                i as u64,
                Marker::CacheInsert,
                NO_REQUEST,
                NO_LAYER,
                NO_SLOT,
                NO_GPU,
                i as u64,
            );
        }
        prop_assert_eq!(rec.dropped(), n.saturating_sub(capacity) as u64);
        let records = rec.take();
        prop_assert_eq!(records.len(), n.min(capacity));
        let first_kept = n.saturating_sub(capacity);
        for (offset, r) in records.iter().enumerate() {
            match r.event {
                TraceEvent::Instant { value, .. } => {
                    prop_assert_eq!(
                        value,
                        (first_kept + offset) as u64,
                        "survivors must be the newest records, oldest-first order"
                    );
                }
                _ => prop_assert!(false, "unexpected record kind"),
            }
        }
    }

    /// The Chrome exporter emits valid JSON for arbitrary sequences,
    /// including ones with unmatched spans and clamped timestamps.
    #[test]
    fn chrome_export_is_always_valid_json(
        ops in prop::collection::vec(op_strategy(), 0..150),
        capacity in 1usize..128,
    ) {
        let mut rec = RingRecorder::with_capacity(capacity);
        apply(&mut rec, &ops);
        let records = rec.take();
        let doc = chrome_trace_json(&records);
        prop_assert!(
            json::validate(&doc).is_ok(),
            "exporter produced invalid JSON: {}",
            doc
        );
    }
}
