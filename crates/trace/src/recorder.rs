//! The preallocated ring-buffer recorder.
//!
//! Three invariants, all locked by proptests in this crate:
//!
//! 1. **Monotone time** — each stored record's timestamp is clamped to be
//!    `>=` the previous record's. The clamp turns a record stamped earlier
//!    than its predecessor into a visible flat spot instead of a
//!    time-travelling trace that Chrome renders as garbage, and counts it
//!    ([`RingRecorder::clamped`]), so such a record is never silent.
//! 2. **Balanced spans** — `end` without a matching `begin` records
//!    nothing, and [`RingRecorder::take`] closes any still-open span at
//!    the final timestamp, so a drained trace always has begin/end
//!    parity.
//! 3. **Bounded memory** — the buffer never grows past its capacity; on
//!    overflow the *oldest* record is dropped and counted. The tail of a
//!    trace (where the interesting failure usually is) survives.

use crate::event::{Nanos, Phase, TraceEvent, TraceRecord};
use std::collections::VecDeque;

/// Fixed-capacity event recorder with monotone virtual timestamps.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    last_ns: Nanos,
    dropped: u64,
    clamped: u64,
    /// Open `Begin` spans awaiting their `End`, newest last.
    open: Vec<(Phase, u64, u32, Nanos)>,
}

impl RingRecorder {
    /// Create a recorder holding at most `capacity` records. The buffer
    /// is allocated once, here; recording never allocates. A capacity of
    /// zero drops (and counts) every record.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        RingRecorder {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            last_ns: 0,
            dropped: 0,
            clamped: 0,
            open: Vec::new(),
        }
    }

    /// Number of records currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records evicted to make room since construction. Never
    /// reset — a nonzero value means the trace is a suffix of the run.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records whose timestamp was earlier than the previous record's
    /// and was moved forward to it, since construction. Never reset — a
    /// nonzero value means some producer emitted out of causal order.
    #[must_use]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Timestamp of the most recently recorded event.
    #[must_use]
    pub fn last_ns(&self) -> Nanos {
        self.last_ns
    }

    fn push(&mut self, at_ns: Nanos, event: TraceEvent) {
        if at_ns < self.last_ns {
            self.clamped += 1;
        }
        let at_ns = at_ns.max(self.last_ns);
        self.last_ns = at_ns;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord { at_ns, event });
    }

    /// Open a phase span.
    pub fn begin(&mut self, at_ns: Nanos, phase: Phase, request: u64, layer: u32) {
        self.push(
            at_ns,
            TraceEvent::Begin {
                phase,
                request,
                layer,
            },
        );
        self.open.push((phase, request, layer, self.last_ns));
    }

    /// Close the most recent open span with this identity. A close with
    /// no matching open records nothing, keeping the trace balanced by
    /// construction.
    pub fn end(&mut self, at_ns: Nanos, phase: Phase, request: u64, layer: u32) {
        let Some(idx) = self
            .open
            .iter()
            .rposition(|&(p, r, l, _)| p == phase && r == request && l == layer)
        else {
            return;
        };
        self.open.remove(idx);
        self.push(
            at_ns,
            TraceEvent::End {
                phase,
                request,
                layer,
            },
        );
    }

    /// Record a complete interval retroactively at its end time.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        end_ns: Nanos,
        phase: Phase,
        request: u64,
        layer: u32,
        gpu: u32,
        dur_ns: Nanos,
        bytes: u64,
    ) {
        self.push(
            end_ns,
            TraceEvent::Span {
                phase,
                request,
                layer,
                gpu,
                dur_ns,
                bytes,
            },
        );
    }

    /// Record a point event.
    #[allow(clippy::too_many_arguments)]
    pub fn instant(
        &mut self,
        at_ns: Nanos,
        marker: crate::event::Marker,
        request: u64,
        layer: u32,
        slot: u32,
        gpu: u32,
        value: u64,
    ) {
        self.push(
            at_ns,
            TraceEvent::Instant {
                marker,
                request,
                layer,
                slot,
                gpu,
                value,
            },
        );
    }

    /// Drain every buffered record in recording order. Spans still open
    /// are closed first, at the final timestamp, newest-first (proper
    /// nesting). The drop counter is preserved across `take`.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        while let Some((phase, request, layer, _)) = self.open.pop() {
            self.push(
                self.last_ns,
                TraceEvent::End {
                    phase,
                    request,
                    layer,
                },
            );
        }
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Marker, NO_GPU, NO_LAYER, NO_REQUEST, NO_SLOT};

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut r = RingRecorder::with_capacity(3);
        for i in 0..5u64 {
            r.instant(
                i * 10,
                Marker::CacheInsert,
                NO_REQUEST,
                NO_LAYER,
                NO_SLOT,
                NO_GPU,
                i,
            );
        }
        assert_eq!(r.dropped(), 2);
        let recs = r.take();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].at_ns, 20, "oldest two records were evicted");
        assert_eq!(recs[2].at_ns, 40);
    }

    #[test]
    fn timestamps_clamp_monotone() {
        let mut r = RingRecorder::with_capacity(8);
        r.instant(100, Marker::Shed, 1, NO_LAYER, NO_SLOT, NO_GPU, 0);
        r.instant(40, Marker::Shed, 2, NO_LAYER, NO_SLOT, NO_GPU, 0);
        let recs = r.take();
        assert_eq!(recs[0].at_ns, 100);
        assert_eq!(recs[1].at_ns, 100, "out-of-order timestamp clamps forward");
        assert_eq!(r.clamped(), 1, "and the clamp is counted");
    }

    #[test]
    fn unmatched_end_is_a_no_op() {
        let mut r = RingRecorder::with_capacity(8);
        r.end(10, Phase::Gate, 1, 0);
        assert!(r.is_empty());
    }

    #[test]
    fn take_closes_open_spans_nested() {
        let mut r = RingRecorder::with_capacity(8);
        r.begin(10, Phase::Iteration, NO_REQUEST, NO_LAYER);
        r.begin(20, Phase::Gate, NO_REQUEST, 0);
        let recs = r.take();
        assert_eq!(recs.len(), 4);
        // Inner span closes before the outer one.
        assert!(matches!(
            recs[2].event,
            TraceEvent::End {
                phase: Phase::Gate,
                ..
            }
        ));
        assert!(matches!(
            recs[3].event,
            TraceEvent::End {
                phase: Phase::Iteration,
                ..
            }
        ));
        assert_eq!(recs[2].at_ns, 20);
        assert_eq!(recs[3].at_ns, 20);
    }

    #[test]
    fn zero_capacity_counts_everything_as_dropped() {
        let mut r = RingRecorder::with_capacity(0);
        r.begin(5, Phase::Gate, 1, 0);
        r.end(9, Phase::Gate, 1, 0);
        assert_eq!(r.dropped(), 2);
        assert!(r.take().is_empty());
    }
}
