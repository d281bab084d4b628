//! Serving metrics: TTFT, TPOT, hit rates, and the per-operation latency
//! breakdown of the paper's Figure 15.

use fmoe_stats::Summary;
use serde::Serialize;

/// Metrics for one served request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RequestMetrics {
    /// Request id.
    pub request_id: u64,
    /// Time-To-First-Token: start of serving to end of the prefill
    /// iteration, in nanoseconds (§2.1).
    pub ttft_ns: u64,
    /// Total time spent in decode iterations.
    pub decode_ns: u64,
    /// Number of decode iterations executed.
    pub decode_iterations: u64,
    /// End-to-end serving time (TTFT + decode), excluding queueing.
    pub total_ns: u64,
    /// Expert-cache hits across all iterations/layers.
    pub expert_hits: u64,
    /// Expert-cache misses (on-demand loads).
    pub expert_misses: u64,
    /// Hits served by a reduced-precision resident expert (the
    /// mixed-precision extension's quality proxy; 0 when the feature is
    /// off).
    pub degraded_hits: u64,
    /// On-demand loads that fell back to reduced precision — because the
    /// load missed its deadline under link faults, or because the request
    /// was served in SLO-degraded mode. 0 when the failure model is off.
    pub degraded_loads: u64,
    /// `true` when the whole request was served in degraded mode (SLO
    /// pressure made the scheduler trade quality for latency).
    pub served_degraded: bool,
}

impl RequestMetrics {
    /// Time-Per-Output-Token over the decode stage, in nanoseconds.
    /// Zero when the request had no decode iterations.
    #[must_use]
    pub fn tpot_ns(&self) -> f64 {
        if self.decode_iterations == 0 {
            0.0
        } else {
            self.decode_ns as f64 / self.decode_iterations as f64
        }
    }

    /// Expert hit rate over the whole request.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.expert_hits + self.expert_misses;
        if total == 0 {
            0.0
        } else {
            self.expert_hits as f64 / total as f64
        }
    }
}

/// Aggregated metrics over a set of requests (one experiment cell).
#[derive(Debug, Clone, Serialize)]
pub struct AggregateMetrics {
    /// Number of requests aggregated.
    pub requests: usize,
    /// Mean TTFT in milliseconds.
    pub mean_ttft_ms: f64,
    /// Mean TPOT in milliseconds (over requests with decode iterations).
    pub mean_tpot_ms: f64,
    /// Pooled expert hit rate (total hits / total accesses).
    pub hit_rate: f64,
    /// Mean end-to-end latency in milliseconds.
    pub mean_total_ms: f64,
    /// P95 end-to-end latency in milliseconds.
    pub p95_total_ms: f64,
    /// Fraction of expert accesses served at reduced precision (0 when
    /// the mixed-precision extension is off).
    pub degraded_fraction: f64,
}

impl AggregateMetrics {
    /// Aggregates request metrics. Returns a zeroed struct for an empty
    /// slice.
    #[must_use]
    pub fn from_requests(requests: &[RequestMetrics]) -> Self {
        if requests.is_empty() {
            return Self {
                requests: 0,
                mean_ttft_ms: 0.0,
                mean_tpot_ms: 0.0,
                hit_rate: 0.0,
                mean_total_ms: 0.0,
                p95_total_ms: 0.0,
                degraded_fraction: 0.0,
            };
        }
        let mut ttft = Summary::new();
        let mut tpot = Summary::new();
        let mut total = Summary::new();
        let mut hits = 0u64;
        let mut accesses = 0u64;
        let mut degraded = 0u64;
        let mut totals: Vec<f64> = Vec::with_capacity(requests.len());
        for r in requests {
            degraded += r.degraded_hits;
            ttft.record(r.ttft_ns as f64 / 1e6);
            if r.decode_iterations > 0 {
                tpot.record(r.tpot_ns() / 1e6);
            }
            total.record(r.total_ns as f64 / 1e6);
            totals.push(r.total_ns as f64 / 1e6);
            hits += r.expert_hits;
            accesses += r.expert_hits + r.expert_misses;
        }
        let cdf = fmoe_stats::EmpiricalCdf::new(totals);
        Self {
            requests: requests.len(),
            mean_ttft_ms: ttft.mean(),
            mean_tpot_ms: tpot.mean(),
            hit_rate: if accesses == 0 {
                0.0
            } else {
                hits as f64 / accesses as f64
            },
            mean_total_ms: total.mean(),
            p95_total_ms: cdf.quantile(0.95).unwrap_or(0.0),
            degraded_fraction: if accesses == 0 {
                0.0
            } else {
                degraded as f64 / accesses as f64
            },
        }
    }
}

/// Cumulative per-operation time, averaged per iteration on report — the
/// paper's Figure 15 breakdown.
///
/// Synchronous entries extend the critical path; asynchronous entries
/// overlap compute and are reported for completeness (the paper shows them
/// hatched).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Breakdown {
    /// Iterations accumulated.
    pub iterations: u64,
    /// Synchronous: per-iteration context collection (embedding/trajectory
    /// snapshots).
    pub context_collection_ns: u64,
    /// Map matching / prediction. Synchronous for sync policies; otherwise
    /// asynchronous.
    pub matching_ns: u64,
    /// `true` when `matching_ns` sat on the critical path.
    pub matching_synchronous: bool,
    /// Synchronous: waiting for on-demand expert loads.
    pub on_demand_wait_ns: u64,
    /// Synchronous: stalls waiting for blocking prefetches (policies with
    /// `blocking_prefetch`, e.g. Mixtral-Offloading).
    pub blocking_prefetch_ns: u64,
    /// Synchronous: attention + gate + expert + head compute.
    pub compute_ns: u64,
    /// Asynchronous: prefetch wire time overlapped with compute.
    pub prefetch_async_ns: u64,
    /// Asynchronous: store/matrix update time.
    pub update_async_ns: u64,
    /// Synchronous: expert-parallel all2all token routing on the peer
    /// fabric (zero unless EP is enabled on a multi-GPU topology).
    pub all2all_ns: u64,
    /// Synchronous: misses served from a peer device's spill pool over
    /// the peer link (zero unless EP peer fetching is enabled).
    pub peer_fetch_ns: u64,
    /// Number of peer-to-peer miss fetches.
    pub peer_fetches: u64,
    /// Total critical-path iteration time.
    pub iteration_total_ns: u64,
}

/// Per-GPU critical-path attribution across an engine's lifetime:
/// expert-FFN compute, EP all2all busy time, and weight-transfer stall
/// per device. Vectors are indexed by GPU and sized lazily from the
/// topology. Feeds the cluster's per-GPU `ClusterReport` breakdowns
/// (DESIGN.md §17).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PerGpuBreakdown {
    /// Expert FFN busy time per GPU.
    pub compute_ns: Vec<u64>,
    /// All2all (dispatch + combine) busy time per GPU.
    pub all2all_ns: Vec<u64>,
    /// On-demand weight-transfer stall attributed per GPU (host or
    /// peer link).
    pub transfer_ns: Vec<u64>,
}

impl PerGpuBreakdown {
    /// Sizes all vectors for `num_gpus` devices (no-op once sized).
    pub fn ensure_gpus(&mut self, num_gpus: usize) {
        if self.compute_ns.len() != num_gpus {
            self.compute_ns = vec![0; num_gpus];
            self.all2all_ns = vec![0; num_gpus];
            self.transfer_ns = vec![0; num_gpus];
        }
    }

    /// Number of GPUs tracked.
    #[must_use]
    pub fn num_gpus(&self) -> usize {
        self.compute_ns.len()
    }
}

impl Breakdown {
    /// Mean per-iteration value of a counter, in milliseconds.
    #[must_use]
    pub fn per_iteration_ms(&self, counter_ns: u64) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            counter_ns as f64 / self.iterations as f64 / 1e6
        }
    }

    /// Synchronous (critical-path) overhead per iteration, in
    /// milliseconds, excluding compute and on-demand waits — the quantity
    /// the paper bounds at "less than 30 ms (5% of the iteration)" (§6.7).
    #[must_use]
    pub fn sync_overhead_per_iteration_ms(&self) -> f64 {
        let mut ns = self.context_collection_ns;
        if self.matching_synchronous {
            ns += self.matching_ns;
        }
        self.per_iteration_ms(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(id: u64, ttft: u64, decode: u64, iters: u64, hits: u64, misses: u64) -> RequestMetrics {
        RequestMetrics {
            request_id: id,
            ttft_ns: ttft,
            decode_ns: decode,
            decode_iterations: iters,
            total_ns: ttft + decode,
            expert_hits: hits,
            expert_misses: misses,
            degraded_hits: 0,
            degraded_loads: 0,
            served_degraded: false,
        }
    }

    #[test]
    fn tpot_and_hit_rate() {
        let r = rm(1, 1_000_000, 10_000_000, 10, 30, 10);
        assert!((r.tpot_ns() - 1_000_000.0).abs() < 1e-9);
        assert!((r.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_decode_iterations_tpot_is_zero() {
        let r = rm(1, 5, 0, 0, 0, 0);
        assert_eq!(r.tpot_ns(), 0.0);
        assert_eq!(r.hit_rate(), 0.0);
    }

    #[test]
    fn aggregate_pools_hits() {
        let rs = vec![
            rm(1, 2_000_000, 8_000_000, 8, 8, 2),
            rm(2, 4_000_000, 0, 0, 0, 10),
        ];
        let a = AggregateMetrics::from_requests(&rs);
        assert_eq!(a.requests, 2);
        assert!((a.mean_ttft_ms - 3.0).abs() < 1e-9);
        // Pooled: 8 hits of 20 accesses.
        assert!((a.hit_rate - 0.4).abs() < 1e-12);
        // TPOT mean only over requests with decode iterations.
        assert!((a.mean_tpot_ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_of_empty_is_zeroed() {
        let a = AggregateMetrics::from_requests(&[]);
        assert_eq!(a.requests, 0);
        assert_eq!(a.hit_rate, 0.0);
    }

    #[test]
    fn breakdown_reports_sync_overhead() {
        let b = Breakdown {
            iterations: 10,
            context_collection_ns: 10_000_000,
            matching_ns: 20_000_000,
            matching_synchronous: false,
            ..Default::default()
        };
        // Async matching excluded: only 1 ms of context collection.
        assert!((b.sync_overhead_per_iteration_ms() - 1.0).abs() < 1e-9);
        let b_sync = Breakdown {
            matching_synchronous: true,
            ..b
        };
        assert!((b_sync.sync_overhead_per_iteration_ms() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_handles_zero_iterations() {
        let b = Breakdown::default();
        assert_eq!(b.per_iteration_ms(1_000_000), 0.0);
        assert_eq!(b.sync_overhead_per_iteration_ms(), 0.0);
    }
}
