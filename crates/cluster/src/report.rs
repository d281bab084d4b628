//! Aggregated outcome of a cluster dispatch.

use crate::lifecycle::FailoverStats;
use crate::routing::RoutingStats;
use fmoe_cache::CacheStats;
use fmoe_serving::{OnlineResult, PerGpuBreakdown, ShedRequest};
use fmoe_stats::EmpiricalCdf;
use serde::Serialize;

/// One replica's share of a [`ClusterReport`].
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaReport {
    /// Replica id (index in the cluster).
    pub replica: usize,
    /// Served requests, in this replica's arrival order.
    pub results: Vec<OnlineResult>,
    /// Requests the SLO policy shed on this replica, in arrival order.
    pub shed: Vec<ShedRequest>,
    /// How many of `results` were served in degraded mode.
    pub degraded_serves: u64,
    /// Expert-cache counters (hits/misses/evictions) for the replica.
    pub cache: CacheStats,
    /// Peak FIFO queue depth observed at any arrival (the arriving
    /// request included; shed requests never occupy the queue).
    pub max_queue_depth: usize,
    /// Mean queue depth over this replica's arrivals, requests included.
    pub mean_queue_depth: f64,
    /// Per-GPU compute/all2all/transfer attribution inside the replica
    /// (expert parallelism; all-zero on single-GPU replicas that never
    /// load an expert).
    pub per_gpu: PerGpuBreakdown,
}

impl ReplicaReport {
    /// End-to-end latencies of served requests, in nanoseconds.
    #[must_use]
    pub fn latencies_ns(&self) -> Vec<f64> {
        self.results
            .iter()
            .map(|r| r.request_latency_ns() as f64)
            .collect()
    }

    /// Latency quantile in nanoseconds; `None` when nothing was served.
    #[must_use]
    pub fn latency_quantile_ns(&self, q: f64) -> Option<f64> {
        EmpiricalCdf::new(self.latencies_ns()).quantile(q)
    }
}

/// Fleet-wide outcome of [`crate::Cluster::dispatch`].
#[derive(Debug, Clone, Serialize)]
pub struct ClusterReport {
    /// Per-replica breakdown, in replica-id order.
    pub replicas: Vec<ReplicaReport>,
    /// Routing-decision counters (see [`RoutingStats`]).
    pub routing: RoutingStats,
    /// Replica-lifecycle counters (see [`FailoverStats`]); all zero
    /// under an inert (or absent) replica fault schedule.
    pub failover: FailoverStats,
    /// Cluster-level sheds: requests that exhausted their re-dispatch
    /// budget after repeated crashes, or arrived during a full outage.
    /// Disjoint from the per-replica SLO sheds. Empty under an inert
    /// schedule.
    pub failover_shed: Vec<ShedRequest>,
    /// Requests routed by `dispatch` so far (failover re-dispatches
    /// re-route existing requests and do not re-count).
    pub dispatched: u64,
}

impl ClusterReport {
    /// Total requests served across the fleet.
    #[must_use]
    pub fn total_served(&self) -> usize {
        self.replicas.iter().map(|r| r.results.len()).sum()
    }

    /// Total requests shed across the fleet: per-replica SLO sheds plus
    /// cluster-level failover sheds.
    #[must_use]
    pub fn total_shed(&self) -> usize {
        self.replicas.iter().map(|r| r.shed.len()).sum::<usize>() + self.failover_shed.len()
    }

    /// The zero-lost-requests identity: every dispatched request is
    /// accounted for exactly once, as served (possibly after failover)
    /// or shed (by a replica's SLO policy or by the cluster itself).
    #[must_use]
    pub fn accounting_balances(&self) -> bool {
        self.dispatched == (self.total_served() + self.total_shed()) as u64
    }

    /// Goodput: fraction of dispatched requests that were served.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        let total = self.total_served() + self.total_shed();
        if total == 0 {
            0.0
        } else {
            self.total_served() as f64 / total as f64
        }
    }

    /// Fleet cache hit rate: pooled hits over pooled accesses across all
    /// replica caches — the locality number `SemanticAffinity` exists to
    /// improve.
    #[must_use]
    pub fn fleet_hit_rate(&self) -> f64 {
        let hits: u64 = self.replicas.iter().map(|r| r.cache.hits).sum();
        let misses: u64 = self.replicas.iter().map(|r| r.cache.misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// The per-replica lookup identity, fleet-wide: every replica's
    /// lifetime cache stats satisfy `hits + misses == lookups`. Restart
    /// carry-over merges snapshots field-wise, which preserves the
    /// identity — a double-counted warmup or rejection would break it
    /// here.
    #[must_use]
    pub fn cache_accounting_balances(&self) -> bool {
        self.replicas.iter().all(|r| r.cache.check_invariants())
    }

    /// Fleet-wide end-to-end latency CDF over every served request.
    #[must_use]
    pub fn fleet_latency_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(
            self.replicas
                .iter()
                .flat_map(ReplicaReport::latencies_ns)
                .collect(),
        )
    }

    /// Fleet-wide latency quantile in nanoseconds; `None` when nothing
    /// was served.
    #[must_use]
    pub fn fleet_latency_quantile_ns(&self, q: f64) -> Option<f64> {
        self.fleet_latency_cdf().quantile(q)
    }
}
