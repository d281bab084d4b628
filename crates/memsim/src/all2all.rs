//! All2all token-routing cost model for expert parallelism (EP).
//!
//! With EP, every MoE layer performs two collective phases on the peer
//! fabric: **dispatch** (each GPU sends the hidden activations of tokens
//! routed to remotely-owned experts) and **combine** (expert outputs
//! return to the token's source GPU). The phase is gate-dependent: the
//! bottleneck device is the one whose experts attract the most tokens,
//! so gate skew directly stretches the critical path.
//!
//! The model is analytic and clocked in virtual time on the topology's
//! [`Link`](crate::link::Link) parameters — no queueing through the
//! transfer engine, since all2all is a synchronous collective on the
//! forward critical path:
//!
//! ```text
//! phase_time(g) = setup_factor · peer.setup_latency
//!              + wire(cross_bytes(g)) / efficiency
//! layer_time    = 2 · max_g phase_time(g)        (dispatch + combine)
//! cross_bytes(g) = recv_tokens(g) · bytes_per_token · (n-1)/n
//! ```
//!
//! where `recv_tokens(g)` is the per-destination routed load for the
//! skew-sensitive backends, or the *total* token load for the
//! skew-oblivious allgather/reduce-scatter backend (every device
//! materialises every token, so skew cannot hurt it — but it always
//! moves the full payload). `(n-1)/n` is the expected cross-device
//! fraction for uniformly spread token sources.

use crate::clock::Nanos;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Communication backend profile for the EP all2all, mirroring the
/// usual kernel families in serving stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum All2AllBackend {
    /// Static allgather + reduce-scatter schedule: one fused phase with
    /// minimal setup, dense payload (every GPU receives every token),
    /// insensitive to gate skew.
    AllGatherReduceScatter,
    /// Latency-optimised per-destination sends: half the setup cost of
    /// the throughput kernels but only ~60% of wire bandwidth. Wins on
    /// small decode payloads.
    #[default]
    LowLatency,
    /// Throughput-optimised pipelined all2all: high setup amortised over
    /// large payloads at ~95% of wire bandwidth. Wins on prefill-sized
    /// payloads.
    HighThroughput,
}

impl All2AllBackend {
    /// All profiles, in sweep order.
    pub const ALL: [Self; 3] = [
        Self::AllGatherReduceScatter,
        Self::LowLatency,
        Self::HighThroughput,
    ];

    /// Stable kebab-case name for CSV columns and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::AllGatherReduceScatter => "allgather-rs",
            Self::LowLatency => "low-latency",
            Self::HighThroughput => "high-throughput",
        }
    }

    /// Multiplier on the peer link's per-transfer setup latency for one
    /// collective phase.
    #[must_use]
    fn setup_factor(self) -> f64 {
        match self {
            Self::AllGatherReduceScatter => 1.0,
            Self::LowLatency => 0.5,
            Self::HighThroughput => 4.0,
        }
    }

    /// Fraction of the peer link's wire bandwidth the kernel sustains.
    #[must_use]
    fn efficiency(self) -> f64 {
        match self {
            Self::AllGatherReduceScatter => 0.95,
            Self::LowLatency => 0.6,
            Self::HighThroughput => 0.95,
        }
    }

    /// Whether the backend's per-device payload ignores routing skew
    /// (dense allgather) rather than following per-destination load.
    #[must_use]
    fn skew_free(self) -> bool {
        matches!(self, Self::AllGatherReduceScatter)
    }
}

/// Gate skew of a routed layer: bottleneck-GPU token load over the mean
/// load (`1.0` for perfectly balanced routing or degenerate inputs).
#[must_use]
pub fn gate_skew(tokens_to_gpu: &[u64]) -> f64 {
    let n = tokens_to_gpu.len() as u64;
    let total: u64 = tokens_to_gpu.iter().sum();
    if n == 0 || total == 0 {
        return 1.0;
    }
    let max = tokens_to_gpu.iter().copied().max().unwrap_or(0);
    max as f64 * n as f64 / total as f64
}

/// Cross-device payload for one phase at one destination, in bytes:
/// `tokens · bytes_per_token · (n-1)/n`, computed in integer arithmetic.
#[must_use]
fn cross_bytes(tokens: u64, bytes_per_token: u64, num_gpus: u64) -> u64 {
    if num_gpus <= 1 {
        return 0;
    }
    let raw = u128::from(tokens) * u128::from(bytes_per_token) * u128::from(num_gpus - 1)
        / u128::from(num_gpus);
    u64::try_from(raw).unwrap_or(u64::MAX)
}

/// One collective phase's duration at a single destination GPU.
#[must_use]
fn phase_time(
    topo: &Topology,
    backend: All2AllBackend,
    recv_tokens: u64,
    bytes_per_token: u64,
) -> Nanos {
    let bytes = cross_bytes(recv_tokens, bytes_per_token, u64::from(topo.num_gpus));
    let setup = (topo.peer_link.setup_latency as f64 * backend.setup_factor()).ceil() as Nanos;
    let wire =
        ((bytes as f64 / (topo.peer_link.bandwidth * backend.efficiency())) * 1e9).ceil() as Nanos;
    setup + wire
}

/// Per-layer all2all cost (dispatch + combine) for one MoE layer.
///
/// `tokens_to_gpu[g]` is the number of token→expert assignments routed
/// to experts owned by GPU `g` this layer; `bytes_per_token` is the
/// hidden-activation payload per assignment. Fills `per_gpu` (indexed by
/// GPU, truncated/zero-extended to the topology size) with each GPU's
/// dispatch+combine busy time and returns the layer critical path — the
/// maximum over GPUs. Single-GPU topologies and empty layers cost zero.
#[must_use]
pub fn all2all_layer_time(
    topo: &Topology,
    backend: All2AllBackend,
    tokens_to_gpu: &[u64],
    bytes_per_token: u64,
    per_gpu: &mut [Nanos],
) -> Nanos {
    per_gpu.iter_mut().for_each(|t| *t = 0);
    let n = topo.num_gpus as usize;
    let total: u64 = tokens_to_gpu.iter().take(n).sum();
    if n <= 1 || total == 0 {
        return 0;
    }
    let mut critical = 0;
    for g in 0..n {
        let recv = if backend.skew_free() {
            total
        } else {
            tokens_to_gpu.get(g).copied().unwrap_or(0)
        };
        // Dispatch and combine are symmetric: same payload, reversed
        // direction, each on the device's own peer port.
        let busy = 2 * phase_time(topo, backend, recv, bytes_per_token);
        if let Some(slot) = per_gpu.get_mut(g) {
            *slot = busy;
        }
        critical = critical.max(busy);
    }
    critical
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(n: u32) -> Topology {
        Topology {
            num_gpus: n,
            ..Topology::paper_testbed()
        }
    }

    #[test]
    fn single_gpu_costs_nothing() {
        let mut per_gpu = [0; 1];
        for backend in All2AllBackend::ALL {
            assert_eq!(
                all2all_layer_time(&topo(1), backend, &[1000], 8192, &mut per_gpu),
                0
            );
        }
    }

    #[test]
    fn empty_layer_costs_nothing() {
        let mut per_gpu = [0; 4];
        assert_eq!(
            all2all_layer_time(
                &topo(4),
                All2AllBackend::LowLatency,
                &[0, 0, 0, 0],
                8192,
                &mut per_gpu
            ),
            0
        );
        assert!(per_gpu.iter().all(|&t| t == 0));
    }

    #[test]
    fn skew_stretches_routed_backends_but_not_allgather() {
        let mut per_gpu = [0; 4];
        let balanced = [256u64, 256, 256, 256];
        let skewed = [1024u64, 0, 0, 0];
        for backend in [All2AllBackend::LowLatency, All2AllBackend::HighThroughput] {
            let flat = all2all_layer_time(&topo(4), backend, &balanced, 8192, &mut per_gpu);
            let hot = all2all_layer_time(&topo(4), backend, &skewed, 8192, &mut per_gpu);
            assert!(hot > flat, "{backend:?}: skewed {hot} <= balanced {flat}");
        }
        let backend = All2AllBackend::AllGatherReduceScatter;
        let flat = all2all_layer_time(&topo(4), backend, &balanced, 8192, &mut per_gpu);
        let hot = all2all_layer_time(&topo(4), backend, &skewed, 8192, &mut per_gpu);
        assert_eq!(flat, hot, "allgather must be skew-free");
    }

    #[test]
    fn low_latency_wins_small_payloads_high_throughput_wins_large() {
        let mut per_gpu = [0; 4];
        let small = [4u64, 4, 4, 4];
        let ll_small = all2all_layer_time(
            &topo(4),
            All2AllBackend::LowLatency,
            &small,
            8192,
            &mut per_gpu,
        );
        let ht_small = all2all_layer_time(
            &topo(4),
            All2AllBackend::HighThroughput,
            &small,
            8192,
            &mut per_gpu,
        );
        assert!(ll_small < ht_small, "{ll_small} vs {ht_small}");

        let large = [65_536u64; 4];
        let ll_large = all2all_layer_time(
            &topo(4),
            All2AllBackend::LowLatency,
            &large,
            8192,
            &mut per_gpu,
        );
        let ht_large = all2all_layer_time(
            &topo(4),
            All2AllBackend::HighThroughput,
            &large,
            8192,
            &mut per_gpu,
        );
        assert!(ht_large < ll_large, "{ht_large} vs {ll_large}");
    }

    #[test]
    fn critical_path_is_the_per_gpu_max() {
        let mut per_gpu = [0; 4];
        let tokens = [100u64, 700, 300, 50];
        let t = all2all_layer_time(
            &topo(4),
            All2AllBackend::HighThroughput,
            &tokens,
            8192,
            &mut per_gpu,
        );
        assert_eq!(t, per_gpu.iter().copied().max().unwrap_or(0));
        assert_eq!(t, per_gpu[1]);
    }

    #[test]
    fn gate_skew_reports_bottleneck_over_mean() {
        assert_eq!(gate_skew(&[]), 1.0);
        assert_eq!(gate_skew(&[0, 0]), 1.0);
        assert!((gate_skew(&[10, 10, 10, 10]) - 1.0).abs() < 1e-12);
        assert!((gate_skew(&[40, 0, 0, 0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cost_is_deterministic_across_runs() {
        let tokens = [123u64, 456, 789, 12];
        let mut a = [0; 4];
        let mut b = [0; 4];
        for backend in All2AllBackend::ALL {
            let x = all2all_layer_time(&topo(4), backend, &tokens, 10_240, &mut a);
            let y = all2all_layer_time(&topo(4), backend, &tokens, 10_240, &mut b);
            assert_eq!(x, y);
            assert_eq!(a, b);
        }
    }
}
