//! Property tests for cluster fault handling: merged-trace ordering
//! under interleaved lifecycle markers, and the inert-schedule identity.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_cluster::{Cluster, FailoverConfig, RoutingPolicy, WarmupMode};
use fmoe_faults::ReplicaFaultSchedule;
use fmoe_memsim::Topology;
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec, ModelConfig};
use fmoe_serving::{EngineBuilder, EngineConfig, ServingEngine};
use fmoe_trace::TraceSink;
use fmoe_workload::{AzureTraceSpec, DatasetSpec, TraceEvent};
use proptest::prelude::*;

fn model() -> ModelConfig {
    presets::small_test_model()
}

fn gate() -> GateSimulator {
    let m = model();
    GateSimulator::new(m.clone(), GateParams::for_model(&m))
}

fn builder() -> EngineBuilder {
    let m = model();
    let config = EngineConfig {
        cache_budget_bytes: m.expert_bytes() * 16,
        preload_all: false,
        max_decode_iterations: Some(2),
        context_collection_ns: 10_000,
        framework_overhead_per_layer_ns: 50_000,
        ..EngineConfig::paper_default()
    };
    ServingEngine::builder(gate(), GpuSpec::rtx_3090(), Topology::single_gpu(8 << 30))
        .config(config)
}

fn predictor() -> FmoePredictor {
    let m = model();
    FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m))
}

/// A small trace whose arrivals bracket the fault windows: a t = 0
/// burst, mid-horizon stragglers, and a tail arrival that flushes every
/// pending lifecycle transition.
fn chaos_trace(n: u64, horizon: u64) -> Vec<TraceEvent> {
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
    spec.num_requests = n.max(3);
    let mut events = spec.generate();
    let len = events.len();
    for (i, e) in events.iter_mut().enumerate() {
        e.arrival_ns = if i + 1 == len {
            horizon + horizon / 2
        } else if i < len / 2 {
            0
        } else {
            horizon / 2
        };
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The merged cluster timeline stays ordered by (at_ns, replica id)
    /// no matter how crashes, drains, and brownouts interleave lifecycle
    /// markers with the per-replica engine streams.
    #[test]
    fn merged_trace_is_ordered_under_chaos(
        seed in 0u64..1_000,
        intensity in 0.0f64..1.0,
        n in 6u64..14,
    ) {
        let horizon = 2_000_000_000u64;
        let mut c = Cluster::new(gate(), RoutingPolicy::JoinShortestQueue, None);
        for _ in 0..3 {
            c.add_replica(
                builder().trace_sink(TraceSink::recording(1 << 14)),
                Box::new(predictor()),
            );
        }
        c.set_replica_fault_schedule(
            ReplicaFaultSchedule::synthetic(seed, intensity, horizon, 3),
            FailoverConfig {
                max_redispatches: 2,
                warmup: WarmupMode::DonorWarmed,
            },
        );
        let report = c.dispatch(&chaos_trace(n, horizon));
        prop_assert!(report.accounting_balances());
        let merged = c.take_merged_trace();
        for pair in merged.windows(2) {
            let a = (pair[0].record.at_ns, pair[0].replica);
            let b = (pair[1].record.at_ns, pair[1].replica);
            prop_assert!(
                a <= b,
                "merged trace out of order: {:?} then {:?}",
                a,
                b
            );
        }
    }

    /// A `ReplicaFaultSchedule` assembled entirely from no-op windows
    /// (zero length, or slowdown 1.0) is inert, and an inert schedule
    /// leaves the `ClusterReport` byte-identical to a run with no
    /// schedule installed at all.
    #[test]
    fn inert_schedule_leaves_report_byte_identical(
        starts in prop::collection::vec(0u64..3_000_000_000, 1..5),
        replica in 0u32..3,
        n in 4u64..10,
    ) {
        let events = chaos_trace(n, 2_000_000_000);
        let run = |schedule: Option<ReplicaFaultSchedule>| {
            let mut c = Cluster::new(gate(), RoutingPolicy::JoinShortestQueue, None);
            for _ in 0..3 {
                c.add_replica(builder(), Box::new(predictor()));
            }
            if let Some(s) = schedule {
                c.set_replica_fault_schedule(s, FailoverConfig::default());
            }
            format!("{:?}", c.dispatch(&events))
        };
        let mut b = ReplicaFaultSchedule::builder(starts[0]);
        for &s in &starts {
            b = b.crash(replica, s, s).brownout(replica, s, s + 100, 1.0);
        }
        let schedule = b.build();
        prop_assert!(schedule.is_inert());
        prop_assert_eq!(run(Some(schedule)), run(None));
    }
}
