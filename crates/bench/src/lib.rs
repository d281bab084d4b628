//! Experiment harness for regenerating every table and figure of the
//! paper's evaluation (§6).
//!
//! Each figure/table has a binary in `src/bin/` (see `DESIGN.md` §5 for
//! the index). This library holds what they share:
//!
//! * [`harness`] — experiment cells: `(model, dataset, system)` → a
//!   configured engine + predictor pair, offline store pre-population
//!   (the 70/30 split), and the standard offline run.
//! * [`report`] — aligned text tables, and the one place that decides
//!   where artifacts land: `results/`, or `results/quick/` for a
//!   `--quick` run.
//! * [`policy_sweep`] — seeded Zipf expert traces and eviction-policy
//!   miss-ratio replays (the fig11 policy comparison).
//! * [`perf`] — the `BENCH_perf.json` schema, hand-rolled JSON both
//!   ways, and the head-against-parent gate `perf_gate` applies to the
//!   runs `scripts/perf_ab.sh` makes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod perf;
pub mod plot;
pub mod policy_sweep;
pub mod report;

pub use harness::{CellConfig, System, SystemOutcome, TracedOutcome};
pub use plot::{LinePlot, Series};
pub use policy_sweep::{replay_miss_ratio, zipf_expert_trace};
pub use report::{write_csv, Table};
