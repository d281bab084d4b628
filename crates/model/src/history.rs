//! Routing a history of requests on every core.
//!
//! The paper fills fMoE's Expert Map Store offline from 70% of each
//! dataset's context data (§6.1), and MoE-Infinity's activation-matrix
//! collection is built the same way. Both fills route every
//! `(request, iteration, layer)` of the history, which dominates their
//! cost. [`HistoryRouter`] spreads that routing over a scoped worker
//! thread per core, and hands each routed request to the calling thread in
//! history order. The caller's fill therefore runs exactly as a
//! sequential loop would: the same inserts, in the same order, through
//! the same state.
//!
//! Routing is a pure function of the router and the request (the gate's
//! randomness is hashed from coordinates), so which worker routes a
//! request cannot change a bit of its output.

use crate::gate::{GateScratch, TokenSpan};
use crate::{GateSimulator, RequestRouting};
use std::sync::mpsc;

/// A historical request replayed through the router to pre-populate a
/// predictor offline (the paper's 70% split).
#[derive(Debug, Clone, Copy)]
pub struct HistoryRequest {
    /// Routing identity of the historical prompt.
    pub routing: RequestRouting,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Iterations to record (prefill + decodes).
    pub iterations: u64,
}

/// One history request, routed.
#[derive(Debug, Default)]
pub struct RoutedRequest {
    /// Per iteration, prefill first: the `L × J` map, layer-major, so
    /// layer `l`'s iteration distribution is `map[l·J..(l + 1)·J]`.
    pub maps: Vec<Vec<f64>>,
    /// Per iteration, its semantic embedding; empty unless the router was
    /// built [`HistoryRouter::with_embeddings`].
    pub embeddings: Vec<Vec<f64>>,
}

/// Routed requests a worker may hold ready before the caller takes them:
/// the hand-off bound. With `W` workers at most `W · (AHEAD + 1)` requests
/// are routed but not yet consumed, however long the history.
const AHEAD: usize = 4;

/// One worker's reusable working memory: the router's scratch and the
/// embedding parts that outlive a single iteration.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    gate: GateScratch,
    /// The per-request embedding part of the request being routed.
    request_part: Vec<f64>,
    /// Embedding phase rows by iteration index, each computed once.
    phase_rows: Vec<Vec<f64>>,
}

/// Routes histories for one [`GateSimulator`].
///
/// ```
/// use fmoe_model::{presets, GateSimulator, HistoryRequest, HistoryRouter, RequestRouting};
///
/// let gate = GateSimulator::with_defaults(presets::small_test_model());
/// let history: Vec<HistoryRequest> = (0..4)
///     .map(|i| HistoryRequest {
///         routing: RequestRouting { cluster: 1, request_seed: i },
///         prompt_tokens: 16,
///         iterations: 3,
///     })
///     .collect();
/// let mut maps = 0;
/// HistoryRouter::new(&gate, 2).for_each(&history, |routed| maps += routed.maps.len());
/// assert_eq!(maps, 4 * 2); // iterations capped at 2
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HistoryRouter<'g> {
    gate: &'g GateSimulator,
    max_iterations: u64,
    embeddings: bool,
}

impl<'g> HistoryRouter<'g> {
    /// A router that records at most `max_iterations_per_request`
    /// iterations of each request, and at least its prefill.
    #[must_use]
    pub fn new(gate: &'g GateSimulator, max_iterations_per_request: u64) -> Self {
        Self {
            gate,
            max_iterations: max_iterations_per_request,
            embeddings: false,
        }
    }

    /// The same router, also emitting each iteration's semantic embedding.
    #[must_use]
    pub fn with_embeddings(mut self) -> Self {
        self.embeddings = true;
        self
    }

    /// Routes one request on the calling thread: its prefill over
    /// `[0, prompt_tokens)`, then one decode per further iteration, every
    /// layer of the router's model. Only distributions are computed (no
    /// fill reads the activated sets), and each embedding is composed from
    /// the request's part, computed once here, and the lane's phase row
    /// for its iteration, computed once per lane.
    #[must_use]
    pub(crate) fn route(&self, req: &HistoryRequest, lane: &mut Lane) -> RoutedRequest {
        let config = self.gate.config();
        let lj = (config.num_layers * config.experts_per_layer) as usize;
        let iterations = req.iterations.min(self.max_iterations).max(1);
        let mut routed = RoutedRequest::default();
        for iter in 0..iterations {
            let span = if iter == 0 {
                TokenSpan::prefill(req.prompt_tokens)
            } else {
                TokenSpan::single(req.prompt_tokens + iter - 1)
            };
            let mut map = Vec::with_capacity(lj);
            for layer in 0..config.num_layers {
                self.gate
                    .route_distribution_into(req.routing, iter, layer, span, &mut lane.gate);
                map.extend_from_slice(&lane.gate.dist);
            }
            routed.maps.push(map);
        }
        if self.embeddings {
            self.gate
                .embedding_request_part(req.routing, &mut lane.request_part);
            for iter in lane.phase_rows.len() as u64..iterations {
                let mut row = Vec::new();
                self.gate.embedding_phase_row(iter, &mut row);
                lane.phase_rows.push(row);
            }
            routed.embeddings = (0..iterations)
                .zip(&lane.phase_rows)
                .map(|(iter, phase_row)| {
                    let mut embedding = Vec::new();
                    self.gate.compose_embedding(
                        req.routing,
                        iter,
                        &lane.request_part,
                        phase_row,
                        &mut embedding,
                    );
                    embedding
                })
                .collect();
        }
        routed
    }

    /// Routes `history` on every available core, one scoped worker per
    /// core, and calls `sink` on the calling thread with each routed
    /// request, in history order. The calling thread routes nothing: it
    /// runs every `sink` call, the fill's inserts.
    ///
    /// A panic while routing resurfaces here, after the routed requests
    /// before the one that panicked have reached `sink`.
    pub fn for_each(&self, history: &[HistoryRequest], sink: impl FnMut(RoutedRequest)) {
        let lanes = std::thread::available_parallelism().map_or(1, usize::from);
        in_order(
            lanes,
            history,
            |req, lane: &mut Lane| self.route(req, lane),
            sink,
        );
    }
}

/// Maps `route` over `items` on `lanes` scoped worker threads and calls
/// `sink` on the calling thread with each result, in item order.
///
/// Worker `w` routes items `w, w + W, w + 2W, …` and sends each result
/// into a channel of its own holding [`AHEAD`] of them; it keeps one state
/// `S` for every item it routes. The calling thread only sinks: taking
/// item `i` from worker `i mod W`, it reads every item in order, and no
/// worker runs more than `AHEAD + 1` items ahead of it.
///
/// When a worker dies its channel closes: the caller stops, re-raises the
/// worker's panic and, unwinding, drops every channel, so the other
/// workers' sends fail and they return. A panic in `sink` drops the
/// channels the same way.
fn in_order<T: Sync, S: Default, R: Send>(
    lanes: usize,
    items: &[T],
    route: impl Fn(&T, &mut S) -> R + Sync,
    mut sink: impl FnMut(R),
) {
    let lanes = lanes.clamp(1, items.len().max(1));
    let route = &route;
    std::thread::scope(|scope| {
        let (mut handles, receivers): (Vec<_>, Vec<_>) = (0..lanes)
            .map(|lane| {
                let (tx, rx) = mpsc::sync_channel(AHEAD);
                let handle = scope.spawn(move || {
                    let mut state = S::default();
                    for item in items.iter().skip(lane).step_by(lanes) {
                        if tx.send(route(item, &mut state)).is_err() {
                            return; // the caller has stopped taking results
                        }
                    }
                });
                (handle, rx)
            })
            .unzip();
        for i in 0..items.len() {
            let lane = i % lanes;
            match receivers[lane].recv() {
                Ok(result) => sink(result),
                // Only a panic closes a worker's channel early.
                Err(mpsc::RecvError) => {
                    if let Err(panic) = handles.swap_remove(lane).join() {
                        std::panic::resume_unwind(panic);
                    }
                    return;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    fn gate() -> GateSimulator {
        GateSimulator::with_defaults(presets::small_test_model())
    }

    /// The fill as one sequential loop: request by request, iteration by
    /// iteration, layer by layer, on the calling thread.
    fn sequential(
        gate: &GateSimulator,
        history: &[HistoryRequest],
        max_iterations: u64,
        embeddings: bool,
    ) -> Vec<RoutedRequest> {
        let layers = gate.config().num_layers;
        let mut scratch = GateScratch::default();
        let mut out = Vec::new();
        for req in history {
            let mut routed = RoutedRequest::default();
            let iters = req.iterations.min(max_iterations).max(1);
            for iter in 0..iters {
                let span = if iter == 0 {
                    TokenSpan::prefill(req.prompt_tokens)
                } else {
                    TokenSpan::single(req.prompt_tokens + iter - 1)
                };
                let mut flat = Vec::new();
                for l in 0..layers {
                    gate.route_into(req.routing, iter, l, span, &mut scratch);
                    flat.extend_from_slice(&scratch.dist);
                }
                routed.maps.push(flat);
                if embeddings {
                    routed
                        .embeddings
                        .push(gate.semantic_embedding(req.routing, iter));
                }
            }
            out.push(routed);
        }
        out
    }

    fn bits(routed: &[RoutedRequest]) -> Vec<Vec<Vec<u64>>> {
        routed
            .iter()
            .map(|r| {
                r.maps
                    .iter()
                    .chain(&r.embeddings)
                    .map(|row| row.iter().map(|x| x.to_bits()).collect())
                    .collect()
            })
            .collect()
    }

    fn routed_on(
        lanes: usize,
        router: &HistoryRouter<'_>,
        history: &[HistoryRequest],
    ) -> Vec<RoutedRequest> {
        let mut out = Vec::new();
        in_order(
            lanes,
            history,
            |req, lane: &mut Lane| router.route(req, lane),
            |r| out.push(r),
        );
        out
    }

    /// Requests of every shape the fill meets: prompts shorter and longer
    /// than the prefill cap, `iterations` of 0, 1, at and above the cap.
    fn history(gate: &GateSimulator, n: u64) -> Vec<HistoryRequest> {
        let cap = u64::from(gate.params().prefill_token_cap);
        (0..n)
            .map(|i| HistoryRequest {
                routing: RequestRouting {
                    cluster: i % 5,
                    request_seed: 100 + i,
                },
                prompt_tokens: [1, 17, cap, cap + 1, 3 * cap + 7][(i % 5) as usize],
                iterations: [0, 1, 4, 9][(i % 4) as usize],
            })
            .collect()
    }

    #[test]
    fn output_is_bit_identical_to_the_sequential_loop_at_any_lane_count() {
        let g = gate();
        for embeddings in [false, true] {
            let mut router = HistoryRouter::new(&g, 4);
            if embeddings {
                router = router.with_embeddings();
            }
            for n in [0, 1, 3, 23] {
                let history = history(&g, n);
                let expected = bits(&sequential(&g, &history, 4, embeddings));
                for lanes in [1, 2, 3, 8] {
                    let got = routed_on(lanes, &router, &history);
                    assert_eq!(bits(&got), expected, "{n} requests on {lanes} lanes");
                }
                let mut got = Vec::new();
                router.for_each(&history, |r| got.push(r));
                assert_eq!(bits(&got), expected, "{n} requests on the default lanes");
            }
        }
    }

    #[test]
    fn iterations_are_capped_and_floored_at_the_prefill() {
        let g = gate();
        let (layers, j) = (g.config().num_layers, g.config().experts_per_layer);
        let history = history(&g, 8);
        let routed = routed_on(3, &HistoryRouter::new(&g, 4).with_embeddings(), &history);
        for (req, r) in history.iter().zip(&routed) {
            let iters = req.iterations.clamp(1, 4) as usize;
            assert_eq!((r.maps.len(), r.embeddings.len()), (iters, iters));
            assert!(r.maps.iter().all(|m| m.len() == (layers * j) as usize));
        }
        // A cap of 0 still records the prefill.
        let routed = routed_on(2, &HistoryRouter::new(&g, 0), &history);
        assert!(routed
            .iter()
            .all(|r| r.maps.len() == 1 && r.embeddings.is_empty()));
    }

    #[test]
    fn a_routing_panic_propagates_after_the_requests_before_it() {
        let items: Vec<u64> = (0..20).collect();
        let caller = std::thread::current().id();
        // Request `i` is routed on worker `i mod W`, so at 2, 3 and 8 lanes
        // requests 11 and 12 fail on different workers. The request after
        // the bad one fails too, on another worker once there are two:
        // the caller must still re-raise the earlier request's panic.
        for bad in [11, 12] {
            for lanes in [1, 2, 3, 8] {
                let mut seen = Vec::new();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    in_order(
                        lanes,
                        &items,
                        |&i, _: &mut ()| {
                            assert_ne!(std::thread::current().id(), caller, "routed on the caller");
                            assert!(i != bad && i != bad + 1, "request {i} cannot be routed");
                            i
                        },
                        |i| seen.push(i),
                    );
                }));
                let panic = result.expect_err("the panic must propagate");
                let message = panic.downcast_ref::<String>().map(String::as_str);
                let expected = format!("request {bad} cannot be routed");
                assert_eq!(message, Some(expected.as_str()), "{lanes} lanes");
                assert_eq!(seen, (0..bad).collect::<Vec<_>>(), "{lanes} lanes");
            }
        }
    }

    #[test]
    fn a_sink_panic_stops_every_worker() {
        let items: Vec<u64> = (0..200).collect();
        for lanes in [1, 2, 4] {
            // Every worker holds `AHEAD + 1` requests past the last one the
            // caller took, worker 0 one more past request 0.
            let most = lanes * (AHEAD + 1) + 1;
            let routed = AtomicUsize::new(0);
            let (full, wait) = mpsc::channel();
            let result = catch_unwind(AssertUnwindSafe(|| {
                in_order(
                    lanes,
                    &items,
                    |&i, _: &mut ()| {
                        if routed.fetch_add(1, Ordering::SeqCst) + 1 == most {
                            full.send(()).unwrap();
                        }
                        i
                    },
                    |i| {
                        // Refuse request 0 only once every worker is blocked.
                        let signal = wait.recv_timeout(Duration::from_secs(30));
                        assert!(signal.is_ok(), "{lanes} lanes never reached the bound");
                        panic!("the sink refuses {i}");
                    },
                );
            }));
            // Returning at all shows the blocked workers were released.
            let panic = result.expect_err("the panic must propagate");
            let message = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("the sink refuses 0"), "{lanes} lanes");
            assert_eq!(routed.into_inner(), most, "{lanes} lanes");
        }
    }

    #[test]
    fn no_request_is_routed_past_the_hand_off_bound() {
        let items: Vec<usize> = (0..200).collect();
        for lanes in [2, 3, 8] {
            // What the other workers may route while the caller waits for
            // request 0: `AHEAD + 1` requests each.
            let bound: Vec<usize> = (1..lanes)
                .flat_map(|w| (0..=AHEAD).map(move |k| w + k * lanes))
                .collect();
            let (release, blocked) = mpsc::channel();
            let blocked = Mutex::new(blocked);
            let first_done = AtomicBool::new(false);
            // Every request routed while request 0 is still routing.
            let early = Mutex::new(Vec::new());
            let mut sunk = Vec::new();
            in_order(
                lanes,
                &items,
                |&i, _: &mut ()| {
                    if i == 0 {
                        // Request 0 blocks the sink until the other
                        // workers have routed every request the bound
                        // admits.
                        let signal = blocked
                            .lock()
                            .unwrap()
                            .recv_timeout(Duration::from_secs(30));
                        assert!(signal.is_ok(), "{lanes} lanes never reached the bound");
                        first_done.store(true, Ordering::SeqCst);
                    } else if !first_done.load(Ordering::SeqCst) {
                        let mut early = early.lock().unwrap();
                        early.push(i);
                        if early.len() == bound.len() {
                            release.send(()).unwrap();
                        }
                    }
                    i
                },
                |i| sunk.push(i),
            );
            assert_eq!(sunk, items, "{lanes} lanes");
            let mut early = early.into_inner().unwrap();
            early.sort_unstable();
            // The others' first `AHEAD + 1` requests, each once, and no
            // further: a worker blocks once its channel is full.
            let mut bound = bound;
            bound.sort_unstable();
            assert_eq!(early, bound, "{lanes} lanes");
        }
    }
}
