//! The discrete-event stream scheduler: single server, FIFO queue,
//! batched dispatch.
//!
//! [`schedule`] is a pure function from per-request single-inference
//! results plus arrival cycles to a [`StreamMetrics`]; [`run_stream`] is
//! the serial reference driver that also builds the per-request networks
//! and simulates them. Callers that fan the per-request simulations out
//! over threads (`isosceles-bench`) call [`schedule`] on the collected
//! results and get bit-identical metrics, because scheduling itself is
//! single-threaded and deterministic.
//!
//! # Batch amortization
//!
//! Within a batch the first member (*leader*) pays its full
//! single-inference cost. Each *follower* reuses the weights the leader
//! already streamed in: its weight traffic drops to zero, its DRAM
//! energy activity drops by the same bytes, and its service time shrinks
//! by the cycles those bytes would have occupied the DRAM interface
//! (`ceil(weight_traffic / dram_bytes_per_cycle)`), floored at one
//! cycle. Activation traffic is per-image and is never amortized. This
//! is deliberately optimistic about weight residency (the HPIPE-style
//! best case); the DESIGN notes discuss the limitation.
//!
//! # Server-time conservation
//!
//! Every cycle of the makespan is attributed to exactly one of: `busy`
//! (servicing a request), `formation` (waiting for a fuller batch while
//! requests are queued), or `idle` (empty queue). Each request's queue
//! wait is likewise split into `formation_wait + busy_wait` — the
//! overlap of its queued interval with the server's formation and busy
//! segments — so span accounting and server accounting agree exactly.

use crate::config::{BatchPolicy, StreamConfig};
use crate::gen::{arrivals, request_seed, request_workload};
use isos_sim::metrics::{QueueStats, RequestSpan, RunMetrics, StreamMetrics};
use isos_trace::event::{StallKind, TraceEvent, UnitKind};
use isos_trace::sink::TraceSink;
use isosceles::accel::Accelerator;

/// What the server was doing over one timeline segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SegmentKind {
    /// Servicing a request.
    Busy,
    /// Waiting to form a fuller batch (queue non-empty).
    Formation,
    /// Empty queue, nothing to do.
    Idle,
}

/// One half-open `[t0, t1)` slice of the server timeline.
#[derive(Clone, Copy, Debug)]
struct Segment {
    t0: u64,
    t1: u64,
    kind: SegmentKind,
}

/// Server timeline: contiguous segments covering `[0, makespan)`.
#[derive(Debug, Default)]
struct Timeline {
    segs: Vec<Segment>,
}

impl Timeline {
    fn push(&mut self, t0: u64, t1: u64, kind: SegmentKind) {
        debug_assert!(t0 <= t1);
        if t1 > t0 {
            self.segs.push(Segment { t0, t1, kind });
        }
    }

    /// Total cycles of `kind` inside `[a, b)`.
    fn overlap(&self, a: u64, b: u64, kind: SegmentKind) -> u64 {
        self.segs
            .iter()
            .take_while(|s| s.t0 < b)
            .filter(|s| s.kind == kind)
            .map(|s| s.t1.min(b).saturating_sub(s.t0.max(a)))
            .sum()
    }

    fn total(&self, kind: SegmentKind) -> u64 {
        self.segs
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.t1 - s.t0)
            .sum()
    }
}

/// A follower's view of `full`: weight traffic (and the DRAM cycles and
/// energy it cost) amortized away by the batch leader's fetch.
fn amortize_follower(full: &RunMetrics, dram_bytes_per_cycle: f64) -> RunMetrics {
    let mut m = *full;
    let saved_cycles = (m.weight_traffic / dram_bytes_per_cycle).ceil() as u64;
    m.cycles = m.cycles.saturating_sub(saved_cycles).max(1);
    m.activity.dram_bytes = (m.activity.dram_bytes - m.weight_traffic).max(0.0);
    m.weight_traffic = 0.0;
    m
}

/// Schedules the stream and returns both the metrics and the server
/// timeline (the traced variant replays the timeline into the sink).
fn schedule_full(
    singles: &[RunMetrics],
    arrivals: &[u64],
    cfg: &StreamConfig,
) -> (StreamMetrics, Timeline) {
    assert_eq!(
        singles.len(),
        arrivals.len(),
        "one single-inference result per arrival"
    );
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be non-decreasing"
    );
    let n = singles.len();
    let batch = cfg.batch.max(1) as usize;

    let mut timeline = Timeline::default();
    let mut spans: Vec<RequestSpan> = Vec::with_capacity(n);
    let mut total = RunMetrics::default();
    let mut batches = 0u64;
    let mut t = 0u64; // server clock
    let mut next = 0usize; // first request not yet dispatched

    while next < n {
        // Idle until the head of the queue has arrived.
        if arrivals[next] > t {
            timeline.push(t, arrivals[next], SegmentKind::Idle);
            t = arrivals[next];
        }
        // How many requests are queued right now?
        let mut avail = 0;
        while next + avail < n && arrivals[next + avail] <= t {
            avail += 1;
        }
        // WaitFull: hold for a full batch while more requests are still
        // inbound; the hold is batch-formation time, not idleness,
        // because the queue is non-empty.
        if cfg.policy == BatchPolicy::WaitFull && avail < batch && next + avail < n {
            let want = (next + batch).min(n) - 1;
            let until = arrivals[want];
            if until > t {
                timeline.push(t, until, SegmentKind::Formation);
                t = until;
            }
            avail = 0;
            while next + avail < n && arrivals[next + avail] <= t {
                avail += 1;
            }
        }
        let take = avail.min(batch);
        debug_assert!(take >= 1);

        // Dispatch the batch: members run back to back, leader first.
        let dispatch = t;
        for (j, idx) in (next..next + take).enumerate() {
            let leader = j == 0;
            let m = if leader {
                singles[idx]
            } else {
                amortize_follower(&singles[idx], cfg.dram_bytes_per_cycle)
            };
            let start = t;
            let completion = start + m.cycles;
            spans.push(RequestSpan {
                index: idx as u64,
                arrival: arrivals[idx],
                start,
                completion,
                service: m.cycles,
                batch: batches,
                leader,
                // Filled in below once the timeline around this batch
                // is complete.
                formation_wait: 0,
                busy_wait: 0,
                metrics: m,
            });
            total.accumulate(&m);
            t = completion;
        }
        timeline.push(dispatch, t, SegmentKind::Busy);
        batches += 1;
        next += take;
    }

    // Attribute each request's queue wait to formation vs. occupancy.
    // A queued request implies a non-empty queue, so its waiting
    // interval never overlaps an idle segment; formation + busy overlap
    // covers it exactly.
    for s in &mut spans {
        s.formation_wait = timeline.overlap(s.arrival, s.start, SegmentKind::Formation);
        s.busy_wait = timeline.overlap(s.arrival, s.start, SegmentKind::Busy);
        debug_assert_eq!(s.formation_wait + s.busy_wait, s.queue_wait());
    }

    // Queue-depth statistics: +1 at each arrival, -1 as each request
    // enters service. Both event lists are already time-sorted (spans
    // start in FIFO order); merge them.
    let makespan = t;
    let mut queue = QueueStats::default();
    let mut depth = 0u64;
    let mut area = 0u128; // depth-cycles, exact
    let mut last = 0u64;
    let mut ai = 0usize;
    let mut di = 0usize; // over spans, in dispatch order (span order)
    while ai < n || di < n {
        // Dispatches at time X happen after arrivals at time X joined
        // the queue, so break ties toward arrivals.
        let ta = if ai < n { arrivals[ai] } else { u64::MAX };
        let td = if di < n { spans[di].start } else { u64::MAX };
        let now = ta.min(td);
        area += u128::from(depth) * u128::from(now - last);
        last = now;
        if ta <= td {
            depth += 1;
            ai += 1;
        } else {
            depth -= 1;
            di += 1;
        }
        queue.max_depth = queue.max_depth.max(depth);
    }
    debug_assert_eq!(depth, 0, "every request leaves the queue");
    if makespan > 0 {
        queue.mean_depth = area as f64 / makespan as f64;
    }

    let busy_cycles = timeline.total(SegmentKind::Busy);
    let idle_cycles = timeline.total(SegmentKind::Idle);
    let formation_cycles = timeline.total(SegmentKind::Formation);
    debug_assert_eq!(busy_cycles + idle_cycles + formation_cycles, makespan);
    total.cycles = makespan;

    (
        StreamMetrics {
            total,
            busy_cycles,
            idle_cycles,
            formation_cycles,
            batches,
            queue,
            requests: spans,
        },
        timeline,
    )
}

/// Streams `singles[i]` (the single-inference result of request `i`)
/// through the batched FIFO server and returns the stream metrics.
///
/// # Panics
///
/// Panics if `singles` and `arrivals` differ in length or `arrivals` is
/// not sorted.
pub fn schedule(singles: &[RunMetrics], arrivals: &[u64], cfg: &StreamConfig) -> StreamMetrics {
    schedule_full(singles, arrivals, cfg).0
}

/// [`schedule`], additionally replaying the run into a trace sink.
///
/// Each request gets a `Layer` unit whose single `Compute` event spans
/// `[arrival, completion)`: `busy` is its service time and the queued
/// remainder is attributed to the fixed stall taxonomy — batch-formation
/// waits as `InputStarved` (upstream batch not formed yet), server
/// occupancy as `OutputBlocked` (the shared server exerting
/// backpressure). A `Group` unit named `stream` carries the server
/// timeline with the same mapping, so `busy + stalls == cycles` holds
/// for every emitted event.
pub fn schedule_traced(
    singles: &[RunMetrics],
    arrivals: &[u64],
    cfg: &StreamConfig,
    sink: &mut dyn TraceSink,
) -> StreamMetrics {
    let (metrics, timeline) = schedule_full(singles, arrivals, cfg);
    if !sink.enabled() {
        return metrics;
    }
    let server = sink.unit("stream", UnitKind::Group);
    sink.hint_events(timeline.segs.len() + metrics.requests.len());
    for seg in &timeline.segs {
        let cycles = seg.t1 - seg.t0;
        let mut busy = 0.0;
        let mut stalls = [0.0f64; 4];
        match seg.kind {
            SegmentKind::Busy => busy = cycles as f64,
            SegmentKind::Formation | SegmentKind::Idle => {
                stalls[StallKind::InputStarved.index()] = cycles as f64;
            }
        }
        sink.emit(TraceEvent::Compute {
            unit: server,
            t: seg.t0,
            cycles,
            busy,
            stalls,
        });
    }
    for span in &metrics.requests {
        let unit = sink.unit(&format!("req{}", span.index), UnitKind::Layer);
        let mut stalls = [0.0f64; 4];
        stalls[StallKind::InputStarved.index()] = span.formation_wait as f64;
        stalls[StallKind::OutputBlocked.index()] = span.busy_wait as f64;
        sink.emit(TraceEvent::Compute {
            unit,
            t: span.arrival,
            cycles: span.latency(),
            busy: span.service as f64,
            stalls,
        });
    }
    metrics
}

/// Simulates every request of the stream serially and schedules it: the
/// reference implementation (and the convenient one-call entry point
/// for small streams).
///
/// # Panics
///
/// Panics if `workload` is not a suite id or `cfg` fails validation.
pub fn run_stream(
    accel: &dyn Accelerator,
    workload: &str,
    seed: u64,
    cfg: &StreamConfig,
) -> StreamMetrics {
    run_stream_traced(accel, workload, seed, cfg, &mut isos_trace::sink::NullSink)
}

/// [`run_stream`] with trace output (see [`schedule_traced`]).
///
/// # Panics
///
/// Panics if `workload` is not a suite id or `cfg` fails validation.
pub fn run_stream_traced(
    accel: &dyn Accelerator,
    workload: &str,
    seed: u64,
    cfg: &StreamConfig,
    sink: &mut dyn TraceSink,
) -> StreamMetrics {
    cfg.validate()
        .unwrap_or_else(|e| panic!("bad stream config: {e}"));
    let singles: Vec<RunMetrics> = (0..cfg.requests)
        .map(|r| {
            let w = request_workload(workload, seed, r)
                .unwrap_or_else(|| panic!("unknown workload id {workload:?}"));
            accel.simulate(&w.network, request_seed(seed, r)).total
        })
        .collect();
    schedule_traced(&singles, &arrivals(cfg, seed), cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arrival;
    use isos_trace::sink::EventBuffer;
    use isosceles::IsoscelesConfig;

    /// A synthetic single-inference result with the given cycles and
    /// weight traffic (DRAM activity covering it).
    fn single(cycles: u64, weight: f64) -> RunMetrics {
        let mut m = RunMetrics {
            cycles,
            weight_traffic: weight,
            act_traffic: 100.0,
            effectual_macs: 1000.0,
            ..Default::default()
        };
        m.activity.dram_bytes = weight + 100.0;
        m
    }

    fn cfg(batch: u64, arrival: Arrival, policy: BatchPolicy) -> StreamConfig {
        StreamConfig {
            requests: 0, // filled by callers that generate arrivals
            batch,
            arrival,
            policy,
            ..StreamConfig::default()
        }
    }

    fn check_conservation(s: &StreamMetrics) {
        assert_eq!(s.service_sum(), s.busy_cycles, "span/busy conservation");
        assert_eq!(
            s.busy_cycles + s.idle_cycles + s.formation_cycles,
            s.total.cycles,
            "server-time conservation"
        );
        for r in &s.requests {
            assert_eq!(r.completion - r.start, r.service);
            assert_eq!(r.formation_wait + r.busy_wait, r.queue_wait());
        }
    }

    #[test]
    fn burst_batch1_is_back_to_back_service() {
        let singles = vec![single(100, 0.0), single(50, 0.0), single(25, 0.0)];
        let c = cfg(1, Arrival::Burst, BatchPolicy::Greedy);
        let s = schedule(&singles, &[0, 0, 0], &c);
        check_conservation(&s);
        assert_eq!(s.total.cycles, 175);
        assert_eq!(s.busy_cycles, 175);
        assert_eq!(s.idle_cycles, 0);
        assert_eq!(s.formation_cycles, 0);
        assert_eq!(s.batches, 3);
        assert_eq!(s.queue.max_depth, 3);
        let lat: Vec<u64> = s.requests.iter().map(|r| r.latency()).collect();
        assert_eq!(lat, vec![100, 150, 175]);
    }

    #[test]
    fn single_request_stream_is_the_degenerate_case() {
        let m = single(1000, 400.0);
        let c = cfg(1, Arrival::Burst, BatchPolicy::Greedy);
        let s = schedule(&[m], &[0], &c);
        check_conservation(&s);
        // The stream total is exactly the single-inference result.
        assert_eq!(s.total, m);
        assert_eq!(s.requests[0].metrics, m);
        assert!(s.requests[0].leader);
        assert_eq!(s.p50(), 1000);
        assert_eq!(s.p99(), 1000);
    }

    #[test]
    fn followers_amortize_weight_traffic_and_cycles() {
        // weight 256 B at 128 B/cyc = 2 cycles saved per follower.
        let singles = vec![single(100, 256.0); 4];
        let c = cfg(4, Arrival::Burst, BatchPolicy::Greedy);
        let s = schedule(&singles, &[0; 4], &c);
        check_conservation(&s);
        assert_eq!(s.batches, 1);
        assert!(s.requests[0].leader);
        assert_eq!(s.requests[0].service, 100);
        assert_eq!(s.requests[0].metrics.weight_traffic, 256.0);
        for r in &s.requests[1..] {
            assert!(!r.leader);
            assert_eq!(r.service, 98);
            assert_eq!(r.metrics.weight_traffic, 0.0);
            assert_eq!(r.metrics.act_traffic, 100.0, "activations stay per-image");
            assert_eq!(r.metrics.activity.dram_bytes, 100.0);
        }
        assert_eq!(s.total.cycles, 100 + 3 * 98);
        assert_eq!(s.total.weight_traffic, 256.0);
        assert_eq!(s.total.act_traffic, 400.0);
    }

    #[test]
    fn follower_service_is_floored_at_one_cycle() {
        let m = single(2, 100_000.0);
        let c = cfg(2, Arrival::Burst, BatchPolicy::Greedy);
        let s = schedule(&[m, m], &[0, 0], &c);
        check_conservation(&s);
        assert_eq!(s.requests[1].service, 1);
    }

    #[test]
    fn greedy_dispatches_underfull_batches() {
        // Second request arrives while the first is in service: greedy
        // starts request 0 alone, then services request 1 alone.
        let singles = vec![single(100, 0.0), single(100, 0.0)];
        let c = cfg(2, Arrival::Periodic { period: 10 }, BatchPolicy::Greedy);
        let s = schedule(&singles, &[0, 10], &c);
        check_conservation(&s);
        assert_eq!(s.batches, 2);
        assert!(s.requests.iter().all(|r| r.leader));
        assert_eq!(s.requests[1].busy_wait, 90);
        assert_eq!(s.requests[1].formation_wait, 0);
    }

    #[test]
    fn waitfull_accounts_formation_time() {
        let singles = vec![single(100, 0.0), single(100, 0.0)];
        let c = cfg(2, Arrival::Periodic { period: 40 }, BatchPolicy::WaitFull);
        let s = schedule(&singles, &[0, 40], &c);
        check_conservation(&s);
        assert_eq!(s.batches, 1);
        assert_eq!(s.formation_cycles, 40);
        assert_eq!(s.requests[0].formation_wait, 40);
        assert_eq!(s.requests[0].busy_wait, 0);
        // The follower queues behind the leader's service.
        assert!(!s.requests[1].leader);
        assert_eq!(s.requests[1].formation_wait, 0);
        assert_eq!(s.requests[1].busy_wait, 100);
    }

    #[test]
    fn waitfull_drains_the_tail_without_deadlock() {
        // 3 requests, batch 2: the final odd request must still run.
        let singles = vec![single(10, 0.0); 3];
        let c = cfg(2, Arrival::Burst, BatchPolicy::WaitFull);
        let s = schedule(&singles, &[0, 0, 0], &c);
        check_conservation(&s);
        assert_eq!(s.requests.len(), 3);
        assert_eq!(s.batches, 2);
    }

    #[test]
    fn idle_gaps_are_accounted() {
        let singles = vec![single(10, 0.0), single(10, 0.0)];
        let c = cfg(1, Arrival::Periodic { period: 100 }, BatchPolicy::Greedy);
        let s = schedule(&singles, &[0, 100], &c);
        check_conservation(&s);
        assert_eq!(s.idle_cycles, 90);
        assert_eq!(s.total.cycles, 110);
        assert!(s.throughput_imgs_per_cycle() > 0.0);
        assert_eq!(s.queue.max_depth, 1);
    }

    #[test]
    fn traced_run_conserves_cycles_per_event() {
        let singles = vec![single(100, 256.0); 5];
        let c = cfg(2, Arrival::Periodic { period: 30 }, BatchPolicy::WaitFull);
        let arr = vec![0, 30, 60, 90, 120];
        let mut buf = EventBuffer::new();
        let s = schedule_traced(&singles, &arr, &c, &mut buf);
        check_conservation(&s);
        assert!(!buf.is_empty());
        let mut server_busy = 0.0;
        for e in buf.events() {
            if let TraceEvent::Compute {
                unit,
                cycles,
                busy,
                stalls,
                ..
            } = e
            {
                let sum: f64 = busy + stalls.iter().sum::<f64>();
                assert_eq!(sum, *cycles as f64, "event conserves its interval");
                if buf.unit_name(*unit) == "stream" {
                    server_busy += busy;
                }
            }
        }
        assert_eq!(server_busy, s.busy_cycles as f64);
        // One span event per request on top of the server timeline.
        let req_units = buf
            .units()
            .iter()
            .filter(|u| u.kind == UnitKind::Layer)
            .count();
        assert_eq!(req_units, 5);
    }

    #[test]
    fn run_stream_is_a_pure_function_of_its_inputs() {
        // Same workload, seed and scenario: the whole stream (request
        // order, spans, totals) must replay bit for bit on every suite
        // workload.
        let accel = IsoscelesConfig::default();
        let c = StreamConfig {
            requests: 6,
            ..StreamConfig::default()
        };
        for id in isos_nn::models::SUITE_IDS {
            let replay = run_stream(&accel, id, 7, &c);
            assert_eq!(run_stream(&accel, id, 7, &c), replay, "{id}");
        }
    }

    #[test]
    fn run_stream_batch1_burst_matches_accumulated_simulate() {
        let accel = IsoscelesConfig::default();
        let c = StreamConfig {
            requests: 2,
            batch: 1,
            ..StreamConfig::default()
        };
        let s = run_stream(&accel, "G58", 7, &c);
        check_conservation(&s);
        let mut expect = RunMetrics::default();
        for r in 0..2 {
            let w = request_workload("G58", 7, r).unwrap();
            expect.accumulate(&accel.simulate(&w.network, request_seed(7, r)).total);
        }
        assert_eq!(s.total, expect, "burst batch=1 == sequential inference");
    }

    #[test]
    fn batching_helps_throughput_without_hurting_energy_conservation() {
        let accel = IsoscelesConfig::default();
        let base = StreamConfig {
            requests: 4,
            ..StreamConfig::default()
        };
        let unbatched = run_stream(&accel, "G58", 7, &base);
        let batched = run_stream(&accel, "G58", 7, &StreamConfig { batch: 4, ..base });
        check_conservation(&unbatched);
        check_conservation(&batched);
        assert!(batched.total.cycles < unbatched.total.cycles);
        assert!(batched.total.weight_traffic < unbatched.total.weight_traffic);
        assert_eq!(
            batched.total.act_traffic, unbatched.total.act_traffic,
            "activation traffic is per-image"
        );
        assert!(batched.throughput_imgs_per_cycle() > unbatched.throughput_imgs_per_cycle());
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn run_stream_rejects_unknown_workloads() {
        run_stream(
            &IsoscelesConfig::default(),
            "X42",
            1,
            &StreamConfig {
                requests: 1,
                ..StreamConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "bad stream config")]
    fn run_stream_rejects_invalid_config() {
        run_stream(
            &IsoscelesConfig::default(),
            "G58",
            1,
            &StreamConfig {
                requests: 0,
                ..StreamConfig::default()
            },
        );
    }
}
