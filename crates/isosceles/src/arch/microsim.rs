//! Element-granular microarchitecture simulation of the *fully spatial*
//! ISOSceles design (paper Sec. IV-A, Fig. 9): one IS-OS block per layer,
//! one lane per activation row, driven cycle by cycle from real CSF
//! tensors. Every frontend lane consumes one nonzero input per cycle
//! (when its PE backlog allows), every PE array retires a bounded number
//! of MACs per cycle, every backend lane emits one merged output element
//! per cycle per replicated merger, and bounded queues propagate
//! backpressure between blocks — Fig. 11's machinery at element
//! granularity.
//!
//! Two things come out of it:
//!
//! 1. it *reproduces the motivation for time-multiplexing* (Sec. IV-B):
//!    the spatial design's MAC utilization collapses as sparsity grows
//!    and work varies across layers, which is exactly why the real
//!    ISOSceles shares one block among all layers;
//! 2. it *cross-validates the interval model*: at compute-bound
//!    densities, time-multiplexed cycles approach `#layers x` the
//!    spatial design's, the expected ratio for 1/#layers the MACs (see
//!    `paper microsim` in `isosceles-bench` and the integration tests).

use crate::config::IsoscelesConfig;
use crate::dataflow::{execute_conv, Pou};
use isos_tensor::{Coord, Csf};
use serde::{Deserialize, Serialize};

/// One conv layer's static description for the micro-simulator.
#[derive(Clone, Debug)]
pub struct MicroLayer {
    /// Input activations `[H, W, C]`.
    pub input: Csf,
    /// Filters `[C, R, K, S]`.
    pub filter: Csf,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub pad: usize,
}

/// Cycle-level results of a micro-simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MicroResult {
    /// Total cycles until the last output element left the last layer.
    pub cycles: u64,
    /// Effectual MACs performed (exact, from the tensors).
    pub macs: u64,
    /// Output elements emitted by the final layer.
    pub outputs: u64,
    /// Cycles in which at least one frontend lane stalled on a full
    /// downstream queue (backpressure).
    pub backpressure_stalls: u64,
    /// MAC array utilization.
    pub mac_utilization: f64,
}

/// Per-element work item of one frontend lane: consuming input column `w`
/// costs `macs` multiply-accumulates.
#[derive(Clone, Copy, Debug)]
struct LaneElem {
    w: Coord,
    macs: u32,
}

/// Runtime state of one layer in the micro-pipeline.
#[derive(Debug)]
struct LayerState {
    /// Per input row (lane): the element stream and a cursor.
    lane_elems: Vec<Vec<LaneElem>>,
    lane_cursor: Vec<usize>,
    /// Per lane: outstanding MAC backlog in the PE array.
    lane_backlog: Vec<u64>,
    /// Per output row: per-column output element counts (from the exact
    /// functional execution).
    out_elems_per_col: Vec<Vec<u32>>,
    /// Per output row: (column cursor, elements already emitted in it).
    emit_cursor: Vec<(usize, u32)>,
    /// Per output row: elements emitted but not yet consumed downstream
    /// (the inter-layer queue).
    queue_occupancy: Vec<u32>,
    /// Per input row: how many elements of each column the *next* layer
    /// has available... tracked on the consumer side instead.
    /// Input columns fully delivered per lane (for wavefront deps).
    in_cols_done: Vec<Coord>,
    in_cols_total: Coord,
    out_rows: usize,
    out_cols: usize,
    stride: usize,
    pad: usize,
    r_dim: usize,
    s_dim: usize,
    /// Count of input elements remaining per (lane, column) — consumed by
    /// the dependency tracker.
    per_col_remaining: Vec<Vec<u32>>,
}

/// Simulates `layers` as one spatially-pipelined chain at element
/// granularity.
///
/// Layer `i+1`'s input tensor must equal layer `i`'s functional output
/// (build chains with [`build_chain`] to guarantee this).
///
/// # Panics
///
/// Panics if the chain shapes are inconsistent or the simulation exceeds
/// a safety bound.
#[allow(clippy::needless_range_loop)] // lanes index several parallel arrays
pub fn simulate_micro(layers: &[MicroLayer], cfg: &IsoscelesConfig) -> MicroResult {
    assert!(!layers.is_empty(), "empty pipeline");
    let mut states: Vec<LayerState> = layers.iter().map(build_state).collect();
    // Columns with no nonzeros are trivially delivered; advance the
    // wavefront markers past them (an all-empty lane is complete at t=0).
    for st in &mut states {
        for lane in 0..st.lane_elems.len() {
            advance_wavefront(st, lane);
        }
    }
    let mut result = MicroResult::default();
    let total_macs: u64 = states
        .iter()
        .flat_map(|s| s.lane_elems.iter().flatten())
        .map(|e| e.macs as u64)
        .sum();
    result.macs = total_macs;

    let macs_per_lane = cfg.macs_per_lane as u64;
    let mergers = cfg.mergers_per_lane as u32; // output elements/lane/cycle
    let queue_cap: u32 = (cfg.queue_bytes_per_lane / 2 / layers.len() as u64).max(64) as u32;
    let dram_elems_per_cycle = (cfg.dram_bytes_per_cycle / 2.0).max(1.0); // 2 B/element

    let mut dram_credit = 0.0f64;
    let mut first_layer_fed: Vec<usize> = vec![0; states[0].lane_elems.len()];
    let mut cycles: u64 = 0;
    let mut retired_macs: u64 = 0;
    let safety = 500_000_000u64;
    // Packed drained-PE mask, reused every cycle: bit `h` set when lane
    // `h`'s backlog is empty. The backend's readiness check tests bits
    // instead of building a fresh `Vec<bool>` per layer per cycle.
    let mut clear_words: Vec<u64> = Vec::new();

    loop {
        cycles += 1;
        assert!(cycles < safety, "micro-simulation runaway");
        let mut any_activity = false;

        // DRAM feeds the first layer's lanes round-robin.
        dram_credit += dram_elems_per_cycle;
        'feed: for lane in 0..states[0].lane_elems.len() {
            while first_layer_fed[lane] < states[0].lane_elems[lane].len() {
                if dram_credit < 1.0 {
                    break 'feed;
                }
                dram_credit -= 1.0;
                first_layer_fed[lane] += 1;
                any_activity = true;
            }
        }

        for li in 0..states.len() {
            // --- Frontend: consume one input element per lane per cycle
            // if the element has arrived and the PE backlog has room.
            let lanes = states[li].lane_elems.len();
            let mut stalled = false;
            for lane in 0..lanes {
                let cursor = states[li].lane_cursor[lane];
                if cursor >= states[li].lane_elems[lane].len() {
                    continue;
                }
                // Element availability: from DRAM for layer 0, from the
                // producer's queue otherwise.
                let available = if li == 0 {
                    cursor < first_layer_fed[lane]
                } else {
                    // Producer row `lane` of the previous layer.
                    states[li - 1]
                        .queue_occupancy
                        .get(lane)
                        .is_some_and(|&q| q > 0)
                };
                if !available {
                    continue;
                }
                // PE backlog cap: the double-buffered context array.
                if states[li].lane_backlog[lane] >= 4 * macs_per_lane {
                    stalled = true;
                    continue;
                }
                let elem = states[li].lane_elems[lane][cursor];
                states[li].lane_cursor[lane] = cursor + 1;
                states[li].lane_backlog[lane] += elem.macs as u64;
                states[li].per_col_remaining[lane][elem.w as usize] -= 1;
                if li > 0 {
                    states[li - 1].queue_occupancy[lane] -= 1;
                }
                any_activity = true;
                advance_wavefront(&mut states[li], lane);
            }
            if stalled {
                result.backpressure_stalls += 1;
            }

            // --- PE arrays retire MACs.
            for lane in 0..lanes {
                let retire = states[li].lane_backlog[lane].min(macs_per_lane);
                states[li].lane_backlog[lane] -= retire;
                retired_macs += retire;
                if retire > 0 {
                    any_activity = true;
                }
            }

            // --- Backend: emit ready output elements in wavefront order.
            clear_words.clear();
            clear_words.resize(lanes.div_ceil(64), 0);
            for (h, &b) in states[li].lane_backlog.iter().enumerate() {
                if b == 0 {
                    clear_words[h / 64] |= 1 << (h % 64);
                }
            }
            let st = &mut states[li];
            for p in 0..st.out_rows {
                let (ref mut col, ref mut emitted) = st.emit_cursor[p];
                let mut budget = mergers;
                while budget > 0 && *col < st.out_cols {
                    // Dependency: output column q of row p needs input
                    // columns through q*stride + S - 1 consumed (and the
                    // contributing lanes' PEs drained) in rows
                    // h = p*stride + r - pad.
                    let need_w = (*col * st.stride + st.s_dim - 1) as Coord;
                    let ready =
                        (0..st.r_dim).all(|r| match (p * st.stride + r).checked_sub(st.pad) {
                            Some(h) if h < st.lane_elems.len() => {
                                st.in_cols_done[h] > need_w
                                    || (st.in_cols_done[h] == st.in_cols_total
                                        && clear_words[h / 64] & (1 << (h % 64)) != 0)
                            }
                            _ => true,
                        });
                    if !ready {
                        break;
                    }
                    let total_here = st.out_elems_per_col[p][*col];
                    if *emitted < total_here {
                        // Downstream queue space; the last layer's queues
                        // drain to the writer below.
                        let room = st.queue_occupancy[p] < queue_cap;
                        if !room {
                            break;
                        }
                        st.queue_occupancy[p] += 1;
                        *emitted += 1;
                        budget -= 1;
                        any_activity = true;
                    } else {
                        *col += 1;
                        *emitted = 0;
                    }
                }
            }

            // The last layer's queue drains to the writer at DRAM rate.
            if li == states.len() - 1 {
                let mut writer_budget = dram_elems_per_cycle as u32;
                for q in states[li].queue_occupancy.iter_mut() {
                    let drain = (*q).min(writer_budget);
                    *q -= drain;
                    writer_budget -= drain;
                    if drain > 0 {
                        any_activity = true;
                    }
                    result.outputs += drain as u64;
                    if writer_budget == 0 {
                        break;
                    }
                }
            }
        }

        // Termination: everything consumed, retired, emitted, drained.
        let done = states.iter().enumerate().all(|(li, s)| {
            s.lane_cursor
                .iter()
                .zip(&s.lane_elems)
                .all(|(&c, e)| c == e.len())
                && s.lane_backlog.iter().all(|&b| b == 0)
                && (0..s.out_rows).all(|p| fully_emitted(s, p))
                && if li + 1 == states.len() {
                    s.queue_occupancy.iter().all(|&q| q == 0)
                } else {
                    true
                }
        });
        if done {
            break;
        }
        assert!(
            any_activity || cycles < 16,
            "micro-simulation deadlock at cycle {cycles}"
        );
    }

    result.cycles = cycles;
    // Spatial-design capacity: every layer owns a block with one PE array
    // per used lane.
    let spatial_macs_per_cycle: u64 = states
        .iter()
        .map(|s| s.lane_elems.len() as u64 * macs_per_lane)
        .sum();
    result.mac_utilization =
        retired_macs as f64 / (cycles as f64 * spatial_macs_per_cycle as f64).max(1.0);
    result
}

/// Advances a lane's delivered-column marker past fully-consumed columns.
fn advance_wavefront(st: &mut LayerState, lane: usize) {
    let mut c = st.in_cols_done[lane];
    while (c as usize) < st.per_col_remaining[lane].len()
        && st.per_col_remaining[lane][c as usize] == 0
        && st.lane_cursor[lane] >= index_of_col(&st.lane_elems[lane], c + 1)
    {
        c += 1;
    }
    st.in_cols_done[lane] = c;
}

fn fully_emitted(s: &LayerState, p: usize) -> bool {
    let (col, em) = s.emit_cursor[p];
    col >= s.out_cols && em == 0
}

fn index_of_col(elems: &[LaneElem], col: Coord) -> usize {
    elems.partition_point(|e| e.w < col)
}

/// Builds the per-lane element streams and exact output counts for one
/// layer by running the functional dataflow.
fn build_state(layer: &MicroLayer) -> LayerState {
    let h_dim = layer.input.shape()[0];
    let w_dim = layer.input.shape()[1];
    let fd = layer.filter.shape().dims();
    let (r_dim, k_dim, s_dim) = (fd[1], fd[2], fd[3]);
    let p_dim = (h_dim + 2 * layer.pad - r_dim) / layer.stride + 1;
    let q_dim = (w_dim + 2 * layer.pad - s_dim) / layer.stride + 1;

    // Per-lane element streams with exact MAC costs. The per-channel MAC
    // cost is probed through a word-level index of the filter's root fiber
    // (one popcount per input nonzero, no per-element bisection).
    let mut lane_elems: Vec<Vec<LaneElem>> = vec![Vec::new(); h_dim];
    let mut per_col_remaining: Vec<Vec<u32>> = vec![vec![0; w_dim]; h_dim];
    let froot = layer.filter.root();
    let findex = froot.index();
    for (h, w_fiber) in layer.input.root().iter_children() {
        for (w, c_fiber) in w_fiber.iter_children() {
            for (c, _) in c_fiber.iter_leaf() {
                let macs = findex.position(c).map_or(0, |i| froot.child(i).nnz_below()) as u32;
                lane_elems[h as usize].push(LaneElem { w, macs });
                per_col_remaining[h as usize][w as usize] += 1;
            }
        }
    }

    // Exact output element counts per (row, column) from the functional
    // execution (linear POU keeps all completed sums visible).
    let exec = execute_conv(
        &layer.input,
        &layer.filter,
        layer.stride,
        layer.pad,
        &Pou::linear(k_dim),
    );
    let mut out_elems_per_col = vec![vec![0u32; q_dim]; p_dim];
    for (pt, _) in exec.output.iter() {
        out_elems_per_col[pt[0] as usize][pt[1] as usize] += 1;
    }

    // Lanes whose columns have no elements are immediately "done" up to
    // the first populated column.
    let in_cols_done = vec![0; h_dim];
    LayerState {
        lane_cursor: vec![0; lane_elems.len()],
        lane_backlog: vec![0; lane_elems.len()],
        emit_cursor: vec![(0, 0); p_dim],
        queue_occupancy: vec![0; p_dim],
        in_cols_done,
        in_cols_total: w_dim as Coord,
        out_rows: p_dim,
        out_cols: q_dim,
        stride: layer.stride,
        pad: layer.pad,
        r_dim,
        s_dim,
        per_col_remaining,
        lane_elems,
        out_elems_per_col,
    }
}

/// Builds a chain of [`MicroLayer`]s where each layer's input is the
/// previous one's functional output.
pub fn build_chain(
    input: Csf,
    filters: &[(Csf, usize, usize)], // (filter, stride, pad)
) -> Vec<MicroLayer> {
    let mut layers = Vec::with_capacity(filters.len());
    let mut current = input;
    for (filter, stride, pad) in filters {
        let k = filter.shape()[2];
        let out = execute_conv(&current, filter, *stride, *pad, &Pou::relu(k)).output;
        layers.push(MicroLayer {
            input: current,
            filter: filter.clone(),
            stride: *stride,
            pad: *pad,
        });
        current = out;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_tensor::gen;

    fn small_cfg() -> IsoscelesConfig {
        IsoscelesConfig {
            lanes: 16,
            macs_per_lane: 16,
            ..Default::default()
        }
    }

    fn chain(n_layers: usize, density: f64, seed: u64) -> Vec<MicroLayer> {
        let input = gen::random_csf(vec![12, 16, 4].into(), density, seed);
        let filters: Vec<(Csf, usize, usize)> = (0..n_layers)
            .map(|i| {
                (
                    gen::random_csf(vec![4, 3, 4, 3].into(), 0.4, seed + 10 + i as u64),
                    1,
                    1,
                )
            })
            .collect();
        build_chain(input, &filters)
    }

    #[test]
    fn single_layer_terminates_and_counts_macs() {
        let layers = chain(1, 0.5, 1);
        let r = simulate_micro(&layers, &small_cfg());
        assert!(r.cycles > 0);
        // Exact MAC count: sum over input nonzeros of nnz(F_c) — within
        // range bounds this overcounts edge-clipped columns slightly, so
        // compare against the frontend's own count loosely.
        assert!(r.macs > 0);
        assert!(r.mac_utilization > 0.0 && r.mac_utilization <= 1.0);
    }

    #[test]
    fn two_layer_pipeline_overlaps_execution() {
        let l2 = chain(2, 0.5, 2);
        let both = simulate_micro(&l2, &small_cfg());
        let first = simulate_micro(&l2[..1], &small_cfg());
        let second = simulate_micro(&l2[1..], &small_cfg());
        // Pipelined execution must beat sequential layer-by-layer.
        assert!(
            both.cycles < first.cycles + second.cycles,
            "pipelined {} vs sequential {}",
            both.cycles,
            first.cycles + second.cycles
        );
    }

    #[test]
    fn denser_input_takes_longer() {
        let sparse = simulate_micro(&chain(2, 0.2, 3), &small_cfg());
        let dense = simulate_micro(&chain(2, 0.9, 3), &small_cfg());
        assert!(dense.cycles > sparse.cycles);
        assert!(dense.macs > sparse.macs);
    }

    #[test]
    fn deterministic() {
        let layers = chain(2, 0.5, 4);
        let a = simulate_micro(&layers, &small_cfg());
        let b = simulate_micro(&layers, &small_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_finishes_immediately() {
        let input = Csf::empty(vec![8, 8, 2].into());
        let filter = gen::random_csf(vec![2, 3, 4, 3].into(), 0.5, 5);
        let layers = build_chain(input, &[(filter, 1, 1)]);
        let r = simulate_micro(&layers, &small_cfg());
        assert_eq!(r.macs, 0);
        assert!(r.cycles < 32);
    }

    #[test]
    fn narrow_queues_cause_backpressure() {
        let layers = chain(2, 0.8, 6);
        let mut cfg = small_cfg();
        cfg.queue_bytes_per_lane = 256; // tiny queues
        let tight = simulate_micro(&layers, &cfg);
        let loose = simulate_micro(&layers, &small_cfg());
        assert!(tight.cycles >= loose.cycles);
    }
}
