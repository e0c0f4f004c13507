//! The input-stationary (IS) frontend.
//!
//! Each frontend lane consumes one input activation row element by element
//! (wavefront by wavefront), fetches the filter sub-tensor for the
//! element's input channel, and multiplies across the `R x K x S` filter
//! nonzeros, accumulating partial results along `S` (paper Sec. IV-A,
//! Fig. 11). The result is one sorted partial-result stream per
//! `(lane h, filter row r, output channel k)`, ready for the OS backend's
//! R-mergers.
//!
//! This is the *functional* model: it performs exactly the effectual
//! multiplies the hardware would and produces the same streams, without
//! modeling time (the cycle-level model lives in [`crate::arch`]).

use isos_tensor::{Coord, Csf};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Work counters for a frontend pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendStats {
    /// Nonzero input activations consumed.
    pub inputs_consumed: u64,
    /// Filter sub-tensor fetches (one per input element with a matching
    /// nonzero channel fiber).
    pub filter_fetches: u64,
    /// Effectual multiply-accumulates performed.
    pub macs: u64,
    /// Partial results emitted (nonzero only, as in the PE output queue).
    pub partials_emitted: u64,
}

/// Partial-result streams keyed by `(h, r, k)`, each sorted by output
/// column `q`.
#[derive(Clone, Debug, Default)]
pub struct PartialStreams {
    streams: HashMap<(Coord, Coord, Coord), Vec<(Coord, f32)>>,
    stats: FrontendStats,
}

impl PartialStreams {
    /// The stream for frontend lane `h`, PE row `r`, output channel `k`,
    /// or an empty slice if no partials were produced there.
    pub fn stream(&self, h: Coord, r: Coord, k: Coord) -> &[(Coord, f32)] {
        self.streams.get(&(h, r, k)).map_or(&[], Vec::as_slice)
    }

    /// Work counters.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// Total partial-result elements across all streams.
    pub fn total_partials(&self) -> usize {
        self.streams.values().map(Vec::len).sum()
    }
}

/// Runs the IS frontend over a full layer.
///
/// `input` is `[H, W, C]` (CSF, concordant in lane-then-wavefront order);
/// `filter` is `[C, R, K, S]`. `q_dim` is the output width; `stride`/`pad`
/// follow the usual convolution arithmetic.
///
/// # Panics
///
/// Panics if tensor ranks are not 3 and 4 respectively.
pub fn run_frontend(
    input: &Csf,
    filter: &Csf,
    q_dim: usize,
    stride: usize,
    pad: usize,
) -> PartialStreams {
    assert_eq!(input.ndim(), 3, "input must be [H,W,C]");
    assert_eq!(filter.ndim(), 4, "filter must be [C,R,K,S]");
    let mut out = PartialStreams::default();
    // Accumulators: (h, r, k) -> q -> partial sum. BTreeMap keeps q sorted,
    // mirroring the in-order emission of the PE's S-deep register file.
    let mut acc: HashMap<(Coord, Coord, Coord), BTreeMap<Coord, f32>> = HashMap::new();
    let filter_root = filter.root();

    for (h, w_fiber) in input.root().iter_children() {
        // One lane: consume the row's wavefronts in W-then-C order.
        for (w, c_fiber) in w_fiber.iter_children() {
            for (c, ival) in c_fiber.iter_leaf() {
                out.stats.inputs_consumed += 1;
                // Fetch the filter sub-tensor for this input channel. The
                // hardware indexes the filter buffer by C, a concordant
                // step because C is the filter's outermost rank.
                let Some(f_c) = filter_root.find(c) else {
                    continue;
                };
                out.stats.filter_fetches += 1;
                for (r, k_fiber) in f_c.iter_children() {
                    for (k, s_fiber) in k_fiber.iter_children() {
                        let slot = acc.entry((h, r, k)).or_default();
                        for (s, fval) in s_fiber.iter_leaf() {
                            // Output column receiving this contribution:
                            // q*stride + s - pad == w.
                            let Some(num) = (w + pad as Coord).checked_sub(s) else {
                                continue;
                            };
                            if !(num as usize).is_multiple_of(stride) {
                                continue;
                            }
                            let q = num / stride as Coord;
                            if (q as usize) >= q_dim {
                                continue;
                            }
                            out.stats.macs += 1;
                            *slot.entry(q).or_insert(0.0) += ival * fval;
                        }
                    }
                }
            }
        }
    }

    for ((h, r, k), per_q) in acc {
        let stream: Vec<(Coord, f32)> = per_q
            .into_iter()
            .filter(|&(_, v)| v != 0.0) // PEs emit only nonzero partials
            .collect();
        if !stream.is_empty() {
            out.stats.partials_emitted += stream.len() as u64;
            out.streams.insert((h, r, k), stream);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_tensor::Point;

    fn csf3(shape: [usize; 3], entries: &[([u32; 3], f32)]) -> Csf {
        Csf::from_entries(
            shape.to_vec().into(),
            entries
                .iter()
                .map(|&(c, v)| (Point::from_slice(&c), v))
                .collect(),
        )
    }

    fn csf4(shape: [usize; 4], entries: &[([u32; 4], f32)]) -> Csf {
        Csf::from_entries(
            shape.to_vec().into(),
            entries
                .iter()
                .map(|&(c, v)| (Point::from_slice(&c), v))
                .collect(),
        )
    }

    #[test]
    fn single_element_produces_srk_partials() {
        // One input nonzero at (h=0, w=1, c=0); filter has nonzeros at
        // (c=0, r=0, k=0, s=0) and (c=0, r=0, k=0, s=1).
        let input = csf3([1, 4, 1], &[([0, 1, 0], 2.0)]);
        let filter = csf4([1, 1, 1, 2], &[([0, 0, 0, 0], 3.0), ([0, 0, 0, 1], 5.0)]);
        let p = run_frontend(&input, &filter, 3, 1, 0);
        // s=0 -> q=1 (2*3); s=1 -> q=0 (2*5).
        assert_eq!(p.stream(0, 0, 0), &[(0, 10.0), (1, 6.0)]);
        assert_eq!(p.stats().macs, 2);
        assert_eq!(p.stats().inputs_consumed, 1);
    }

    #[test]
    fn accumulates_across_channels_and_s() {
        // Two input channels at the same (h, w); both hit q=0.
        let input = csf3([1, 1, 2], &[([0, 0, 0], 1.0), ([0, 0, 1], 10.0)]);
        let filter = csf4([2, 1, 1, 1], &[([0, 0, 0, 0], 2.0), ([1, 0, 0, 0], 3.0)]);
        let p = run_frontend(&input, &filter, 1, 1, 0);
        assert_eq!(p.stream(0, 0, 0), &[(0, 32.0)]);
    }

    #[test]
    fn empty_filter_channel_skips_fetch() {
        let input = csf3([1, 1, 2], &[([0, 0, 1], 5.0)]);
        // Filter only has channel 0; input only channel 1: nothing happens.
        let filter = csf4([2, 1, 1, 1], &[([0, 0, 0, 0], 2.0)]);
        let p = run_frontend(&input, &filter, 1, 1, 0);
        assert_eq!(p.total_partials(), 0);
        assert_eq!(p.stats().filter_fetches, 0);
        assert_eq!(p.stats().inputs_consumed, 1);
    }

    #[test]
    fn stride_two_skips_odd_columns() {
        let input = csf3([1, 4, 1], &[([0, 1, 0], 1.0), ([0, 2, 0], 1.0)]);
        let filter = csf4([1, 1, 1, 1], &[([0, 0, 0, 0], 1.0)]);
        let p = run_frontend(&input, &filter, 2, 2, 0);
        // w=1 -> q=0.5 invalid; w=2 -> q=1.
        assert_eq!(p.stream(0, 0, 0), &[(1, 1.0)]);
    }

    #[test]
    fn padding_shifts_columns() {
        let input = csf3([1, 2, 1], &[([0, 0, 0], 1.0)]);
        let filter = csf4([1, 1, 1, 3], &[([0, 0, 0, 2], 7.0)]);
        // q = w + pad - s = 0 + 1 - 2 < 0: dropped without pad... with
        // pad=1: q = -1 -> invalid; with pad=2: q = 0.
        let p1 = run_frontend(&input, &filter, 2, 1, 1);
        assert_eq!(p1.stream(0, 0, 0), &[]);
        let p2 = run_frontend(&input, &filter, 2, 1, 2);
        assert_eq!(p2.stream(0, 0, 0), &[(0, 7.0)]);
    }

    #[test]
    fn streams_are_sorted_by_q() {
        let input = Csf::from_dense(&isos_tensor::gen::random_dense(
            vec![2, 10, 3].into(),
            0.6,
            11,
        ));
        let filter = Csf::from_dense(&isos_tensor::gen::random_dense(
            vec![3, 2, 4, 3].into(),
            0.4,
            12,
        ));
        let p = run_frontend(&input, &filter, 8, 1, 0);
        for h in 0..2 {
            for r in 0..2 {
                for k in 0..4 {
                    let s = p.stream(h, r, k);
                    assert!(s.windows(2).all(|w| w[0].0 < w[1].0), "unsorted stream");
                }
            }
        }
        assert!(p.stats().macs > 0);
        // Effectual MACs cannot exceed nnz(input) * nnz(filter).
        assert!(p.stats().macs <= (input.nnz() * filter.nnz()) as u64);
    }
}
