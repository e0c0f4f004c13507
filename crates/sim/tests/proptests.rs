//! Property-based tests for the memory-system substrate.

use isos_sim::dram::{arbitrate, Dram};
use isos_sim::energy::{energy_of, Activity, EnergyParams};
use isos_sim::stats::{geometric_mean, Utilization};
use proptest::prelude::*;

proptest! {
    #[test]
    fn arbitrate_never_exceeds_capacity_or_demand(
        demands in prop::collection::vec(0.0f64..1e6, 1..10),
        capacity in 0.0f64..1e6,
    ) {
        let grants = arbitrate(&demands, capacity);
        prop_assert_eq!(grants.len(), demands.len());
        let total: f64 = grants.iter().sum();
        prop_assert!(total <= capacity.max(demands.iter().sum()) + 1e-6);
        prop_assert!(total <= demands.iter().sum::<f64>() + 1e-6);
        for (g, d) in grants.iter().zip(&demands) {
            prop_assert!(*g >= 0.0 && *g <= d + 1e-9);
        }
    }

    #[test]
    fn arbitrate_preserves_proportions_when_oversubscribed(
        a in 1.0f64..1e5,
        b in 1.0f64..1e5,
        capacity in 1.0f64..100.0,
    ) {
        prop_assume!(a + b > capacity);
        let grants = arbitrate(&[a, b], capacity);
        prop_assert!((grants[0] / grants[1] - a / b).abs() < 1e-6 * (a / b));
    }

    #[test]
    fn dram_traffic_equals_sum_of_grants(
        transfers in prop::collection::vec((0.0f64..1e5, 0.0f64..1e5, 1u64..1000), 1..50),
    ) {
        let mut dram = Dram::new(128.0);
        let mut total = 0.0;
        for (r, w, cycles) in transfers {
            let (gr, gw) = dram.grant(r, w, cycles);
            total += gr + gw;
            // Grants never exceed interval capacity.
            prop_assert!(gr + gw <= 128.0 * cycles as f64 + 1e-6);
        }
        prop_assert!((dram.traffic().total() - total).abs() < 1e-6);
        let u = dram.utilization().ratio();
        prop_assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn grant_oversubscription_scales_reads_and_writes_proportionally(
        read in 0.0f64..1e7,
        write in 0.0f64..1e7,
        bytes_per_cycle in 1.0f64..512.0,
        cycles in 1u64..10_000,
    ) {
        let mut dram = Dram::new(bytes_per_cycle);
        let capacity = bytes_per_cycle * cycles as f64;
        let (gr, gw) = dram.grant(read, write, cycles);

        // Never grant more than demanded, never more than the interval
        // capacity in total.
        prop_assert!(gr >= 0.0 && gr <= read + 1e-6);
        prop_assert!(gw >= 0.0 && gw <= write + 1e-6);
        prop_assert!(gr + gw <= capacity + 1e-6);

        let demand = read + write;
        if demand <= capacity {
            // Undersubscribed: grants are exact (scale factor is 1.0).
            prop_assert_eq!(gr, read);
            prop_assert_eq!(gw, write);
        } else if read > 0.0 && write > 0.0 {
            // Oversubscribed: the read/write split is preserved.
            let ratio = read / write;
            prop_assert!((gr / gw - ratio).abs() < 1e-6 * ratio.max(1.0));
            // And the channel is saturated.
            prop_assert!((gr + gw - capacity).abs() < 1e-6 * capacity);
        }

        let u = dram.utilization().ratio();
        prop_assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn utilization_is_mean_of_parts(
        parts in prop::collection::vec((0.0f64..100.0, 100u64..1000), 1..20),
    ) {
        let mut u = Utilization::new();
        let mut busy = 0.0;
        let mut total = 0u64;
        for (b, t) in parts {
            let b = b.min(t as f64);
            u.add(b, t);
            busy += b;
            total += t;
        }
        prop_assert!((u.ratio() - (busy / total as f64).min(1.0)).abs() < 1e-9);
    }

    #[test]
    fn gmean_between_min_and_max(values in prop::collection::vec(0.01f64..100.0, 1..20)) {
        let g = geometric_mean(&values);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        prop_assert!(g >= min - 1e-9 && g <= max + 1e-9);
    }

    #[test]
    fn energy_is_monotone_in_activity(
        base in (0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9, 0.0f64..1e9),
        extra in 1.0f64..1e6,
    ) {
        let params = EnergyParams::default();
        let a = Activity {
            dram_bytes: base.0,
            shared_sram_bytes: base.1,
            local_sram_bytes: base.2,
            macs: base.3,
        };
        let mut b = a;
        b.dram_bytes += extra;
        prop_assert!(energy_of(&b, &params).total_mj() > energy_of(&a, &params).total_mj());
        prop_assert!(energy_of(&a, &params).dram_fraction() <= 1.0);
    }
}
