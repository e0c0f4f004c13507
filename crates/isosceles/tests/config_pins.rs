//! Bit-pattern pins of the interval model away from the paper's Table I
//! machine.
//!
//! The suite pins (`golden_metrics.rs`) run one configuration, whose
//! 4096 MACs and 128 B/cycle are powers of two and whose 8 kB queues
//! never fill. This digest runs generated configurations that leave
//! those fast paths: a PE count that is not a power of two (the
//! scheduler divides `pes * d / total` and the MAC-utilization ratio
//! divides instead of multiplying by `exact_recip`), DRAM bandwidths of
//! 32, 96 and 512 B/cycle (96 takes the division in `Dram::grant`),
//! scheduler intervals of 50 and 250 cycles, and queues small enough for
//! consumer backpressure to bind. Any change to a group or layer entry
//! of any run moves it.

use isos_nn::models::suite_workload;
use isosceles::accel::{fnv1a, FNV_OFFSET};
use isosceles::arch::run_network;
use isosceles::{ExecMode, IsoscelesConfig};

/// Seeded xorshift64: the generated configurations are fixed by the
/// seed, so the digest is a pin, not a property.
struct XorShift(u64);

impl XorShift {
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        from[(x % from.len() as u64) as usize]
    }
}

/// Six configurations off the Table I machine. Each takes one entry of
/// every fixed axis in turn (so together they cover every value) and
/// draws the rest.
fn generated_configs() -> Vec<IsoscelesConfig> {
    let mut rng = XorShift(0x150_5CE1E5);
    (0..6)
        .map(|k| IsoscelesConfig {
            lanes: [48, 40, 56][k % 3],
            macs_per_lane: [64, 48][k % 2],
            dram_bytes_per_cycle: [32.0, 96.0, 512.0][k % 3],
            scheduler_interval: [50, 250][k % 2],
            queue_bytes_per_lane: rng.pick(&[256, 512, 1024]),
            pe_efficiency: rng.pick(&[0.95, 0.8, 0.6]),
            filter_buffer_bytes: rng.pick(&[256u64, 1024]) << 10,
            max_contexts: rng.pick(&[4, 16]),
            ..IsoscelesConfig::default()
        })
        .collect()
}

#[test]
fn generated_configs_leave_the_fast_paths() {
    let cfgs = generated_configs();
    assert!(cfgs.iter().all(|c| !c.total_macs().is_power_of_two()));
    for bw in [32.0, 96.0, 512.0] {
        assert!(cfgs.iter().any(|c| c.dram_bytes_per_cycle == bw), "{bw}");
    }
    for interval in [50, 250] {
        assert!(cfgs.iter().any(|c| c.scheduler_interval == interval));
    }
    assert!(cfgs.iter().all(|c| c.queue_bytes_per_lane <= 1024));
}

/// FNV-1a over the JSON of every `NetworkMetrics` (groups and layers
/// included; JSON floats round-trip exactly, so equal digests are equal
/// bits), in config × network × mode × seed order.
#[test]
fn generated_config_runs_are_pinned() {
    let mut h = FNV_OFFSET;
    for cfg in generated_configs() {
        for id in ["G58", "M89", "V68"] {
            for seed in [1, 0xC0FFEE] {
                let net = suite_workload(id, seed).network;
                for mode in [ExecMode::Pipelined, ExecMode::SingleLayer] {
                    let m = run_network(&net, &cfg, mode, seed);
                    h = fnv1a(h, serde::json::to_string(&m).as_bytes());
                }
            }
        }
    }
    assert_eq!(h, 0x517b_1c97_0332_4069, "got {h:#018x}");
}
