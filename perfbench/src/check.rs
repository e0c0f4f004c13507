//! Output checks shared by the workloads, and the four suite models run
//! one layer call at a time.

use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
use isos_nn::graph::Network;
use isos_sim::metrics::{NetworkMetrics, RunMetrics};
use isosceles::accel::Accelerator;
use isosceles::arch::simulate_mapping;
use isosceles::{map_network, ExecMode, IsoscelesConfig};

use crate::trace::Tracer;

/// Operations attempted and failed, with the first few failure reasons
/// echoed to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; it failed if `problems` is non-empty.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: FAILED {what}: {}", problems.join("; "));
            }
        }
    }
}

/// The four default-configured suite models, in suite order.
#[derive(Default)]
pub struct Models {
    isosceles: IsoscelesConfig,
    single: IsoscelesSingleConfig,
    sparten: SpartenConfig,
    fused: FusedLayerConfig,
}

impl Models {
    /// Model names, in suite order.
    pub const NAMES: [&'static str; 4] =
        ["isosceles", "isosceles-single", "sparten", "fused-layer"];

    /// The models as trait objects, in suite order.
    pub fn all(&self) -> [&dyn Accelerator; 4] {
        [&self.isosceles, &self.single, &self.sparten, &self.fused]
    }

    /// Simulates `net` on model `i` through the layers' public functions,
    /// one span per call: `map_network` + `simulate_mapping` for the two
    /// ISOSceles models, the baseline's `simulate` otherwise. Returns
    /// exactly what [`Accelerator::simulate`] returns.
    pub fn simulate_layers(
        &self,
        t: &mut Tracer,
        i: usize,
        net: &Network,
        seed: u64,
    ) -> NetworkMetrics {
        let (cfg, mode) = match i {
            0 => (&self.isosceles, ExecMode::Pipelined),
            1 => (&self.single.0, ExecMode::SingleLayer),
            _ => return t.span("baselines.sim", |_| self.all()[i].simulate(net, seed)),
        };
        let mapping = t.span("mapping.map", |_| map_network(net, cfg, mode));
        let metrics = t.span("pipeline.sim", |_| {
            simulate_mapping(net, cfg, &mapping, seed)
        });
        t.count("pipeline.groups", mapping.groups.len() as f64);
        t.count("pipeline.cycles", metrics.total.cycles as f64);
        metrics
    }
}

/// The per-layer conservation law of `bench/tests/conservation.rs`: the
/// per-layer and per-group breakdowns both sum to the network totals.
pub fn conserves(m: &NetworkMetrics) -> Result<(), String> {
    if m.layers.is_empty() {
        return Err("no per-layer breakdown".into());
    }
    for (label, sum) in [("layer", m.layer_sum()), ("group", m.group_sum())] {
        if sum.cycles != m.total.cycles {
            return Err(format!(
                "{label} cycles {} vs total {}",
                sum.cycles, m.total.cycles
            ));
        }
        for (what, a, b) in run_fields(&sum, &m.total) {
            if (a - b).abs() / b.abs().max(1.0) >= 1e-6 {
                return Err(format!("{label} {what} sum {a} vs total {b}"));
            }
        }
    }
    Ok(())
}

fn run_fields(sum: &RunMetrics, total: &RunMetrics) -> [(&'static str, f64, f64); 9] {
    [
        ("weight_traffic", sum.weight_traffic, total.weight_traffic),
        ("act_traffic", sum.act_traffic, total.act_traffic),
        ("effectual_macs", sum.effectual_macs, total.effectual_macs),
        (
            "dram_bytes",
            sum.activity.dram_bytes,
            total.activity.dram_bytes,
        ),
        (
            "shared_sram_bytes",
            sum.activity.shared_sram_bytes,
            total.activity.shared_sram_bytes,
        ),
        (
            "local_sram_bytes",
            sum.activity.local_sram_bytes,
            total.activity.local_sram_bytes,
        ),
        ("macs", sum.activity.macs, total.activity.macs),
        ("mac_util.busy", sum.mac_util.busy(), total.mac_util.busy()),
        ("bw_util.busy", sum.bw_util.busy(), total.bw_util.busy()),
    ]
}

/// Checks `got` against the direct simulation `want` of the same job,
/// and its conservation law; appends any problem to `problems`.
pub fn expect_same(
    problems: &mut Vec<String>,
    job: &dyn std::fmt::Display,
    got: &NetworkMetrics,
    want: &NetworkMetrics,
) {
    if got != want {
        problems.push(format!(
            "{job}: {} cycles, direct simulation gives {}",
            got.total.cycles, want.total.cycles
        ));
    }
    if let Err(e) = conserves(got) {
        problems.push(format!("{job}: {e}"));
    }
}

/// The FNV-1a offset basis: the digest of nothing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a digest of `text`.
pub fn text_digest(text: &str) -> u64 {
    fnv1a(FNV_OFFSET, text.as_bytes())
}

/// FNV-1a digest of the metrics' canonical JSON, in iteration order, so
/// two commits' simulated outputs can be compared at a glance.
pub fn digest<'a>(metrics: impl IntoIterator<Item = &'a NetworkMetrics>) -> u64 {
    metrics.into_iter().fold(FNV_OFFSET, |h, m| {
        fnv1a(h, serde::json::to_string(m).as_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_calls_match_the_models() {
        let models = Models::default();
        let net = isos_nn::models::suite_workload("G58", 3).network;
        let mut t = Tracer::disabled();
        for (i, accel) in models.all().into_iter().enumerate() {
            let direct = accel.simulate(&net, 3);
            assert_eq!(
                models.simulate_layers(&mut t, i, &net, 3),
                direct,
                "{}",
                Models::NAMES[i]
            );
            assert!(conserves(&direct).is_ok());
            assert_eq!(accel.name(), Models::NAMES[i]);
        }
    }

    #[test]
    fn broken_totals_fail_conservation() {
        let mut m = IsoscelesConfig::default()
            .simulate(&isos_nn::models::suite_workload("G58", 3).network, 3);
        m.total.cycles += 1;
        assert!(conserves(&m).is_err());
        assert_ne!(digest([&m]), digest(std::iter::empty()));
    }
}
