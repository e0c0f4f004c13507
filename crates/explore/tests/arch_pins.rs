//! Byte-level pins on what described points hash to and what a
//! `dse --arch-space` sweep reports.
//!
//! A described point's cache key hashes its serialized description, so
//! these literals hold the description JSON byte for byte: a change to
//! how a description is stored must serialize it exactly as before, or
//! every cached described point misses. The CSV digests hold the sweep's
//! ranked, simulated output (the CSV carries no wall time; the markdown
//! and JSON do, so they are not pinned): the `dse --arch-space` spaces,
//! and the IS-OS slice plain `dse` sweeps, whose points all go through
//! the mapper.

use std::path::Path;

use isos_explore::arch::{load_path, reference, ArchAccel};
use isos_explore::report::result_table;
use isos_explore::search::{search_arch, SearchOptions};
use isos_explore::space::ArchSpace;
use isos_nn::models::suite_workload;
use isosceles::accel::{fnv1a, Accelerator, FNV_OFFSET};
use isosceles_bench::engine::{EngineOptions, SuiteEngine};

const SEED: u64 = 20230225;

fn key_of(desc: isos_explore::arch::ArchDesc) -> u64 {
    ArchAccel::new(desc)
        .expect("pinned descriptions are valid")
        .cache_key()
}

#[test]
fn described_cache_keys_are_pinned() {
    let mut keys: Vec<(String, u64)> = reference::all()
        .into_iter()
        .map(|d| (format!("reference::{}", d.name), key_of(d)))
        .collect();
    let configs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/arch");
    for file in ["fused-layer.json", "isosceles-single.json", "sparten.json"] {
        let desc = load_path(&configs.join(file)).expect("shipped description loads");
        keys.push((format!("configs/arch/{file}"), key_of(desc)));
    }
    let points = ArchSpace::default().enumerate();
    for family in ["isos-", "os-", "fused-"] {
        let p = points
            .iter()
            .find(|p| p.label.starts_with(family))
            .expect("every family is in the default space");
        keys.push((p.label.clone(), key_of(p.desc.clone())));
    }
    let pinned: &[(&str, u64)] = &[
        ("reference::isosceles", 0x723976b9c8e3ab00),
        ("reference::isosceles-single", 0xa1bd9131197d4bd6),
        ("reference::sparten", 0x9cb841f88611dc2b),
        ("reference::fused-layer", 0xbf562123e6caa4c9),
        ("configs/arch/fused-layer.json", 0xbf562123e6caa4c9),
        ("configs/arch/isosceles-single.json", 0xa1bd9131197d4bd6),
        ("configs/arch/sparten.json", 0x9cb841f88611dc2b),
        ("isos-l8-fb128-bw64-r64-c1", 0x3e4c676d1f2c5683),
        ("os-l8-fb128-bw64-k8", 0x225fb598d306b1b9),
        ("fused-l8-fb128-bw64-t8", 0x98c3dcdc78f2373f),
    ];
    let got: Vec<(&str, u64)> = keys.iter().map(|(n, k)| (n.as_str(), *k)).collect();
    assert_eq!(got, pinned, "described-point cache keys moved");
}

/// FNV-1a of `result_table(..).to_csv()` for an uncached `search_arch`.
fn csv_digest(net: &str, points: &[isos_explore::ArchPoint]) -> u64 {
    let engine = SuiteEngine::new(EngineOptions {
        threads: 2,
        use_cache: false,
        quiet: true,
        ..EngineOptions::default()
    });
    let w = suite_workload(net, SEED);
    let result = search_arch(&engine, &w, points, &SearchOptions::default(), SEED)
        .expect("space points are valid");
    fnv1a(FNV_OFFSET, result_table(&result).to_csv().as_bytes())
}

#[test]
fn arch_space_csv_is_pinned() {
    let got = [
        (
            "R96 default",
            csv_digest("R96", &ArchSpace::default().enumerate()),
        ),
        (
            "G58 smoke",
            csv_digest("G58", &ArchSpace::smoke().enumerate()),
        ),
        (
            "R96 is_os",
            csv_digest("R96", &ArchSpace::is_os().enumerate()),
        ),
    ];
    let pinned = [
        ("R96 default", 0x801c920c197d34ea),
        ("G58 smoke", 0x49fe11489ed39f31),
        ("R96 is_os", 0x1e6a6f95f3dd2285),
    ];
    assert_eq!(got, pinned, "dse --arch-space CSV moved");
}
