//! Property-based tests for the declarative description schema: any
//! valid description survives a JSON round-trip unchanged, and
//! malformed descriptions are rejected with messages that name the
//! offending field.

use isos_explore::arch::{load_path, reference, ArchDesc, LoopNest};
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A valid description: one of the four references with its tunable
/// knobs perturbed across their legal ranges. The structural skeleton
/// (level/store layout, loop nest) stays fixed so every generated value
/// passes `validate()` and the round-trip can go through the same
/// entry point real config files use.
fn arb_desc() -> impl Strategy<Value = ArchDesc> {
    (
        0usize..4,
        1u32..=1_000_000,
        1usize..=512,
        1usize..=256,
        // Efficiency in (0, 1]: draw an open-ended fraction and clamp
        // away from zero.
        1u32..=1_000_000,
        2usize..=512,
        1usize..=32,
        1.0f64..1024.0,
        1u64..=(1 << 24),
        1usize..=128,
        1.0f64..4.0,
    )
        .prop_map(
            |(
                which,
                name_tag,
                lanes,
                macs,
                eff_millionths,
                radix,
                contexts,
                dram,
                bytes,
                banks,
                overhead,
            )| {
                let mut desc = reference::all().swap_remove(which);
                desc.name = format!("arch-{name_tag}");
                desc.compute.lanes = lanes;
                desc.compute.macs_per_lane = macs;
                desc.compute.efficiency = f64::from(eff_millionths) / 1e6;
                desc.compute.merger_radix = radix;
                desc.compute.contexts = contexts;
                desc.memory.dram_bytes_per_cycle = dram;
                desc.levels[0].bytes = bytes;
                desc.levels[0].banks = banks;
                desc.levels[0].alloc_overhead = overhead;
                desc
            },
        )
}

proptest! {
    #[test]
    fn json_round_trip_preserves_every_description(desc in arb_desc()) {
        prop_assert_eq!(desc.validate(), Ok(()));
        let json = serde::json::to_string(&desc);
        let back = ArchDesc::from_config_str(&json)
            .map_err(|e| TestCaseError::fail(format!("reparse: {e}")))?;
        prop_assert_eq!(back, desc);
    }
}

/// Loop-nest entries: a dimension letter (one of them unknown) or
/// none, then, for two forms in three, a slash and up to three
/// characters of digits and minus signs.
fn arb_nest_entries() -> impl Strategy<Value = Vec<String>> {
    const DIMS: &str = "NKPQCRSZ";
    const TILE: &[u8] = b"0123456789-";
    let entry = (
        0..DIMS.len() + 1,
        0u8..3,
        prop::collection::vec(0..TILE.len(), 0..4),
    )
        .prop_map(|(d, form, tile)| {
            let mut entry = DIMS.get(d..d + 1).unwrap_or("").to_string();
            if form > 0 {
                entry.push('/');
                entry.extend(tile.into_iter().map(|i| char::from(TILE[i])));
            }
            entry
        });
    prop::collection::vec(entry, 0..9)
}

proptest! {
    /// Parsing a nest is total: any entries give a nest or an error,
    /// never a panic, and a parsed nest spells back to entries that
    /// parse to the same nest.
    #[test]
    fn loop_nest_parse_is_total_and_round_trips(entries in arb_nest_entries()) {
        match LoopNest::parse(entries.iter().map(String::as_str)) {
            Ok(nest) => {
                let spelled: Vec<String> = nest.iter().map(|l| l.to_string()).collect();
                prop_assert_eq!(LoopNest::parse(spelled.iter().map(String::as_str)), Ok(nest));
            }
            Err(e) => prop_assert!(!e.message().is_empty()),
        }
    }
}

/// Mutates the text of the shipped `configs/arch/sparten.json` and
/// reloads it through `load_path`, so the rejection path is the one a
/// user editing a config file actually hits.
fn parse_mutated(replace: &str, with: &str) -> String {
    static NONCE: AtomicUsize = AtomicUsize::new(0);
    let shipped = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/arch/sparten.json");
    let text = std::fs::read_to_string(&shipped).expect("read shipped sparten.json");
    assert!(text.contains(replace), "fixture drifted: {replace}\n{text}");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "mutated-sparten-{}-{}.json",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text.replace(replace, with)).expect("write mutated description");
    let result = load_path(&path);
    let _ = std::fs::remove_file(&path);
    result
        .expect_err("mutated description should be rejected")
        .to_string()
}

#[test]
fn rejects_zero_size_buffer_level_naming_the_level() {
    let msg = parse_mutated(r#""bytes": 1048576"#, r#""bytes": 0"#);
    assert!(msg.contains("filter-buffer"), "{msg}");
    assert!(msg.contains("zero size"), "{msg}");
}

#[test]
fn rejects_dataflow_rank_mismatch_naming_the_dimension() {
    let msg = parse_mutated(r#""K/64", "P""#, r#""K/64", "K""#);
    assert!(msg.contains("rank mismatch"), "{msg}");
    assert!(msg.contains("`K`"), "{msg}");

    let msg = parse_mutated(r#""K/64", "P""#, r#""K/64", "Z""#);
    assert!(msg.contains("rank mismatch"), "{msg}");
    assert!(msg.contains("`Z`"), "{msg}");
}

#[test]
fn rejects_unknown_sparsity_feature_listing_the_choices() {
    let msg = parse_mutated(r#""format": "bitmask""#, r#""format": "blocked""#);
    assert!(msg.contains("unknown sparsity format `blocked`"), "{msg}");
    assert!(msg.contains("expected dense, bitmask, or csf"), "{msg}");

    let msg = parse_mutated(r#""gating": "gospa""#, r#""gating": "magic""#);
    assert!(msg.contains("unknown gating feature `magic`"), "{msg}");
}

#[test]
fn rejects_unknown_fields_naming_the_field() {
    let msg = parse_mutated(r#""lanes""#, r#""lames""#);
    assert!(msg.contains("unknown field `lames`"), "{msg}");
}

/// A level binds each tensor at most once: a second binding of one
/// tensor is rejected where the description is read, naming the level
/// and the tensor, instead of being stored beside the first.
#[test]
fn rejects_a_tensor_bound_twice_naming_the_level_and_tensor() {
    let msg = parse_mutated(r#""tensor": "outputs""#, r#""tensor": "inputs""#);
    assert!(msg.contains("level `cluster-buffers`"), "{msg}");
    assert!(
        msg.contains("tensor `inputs` is bound more than once"),
        "{msg}"
    );
}
