//! End-to-end described-architecture search: screen the smoke family
//! space, simulate the survivors through the cached engine (the paper's
//! machine once), and serve a repeated search from the cache.

use isos_explore::arch::{reference, ArchAccel};
use isos_explore::search::{search_arch, SearchOptions};
use isos_explore::space::ArchSpace;
use isos_nn::models::suite_workload;
use isosceles_bench::engine::{EngineOptions, SuiteEngine};

const SEED: u64 = 20230225;

#[test]
fn smoke_search_ranks_anchors_and_repeats_from_the_cache() {
    let dir = std::env::temp_dir().join(format!("isos-dse-arch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let engine = SuiteEngine::new(EngineOptions {
        threads: 2,
        use_cache: true,
        cache_dir: dir.clone(),
        quiet: true,
        ..EngineOptions::default()
    });
    let w = suite_workload("G58", SEED);
    let points = ArchSpace::smoke().enumerate();
    let opts = SearchOptions::default();

    let first = search_arch(&engine, &w, &points, &opts, SEED).unwrap();
    assert_eq!(first.workload, "G58");
    assert_eq!(first.screened, points.len());
    assert_eq!(first.over_budget, 0);
    assert!(first
        .evaluated
        .windows(2)
        .all(|p| p[0].cycles <= p[1].cycles));
    let anchor = first
        .evaluated
        .iter()
        .find(|e| e.desc == reference::isosceles())
        .expect("anchor simulated");
    assert!((anchor.speedup_vs_default - 1.0).abs() < 1e-12);
    for e in &first.evaluated {
        let est = ArchAccel::new(e.desc.clone()).unwrap().estimate(&w.network);
        assert_eq!(e.est_cycles.to_bits(), est.cycles.to_bits(), "{}", e.label);
    }
    assert!(!first.frontier.is_empty());
    assert!(first.cache.misses > 0);

    let second = search_arch(&engine, &w, &points, &opts, SEED).unwrap();
    assert_eq!(second.cache.misses, 0);
    assert_eq!(second.cache.hits, first.cache.misses);
    assert_eq!(second.screened, first.screened);
    assert_eq!(second.over_budget, first.over_budget);
    assert_eq!(second.evaluated, first.evaluated);
    assert_eq!(second.frontier, first.frontier);

    // Lifetime counters accumulate across both searches.
    let lifetime = engine.lifetime_cache();
    assert_eq!(lifetime.misses, first.cache.misses);
    assert_eq!(lifetime.hits, second.cache.hits);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn smoke_search_simulates_the_paper_machine_once() {
    let engine = SuiteEngine::new(EngineOptions {
        threads: 2,
        use_cache: false,
        quiet: true,
        ..EngineOptions::default()
    });
    let w = suite_workload("G58", SEED);
    let points = ArchSpace::smoke().enumerate();
    let result = search_arch(&engine, &w, &points, &SearchOptions::default(), SEED).unwrap();

    // The top 8 of the 10 smoke points include the paper's machine under
    // its sweep label; it is simulated as the anchor, not a ninth job.
    assert_eq!(result.evaluated.len(), 8);
    assert_eq!(result.cache.hits + result.cache.misses, 8);
    let anchor = result
        .evaluated
        .iter()
        .find(|e| e.label == "paper-default")
        .expect("anchor simulated");
    assert_eq!(anchor.desc, reference::isosceles());
    for (i, a) in result.evaluated.iter().enumerate() {
        for b in &result.evaluated[i + 1..] {
            let mut renamed = b.desc.clone();
            renamed.name = a.desc.name.clone();
            assert_ne!(
                a.desc, renamed,
                "{} and {} are one machine",
                a.label, b.label
            );
        }
    }
}
