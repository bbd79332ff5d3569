//! Snapshot archive benchmark, emitting `BENCH_store.json` at the
//! workspace root so future changes have a perf trajectory to compare
//! against.
//!
//! The archive exists to replace regeneration: once a scan is archived,
//! any later analysis should pay a cold load, not a world rebuild plus
//! a full re-scan. This bench quantifies exactly that trade at the
//! paper's 135,408-host scale:
//!
//! - `store/write` — encode the dataset into an in-memory snapshot
//!   (the dominant cost of `snapshot scan --out`, minus the disk).
//! - `store/load` — open the snapshot bytes (magic, version, section
//!   table, meta) and rebuild the full `ScanDataset`, verifying every
//!   section checksum on the way: the cold-start cost of
//!   `snapshot report --from` / `snapshot diff`. Each iteration copies
//!   the bytes into the `Snapshot` it opens.
//! - `store_baseline/regenerate_rescan` — the only alternative without
//!   the archive: `World::generate` at the same scale plus the full
//!   `StudyPipeline::run`. Runs at `sample_size(2)` because a single
//!   pass takes tens of seconds at paper scale.
//!
//! Before any timing, the round-trip invariant is asserted at the
//! benched scale: digest equality plus byte-identical analysis renders
//! through the single-pass `AggregateIndex`. A snapshot layer that is
//! fast but lossy would be worse than none, so the bench refuses to
//! measure one. Set `GOVSCAN_BENCH_SMOKE=1` (CI) to run the same
//! assertions and both timed paths at test scale and skip the JSON
//! artifact.

use std::io::Write as _;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::{choropleth, durations, ev, hsts, issuers, keys, reuse, table2};
use govscan_scanner::{ScanDataset, StudyPipeline};
use govscan_store::Snapshot;
use govscan_worldgen::{World, WorldConfig};

/// Worker count pinned for the regenerate arm, as in benches/worldgen.rs:
/// available parallelism clamped to [2, 8], recorded in the artifact.
fn pinned_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 8)
}

/// Render the paper-figure set through the aggregation layer — the
/// byte-identity witness for the round-trip assertion.
fn renders(ds: &ScanDataset) -> Vec<String> {
    let index = AggregateIndex::build(ds);
    vec![
        table2::build_from_index(&index).render(),
        choropleth::build_from_index(&index).render(),
        issuers::build_from_index(&index, 40).render(),
        keys::build_from_index(&index).render(),
        durations::build_from_index(&index).render(),
        hsts::build_from_index(&index).render(),
        ev::build_from_index(&index).render(),
        reuse::build_from_index(&index).render(),
    ]
}

fn bench_store(c: &mut Criterion) {
    let smoke = std::env::var("GOVSCAN_BENCH_SMOKE").is_ok();
    let target = if smoke { 2_000 } else { 135_408 };
    let scan = govscan_bench::synthetic_dataset(target);

    // The invariant first: a snapshot of this very dataset must round-trip
    // losslessly at the benched scale before its speed means anything.
    let bytes = Snapshot::encode(&scan).expect("dataset encodes");
    let reader = Snapshot::from_bytes(bytes.clone()).expect("valid snapshot");
    let restored = reader.dataset().expect("snapshot reads back");
    assert_eq!(
        Snapshot::digest_of(&scan).unwrap(),
        Snapshot::digest_of(&restored).unwrap(),
        "round-trip digest mismatch at {target} hosts"
    );
    assert_eq!(
        renders(&scan),
        renders(&restored),
        "round-trip analysis renders diverge at {target} hosts"
    );
    println!(
        "store dataset: {target} hosts → {} bytes ({:.1} B/host, {} pooled certs, {} strings)",
        bytes.len(),
        bytes.len() as f64 / target as f64,
        reader.cert_count(),
        reader.string_count(),
    );

    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    g.bench_function("write", |b| {
        b.iter(|| black_box(Snapshot::encode(&scan).expect("dataset encodes")))
    });
    g.bench_function("load", |b| {
        b.iter(|| {
            black_box(
                Snapshot::from_bytes(bytes.clone())
                    .expect("valid snapshot")
                    .dataset()
                    .expect("snapshot reads back"),
            )
        })
    });
    g.finish();

    // The no-archive alternative: rebuild the world and re-run the whole
    // study. Threads pinned so the recorded number states its worker
    // count instead of drifting with the runner.
    let threads = pinned_threads();
    let config = if smoke {
        WorldConfig::small(0xBE7C)
    } else {
        WorldConfig::paper_scale(0xBE7C)
    };
    std::env::set_var("GOVSCAN_WORLDGEN_THREADS", threads.to_string());
    std::env::set_var("GOVSCAN_SCAN_THREADS", threads.to_string());
    let mut g = c.benchmark_group("store_baseline");
    g.sample_size(2);
    g.bench_function("regenerate_rescan", |b| {
        b.iter(|| {
            let world = World::generate(&config);
            black_box(StudyPipeline::new(&world).run())
        })
    });
    g.finish();
    std::env::remove_var("GOVSCAN_WORLDGEN_THREADS");
    std::env::remove_var("GOVSCAN_SCAN_THREADS");

    if smoke {
        println!("smoke mode: skipping BENCH_store.json emission");
        return;
    }

    // Per-sample minima, as in BENCH_scan.json / BENCH_worldgen.json:
    // the low-noise estimator for deterministic CPU-bound bodies on
    // shared machines.
    let by_id = |needle: &str| {
        c.results()
            .iter()
            .find(|r| r.id.ends_with(needle))
            .expect("bench ran")
            .min
            .as_nanos() as f64
    };
    let write = by_id("store/write");
    let load = by_id("store/load");
    let regenerate = by_id("regenerate_rescan");
    let mb = bytes.len() as f64 / (1024.0 * 1024.0);
    let speedup = regenerate / load;
    assert!(
        speedup >= 10.0,
        "cold load must beat regeneration by an order of magnitude (got {speedup:.1}x)"
    );
    let json = format!(
        "{{\n  \"hosts\": {target},\n  \"snapshot_bytes\": {},\n  \"bytes_per_host\": {:.1},\n  \"pooled_certs\": {},\n  \"write_ns\": {write:.0},\n  \"write_mb_per_s\": {:.1},\n  \"load_ns\": {load:.0},\n  \"load_mb_per_s\": {:.1},\n  \"regenerate_rescan_ns\": {regenerate:.0},\n  \"regenerate_threads\": {threads},\n  \"cold_load_speedup\": {speedup:.1}\n}}\n",
        bytes.len(),
        bytes.len() as f64 / target as f64,
        reader.cert_count(),
        mb / (write / 1e9),
        mb / (load / 1e9),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    let mut f = std::fs::File::create(path).expect("writable workspace root");
    f.write_all(json.as_bytes())
        .expect("write BENCH_store.json");
    println!("wrote {path}:\n{json}");
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
