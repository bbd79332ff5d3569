//! Per-experiment pipeline benchmarks: one bench per reproduced
//! table/figure, timing the analysis pass that regenerates it over a
//! shared pre-built small world — plus the expensive pipeline stages
//! themselves (world generation, crawl, full scan). Index-fed reports
//! read one `AggregateIndex` built outside the timed loop; building it
//! is a bench of its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use govscan_analysis as analysis;
use govscan_analysis::aggregate::AggregateIndex;
use govscan_bench::fixture;
use govscan_scanner::{GovFilter, StudyPipeline};
use govscan_worldgen::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pipeline_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("stages");
    g.sample_size(10);
    g.bench_function("worldgen_tiny", |b| {
        let mut cfg = WorldConfig::small(1);
        cfg.scale = 0.004;
        b.iter(|| World::generate(black_box(&cfg)))
    });
    let (world, study) = fixture();
    g.bench_function("crawl (fig A.4 workload)", |b| {
        let filter = GovFilter::standard();
        b.iter(|| govscan_scanner::crawler::crawl(&world.net, &filter, black_box(&study.seed_list)))
    });
    g.bench_function("scan_500_hosts", |b| {
        let pipeline = StudyPipeline::new(world);
        let hosts: Vec<String> = world.gov_hosts.iter().take(500).cloned().collect();
        b.iter(|| pipeline.scan_list(black_box(&hosts)))
    });
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let (world, study) = fixture();
    let index = AggregateIndex::build(&study.scan);
    let mut g = c.benchmark_group("experiments");
    g.bench_function("aggregate_index", |b| {
        b.iter(|| AggregateIndex::build(black_box(&study.scan)))
    });
    g.bench_function("table1_overlap", |b| {
        let filter = GovFilter::standard();
        b.iter(|| analysis::table1::build(&filter, &[&world.tranco, &world.majestic, &world.cisco]))
    });
    g.bench_function("table2_worldwide", |b| {
        b.iter(|| analysis::table2::build_from_index(black_box(&index)))
    });
    g.bench_function("fig1_choropleth", |b| {
        b.iter(|| analysis::choropleth::build_from_index(black_box(&index)))
    });
    g.bench_function("fig2_issuers_top40", |b| {
        b.iter(|| analysis::issuers::build_from_index(black_box(&index), 40))
    });
    g.bench_function("fig3_durations", |b| {
        b.iter(|| analysis::durations::build_from_index(black_box(&index)))
    });
    g.bench_function("fig4_keys", |b| {
        b.iter(|| analysis::keys::build_from_index(black_box(&index)))
    });
    g.bench_function("fig5_hosting", |b| {
        b.iter(|| analysis::hosting::build_all_from_index(black_box(&index)))
    });
    g.bench_function("fig7_rank_regression", |b| {
        // Regression + binning over the scanned gov group.
        let pipeline = StudyPipeline::new(world);
        let ctx = pipeline.context();
        let gov = analysis::compare::gov_group(&ctx, &world.tranco);
        b.iter(|| gov.rank_regression(world.tranco.size, 50))
    });
    g.bench_function("fig7_sampling_rank_matched", |b| {
        let pipeline = StudyPipeline::new(world);
        let ctx = pipeline.context();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            analysis::compare::nongov_rank_matched(&ctx, &world.tranco, 20, &mut rng)
        })
    });
    g.bench_function("reuse_keys_5_3_3", |b| {
        b.iter(|| analysis::reuse::build_from_index(black_box(&index)))
    });
    g.bench_function("caa_5_3_4", |b| {
        b.iter(|| {
            analysis::caa::build(black_box(&study.scan), |issuer| {
                govscan_worldgen::cadb::CA_PROFILES
                    .iter()
                    .find(|p| p.label == issuer)
                    .map(|p| p.caa_domain.to_string())
            })
        })
    });
    g.bench_function("ev_appendix", |b| {
        b.iter(|| analysis::ev::build_from_index(black_box(&index)))
    });
    g.bench_function("crawlstats_figA4", |b| {
        b.iter(|| analysis::crawlstats::build(black_box(&study.crawl)))
    });
    g.finish();
}

fn bench_case_studies(c: &mut Criterion) {
    let (world, _) = fixture();
    let pipeline = StudyPipeline::new(world);
    let usa_scan = pipeline.scan_list(&world.gsa_hosts);
    let rok_scan = pipeline.scan_list(&world.rok_hosts);
    let tags: std::collections::BTreeMap<String, Vec<govscan_worldgen::usa::UsaDataset>> = world
        .gsa_hosts
        .iter()
        .filter_map(|h| world.record(h).map(|r| (h.clone(), r.gsa_datasets.clone())))
        .collect();
    let mut g = c.benchmark_group("case_studies");
    g.sample_size(20);
    g.bench_function("usa_tables_a1_a2", |b| {
        b.iter(|| analysis::casestudy::build_usa(black_box(&usa_scan), &tags))
    });
    g.bench_function("rok_tables_a3_a4", |b| {
        b.iter(|| analysis::casestudy::build_rok(black_box(&rok_scan)))
    });
    g.finish();
}

fn bench_disclosure(c: &mut Criterion) {
    let (_, study) = fixture();
    let mut g = c.benchmark_group("disclosure");
    g.bench_function("campaign_fig13", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            govscan_disclosure::campaign::run(black_box(&study.scan), &mut rng, 7)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pipeline_stages,
    bench_tables,
    bench_case_studies,
    bench_disclosure
);
criterion_main!(benches);
