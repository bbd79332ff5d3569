//! The two invariants the archive lives or dies by:
//!
//! 1. **Round-trip fidelity** — writing a real scan and reading it back
//!    yields a semantically identical dataset: equal canonical digests,
//!    byte-identical analysis renders, byte-identical re-encoding.
//! 2. **Corruption robustness** — every way a file can be damaged
//!    (truncation, foreign bytes, future version, bit rot) surfaces as
//!    the matching typed [`StoreError`], never a panic and never a
//!    silently partial dataset — whether it shows at open (structure)
//!    or on a section's first touch (checksums, references) through the
//!    [`Snapshot`] facade.

use std::sync::OnceLock;

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::{choropleth, durations, ev, hsts, issuers, keys, table2};
use std::collections::HashSet;

use govscan_scanner::{ScanDataset, StudyPipeline};
use govscan_store::{Snapshot, StoreError, MAGIC, VERSION};
use govscan_worldgen::{World, WorldConfig};

/// One small-but-real scan, shared across tests.
fn scan() -> &'static ScanDataset {
    static SCAN: OnceLock<ScanDataset> = OnceLock::new();
    SCAN.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(0x5709));
        StudyPipeline::new(&world).run().scan
    })
}

fn snapshot() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| Snapshot::encode(scan()).expect("encodable"))
}

/// Full decode through the lazy facade. Corruption surfaces either at
/// open (structure) or on the section's first touch (checksums, refs).
fn read_lazy(bytes: &[u8]) -> Result<ScanDataset, StoreError> {
    Snapshot::from_bytes(bytes.to_vec())?.dataset()
}

/// Render the full paper-figure set from a dataset via the single-pass
/// aggregation layer.
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
    ]
}

#[test]
fn round_trip_is_semantically_lossless() {
    let original = scan();
    let restored = read_lazy(snapshot()).expect("valid snapshot reads back");

    assert_eq!(original.len(), restored.len());
    assert_eq!(original.scan_time, restored.scan_time);
    assert_eq!(
        Snapshot::digest_of(original).unwrap(),
        Snapshot::digest_of(&restored).unwrap(),
        "canonical digests must agree"
    );
    // Field-level spot check on every record (digest equality already
    // implies this; the explicit loop localises any future failure).
    for (a, b) in original.records().iter().zip(restored.records()) {
        assert_eq!(a, b, "record {} must survive the round trip", a.hostname);
    }
    assert_eq!(
        renders(original),
        renders(&restored),
        "analysis renders must be byte-identical"
    );
}

#[test]
fn lazy_point_queries_match_dataset_without_building_one() {
    let snap = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    assert_eq!(
        snap.decoded_sections(),
        Vec::<&str>::new(),
        "open must decode nothing"
    );
    let expected = scan();
    // Every record is reachable by index and by name, identical to the
    // materialized dataset's view.
    for (i, want) in expected.records().iter().enumerate() {
        let by_index = snap.host(i as u64).expect("decodes").expect("in range");
        assert_eq!(&by_index, want, "host({i})");
        let by_name = snap
            .host_by_name(&want.hostname)
            .expect("decodes")
            .expect("known name");
        assert_eq!(
            &by_name,
            expected.get(&want.hostname).expect("dataset lookup"),
            "host_by_name({}) must match ScanDataset::get",
            want.hostname
        );
    }
    assert!(snap.host(expected.len() as u64).unwrap().is_none());
    assert!(snap
        .host_by_name("no-such-host.gov.invalid")
        .unwrap()
        .is_none());
    assert_eq!(
        snap.datasets_built(),
        0,
        "point queries must never materialize a full dataset"
    );
    assert_eq!(
        snap.decoded_sections(),
        vec!["strings", "certs", "caa", "hosts", "by_host"]
    );
    // Header-level accessors agree with the dataset the archive holds:
    // one pool entry per distinct (leaf, chain length), one CAA entry
    // per record's CAA record.
    let certs: HashSet<_> = expected
        .records()
        .iter()
        .filter_map(|r| r.https.meta())
        .map(|m| (m.fingerprint, m.chain_len))
        .collect();
    let caa: usize = expected.records().iter().map(|r| r.caa.len()).sum();
    assert_eq!(snap.host_count(), expected.len() as u64);
    assert_eq!(snap.cert_count(), certs.len() as u64);
    assert_eq!(snap.caa_count(), caa as u64);
    assert!(snap.string_count() > 0);
    assert_eq!(snap.version(), VERSION);
    assert_eq!(snap.scan_time(), expected.scan_time);
}

#[test]
fn archive_digest_equals_dataset_digest() {
    // Canonical encoding makes hashing the file equivalent to hashing
    // the canonical re-encoding of its dataset.
    let snap = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    assert_eq!(snap.digest(), Snapshot::digest_of(scan()).unwrap());
    assert_eq!(snap.size_bytes(), snapshot().len() as u64);
}

#[test]
fn reencoding_is_byte_identical() {
    let restored = read_lazy(snapshot()).expect("valid snapshot");
    let again = Snapshot::encode(&restored).expect("encodable");
    assert_eq!(
        snapshot(),
        &again,
        "snapshot encoding must be canonical (read → write reproduces the file)"
    );
}

#[test]
fn encoding_is_worker_count_invariant() {
    // The writer encodes and checksums pool sections on the shared
    // executor; the archive must come out byte-identical whether that
    // pool has one worker or several (sections are written in canonical
    // order regardless of completion order).
    std::env::set_var("GOVSCAN_STORE_THREADS", "1");
    let serial = Snapshot::encode(scan()).expect("encodable at 1 worker");
    std::env::set_var("GOVSCAN_STORE_THREADS", "4");
    let parallel = Snapshot::encode(scan()).expect("encodable at 4 workers");
    std::env::remove_var("GOVSCAN_STORE_THREADS");
    assert_eq!(
        serial, parallel,
        "archive bytes must not depend on worker count"
    );
    assert_eq!(
        &serial,
        snapshot(),
        "pinned-thread archives must match the default-environment fixture"
    );
    // The parallel-verified read path accepts its own output.
    let restored = read_lazy(&parallel).expect("valid snapshot");
    assert_eq!(
        Snapshot::digest_of(scan()).unwrap(),
        Snapshot::digest_of(&restored).unwrap()
    );
}

#[test]
fn snapshot_deduplicates_certificates() {
    let reader = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    let with_cert = scan()
        .records()
        .iter()
        .filter(|r| r.https.meta().is_some())
        .count() as u64;
    assert!(reader.host_count() > 0);
    assert!(with_cert > 0, "fixture world must have certificates");
    // Content addressing must collapse hosts sharing a leaf (PR 3 made
    // issuance share chains) instead of storing one entry per host.
    assert!(
        reader.cert_count() <= with_cert,
        "pool ({}) cannot exceed hosts with certs ({with_cert})",
        reader.cert_count()
    );
    let describe = reader.describe().expect("describe");
    assert!(describe.contains("hosts"), "{describe}");
    assert!(describe.contains("fnv1a64="), "{describe}");
    // A second instance describes the archive the same way.
    let again = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    assert_eq!(again.describe().expect("describe"), describe);
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = snapshot().clone();
    bytes[0] ^= 0xFF;
    match read_lazy(&bytes) {
        Err(StoreError::BadMagic { found }) => assert_eq!(found.len(), MAGIC.len()),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // A file that is something else entirely.
    assert!(matches!(
        read_lazy(b"PNG\r\n\x1a\n not a snapshot"),
        Err(StoreError::BadMagic { .. })
    ));
    // The empty file.
    assert!(matches!(read_lazy(b""), Err(StoreError::BadMagic { .. })));
}

#[test]
fn unsupported_version_is_rejected() {
    let mut bytes = snapshot().clone();
    bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    match read_lazy(&bytes) {
        Err(StoreError::UnsupportedVersion(v)) => assert_eq!(v, VERSION + 1),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncation_never_panics_and_never_yields_data() {
    let bytes = snapshot();
    // Chop the file at a spread of lengths including every boundary of
    // interest (mid-magic, mid-header, mid-section, mid-table).
    let cuts: Vec<usize> = (0..bytes.len())
        .step_by((bytes.len() / 97).max(1))
        .chain([1, 7, 8, 15, 23, 24, bytes.len() - 1])
        .collect();
    for cut in cuts {
        let err = read_lazy(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} bytes must not yield a dataset"));
        assert!(
            matches!(
                err,
                StoreError::BadMagic { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
            ),
            "unexpected error at cut {cut}: {err:?}"
        );
    }
}

#[test]
fn flipped_byte_is_a_checksum_mismatch() {
    let bytes = snapshot();
    let reader = Snapshot::from_bytes(bytes.clone()).expect("valid snapshot");
    // Flip one byte inside each section's payload.
    let targets: Vec<(usize, &'static str)> = reader
        .sections()
        .iter()
        .filter(|s| s.len > 0)
        .map(|s| ((s.offset + s.len / 2) as usize, s.name))
        .collect();
    for (offset, section) in targets {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0x01;
        // The damage is attributed to its section when the full decode
        // first touches it.
        match read_lazy(&damaged) {
            Err(StoreError::ChecksumMismatch { section: got }) => {
                assert_eq!(got, section, "damage attributed to its section")
            }
            other => {
                panic!("flip in {section} at {offset}: expected ChecksumMismatch, got {other:?}")
            }
        }
    }
}

#[test]
fn corrupt_section_error_is_cached_not_retried() {
    // Damage the certs pool; the lazy facade must fail on first touch
    // and keep handing back the same (cloned) error afterwards.
    let reader = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    let certs = reader
        .sections()
        .iter()
        .find(|s| s.name == "certs")
        .copied()
        .expect("certs section");
    let mut damaged = snapshot().clone();
    damaged[(certs.offset + certs.len / 2) as usize] ^= 0x01;
    let snap = Snapshot::from_bytes(damaged).expect("structurally valid");
    for _ in 0..2 {
        match snap.dataset() {
            Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, "certs"),
            other => panic!("expected cached ChecksumMismatch, got {other:?}"),
        }
    }
    // Undamaged sections still serve.
    assert!(snap.host_index("no-such-host.gov.invalid").is_ok());
}

#[test]
fn dangling_references_are_corruption_not_panics() {
    // Hand-build a structurally valid snapshot whose single host record
    // points at a string id that does not exist, with checksums
    // recomputed so only reference validation can catch it.
    let bytes = snapshot();
    let reader = Snapshot::from_bytes(bytes.clone()).expect("valid snapshot");
    let hosts = reader
        .sections()
        .iter()
        .find(|s| s.name == "hosts")
        .copied()
        .expect("hosts section");
    let mut damaged = bytes.clone();
    // Hostname id lives in the first 4 bytes of the first host record.
    let at = hosts.offset as usize;
    damaged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // Recompute the hosts checksum so the damage is "clean".
    let payload = &damaged[at..at + hosts.len as usize];
    let fixed = govscan_store::wire::Checksum::of(payload);
    // Patch the table entry in place: find it by scanning the table.
    let table_offset = u64::from_le_bytes(damaged[16..24].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(damaged[table_offset..table_offset + 4].try_into().unwrap());
    for i in 0..count as usize {
        let entry = table_offset + 4 + i * 28;
        let id = u32::from_le_bytes(damaged[entry..entry + 4].try_into().unwrap());
        if id == 5 {
            damaged[entry + 20..entry + 28].copy_from_slice(&fixed.to_le_bytes());
        }
    }
    match read_lazy(&damaged) {
        Err(StoreError::Corrupt { context, .. }) => assert_eq!(context, "hosts"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // The lazy point-query path hits the same wall.
    let snap = Snapshot::from_bytes(damaged).expect("structurally valid");
    match snap.host(0) {
        Err(StoreError::Corrupt { context, .. }) => assert_eq!(context, "hosts"),
        other => panic!("expected Corrupt from host(0), got {other:?}"),
    }
}
