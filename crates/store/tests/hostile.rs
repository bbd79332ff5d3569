//! Crafted archives: a count read from a file must be checked against
//! the bytes that would have to hold it before it sizes an allocation.
//! Unchecked, each count here asks for terabytes, which aborts the
//! process, or overflows a capacity computation. Each must be a typed
//! [`StoreError`].
//!
//! The meta-section cases recompute the section checksum after the
//! edit, so only the count checks stand between the file and the
//! decoders.

use govscan_pki::Time;
use govscan_scanner::{ScanDataset, ScanRecord};
use govscan_store::wire::Checksum;
use govscan_store::{Delta, Snapshot, StoreError, DELTA_MAGIC, DELTA_VERSION, MAGIC, VERSION};

/// A handful of hosts: enough for every section to be non-empty.
fn dataset(hsts_from: usize) -> ScanDataset {
    let records = (0..8)
        .map(|i| {
            let mut r = ScanRecord::unavailable(format!("host{i}.example.gov"));
            r.hsts = i >= hsts_from;
            r
        })
        .collect();
    ScanDataset::new(records, Time(1_600_000_000))
}

/// A 28-byte file: header whose table sits right after it, holding
/// nothing but a section count of `u32::MAX`.
fn header_claiming_every_section(magic: [u8; 8], version: u32) -> Vec<u8> {
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&24u64.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(bytes.len(), 28);
    bytes
}

/// Overwrite the u64 at `at` within the meta section (id 1 in both
/// formats) and recompute that section's checksum in the table.
fn set_meta_u64(bytes: &mut [u8], at: usize, value: u64) {
    let table = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(bytes[table..table + 4].try_into().unwrap()) as usize;
    for i in 0..count {
        let entry = table + 4 + i * 28;
        if u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap()) != 1 {
            continue;
        }
        let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap()) as usize;
        bytes[offset + at..offset + at + 8].copy_from_slice(&value.to_le_bytes());
        let checksum = Checksum::of(&bytes[offset..offset + len]);
        bytes[entry + 20..entry + 28].copy_from_slice(&checksum.to_le_bytes());
        return;
    }
    panic!("no meta section");
}

fn read_meta_u64(bytes: &[u8], at: usize) -> u64 {
    let table = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let entry = table + 4; // meta sorts first
    assert_eq!(
        u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap()),
        1
    );
    let offset = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap()) as usize;
    u64::from_le_bytes(bytes[offset + at..offset + at + 8].try_into().unwrap())
}

// Field offsets within each meta section.
const SNAP_STRING_COUNT: usize = 1 + 8 + 8 * 3;
const DELTA_NEW_HOSTS: usize = 32 + 1 + 8;
const DELTA_PATCH_COUNT: usize = DELTA_NEW_HOSTS + 8;
const DELTA_REMOVED_COUNT: usize = DELTA_PATCH_COUNT + 8;

fn base() -> Snapshot {
    Snapshot::from_bytes(Snapshot::encode(&dataset(8)).unwrap()).unwrap()
}

/// A delta that changes hosts 4..8 and keeps 0..4.
fn delta_bytes() -> Vec<u8> {
    Delta::encode(&base(), &dataset(4)).unwrap()
}

#[test]
fn crafted_snapshot_section_count_is_truncation() {
    let bytes = header_claiming_every_section(MAGIC, VERSION);
    match Snapshot::from_bytes(bytes) {
        Err(StoreError::Truncated { context }) => assert_eq!(context, "section table"),
        other => panic!("expected Truncated, got {:?}", other.map(drop)),
    }
}

#[test]
fn crafted_delta_section_count_is_truncation() {
    let bytes = header_claiming_every_section(DELTA_MAGIC, DELTA_VERSION);
    match Delta::from_bytes(bytes) {
        Err(StoreError::Truncated { context }) => assert_eq!(context, "section table"),
        other => panic!("expected Truncated, got {:?}", other.map(drop)),
    }
}

#[test]
fn crafted_snapshot_string_count_is_corruption() {
    let mut bytes = Snapshot::encode(&dataset(8)).unwrap();
    set_meta_u64(&mut bytes, SNAP_STRING_COUNT, 1 << 40);
    match Snapshot::from_bytes(bytes).and_then(|s| s.dataset()) {
        Err(StoreError::Corrupt { context, .. }) => assert_eq!(context, "strings"),
        other => panic!("expected Corrupt, got {:?}", other.map(drop)),
    }
}

#[test]
fn crafted_delta_removed_count_is_corruption() {
    let mut bytes = delta_bytes();
    set_meta_u64(&mut bytes, DELTA_REMOVED_COUNT, 1 << 40);
    match Delta::from_bytes(bytes).and_then(|d| d.apply(&base())) {
        Err(StoreError::Corrupt { context, .. }) => assert_eq!(context, "removed"),
        other => panic!("expected Corrupt, got {:?}", other.map(drop)),
    }
}

#[test]
fn wrapping_delta_patch_count_is_corruption() {
    let mut bytes = delta_bytes();
    let patch_count = read_meta_u64(&bytes, DELTA_PATCH_COUNT);
    assert_eq!(patch_count, 4);
    // Four times this count wraps around to the positions section's
    // true length.
    set_meta_u64(&mut bytes, DELTA_PATCH_COUNT, patch_count + (1 << 62));
    match Delta::from_bytes(bytes).and_then(|d| d.apply(&base())) {
        Err(StoreError::Corrupt { context, .. }) => assert_eq!(context, "positions"),
        other => panic!("expected Corrupt, got {:?}", other.map(drop)),
    }
}

#[test]
fn crafted_delta_new_host_count_is_corruption() {
    let mut bytes = delta_bytes();
    set_meta_u64(&mut bytes, DELTA_NEW_HOSTS, 1 << 40);
    let delta = Delta::from_bytes(bytes).expect("counts within the file");
    match delta.apply(&base()) {
        Err(StoreError::Corrupt { context, .. }) => assert_eq!(context, "delta meta"),
        other => panic!("expected Corrupt, got {:?}", other.map(drop)),
    }
}
