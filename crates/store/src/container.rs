//! The section container both archive formats share.
//!
//! `GOVSNAP1` snapshots and `GOVDLT1` deltas are the same container with
//! different contents:
//!
//! ```text
//! header   (24 bytes)   magic · version u32 · reserved u32 ·
//!                       section-table offset u64 (backpatched at finish)
//! payloads              one per section, in write order
//! table                 count u32, then per section (28 bytes):
//!                       id u32 · offset u64 · length u64 · FNV-1a64
//! ```
//!
//! A format contributes only its [`Format`]: magic, version, and the
//! names of its section ids. [`Container::parse`] reads any such file
//! and [`ContainerWriter`] writes one, so the two formats cannot drift
//! apart in how they frame, bound or checksum their sections.

use std::io::{Seek, SeekFrom, Write};

use crate::error::{Result, StoreError};
use crate::wire::{Checksum, Decoder, Encoder};

/// Fixed header size: magic + version + reserved + table offset.
pub(crate) const HEADER_LEN: u64 = 24;

/// Bytes per section-table entry: id + offset + length + checksum.
const TABLE_ENTRY_LEN: usize = 4 + 8 + 8 + 8;

/// What distinguishes one archive format from another.
pub(crate) struct Format {
    /// The first eight bytes of every file.
    pub(crate) magic: [u8; 8],
    /// The one version this build reads and writes.
    pub(crate) version: u32,
    /// Section names by id. Ids not listed parse as `"unknown"`: a
    /// future minor revision's sections are tolerated (and checksummed)
    /// but not decoded.
    pub(crate) names: &'static [(u32, &'static str)],
}

impl Format {
    fn name(&self, id: u32) -> &'static str {
        self.names
            .iter()
            .find(|&&(known, _)| known == id)
            .map_or("unknown", |&(_, name)| name)
    }
}

/// One entry of the decoded section table.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Numeric section id (see each format's module docs).
    pub id: u32,
    /// Human-readable name.
    pub name: &'static str,
    /// Payload offset from the start of the archive.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a 64 checksum of the payload.
    pub checksum: u64,
}

/// A parsed section table. Parsing touches no payload; callers fetch
/// payloads by id, bounds-checked and optionally checksum-verified.
pub(crate) struct Container {
    format: &'static Format,
    pub(crate) sections: Vec<Section>,
}

impl Container {
    /// Check `bytes`' magic, version and table bounds, then read the
    /// section table. Any failure is a typed [`StoreError`]; no count
    /// read from the file sizes an allocation before it is checked
    /// against the bytes that would have to hold it.
    pub(crate) fn parse(bytes: &[u8], format: &'static Format) -> Result<Container> {
        let magic = &format.magic;
        if bytes.len() < magic.len() || bytes[..magic.len()] != *magic {
            if bytes.len() >= magic.len() {
                return Err(StoreError::BadMagic {
                    found: bytes[..magic.len()].to_vec(),
                });
            }
            // Too short to even hold the magic: an empty or chopped file.
            if bytes.is_empty() || !magic.starts_with(bytes) {
                return Err(StoreError::BadMagic {
                    found: bytes.to_vec(),
                });
            }
            return Err(StoreError::Truncated { context: "header" });
        }
        let mut header = Decoder::new(bytes, "header");
        header.bytes(magic.len())?;
        let version = header.u32()?;
        if version != format.version {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let _reserved = header.u32()?;
        let table_offset = header.u64()?;
        let table_bytes = usize::try_from(table_offset)
            .ok()
            .and_then(|o| bytes.get(o..))
            .ok_or(StoreError::Truncated {
                context: "section table",
            })?;
        let mut table = Decoder::new(table_bytes, "section table");
        let count = table.u32()? as usize;
        if count > table.remaining() / TABLE_ENTRY_LEN {
            return Err(StoreError::Truncated {
                context: "section table",
            });
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let id = table.u32()?;
            sections.push(Section {
                id,
                name: format.name(id),
                offset: table.u64()?,
                len: table.u64()?,
                checksum: table.u64()?,
            });
        }
        Ok(Container { format, sections })
    }

    /// The table entry for a required section.
    pub(crate) fn section(&self, id: u32) -> Result<&Section> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| StoreError::Corrupt {
                context: "section table",
                detail: format!("missing required section {:?}", self.format.name(id)),
            })
    }

    /// Bounds-checked payload slice of one section.
    pub(crate) fn payload<'b>(&self, bytes: &'b [u8], id: u32) -> Result<&'b [u8]> {
        bounded(bytes, self.section(id)?)
    }

    /// Payload slice with its FNV-1a checksum verified.
    pub(crate) fn verified_payload<'b>(&self, bytes: &'b [u8], id: u32) -> Result<&'b [u8]> {
        let s = self.section(id)?;
        let payload = bounded(bytes, s)?;
        if Checksum::of(payload) != s.checksum {
            return Err(StoreError::ChecksumMismatch { section: s.name });
        }
        Ok(payload)
    }

    /// Require a fixed-width section to hold exactly `count` records of
    /// `width` bytes. The product is checked, so a count crafted to wrap
    /// around to the section's length is caught too.
    pub(crate) fn check_len(&self, id: u32, count: u64, width: usize) -> Result<()> {
        let s = self.section(id)?;
        if count.checked_mul(width as u64) != Some(s.len) {
            return Err(StoreError::Corrupt {
                context: s.name,
                detail: format!("{} bytes for {count} records of {width}", s.len),
            });
        }
        Ok(())
    }
}

/// The bytes a table entry points at, if the file holds them.
fn bounded<'b>(bytes: &'b [u8], s: &Section) -> Result<&'b [u8]> {
    let start = usize::try_from(s.offset).map_err(|_| StoreError::Truncated { context: s.name })?;
    let len = usize::try_from(s.len).map_err(|_| StoreError::Truncated { context: s.name })?;
    start
        .checked_add(len)
        .and_then(|end| bytes.get(start..end))
        .ok_or(StoreError::Truncated { context: s.name })
}

/// Writes one container: the header up front, payloads in order, then
/// the section table, with the header's table offset backpatched.
pub(crate) struct ContainerWriter<W: Write + Seek> {
    pub(crate) out: W,
    /// Stream position where the archive started (offsets are relative
    /// to it, so archives can be embedded mid-stream).
    base: u64,
    /// Archive-relative offset of the next section's payload.
    cursor: u64,
    /// Table entries so far: id · offset · length · checksum.
    table: Vec<(u32, u64, u64, u64)>,
}

impl<W: Write + Seek> ContainerWriter<W> {
    /// Begin an archive at the writer's current position.
    pub(crate) fn new(mut out: W, format: &Format) -> Result<ContainerWriter<W>> {
        let base = out.stream_position()?;
        let mut header = Encoder::new();
        header.bytes(&format.magic);
        header.u32(format.version);
        header.u32(0); // reserved
        header.u64(0); // table offset, backpatched by finish()
        debug_assert_eq!(header.len() as u64, HEADER_LEN);
        out.write_all(header.as_bytes())?;
        Ok(ContainerWriter {
            out,
            base,
            cursor: HEADER_LEN,
            table: Vec::new(),
        })
    }

    /// Record a section whose `len` payload bytes the caller already
    /// streamed to [`Self::out`] at the cursor.
    pub(crate) fn written(&mut self, id: u32, len: u64, checksum: u64) {
        self.table.push((id, self.cursor, len, checksum));
        self.cursor += len;
    }

    /// Write one section's payload and record it.
    pub(crate) fn section(&mut self, id: u32, payload: &[u8], checksum: u64) -> Result<()> {
        self.out.write_all(payload)?;
        self.written(id, payload.len() as u64, checksum);
        Ok(())
    }

    /// Write the section table sorted by id, backpatch the header, and
    /// return the writer positioned at the end of the archive.
    pub(crate) fn finish(mut self) -> Result<W> {
        let table_offset = self.cursor;
        self.table.sort_by_key(|&(id, ..)| id);
        let mut t = Encoder::new();
        t.u32(self.table.len() as u32);
        for &(id, offset, len, checksum) in &self.table {
            t.u32(id);
            t.u64(offset);
            t.u64(len);
            t.u64(checksum);
        }
        self.out.write_all(t.as_bytes())?;
        self.out.seek(SeekFrom::Start(self.base + 16))?;
        self.out.write_all(&table_offset.to_le_bytes())?;
        self.out
            .seek(SeekFrom::Start(self.base + table_offset + t.len() as u64))?;
        self.out.flush()?;
        Ok(self.out)
    }
}
