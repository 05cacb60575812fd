//! Append-only segment files: a checksummed header, then pages.
//!
//! A segment is written exactly once — the active segment receives
//! appended cells until the store seals it — and read many times. The
//! only mutation a crash can leave behind is a **torn tail**: the last
//! page either short of `page_size` bytes or full-size with a checksum
//! that never landed. [`SegmentReader`] detects both at the tail and
//! skips them (the cells were never acknowledged as durable); the same
//! damage *before* the tail is interior corruption and fails loudly.

use crate::crash::{CrashFuse, FusedFile};
use crate::page::{Cell, Page, PageError};
use crate::StoreError;
use apks_math::sha256::sha256;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First eight bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"APKSSEG\0";

/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Magic (8) + version (4) + page size (4) + segment id (8) + schema
/// digest (32) + header checksum (32).
pub const SEGMENT_HEADER_LEN: usize = 88;

/// The fixed header at the front of a segment file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Format version (always [`SEGMENT_VERSION`] when written).
    pub version: u32,
    /// Page size every page in this segment uses.
    pub page_size: u32,
    /// The store-assigned segment id (monotone across the store).
    pub segment_id: u64,
    /// Digest of the deployment schema the payloads encode against —
    /// rejects cross-deployment segment mixing at open time.
    pub schema_digest: [u8; 32],
}

impl SegmentHeader {
    /// Serializes the header, checksum trailer included.
    pub fn to_bytes(&self) -> [u8; SEGMENT_HEADER_LEN] {
        let mut out = [0u8; SEGMENT_HEADER_LEN];
        out[..8].copy_from_slice(&SEGMENT_MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&self.page_size.to_le_bytes());
        out[16..24].copy_from_slice(&self.segment_id.to_le_bytes());
        out[24..56].copy_from_slice(&self.schema_digest);
        let digest = sha256(&out[..56]);
        out[56..88].copy_from_slice(&digest);
        out
    }

    /// Strict header decode: magic, checksum, version and page-size
    /// bounds all verified before any page is touched.
    ///
    /// # Errors
    ///
    /// A structured [`StoreError`] naming the first check that failed.
    pub fn from_bytes(bytes: &[u8]) -> Result<SegmentHeader, StoreError> {
        if bytes.len() < SEGMENT_HEADER_LEN {
            return Err(StoreError::ShortHeader);
        }
        if bytes[..8] != SEGMENT_MAGIC {
            return Err(StoreError::BadMagic);
        }
        if sha256(&bytes[..56]) != bytes[56..88] {
            return Err(StoreError::HeaderChecksumMismatch);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SEGMENT_VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let page_size = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        if !(crate::page::MIN_PAGE_SIZE..=crate::page::MAX_PAGE_SIZE)
            .contains(&(page_size as usize))
        {
            return Err(StoreError::BadPageSize(page_size));
        }
        let segment_id = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let schema_digest: [u8; 32] = bytes[24..56].try_into().expect("32 bytes");
        Ok(SegmentHeader {
            version,
            page_size,
            segment_id,
            schema_digest,
        })
    }
}

/// What [`SegmentWriter::finish`] reports about the sealed segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment id.
    pub segment_id: u64,
    /// Pages written (torn tails excluded — this is the durable count).
    pub pages: u64,
    /// Cells written.
    pub cells: u64,
    /// Total file bytes, header included.
    pub bytes: u64,
}

/// Streams cells into a new segment file, sealing pages as they fill.
pub struct SegmentWriter {
    file: BufWriter<FusedFile>,
    path: PathBuf,
    page_size: usize,
    page: Page,
    info: SegmentInfo,
}

impl SegmentWriter {
    /// Creates `path` (truncating any existing file) and writes the
    /// header immediately. Writes never trip a fuse (the production
    /// configuration); crash tests use [`SegmentWriter::create_fused`].
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing the file.
    ///
    /// # Panics
    ///
    /// If `page_size` is out of range (validated by [`Page::new`]).
    pub fn create(
        path: &Path,
        segment_id: u64,
        schema_digest: [u8; 32],
        page_size: usize,
    ) -> Result<SegmentWriter, StoreError> {
        SegmentWriter::create_fused(
            path,
            segment_id,
            schema_digest,
            page_size,
            CrashFuse::unlimited(),
        )
    }

    /// As [`SegmentWriter::create`], but every disk unit (the create
    /// itself, each written byte, the final sync) is charged to `fuse`
    /// — the crash-injection entry point.
    ///
    /// # Errors
    ///
    /// I/O failures (including [`StoreError::Crashed`]) creating or
    /// writing the file.
    ///
    /// # Panics
    ///
    /// If `page_size` is out of range (validated by [`Page::new`]).
    pub fn create_fused(
        path: &Path,
        segment_id: u64,
        schema_digest: [u8; 32],
        page_size: usize,
        fuse: Arc<CrashFuse>,
    ) -> Result<SegmentWriter, StoreError> {
        let header = SegmentHeader {
            version: SEGMENT_VERSION,
            page_size: page_size as u32,
            segment_id,
            schema_digest,
        };
        let mut file = BufWriter::new(FusedFile::create(path, fuse)?);
        file.write_all(&header.to_bytes())?;
        Ok(SegmentWriter {
            file,
            path: path.to_path_buf(),
            page_size,
            page: Page::new(page_size),
            info: SegmentInfo {
                segment_id,
                bytes: SEGMENT_HEADER_LEN as u64,
                ..SegmentInfo::default()
            },
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The id this segment was created with.
    pub fn segment_id(&self) -> u64 {
        self.info.segment_id
    }

    /// Cells appended so far.
    pub fn cells(&self) -> u64 {
        self.info.cells + self.page.cell_count() as u64
    }

    /// Bytes of sealed pages written so far (the in-progress page is
    /// excluded — it is not durable yet).
    pub fn bytes_written(&self) -> u64 {
        self.info.bytes
    }

    /// Appends one cell, sealing the current page first if it is full.
    /// Returns the cell's `(page, slot)` coordinates inside this
    /// segment — the point-lookup index is built from these at write
    /// time instead of by re-scanning.
    ///
    /// # Errors
    ///
    /// [`StoreError::CellTooLarge`] if the cell cannot fit even an
    /// empty page; I/O failures writing a sealed page.
    pub fn append(&mut self, cell: &Cell) -> Result<(u64, u16), StoreError> {
        if !self.page.insert(cell) {
            self.seal_page()?;
            if !self.page.insert(cell) {
                return Err(StoreError::CellTooLarge {
                    len: cell.encoded_size(),
                    max: Page::max_cell_size(self.page_size),
                });
            }
        }
        // the in-progress page's index is the number of sealed pages
        Ok((self.info.pages, (self.page.cell_count() - 1) as u16))
    }

    fn seal_page(&mut self) -> Result<(), StoreError> {
        let page = std::mem::replace(&mut self.page, Page::new(self.page_size));
        if page.is_empty() {
            return Ok(());
        }
        self.info.cells += page.cell_count() as u64;
        let bytes = page.finalize();
        self.file.write_all(&bytes)?;
        self.info.pages += 1;
        self.info.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Seals the trailing partial page, flushes, and syncs the file.
    ///
    /// # Errors
    ///
    /// I/O failures flushing or syncing.
    pub fn finish(mut self) -> Result<SegmentInfo, StoreError> {
        self.seal_page()?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(self.info)
    }
}

/// Reads a segment: header validation at open, then a streaming,
/// page-at-a-time cell iterator — a 10M-document corpus never needs to
/// be resident in memory.
pub struct SegmentReader {
    file: BufReader<File>,
    header: SegmentHeader,
}

impl SegmentReader {
    /// Opens `path` and validates the header (and, when given, that
    /// the segment belongs to the expected deployment).
    ///
    /// # Errors
    ///
    /// I/O failures, or any header validation failure from
    /// [`SegmentHeader::from_bytes`], or
    /// [`StoreError::SchemaDigestMismatch`].
    pub fn open(
        path: &Path,
        expect_digest: Option<&[u8; 32]>,
    ) -> Result<SegmentReader, StoreError> {
        let mut file = BufReader::new(File::open(path)?);
        let mut header_bytes = [0u8; SEGMENT_HEADER_LEN];
        let mut filled = 0;
        while filled < SEGMENT_HEADER_LEN {
            let n = file.read(&mut header_bytes[filled..])?;
            if n == 0 {
                return Err(StoreError::ShortHeader);
            }
            filled += n;
        }
        let header = SegmentHeader::from_bytes(&header_bytes)?;
        if let Some(expect) = expect_digest {
            if &header.schema_digest != expect {
                return Err(StoreError::SchemaDigestMismatch);
            }
        }
        Ok(SegmentReader { file, header })
    }

    /// The validated header.
    pub fn header(&self) -> &SegmentHeader {
        &self.header
    }

    /// Reads and checksums exactly one page, returning its cells in
    /// slot order — the point-lookup path. Nothing else in the segment
    /// is touched, so a `get` through the store's document index costs
    /// one page read regardless of segment size.
    ///
    /// # Errors
    ///
    /// I/O failures, a short read (the page does not exist or is a
    /// torn tail — indexed cells are always durable, so this is
    /// corruption from the index's point of view), or the page-level
    /// checksum/structure errors mapped to their segment coordinates.
    pub fn page_cells(&mut self, page: u64) -> Result<Vec<Cell>, StoreError> {
        let page_size = self.header.page_size as usize;
        let offset = SEGMENT_HEADER_LEN as u64 + page * page_size as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; page_size];
        let mut filled = 0;
        while filled < page_size {
            let n = self.file.read(&mut buf[filled..])?;
            if n == 0 {
                return Err(StoreError::Io(format!(
                    "segment {}: page {page} short ({filled} of {page_size} bytes)",
                    self.header.segment_id
                )));
            }
            filled += n;
        }
        Page::parse(&buf).map_err(|e| match e {
            PageError::Checksum => StoreError::PageChecksumMismatch {
                segment: self.header.segment_id,
                page,
            },
            PageError::Structure(what) => StoreError::CorruptPage {
                segment: self.header.segment_id,
                page,
                what,
            },
        })
    }

    /// Consumes the reader into a streaming cell iterator.
    pub fn cells(self) -> CellIter {
        let page_size = self.header.page_size as usize;
        let mut iter = CellIter {
            file: self.file,
            segment_id: self.header.segment_id,
            page_size,
            lookahead: None,
            pending: std::collections::VecDeque::new(),
            page_index: 0,
            pages_read: 0,
            torn_tail: false,
            done: false,
        };
        // prime the one-page lookahead so "is this the final page?" is
        // answerable when a checksum fails
        iter.lookahead = match iter.read_page() {
            Ok(buf) => buf,
            Err(e) => {
                iter.done = true;
                iter.pending.push_back(Err(e));
                None
            }
        };
        iter
    }
}

/// Streaming iterator over a segment's cells.
///
/// Yields `Result<Cell, StoreError>`; after exhaustion,
/// [`CellIter::torn_tail`] reports whether a torn final append was
/// skipped.
pub struct CellIter {
    file: BufReader<File>,
    segment_id: u64,
    page_size: usize,
    lookahead: Option<Vec<u8>>,
    pending: std::collections::VecDeque<Result<LocatedCell, StoreError>>,
    page_index: u64,
    pages_read: u64,
    torn_tail: bool,
    done: bool,
}

/// A cell paired with its `(page, slot)` coordinates inside the
/// segment — what [`CellIter::next_located`] yields and the store's
/// document index records at recovery time.
pub type LocatedCell = ((u64, u16), Cell);

impl CellIter {
    /// True iff a torn final page (partial or checksum-dead) was
    /// skipped at the end of the stream.
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Pages successfully parsed so far.
    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }

    /// Reads the next full page, `None` at EOF. A partial trailing
    /// page marks the tail torn and reads as EOF.
    fn read_page(&mut self) -> Result<Option<Vec<u8>>, StoreError> {
        let mut buf = vec![0u8; self.page_size];
        let mut filled = 0;
        while filled < self.page_size {
            let n = self.file.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        if filled == 0 {
            return Ok(None);
        }
        if filled < self.page_size {
            // a torn append: fewer bytes than a page ever has
            self.torn_tail = true;
            return Ok(None);
        }
        Ok(Some(buf))
    }

    /// As `Iterator::next`, but each cell arrives with its `(page,
    /// slot)` coordinates inside the segment — what the store's
    /// document index records at recovery time.
    pub fn next_located(&mut self) -> Option<Result<LocatedCell, StoreError>> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Some(item);
            }
            if self.done {
                return None;
            }
            let Some(buf) = self.lookahead.take() else {
                self.done = true;
                continue;
            };
            self.lookahead = match self.read_page() {
                Ok(next) => next,
                Err(e) => {
                    self.done = true;
                    self.pending.push_back(Err(e));
                    None
                }
            };
            let is_final = self.lookahead.is_none() && !self.done;
            match Page::parse(&buf) {
                Ok(cells) => {
                    self.pages_read += 1;
                    let page = self.page_index;
                    self.pending.extend(
                        cells
                            .into_iter()
                            .enumerate()
                            .map(|(slot, cell)| Ok(((page, slot as u16), cell))),
                    );
                }
                Err(PageError::Checksum) if is_final => {
                    // the checksum of the *last* page never landed: a
                    // torn append, skipped like a partial page
                    self.torn_tail = true;
                    self.done = true;
                }
                Err(PageError::Checksum) => {
                    self.done = true;
                    self.pending
                        .push_back(Err(StoreError::PageChecksumMismatch {
                            segment: self.segment_id,
                            page: self.page_index,
                        }));
                }
                Err(PageError::Structure(what)) => {
                    self.done = true;
                    self.pending.push_back(Err(StoreError::CorruptPage {
                        segment: self.segment_id,
                        page: self.page_index,
                        what,
                    }));
                }
            }
            self.page_index += 1;
        }
    }
}

impl Iterator for CellIter {
    type Item = Result<Cell, StoreError>;

    fn next(&mut self) -> Option<Result<Cell, StoreError>> {
        self.next_located().map(|item| item.map(|(_, cell)| cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh per-test directory, removed with everything in it on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("apks-segment-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn segment(&self) -> PathBuf {
            self.0.join("seg.apks")
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn put(id: u64, len: usize) -> Cell {
        Cell::Put {
            doc_id: id,
            payload: vec![(id % 251) as u8; len],
        }
    }

    #[test]
    fn header_roundtrip_and_rejections() {
        let h = SegmentHeader {
            version: SEGMENT_VERSION,
            page_size: 4096,
            segment_id: 42,
            schema_digest: [7u8; 32],
        };
        let bytes = h.to_bytes();
        assert_eq!(SegmentHeader::from_bytes(&bytes).unwrap(), h);
        // every single-bit flip in the checksummed region is caught
        for pos in 0..56 {
            let mut bad = bytes;
            bad[pos] ^= 0x10;
            assert!(SegmentHeader::from_bytes(&bad).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn write_read_many_pages() {
        let dir = TempDir::new("roundtrip");
        let path = dir.segment();
        let digest = [3u8; 32];
        let mut w = SegmentWriter::create(&path, 5, digest, 256).unwrap();
        let cells: Vec<Cell> = (0..100).map(|i| put(i, 40)).collect();
        for c in &cells {
            w.append(c).unwrap();
        }
        let info = w.finish().unwrap();
        assert_eq!(info.cells, 100);
        assert!(info.pages > 1, "100 40-byte cells must span pages");

        let r = SegmentReader::open(&path, Some(&digest)).unwrap();
        assert_eq!(r.header().segment_id, 5);
        let mut iter = r.cells();
        let back: Vec<Cell> = iter.by_ref().map(|c| c.unwrap()).collect();
        assert_eq!(back, cells);
        assert!(!iter.torn_tail());
        assert_eq!(iter.pages_read(), info.pages);
    }

    #[test]
    fn wrong_schema_digest_refused_at_open() {
        let dir = TempDir::new("digest");
        let path = dir.segment();
        let w = SegmentWriter::create(&path, 1, [1u8; 32], 256).unwrap();
        w.finish().unwrap();
        assert_eq!(
            SegmentReader::open(&path, Some(&[2u8; 32])).err(),
            Some(StoreError::SchemaDigestMismatch)
        );
    }

    #[test]
    fn oversized_cell_refused() {
        let dir = TempDir::new("oversize");
        let path = dir.segment();
        let mut w = SegmentWriter::create(&path, 1, [0u8; 32], 256).unwrap();
        let err = w.append(&put(1, 1000)).unwrap_err();
        assert!(matches!(err, StoreError::CellTooLarge { .. }), "{err:?}");
    }
}
