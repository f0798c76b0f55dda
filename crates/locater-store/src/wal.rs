//! Per-shard append-only write-ahead log: checksummed frames, segment
//! rotation, configurable fsync policy.
//!
//! The WAL is the durability half of the store (the other half is the binary
//! snapshot of [`crate::snapshot`]): every ingested event is framed and
//! appended to the owning shard's active segment *in the same mutation* as the
//! in-memory append, so a crash loses at most the frames the fsync policy had
//! not yet forced to disk. Recovery (see [`crate::recovery`]) loads the last
//! checkpoint snapshot and replays the per-shard tails.
//!
//! ## On-disk layout
//!
//! ```text
//! <wal-dir>/
//!   checkpoint.snap            full store snapshot (crate::snapshot format)
//!   shard-0000/
//!     seg-0000000000000000.wal
//!     seg-0000000000000001.wal   ← active (append) segment
//!   shard-0001/
//!     ...
//! ```
//!
//! Each segment file starts with a 24-byte header:
//!
//! ```text
//! magic     8 B   "LOCATRWL"
//! version   u32   1
//! shard     u32   owning shard index
//! segment   u64   segment index (monotonic per shard, never reused)
//! ```
//!
//! followed by frames, each carrying one [`WalRecord`] (the snapshot event
//! encoding plus the device identifier, so a record replays without any other
//! context):
//!
//! ```text
//! length    u32   payload byte count
//! checksum  u64   FNV-1a 64 over the payload bytes (same hash as snapshots)
//! payload:  id (u64), t (i64), ap (u32), mac (u16 len + UTF-8 bytes),
//!           then optionally the client request id (u64) when the ingest
//!           carried an idempotency token — presence is encoded by payload
//!           length, so untagged frames are byte-identical to older logs
//! ```
//!
//! All integers are little-endian. A frame is valid only if it is complete
//! *and* its checksum matches; `scan_segment` stops at the first invalid
//! frame and reports where, and a header must name the shard and segment its
//! directory and file name say. Recovery accepts damage only in the **last**
//! segment of a shard (a torn tail from a crash mid-write, whose frame was
//! never acknowledged); anywhere else it is a typed [`WalError`] — never a
//! panic, the same standard as [`crate::snapshot`].
//!
//! A log is never reopened: [`ShardWal::open`] only starts fresh ones. A boot
//! recovers the old logs read-only, checkpoints, and replaces them
//! ([`crate::recovery::initialize_wal`]) — which is how a torn tail leaves
//! the disk.
//!
//! ## Durability levers
//!
//! * [`FsyncPolicy`] decides when appends reach the platters: `always` (one
//!   `fdatasync` per append) or `every=N` (amortized; bounds loss by count,
//!   not by time — the last < N acks stay unflushed until N more appends, a
//!   rotation or a checkpoint).
//! * Rotation ([`Durability::segment_max_bytes`]): an append that would
//!   overflow the active segment first fsyncs and seals it, so every sealed
//!   segment is durable and immutable regardless of policy.
//! * A checkpoint (snapshot write + [`ShardWal::reset`]) trims the replayed
//!   prefix: segment indices keep growing so a pre-checkpoint segment can
//!   never be mistaken for a post-checkpoint one.

use crate::error::{IngestError, StoreError};
use crate::io::{RealIo, StorageIo};
use crate::snapshot::fnv1a;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes every WAL segment starts with.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"LOCATRWL";
/// Newest WAL segment format version this build reads and writes.
pub(crate) const WAL_VERSION: u32 = 1;
/// Segment header length: magic + version + shard + segment index.
pub(crate) const WAL_HEADER_LEN: usize = 8 + 4 + 4 + 8;
/// Frame header length: payload length + checksum.
pub(crate) const WAL_FRAME_HEADER_LEN: usize = 4 + 8;

/// File name of the checkpoint snapshot inside a WAL directory.
pub(crate) const CHECKPOINT_FILE: &str = "checkpoint.snap";

/// The checkpoint snapshot path inside `dir`.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join(CHECKPOINT_FILE)
}

/// The directory holding one shard's segments inside `dir`.
pub fn shard_dir(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard:04}"))
}

fn segment_path(shard_dir: &Path, index: u64) -> PathBuf {
    shard_dir.join(format!("seg-{index:016x}.wal"))
}

/// The shard a `shard-NNNN` directory name stands for.
fn shard_of_dir_name(name: &str) -> Option<u32> {
    name.strip_prefix("shard-")?.parse().ok()
}

/// The segment index a `seg-<16 hex>.wal` file name stands for.
fn index_of_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    u64::from_str_radix(hex, 16).ok()
}

/// The `(shard, segment index)` a segment's directory and file name give it.
fn segment_identity(path: &Path) -> Option<(u32, u64)> {
    let shard = shard_of_dir_name(path.parent()?.file_name()?.to_str()?)?;
    let index = index_of_segment_name(path.file_name()?.to_str()?)?;
    Some((shard, index))
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// When appended frames are forced to disk (`fdatasync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every append: an acknowledged ingest is always durable.
    Always,
    /// Sync once every N appends: bounded-count loss window, amortized cost.
    /// Not bounded in time — the last < N appends stay unsynced until N more
    /// arrive, a rotation seals the segment, or a checkpoint replaces it.
    EveryN(u64),
}

impl FsyncPolicy {
    /// Parses the CLI syntax: `always` or `every=N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "always" {
            return Ok(FsyncPolicy::Always);
        }
        match s.strip_prefix("every=").map(str::parse::<u64>) {
            Some(Ok(n)) if n >= 1 => Ok(FsyncPolicy::EveryN(n)),
            Some(_) => Err(format!(
                "invalid fsync policy {s:?}: N must be a positive integer"
            )),
            None => Err(format!("invalid fsync policy {s:?} (always | every=N)")),
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
        }
    }
}

/// Durability configuration: where the WAL lives and how eagerly it syncs.
#[derive(Debug, Clone)]
pub struct Durability {
    /// The WAL directory (created if missing); holds the checkpoint snapshot
    /// and one sub-directory of segments per shard.
    pub dir: PathBuf,
    /// When appended frames are forced to disk.
    pub fsync: FsyncPolicy,
    /// Rotate the active segment once it exceeds this size (bytes). Sealed
    /// segments are immutable, so rotation bounds the whole-file read
    /// recovery makes per segment and makes deltas (segments sealed since
    /// the last checkpoint) explicit files.
    pub segment_max_bytes: u64,
    /// The storage backend every durability-critical operation routes
    /// through: [`RealIo`] in production, a [`crate::io::FaultIo`] in chaos
    /// tests. Shared across shards so one fault schedule spans the service.
    pub io: Arc<dyn StorageIo>,
}

impl Durability {
    /// Durability at `dir` with the safe defaults: `fsync=always`, 8 MiB
    /// segments, real storage I/O.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Durability {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            segment_max_bytes: 8 * 1024 * 1024,
            io: Arc::new(RealIo),
        }
    }

    /// Replaces the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Replaces the segment rotation threshold (clamped to at least the
    /// header size plus one minimal frame).
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes.max((WAL_HEADER_LEN + WAL_FRAME_HEADER_LEN) as u64);
        self
    }

    /// Replaces the storage backend (fault injection hooks in here).
    pub fn with_io(mut self, io: Arc<dyn StorageIo>) -> Self {
        self.io = io;
        self
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors produced by the WAL and recovery layer. Corruption and torn writes
/// are typed, positioned errors — never panics.
#[derive(Debug)]
pub enum WalError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file does not start with the WAL segment magic.
    NotAWalSegment(PathBuf),
    /// The segment was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the segment header.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// A record cannot be represented in the frame format (e.g. an oversized
    /// device identifier). Reported at *append* time.
    Unencodable(String),
    /// A segment before the last of its shard contains an invalid frame, or
    /// a segment's header disagrees with its directory and file name.
    /// `locater-cli wal truncate` repairs this by discarding everything from
    /// the damage onward.
    Corrupt {
        /// The damaged segment file.
        segment: PathBuf,
        /// Byte offset of the first invalid frame (or header field).
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// [`ShardWal::open`] found segments in the shard directory it was asked
    /// to start a log in. Logs are only ever started fresh: a boot recovers
    /// the old ones and replaces them ([`crate::recovery::initialize_wal`]).
    LogExists(PathBuf),
    /// The per-shard logs are individually valid but mutually inconsistent
    /// (e.g. two shards claim the same event id).
    InvalidLog(String),
    /// The writer is permanently poisoned by an earlier write/fsync failure:
    /// the on-disk tail is in an unknown state (a short write may have left
    /// torn bytes; a failed fsync may have dropped pages), so appending or
    /// re-syncing could silently bury acknowledged frames. Every subsequent
    /// `append`/`reset` returns this; the only way out is a restart, whose
    /// recovery stops at any tear and whose boot checkpoint replaces the log.
    Poisoned {
        /// The poisoned shard.
        shard: u32,
        /// The original failure, rendered.
        reason: String,
    },
    /// Loading or writing the checkpoint snapshot failed.
    Snapshot(StoreError),
    /// Replaying a durable record into the store failed (the log references
    /// an access point or device the checkpointed space does not know).
    Replay(IngestError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(err) => write!(f, "WAL I/O error: {err}"),
            WalError::NotAWalSegment(path) => {
                write!(f, "{} is not a LOCATER WAL segment (bad magic)", path.display())
            }
            WalError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported WAL segment version {found} (this build reads up to {supported})"
            ),
            WalError::Unencodable(reason) => write!(f, "cannot encode WAL record: {reason}"),
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "corrupt WAL segment {} at byte {offset}: {reason} (run `locater-cli wal truncate` to repair)",
                segment.display()
            ),
            WalError::LogExists(dir) => write!(
                f,
                "{} already holds a WAL log; shard logs are only started fresh, after recovery",
                dir.display()
            ),
            WalError::InvalidLog(reason) => write!(f, "invalid WAL: {reason}"),
            WalError::Poisoned { shard, reason } => write!(
                f,
                "WAL writer for shard {shard} is poisoned by an earlier failure ({reason}); \
                 restart the service to recover the durable prefix"
            ),
            WalError::Snapshot(err) => write!(f, "WAL checkpoint snapshot: {err}"),
            WalError::Replay(err) => write!(f, "WAL replay: {err}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(err) => Some(err),
            WalError::Snapshot(err) => Some(err),
            WalError::Replay(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(err: std::io::Error) -> Self {
        WalError::Io(err)
    }
}

impl From<StoreError> for WalError {
    fn from(err: StoreError) -> Self {
        WalError::Snapshot(err)
    }
}

impl From<IngestError> for WalError {
    fn from(err: IngestError) -> Self {
        WalError::Replay(err)
    }
}

// ---------------------------------------------------------------------------
// Records and frames
// ---------------------------------------------------------------------------

/// One durable ingest: everything needed to replay the event into a
/// checkpointed store, with the globally sequential event id pinned so the
/// recovered store is bit-identical to the uncrashed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The global event id the append drew.
    pub id: u64,
    /// Event timestamp (seconds since the deployment epoch).
    pub t: i64,
    /// Resolved access point id ([`locater_space::AccessPointId::raw`]).
    pub ap: u32,
    /// Device MAC address / log identifier.
    pub mac: String,
    /// The client idempotency token the ingest carried, if any. Persisting it
    /// lets recovery rebuild the server's replay-dedup cache, so a retry of a
    /// durable-but-unacked ingest is answered, not re-applied, even across a
    /// crash.
    pub request_id: Option<u64>,
}

/// Encodes a record payload: the snapshot event encoding (`id u64, t i64,
/// ap u32`) plus the device identifier (`u16` length + UTF-8 bytes) and,
/// when present, the client request id (`u64`) — its presence is carried by
/// the payload length, so untagged records keep the original frame bytes.
pub(crate) fn encode_record(record: &WalRecord) -> Result<Vec<u8>, WalError> {
    let mac = record.mac.as_bytes();
    let mac_len = u16::try_from(mac.len()).map_err(|_| {
        WalError::Unencodable(format!(
            "device identifier is {} bytes (format limit {})",
            mac.len(),
            u16::MAX
        ))
    })?;
    let mut out = Vec::with_capacity(8 + 8 + 4 + 2 + mac.len() + 8);
    out.extend_from_slice(&record.id.to_le_bytes());
    out.extend_from_slice(&record.t.to_le_bytes());
    out.extend_from_slice(&record.ap.to_le_bytes());
    out.extend_from_slice(&mac_len.to_le_bytes());
    out.extend_from_slice(mac);
    if let Some(request_id) = record.request_id {
        out.extend_from_slice(&request_id.to_le_bytes());
    }
    Ok(out)
}

/// Decodes a frame payload back into a [`WalRecord`]. Errors are descriptive
/// strings; the caller positions them (segment + offset).
fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    if payload.len() < 8 + 8 + 4 + 2 {
        return Err(format!(
            "record payload too short ({} bytes)",
            payload.len()
        ));
    }
    let id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let t = i64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let ap = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes"));
    let mac_len = u16::from_le_bytes(payload[20..22].try_into().expect("2 bytes")) as usize;
    let rest = &payload[22..];
    // After the identifier, a record optionally carries the client request id
    // (exactly 8 more bytes); any other trailing length is corruption.
    let request_id = match rest.len().checked_sub(mac_len) {
        Some(0) => None,
        Some(8) => Some(u64::from_le_bytes(
            rest[mac_len..].try_into().expect("8 bytes"),
        )),
        _ => {
            return Err(format!(
                "record declares a {mac_len}-byte identifier but carries {} bytes",
                rest.len()
            ))
        }
    };
    let mac = std::str::from_utf8(&rest[..mac_len])
        .map_err(|_| "non-UTF-8 device identifier".to_string())?
        .to_string();
    Ok(WalRecord {
        id,
        t,
        ap,
        mac,
        request_id,
    })
}

fn encode_frame(record: &WalRecord) -> Result<Vec<u8>, WalError> {
    let payload = encode_record(record)?;
    let mut frame = Vec::with_capacity(WAL_FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Decodes the frame at the start of `bytes`: the record and the frame's
/// length, or why the frame is invalid.
fn decode_frame(bytes: &[u8]) -> Result<(WalRecord, usize), String> {
    if bytes.len() < WAL_FRAME_HEADER_LEN {
        return Err(format!("incomplete frame header ({} bytes)", bytes.len()));
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let expected = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
    let available = bytes.len() - WAL_FRAME_HEADER_LEN;
    if available < len {
        return Err(format!(
            "frame declares {len} payload bytes but only {available} remain"
        ));
    }
    let payload = &bytes[WAL_FRAME_HEADER_LEN..WAL_FRAME_HEADER_LEN + len];
    let actual = fnv1a(payload);
    if actual != expected {
        return Err(format!(
            "frame checksum mismatch (header says {expected:#018x}, payload hashes to {actual:#018x})"
        ));
    }
    Ok((decode_record(payload)?, WAL_FRAME_HEADER_LEN + len))
}

fn encode_segment_header(shard: u32, index: u64) -> [u8; WAL_HEADER_LEN] {
    let mut header = [0u8; WAL_HEADER_LEN];
    header[0..8].copy_from_slice(WAL_MAGIC);
    header[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&shard.to_le_bytes());
    header[16..24].copy_from_slice(&index.to_le_bytes());
    header
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

/// Where and why a scan stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TornTail {
    /// Byte offset of the first invalid frame: the valid prefix ends here.
    pub offset: u64,
    /// What was wrong with the frame (incomplete, checksum mismatch, …).
    pub reason: String,
}

/// The result of scanning one segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentScan {
    /// The valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix (header + valid frames; 0 when
    /// the header itself is torn).
    pub valid_bytes: u64,
    /// Actual file length.
    pub file_len: u64,
    /// Set when the scan stopped before `file_len`.
    pub torn: Option<TornTail>,
}

/// Scans one segment file: its valid records up to the first invalid frame
/// (or a torn header), which is returned as [`SegmentScan::torn`] rather
/// than raised — whether it is a crash's torn tail or corruption depends on
/// where the segment sits in its shard's log, which only the caller knows.
/// A file that is not the segment its path names is an error: a wrong magic,
/// an unsupported version, or a header whose shard and index disagree with
/// the `shard-NNNN` directory and `seg-<index>.wal` name (a
/// [`WalError::Corrupt`] at byte 12).
pub(crate) fn scan_segment(path: &Path, io: &dyn StorageIo) -> Result<SegmentScan, WalError> {
    let bytes = io.read(path)?;
    let mut scan = SegmentScan {
        records: Vec::new(),
        valid_bytes: 0,
        file_len: bytes.len() as u64,
        torn: None,
    };
    if bytes.len() < WAL_HEADER_LEN {
        // A crash can tear the header of a freshly created segment; a full
        // header with the wrong magic is a different file kind, not a tear.
        if bytes.len() >= WAL_MAGIC.len() && &bytes[0..8] != WAL_MAGIC {
            return Err(WalError::NotAWalSegment(path.to_path_buf()));
        }
        scan.torn = Some(TornTail {
            offset: 0,
            reason: format!("incomplete segment header ({} bytes)", bytes.len()),
        });
        return Ok(scan);
    }
    if &bytes[0..8] != WAL_MAGIC {
        return Err(WalError::NotAWalSegment(path.to_path_buf()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let shard = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let index = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let expected = segment_identity(path);
    if expected != Some((shard, index)) {
        let expected = expected
            .map_or("a shard-NNNN/seg-<index>.wal path".to_string(), |(s, i)| {
                format!("shard {s} segment {i}")
            });
        return Err(WalError::Corrupt {
            segment: path.to_path_buf(),
            offset: 12,
            reason: format!("header claims shard {shard} segment {index}, expected {expected}"),
        });
    }

    let mut pos = WAL_HEADER_LEN;
    while pos < bytes.len() {
        match decode_frame(&bytes[pos..]) {
            Ok((record, len)) => {
                scan.records.push(record);
                pos += len;
            }
            Err(reason) => {
                scan.torn = Some(TornTail {
                    offset: pos as u64,
                    reason,
                });
                break;
            }
        }
    }
    scan.valid_bytes = pos as u64;
    Ok(scan)
}

/// Lists a shard directory's segment files as `(index, path)`, sorted by
/// index. Files not matching the `seg-*.wal` pattern are ignored.
fn list_segments(shard_dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(shard_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(index) = name.to_str().and_then(index_of_segment_name) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(index, _)| *index);
    Ok(segments)
}

/// One shard's log as it sits on disk.
pub(crate) struct ShardLog {
    /// Shard index (from the directory name).
    pub(crate) shard: u32,
    /// The shard directory.
    pub(crate) dir: PathBuf,
    /// Its segment files as `(index, path)`, in index order. Callers read
    /// them with [`scan_segment`] in this order and stop where they must, so
    /// nothing past an error is read.
    pub(crate) segments: Vec<(u64, PathBuf)>,
}

/// The one walk over a WAL directory, shared by recovery, [`inspect_wal`]
/// and [`truncate_wal`]: every `shard-NNNN` directory in shard order, each
/// with its segment files.
pub(crate) fn walk_wal(dir: &Path) -> Result<Vec<ShardLog>, WalError> {
    let mut shards = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        if let Some(shard) = entry.file_name().to_str().and_then(shard_of_dir_name) {
            let dir = entry.path();
            let segments = list_segments(&dir)?;
            shards.push(ShardLog {
                shard,
                dir,
                segments,
            });
        }
    }
    shards.sort_unstable_by_key(|log| log.shard);
    Ok(shards)
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Live WAL counters for one shard (summed into the service's `stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalShardStats {
    /// Live segment files (sealed + the active one).
    pub segments: u64,
    /// Frames across live segments.
    pub frames: u64,
    /// Bytes across live segments (headers included).
    pub bytes: u64,
}

/// The append side of one shard's WAL: owns the active segment file and the
/// fsync bookkeeping. All methods take `&mut self` — in the sharded service
/// the writer lives under the shard's write lock, so the WAL append and the
/// store append are one mutation.
#[derive(Debug)]
pub struct ShardWal {
    dir: PathBuf,
    shard: u32,
    fsync: FsyncPolicy,
    segment_max_bytes: u64,
    io: Arc<dyn StorageIo>,
    file: File,
    active_index: u64,
    active_bytes: u64,
    active_frames: u64,
    sealed_bytes: u64,
    sealed_frames: u64,
    sealed_segments: u64,
    unsynced: u64,
    /// Set (with the rendered cause) by the first failed write or fsync:
    /// from then on every mutation returns [`WalError::Poisoned`]. Sticky by
    /// design — after a failed `sync_data` the kernel may have *dropped* the
    /// dirty pages, so a retried fsync that succeeds proves nothing about
    /// the frames the failed one covered; an un-synced frame must never
    /// become ackable through silent retry.
    poisoned: Option<String>,
}

impl ShardWal {
    /// Starts shard `shard`'s log under `config.dir`: creates the shard
    /// directory and its first segment, and returns the writer with that
    /// segment's path. A log is never reopened — a boot recovers the old one
    /// read-only and [`crate::recovery::initialize_wal`] clears the shard
    /// directories first — so a directory that already holds segments is
    /// refused with [`WalError::LogExists`], and nothing in it is read or
    /// changed.
    pub fn open(config: &Durability, shard: u32) -> Result<(Self, PathBuf), WalError> {
        let dir = shard_dir(&config.dir, shard);
        std::fs::create_dir_all(&dir)?;
        if !list_segments(&dir)?.is_empty() {
            return Err(WalError::LogExists(dir));
        }
        let (file, path) = create_segment_io(&dir, shard, 0, config.io.as_ref())?;
        let wal = ShardWal {
            dir,
            shard,
            fsync: config.fsync,
            segment_max_bytes: config.segment_max_bytes,
            io: Arc::clone(&config.io),
            file,
            active_index: 0,
            active_bytes: WAL_HEADER_LEN as u64,
            active_frames: 0,
            sealed_bytes: 0,
            sealed_frames: 0,
            sealed_segments: 0,
            unsynced: 0,
            poisoned: None,
        };
        Ok((wal, path))
    }

    /// The shard this writer logs for.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The rendered cause when this writer is poisoned by an earlier write or
    /// fsync failure, `None` while it is healthy.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Returns [`WalError::Poisoned`] once the writer has seen a write/fsync
    /// failure; every mutating entry point calls this first.
    fn check_poisoned(&self) -> Result<(), WalError> {
        match &self.poisoned {
            Some(reason) => Err(WalError::Poisoned {
                shard: self.shard,
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Marks the writer poisoned and passes the original failure through. The
    /// *first* caller sees the real error; everyone after sees `Poisoned`.
    fn poison(&mut self, op: &str, err: WalError) -> WalError {
        if self.poisoned.is_none() {
            self.poisoned = Some(format!("{op} failed: {err}"));
        }
        err
    }

    /// Appends one record as a checksummed frame, rotating the segment first
    /// if it is full, then applies the fsync policy. The frame is written
    /// with one `write_all`; durability is governed by the policy. Any write
    /// or fsync failure poisons the writer (see [`WalError::Poisoned`]).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.check_poisoned()?;
        let frame = encode_frame(record)?;
        if self.active_frames > 0 && self.active_bytes + frame.len() as u64 > self.segment_max_bytes
        {
            self.seal()?;
        }
        if let Err(err) = self.io.write_all(&mut self.file, &frame) {
            // A short write may have left torn bytes the in-memory counters
            // do not cover; appending past them would bury this frame.
            return Err(self.poison("append write", WalError::Io(err)));
        }
        self.active_bytes += frame.len() as u64;
        self.active_frames += 1;
        self.unsynced += 1;
        let every = match self.fsync {
            FsyncPolicy::Always => 1,
            FsyncPolicy::EveryN(n) => n,
        };
        if self.unsynced >= every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces every appended frame to disk now, regardless of policy. A
    /// failed `fdatasync` poisons the writer permanently: the kernel may have
    /// dropped the dirty pages, so a *retried* fsync that succeeds proves
    /// nothing about the frames the failed one covered.
    fn sync(&mut self) -> Result<(), WalError> {
        self.check_poisoned()?;
        if self.unsynced > 0 {
            if let Err(err) = self.io.sync_data(&self.file) {
                return Err(self.poison("fsync", WalError::Io(err)));
            }
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Rotation: syncs and seals the active segment and opens the next one.
    /// Everything appended so far is now durable and immutable.
    fn seal(&mut self) -> Result<(), WalError> {
        self.check_poisoned()?;
        if let Err(err) = self.io.sync_data(&self.file) {
            return Err(self.poison("seal fsync", WalError::Io(err)));
        }
        self.unsynced = 0;
        self.sealed_bytes += self.active_bytes;
        self.sealed_frames += self.active_frames;
        self.sealed_segments += 1;
        let next = self.active_index + 1;
        let (file, _path) = match create_segment_io(&self.dir, self.shard, next, self.io.as_ref()) {
            Ok(created) => created,
            Err(err) => return Err(self.poison("seal rotation", err)),
        };
        self.file = file;
        self.active_index = next;
        self.active_bytes = WAL_HEADER_LEN as u64;
        self.active_frames = 0;
        Ok(())
    }

    /// Checkpoint trim: deletes every segment (their events are now covered
    /// by the checkpoint snapshot) and starts a fresh active segment. The new
    /// segment keeps the monotonic index sequence, so a stale pre-checkpoint
    /// segment can never alias a live one.
    pub fn reset(&mut self) -> Result<(), WalError> {
        self.check_poisoned()?;
        let next = self.active_index + 1;
        let (file, _path) = match create_segment_io(&self.dir, self.shard, next, self.io.as_ref()) {
            Ok(created) => created,
            Err(err) => return Err(self.poison("reset rotation", err)),
        };
        let segments = match list_segments(&self.dir) {
            Ok(segments) => segments,
            Err(err) => return Err(self.poison("reset trim scan", err)),
        };
        for (index, path) in segments {
            if index != next {
                // A stale segment the checkpoint already covers must not
                // outlive the trim: a failed delete poisons the writer so the
                // operator restarts (recovery skips the covered frames by id
                // and the boot replaces the log) instead of appending
                // alongside a segment recovery will rescan.
                if let Err(err) = self.io.remove_file(&path) {
                    return Err(self.poison("reset trim", WalError::Io(err)));
                }
            }
        }
        fsync_dir(&self.dir);
        self.file = file;
        self.active_index = next;
        self.active_bytes = WAL_HEADER_LEN as u64;
        self.active_frames = 0;
        self.sealed_bytes = 0;
        self.sealed_frames = 0;
        self.sealed_segments = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Live counters for `stats`.
    pub fn stats(&self) -> WalShardStats {
        WalShardStats {
            segments: self.sealed_segments + 1,
            frames: self.sealed_frames + self.active_frames,
            bytes: self.sealed_bytes + self.active_bytes,
        }
    }
}

fn create_segment_io(
    dir: &Path,
    shard: u32,
    index: u64,
    io: &dyn StorageIo,
) -> Result<(File, PathBuf), WalError> {
    let path = segment_path(dir, index);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)?;
    io.write_all(&mut file, &encode_segment_header(shard, index))?;
    io.sync_data(&file)?;
    fsync_dir(dir);
    Ok((file, path))
}

/// Best-effort directory fsync so renames/creates survive a power loss on
/// filesystems that need it; ignored where unsupported.
pub(crate) fn fsync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

// ---------------------------------------------------------------------------
// Maintenance: inspect / truncate
// ---------------------------------------------------------------------------

/// What `wal inspect` reports for one segment file (inspection describes
/// damage, it never fails on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInspection {
    /// The segment file.
    pub path: PathBuf,
    /// Segment index from the file name.
    pub index: u64,
    /// Valid frames.
    pub frames: u64,
    /// Bytes of valid prefix.
    pub valid_bytes: u64,
    /// Actual file length.
    pub file_len: u64,
    /// Event-id range of the valid frames, as `(first, last)`.
    pub id_range: Option<(u64, u64)>,
    /// Damage description when the file has an invalid tail.
    pub damage: Option<String>,
}

/// What `wal inspect` reports for one shard directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInspection {
    /// Shard index (from the directory name).
    pub shard: u32,
    /// The shard directory.
    pub dir: PathBuf,
    /// Its segments, in index order.
    pub segments: Vec<SegmentInspection>,
}

/// What `wal inspect` reports for a whole WAL directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalInspection {
    /// The inspected directory.
    pub dir: PathBuf,
    /// The checkpoint snapshot: `Ok((bytes, events, next_event_id))` when it
    /// loads, `Err(message)` when present but unreadable, `None` when absent.
    pub checkpoint: Option<Result<(u64, usize, u64), String>>,
    /// Per-shard segment listings.
    pub shards: Vec<ShardInspection>,
}

/// Scans a WAL directory without modifying it: checkpoint, shards, segments,
/// frame counts, id ranges, and any damage (torn tails, corrupt frames).
pub fn inspect_wal(dir: &Path) -> Result<WalInspection, WalError> {
    let checkpoint = {
        let path = checkpoint_path(dir);
        if path.exists() {
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            Some(
                crate::EventStore::load_snapshot(&path)
                    .map(|store| (bytes, store.num_events(), store.next_event_id()))
                    .map_err(|e| e.to_string()),
            )
        } else {
            None
        }
    };
    let shards = walk_wal(dir)?
        .into_iter()
        .map(|log| ShardInspection {
            shard: log.shard,
            dir: log.dir,
            segments: log
                .segments
                .into_iter()
                .map(|(index, path)| match scan_segment(&path, &RealIo) {
                    Ok(scan) => SegmentInspection {
                        path,
                        index,
                        frames: scan.records.len() as u64,
                        valid_bytes: scan.valid_bytes,
                        file_len: scan.file_len,
                        id_range: match (scan.records.first(), scan.records.last()) {
                            (Some(first), Some(last)) => Some((first.id, last.id)),
                            _ => None,
                        },
                        damage: scan
                            .torn
                            .map(|torn| format!("at byte {}: {}", torn.offset, torn.reason)),
                    },
                    // Foreign files / unsupported versions / misnamed
                    // segments: report, don't fail.
                    Err(e) => SegmentInspection {
                        file_len: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                        path,
                        index,
                        frames: 0,
                        valid_bytes: 0,
                        id_range: None,
                        damage: Some(e.to_string()),
                    },
                })
                .collect(),
        })
        .collect();
    Ok(WalInspection {
        dir: dir.to_path_buf(),
        checkpoint,
        shards,
    })
}

/// What `wal truncate` did to one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTruncation {
    /// Shard index.
    pub shard: u32,
    /// The first damaged segment, truncated in place to its valid prefix
    /// (`None` when the shard was clean).
    pub truncated: Option<PathBuf>,
    /// Bytes cut from the truncated segment.
    pub bytes_cut: u64,
    /// Later segments deleted outright (everything after the damage).
    pub segments_removed: u64,
    /// Valid frames lost inside the removed segments (frames after the
    /// damage point are unrecoverable by definition).
    pub frames_removed: u64,
}

/// Repairs a damaged WAL in place: for each shard, everything from the first
/// invalid frame onward is discarded — the damaged segment is truncated to
/// its valid prefix (or removed, when it is not a readable segment of its
/// shard) and all later segments are deleted. Recovery tolerates damage in a
/// shard's *last* segment on its own; use this when it refuses with
/// [`WalError::Corrupt`].
pub fn truncate_wal(dir: &Path) -> Result<Vec<ShardTruncation>, WalError> {
    let mut report = Vec::new();
    for log in walk_wal(dir)? {
        let mut truncation = ShardTruncation {
            shard: log.shard,
            truncated: None,
            bytes_cut: 0,
            segments_removed: 0,
            frames_removed: 0,
        };
        let mut damaged = false;
        for (_, path) in &log.segments {
            let scan = scan_segment(path, &RealIo);
            if damaged {
                if let Ok(scan) = scan {
                    truncation.frames_removed += scan.records.len() as u64;
                }
                std::fs::remove_file(path)?;
                truncation.segments_removed += 1;
                continue;
            }
            match scan {
                // Foreign / unreadable / misnamed file in the sequence: cut here.
                Err(_) => {
                    damaged = true;
                    truncation.truncated = Some(path.clone());
                    truncation.bytes_cut += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                    std::fs::remove_file(path)?;
                    truncation.segments_removed += 1;
                }
                Ok(scan) if scan.torn.is_some() => {
                    damaged = true;
                    truncation.truncated = Some(path.clone());
                    truncation.bytes_cut += scan.file_len - scan.valid_bytes;
                    let file = OpenOptions::new().write(true).open(path)?;
                    RealIo.set_len(&file, scan.valid_bytes)?;
                    RealIo.sync_data(&file)?;
                }
                Ok(_) => {}
            }
        }
        fsync_dir(&log.dir);
        report.push(truncation);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{initialize_wal, recover_store, RecoveryReport};
    use crate::EventStore;
    use locater_space::{AccessPointId, Space, SpaceBuilder};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "locater-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(id: u64) -> WalRecord {
        WalRecord {
            id,
            t: 1_000 + id as i64,
            ap: (id % 3) as u32,
            mac: format!("aa:bb:cc:dd:ee:{id:02x}"),
            // Every third record carries an idempotency token, so round-trip
            // tests cover both payload shapes.
            request_id: id.is_multiple_of(3).then_some(0x1000 + id),
        }
    }

    /// A space knowing every access point [`record`] names.
    fn space() -> Space {
        SpaceBuilder::new("wal-test")
            .add_access_point("wap0", &["r0"])
            .add_access_point("wap1", &["r1"])
            .add_access_point("wap2", &["r2"])
            .build()
            .unwrap()
    }

    /// Reads `dir` back the way a boot does: recovery over an empty store.
    fn recover(dir: &Path) -> (EventStore, RecoveryReport) {
        recover_store(dir, EventStore::new(space())).unwrap()
    }

    /// The store `records` replay into, each with its id pinned.
    fn replayed(records: &[WalRecord]) -> EventStore {
        let mut store = EventStore::new(space());
        for r in records {
            store.set_next_event_id(r.id);
            store.ingest(&r.mac, r.t, AccessPointId::new(r.ap)).unwrap();
        }
        store
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact frame bytes the writer emits for one untagged and one
    /// tagged record: `len u32, fnv64, id u64, t i64, ap u32, mac len u16,
    /// mac[, request id u64]`, all little-endian.
    #[test]
    fn frames_emit_the_pinned_bytes() {
        let untagged = WalRecord {
            id: 0x0102,
            t: 1_600_000_000,
            ap: 3,
            mac: "aa:bb:cc:dd:ee:01".into(),
            request_id: None,
        };
        assert_eq!(
            hex(&encode_frame(&untagged).unwrap()),
            "27000000\
             2039f4851ec1e1ce\
             0201000000000000\
             00105e5f00000000\
             03000000\
             1100\
             61613a62623a63633a64643a65653a3031"
        );
        let tagged = WalRecord {
            request_id: Some(0x0a0b_0c0d),
            ..untagged
        };
        assert_eq!(
            hex(&encode_frame(&tagged).unwrap()),
            "2f000000\
             5c7cbabfc4e25f6b\
             0201000000000000\
             00105e5f00000000\
             03000000\
             1100\
             61613a62623a63633a64643a65653a3031\
             0d0c0b0a00000000"
        );
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(
            FsyncPolicy::parse("every=8").unwrap(),
            FsyncPolicy::EveryN(8)
        );
        for bad in ["", "sometimes", "every=", "every=0", "interval=200"] {
            assert!(FsyncPolicy::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(FsyncPolicy::parse("interval=200")
            .unwrap_err()
            .contains("(always | every=N)"));
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
        assert_eq!(FsyncPolicy::EveryN(4).to_string(), "every=4");
    }

    #[test]
    fn append_and_rescan_roundtrips() {
        let dir = temp_dir("roundtrip");
        let config = Durability::new(&dir);
        let (mut wal, path) = ShardWal::open(&config, 0).unwrap();
        assert_eq!(path, segment_path(&shard_dir(&dir, 0), 0));
        let records: Vec<WalRecord> = (0..10).map(record).collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.frames, 10);
        assert_eq!(stats.segments, 1);
        drop(wal);
        // Recovery reads the same records back, in order.
        let (store, report) = recover(&dir);
        assert_eq!(report.replayed, 10);
        assert_eq!(store, replayed(&records));
        // Restart: the checkpoint holds them and the new log starts empty.
        let wal = initialize_wal(&config, &store, 1).unwrap().remove(0);
        assert_eq!(wal.stats().frames, 0);
        let (again, report) = recover(&dir);
        assert_eq!((report.base_events, report.replayed), (10, 0));
        assert_eq!(again, store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_and_survives_reopen() {
        let dir = temp_dir("rotation");
        // Tiny segments: every frame rotates.
        let config = Durability::new(&dir).with_segment_max_bytes(64);
        let (mut wal, _) = ShardWal::open(&config, 2).unwrap();
        let records: Vec<WalRecord> = (0..5).map(record).collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        let stats = wal.stats();
        assert!(stats.segments > 1, "rotation must have happened");
        drop(wal);
        let (store, report) = recover(&dir);
        assert_eq!(report.segments, stats.segments);
        assert_eq!(report.replayed, stats.frames);
        assert_eq!(store, replayed(&records));
        // Restart with one shard: shard 2's log is replaced by shard 0's.
        let mut wal = initialize_wal(&config, &store, 1).unwrap().remove(0);
        assert_eq!(wal.shard(), 0);
        wal.append(&record(5)).unwrap();
        drop(wal);
        let (store, report) = recover(&dir);
        assert_eq!((report.shards, report.replayed), (1, 1));
        assert_eq!(store, replayed(&(0..6).map(record).collect::<Vec<_>>()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_byte_boundary() {
        let dir = temp_dir("torn");
        let config = Durability::new(&dir);
        let (mut wal, path) = ShardWal::open(&config, 0).unwrap();
        for i in 0..3 {
            wal.append(&record(i)).unwrap();
        }
        let before_last = std::fs::metadata(&path).unwrap().len();
        wal.append(&record(3)).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let durable: Vec<WalRecord> = (0..3).map(record).collect();
        // Cut the file at every byte boundary inside the last frame: the
        // first three records always survive, the fourth only when complete.
        for cut in before_last..full.len() as u64 {
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::create_dir_all(shard_dir(&dir, 0)).unwrap();
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let (store, report) = recover(&dir);
            assert_eq!(report.replayed, 3, "cut at {cut}");
            assert_eq!(store, replayed(&durable), "cut at {cut}");
            let torn = if cut == before_last { 0 } else { 1 };
            assert_eq!(report.torn.len(), torn, "cut at {cut}");
            // Restart: the boot replaces the torn log and the lost record
            // can be appended again.
            let mut wal = initialize_wal(&config, &store, 1).unwrap().remove(0);
            wal.append(&record(3)).unwrap();
            drop(wal);
            let (store, report) = recover(&dir);
            assert!(report.torn.is_empty(), "cut at {cut}");
            assert_eq!(report.replayed, 1, "cut at {cut}");
            assert_eq!(store, replayed(&(0..4).map(record).collect::<Vec<_>>()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_middle_segment_is_a_typed_error() {
        let dir = temp_dir("corrupt-middle");
        let config = Durability::new(&dir).with_segment_max_bytes(64);
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        for i in 0..5 {
            wal.append(&record(i)).unwrap();
        }
        assert!(wal.stats().segments >= 3);
        drop(wal);
        // Flip one payload byte in the FIRST segment: not the tail, so
        // recovery must refuse with a positioned Corrupt error.
        let first = list_segments(&shard_dir(&dir, 0)).unwrap()[0].1.clone();
        let mut bytes = std::fs::read(&first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&first, &bytes).unwrap();
        let err = recover_store(&dir, EventStore::new(space())).unwrap_err();
        match &err {
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => {
                assert_eq!(segment, &first);
                assert_eq!(*offset, WAL_HEADER_LEN as u64, "the first frame");
                assert!(reason.starts_with("frame checksum mismatch"), "{reason}");
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(err.to_string().contains("wal truncate"));
        // wal truncate repairs it: damage point onward is discarded.
        let report = truncate_wal(&dir).unwrap();
        assert_eq!(report.len(), 1);
        assert!(report[0].truncated.is_some());
        assert!(report[0].segments_removed > 0);
        let (_, recovered) = recover(&dir);
        assert!(recovered.replayed < 5, "frames after the damage are gone");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_and_versions_are_typed_errors() {
        let dir = temp_dir("foreign");
        let seg = dir.join("seg-0000000000000000.wal");
        std::fs::write(&seg, b"definitely not a wal segment").unwrap();
        assert!(matches!(
            scan_segment(&seg, &RealIo),
            Err(WalError::NotAWalSegment(_))
        ));
        let mut header = encode_segment_header(0, 0).to_vec();
        header[8..12].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&seg, &header).unwrap();
        assert!(matches!(
            scan_segment(&seg, &RealIo),
            Err(WalError::UnsupportedVersion { found: 9, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_and_reset_manage_segments() {
        let dir = temp_dir("seal-reset");
        let config = Durability::new(&dir);
        let (mut wal, _) = ShardWal::open(&config, 1).unwrap();
        wal.append(&record(0)).unwrap();
        wal.seal().unwrap();
        wal.append(&record(1)).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.frames, 2);
        wal.reset().unwrap();
        let stats = wal.stats();
        assert_eq!((stats.segments, stats.frames), (1, 0));
        // Indices stay monotonic across the reset.
        let segments = list_segments(&shard_dir(&dir, 1)).unwrap();
        assert_eq!(segments.len(), 1);
        assert!(segments[0].0 >= 2);
        drop(wal);
        let (_, report) = recover(&dir);
        assert_eq!(report.segments, 1);
        assert_eq!(report.replayed, 0, "reset discarded all records");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_reset_trim_poisons_the_writer() {
        use crate::io::{FaultIo, FaultKind, FaultPlan};
        let dir = temp_dir("poison-reset");
        // The only remove ops are reset's stale-segment deletions; fault the
        // very first one.
        let plan = FaultPlan {
            removes: 1,
            horizon: 1,
            ..FaultPlan::quiet(3)
        };
        let io = std::sync::Arc::new(FaultIo::new(plan));
        let config = Durability::new(&dir).with_io(io.clone());
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        wal.append(&record(0)).unwrap();
        let err = wal.reset().unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "unexpected error: {err}");
        assert!(wal.poisoned().unwrap().contains("reset trim"));
        assert!(matches!(
            wal.append(&record(1)).unwrap_err(),
            WalError::Poisoned { shard: 0, .. }
        ));
        assert_eq!(io.fired(), vec![(FaultKind::RemoveFailure, 0)]);
        // The stale segment survived the failed delete; recovery replays its
        // record (replay is idempotent, so nothing is lost or doubled).
        drop(wal);
        let (store, report) = recover(&dir);
        assert_eq!(report.replayed, 1);
        // The restart replaces the log with one fresh segment.
        let clean = Durability::new(&dir);
        let mut wal = initialize_wal(&clean, &store, 1).unwrap().remove(0);
        assert_eq!(list_segments(&shard_dir(&dir, 0)).unwrap().len(), 1);
        wal.reset().unwrap();
        assert_eq!(list_segments(&shard_dir(&dir, 0)).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_identifiers_fail_at_append_time() {
        let err = encode_record(&WalRecord {
            id: 0,
            t: 0,
            ap: 0,
            mac: "x".repeat(70_000),
            request_id: None,
        })
        .unwrap_err();
        assert!(matches!(err, WalError::Unencodable(_)));
    }

    #[test]
    fn failed_fsync_poisons_the_writer_stickily() {
        use crate::io::{FaultIo, FaultKind, FaultPlan};
        let dir = temp_dir("poison-sync");
        // Opening a fresh log consumes sync op 0 (the segment header sync);
        // the first append's fsync is sync op 1 — schedule the fault there.
        let plan = (0..500)
            .map(|seed| FaultPlan {
                seed,
                writes: 0,
                syncs: 1,
                reads: 0,
                renames: 0,
                removes: 0,
                horizon: 2,
            })
            .find(|&p| FaultIo::new(p).schedule() == vec![(FaultKind::SyncFailure, 1)])
            .expect("some seed schedules the sync fault at op 1");
        let io = std::sync::Arc::new(FaultIo::new(plan));
        let config = Durability::new(&dir).with_io(io.clone());
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        assert!(wal.poisoned().is_none());
        // First failure surfaces the real I/O error and poisons the writer.
        let err = wal.append(&record(0)).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "unexpected error: {err}");
        assert!(wal.poisoned().unwrap().contains("fsync"));
        // Every subsequent mutation is refused — no silent retry-fsync.
        for _ in 0..2 {
            let err = wal.append(&record(1)).unwrap_err();
            assert!(matches!(err, WalError::Poisoned { shard: 0, .. }));
        }
        assert!(matches!(wal.sync().unwrap_err(), WalError::Poisoned { .. }));
        assert!(matches!(wal.seal().unwrap_err(), WalError::Poisoned { .. }));
        assert!(matches!(
            wal.reset().unwrap_err(),
            WalError::Poisoned { .. }
        ));
        assert_eq!(io.fired(), vec![(FaultKind::SyncFailure, 1)]);
        drop(wal);
        // Restarting recovers the durable prefix and yields a healthy writer.
        let (store, _) = recover(&dir);
        let clean = Durability::new(&dir);
        let mut wal = initialize_wal(&clean, &store, 1).unwrap().remove(0);
        assert!(wal.poisoned().is_none());
        wal.append(&record(2)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_poisons_and_reopen_truncates_the_torn_frame() {
        use crate::io::{FaultIo, FaultKind, FaultPlan};
        let dir = temp_dir("poison-write");
        // Write op 0 is the segment header; the first frame is write op 1.
        let plan = (0..500)
            .map(|seed| FaultPlan {
                seed,
                writes: 1,
                syncs: 0,
                reads: 0,
                renames: 0,
                removes: 0,
                horizon: 2,
            })
            .find(|&p| FaultIo::new(p).schedule() == vec![(FaultKind::ShortWrite, 1)])
            .expect("some seed schedules a short write at op 1");
        let config = Durability::new(&dir).with_io(std::sync::Arc::new(FaultIo::new(plan)));
        let (mut wal, seg) = ShardWal::open(&config, 0).unwrap();
        let err = wal.append(&record(0)).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "unexpected error: {err}");
        assert!(matches!(
            wal.append(&record(1)).unwrap_err(),
            WalError::Poisoned { .. }
        ));
        drop(wal);
        // The torn half-frame is on disk; recovery stops at it and recovers
        // exactly the acked (empty) prefix.
        assert!(std::fs::metadata(&seg).unwrap().len() > WAL_HEADER_LEN as u64);
        let (store, report) = recover(&dir);
        assert_eq!(report.replayed, 0, "the torn frame was never acked");
        assert_eq!(report.torn, vec![(seg, WAL_HEADER_LEN as u64)]);
        // The restart replaces the torn log; the record can be logged again.
        let clean = Durability::new(&dir);
        let mut wal = initialize_wal(&clean, &store, 1).unwrap().remove(0);
        wal.append(&record(0)).unwrap();
        drop(wal);
        let (_, report) = recover(&dir);
        assert!(report.torn.is_empty());
        assert_eq!(report.replayed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_a_directory_that_already_holds_a_log() {
        let dir = temp_dir("open-existing");
        let config = Durability::new(&dir).with_segment_max_bytes(64);
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        for i in 0..3 {
            wal.append(&record(i)).unwrap();
        }
        drop(wal);
        let shard = shard_dir(&dir, 0);
        let files = || {
            list_segments(&shard)
                .unwrap()
                .into_iter()
                .map(|(_, path)| (std::fs::read(&path).unwrap(), path))
                .collect::<Vec<_>>()
        };
        let before = files();
        assert_eq!(before.len(), 3);
        let err = ShardWal::open(&config, 0).unwrap_err();
        assert!(
            matches!(&err, WalError::LogExists(d) if *d == shard),
            "unexpected error: {err}"
        );
        assert_eq!(files(), before, "the refused log is left byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_reports_shards_segments_and_damage() {
        let dir = temp_dir("inspect");
        let config = Durability::new(&dir);
        let (mut wal, seg) = ShardWal::open(&config, 0).unwrap();
        for i in 0..4 {
            wal.append(&record(i)).unwrap();
        }
        drop(wal);
        // Tear the tail by cutting three bytes off.
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let inspection = inspect_wal(&dir).unwrap();
        assert!(inspection.checkpoint.is_none());
        assert_eq!(inspection.shards.len(), 1);
        let segment = &inspection.shards[0].segments[0];
        assert_eq!(segment.frames, 3);
        assert_eq!(segment.id_range, Some((0, 2)));
        assert!(segment.damage.is_some());
        assert!(segment.valid_bytes < segment.file_len);
        std::fs::remove_dir_all(&dir).ok();
    }
}
