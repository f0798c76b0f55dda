//! Versioned binary snapshot persistence for [`EventStore`].
//!
//! A snapshot captures the *entire* store — space metadata, device table,
//! per-device event runs and event-id counter — in a compact binary layout,
//! so a service restart costs one sequential file read instead of replaying
//! (re-parsing, re-interning, re-sorting) the whole CSV log. The wire layout
//! of version 5:
//!
//! ```text
//! magic      8 B   "LOCATRSN"
//! version    u32   5
//! checksum   u64   FNV-1a 64 over the payload bytes
//! length     u64   payload byte count
//! payload:
//!   space     u32 len + Space JSON (UTF-8; full id-preserving form)
//!   next id   u64   event-id counter
//!   devices   u32 count, then per device: mac (u16 len + UTF-8), δ (i64)
//!   runs      per device: u32 event count, then the events sorted by
//!             (t, id), each as (id u64, t i64, ap u32)
//! ```
//!
//! All integers are little-endian. Each run is the device's timeline array in
//! order, and the loader reads it into an array of exactly that length, so
//! the round-trip is bit-identical, event ids and epoch-relevant ordering
//! included. The record fields are wider than the 12 bytes a
//! [`StoredEvent`] keeps, so the loader converts at the boundary: a `t`
//! outside `[0, 2³²)`, an id at or above 2⁴⁸ (or an id counter past it) and
//! an `ap` above `u16::MAX` are [`StoreError::Corrupt`], as is a run out of
//! `(t, id)` order and a device δ outside `[1, 2³²)` (the range
//! [`EventStore::set_delta`] clamps to); a run longer than the bytes left is
//! [`StoreError::Truncated`] before anything is allocated for it.
//! The space section is the full [`Space`] form, which round-trips every id
//! verbatim, so `load(save(store))` equals the original store bit-for-bit.
//!
//! Nothing derived from the event runs is persisted: the loader rebuilds the
//! global timeline from them. The δ estimator's settings are constants of
//! the build ([`locater_events::validity`]), so no file carries them.
//!
//! The reader accepts exactly what the writer produces: version 5. A format
//! bump replaces the reader rather than adding one beside it; `snapshot save`
//! is the export path, so a store outlives a bump by being re-saved with the
//! build that still reads it.
//!
//! Decoding failures surface as typed [`StoreError`]s ([`StoreError::NotASnapshot`],
//! [`StoreError::UnsupportedVersion`], [`StoreError::Truncated`],
//! [`StoreError::ChecksumMismatch`], [`StoreError::Corrupt`]) — never panics.

use crate::error::StoreError;
use crate::store::EventStore;
use locater_events::{
    Device, DeviceId, EventId, EventSeq, MacAddress, StoredEvent, EVENT_ID_LIMIT, EVENT_TIME_LIMIT,
};
use locater_space::{AccessPointId, Space};
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;

/// Magic bytes every snapshot starts with.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"LOCATRSN";
/// The snapshot format version this build writes, and the only one it reads.
pub(crate) const SNAPSHOT_VERSION: u32 = 5;

/// Magic (8) + version (4) + payload checksum (8) + payload length (8).
const HEADER_LEN: usize = 28;

/// One event record: id (8) + t (8) + ap (4).
const EVENT_LEN: usize = 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a 64 continued over `bytes` from the state `hash`.
fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64 as a map hasher: a few cycles on keys as short as a MAC or
/// an access point name, where SipHash costs tens of nanoseconds. It has no
/// defence against chosen collisions, so only the bulk loaders of local
/// input key maps with it; nothing the wire feeds does.
pub(crate) struct Fnv1aHasher(u64);

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_from(self.0, bytes);
    }
}

/// Builds [`Fnv1aHasher`]s for a `HashMap`.
pub(crate) type Fnv1aBuild = BuildHasherDefault<Fnv1aHasher>;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The parts of a store a snapshot is a pure function of, minus the event
/// runs: what [`encode_snapshot`] needs besides one event run per device.
/// A whole store, a partitioned deployment ([`crate::ShardedRead`]) and a
/// compaction's evicted runs all encode through it, so the three files are
/// the same format by construction.
pub(crate) struct SnapshotParts<'a> {
    pub space: &'a Space,
    pub next_event_id: u64,
    pub devices: &'a [Device],
}

/// Encodes a snapshot byte buffer (header + checksummed payload) from the
/// store-wide parts and each device's time-sorted event run, asked for in
/// device order.
pub(crate) fn encode_snapshot<'a>(
    parts: &SnapshotParts<'_>,
    events_of: impl Fn(DeviceId) -> &'a [StoredEvent],
) -> Result<Vec<u8>, StoreError> {
    let devices = parts.devices;
    let num_events: usize = devices
        .iter()
        .map(|device| events_of(device.id).len())
        .sum();
    let mut out = Vec::with_capacity(HEADER_LEN + 64 + num_events * EVENT_LEN);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    // Checksum and length of the payload: filled in once it is written.
    out.extend_from_slice(&[0; 16]);

    // The full id-preserving form, not `SpaceMetadata`: event records below
    // reference access points by raw id, so the space section must restore
    // the exact same id assignment on load.
    let space_json = parts
        .space
        .to_json()
        .map_err(|e| StoreError::Space(e.to_string()))?;
    put_u32(&mut out, space_json.len() as u32);
    out.extend_from_slice(space_json.as_bytes());

    put_u64(&mut out, parts.next_event_id);

    put_u32(&mut out, devices.len() as u32);
    for device in devices {
        let mac = device.mac.as_str().as_bytes();
        // The length field is a u16; an oversized identifier must fail loudly
        // at write time, not truncate into an undecodable-but-checksummed file.
        let mac_len = u16::try_from(mac.len()).map_err(|_| {
            StoreError::Unencodable(format!(
                "device {} identifier is {} bytes (format limit {})",
                device.id,
                mac.len(),
                u16::MAX
            ))
        })?;
        put_u16(&mut out, mac_len);
        out.extend_from_slice(mac);
        put_i64(&mut out, device.delta);
    }
    for device in devices {
        let events = events_of(device.id);
        put_u32(&mut out, events.len() as u32);
        for event in events {
            put_u64(&mut out, event.id().0);
            put_i64(&mut out, event.t());
            put_u32(&mut out, event.ap().raw());
        }
    }

    let (header, payload) = out.split_at_mut(HEADER_LEN);
    header[12..20].copy_from_slice(&fnv1a(payload).to_le_bytes());
    header[20..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        // Checked: a crafted length field near usize::MAX must surface as a
        // typed error, not an addition overflow / inverted-range panic.
        if n > self.bytes.len() - self.pos {
            return Err(StoreError::Truncated {
                needed: self.pos.saturating_add(n),
                available: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self, len: usize) -> Result<&'a str, StoreError> {
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| StoreError::Corrupt("non-UTF-8 string".to_string()))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_payload(payload: &[u8]) -> Result<EventStore, StoreError> {
    let mut d = Decoder::new(payload);

    let space_len = d.u32()? as usize;
    let space =
        Space::from_json(d.str(space_len)?).map_err(|e| StoreError::Space(e.to_string()))?;

    let next_event_id = d.u64()?;
    if next_event_id > EVENT_ID_LIMIT {
        return Err(StoreError::Corrupt(format!(
            "event-id counter {next_event_id} past the id limit {EVENT_ID_LIMIT}"
        )));
    }

    let device_count = d.u32()? as usize;
    let mut devices = Vec::with_capacity(device_count.min(1 << 20));
    for idx in 0..device_count {
        let mac_len = d.u16()? as usize;
        let mac = MacAddress::parse(d.str(mac_len)?)
            .map_err(|e| StoreError::Corrupt(format!("device {idx}: {e}")))?;
        let delta = d.i64()?;
        if !(1..EVENT_TIME_LIMIT).contains(&delta) {
            return Err(StoreError::Corrupt(format!(
                "device {idx}: validity period {delta} outside [1, {EVENT_TIME_LIMIT})"
            )));
        }
        devices.push(Device::new(DeviceId::new(idx as u32), mac, delta));
    }

    let mut timelines = Vec::with_capacity(device_count.min(1 << 20));
    for idx in 0..device_count {
        let count = d.u32()? as usize;
        // Taking the run's bytes first bounds the allocation below by the
        // payload actually present.
        let mut run = Decoder::new(d.take(count.saturating_mul(EVENT_LEN))?);
        let mut events = EventSeq::with_capacity(count);
        for _ in 0..count {
            let event = StoredEvent::try_new(
                EventId::new(run.u64()?),
                run.i64()?,
                AccessPointId::new(run.u32()?),
            )
            .map_err(|err| StoreError::Corrupt(format!("device {idx}: {err}")))?;
            if events
                .last()
                .is_some_and(|last| (last.t(), last.id()) >= (event.t(), event.id()))
            {
                return Err(StoreError::Corrupt(format!(
                    "device {idx}: event {} out of (t, id) order",
                    event.id()
                )));
            }
            events.push(event);
        }
        timelines.push(events);
    }
    if !d.done() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after payload",
            payload.len() - d.pos
        )));
    }
    EventStore::from_snapshot_parts(space, next_event_id, devices, timelines)
}

// ---------------------------------------------------------------------------
// Public surface on EventStore
// ---------------------------------------------------------------------------

impl EventStore {
    /// Encodes the store as a snapshot byte buffer (header + checksummed
    /// payload).
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>, StoreError> {
        encode_snapshot(&self.snapshot_parts(), |device| {
            self.timeline_of(device).events()
        })
    }

    /// Decodes a snapshot produced by [`EventStore::to_snapshot_bytes`]; any
    /// version other than `SNAPSHOT_VERSION` is
    /// [`StoreError::UnsupportedVersion`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut d = Decoder::new(bytes);
        let magic = d.take(8).map_err(|_| StoreError::NotASnapshot)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(StoreError::NotASnapshot);
        }
        let version = d.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let expected = d.u64()?;
        let payload_len = d.u64()? as usize;
        let payload = d.take(payload_len)?;
        let actual = fnv1a(payload);
        if actual != expected {
            return Err(StoreError::ChecksumMismatch { expected, actual });
        }
        decode_payload(payload)
    }

    /// Saves the store as a snapshot file.
    ///
    /// The write is atomic: the bytes go to a temporary file in the same
    /// directory which is renamed over `path` only after a successful
    /// `fsync`, so a crash mid-save never destroys an existing good snapshot.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        write_atomic(path.as_ref(), &self.to_snapshot_bytes()?)
    }

    /// Loads a store from a snapshot file.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        Self::from_snapshot_bytes(&bytes)
    }
}

/// Atomically replaces `path` with `bytes`: writes a temporary file in the
/// same directory, fsyncs it, and renames it into place — so a crash at any
/// point leaves either the old file or the new one, never a truncated mix.
/// How [`EventStore::save_snapshot`] writes; public for callers that encode
/// under a lock and write outside it.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    write_atomic_io(path, bytes, &crate::io::RealIo)
}

/// [`write_atomic`] with an explicit storage backend so chaos tests can fault
/// the write, the fsync, or the commit rename. Whatever fails, `path` still
/// holds either the old bytes or the new ones — the temporary is cleaned up
/// and a stale one is ignored by every reader (exact-name lookups only).
pub(crate) fn write_atomic_io(
    path: &Path,
    bytes: &[u8],
    io: &dyn crate::io::StorageIo,
) -> Result<(), StoreError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StoreError::Corrupt(format!("invalid snapshot path {}", path.display())))?;
    let tmp = match dir {
        Some(dir) => dir.join(format!(".{file_name}.tmp-{}", std::process::id())),
        None => std::path::PathBuf::from(format!(".{file_name}.tmp-{}", std::process::id())),
    };
    let write = (|| -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        io.write_all(&mut file, bytes)?;
        io.sync_all(&file)?;
        Ok(())
    })();
    if let Err(err) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(StoreError::Io(err));
    }
    if let Err(err) = io.rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(StoreError::Io(err));
    }
    // Persist the rename itself where the filesystem requires it.
    if let Some(dir) = dir {
        if let Ok(handle) = std::fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::SpaceBuilder;

    fn sample_store() -> EventStore {
        let space = SpaceBuilder::new("snap-test")
            .add_access_point("wap1", &["r1", "r2"])
            .add_access_point("wap2", &["r2", "r3"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        store.ingest_raw("aa:bb:cc:dd:ee:01", 100, "wap1").unwrap();
        store.ingest_raw("aa:bb:cc:dd:ee:02", 150, "wap2").unwrap();
        store
            .ingest_raw("aa:bb:cc:dd:ee:01", 2_500, "wap2")
            .unwrap();
        store.ingest_raw("aa:bb:cc:dd:ee:01", 900, "wap1").unwrap(); // out of order
        store.estimate_deltas();
        store
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let store = sample_store();
        let bytes = store.to_snapshot_bytes().unwrap();
        let back = EventStore::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back, store);
        // And the re-encoded snapshot is byte-identical too.
        assert_eq!(back.to_snapshot_bytes().unwrap(), bytes);
    }

    /// The writer's bytes for [`sample_store`] (out-of-order event included),
    /// pinned by length and FNV-1a 64: a reader change must not move them.
    #[test]
    fn encoder_emits_the_pinned_bytes() {
        let bytes = sample_store().to_snapshot_bytes().unwrap();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (699, 0xa202_9f48_bd74_dd42));
    }

    #[test]
    fn io_roundtrip_through_writer_and_file() {
        let store = sample_store();
        let path = std::env::temp_dir().join(format!("locater-snap-{}.bin", std::process::id()));
        store.save_snapshot(&path).unwrap();
        let back = EventStore::load_snapshot(&path).unwrap();
        assert_eq!(back, store);
        std::fs::remove_file(&path).ok();
    }

    fn frame(version: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&super::fnv1a(payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn out_of_range_space_ids_are_a_typed_error() {
        // A checksummed file whose space names a room the space does not
        // have: the space section is rejected, never indexed with.
        let current = sample_store().to_snapshot_bytes().unwrap();
        let payload = &current[28..];
        let space_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        let space_json = std::str::from_utf8(&payload[4..4 + space_len]).unwrap();
        assert!(space_json.contains(r#""rooms":[0,1]"#));
        let bad_json = space_json.replace(r#""rooms":[0,1]"#, r#""rooms":[0,99]"#);
        let mut bad = (bad_json.len() as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(bad_json.as_bytes());
        bad.extend_from_slice(&payload[4 + space_len..]);
        assert!(matches!(
            EventStore::from_snapshot_bytes(&frame(SNAPSHOT_VERSION, &bad)),
            Err(StoreError::Space(_))
        ));
    }

    #[test]
    fn wrong_magic_is_not_a_snapshot() {
        let mut bytes = sample_store().to_snapshot_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            EventStore::from_snapshot_bytes(&bytes),
            Err(StoreError::NotASnapshot)
        ));
        assert!(matches!(
            EventStore::from_snapshot_bytes(b"tiny"),
            Err(StoreError::NotASnapshot)
        ));
    }

    #[test]
    fn unsupported_version_is_reported() {
        // Versions 1 to 4 are formats earlier builds wrote; one build reads
        // one version.
        let mut bytes = sample_store().to_snapshot_bytes().unwrap();
        for version in [0u32, 1, 2, 3, 4, 99] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    EventStore::from_snapshot_bytes(&bytes),
                    Err(StoreError::UnsupportedVersion { found, supported: 5 }) if found == version
                ),
                "version {version}"
            );
        }
    }

    /// The payload of [`sample_store`] and the offset of its first device's
    /// run: device 0 holds three events, device 1 one, and the payload ends
    /// with them.
    fn payload_and_first_run() -> (Vec<u8>, usize) {
        let payload = sample_store().to_snapshot_bytes().unwrap()[HEADER_LEN..].to_vec();
        let first_run = payload.len() - (4 + EVENT_LEN) - (4 + 3 * EVENT_LEN);
        assert_eq!(payload[first_run..first_run + 4], 3u32.to_le_bytes());
        (payload, first_run)
    }

    #[test]
    fn an_event_count_past_the_payload_is_truncated_before_allocating() {
        let (mut payload, first_run) = payload_and_first_run();
        // Room for u32::MAX events would be ~100 GB: the decoder must refuse
        // from the byte count alone.
        for count in [5, u32::MAX] {
            payload[first_run..first_run + 4].copy_from_slice(&count.to_le_bytes());
            assert!(
                matches!(
                    EventStore::from_snapshot_bytes(&frame(SNAPSHOT_VERSION, &payload)),
                    Err(StoreError::Truncated { .. })
                ),
                "count {count}"
            );
        }
    }

    #[test]
    fn events_out_of_order_are_corrupt() {
        let (payload, first_run) = payload_and_first_run();
        let records = first_run + 4;
        // Swap the first two records (t = 100, then t = 900): out of time
        // order. A repeated record is out of (t, id) order too.
        let mut swapped = payload.clone();
        swapped[records..records + 2 * EVENT_LEN].rotate_left(EVENT_LEN);
        let mut repeated = payload.clone();
        repeated.copy_within(records..records + EVENT_LEN, records + EVENT_LEN);
        for bad in [swapped, repeated] {
            assert!(matches!(
                EventStore::from_snapshot_bytes(&frame(SNAPSHOT_VERSION, &bad)),
                Err(StoreError::Corrupt(_))
            ));
        }
        // The untouched payload still loads.
        assert!(EventStore::from_snapshot_bytes(&frame(SNAPSHOT_VERSION, &payload)).is_ok());
    }

    #[test]
    fn fields_a_stored_event_cannot_hold_are_corrupt() {
        let (payload, first_run) = payload_and_first_run();
        let record = first_run + 4;
        // Each field of the first record, then the event-id counter, set
        // just past what the 12-byte in-memory event keeps.
        let patch = |at: usize, bytes: &[u8]| {
            let mut bad = payload.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            EventStore::from_snapshot_bytes(&frame(SNAPSHOT_VERSION, &bad))
        };
        let space_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        let counter = 4 + space_len;
        assert_eq!(
            payload[counter..counter + 8],
            sample_store().next_event_id().to_le_bytes()
        );
        for (at, bytes, reason) in [
            (
                record + 8,
                (-1i64).to_le_bytes().to_vec(),
                "invalid timestamp: -1",
            ),
            (
                record + 8,
                (1i64 << 32).to_le_bytes().to_vec(),
                "invalid timestamp: 4294967296",
            ),
            (
                record + 8,
                i64::MAX.to_le_bytes().to_vec(),
                "invalid timestamp: 9223372036854775807",
            ),
            (
                record,
                (1u64 << 48).to_le_bytes().to_vec(),
                "event id out of range: 281474976710656",
            ),
            (
                record + 16,
                (1u32 << 16).to_le_bytes().to_vec(),
                "access point id out of range: 65536",
            ),
            (
                counter,
                ((1u64 << 48) + 1).to_le_bytes().to_vec(),
                "past the id limit",
            ),
        ] {
            match patch(at, &bytes) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains(reason), "{msg}"),
                other => panic!("{reason}: expected Corrupt, got {other:?}"),
            }
        }
        // The largest values that fit load and read back exactly.
        let mut edge = payload.clone();
        edge[record..record + 8].copy_from_slice(&((1u64 << 48) - 1).to_le_bytes());
        edge[counter..counter + 8].copy_from_slice(&(1u64 << 48).to_le_bytes());
        let store = EventStore::from_snapshot_bytes(&frame(SNAPSHOT_VERSION, &edge)).unwrap();
        let device = store.device_id("aa:bb:cc:dd:ee:01").unwrap();
        let first = store.timeline_of(device).events()[0];
        assert_eq!((first.id(), first.t()), (EventId::new((1 << 48) - 1), 100));
        assert_eq!(store.to_snapshot_bytes().unwrap()[HEADER_LEN..], edge[..]);
    }

    #[test]
    fn a_validity_period_out_of_range_is_corrupt() {
        let (payload, _) = payload_and_first_run();
        // The first device's δ follows its 17-byte identifier: counter (8),
        // device count (4), mac length (2), mac (17).
        let space_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        let delta_at = 4 + space_len + 8 + 4 + 2 + 17;
        let store = sample_store();
        let device = store.device_id("aa:bb:cc:dd:ee:01").unwrap();
        assert_eq!(
            payload[delta_at..delta_at + 8],
            store.delta(device).to_le_bytes()
        );
        let patch = |delta: i64| {
            let mut bad = payload.clone();
            bad[delta_at..delta_at + 8].copy_from_slice(&delta.to_le_bytes());
            EventStore::from_snapshot_bytes(&frame(SNAPSHOT_VERSION, &bad))
        };
        for delta in [0, -600, 1 << 32, i64::MIN, i64::MAX] {
            match patch(delta) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("validity period {delta}")), "{msg}")
                }
                other => panic!("δ = {delta}: expected Corrupt, got {other:?}"),
            }
        }
        // The ends of the range load and read back exactly.
        for delta in [1, (1 << 32) - 1] {
            assert_eq!(patch(delta).unwrap().delta(device), delta);
        }
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let bytes = sample_store().to_snapshot_bytes().unwrap();
        // Truncated mid-payload: the header's declared length cannot be read.
        let cut = &bytes[..bytes.len() - 7];
        assert!(matches!(
            EventStore::from_snapshot_bytes(cut),
            Err(StoreError::Truncated { .. })
        ));
        // A flipped payload byte fails the checksum.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(matches!(
            EventStore::from_snapshot_bytes(&corrupt),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn huge_declared_lengths_error_instead_of_panicking() {
        // A crafted header declaring a near-u64::MAX payload length must not
        // overflow the decoder's cursor arithmetic.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd length
        assert!(matches!(
            EventStore::from_snapshot_bytes(&bytes),
            Err(StoreError::Truncated { .. })
        ));
        // Same inside the payload: a huge space-JSON length field.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&super::fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            EventStore::from_snapshot_bytes(&bytes),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_device_identifiers_fail_at_write_time() {
        // MacAddress accepts arbitrary opaque identifiers, so a 70k-byte one is
        // reachable from input files; the u16 length field cannot carry it and
        // encoding must refuse rather than write a corrupt-but-checksummed file.
        let space = SpaceBuilder::new("long-mac")
            .add_access_point("wap1", &["r1"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        let huge_mac = "x".repeat(70_000);
        store.ingest_raw(&huge_mac, 100, "wap1").unwrap();
        assert!(matches!(
            store.to_snapshot_bytes(),
            Err(StoreError::Unencodable(_))
        ));
    }

    #[test]
    fn empty_store_roundtrips() {
        let space = SpaceBuilder::new("empty")
            .add_access_point("wap1", &["r1"])
            .build()
            .unwrap();
        let store = EventStore::new(space);
        let back = EventStore::from_snapshot_bytes(&store.to_snapshot_bytes().unwrap()).unwrap();
        assert_eq!(back, store);
        assert_eq!(back.num_events(), 0);
    }
}
