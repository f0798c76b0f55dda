//! A counting [`StorageIo`] around [`RealIo`]: every write, byte and
//! `fdatasync` the durability layer issues is counted (and each sync timed)
//! from outside, by handing this backend to `Durability::with_io`.

use locater_store::{RealIo, StorageIo};
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counters are statistics only (they publish no other data), hence `Relaxed`.
#[derive(Debug, Default)]
pub struct CountingIo {
    writes: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
}

/// One reading of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `write_all` calls.
    pub writes: u64,
    /// Bytes handed to `write_all`.
    pub bytes: u64,
    /// `sync_data` calls (the WAL durability point).
    pub syncs: u64,
    /// Total time spent inside `sync_data`.
    pub sync_ns: u64,
}

impl IoCounts {
    /// The activity between an earlier reading and this one.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            writes: self.writes - earlier.writes,
            bytes: self.bytes - earlier.bytes,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

impl CountingIo {
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            writes: self.writes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }
}

impl StorageIo for CountingIo {
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        RealIo.write_all(file, buf)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        let start = Instant::now();
        let result = RealIo.sync_data(file);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn sync_all(&self, file: &File) -> io::Result<()> {
        RealIo.sync_all(file)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealIo.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealIo.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealIo.remove_file(path)
    }

    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        RealIo.set_len(file, len)
    }
}
