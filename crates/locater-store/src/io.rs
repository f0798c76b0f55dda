//! Pluggable storage I/O with deterministic fault injection.
//!
//! Every durability-critical operation of the store — WAL appends and
//! fsyncs ([`crate::wal`]), atomic snapshot/checkpoint writes
//! ([`crate::snapshot`], [`crate::recovery`]), spill-tier persistence
//! ([`crate::compaction`]) and the reads recovery performs — is routed
//! through the [`StorageIo`] trait instead of calling `std::fs` directly.
//! Production uses the zero-cost passthrough [`RealIo`]; chaos tests plug in
//! a seeded [`FaultIo`] that injects short writes, `EIO` on fsync, `ENOSPC`,
//! failed renames and interrupted reads at scheduled operation counts.
//!
//! The schedule is a pure function of the [`FaultPlan`] (seed + counts +
//! horizon): the same plan produces bit-for-bit the same fault sequence, so
//! a failing chaos run is replayable from its seed alone.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The storage operations the durability layer performs. Implementations
/// must be shareable across threads (the sharded service holds one instance
/// behind an `Arc` inside its [`crate::wal::Durability`] config).
pub trait StorageIo: Send + Sync + fmt::Debug {
    /// Writes the whole buffer to the file (the WAL frame / snapshot body
    /// write). A failure may leave a prefix of the buffer on disk.
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()>;

    /// Forces file data to disk (`fdatasync`) — the WAL durability point.
    fn sync_data(&self, file: &File) -> io::Result<()>;

    /// Forces file data and metadata to disk (`fsync`) — the snapshot
    /// durability point.
    fn sync_all(&self, file: &File) -> io::Result<()>;

    /// Reads a whole file (segment scans, checkpoint loads).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Renames a file (the commit point of every atomic write).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Deletes a file (checkpoint trim of stale WAL segments). A failure
    /// leaves the file in place.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Truncates/extends a file (`wal truncate`'s cut).
    fn set_len(&self, file: &File, len: u64) -> io::Result<()>;
}

/// The production implementation: a zero-state passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealIo;

impl StorageIo for RealIo {
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        file.write_all(buf)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }

    fn sync_all(&self, file: &File) -> io::Result<()> {
        file.sync_all()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        file.set_len(len)
    }
}

/// One kind of injected storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A write persists only a prefix of the buffer, then fails (`EIO`).
    ShortWrite,
    /// A write fails without persisting anything (`ENOSPC`).
    DiskFull,
    /// An fsync (`sync_data`/`sync_all`) fails (`EIO`) — the pages it was
    /// asked to flush must be considered lost.
    SyncFailure,
    /// A whole-file read fails (`EINTR`).
    ReadInterrupted,
    /// A rename fails, leaving the destination untouched.
    RenameFailure,
    /// A file deletion fails, leaving the file in place.
    RemoveFailure,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::ShortWrite => f.write_str("short-write"),
            FaultKind::DiskFull => f.write_str("disk-full"),
            FaultKind::SyncFailure => f.write_str("sync-failure"),
            FaultKind::ReadInterrupted => f.write_str("read-interrupted"),
            FaultKind::RenameFailure => f.write_str("rename-failure"),
            FaultKind::RemoveFailure => f.write_str("remove-failure"),
        }
    }
}

/// A deterministic fault schedule: how many faults of each category to
/// inject, drawn (by seed) from the first `horizon` operations of that
/// category. The derived schedule is a pure function of this plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the schedule PRNG; the same seed reproduces the same faults.
    pub seed: u64,
    /// Write faults to schedule (each is a short write or an `ENOSPC`).
    pub writes: usize,
    /// Fsync faults to schedule (`sync_data` and `sync_all` share a counter).
    pub syncs: usize,
    /// Read faults to schedule.
    pub reads: usize,
    /// Rename faults to schedule.
    pub renames: usize,
    /// File-deletion faults to schedule.
    pub removes: usize,
    /// Operation-count window the fault indices are drawn from, per
    /// category. Clamped up to the category's fault count.
    pub horizon: u64,
}

impl FaultPlan {
    /// A plan with no faults at all (useful as a baseline).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            writes: 0,
            syncs: 0,
            reads: 0,
            renames: 0,
            removes: 0,
            horizon: 0,
        }
    }
}

/// A minimal deterministic PRNG (the same LCG the load harness uses), good
/// enough to scatter fault indices; never used for anything statistical.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixed point without changing any nonzero seed.
        Lcg(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

#[derive(Debug, Default)]
struct Schedule {
    writes: BTreeMap<u64, FaultKind>,
    syncs: BTreeSet<u64>,
    reads: BTreeSet<u64>,
    renames: BTreeSet<u64>,
    removes: BTreeSet<u64>,
}

fn draw_indices(rng: &mut Lcg, count: usize, horizon: u64) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    if count == 0 {
        return out;
    }
    let horizon = horizon.max(count as u64);
    while out.len() < count {
        out.insert(rng.next() % horizon);
    }
    out
}

/// A seeded fault-injecting [`StorageIo`]: delegates to [`RealIo`] except at
/// the operation counts its [`FaultPlan`] scheduled, where it fails with the
/// scheduled [`FaultKind`]. Thread-safe; counters are global across all
/// files/shards sharing the instance, which is what makes a schedule span a
/// whole service run.
#[derive(Debug)]
pub struct FaultIo {
    plan: FaultPlan,
    schedule: Schedule,
    writes: AtomicU64,
    syncs: AtomicU64,
    reads: AtomicU64,
    renames: AtomicU64,
    removes: AtomicU64,
    fired: Mutex<Vec<(FaultKind, u64)>>,
}

impl FaultIo {
    /// Derives the (deterministic) schedule from `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let mut rng = Lcg::new(plan.seed);
        let mut schedule = Schedule::default();
        for index in draw_indices(&mut rng, plan.writes, plan.horizon) {
            let kind = if rng.next().is_multiple_of(2) {
                FaultKind::ShortWrite
            } else {
                FaultKind::DiskFull
            };
            schedule.writes.insert(index, kind);
        }
        schedule.syncs = draw_indices(&mut rng, plan.syncs, plan.horizon);
        schedule.reads = draw_indices(&mut rng, plan.reads, plan.horizon);
        schedule.renames = draw_indices(&mut rng, plan.renames, plan.horizon);
        // Drawn last so plans without remove faults keep the schedule their
        // seed produced before this category existed.
        schedule.removes = draw_indices(&mut rng, plan.removes, plan.horizon);
        FaultIo {
            plan,
            schedule,
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            fired: Mutex::new(Vec::new()),
        }
    }

    /// The plan this instance was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The full derived schedule as `(kind, scheduled op count)` pairs,
    /// sorted — the bit-for-bit reproducibility surface: two instances built
    /// from the same plan report identical schedules.
    pub fn schedule(&self) -> Vec<(FaultKind, u64)> {
        let mut out: Vec<(FaultKind, u64)> = Vec::new();
        out.extend(self.schedule.writes.iter().map(|(&op, &kind)| (kind, op)));
        out.extend(
            self.schedule
                .syncs
                .iter()
                .map(|&op| (FaultKind::SyncFailure, op)),
        );
        out.extend(
            self.schedule
                .reads
                .iter()
                .map(|&op| (FaultKind::ReadInterrupted, op)),
        );
        out.extend(
            self.schedule
                .renames
                .iter()
                .map(|&op| (FaultKind::RenameFailure, op)),
        );
        out.extend(
            self.schedule
                .removes
                .iter()
                .map(|&op| (FaultKind::RemoveFailure, op)),
        );
        out.sort_unstable();
        out
    }

    /// The faults that actually fired so far, in firing order, as
    /// `(kind, op count within its category)`.
    pub fn fired(&self) -> Vec<(FaultKind, u64)> {
        self.fired.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn record(&self, kind: FaultKind, op: u64) {
        self.fired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((kind, op));
    }

    fn injected(kind: FaultKind, op: u64) -> io::Error {
        let what = match kind {
            FaultKind::ShortWrite => "EIO after short write",
            FaultKind::DiskFull => "no space left on device (ENOSPC)",
            FaultKind::SyncFailure => "EIO on fsync",
            FaultKind::ReadInterrupted => "interrupted read (EINTR)",
            FaultKind::RenameFailure => "rename failed",
            FaultKind::RemoveFailure => "remove failed",
        };
        let message = format!("injected fault at op {op}: {what}");
        match kind {
            FaultKind::ReadInterrupted => io::Error::new(io::ErrorKind::Interrupted, message),
            _ => io::Error::other(message),
        }
    }
}

impl StorageIo for FaultIo {
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        let op = self.writes.fetch_add(1, Ordering::SeqCst);
        match self.schedule.writes.get(&op) {
            Some(&FaultKind::ShortWrite) => {
                // Persist a prefix, then fail: the torn bytes stay on disk.
                RealIo.write_all(file, &buf[..buf.len() / 2])?;
                self.record(FaultKind::ShortWrite, op);
                Err(Self::injected(FaultKind::ShortWrite, op))
            }
            Some(&kind) => {
                self.record(kind, op);
                Err(Self::injected(kind, op))
            }
            None => RealIo.write_all(file, buf),
        }
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        let op = self.syncs.fetch_add(1, Ordering::SeqCst);
        if self.schedule.syncs.contains(&op) {
            self.record(FaultKind::SyncFailure, op);
            return Err(Self::injected(FaultKind::SyncFailure, op));
        }
        RealIo.sync_data(file)
    }

    fn sync_all(&self, file: &File) -> io::Result<()> {
        let op = self.syncs.fetch_add(1, Ordering::SeqCst);
        if self.schedule.syncs.contains(&op) {
            self.record(FaultKind::SyncFailure, op);
            return Err(Self::injected(FaultKind::SyncFailure, op));
        }
        RealIo.sync_all(file)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let op = self.reads.fetch_add(1, Ordering::SeqCst);
        if self.schedule.reads.contains(&op) {
            self.record(FaultKind::ReadInterrupted, op);
            return Err(Self::injected(FaultKind::ReadInterrupted, op));
        }
        RealIo.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let op = self.renames.fetch_add(1, Ordering::SeqCst);
        if self.schedule.renames.contains(&op) {
            self.record(FaultKind::RenameFailure, op);
            return Err(Self::injected(FaultKind::RenameFailure, op));
        }
        RealIo.rename(from, to)
    }

    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        // Never faulted: the only cut is `wal truncate`'s offline repair,
        // which runs on real storage.
        RealIo.set_len(file, len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let op = self.removes.fetch_add(1, Ordering::SeqCst);
        if self.schedule.removes.contains(&op) {
            self.record(FaultKind::RemoveFailure, op);
            return Err(Self::injected(FaultKind::RemoveFailure, op));
        }
        RealIo.remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "locater-io-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn real_io_round_trips() {
        let path = temp_file("real");
        let mut file = File::create(&path).unwrap();
        RealIo.write_all(&mut file, b"hello").unwrap();
        RealIo.sync_data(&file).unwrap();
        RealIo.sync_all(&file).unwrap();
        assert_eq!(RealIo.read(&path).unwrap(), b"hello");
        let moved = temp_file("real-moved");
        RealIo.rename(&path, &moved).unwrap();
        assert_eq!(RealIo.read(&moved).unwrap(), b"hello");
        let file = File::options().write(true).open(&moved).unwrap();
        RealIo.set_len(&file, 2).unwrap();
        assert_eq!(RealIo.read(&moved).unwrap(), b"he");
        RealIo.remove_file(&moved).unwrap();
        assert!(!moved.exists());
    }

    #[test]
    fn same_plan_yields_identical_schedules() {
        let plan = FaultPlan {
            seed: 42,
            writes: 3,
            syncs: 2,
            reads: 2,
            renames: 1,
            removes: 1,
            horizon: 50,
        };
        let a = FaultIo::new(plan);
        let b = FaultIo::new(plan);
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.schedule().len(), 9);
        // Remove faults are drawn after every older category, so a plan
        // without them reproduces the schedule its seed always produced.
        let legacy = FaultIo::new(FaultPlan { removes: 0, ..plan });
        let mut without_removes = a.schedule();
        without_removes.retain(|&(kind, _)| kind != FaultKind::RemoveFailure);
        assert_eq!(legacy.schedule(), without_removes);
        // A different seed reshuffles the schedule.
        let c = FaultIo::new(FaultPlan { seed: 43, ..plan });
        assert_ne!(a.schedule(), c.schedule());
    }

    #[test]
    fn scheduled_write_faults_fire_at_their_op_counts() {
        let plan = FaultPlan {
            seed: 7,
            writes: 2,
            syncs: 0,
            reads: 0,
            renames: 0,
            removes: 0,
            horizon: 5,
        };
        let io = FaultIo::new(plan);
        let mut scheduled: Vec<u64> = io.schedule().iter().map(|&(_, op)| op).collect();
        scheduled.sort_unstable();
        let path = temp_file("write-faults");
        let mut file = File::create(&path).unwrap();
        let mut failures = Vec::new();
        for op in 0..10u64 {
            if io.write_all(&mut file, b"xxxx").is_err() {
                failures.push(op);
            }
        }
        assert_eq!(failures, scheduled);
        assert_eq!(io.fired().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_leaves_a_prefix_disk_full_leaves_nothing() {
        // Find seeds exhibiting both kinds to pin the on-disk contract.
        for (kind, expected_len) in [(FaultKind::ShortWrite, 4u64), (FaultKind::DiskFull, 0u64)] {
            let plan = (0..200)
                .map(|seed| FaultPlan {
                    seed,
                    writes: 1,
                    syncs: 0,
                    reads: 0,
                    renames: 0,
                    removes: 0,
                    horizon: 1,
                })
                .find(|&p| FaultIo::new(p).schedule() == vec![(kind, 0)])
                .expect("some seed schedules this kind at op 0");
            let io = FaultIo::new(plan);
            let path = temp_file(&format!("kind-{kind}"));
            let mut file = File::create(&path).unwrap();
            assert!(io.write_all(&mut file, b"12345678").is_err());
            drop(file);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                expected_len,
                "{kind}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn sync_read_and_rename_faults_fire_and_are_recorded() {
        let plan = FaultPlan {
            seed: 9,
            writes: 0,
            syncs: 1,
            reads: 1,
            renames: 1,
            removes: 1,
            horizon: 1,
        };
        let io = FaultIo::new(plan);
        let path = temp_file("srr");
        std::fs::write(&path, b"data").unwrap();
        let file = File::open(&path).unwrap();
        assert!(io.sync_data(&file).is_err());
        assert!(io.sync_data(&file).is_ok(), "only op 0 is scheduled");
        assert!(io.read(&path).is_err());
        assert_eq!(io.read(&path).unwrap(), b"data");
        let other = temp_file("srr-2");
        assert!(io.rename(&path, &other).is_err());
        assert!(path.exists(), "failed rename leaves the source in place");
        io.rename(&path, &other).unwrap();
        assert!(io.remove_file(&other).is_err());
        assert!(other.exists(), "failed remove leaves the file in place");
        io.remove_file(&other).unwrap();
        assert!(!other.exists());
        assert_eq!(
            io.fired().iter().map(|&(kind, _)| kind).collect::<Vec<_>>(),
            vec![
                FaultKind::SyncFailure,
                FaultKind::ReadInterrupted,
                FaultKind::RenameFailure,
                FaultKind::RemoveFailure
            ]
        );
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let io = FaultIo::new(FaultPlan::quiet(1));
        assert!(io.schedule().is_empty());
        let path = temp_file("quiet");
        let mut file = File::create(&path).unwrap();
        for _ in 0..50 {
            io.write_all(&mut file, b"ok").unwrap();
            io.sync_data(&file).unwrap();
        }
        assert!(io.fired().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
