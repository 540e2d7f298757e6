//! Deterministic crash-fault injection beneath the file store.
//!
//! Every byte [`PageFile`](crate::PageFile) and the snapshot `CURRENT`
//! file move goes through the [`Vfs`]/[`VfsFile`] seam defined here.
//! Production uses [`OsFs`], a zero-cost passthrough to `std::fs` +
//! `std::os::unix::fs::FileExt` — bitwise identical to the pre-seam
//! store. Tests use [`InjectedFs`], an in-memory filesystem that models
//! what a physical disk actually promises:
//!
//! * a write reaches the **page cache** immediately but only an `fsync`
//!   moves it to the **durable image**,
//! * a file's *directory entry* is durable only once the parent
//!   directory has been fsynced — a freshly created, fully fsynced file
//!   still vanishes in a power cut if its directory was never synced,
//! * a power cut ([`InjectedFs::power_cut`]) keeps the durable image
//!   plus a *seeded subset* of the un-fsynced writes, each kept whole,
//!   torn at a seeded byte offset, or dropped.
//!
//! On top of the cache model, [`InjectSpec`] injects faults as a **pure
//! function of `(seed, op_index)`** (the op index counts every
//! open/read/write/truncate/fsync across all files of the fs, in issue
//! order): tear a write at a byte offset, silently drop an `fsync`,
//! fail a read short, or fail a write with `ENOSPC`. `crash_at_op(K)`
//! freezes the filesystem at the K-th operation — op K and everything
//! after fails — so a sweep over K exercises a power cut between every
//! pair of I/O operations the store ever issues. The same seed always
//! yields the same fault sequence and the same survival image.

use hdidx_rand::splitmix::derive_seed;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// The raw-file operations the store is allowed to perform.
///
/// Implementations return `std::io::Result` so call sites keep their
/// existing per-operation error mapping (`io_err("pagefile read", ..)`
/// etc.) unchanged.
#[allow(clippy::len_without_is_empty)] // len() mirrors File::metadata().len(): a byte count, not a container
pub trait VfsFile: fmt::Debug + Send {
    /// Current file length in bytes.
    ///
    /// # Errors
    ///
    /// OS errors.
    fn len(&self) -> io::Result<u64>;
    /// Fills `buf` exactly from `offset` (like `FileExt::read_exact_at`).
    ///
    /// # Errors
    ///
    /// OS errors, short reads past the end of the file, and injected
    /// short reads.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Writes all of `data` at `offset` (like `FileExt::write_all_at`).
    ///
    /// # Errors
    ///
    /// OS errors and injected `ENOSPC`. An injected *torn* write reports
    /// success — that is the point: tearing is only observable after a
    /// crash, via checksums.
    fn write_all_at(&mut self, data: &[u8], offset: u64) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    ///
    /// # Errors
    ///
    /// OS errors.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// fsyncs the file's contents.
    ///
    /// # Errors
    ///
    /// OS errors. An injected *dropped* fsync reports success without
    /// making anything durable.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// A filesystem the store can run against: the real one ([`OsFs`]) or
/// the crash-injected in-memory one ([`InjectedFs`]).
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Opens `path` read-write, creating it if missing (never truncates).
    ///
    /// # Errors
    ///
    /// OS errors.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// fsyncs the directory at `path`, making the entries of files
    /// created inside it durable.
    ///
    /// # Errors
    ///
    /// OS errors.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Creates `path` and any missing ancestors.
    ///
    /// # Errors
    ///
    /// OS errors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Removes the directory at `path` and everything under it.
    ///
    /// # Errors
    ///
    /// OS errors.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// OS errors.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether anything exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// The immediate children of the directory at `path` (full paths,
    /// sorted).
    ///
    /// # Errors
    ///
    /// OS errors.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The real filesystem: a passthrough to `std::fs`. This is the
/// production path — byte-for-byte the same syscalls the store issued
/// before the seam existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsFs;

#[derive(Debug)]
struct OsFile {
    file: std::fs::File,
}

impl VfsFile for OsFile {
    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
    }

    fn write_all_at(&mut self, data: &[u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(&self.file, data, offset)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

impl Vfs for OsFs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(OsFile { file }))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        out.sort();
        Ok(out)
    }
}

/// Rates are parts-per-million of the matching operation kind; every
/// decision is a pure function of `(seed, op_index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectSpec {
    /// Base seed of the fault stream and the power-cut survival rolls.
    pub seed: u64,
    /// Rate of writes that silently persist only a seeded prefix.
    pub torn_write_ppm: u32,
    /// Rate of fsyncs (file and directory) that report success without
    /// making anything durable.
    pub drop_fsync_ppm: u32,
    /// Rate of reads that fail short.
    pub short_read_ppm: u32,
    /// Rate of writes that fail with `ENOSPC` (nothing is written).
    pub enospc_ppm: u32,
    /// Freeze the filesystem at this op index: the op itself and every
    /// later one fails, and the state at that instant is what
    /// [`InjectedFs::power_cut`] resolves.
    pub crash_at_op: Option<u64>,
}

impl InjectSpec {
    /// No faults, no crash: a plain deterministic in-memory filesystem.
    #[must_use]
    pub fn clean(seed: u64) -> InjectSpec {
        InjectSpec {
            seed,
            torn_write_ppm: 0,
            drop_fsync_ppm: 0,
            short_read_ppm: 0,
            enospc_ppm: 0,
            crash_at_op: None,
        }
    }

    /// A clean run that crashes at op `k`.
    #[must_use]
    pub fn crash_at(seed: u64, k: u64) -> InjectSpec {
        InjectSpec {
            crash_at_op: Some(k),
            ..InjectSpec::clean(seed)
        }
    }

    /// Sets the torn-write rate.
    #[must_use]
    pub fn with_torn_write_ppm(mut self, ppm: u32) -> InjectSpec {
        self.torn_write_ppm = ppm;
        self
    }

    /// Sets the dropped-fsync rate.
    #[must_use]
    pub fn with_drop_fsync_ppm(mut self, ppm: u32) -> InjectSpec {
        self.drop_fsync_ppm = ppm;
        self
    }

    /// Sets the short-read rate.
    #[must_use]
    pub fn with_short_read_ppm(mut self, ppm: u32) -> InjectSpec {
        self.short_read_ppm = ppm;
        self
    }

    /// Sets the `ENOSPC` rate.
    #[must_use]
    pub fn with_enospc_ppm(mut self, ppm: u32) -> InjectSpec {
        self.enospc_ppm = ppm;
        self
    }
}

/// Operation kinds the decision function distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
    Fsync,
    Other,
}

/// One injected fault, resolved for a specific op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Keep only the first `keep` bytes of the write; report success.
    Torn { keep: usize },
    /// Fail the write with `ENOSPC`; write nothing.
    Enospc,
    /// Report fsync success without promoting anything to durable.
    DropFsync,
    /// Fail the read short.
    ShortRead,
}

/// The fault (if any) op `op` of kind `kind` suffers under `spec` —
/// pure in `(spec.seed, op)`.
fn decide(spec: &InjectSpec, op: u64, kind: OpKind, write_len: usize) -> Option<Fault> {
    let d = derive_seed(spec.seed, op);
    let roll = (d % 1_000_000) as u32;
    match kind {
        OpKind::Write => {
            if roll < spec.torn_write_ppm {
                let keep = (derive_seed(d, 1) % (write_len as u64 + 1)) as usize;
                Some(Fault::Torn { keep })
            } else if roll < spec.torn_write_ppm.saturating_add(spec.enospc_ppm) {
                Some(Fault::Enospc)
            } else {
                None
            }
        }
        OpKind::Fsync => (roll < spec.drop_fsync_ppm).then_some(Fault::DropFsync),
        OpKind::Read => (roll < spec.short_read_ppm).then_some(Fault::ShortRead),
        OpKind::Other => None,
    }
}

/// How an un-fsynced write fares in a power cut — pure in
/// `(seed, write op index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Survival {
    Whole,
    Torn { keep: usize },
    Dropped,
}

/// Salt separating the survival stream from the fault stream.
const SURVIVE_SALT: u64 = 0x5f50_4f57_4552_4355; // "_POWERCU"

fn survival(seed: u64, op: u64, len: usize) -> Survival {
    let d = derive_seed(seed ^ SURVIVE_SALT, op);
    match d % 4 {
        0 | 1 => Survival::Whole,
        2 => Survival::Torn {
            keep: (derive_seed(d, 1) % (len as u64 + 1)) as usize,
        },
        _ => Survival::Dropped,
    }
}

/// One not-yet-durable mutation, journaled for the survival roll.
#[derive(Debug, Clone)]
enum Mutation {
    /// Bytes as applied to the cached image (already torn if the write
    /// op was torn), plus the op index that applied them.
    Write { offset: u64, data: Vec<u8>, op: u64 },
    /// A truncation/extension, which survives whole or not at all.
    SetLen { len: u64, op: u64 },
}

#[derive(Debug, Default)]
struct MemFile {
    /// What reads see: the OS page-cache image.
    mem: Vec<u8>,
    /// What the platter holds: updated only by an effective fsync.
    durable: Vec<u8>,
    /// Mutations since the last effective fsync, in issue order.
    unsynced: Vec<Mutation>,
    /// Whether the directory entry is durable (parent dir fsynced after
    /// creation). A power cut erases unlinked files entirely.
    linked: bool,
}

impl MemFile {
    /// The image a power cut leaves: durable bytes plus a seeded subset
    /// of the unsynced mutations. `None` if the entry itself is lost.
    fn survive(&self, seed: u64) -> Option<Vec<u8>> {
        if !self.linked {
            return None;
        }
        let mut img = self.durable.clone();
        for m in &self.unsynced {
            match m {
                Mutation::SetLen { len, op } => {
                    if survival(seed, *op, 0) != Survival::Dropped {
                        img.resize(*len as usize, 0);
                    }
                }
                Mutation::Write { offset, data, op } => {
                    let keep = match survival(seed, *op, data.len()) {
                        Survival::Whole => data.len(),
                        Survival::Torn { keep } => keep,
                        Survival::Dropped => 0,
                    };
                    if keep > 0 {
                        let end = *offset as usize + keep;
                        if img.len() < end {
                            img.resize(end, 0);
                        }
                        img[*offset as usize..end].copy_from_slice(&data[..keep]);
                    }
                }
            }
        }
        Some(img)
    }
}

#[derive(Debug, Default)]
struct State {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: BTreeSet<PathBuf>,
    ops: u64,
    crashed: bool,
}

/// The crash-injected in-memory filesystem. Cheap to clone (shared
/// state); single writer assumed, any thread.
#[derive(Debug, Clone)]
pub struct InjectedFs {
    spec: InjectSpec,
    state: Arc<Mutex<State>>,
}

fn crashed_err() -> io::Error {
    io::Error::other("injected crash: filesystem is frozen")
}

impl InjectedFs {
    /// A filesystem injecting per `spec`, starting empty.
    #[must_use]
    pub fn new(spec: InjectSpec) -> InjectedFs {
        InjectedFs {
            spec,
            state: Arc::new(Mutex::new(State::default())),
        }
    }

    /// A fault-free in-memory filesystem.
    #[must_use]
    pub fn clean() -> InjectedFs {
        InjectedFs::new(InjectSpec::clean(0))
    }

    /// Operations issued so far (the next op gets this index).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Whether the crash point has been reached.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Resolves the power cut: a **new, fault-free** filesystem holding
    /// exactly what a machine losing power at this instant would find on
    /// reboot — the durable image of every durably-linked file, extended
    /// by a seeded subset of its un-fsynced writes (whole, torn, or
    /// dropped, each a pure function of the seed and the write's op
    /// index). Deterministic: calling this twice yields identical
    /// filesystems.
    #[must_use]
    pub fn power_cut(&self) -> InjectedFs {
        let st = self.state.lock().unwrap();
        let mut survived = State {
            dirs: st.dirs.clone(),
            ..State::default()
        };
        for (path, f) in &st.files {
            if let Some(img) = f.survive(self.spec.seed) {
                survived.files.insert(
                    path.clone(),
                    MemFile {
                        mem: img.clone(),
                        durable: img,
                        unsynced: Vec::new(),
                        linked: true,
                    },
                );
            }
        }
        InjectedFs {
            spec: InjectSpec::clean(self.spec.seed),
            state: Arc::new(Mutex::new(survived)),
        }
    }

    /// Raw bytes of the file at `path` (the cached image), for tests
    /// comparing images against a real on-disk store.
    ///
    /// # Errors
    ///
    /// `NotFound` if no such file.
    pub fn file_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.state.lock().unwrap();
        st.files
            .get(path)
            .map(|f| f.mem.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    /// Starts one counted operation: bumps the op counter, fires the
    /// crash point, and resolves the op's injected fault.
    fn begin(
        &self,
        kind: OpKind,
        write_len: usize,
    ) -> io::Result<(MutexGuard<'_, State>, Option<Fault>)> {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(crashed_err());
        }
        let op = st.ops;
        st.ops += 1;
        if let Some(k) = self.spec.crash_at_op {
            if op >= k {
                st.crashed = true;
                return Err(crashed_err());
            }
        }
        let fault = decide(&self.spec, op, kind, write_len);
        Ok((st, fault))
    }
}

/// A handle into an [`InjectedFs`] file, addressed by path.
#[derive(Debug)]
struct InjFile {
    fs: InjectedFs,
    path: PathBuf,
}

impl InjFile {
    fn with_file<R>(
        st: &mut State,
        path: &Path,
        f: impl FnOnce(&mut MemFile) -> io::Result<R>,
    ) -> io::Result<R> {
        let file = st
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file was removed"))?;
        f(file)
    }
}

impl VfsFile for InjFile {
    fn len(&self) -> io::Result<u64> {
        let st = self.fs.state.lock().unwrap();
        st.files
            .get(&self.path)
            .map(|f| f.mem.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file was removed"))
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let (mut st, fault) = self.fs.begin(OpKind::Read, 0)?;
        if fault == Some(Fault::ShortRead) {
            return Err(io::Error::other("injected short read"));
        }
        Self::with_file(&mut st, &self.path, |f| {
            let end = offset as usize + buf.len();
            if end > f.mem.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "read past end of file",
                ));
            }
            buf.copy_from_slice(&f.mem[offset as usize..end]);
            Ok(())
        })
    }

    fn write_all_at(&mut self, data: &[u8], offset: u64) -> io::Result<()> {
        let (mut st, fault) = self.fs.begin(OpKind::Write, data.len())?;
        let keep = match fault {
            Some(Fault::Enospc) => return Err(io::Error::from_raw_os_error(28)), // ENOSPC
            Some(Fault::Torn { keep }) => keep,
            _ => data.len(),
        };
        let op = st.ops - 1;
        Self::with_file(&mut st, &self.path, |f| {
            let end = offset as usize + keep;
            if f.mem.len() < end {
                f.mem.resize(end, 0);
            }
            f.mem[offset as usize..end].copy_from_slice(&data[..keep]);
            if keep > 0 {
                f.unsynced.push(Mutation::Write {
                    offset,
                    data: data[..keep].to_vec(),
                    op,
                });
            }
            // A torn write still reports success: tearing is only
            // observable after a crash, through checksums.
            Ok(())
        })
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let (mut st, _) = self.fs.begin(OpKind::Other, 0)?;
        let op = st.ops - 1;
        Self::with_file(&mut st, &self.path, |f| {
            f.mem.resize(len as usize, 0);
            f.unsynced.push(Mutation::SetLen { len, op });
            Ok(())
        })
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let (mut st, fault) = self.fs.begin(OpKind::Fsync, 0)?;
        if fault == Some(Fault::DropFsync) {
            return Ok(()); // silently ineffective
        }
        Self::with_file(&mut st, &self.path, |f| {
            f.durable = f.mem.clone();
            f.unsynced.clear();
            Ok(())
        })
    }
}

impl Vfs for InjectedFs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (mut st, _) = self.begin(OpKind::Other, 0)?;
        st.files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(InjFile {
            fs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let (mut st, fault) = self.begin(OpKind::Fsync, 0)?;
        if fault == Some(Fault::DropFsync) {
            return Ok(()); // silently ineffective
        }
        let files = std::mem::take(&mut st.files);
        st.files = files
            .into_iter()
            .map(|(p, mut f)| {
                if p.parent() == Some(path) {
                    f.linked = true;
                }
                (p, f)
            })
            .collect();
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let (mut st, _) = self.begin(OpKind::Other, 0)?;
        let mut p = path;
        loop {
            st.dirs.insert(p.to_path_buf());
            match p.parent() {
                Some(parent) if parent != Path::new("") => p = parent,
                _ => break,
            }
        }
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let (mut st, _) = self.begin(OpKind::Other, 0)?;
        st.files.retain(|p, _| !p.starts_with(path));
        st.dirs.retain(|p| !p.starts_with(path));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let (mut st, _) = self.begin(OpKind::Other, 0)?;
        st.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.state.lock().unwrap();
        st.files.contains_key(path) || st.dirs.contains(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let st = self.state.lock().unwrap();
        let mut out: BTreeSet<PathBuf> = BTreeSet::new();
        for p in st.files.keys().chain(st.dirs.iter()) {
            if p.parent() == Some(path) {
                out.insert(p.clone());
            }
        }
        Ok(out.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    /// Create a file under `/d`, write, fsync file and dir.
    fn write_linked(fs: &InjectedFs, path: &str, bytes: &[u8]) {
        fs.create_dir_all(p(path).parent().unwrap()).unwrap();
        let mut f = fs.open(&p(path)).unwrap();
        f.write_all_at(bytes, 0).unwrap();
        f.sync_all().unwrap();
        fs.sync_dir(p(path).parent().unwrap()).unwrap();
    }

    #[test]
    fn fsynced_and_linked_data_survives_a_power_cut() {
        let fs = InjectedFs::clean();
        write_linked(&fs, "/d/a", b"hello");
        let after = fs.power_cut();
        assert_eq!(after.file_bytes(&p("/d/a")).unwrap(), b"hello");
    }

    #[test]
    fn a_file_without_a_directory_fsync_vanishes_in_a_power_cut() {
        let fs = InjectedFs::clean();
        fs.create_dir_all(&p("/d")).unwrap();
        let mut f = fs.open(&p("/d/a")).unwrap();
        f.write_all_at(b"hello", 0).unwrap();
        f.sync_all().unwrap(); // data durable, entry is not
        let after = fs.power_cut();
        assert!(after.file_bytes(&p("/d/a")).is_err(), "entry must be lost");
    }

    #[test]
    fn unsynced_writes_survive_only_by_the_seeded_roll() {
        // With many one-byte writes, some survive and some drop — and
        // the outcome is identical across power_cut calls and seeds.
        let make = || {
            let fs = InjectedFs::new(InjectSpec::clean(7));
            write_linked(&fs, "/d/a", b"");
            let mut f = fs.open(&p("/d/a")).unwrap();
            for i in 0..64u64 {
                f.write_all_at(&[0xAB], i).unwrap();
            }
            fs.power_cut().file_bytes(&p("/d/a")).unwrap()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b, "survival must be deterministic");
        let survived = a.iter().filter(|&&x| x == 0xAB).count();
        assert!(survived > 0 && survived < 64, "seeded partial survival");
    }

    #[test]
    fn crash_at_op_freezes_everything_after() {
        let fs = InjectedFs::new(InjectSpec::crash_at(1, 3));
        fs.create_dir_all(&p("/d")).unwrap(); // op 0
        let mut f = fs.open(&p("/d/a")).unwrap(); // op 1
        f.write_all_at(b"x", 0).unwrap(); // op 2
        assert!(f.write_all_at(b"y", 1).is_err(), "op 3 is the crash");
        assert!(fs.crashed());
        assert!(f.sync_all().is_err(), "frozen after the crash");
        assert!(fs.open(&p("/d/b")).is_err());
    }

    #[test]
    fn injected_faults_are_pure_in_seed_and_op_index() {
        let spec = InjectSpec::clean(99)
            .with_torn_write_ppm(250_000)
            .with_enospc_ppm(250_000)
            .with_short_read_ppm(250_000)
            .with_drop_fsync_ppm(250_000);
        for op in 0..256 {
            for kind in [OpKind::Read, OpKind::Write, OpKind::Fsync, OpKind::Other] {
                assert_eq!(
                    decide(&spec, op, kind, 100),
                    decide(&spec, op, kind, 100),
                    "decision must be pure"
                );
            }
        }
        let faults: Vec<Option<Fault>> = (0..256)
            .map(|op| decide(&spec, op, OpKind::Write, 100))
            .collect();
        assert!(faults.iter().any(|f| matches!(f, Some(Fault::Torn { .. }))));
        assert!(faults.iter().any(|f| f == &Some(Fault::Enospc)));
        assert!(faults.iter().any(Option::is_none));
    }

    #[test]
    fn enospc_and_short_read_surface_as_errors() {
        let spec = InjectSpec::clean(5)
            .with_enospc_ppm(1_000_000)
            .with_short_read_ppm(1_000_000);
        let fs = InjectedFs::new(spec);
        let mut f = fs.open(&p("/a")).unwrap();
        let werr = f.write_all_at(b"x", 0).unwrap_err();
        assert_eq!(werr.raw_os_error(), Some(28), "ENOSPC");
        let mut buf = [0u8; 1];
        assert!(f.read_exact_at(&mut buf, 0).is_err(), "short read");
    }

    #[test]
    fn dropped_fsync_leaves_writes_volatile() {
        let spec = InjectSpec::clean(3).with_drop_fsync_ppm(1_000_000);
        let fs = InjectedFs::new(spec);
        fs.create_dir_all(&p("/d")).unwrap();
        let mut f = fs.open(&p("/d/a")).unwrap();
        f.write_all_at(b"gone", 0).unwrap();
        f.sync_all().unwrap(); // silently dropped
        fs.sync_dir(&p("/d")).unwrap(); // silently dropped: entry volatile
        let after = fs.power_cut();
        assert!(
            after.file_bytes(&p("/d/a")).is_err(),
            "dropped dir fsync must lose the entry"
        );
    }

    #[test]
    fn reads_and_listing_behave_like_a_filesystem() {
        let fs = InjectedFs::clean();
        write_linked(&fs, "/d/a", b"abcdef");
        let f = fs.open(&p("/d/a")).unwrap();
        assert_eq!(f.len().unwrap(), 6);
        let mut buf = [0u8; 3];
        f.read_exact_at(&mut buf, 2).unwrap();
        assert_eq!(&buf, b"cde");
        assert!(f.read_exact_at(&mut buf, 5).is_err(), "past EOF");
        assert!(fs.exists(&p("/d/a")));
        assert_eq!(fs.list_dir(&p("/d")).unwrap(), vec![p("/d/a")]);
        fs.remove_file(&p("/d/a")).unwrap();
        assert!(!fs.exists(&p("/d/a")));
    }
}
