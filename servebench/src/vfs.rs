//! A timing [`Vfs`]: forwards every call to an inner filesystem and counts
//! syncs, sync latency and bytes moved. The traced run passes it in through
//! `DurabilityConfig::vfs`; the untraced run uses the plain `StdVfs`.

use dbtoaster::durability::{Vfs, VfsFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the durability layer asked of the filesystem.
#[derive(Debug, Default)]
pub struct VfsCounters {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    /// Time spent writing and syncing checkpoint files (`ckpt-*`).
    ckpt_write_ns: AtomicU64,
    /// One entry per file or directory sync, in nanoseconds.
    sync_ns: Mutex<Vec<u64>>,
}

/// A point-in-time copy of [`VfsCounters`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VfsTotals {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub ckpt_write_ns: u64,
    pub sync_ns: Vec<u64>,
}

impl VfsCounters {
    pub fn totals(&self) -> VfsTotals {
        VfsTotals {
            bytes_written: self.bytes_written.load(Relaxed),
            bytes_read: self.bytes_read.load(Relaxed),
            ckpt_write_ns: self.ckpt_write_ns.load(Relaxed),
            sync_ns: self.sync_ns.lock().expect("sync log poisoned").clone(),
        }
    }

    fn synced(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.sync_ns.lock().expect("sync log poisoned").push(ns);
    }
}

#[derive(Debug)]
pub struct TimingVfs {
    inner: Arc<dyn Vfs>,
    pub counters: Arc<VfsCounters>,
}

impl TimingVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        TimingVfs {
            inner,
            counters: Arc::default(),
        }
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let ckpt = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("ckpt-"));
        Box::new(TimingFile {
            inner: file,
            ckpt,
            counters: self.counters.clone(),
        })
    }
}

struct TimingFile {
    inner: Box<dyn VfsFile>,
    ckpt: bool,
    counters: Arc<VfsCounters>,
}

impl TimingFile {
    fn charge_ckpt(&self, start: Instant) {
        if self.ckpt {
            let ns = start.elapsed().as_nanos() as u64;
            self.counters.ckpt_write_ns.fetch_add(ns, Relaxed);
        }
    }
}

impl VfsFile for TimingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_all(buf);
        if r.is_ok() {
            self.counters
                .bytes_written
                .fetch_add(buf.len() as u64, Relaxed);
        }
        self.charge_ckpt(t);
        r
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync_data();
        self.counters.synced(t);
        self.charge_ckpt(t);
        r
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync_all();
        self.counters.synced(t);
        self.charge_ckpt(t);
        r
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.inner.read(path)?;
        self.counters
            .bytes_read
            .fetch_add(bytes.len() as u64, Relaxed);
        Ok(bytes)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_append(path)?))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync_dir(dir);
        self.counters.synced(t);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster::durability::{recover_with_vfs, std_vfs, DurabilityConfig};
    use dbtoaster::prelude::*;
    use dbtoaster::runtime::Engine;
    use dbtoaster::workloads::{self, Family};

    fn builder() -> QueryEngineBuilder {
        ["q1", "q3"].iter().fold(
            QueryEngineBuilder::new(workloads::full_catalog()),
            |b, q| b.add_query(*q, workloads::query(q).expect("workload query").sql),
        )
    }

    /// Every map of `a` equals `b`'s bit for bit.
    fn assert_identical(a: &Engine, b: &Engine) {
        let p = a.program();
        let names = p.maps.iter().map(|m| &m.name).chain(&p.stored_relations);
        for name in names {
            let bits = |e: &Engine| {
                let mut v: Vec<(String, u64)> = e
                    .view(name)
                    .expect("map present")
                    .iter()
                    .map(|(t, m)| (format!("{t:?}"), m.to_bits()))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(bits(a), bits(b), "map {name} differs");
        }
    }

    #[test]
    fn recovery_through_the_timing_vfs_is_bit_identical() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-vfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data = workloads::dataset_for(Family::Tpch, 3000, 7);
        let timing = Arc::new(TimingVfs::new(std_vfs()));
        let mut dcfg = DurabilityConfig::new(&dir);
        dcfg.checkpoint_every_events = 1000;
        dcfg.vfs = timing.clone();
        let mut engine = builder().build().unwrap();
        for (t, rows) in &data.tables {
            engine.load_table(t, rows.clone()).unwrap();
        }
        let server = engine
            .open_or_create_with(ServerConfig {
                durability: Some(dcfg),
                ..ServerConfig::default()
            })
            .unwrap();
        server.handle().send_batch(data.events.clone()).unwrap();
        server.flush().unwrap();
        server.kill();

        let written = timing.counters.totals();
        assert!(written.bytes_written > 0 && !written.sync_ns.is_empty());
        let engine = builder().build().unwrap();
        let program = engine.program().clone();
        let catalog = dbtoaster::to_compiler_catalog(&workloads::full_catalog());
        let recover = |vfs: Arc<dyn Vfs>| {
            recover_with_vfs(&dir, program.clone(), &catalog, vfs)
                .unwrap()
                .expect("state present")
        };
        let plain = recover(std_vfs());
        let timed = recover(timing.clone());
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(plain.engine.stats().events, data.events.len() as u64);
        assert_eq!(
            (plain.checkpoint_watermark, plain.replayed_events),
            (timed.checkpoint_watermark, timed.replayed_events)
        );
        assert_identical(&plain.engine, &timed.engine);
        assert!(timing.counters.totals().bytes_read > written.bytes_read);
    }
}
