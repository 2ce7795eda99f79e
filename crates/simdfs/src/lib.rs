#![warn(missing_docs)]

//! # simdfs — a simulated HDFS
//!
//! Implements `hmr_api::fs::FileSystem` as a distributed filesystem over a
//! [`simgrid::Cluster`]: central namenode metadata, per-file block lists,
//! replica placement across datanodes, and I/O that charges simulated time
//! to the node the calling task runs on (via `simgrid::meter`).
//!
//! The cost behaviour mirrors §3.1 of the M3R paper:
//! * reading "requires network communication with the namenode" — every
//!   metadata operation charges a small round-trip;
//! * "reading the actual data requires file system I/O ... and may require
//!   network I/O (if the mapper is not on the same machine as the one
//!   hosting the data)" — block reads charge disk time, plus network time
//!   when no replica is local to the metered node;
//! * writes go "to the local datanode (generally co-located with the
//!   compute node), and optionally replicated to a configurable number of
//!   other datanodes" — the first replica lands on the writer's node.

pub mod placement;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::RwLock;

use hmr_api::error::{HmrError, Result};
use hmr_api::comparator::{fnv1a_extend, FNV1A_SEED};
use hmr_api::fs::{subtree, FileStatus, FileSystem, FsReader, FsWriter, HPath};
use simgrid::cost::Charge;
use simgrid::meter;
use simgrid::trace;

pub use placement::PlacementPolicy;

/// One replicated block of a file.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Unique block id.
    pub id: u64,
    /// Block length in bytes.
    pub len: u64,
    /// Nodes holding a replica.
    pub replicas: Vec<usize>,
}

#[derive(Debug)]
enum DfsNode {
    File {
        blocks: Vec<BlockInfo>,
        len: u64,
        /// fnv1a over the file's full contents: the file's *content
        /// version* (`m3r-memo`). Files are immutable once closed, so it is
        /// computed lazily, on the first `content_version` request, and
        /// cached here; closing a file hashes nothing, and a filesystem
        /// that never memoizes never pays for it. Rewriting identical bytes
        /// under a fresh path-and-recreate still yields the same version,
        /// while any byte change yields a new one. Rename moves the node
        /// (and its cell) wholesale; delete removes it — so a memo entry's
        /// recorded versions go stale exactly when the input's content can
        /// no longer be proven unchanged. Shared (`Arc`) so the hash can be
        /// filled in after the namenode lock is released.
        version: Arc<OnceLock<u64>>,
    },
    Dir,
}

struct Inner {
    /// Namenode: all metadata, hierarchically keyed.
    meta: RwLock<BTreeMap<HPath, DfsNode>>,
    /// Datanodes: block id → bytes (replicas share one refcounted buffer;
    /// placement is metadata — the simulation charges as if each replica
    /// were distinct).
    blocks: RwLock<std::collections::HashMap<u64, Bytes>>,
    next_block: AtomicU64,
    cluster: simgrid::Cluster,
    block_size: u64,
    replication: usize,
    policy: PlacementPolicy,
}

/// The simulated distributed filesystem handle (shallow-clone shareable).
#[derive(Clone)]
pub struct SimDfs {
    inner: Arc<Inner>,
}

impl SimDfs {
    /// A DFS over `cluster` with HDFS-ish defaults: 64 MB blocks,
    /// 3-way replication (capped at the cluster size).
    pub fn new(cluster: simgrid::Cluster) -> Self {
        SimDfs::with_config(cluster, 64 << 20, 3)
    }

    /// A DFS with explicit block size and replication factor.
    pub fn with_config(cluster: simgrid::Cluster, block_size: u64, replication: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let replication = replication.clamp(1, cluster.len());
        let inner = Inner {
            meta: RwLock::new(BTreeMap::new()),
            blocks: RwLock::new(std::collections::HashMap::new()),
            next_block: AtomicU64::new(1),
            policy: PlacementPolicy::new(cluster.len()),
            cluster,
            block_size,
            replication,
        };
        inner.meta.write().insert(HPath::root(), DfsNode::Dir);
        SimDfs {
            inner: Arc::new(inner),
        }
    }

    /// The backing cluster.
    pub fn cluster(&self) -> &simgrid::Cluster {
        &self.inner.cluster
    }

    /// Configured replication factor.
    pub fn replication(&self) -> usize {
        self.inner.replication
    }

    /// Configured block size.
    pub fn block_size(&self) -> u64 {
        self.inner.block_size
    }

    /// A namenode round trip: metadata lives on one central node.
    fn charge_namenode(&self) {
        meter::charge(Charge::NetTransfer { bytes: 256 });
    }

    /// Blocks of `path` overlapping `[offset, offset+len)` with their
    /// in-file start offsets.
    fn blocks_in_range(&self, path: &HPath, offset: u64, len: u64) -> Result<Vec<(u64, BlockInfo)>> {
        let meta = self.inner.meta.read();
        match meta.get(path) {
            Some(DfsNode::File { blocks, .. }) => {
                let mut out = Vec::new();
                let mut start = 0u64;
                let end = offset.saturating_add(len);
                for b in blocks {
                    let b_end = start + b.len;
                    if b_end > offset && start < end {
                        out.push((start, b.clone()));
                    }
                    start = b_end;
                }
                Ok(out)
            }
            Some(DfsNode::Dir) => Err(HmrError::Io(format!("{path} is a directory"))),
            None => Err(HmrError::NotFound(path.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct DfsWriter {
    dfs: SimDfs,
    target: HPath,
    buf: Vec<u8>,
}

impl FsWriter for DfsWriter {
    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn close(self: Box<Self>) -> Result<u64> {
        let inner = &*self.dfs.inner;
        // Freeze the buffer once; each block is a zero-copy slice of it.
        let data = Bytes::from(self.buf);
        let total = data.len() as u64;
        // Prefer the writer's own node for the first replica (HDFS
        // write-local affinity); fall back to a path-hash.
        let local = meter::current_meter().map(|m| m.node().id()).unwrap_or_else(|| {
            // Unmetered writers (data generators) spread primaries by a
            // stable hash of the path.
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.target.as_str().hash(&mut h);
            (h.finish() % inner.cluster.len() as u64) as usize
        });
        // Placement is seeded by (path, chunk index), not the block id: the
        // global id counter's values depend on the order concurrent writers
        // reach it, and replica layout (hence later read locality) must not.
        let path_seed = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.target.as_str().hash(&mut h);
            h.finish()
        };
        let ancestors = self.target.parent().map(|p| p.ancestors_inclusive()).unwrap_or_default();

        // Check, then publish, under one namenode lock: a writer that loses
        // a race for the path fails before any of its blocks are stored.
        let mut meta = inner.meta.write();
        let conflict = if meta.contains_key(&self.target) {
            Some(HmrError::AlreadyExists(self.target.to_string()))
        } else {
            ancestors
                .iter()
                .find(|anc| matches!(meta.get(anc), Some(DfsNode::File { .. })))
                .map(|anc| HmrError::Io(format!("{anc} is a file")))
        };
        if let Some(e) = conflict {
            drop(meta);
            self.dfs.charge_namenode();
            return Err(e);
        }
        let block_size = inner.block_size as usize;
        let mut blocks = Vec::with_capacity(data.len().div_ceil(block_size));
        {
            let mut store = inner.blocks.write();
            for (chunk_idx, start) in (0..data.len()).step_by(block_size).enumerate() {
                let chunk = data.slice(start..(start + block_size).min(data.len()));
                let id = inner.next_block.fetch_add(1, Ordering::Relaxed);
                let replicas = inner.policy.place(
                    local,
                    path_seed.wrapping_add(chunk_idx as u64),
                    inner.replication,
                );
                blocks.push(BlockInfo {
                    id,
                    len: chunk.len() as u64,
                    replicas,
                });
                store.insert(id, chunk);
            }
        }
        for anc in ancestors {
            meta.entry(anc).or_insert(DfsNode::Dir);
        }
        meta.insert(
            self.target,
            DfsNode::File {
                blocks: blocks.clone(),
                len: total,
                version: Arc::default(),
            },
        );
        drop(meta);

        trace::span(trace::Phase::Io, "dfs_write", None, || {
            for b in &blocks {
                // Local disk write for the first replica; the replication
                // pipeline moves the block over the network once per extra
                // replica and writes it to that node's disk. All latencies are
                // charged to the writing task (it blocks on the ack chain).
                meter::charge(Charge::DiskWrite { bytes: b.len });
                for _ in 1..b.replicas.len() {
                    meter::charge(Charge::NetTransfer { bytes: b.len });
                    meter::charge(Charge::DiskWrite { bytes: b.len });
                }
            }
        });
        self.dfs.charge_namenode();
        Ok(total)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct DfsReader {
    dfs: SimDfs,
    path: HPath,
    len: u64,
}

impl FsReader for DfsReader {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_range(&mut self, offset: u64, len: u64) -> Result<Bytes> {
        let local = meter::current_meter().map(|m| m.node().id());
        let end = offset.saturating_add(len).min(self.len);
        if offset >= end {
            return Ok(Bytes::new());
        }
        // Gather the per-block handles first (charging as we go), so a
        // range inside one block returns a zero-copy slice of the stored
        // buffer and only multi-block reads pay a concatenation.
        let mut parts: Vec<Bytes> = Vec::new();
        trace::span(trace::Phase::Io, "dfs_read", None, || -> Result<()> {
            for (block_start, info) in
                self.dfs.blocks_in_range(&self.path, offset, end - offset)?
            {
                let bytes = {
                    let blocks = self.dfs.inner.blocks.read();
                    blocks
                        .get(&info.id)
                        .ok_or_else(|| {
                            HmrError::Io(format!("block {} of {} lost", info.id, self.path))
                        })?
                        .clone()
                };
                let from = offset.saturating_sub(block_start).min(info.len) as usize;
                let to = (end - block_start).min(info.len) as usize;
                let slice = bytes.slice(from..to);
                // Disk read at the replica host; network hop when no replica
                // is local to the reading task's node.
                meter::charge(Charge::DiskRead {
                    bytes: slice.len() as u64,
                });
                let is_local = local.map(|n| info.replicas.contains(&n)).unwrap_or(true);
                if !is_local {
                    meter::charge(Charge::NetTransfer {
                        bytes: slice.len() as u64,
                    });
                }
                parts.push(slice);
            }
            Ok(())
        })?;
        if parts.len() == 1 {
            return Ok(parts.pop().expect("one part"));
        }
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in &parts {
            out.extend_from_slice(p);
        }
        Ok(Bytes::from(out))
    }
}

// ---------------------------------------------------------------------------
// FileSystem
// ---------------------------------------------------------------------------

impl FileSystem for SimDfs {
    fn create(&self, path: &HPath) -> Result<Box<dyn FsWriter>> {
        self.charge_namenode();
        if self.inner.meta.read().contains_key(path) {
            return Err(HmrError::AlreadyExists(path.to_string()));
        }
        Ok(Box::new(DfsWriter {
            dfs: self.clone(),
            target: path.clone(),
            buf: Vec::new(),
        }))
    }

    fn open(&self, path: &HPath) -> Result<Box<dyn FsReader>> {
        self.charge_namenode();
        let meta = self.inner.meta.read();
        match meta.get(path) {
            Some(DfsNode::File { len, .. }) => Ok(Box::new(DfsReader {
                dfs: self.clone(),
                path: path.clone(),
                len: *len,
            })),
            Some(DfsNode::Dir) => Err(HmrError::Io(format!("{path} is a directory"))),
            None => Err(HmrError::NotFound(path.to_string())),
        }
    }

    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool> {
        self.charge_namenode();
        let mut meta = self.inner.meta.write();
        match meta.get(path) {
            None => Ok(false),
            Some(DfsNode::File { .. }) => {
                if let Some(DfsNode::File { blocks, .. }) = meta.remove(path) {
                    let mut store = self.inner.blocks.write();
                    for b in blocks {
                        store.remove(&b.id);
                    }
                }
                Ok(true)
            }
            Some(DfsNode::Dir) => {
                let doomed: Vec<HPath> = subtree(&meta, path).map(|(p, _)| p.clone()).collect();
                if doomed.len() > 1 && !recursive {
                    return Err(HmrError::Io(format!("{path} is a non-empty directory")));
                }
                let mut store = self.inner.blocks.write();
                for p in doomed {
                    if let Some(DfsNode::File { blocks, .. }) = meta.remove(&p) {
                        for b in blocks {
                            store.remove(&b.id);
                        }
                    }
                }
                Ok(true)
            }
        }
    }

    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        self.charge_namenode();
        let mut meta = self.inner.meta.write();
        if !meta.contains_key(src) {
            return Err(HmrError::NotFound(src.to_string()));
        }
        if meta.contains_key(dst) {
            return Err(HmrError::AlreadyExists(dst.to_string()));
        }
        let moved: Vec<(HPath, HPath)> = subtree(&meta, src)
            .map(|(p, _)| {
                let suffix = &p.as_str()[src.as_str().len()..];
                (p.clone(), HPath::new(format!("{}{}", dst.as_str(), suffix)))
            })
            .collect();
        for (from, to) in moved {
            let node = meta.remove(&from).expect("listed above");
            meta.insert(to, node);
        }
        if let Some(parent) = dst.parent() {
            for anc in parent.ancestors_inclusive() {
                meta.entry(anc).or_insert(DfsNode::Dir);
            }
        }
        Ok(())
    }

    fn mkdirs(&self, path: &HPath) -> Result<()> {
        self.charge_namenode();
        let mut meta = self.inner.meta.write();
        for anc in path.ancestors_inclusive() {
            match meta.get(&anc) {
                Some(DfsNode::File { .. }) => {
                    return Err(HmrError::Io(format!("{anc} is a file")));
                }
                Some(DfsNode::Dir) => {}
                None => {
                    meta.insert(anc, DfsNode::Dir);
                }
            }
        }
        Ok(())
    }

    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        self.charge_namenode();
        let meta = self.inner.meta.read();
        match meta.get(path) {
            Some(DfsNode::File { len, .. }) => Ok(FileStatus {
                path: path.clone(),
                is_dir: false,
                len: *len,
                block_size: self.inner.block_size,
            }),
            Some(DfsNode::Dir) => Ok(FileStatus {
                path: path.clone(),
                is_dir: true,
                len: 0,
                block_size: self.inner.block_size,
            }),
            None => Err(HmrError::NotFound(path.to_string())),
        }
    }

    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        let status = self.get_file_status(path)?;
        if !status.is_dir {
            return Ok(vec![status]);
        }
        let meta = self.inner.meta.read();
        let mut out = Vec::new();
        for (p, node) in subtree(&meta, path) {
            if p.parent().as_ref() == Some(path) {
                out.push(match node {
                    DfsNode::File { len, .. } => FileStatus {
                        path: p.clone(),
                        is_dir: false,
                        len: *len,
                        block_size: self.inner.block_size,
                    },
                    DfsNode::Dir => FileStatus {
                        path: p.clone(),
                        is_dir: true,
                        len: 0,
                        block_size: self.inner.block_size,
                    },
                });
            }
        }
        Ok(out)
    }

    fn block_locations(&self, path: &HPath, offset: u64, len: u64) -> Result<Vec<Vec<usize>>> {
        self.charge_namenode();
        Ok(self
            .blocks_in_range(path, offset, len)?
            .into_iter()
            .map(|(_, b)| b.replicas)
            .collect())
    }

    fn content_version(&self, path: &HPath) -> Option<u64> {
        // Charged as one namenode round trip, like any stat. A file's first
        // version read also hashes its bytes (wall time only: a real HDFS
        // keeps block checksums beside the data).
        self.charge_namenode();
        // Snapshot under the locks — each file's version cell, plus its
        // block handles while the cell is empty — then hash unlocked.
        let (is_dir, files) = {
            let meta = self.inner.meta.read();
            let store = self.inner.blocks.read();
            let is_dir = matches!(meta.get(path)?, DfsNode::Dir);
            let mut files = Vec::new();
            for (p, node) in subtree(&meta, path) {
                if let DfsNode::File { blocks, version, .. } = node {
                    let parts: Vec<Bytes> = match version.get() {
                        Some(_) => Vec::new(),
                        None => {
                            let parts = blocks.iter().map(|b| store.get(&b.id).cloned());
                            parts.collect::<Option<_>>()?
                        }
                    };
                    files.push((p.clone(), Arc::clone(version), parts));
                }
            }
            (is_dir, files)
        };
        let versions: Vec<(&HPath, u64)> = files
            .iter()
            .map(|(p, cell, parts)| {
                let hash = || parts.iter().fold(FNV1A_SEED, |h, b| fnv1a_extend(h, b));
                (p, *cell.get_or_init(hash))
            })
            .collect();
        if is_dir {
            Some(hmr_api::fs::combine_dir_version(&versions))
        } else {
            versions.first().map(|&(_, v)| v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::fs::{read_file, write_file};
    use simgrid::{Cluster, CostModel, Meter};

    fn dfs(nodes: usize) -> SimDfs {
        SimDfs::with_config(Cluster::new(nodes, CostModel::default()), 1024, 2)
    }

    #[test]
    fn roundtrip_small_file() {
        let fs = dfs(4);
        write_file(&fs, &HPath::new("/a/b"), b"contents").unwrap();
        assert_eq!(read_file(&fs, &HPath::new("/a/b")).unwrap(), b"contents");
        let st = fs.get_file_status(&HPath::new("/a/b")).unwrap();
        assert_eq!(st.len, 8);
        assert!(!st.is_dir);
    }

    #[test]
    fn large_file_splits_into_blocks_with_replicas() {
        let fs = dfs(4);
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        write_file(&fs, &HPath::new("/big"), &data).unwrap();
        let locs = fs.block_locations(&HPath::new("/big"), 0, 3000).unwrap();
        assert_eq!(locs.len(), 3, "3000 bytes / 1024-byte blocks = 3 blocks");
        for replicas in &locs {
            assert_eq!(replicas.len(), 2, "replication factor 2");
            let mut sorted = replicas.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 2, "replicas on distinct nodes");
        }
        assert_eq!(read_file(&fs, &HPath::new("/big")).unwrap(), data);
    }

    #[test]
    fn read_range_spans_block_boundaries() {
        let fs = dfs(3);
        let data: Vec<u8> = (0..2500u32).map(|i| (i % 256) as u8).collect();
        write_file(&fs, &HPath::new("/f"), &data).unwrap();
        let mut r = fs.open(&HPath::new("/f")).unwrap();
        assert_eq!(r.read_range(1000, 200).unwrap(), &data[1000..1200]);
        assert_eq!(r.read_range(0, 2500).unwrap(), data);
        assert_eq!(r.read_range(2400, 500).unwrap(), &data[2400..2500]);
    }

    #[test]
    fn writes_charge_disk_and_replication_network() {
        let cluster = Cluster::new(4, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 3);
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(Meter::new(cluster.node(1).clone()), || {
            write_file(&fs, &HPath::new("/f"), &vec![0u8; 1000]).unwrap();
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert_eq!(d.disk_bytes_written, 3000, "3 replicas hit disk");
        assert!(d.net_bytes >= 2000, "2 replication transfers");
        assert!(cluster.node(1).clock().now() > 0.0);
    }

    #[test]
    fn local_read_charges_no_network() {
        let cluster = Cluster::new(4, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        // Write from node 0 → first replica on node 0.
        simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            write_file(&fs, &HPath::new("/f"), &vec![7u8; 4096]).unwrap();
        });
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            read_file(&fs, &HPath::new("/f")).unwrap();
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert_eq!(d.disk_bytes_read, 4096);
        // Only the namenode chatter crosses the network, not the data.
        assert!(d.net_bytes < 4096, "data read stayed local: {}", d.net_bytes);
    }

    #[test]
    fn remote_read_charges_network() {
        let cluster = Cluster::new(8, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 1);
        simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            write_file(&fs, &HPath::new("/f"), &vec![7u8; 4096]).unwrap();
        });
        let locs = fs.block_locations(&HPath::new("/f"), 0, 4096).unwrap();
        let holder = locs[0][0];
        let reader_node = (holder + 1) % 8;
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(Meter::new(cluster.node(reader_node).clone()), || {
            read_file(&fs, &HPath::new("/f")).unwrap();
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert!(d.net_bytes >= 4096, "remote read crossed the network");
    }

    #[test]
    fn delete_frees_blocks() {
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/d/f"), &vec![0u8; 5000]).unwrap();
        assert!(fs.delete(&HPath::new("/d"), true).unwrap());
        assert!(fs.inner.blocks.read().is_empty(), "blocks reclaimed");
        assert!(!fs.exists(&HPath::new("/d/f")));
    }

    #[test]
    fn rename_preserves_data() {
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/out/temp_1/part-00000"), b"xyz").unwrap();
        fs.rename(&HPath::new("/out/temp_1"), &HPath::new("/out/final"))
            .unwrap();
        assert_eq!(
            read_file(&fs, &HPath::new("/out/final/part-00000")).unwrap(),
            b"xyz"
        );
    }

    #[test]
    fn content_version_is_a_content_hash() {
        let fs = dfs(2);
        let f = HPath::new("/in/f");
        write_file(&fs, &f, b"payload").unwrap();
        let v = fs.content_version(&f).unwrap();
        // Delete-and-rewrite of identical bytes keeps the version (this is
        // what lets deterministic iterative drivers re-fingerprint equal).
        fs.delete(&f, false).unwrap();
        write_file(&fs, &f, b"payload").unwrap();
        assert_eq!(fs.content_version(&f), Some(v));
        // A byte change flips it.
        fs.delete(&f, false).unwrap();
        write_file(&fs, &f, b"Payload").unwrap();
        assert_ne!(fs.content_version(&f), Some(v));
        // Directory version covers the subtree and survives rename of the
        // directory itself only under its new name.
        let dv = fs.content_version(&HPath::new("/in")).unwrap();
        write_file(&fs, &HPath::new("/in/g"), b"more").unwrap();
        assert_ne!(fs.content_version(&HPath::new("/in")), Some(dv));
        assert_eq!(fs.content_version(&HPath::new("/absent")), None);
    }

    fn version_cell(fs: &SimDfs, path: &str) -> Option<u64> {
        match fs.inner.meta.read().get(&HPath::new(path)) {
            Some(DfsNode::File { version, .. }) => version.get().copied(),
            _ => panic!("{path} is not a file"),
        }
    }

    #[test]
    fn multi_block_version_is_fnv1a_of_the_bytes() {
        let fs = dfs(3);
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 31 % 251) as u8).collect();
        write_file(&fs, &HPath::new("/in/big"), &data).unwrap();
        assert_eq!(fs.block_locations(&HPath::new("/in/big"), 0, 5000).unwrap().len(), 5);
        assert_eq!(version_cell(&fs, "/in/big"), None, "close hashes nothing");
        let v = fs.content_version(&HPath::new("/in/big")).unwrap();
        assert_eq!(version_cell(&fs, "/in/big"), Some(v), "cached on first read");
        assert_eq!(v, hmr_api::comparator::fnv1a(&data));
        let mem = hmr_api::fs::MemFs::new();
        write_file(&mem, &HPath::new("/in/big"), &data).unwrap();
        assert_eq!(mem.content_version(&HPath::new("/in/big")), Some(v));
        assert_eq!(fs.content_version(&HPath::new("/in")), mem.content_version(&HPath::new("/in")));

        // Rename keeps the version (the node moves with its cell); a
        // rewrite with different bytes changes it.
        fs.rename(&HPath::new("/in/big"), &HPath::new("/in/moved")).unwrap();
        assert_eq!(fs.content_version(&HPath::new("/in/moved")), Some(v));
        fs.delete(&HPath::new("/in/moved"), false).unwrap();
        let mut changed = data.clone();
        changed[4321] ^= 1;
        write_file(&fs, &HPath::new("/in/moved"), &changed).unwrap();
        let v2 = fs.content_version(&HPath::new("/in/moved")).unwrap();
        assert_ne!(v2, v);
        assert_eq!(v2, hmr_api::comparator::fnv1a(&changed));
        // Empty files version like the empty byte string.
        write_file(&fs, &HPath::new("/in/empty"), b"").unwrap();
        assert_eq!(
            fs.content_version(&HPath::new("/in/empty")),
            Some(hmr_api::comparator::fnv1a(b""))
        );
    }

    #[test]
    fn subtree_walks_skip_siblings_that_sort_inside() {
        // `-` and `.` sort below `/`, so `/in-x` and `/in.bak` fall between
        // `/in` and `/in/a` in key order.
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/in/a"), &vec![1u8; 1500]).unwrap();
        write_file(&fs, &HPath::new("/in/sub/b"), b"b").unwrap();
        write_file(&fs, &HPath::new("/in-x/b"), b"x").unwrap();
        write_file(&fs, &HPath::new("/in.bak"), b"y").unwrap();
        let dir = HPath::new("/in");
        let names: Vec<String> =
            fs.list_status(&dir).unwrap().iter().map(|s| s.path.to_string()).collect();
        assert_eq!(names, vec!["/in/a".to_string(), "/in/sub".to_string()]);
        let expect = hmr_api::fs::combine_dir_version(&[
            (&HPath::new("/in/a"), hmr_api::comparator::fnv1a(&[1u8; 1500])),
            (&HPath::new("/in/sub/b"), hmr_api::comparator::fnv1a(b"b")),
        ]);
        assert_eq!(fs.content_version(&dir), Some(expect));
        assert_eq!(version_cell(&fs, "/in-x/b"), None, "sibling not hashed");

        fs.rename(&dir, &HPath::new("/out")).unwrap();
        assert_eq!(read_file(&fs, &HPath::new("/out/a")).unwrap(), vec![1u8; 1500]);
        assert_eq!(read_file(&fs, &HPath::new("/out/sub/b")).unwrap(), b"b");
        assert!(!fs.exists(&HPath::new("/in/a")), "whole subtree moved");
        assert_eq!(
            fs.content_version(&HPath::new("/out/a")),
            Some(hmr_api::comparator::fnv1a(&[1u8; 1500]))
        );

        assert!(fs.delete(&HPath::new("/out"), true).unwrap());
        assert!(!fs.exists(&HPath::new("/out/a")), "recursive delete reached /out/a");
        assert!(!fs.exists(&HPath::new("/out/sub/b")));
        assert_eq!(fs.inner.blocks.read().len(), 2, "only the siblings' blocks remain");
        assert_eq!(read_file(&fs, &HPath::new("/in-x/b")).unwrap(), b"x");
        assert_eq!(read_file(&fs, &HPath::new("/in.bak")).unwrap(), b"y");
    }

    #[test]
    fn losing_writer_leaves_no_blocks() {
        let fs = dfs(2);
        let p = HPath::new("/race");
        let mut first = fs.create(&p).unwrap();
        let mut second = fs.create(&p).unwrap();
        first.write_all(&vec![1u8; 3000]).unwrap();
        second.write_all(&vec![2u8; 2000]).unwrap();
        assert_eq!(first.close().unwrap(), 3000);
        assert!(matches!(second.close(), Err(HmrError::AlreadyExists(_))));
        let winner: Vec<u64> = match fs.inner.meta.read().get(&p) {
            Some(DfsNode::File { blocks, .. }) => blocks.iter().map(|b| b.id).collect(),
            _ => panic!("winner's file missing"),
        };
        let mut stored: Vec<u64> = fs.inner.blocks.read().keys().copied().collect();
        stored.sort_unstable();
        assert_eq!(stored, winner, "store holds exactly the winner's 3 blocks");
        assert_eq!(read_file(&fs, &p).unwrap(), vec![1u8; 3000]);
    }

    #[test]
    fn writer_under_a_file_fails_cleanly() {
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/f"), b"x").unwrap();
        let mut w = fs.create(&HPath::new("/f/g/h")).unwrap();
        w.write_all(b"data").unwrap();
        assert!(w.close().is_err());
        assert!(!fs.exists(&HPath::new("/f/g")), "no ancestor created on failure");
        assert_eq!(fs.inner.blocks.read().len(), 1);
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/empty"), b"").unwrap();
        assert_eq!(fs.get_file_status(&HPath::new("/empty")).unwrap().len, 0);
        assert!(fs
            .block_locations(&HPath::new("/empty"), 0, 10)
            .unwrap()
            .is_empty());
        assert_eq!(read_file(&fs, &HPath::new("/empty")).unwrap(), b"");
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let fs = SimDfs::with_config(Cluster::free(2), 1024, 5);
        assert_eq!(fs.replication(), 2);
    }

    #[test]
    fn concurrent_writers_distinct_files() {
        let fs = dfs(4);
        std::thread::scope(|s| {
            for i in 0..8 {
                let fs = fs.clone();
                s.spawn(move || {
                    write_file(
                        &fs,
                        &HPath::new(format!("/c/f{i}")),
                        format!("data{i}").as_bytes(),
                    )
                    .unwrap();
                });
            }
        });
        assert_eq!(fs.list_status(&HPath::new("/c")).unwrap().len(), 8);
    }
}
