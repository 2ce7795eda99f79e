//! The in-memory shuffle (paper §3.2.2).
//!
//! Three cost regimes, all observable in the metrics:
//! * **local, `ImmutableOutput`** — the emitted `Arc`s flow straight from
//!   mapper to reducer: zero copies, zero serialization, zero network;
//! * **local, default** — M3R "conservatively make\[s\] a copy of every
//!   key/value pair" (§3.2.2.1) because the Hadoop API permits reuse after
//!   emit: a deep clone is charged, nothing else;
//! * **remote** — pairs are serialized with X10's de-duplicating protocol
//!   (§3.2.2.3) into one stream per (source place, destination place) and
//!   moved over the network after the map barrier.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hmr_api::collect::OutputCollector;
use hmr_api::comparator::{apply_permutation, fnv1a, sort_distinct_raw_keys, SortTuning};
use hmr_api::error::{HmrError, Result};
use hmr_api::partition::Partitioner;
use hmr_api::writable::{ByteReader, Writable};
use simgrid::arena::Arena;
use simgrid::cost::Charge;
use simgrid::meter;
use x10rt::serialize::{DedupMode, Deserializer, SerError, Serializer};

/// Map-task-side collector: partitions emitted pairs, applying the
/// `ImmutableOutput` cloning contract at emit time.
pub struct MapOutputBuffer<K, V> {
    partitioner: Box<dyn Partitioner<K, V>>,
    num_partitions: usize,
    immutable: bool,
    /// Per-partition emitted pairs.
    pub parts: Vec<Vec<(Arc<K>, Arc<V>)>>,
    emitted: u64,
}

impl<K, V> MapOutputBuffer<K, V>
where
    K: Writable + Clone,
    V: Writable + Clone,
{
    /// A buffer for `num_partitions` partitions.
    pub fn new(
        num_partitions: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        immutable: bool,
    ) -> Self {
        Self::with_capacity_hint(num_partitions, partitioner, immutable, 0)
    }

    /// Like [`MapOutputBuffer::new`], but pre-sizes every partition bucket
    /// assuming `expected_records` spread uniformly — the allocation-churn
    /// fix for the repeated doubling a map task otherwise pays per bucket.
    pub fn with_capacity_hint(
        num_partitions: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        immutable: bool,
        expected_records: usize,
    ) -> Self {
        let num_partitions = num_partitions.max(1);
        let per_part = expected_records.div_ceil(num_partitions);
        MapOutputBuffer {
            partitioner,
            num_partitions,
            immutable,
            parts: (0..num_partitions)
                .map(|_| Vec::with_capacity(per_part))
                .collect(),
            emitted: 0,
        }
    }

    /// Pairs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn partition_of(&self, key: &K, value: &V) -> Result<usize> {
        let p = self.partitioner.partition(key, value, self.num_partitions);
        if p >= self.num_partitions {
            return Err(HmrError::InvalidJob(format!(
                "partitioner returned {p} for {} partitions",
                self.num_partitions
            )));
        }
        Ok(p)
    }

    fn push(&mut self, p: usize, key: Arc<K>, value: Arc<V>) {
        let (key, value) = if self.immutable {
            // §4.1: the job promised not to mutate emitted values; alias.
            (key, value)
        } else {
            // §3.2.2.1: "this forces M3R to conservatively make a copy of
            // every key/value pair."
            charge_pair_clone(&*key, &*value);
            (Arc::new((*key).clone()), Arc::new((*value).clone()))
        };
        self.parts[p].push((key, value));
        self.emitted += 1;
    }
}

/// Bill the defensive copy of one emitted pair (§3.2.2.1).
fn charge_pair_clone<K: Writable, V: Writable>(key: &K, value: &V) {
    let bytes = (key.serialized_size() + value.serialized_size()) as u64;
    meter::charge(Charge::Clone { bytes });
    meter::charge(Charge::Alloc { objects: 2 });
}

impl<K, V> OutputCollector<K, V> for MapOutputBuffer<K, V>
where
    K: Writable + Clone,
    V: Writable + Clone,
{
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let p = self.partition_of(&key, &value)?;
        self.push(p, key, value);
        Ok(())
    }
}

/// One partition's map output grouped by key as it is emitted: each
/// distinct key (compared by raw sort form) keeps the first emitted key
/// `Arc` and its values in arrival order, so a duplicate key is dropped
/// right after lookup instead of being buffered until the combiner runs.
pub struct KeyGroups<K, V> {
    /// Raw sort forms of every group's key, back to back.
    raw: Vec<u8>,
    /// Group -> its key's span of `raw`.
    spans: Vec<(usize, usize)>,
    /// Group -> (first emitted key, values in arrival order).
    groups: Vec<(Arc<K>, Vec<Arc<V>>)>,
    /// Open-addressing index over `groups` (linear probing, FNV-1a of the
    /// raw key): a slot holds `group + 1`, 0 is empty.
    table: Vec<u32>,
    records: usize,
}

impl<K, V> KeyGroups<K, V> {
    fn new() -> Self {
        KeyGroups {
            raw: Vec::new(),
            spans: Vec::new(),
            groups: Vec::new(),
            table: Vec::new(),
            records: 0,
        }
    }

    /// Records added.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Add `value` to the group of `raw_key`, creating the group with
    /// `key()` when the raw key is new.
    fn insert(&mut self, raw_key: &[u8], key: impl FnOnce() -> Arc<K>, value: Arc<V>) {
        if self.groups.len() * 2 >= self.table.len() {
            self.grow();
        }
        self.records += 1;
        let mask = self.table.len() - 1;
        let mut slot = fnv1a(raw_key) as usize & mask;
        loop {
            match self.table[slot] {
                0 => break,
                g => {
                    let g = g as usize - 1;
                    let (s, e) = self.spans[g];
                    if &self.raw[s..e] == raw_key {
                        self.groups[g].1.push(value);
                        return;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        let start = self.raw.len();
        self.raw.extend_from_slice(raw_key);
        self.spans.push((start, self.raw.len()));
        self.groups.push((key(), vec![value]));
        self.table[slot] = self.groups.len() as u32;
    }

    /// Double the index (64 slots at first) and re-insert every group.
    fn grow(&mut self) {
        let cap = (self.table.len() * 2).max(64);
        self.table.clear();
        self.table.resize(cap, 0);
        for (g, &(s, e)) in self.spans.iter().enumerate() {
            let mut slot = fnv1a(&self.raw[s..e]) as usize & (cap - 1);
            while self.table[slot] != 0 {
                slot = (slot + 1) & (cap - 1);
            }
            self.table[slot] = g as u32 + 1;
        }
    }

    /// Every record as a pair carrying its group's key: groups in creation
    /// order, values in arrival order.
    pub fn into_pairs(self) -> Vec<(Arc<K>, Arc<V>)> {
        let mut pairs = Vec::with_capacity(self.records);
        for (key, values) in self.groups {
            pairs.extend(values.into_iter().map(|v| (Arc::clone(&key), v)));
        }
        pairs
    }

    /// The groups in ascending raw-key order. For a natural-order job that
    /// is exactly the group order a stable sort of the emitted pairs
    /// followed by grouping yields, with each group's values in the same
    /// (arrival) order — see [`hmr_api::comparator::hash_group_pairs`].
    pub fn drain_sorted(
        mut self,
        tuning: &SortTuning,
        arena: Option<&Arena>,
    ) -> std::vec::IntoIter<(Arc<K>, Vec<Arc<V>>)> {
        let order = sort_distinct_raw_keys(
            self.groups.len(),
            |g| {
                let (s, e) = self.spans[g as usize];
                &self.raw[s..e]
            },
            tuning,
            arena,
        );
        let perm: Vec<u32> = order.iter().map(|&(_, g)| g).collect();
        if let Some(a) = arena {
            a.recycle(order);
        }
        apply_permutation(&mut self.groups, &perm);
        self.groups.into_iter()
    }
}

/// Map-task-side collector for jobs whose combiner input would go through
/// hash-grouped ingest (natural sort and grouping order, hash grouping
/// on): pairs are grouped per partition as they are emitted
/// ([`KeyGroups`]) instead of being buffered and grouped at task end. The
/// cloning contract and its charges are [`MapOutputBuffer`]'s, billed per
/// pair; only the key of a new group is actually copied. A key with no raw
/// sort form flattens the groups into plain buffering for the rest of the
/// task.
pub struct GroupingOutputBuffer<K, V> {
    base: MapOutputBuffer<K, V>,
    /// Per-partition groups; `None` once the task fell back to `base`.
    groups: Option<Vec<KeyGroups<K, V>>>,
    raw_key: Vec<u8>,
}

impl<K, V> GroupingOutputBuffer<K, V>
where
    K: Writable + Clone,
    V: Writable + Clone,
{
    /// Group into `base`'s partitions, with its partitioner and cloning
    /// contract.
    pub fn new(base: MapOutputBuffer<K, V>) -> Self {
        let groups = (0..base.num_partitions).map(|_| KeyGroups::new()).collect();
        GroupingOutputBuffer {
            base,
            groups: Some(groups),
            raw_key: Vec::new(),
        }
    }
}

impl<K, V> OutputCollector<K, V> for GroupingOutputBuffer<K, V>
where
    K: Writable + Clone,
    V: Writable + Clone,
{
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let p = self.base.partition_of(&key, &value)?;
        let Some(groups) = self.groups.as_mut() else {
            self.base.push(p, key, value);
            return Ok(());
        };
        self.raw_key.clear();
        if !key.write_raw_sort_key(&mut self.raw_key) {
            // Flattening keeps each key's records in arrival order, which
            // is all the stable sort downstream needs.
            for (bucket, g) in self.base.parts.iter_mut().zip(groups.drain(..)) {
                bucket.extend(g.into_pairs());
            }
            self.groups = None;
            self.base.push(p, key, value);
            return Ok(());
        }
        let immutable = self.base.immutable;
        let value = if immutable {
            value
        } else {
            charge_pair_clone(&*key, &*value);
            Arc::new((*value).clone())
        };
        let key = || if immutable { key } else { Arc::new((*key).clone()) };
        groups[p].insert(&self.raw_key, key, value);
        self.base.emitted += 1;
        Ok(())
    }
}

/// What a map task collected, per partition.
pub enum MapOutput<K, V> {
    /// Pairs in emission order.
    Flat(Vec<Vec<(Arc<K>, Arc<V>)>>),
    /// Pairs grouped by key at emit time.
    Grouped(Vec<KeyGroups<K, V>>),
}

/// A map task's collector, its representation chosen once per task so the
/// plain path pays nothing for the grouped one.
pub enum MapSink<K, V> {
    /// Buffer every pair ([`MapOutputBuffer`]).
    Flat(MapOutputBuffer<K, V>),
    /// Group by key at emit time ([`GroupingOutputBuffer`]).
    Grouped(GroupingOutputBuffer<K, V>),
}

impl<K, V> MapSink<K, V>
where
    K: Writable + Clone,
    V: Writable + Clone,
{
    /// The collector the mapper emits into.
    pub fn collector(&mut self) -> &mut dyn OutputCollector<K, V> {
        match self {
            MapSink::Flat(b) => b,
            MapSink::Grouped(g) => g,
        }
    }

    /// Pairs emitted so far.
    pub fn emitted(&self) -> u64 {
        match self {
            MapSink::Flat(b) => b.emitted(),
            MapSink::Grouped(g) => g.base.emitted(),
        }
    }

    /// The collected output; a grouping task that fell back yields its
    /// plain buckets.
    pub fn finish(self) -> MapOutput<K, V> {
        match self {
            MapSink::Flat(b) => MapOutput::Flat(b.parts),
            MapSink::Grouped(g) => match g.groups {
                Some(groups) => MapOutput::Grouped(groups),
                None => MapOutput::Flat(g.base.parts),
            },
        }
    }
}

/// One remote shuffle stream under construction: place *P* → place *Q*,
/// shared by every mapper running at *P* (full de-duplication spans them).
pub struct ShuffleStream {
    ser: Serializer,
}

impl ShuffleStream {
    /// An empty stream using `mode`.
    pub fn new(mode: DedupMode) -> Self {
        ShuffleStream {
            ser: Serializer::new(mode),
        }
    }

    /// A stream writing into `buf` (typically drawn from a
    /// [`simgrid::BufPool`]) so warm capacity is reused across waves.
    pub fn with_buffer(buf: BytesMut, mode: DedupMode) -> Self {
        ShuffleStream {
            ser: Serializer::with_buffer(buf, mode),
        }
    }

    /// Reserve room for `additional` encoded bytes (a `serialized_size`
    /// hint plus framing), so pushes append without re-growing.
    pub fn reserve(&mut self, additional: usize) {
        self.ser.reserve(additional);
    }

    /// Append one `(partition, key, value)` record.
    pub fn push<K: Writable + Send + Sync, V: Writable + Send + Sync>(
        &mut self,
        partition: usize,
        key: &Arc<K>,
        value: &Arc<V>,
    ) {
        self.ser.write_u32(partition as u32);
        self.ser.write_arc_with(key, |k, buf| k.write_to(buf));
        self.ser.write_arc_with(value, |v, buf| v.write_to(buf));
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.ser.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ser.is_empty()
    }

    /// Finish the stream: a refcounted handle to the encoded bytes plus
    /// stats. The handle is shared (not copied) with every reader; once the
    /// last reader drops it the buffer can return to a pool.
    pub fn finish(self) -> (Bytes, x10rt::serialize::SerStats) {
        self.ser.finish()
    }
}

fn ser_err(e: SerError) -> HmrError {
    HmrError::Serde(e.to_string())
}

fn read_writable<T: Writable, D: AsRef<[u8]>>(
    d: &mut Deserializer<D>,
) -> std::result::Result<T, SerError> {
    let mut br = ByteReader::new(d.rest());
    let v = T::read_from(&mut br).map_err(|e| SerError::Custom(e.to_string()))?;
    let used = br.position();
    d.advance(used)?;
    Ok(v)
}

/// Iterator over the `(partition, key, value)` records of one shuffle
/// stream. Owns a refcount on the stream storage, so records decode
/// straight out of the shared buffer — no intermediate `Vec` of records is
/// ever materialized on the reduce side.
pub struct StreamRecords<K, V> {
    d: Deserializer<Bytes>,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Iterator for StreamRecords<K, V>
where
    K: Writable + Send + Sync,
    V: Writable + Send + Sync,
{
    type Item = Result<(usize, Arc<K>, Arc<V>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.d.remaining() == 0 {
            return None;
        }
        let d = &mut self.d;
        let rec = (|| {
            let p = d.read_u32().map_err(ser_err)? as usize;
            let k = d.read_arc_with(read_writable::<K, _>).map_err(ser_err)?;
            let v = d.read_arc_with(read_writable::<V, _>).map_err(ser_err)?;
            Ok((p, k, v))
        })();
        if rec.is_err() {
            // A malformed stream cannot be resynchronized; stop after
            // reporting the error once.
            self.d.poison();
        }
        Some(rec)
    }
}

/// Decode a shuffle stream lazily. Back-references reconstruct aliases: a
/// value broadcast to many partitions decodes into many `Arc`s of one
/// allocation. The iterator holds a refcount on `bytes`; dropping it (and
/// every other handle) lets a pool reclaim the buffer.
pub fn decode_stream<K, V>(bytes: Bytes) -> StreamRecords<K, V>
where
    K: Writable + Send + Sync,
    V: Writable + Send + Sync,
{
    StreamRecords {
        d: Deserializer::new(bytes),
        _marker: PhantomData,
    }
}

/// Modelled heap overhead per distinct key admitted to a combine table
/// (map node + key `Arc` bookkeeping), in bytes.
const COMBINE_ENTRY_OVERHEAD: u64 = 48;
/// Modelled heap overhead per absorbed value (one `Arc` slot), in bytes.
const COMBINE_VALUE_OVERHEAD: u64 = 8;

/// A place-level shared combine table (ROADMAP item 3, after the in-node
/// combiners line of work): one table per *destination* place, fed by every
/// map task of the source place, merging equal keys **across tasks** before
/// the shuffle stream serializes anything. Where per-mapper combining only
/// collapses duplicates within one task's output, this collapses them
/// across the whole map wave — on skewed keys that is where most of the
/// remaining shuffle volume lives.
///
/// Determinism contract: entries are keyed by `(partition, serialized key
/// bytes)` in a `BTreeMap`, so the drain order is partition-ascending then
/// key-bytes-ascending regardless of absorption interleaving; values within
/// one key group stay in arrival order, which the engine guarantees is task
/// order (buckets are absorbed on the place thread in task order). Equal
/// keys therefore tie-break on task order, and the job's combiner must be
/// associative + commutative (see `hmr_api::conf::PLACE_COMBINE`).
pub struct CombineTable<K, V> {
    entries: BTreeMap<(usize, Vec<u8>), (Arc<K>, Vec<Arc<V>>)>,
    bytes: u64,
    records: u64,
}

impl<K, V> Default for CombineTable<K, V>
where
    K: Writable,
    V: Writable,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> CombineTable<K, V>
where
    K: Writable,
    V: Writable,
{
    /// An empty table.
    pub fn new() -> Self {
        CombineTable {
            entries: BTreeMap::new(),
            bytes: 0,
            records: 0,
        }
    }

    /// True when nothing has been absorbed since the last drain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct `(partition, key)` groups currently held.
    pub fn groups(&self) -> usize {
        self.entries.len()
    }

    /// Records absorbed since the last drain.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Approximate live bytes held (serialized key + value sizes plus
    /// modelled per-entry overhead) — what the memory accountant should
    /// carry under `MemClass::Combine`.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Absorb one `(partition, key, value)` record, merging it into the
    /// group of any previously absorbed equal key. Returns `(grew_bytes,
    /// key_bytes)`: how many accountable bytes the table grew by, and the
    /// encoded key length (the serialization work the caller should bill
    /// for admission).
    pub fn absorb(&mut self, partition: usize, key: &Arc<K>, value: &Arc<V>) -> (u64, u64) {
        let mut kbytes = Vec::with_capacity(key.serialized_size());
        key.write_to(&mut kbytes);
        let klen = kbytes.len() as u64;
        let vlen = value.serialized_size() as u64;
        let grew = match self.entries.entry((partition, kbytes)) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().1.push(Arc::clone(value));
                vlen + COMBINE_VALUE_OVERHEAD
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((Arc::clone(key), vec![Arc::clone(value)]));
                klen + COMBINE_ENTRY_OVERHEAD + vlen + COMBINE_VALUE_OVERHEAD
            }
        };
        self.bytes += grew;
        self.records += 1;
        (grew, klen)
    }

    /// Drain every group in deterministic order — partition ascending, then
    /// serialized key bytes ascending; each group's values in arrival (task)
    /// order — resetting the table to empty.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, Arc<K>, Vec<Arc<V>>)> {
        self.bytes = 0;
        self.records = 0;
        std::mem::take(&mut self.entries)
            .into_iter()
            .map(|((p, _), (k, vs))| (p, k, vs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::partition::FnPartitioner;
    use hmr_api::writable::{BytesWritable, IntWritable};

    fn modulo_partitioner() -> Box<dyn Partitioner<IntWritable, BytesWritable>> {
        Box::new(FnPartitioner::new(|k: &IntWritable, _: &BytesWritable, n| {
            k.0 as usize % n
        }))
    }

    #[test]
    fn immutable_buffer_aliases() {
        let mut buf = MapOutputBuffer::new(4, modulo_partitioner(), true);
        let k = Arc::new(IntWritable(5));
        let v = Arc::new(BytesWritable(vec![1, 2, 3]));
        buf.collect(Arc::clone(&k), Arc::clone(&v)).unwrap();
        assert!(Arc::ptr_eq(&buf.parts[1][0].0, &k));
        assert!(Arc::ptr_eq(&buf.parts[1][0].1, &v));
    }

    #[test]
    fn mutable_buffer_copies_and_charges() {
        let cluster = simgrid::Cluster::new(1, simgrid::CostModel::default());
        let k = Arc::new(IntWritable(5));
        let v = Arc::new(BytesWritable(vec![1, 2, 3]));
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
            let mut buf = MapOutputBuffer::new(4, modulo_partitioner(), false);
            buf.collect(Arc::clone(&k), Arc::clone(&v)).unwrap();
            assert!(!Arc::ptr_eq(&buf.parts[1][0].0, &k), "defensive copy");
            assert_eq!(*buf.parts[1][0].1, *v, "copy equals the original");
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert!(d.clone_bytes > 0, "clone cost charged");
        assert_eq!(d.allocs, 2);
        assert_eq!(d.ser_bytes, 0, "local path never serializes");
    }

    #[test]
    fn stream_roundtrip_with_partitions() {
        let mut s = ShuffleStream::new(DedupMode::Off);
        for i in 0..10 {
            s.push(
                i % 3,
                &Arc::new(IntWritable(i as i32)),
                &Arc::new(BytesWritable(vec![i as u8])),
            );
        }
        let (bytes, _) = s.finish();
        let recs: Vec<_> = decode_stream::<IntWritable, BytesWritable>(bytes)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(recs.len(), 10);
        for (i, (p, k, v)) in recs.iter().enumerate() {
            assert_eq!(*p, i % 3);
            assert_eq!(k.0, i as i32);
            assert_eq!(v.0, vec![i as u8]);
        }
    }

    #[test]
    fn broadcast_value_deduplicates_and_aliases_on_arrival() {
        // The matvec broadcast idiom: one V block sent to every partition.
        let v = Arc::new(BytesWritable(vec![9u8; 1000]));
        let mut s = ShuffleStream::new(DedupMode::Full);
        for p in 0..20 {
            s.push(p, &Arc::new(IntWritable(p as i32)), &v);
        }
        let (bytes, stats) = s.finish();
        assert_eq!(stats.dedup_hits, 19, "19 of 20 copies replaced by backrefs");
        assert!(
            (bytes.len() as u64) < 2_200,
            "~1 payload + framing, got {}",
            bytes.len()
        );
        let recs: Vec<_> = decode_stream::<IntWritable, BytesWritable>(bytes)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(recs.len(), 20);
        for w in recs.windows(2) {
            assert!(
                Arc::ptr_eq(&w[0].2, &w[1].2),
                "receiver holds aliases of one copy"
            );
        }
    }

    #[test]
    fn consecutive_mode_still_catches_broadcast_loops() {
        // §6.3's proposed fix: the broadcast value repeats with only a
        // fresh key between occurrences, which the sliding window catches —
        // while memory stays O(1) instead of O(values sent).
        let v = Arc::new(BytesWritable(vec![7u8; 500]));
        let mut s = ShuffleStream::new(DedupMode::Consecutive);
        for p in 0..10 {
            s.push(p, &Arc::new(IntWritable(p as i32)), &v);
        }
        let (bytes, stats) = s.finish();
        assert_eq!(stats.dedup_hits, 9, "value sent once, 9 backrefs");
        assert!(stats.values_retained <= 4, "O(1) retention");
        let recs: Vec<_> = decode_stream::<IntWritable, BytesWritable>(bytes)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(recs.len(), 10);
        for w in recs.windows(2) {
            assert!(Arc::ptr_eq(&w[0].2, &w[1].2));
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut s = ShuffleStream::new(DedupMode::Off);
        s.push(0, &Arc::new(IntWritable(1)), &Arc::new(BytesWritable(vec![1])));
        let (bytes, _) = s.finish();
        let bytes = bytes.slice(..bytes.len() - 1);
        let res: Result<Vec<_>> =
            decode_stream::<IntWritable, BytesWritable>(bytes).collect();
        assert!(res.is_err());
    }

    #[test]
    fn combine_table_merges_and_drains_deterministically() {
        let mut t: CombineTable<IntWritable, IntWritable> = CombineTable::new();
        // Absorb in a scrambled order; equal keys across "tasks" merge.
        t.absorb(1, &Arc::new(IntWritable(9)), &Arc::new(IntWritable(100)));
        t.absorb(0, &Arc::new(IntWritable(4)), &Arc::new(IntWritable(1)));
        t.absorb(1, &Arc::new(IntWritable(9)), &Arc::new(IntWritable(200)));
        t.absorb(0, &Arc::new(IntWritable(2)), &Arc::new(IntWritable(7)));
        t.absorb(0, &Arc::new(IntWritable(4)), &Arc::new(IntWritable(2)));
        assert_eq!(t.records(), 5);
        assert_eq!(t.groups(), 3);
        let drained: Vec<_> = t
            .drain()
            .map(|(p, k, vs)| (p, k.0, vs.iter().map(|v| v.0).collect::<Vec<_>>()))
            .collect();
        // Partition-ascending, then key-bytes-ascending; values in arrival
        // (task) order within each group.
        assert_eq!(
            drained,
            vec![
                (0, 2, vec![7]),
                (0, 4, vec![1, 2]),
                (1, 9, vec![100, 200]),
            ]
        );
        assert!(t.is_empty(), "drain resets the table");
        assert_eq!(t.bytes(), 0);
        assert_eq!(t.records(), 0);
    }

    #[test]
    fn combine_table_byte_accounting_grows_per_absorb() {
        let mut t: CombineTable<IntWritable, BytesWritable> = CombineTable::new();
        let k = Arc::new(IntWritable(1));
        let (g1, klen) = t.absorb(0, &k, &Arc::new(BytesWritable(vec![0u8; 10])));
        assert_eq!(klen, k.serialized_size() as u64);
        assert!(g1 > 10, "first absorb pays key + entry overhead");
        let (g2, _) = t.absorb(0, &k, &Arc::new(BytesWritable(vec![0u8; 10])));
        assert!(g2 < g1, "merging into an existing group is cheaper");
        assert_eq!(t.bytes(), g1 + g2);
    }

    #[test]
    fn grouping_buffer_charges_per_pair_but_copies_only_new_keys() {
        let pairs: Vec<(Arc<IntWritable>, Arc<BytesWritable>)> = [5, 9, 5, 5, 1]
            .iter()
            .map(|&k| (Arc::new(IntWritable(k)), Arc::new(BytesWritable(vec![k as u8; 3]))))
            .collect();
        for immutable in [true, false] {
            let cluster = simgrid::Cluster::new(1, simgrid::CostModel::default());
            let metered = |sink: &mut MapSink<IntWritable, BytesWritable>| {
                let before = cluster.metrics().snapshot();
                simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
                    for (k, v) in &pairs {
                        sink.collector().collect(Arc::clone(k), Arc::clone(v)).unwrap();
                    }
                });
                cluster.metrics().snapshot().since(&before)
            };
            let mut flat = MapSink::Flat(MapOutputBuffer::new(2, modulo_partitioner(), immutable));
            let mut grouped = MapSink::Grouped(GroupingOutputBuffer::new(MapOutputBuffer::new(
                2,
                modulo_partitioner(),
                immutable,
            )));
            assert_eq!(metered(&mut flat), metered(&mut grouped), "same bill");
            assert_eq!(grouped.emitted(), 5);
            let MapOutput::Grouped(parts) = grouped.finish() else {
                panic!("IntWritable has a raw form");
            };
            assert_eq!((parts[0].records(), parts[1].records()), (0, 5));
            let groups: Vec<_> = parts
                .into_iter()
                .nth(1)
                .unwrap()
                .drain_sorted(&SortTuning::default(), None)
                .collect();
            let keys: Vec<i32> = groups.iter().map(|(k, _)| k.0).collect();
            assert_eq!(keys, vec![1, 5, 9], "ascending key order");
            let fives = &groups[1];
            assert_eq!(fives.1.len(), 3);
            // The group keeps the first emitted key: aliased under
            // `ImmutableOutput`, a private copy otherwise.
            assert_eq!(Arc::ptr_eq(&fives.0, &pairs[0].0), immutable);
            for (v, src) in fives.1.iter().zip([0, 2, 3]) {
                assert_eq!(Arc::ptr_eq(v, &pairs[src].1), immutable);
            }
        }
    }

    #[test]
    fn bad_partition_from_partitioner_is_rejected() {
        let mut buf: MapOutputBuffer<IntWritable, BytesWritable> = MapOutputBuffer::new(
            2,
            Box::new(FnPartitioner::new(|_: &IntWritable, _: &BytesWritable, _| 7)),
            true,
        );
        assert!(buf
            .collect(Arc::new(IntWritable(0)), Arc::new(BytesWritable(vec![])))
            .is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use hmr_api::writable::{BytesWritable, IntWritable};
    use proptest::prelude::*;

    fn mode_strategy() -> impl Strategy<Value = DedupMode> {
        prop_oneof![
            Just(DedupMode::Full),
            Just(DedupMode::Consecutive),
            Just(DedupMode::Off),
        ]
    }

    proptest! {
        /// Streams decode back to exactly what was pushed, in order, for
        /// every de-duplication mode and any aliasing pattern (shared Arcs
        /// simulate broadcast reuse).
        #[test]
        fn stream_roundtrips_under_all_modes(
            records in proptest::collection::vec(
                (0usize..8, 0u8..4, proptest::collection::vec(any::<u8>(), 0..16)),
                0..80,
            ),
            mode in mode_strategy(),
        ) {
            // A small pool of shared values: index 0..4 alias each other.
            let pool: Vec<Arc<BytesWritable>> = (0..4)
                .map(|i| Arc::new(BytesWritable(vec![i as u8; 8])))
                .collect();
            let mut stream = ShuffleStream::new(mode);
            let mut expect = Vec::new();
            for (p, pool_idx, fresh) in &records {
                // Alternate between pooled (aliased) and fresh values.
                let value = if fresh.is_empty() {
                    Arc::clone(&pool[*pool_idx as usize])
                } else {
                    Arc::new(BytesWritable(fresh.clone()))
                };
                let key = Arc::new(IntWritable(*p as i32));
                stream.push(*p, &key, &value);
                expect.push((*p, key.0, value.0.clone()));
            }
            let (bytes, stats) = stream.finish();
            let decoded: Vec<_> = decode_stream::<IntWritable, BytesWritable>(bytes)
                .collect::<Result<_>>()
                .unwrap();
            prop_assert_eq!(decoded.len(), expect.len());
            for ((p, k, v), (ep, ek, ev)) in decoded.iter().zip(&expect) {
                prop_assert_eq!(p, ep);
                prop_assert_eq!(k.0, *ek);
                prop_assert_eq!(&v.0, ev);
            }
            // Dedup can only ever shrink the stream.
            if mode == DedupMode::Off {
                prop_assert_eq!(stats.dedup_hits, 0);
            }
        }

        /// Full de-duplication never sends more payload bytes than Off.
        #[test]
        fn full_dedup_never_larger(
            repeats in 1usize..40,
        ) {
            let v = Arc::new(BytesWritable(vec![7u8; 64]));
            let sizes: Vec<u64> = [DedupMode::Full, DedupMode::Off]
                .iter()
                .map(|mode| {
                    let mut s = ShuffleStream::new(*mode);
                    for i in 0..repeats {
                        s.push(i % 4, &Arc::new(IntWritable(i as i32)), &v);
                    }
                    s.finish().1.total_bytes
                })
                .collect();
            prop_assert!(sizes[0] <= sizes[1]);
        }
    }
}

#[cfg(test)]
mod grouping_prop_tests {
    use super::*;
    use hmr_api::comparator::{ingest_reduce_groups, KeyComparator};
    use hmr_api::conf::JobConf;
    use hmr_api::counters::TaskContext;
    use hmr_api::distcache::DistCache;
    use hmr_api::partition::FnPartitioner;
    use hmr_api::task::TaskMapper;
    use hmr_api::writable::{to_bytes, ByteSink, IntWritable};
    use proptest::prelude::*;

    /// A key with a raw sort form only when non-negative: a negative key
    /// arriving mid-task makes the grouping collector fall back to plain
    /// buffering.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct PartlyRaw(i32);

    impl Writable for PartlyRaw {
        fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
            out.put_slice(&self.0.to_le_bytes());
        }
        fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
            Ok(PartlyRaw(i32::from_le_bytes(
                input.read_bytes(4)?.try_into().unwrap(),
            )))
        }
        fn write_raw_sort_key<S: ByteSink + ?Sized>(&self, out: &mut S) -> bool {
            if self.0 < 0 {
                return false;
            }
            out.put_slice(&(self.0 as u32).to_be_bytes());
            true
        }
    }

    /// Emits each input pair from `map`, then `tail` from `cleanup`.
    struct Script {
        tail: Vec<(i32, i32)>,
    }

    impl TaskMapper<PartlyRaw, IntWritable, PartlyRaw, IntWritable> for Script {
        fn map(
            &mut self,
            key: Arc<PartlyRaw>,
            value: Arc<IntWritable>,
            out: &mut dyn OutputCollector<PartlyRaw, IntWritable>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.collect(key, value)
        }
        fn cleanup(
            &mut self,
            out: &mut dyn OutputCollector<PartlyRaw, IntWritable>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            for &(k, v) in &self.tail {
                out.collect(Arc::new(PartlyRaw(k)), Arc::new(IntWritable(v)))?;
            }
            Ok(())
        }
    }

    /// Per partition: `(key bytes, value bytes in order)` per group, and
    /// the record count.
    type Grouped = Vec<(Vec<(Vec<u8>, Vec<Vec<u8>>)>, usize)>;

    fn run(
        mut sink: MapSink<PartlyRaw, IntWritable>,
        input: &[(i32, i32)],
        tail: &[(i32, i32)],
    ) -> (u64, Grouped) {
        let mut ctx = TaskContext::new("t", Arc::new(JobConf::new()), Arc::new(DistCache::default()));
        let mut mapper = Script { tail: tail.to_vec() };
        let out = sink.collector();
        for &(k, v) in input {
            mapper
                .map(Arc::new(PartlyRaw(k)), Arc::new(IntWritable(v)), out, &mut ctx)
                .unwrap();
        }
        mapper.cleanup(out, &mut ctx).unwrap();
        let emitted = sink.emitted();
        let encode = |k: &PartlyRaw, vs: Vec<Vec<u8>>| (to_bytes(k), vs);
        let tuning = SortTuning::default();
        let nat = KeyComparator::<PartlyRaw>::natural();
        let parts = match sink.finish() {
            MapOutput::Flat(parts) => parts
                .into_iter()
                .map(|mut bucket| {
                    let n = bucket.len();
                    let spans = ingest_reduce_groups(&mut bucket, &nat, &nat, &tuning, None);
                    let groups = spans
                        .into_iter()
                        .map(|span| {
                            let vs = bucket[span.clone()].iter().map(|(_, v)| to_bytes(&**v));
                            encode(&bucket[span.start].0, vs.collect())
                        })
                        .collect();
                    (groups, n)
                })
                .collect(),
            MapOutput::Grouped(parts) => parts
                .into_iter()
                .map(|g| {
                    let n = g.records();
                    let groups = g
                        .drain_sorted(&tuning, None)
                        .map(|(k, vs)| encode(&k, vs.iter().map(|v| to_bytes(&**v)).collect()))
                        .collect();
                    (groups, n)
                })
                .collect(),
        };
        (emitted, parts)
    }

    fn partitioner() -> Box<dyn Partitioner<PartlyRaw, IntWritable>> {
        Box::new(FnPartitioner::new(|k: &PartlyRaw, _: &IntWritable, n| {
            k.0.rem_euclid(n as i32) as usize
        }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Grouping at emit time and draining in raw-key order yields the
        /// groups, value order and counts that buffering every pair and
        /// running hash-grouped ingest yields — with or without the
        /// defensive copy, for pairs emitted in `cleanup`, for 0- and
        /// 1-record partitions, and when a key with no raw form (negative
        /// here) forces the fallback mid-task.
        #[test]
        fn grouping_at_emit_matches_flat_ingest(
            mut input in proptest::collection::vec((0i32..12, 0i32..1000), 0..80),
            tail in proptest::collection::vec((-1i32..12, 0i32..1000), 0..6),
            no_raw_at in 0usize..160,
            partitions in 1usize..6,
            immutable in any::<bool>(),
        ) {
            if let Some(pair) = input.get_mut(no_raw_at) {
                pair.0 = -1;
            }
            let flat = MapSink::Flat(MapOutputBuffer::new(partitions, partitioner(), immutable));
            let grouped = MapSink::Grouped(GroupingOutputBuffer::new(MapOutputBuffer::new(
                partitions,
                partitioner(),
                immutable,
            )));
            let (flat_n, flat_groups) = run(flat, &input, &tail);
            let (grouped_n, grouped_groups) = run(grouped, &input, &tail);
            prop_assert_eq!(flat_n, (input.len() + tail.len()) as u64);
            prop_assert_eq!(grouped_n, flat_n);
            prop_assert_eq!(grouped_groups, flat_groups);
        }
    }
}
