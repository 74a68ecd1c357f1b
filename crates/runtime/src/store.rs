//! View storage: keyed multiplicity maps with secondary indexes.
//!
//! The runtime stores every materialized view (and, in the baseline modes, the base
//! relations) as a [`ViewMap`]: a hash map from key tuples to multiplicities, plus
//! lazily-built secondary indexes for the partial-key binding patterns that trigger
//! statements actually use. This mirrors Section 7.1 of the paper, where the generated
//! C++ uses Boost Multi-Index containers with one secondary index per binding pattern.
//!
//! ## Hot-path design
//!
//! * **Keys are [`Tuple`]s** — inline up to arity `INLINE_CAP` (3), cheap to clone (at most a few
//!   `Value` copies or one `Arc` bump), hashed with the fast deterministic
//!   [`FastMap`] hasher. A single-tuple view update is one hash probe with no key
//!   allocation.
//! * **Cursor reads** — [`ViewMap::for_each`] streams *borrowed* `(&[Value], f64)`
//!   entries to a visitor; nothing on the read path clones a key. The collecting
//!   [`ViewMap::lookup`] remains for tests and cold callers.
//! * **Index maintenance pays only when indexes exist** — [`ViewMap::add`] takes the
//!   fast path (a single map probe, zero clones) until the first partial-pattern
//!   lookup creates a secondary index; afterwards every write mirrors the new
//!   multiplicity into each index bucket (one probe per index; the key is cloned
//!   only when the entry is new). Buckets store `(key, multiplicity)`, so a
//!   partial-pattern scan is pure bucket iteration with no per-entry probe back
//!   into the primary map — the cost profile compiled trigger kernels rely on.
//! * **Cost model** — [`ViewMap::approx_bytes`] charges each entry its map-slot
//!   footprint; spilled (arity > 4) tuples add their shared value slab. `Value`
//!   itself is 24 bytes inline; string values are interned `Arc<str>`s whose bodies
//!   are shared, and dates are plain `yyyymmdd` longs, so the slab estimate does not
//!   double-count string storage.
//!
//! Secondary indexes live behind an [`RwLock`] so that read-only evaluation (through
//! the [`RelationSource`] trait) can build an index on first use; afterwards every
//! partial lookup is a hash probe, which is what gives compiled trigger statements
//! their constant-time behaviour.
//!
//! ## Ordered aggregate indexes
//!
//! Inequality-correlated nested aggregates (`Sum(M(p2) * (p2 > p))`, the
//! finance queries' shape) ask for the multiplicity sum of one bucket's
//! entries whose free key column lies in a range. [`ViewMap::range_sum`]
//! answers that from an ordered aggregate index: hashed on the bound key
//! prefix, each bucket a treap ordered on the free column with subtree sums.
//! It follows the secondary-index lifecycle exactly — built lazily on first
//! use, maintained in O(log n) on every write, cleared with the view, held
//! behind `Arc`s in an `RwLock` registry — and, being derived state, never
//! reaches a checkpoint or the WAL. It answers only when the result is
//! bit-identical to a traversal (the guards are documented in `ordered.rs`);
//! otherwise the caller traverses.

use crate::ordered::SumTree;
use dbtoaster_agca::eval::{EvalError, KeyRange, RelationSource};
use dbtoaster_gmr::hash::fast_map_with_capacity;
use dbtoaster_gmr::{FastMap, Gmr, Schema, Tuple, Value};
use parking_lot::RwLock;
use std::sync::Arc;

/// A secondary index: projected key → (full key → multiplicity). Multiplicities
/// are mirrored into the buckets so a partial-pattern scan is pure iteration —
/// no per-entry probe back into the primary map. Maintenance is O(1) per write
/// per index (one bucket probe), paid only by views that both receive writes
/// and serve partial-pattern lookups.
type Index = FastMap<Tuple, FastMap<Tuple, f64>>;
/// Indexes are held behind `Arc`s so a scan can clone the handle and release
/// the registry lock *before* iterating. Compiled trigger kernels re-enter
/// scans from inside scan callbacks (nested sub-aggregates over the same
/// view); holding the read guard across the visit would self-deadlock against
/// a nested `ensure_index` write. Mutation goes through `Arc::make_mut`,
/// which never actually copies on the engine's single-threaded write path
/// (no scan handle is alive while `&mut self` methods run).
type IndexRegistry = FastMap<u64, Arc<Index>>;
/// Ordered aggregate indexes: ordered column → (every other key position's
/// values → that bucket's tree). Same `Arc` discipline as [`IndexRegistry`].
type OrderedRegistry = FastMap<u16, Arc<FastMap<Tuple, SumTree>>>;
/// A cached snapshot: the shared map and the view version it reflects.
type SnapshotCache = Option<(u64, Arc<FastMap<Tuple, f64>>)>;

/// A materialized view: tuples over a fixed-arity key mapped to `f64` multiplicities,
/// with secondary hash indexes per binding pattern.
///
/// [`ViewMap::to_gmr`] hands out an immutable *shared* snapshot of the map
/// ([`Gmr::from_shared`]) through a version-stamped cache: repeated snapshots
/// of an unmutated view are O(1) Arc clones, and the O(n) copy is paid at most
/// once per snapshot-after-mutation — at snapshot time, never on the write
/// path. Writes stay plain hash-map operations with zero synchronization
/// overhead (a version bump is one integer increment); this is what lets the
/// serving layer publish consistent snapshots per micro-batch without slowing
/// the single-threaded trigger hot path.
#[derive(Debug)]
pub struct ViewMap {
    schema: Schema,
    data: FastMap<Tuple, f64>,
    /// Bumped on every mutation; stamps the snapshot cache.
    version: u64,
    /// Last snapshot handed out, valid while its version matches.
    snapshot_cache: RwLock<SnapshotCache>,
    /// Secondary indexes: bitmask of bound key positions → shared index.
    indexes: RwLock<IndexRegistry>,
    /// Ordered aggregate indexes (see the module docs).
    ordered: RwLock<OrderedRegistry>,
}

impl Clone for ViewMap {
    fn clone(&self) -> Self {
        ViewMap {
            schema: self.schema.clone(),
            data: self.data.clone(),
            version: self.version,
            snapshot_cache: RwLock::new(self.snapshot_cache.read().clone()),
            indexes: RwLock::new(self.indexes.read().clone()),
            ordered: RwLock::new(self.ordered.read().clone()),
        }
    }
}

impl ViewMap {
    /// An empty view with the given key schema.
    pub fn new(schema: Schema) -> Self {
        ViewMap {
            schema,
            data: FastMap::default(),
            version: 0,
            snapshot_cache: RwLock::new(None),
            indexes: RwLock::new(IndexRegistry::default()),
            ordered: RwLock::new(OrderedRegistry::default()),
        }
    }

    /// The key schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Multiplicity of a key (0.0 when absent).
    pub fn get(&self, key: &[Value]) -> f64 {
        self.data.get(key).copied().unwrap_or(0.0)
    }

    /// Iterate `(key, multiplicity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.data.iter().map(|(k, &m)| (k, m))
    }

    /// Add `mult` to the entry for `key`, removing it if the result is zero.
    ///
    /// With no secondary indexes this is a single map probe and never clones
    /// the key; once indexes exist, the key is cloned only when the entry set
    /// changes (insert of a new key or removal of a cancelled one).
    pub fn add(&mut self, key: impl Into<Tuple>, mult: f64) {
        if mult == 0.0 {
            return;
        }
        self.version = self.version.wrapping_add(1);
        self.add_unversioned(key.into(), mult);
    }

    /// Apply a pre-buffered row batch: every surviving (non-zero) row is added
    /// in iteration order, with **one** version bump — i.e. one snapshot-cache
    /// invalidation — for the whole batch instead of one per write, and
    /// `on_write` invoked per applied row (the engine's change-log hook).
    pub fn add_rows<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a Tuple, f64)>,
        on_write: &mut dyn FnMut(&Tuple),
    ) {
        let mut bumped = false;
        for (key, mult) in rows {
            if mult == 0.0 {
                continue;
            }
            if !bumped {
                self.version = self.version.wrapping_add(1);
                bumped = true;
            }
            on_write(key);
            self.add_unversioned(key.clone(), mult);
        }
    }

    /// The shared write path behind [`ViewMap::add`] / [`ViewMap::add_rows`]:
    /// everything except the version bump. `mult` must be non-zero.
    fn add_unversioned(&mut self, key: Tuple, mult: f64) {
        debug_assert_eq!(key.len(), self.schema.arity(), "key arity mismatch");
        use std::collections::hash_map::Entry;

        let indexes = self.indexes.get_mut();
        let ordered = self.ordered.get_mut();
        if indexes.is_empty() && ordered.is_empty() {
            // Fast path: no index maintenance, no key clone.
            match self.data.entry(key) {
                Entry::Occupied(mut o) => {
                    let v = o.get_mut();
                    *v += mult;
                    if *v == 0.0 {
                        o.remove();
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(mult);
                }
            }
            return;
        }

        // The ordered indexes identify an entry by the key it is *stored*
        // under: `0` and `-0.0` (or two NaN payloads) are one map entry but
        // distinct positions under the ordering.
        let (removed, new_mult, stored) = match self.data.entry(key.clone()) {
            Entry::Occupied(mut o) => {
                let stored = (!ordered.is_empty()).then(|| o.key().clone());
                let v = o.get_mut();
                *v += mult;
                if *v == 0.0 {
                    o.remove();
                    (true, 0.0, stored)
                } else {
                    (false, *v, stored)
                }
            }
            Entry::Vacant(v) => {
                v.insert(mult);
                (false, mult, None)
            }
        };
        if !ordered.is_empty() {
            let is_new = stored.is_none();
            let stored = stored.as_ref().unwrap_or(&key);
            for (&col, index) in ordered.iter_mut() {
                let index = Arc::make_mut(index);
                let prefix = project_except(stored, col);
                let k = &stored[col as usize];
                if removed {
                    if let Some(tree) = index.get_mut(&prefix) {
                        tree.remove(k);
                        if tree.is_empty() {
                            index.remove(&prefix);
                        }
                    }
                } else if is_new {
                    index.entry(prefix).or_default().insert(k, new_mult);
                } else if let Some(tree) = index.get_mut(&prefix) {
                    tree.update(k, new_mult);
                }
            }
        }
        for (mask, index) in indexes.iter_mut() {
            let index = Arc::make_mut(index);
            let proj = project_mask(&key, *mask);
            if removed {
                if let Some(bucket) = index.get_mut(&proj) {
                    bucket.remove(key.as_slice());
                    if bucket.is_empty() {
                        index.remove(&proj);
                    }
                }
            } else {
                // Mirror the new multiplicity into the bucket (overwriting in
                // place when the entry already exists, so multiplicity-only
                // updates cost one probe and no key clone).
                let bucket = index.entry(proj).or_default();
                match bucket.get_mut(key.as_slice()) {
                    Some(slot) => *slot = new_mult,
                    None => {
                        bucket.insert(key.clone(), new_mult);
                    }
                }
            }
        }
    }

    /// Remove all entries (used by `:=` statements).
    pub fn clear(&mut self) {
        self.version = self.version.wrapping_add(1);
        self.data.clear();
        self.indexes.get_mut().clear();
        self.ordered.get_mut().clear();
    }

    /// Stream the entries matching a partial binding pattern into `visit`,
    /// borrowing keys straight out of the store. Builds a secondary index for
    /// the pattern's mask on first use; subsequent lookups are hash probes.
    pub fn for_each(&self, pattern: &[Option<Value>], visit: &mut dyn FnMut(&[Value], f64)) {
        debug_assert_eq!(pattern.len(), self.schema.arity());
        let mask = pattern_mask(pattern);
        if mask == 0 {
            for (k, &m) in self.data.iter() {
                visit(k, m);
            }
            return;
        }
        let arity = self.schema.arity();
        if arity <= 63 && mask == (1u64 << arity) - 1 {
            // Fully bound: a single primary probe.
            let key: Tuple = pattern.iter().map(|p| p.clone().unwrap()).collect();
            if let Some(&m) = self.data.get(key.as_slice()) {
                visit(&key, m);
            }
            return;
        }
        self.ensure_index(mask);
        let probe: Tuple = pattern.iter().flatten().cloned().collect();
        // Clone the index handle and drop the registry guard before visiting:
        // visitors may re-enter `for_each` (compiled kernels nest scans), and
        // a nested `ensure_index` must be able to take the write lock.
        let index = self.indexes.read().get(&mask).cloned();
        if let Some(bucket) = index.as_ref().and_then(|idx| idx.get(&probe)) {
            for (k, &m) in bucket.iter() {
                visit(k, m);
            }
        }
    }

    /// Entries matching a partial binding pattern, collected into a vector.
    /// Prefer [`ViewMap::for_each`] on hot paths.
    pub fn lookup(&self, pattern: &[Option<Value>]) -> Vec<(Tuple, f64)> {
        let mut out = Vec::new();
        self.for_each(pattern, &mut |k, m| out.push((Tuple::from(k), m)));
        out
    }

    /// Build (if needed) the secondary index for a binding-pattern mask.
    pub fn ensure_index(&self, mask: u64) {
        if mask == 0 || self.indexes.read().contains_key(&mask) {
            return;
        }
        let mut index: Index = fast_map_with_capacity(self.data.len());
        for (k, &m) in self.data.iter() {
            index
                .entry(project_mask(k, mask))
                .or_default()
                .insert(k.clone(), m);
        }
        self.indexes.write().insert(mask, Arc::new(index));
    }

    /// The exact multiplicity sum of the entries matching `pattern` — every
    /// position bound except `col` — whose `col` value lies in `range`,
    /// answered in O(log n) from the ordered aggregate index on `col` (built
    /// on first use). `None` when the pattern has another free position or
    /// the answer would not be bit-identical to a traversal's sum.
    pub fn range_sum(
        &self,
        pattern: &[Option<Value>],
        col: usize,
        range: &KeyRange,
    ) -> Option<f64> {
        let arity = self.schema.arity();
        if col >= arity.min(u16::MAX as usize) || pattern.len() != arity {
            return None;
        }
        if pattern
            .iter()
            .enumerate()
            .any(|(i, p)| p.is_some() == (i == col))
        {
            return None;
        }
        let col = col as u16;
        if !self.ordered.read().contains_key(&col) {
            let mut index: FastMap<Tuple, SumTree> = FastMap::default();
            for (k, &m) in self.data.iter() {
                index
                    .entry(project_except(k, col))
                    .or_default()
                    .insert(&k[col as usize], m);
            }
            self.ordered.write().insert(col, Arc::new(index));
        }
        let index = self.ordered.read().get(&col).cloned()?;
        let prefix: Tuple = pattern.iter().flatten().cloned().collect();
        match index.get(&prefix) {
            Some(tree) => tree.range_sum(range),
            None => Some(0.0),
        }
    }

    /// Snapshot the view contents as an immutable shared GMR. O(1) while the
    /// view is unmutated since the last snapshot (the cached Arc is reused);
    /// otherwise one O(n) copy, paid here rather than on the write path.
    pub fn to_gmr(&self) -> Gmr {
        {
            let cache = self.snapshot_cache.read();
            if let Some((version, arc)) = cache.as_ref() {
                if *version == self.version {
                    return Gmr::from_shared(self.schema.clone(), arc.clone());
                }
            }
        }
        let arc = Arc::new(self.data.clone());
        *self.snapshot_cache.write() = Some((self.version, arc.clone()));
        Gmr::from_shared(self.schema.clone(), arc)
    }

    /// Replace the contents of the view from a GMR (columns matched by name when the
    /// schemas share the same column set, positionally otherwise).
    pub fn load_gmr(&mut self, gmr: &Gmr) {
        self.clear();
        if gmr.schema() == &self.schema {
            // Identical schemas: copy the map wholesale; a shared source also
            // primes the snapshot cache (the contents are identical).
            match gmr.shared_data() {
                Some(arc) => {
                    self.data = (**arc).clone();
                    *self.snapshot_cache.get_mut() = Some((self.version, arc.clone()));
                }
                None => {
                    self.data = gmr.iter().map(|(t, m)| (t.clone(), m)).collect();
                }
            }
            return;
        }
        let positions: Option<Vec<usize>> = if gmr.schema().same_columns(&self.schema) {
            self.schema
                .columns()
                .iter()
                .map(|c| gmr.schema().index_of(c))
                .collect()
        } else {
            None
        };
        for (t, m) in gmr.iter() {
            let key: Tuple = match &positions {
                Some(pos) => pos.iter().map(|&i| t[i].clone()).collect(),
                None => t.clone(),
            };
            self.add(key, m);
        }
    }

    /// Approximate heap footprint in bytes (entries plus secondary indexes).
    /// See the module docs for the cost model.
    pub fn approx_bytes(&self) -> usize {
        let per_value = std::mem::size_of::<Value>();
        let entry = |t: &Tuple| {
            std::mem::size_of::<Tuple>()
                + 16
                + if t.is_inline() {
                    0
                } else {
                    t.len() * per_value + 16
                }
        };
        let base: usize = self.data.keys().map(entry).sum();
        let idx: usize = self
            .indexes
            .read()
            .values()
            .map(|i| {
                i.iter()
                    .map(|(k, v)| {
                        entry(k)
                            + v.keys().map(entry).sum::<usize>()
                            + v.len() * std::mem::size_of::<f64>()
                            + 8
                    })
                    .sum::<usize>()
            })
            .sum();
        let ordered: usize = self
            .ordered
            .read()
            .values()
            .flat_map(|i| i.iter())
            .map(|(k, tree)| entry(k) + tree.approx_bytes())
            .sum();
        base + idx + ordered
    }
}

fn pattern_mask(pattern: &[Option<Value>]) -> u64 {
    pattern.iter().enumerate().fold(0u64, |m, (i, p)| {
        if p.is_some() && i < 63 {
            m | (1 << i)
        } else {
            m
        }
    })
}

fn project_mask(key: &[Value], mask: u64) -> Tuple {
    key.iter()
        .enumerate()
        .filter(|(i, _)| *i < 63 && mask & (1 << i) != 0)
        .map(|(_, v)| v.clone())
        .collect()
}

/// Every key position except `col`, in order.
fn project_except(key: &[Value], col: u16) -> Tuple {
    key.iter()
        .enumerate()
        .filter(|(i, _)| *i != col as usize)
        .map(|(_, v)| v.clone())
        .collect()
}

/// The runtime database: a namespace of [`ViewMap`]s holding materialized views, stored
/// base relations and static tables.
#[derive(Clone, Debug, Default)]
pub struct Database {
    maps: FastMap<String, ViewMap>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create (or replace) a view with the given key columns.
    pub fn declare(&mut self, name: impl Into<String>, columns: impl IntoIterator<Item = String>) {
        self.maps
            .insert(name.into(), ViewMap::new(Schema::new(columns)));
    }

    /// Does a view with this name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.maps.contains_key(name)
    }

    /// Immutable access to a view.
    pub fn view(&self, name: &str) -> Option<&ViewMap> {
        self.maps.get(name)
    }

    /// Mutable access to a view.
    pub fn view_mut(&mut self, name: &str) -> Option<&mut ViewMap> {
        self.maps.get_mut(name)
    }

    /// Names of all views, sorted, borrowed from the store (no `String` clones).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let mut v: Vec<&str> = self.maps.keys().map(String::as_str).collect();
        v.sort_unstable();
        v.into_iter()
    }

    /// Total approximate memory footprint of all views, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.maps.values().map(|m| m.approx_bytes()).sum()
    }

    /// A consistent point-in-time snapshot of every view: name → GMR sharing the
    /// view's copy-on-write map. O(number of views), independent of their sizes.
    pub fn snapshot(&self) -> FastMap<String, Gmr> {
        self.maps
            .iter()
            .map(|(n, v)| (n.clone(), v.to_gmr()))
            .collect()
    }
}

impl RelationSource for Database {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.maps.get(name).map(|m| m.schema().arity())
    }

    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError> {
        let m = self
            .maps
            .get(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        m.for_each(pattern, visit);
        Ok(())
    }

    fn range_sum(
        &self,
        name: &str,
        prefix: &[Option<Value>],
        col: usize,
        range: &KeyRange,
    ) -> Option<f64> {
        self.maps.get(name)?.range_sum(prefix, col, range)
    }
}

/// A read-only [`Database`] view that memoizes name→view resolution.
///
/// Compiled kernels address every probe and scan by relation name; driven
/// over a multi-entry delta batch, the *same* op asks for the *same* name
/// once per entry, and the per-call string hash becomes the dominant
/// removable cost of small kernels. Ops own their name strings, so the cache
/// is keyed by the `&str`'s address — a pointer identity hit needs no
/// hashing and no character comparison. Sound only while the database is not
/// mutated (the batch executor buffers all rows before applying, so a whole
/// statement-over-entries pass is read-only); the wrapper borrows the
/// database immutably, letting the compiler enforce exactly that.
pub struct CachedSource<'a> {
    db: &'a Database,
    /// `(name address, name length, resolved view)` — a fixed handful of
    /// inline slots scanned linearly (zero heap allocation; a statement
    /// referencing more distinct relations simply falls back to uncached
    /// lookups for the overflow).
    cache: std::cell::Cell<usize>,
    slots: [std::cell::Cell<(*const u8, usize, Option<&'a ViewMap>)>; 8],
}

impl<'a> CachedSource<'a> {
    /// Wrap a database for one read-only batch pass.
    pub fn new(db: &'a Database) -> Self {
        CachedSource {
            db,
            cache: std::cell::Cell::new(0),
            slots: std::array::from_fn(|_| std::cell::Cell::new((std::ptr::null(), 0, None))),
        }
    }

    fn resolve(&self, name: &str) -> Option<&'a ViewMap> {
        let key = (name.as_ptr(), name.len());
        let len = self.cache.get();
        for slot in &self.slots[..len] {
            let (p, l, v) = slot.get();
            if p == key.0 && l == key.1 {
                return v;
            }
        }
        let view = self.db.view(name)?;
        if len < self.slots.len() {
            self.slots[len].set((key.0, key.1, Some(view)));
            self.cache.set(len + 1);
        }
        Some(view)
    }
}

impl RelationSource for CachedSource<'_> {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.resolve(name).map(|m| m.schema().arity())
    }

    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError> {
        let m = self
            .resolve(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        m.for_each(pattern, visit);
        Ok(())
    }

    fn range_sum(
        &self,
        name: &str,
        prefix: &[Option<Value>],
        col: usize,
        range: &KeyRange,
    ) -> Option<f64> {
        self.resolve(name)?.range_sum(prefix, col, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::long(v)).collect()
    }

    #[test]
    fn add_and_cancel() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 2]), 2.5);
        v.add(key(&[1, 2]), -2.5);
        assert!(v.is_empty());
        v.add(key(&[1, 2]), 1.0);
        assert_eq!(v.get(&key(&[1, 2])), 1.0);
        assert_eq!(v.get(&key(&[9, 9])), 0.0);
    }

    #[test]
    fn lookup_with_full_and_partial_patterns() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.add(key(&[1, 20]), 2.0);
        v.add(key(&[2, 30]), 3.0);
        // Full key lookup.
        let full = v.lookup(&[Some(Value::long(1)), Some(Value::long(20))]);
        assert_eq!(full, vec![(key(&[1, 20]), 2.0)]);
        // Partial: first column bound.
        let part = v.lookup(&[Some(Value::long(1)), None]);
        assert_eq!(part.len(), 2);
        // Unbound: full scan.
        assert_eq!(v.lookup(&[None, None]).len(), 3);
        // Missing key.
        assert!(v.lookup(&[Some(Value::long(7)), None]).is_empty());
    }

    #[test]
    fn secondary_index_stays_consistent_under_updates() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        // Build the index, then mutate.
        assert_eq!(v.lookup(&[Some(Value::long(1)), None]).len(), 1);
        v.add(key(&[1, 20]), 1.0);
        v.add(key(&[1, 10]), -1.0); // removes the first entry
        let res = v.lookup(&[Some(Value::long(1)), None]);
        assert_eq!(res, vec![(key(&[1, 20]), 1.0)]);
    }

    #[test]
    fn multiplicity_change_without_entry_change_keeps_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.lookup(&[Some(Value::long(1)), None]); // build the index
        v.add(key(&[1, 10]), 2.5); // multiplicity update only
        assert_eq!(
            v.lookup(&[Some(Value::long(1)), None]),
            vec![(key(&[1, 10]), 3.5)]
        );
    }

    #[test]
    fn for_each_streams_borrowed_entries() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.add(key(&[1, 20]), 2.0);
        let mut total = 0.0;
        let mut seen = 0;
        v.for_each(&[Some(Value::long(1)), None], &mut |k, m| {
            assert_eq!(k.len(), 2);
            total += m;
            seen += 1;
        });
        assert_eq!(seen, 2);
        assert_eq!(total, 3.0);
    }

    #[test]
    fn gmr_round_trip() {
        let mut v = ViewMap::new(Schema::new(["a"]));
        v.add(key(&[1]), 5.0);
        v.add(key(&[2]), -1.0);
        let g = v.to_gmr();
        assert_eq!(g.get(&key(&[1])), 5.0);
        let mut v2 = ViewMap::new(Schema::new(["a"]));
        v2.load_gmr(&g);
        assert_eq!(v2.get(&key(&[2])), -1.0);
        assert_eq!(v2.len(), 2);
    }

    #[test]
    fn load_gmr_matches_columns_by_name() {
        let mut g = Gmr::new(Schema::new(["b", "a"]));
        g.add_tuple(key(&[10, 1]), 3.0);
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.load_gmr(&g);
        assert_eq!(v.get(&key(&[1, 10])), 3.0);
    }

    #[test]
    fn database_implements_relation_source() {
        let mut db = Database::new();
        db.declare("R", vec!["a".to_string(), "b".to_string()]);
        db.view_mut("R").unwrap().add(key(&[1, 2]), 1.0);
        assert_eq!(db.relation_arity("R"), Some(2));
        let mut rows = 0;
        db.for_each_matching("R", &[Some(Value::long(1)), None], &mut |_, _| rows += 1)
            .unwrap();
        assert_eq!(rows, 1);
        assert!(db.for_each_matching("Nope", &[], &mut |_, _| {}).is_err());
        assert!(db.approx_bytes() > 0);
        assert_eq!(db.names().collect::<Vec<_>>(), vec!["R"]);
    }

    #[test]
    fn to_gmr_snapshot_is_isolated_from_later_writes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        let snap = v.to_gmr();
        v.add(key(&[1, 10]), 2.0);
        v.add(key(&[2, 20]), 4.0);
        assert_eq!(snap.get(&key(&[1, 10])), 1.0);
        assert_eq!(snap.len(), 1);
        assert_eq!(v.get(&key(&[1, 10])), 3.0);
        // A snapshot also survives a clear (`:=` statements).
        let snap2 = v.to_gmr();
        v.clear();
        assert_eq!(snap2.len(), 2);
        assert!(v.is_empty());
    }

    #[test]
    fn clear_resets_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.lookup(&[Some(Value::long(1)), None]);
        v.clear();
        assert!(v.is_empty());
        assert!(v.lookup(&[Some(Value::long(1)), None]).is_empty());
    }

    /// Brute-force twin of [`ViewMap::range_sum`]: filter every entry with
    /// the comparisons a traversal would run, summing in map order.
    fn brute_range_sum(v: &ViewMap, pattern: &[Option<Value>], col: usize, r: &KeyRange) -> f64 {
        let mut total = 0.0;
        v.for_each(pattern, &mut |k, m| {
            let k = &k[col];
            let lo =
                r.lo.as_ref()
                    .is_none_or(|(b, inc)| if *inc { k >= b } else { k > b });
            let hi =
                r.hi.as_ref()
                    .is_none_or(|(b, inc)| if *inc { k <= b } else { k < b });
            if lo && hi {
                total += m;
            }
        });
        total
    }

    #[test]
    fn range_sums_match_brute_force_under_random_writes() {
        let mut v = ViewMap::new(Schema::new(["broker", "price"]));
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        for step in 0..3000 {
            let broker = Value::long(next(3) as i64);
            // Mixed `Long`/`Double` spellings of one price space: the index
            // must track entries by the key they are stored under.
            let p = next(40) as i64 - 20;
            let price = if next(2) == 0 {
                Value::long(p)
            } else {
                Value::double(p as f64)
            };
            v.add(vec![broker, price], next(5) as f64 - 2.0);
            if step % 40 == 0 {
                let b = Value::long(next(3) as i64);
                let pattern = [Some(b), None];
                let bound = Value::double(next(44) as f64 - 22.0);
                for r in [
                    KeyRange {
                        lo: Some((bound.clone(), false)),
                        ..KeyRange::default()
                    },
                    KeyRange {
                        hi: Some((bound.clone(), true)),
                        slack: Some(1000.0),
                        ..KeyRange::default()
                    },
                ] {
                    match v.range_sum(&pattern, 1, &r) {
                        Some(got) => {
                            assert_eq!(
                                got.to_bits(),
                                brute_range_sum(&v, &pattern, 1, &r).to_bits()
                            )
                        }
                        // Only a zero price (not a nonzero integral key)
                        // may refuse a rearranged bound.
                        None => assert!(r.slack.is_some()),
                    }
                }
            }
        }
        // The wrong free position, or a second one, is not a range query.
        assert_eq!(v.range_sum(&[None, None], 1, &KeyRange::default()), None);
        assert_eq!(
            v.range_sum(&[None, Some(Value::long(1))], 1, &KeyRange::default()),
            None
        );
    }

    #[test]
    fn range_sums_handle_nan_keys_and_refuse_inexact_values() {
        let mut v = ViewMap::new(Schema::new(["k"]));
        for (k, m) in [
            (f64::NAN, 2.0),
            (1.0, 3.0),
            (f64::NEG_INFINITY, 5.0),
            (-0.0, 7.0),
        ] {
            v.add(vec![Value::double(k)], m);
        }
        let pattern = [None];
        for b in [Value::long(0), Value::double(f64::NAN), Value::double(-0.0)] {
            for inc in [false, true] {
                let r = KeyRange {
                    lo: Some((b.clone(), inc)),
                    ..KeyRange::default()
                };
                let got = v
                    .range_sum(&pattern, 0, &r)
                    .expect("integral multiplicities");
                assert_eq!(
                    got.to_bits(),
                    brute_range_sum(&v, &pattern, 0, &r).to_bits()
                );
            }
        }
        // An inexact multiplicity refuses, and stops refusing once it leaves.
        v.add(vec![Value::double(1.0)], 0.1);
        assert_eq!(v.range_sum(&pattern, 0, &KeyRange::default()), None);
        v.add(vec![Value::double(1.0)], -3.1);
        assert_eq!(v.range_sum(&pattern, 0, &KeyRange::default()), Some(14.0));
        // A `Long` key beyond 2^53 orders lossily against doubles.
        v.add(vec![Value::long(i64::MAX)], 1.0);
        assert_eq!(v.range_sum(&pattern, 0, &KeyRange::default()), None);
        // `clear` drops the index with the entries.
        v.clear();
        assert_eq!(v.range_sum(&pattern, 0, &KeyRange::default()), Some(0.0));
    }

    #[test]
    fn clone_preserves_contents_and_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.lookup(&[Some(Value::long(1)), None]);
        let c = v.clone();
        assert_eq!(c.get(&key(&[1, 10])), 1.0);
        assert_eq!(c.lookup(&[Some(Value::long(1)), None]).len(), 1);
    }
}
