//! MVCC table storage: insertion-ordered rows in immutable, `Arc`-shared
//! copy-on-write chunks, hidden rowid, per-chunk hash indexes.
//!
//! A [`Table`] value *is* a snapshot: cloning it clones a `Vec` of
//! [`Arc`]s (one per chunk), never row data. Writers
//! ([`Table::insert`], [`Table::insert_many`], [`Table::create_index`])
//! build a new chunk list — sharing every untouched chunk with the old
//! value — and bump the generation counter; readers holding an older
//! clone keep reading the rows that existed when they pinned it and never
//! observe a partial write. This is what lets a
//! [`Connection`](crate::Connection) hand whole-database snapshots to
//! concurrent statements while a writer churns inserts.
//!
//! Chunks are **columnar**: each chunk stores one typed vector per schema
//! column ([`ColumnVec`]) instead of a row-major `Vec<Vec<Value>>`. The
//! plan executor runs pushed filters and join-key extraction directly
//! over these column slices in batches, stitching full rows only at
//! projection time; row-at-a-time readers go through
//! [`Table::rows`] / [`Table::row`], which materialize owned rows on
//! demand.
//!
//! Single-row inserts install one-row chunks; to keep scans and index
//! probes from degrading into a per-row chunk walk, a geometric tail
//! merge (same shape as an LSM level merge) runs after every write, so a
//! table of `n` rows holds `O(log n)` chunks no matter how it was built.

use qbs_common::{FieldType, Ident, SchemaRef, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One column of a chunk as a typed vector — the struct-of-arrays half of
/// the columnar layout. Values are unwrapped at insert time (types were
/// already checked against the schema), so scans over a column touch one
/// homogeneous `Vec` with no per-value tag dispatch.
#[derive(Debug)]
pub(crate) enum ColumnVec {
    /// A `Bool` column.
    Bool(Vec<bool>),
    /// An `Int` column.
    Int(Vec<i64>),
    /// A `Str` column (`Arc<str>` clones are refcount bumps).
    Str(Vec<Arc<str>>),
}

impl ColumnVec {
    fn with_capacity(ty: FieldType, cap: usize) -> ColumnVec {
        match ty {
            FieldType::Bool => ColumnVec::Bool(Vec::with_capacity(cap)),
            FieldType::Int => ColumnVec::Int(Vec::with_capacity(cap)),
            FieldType::Str => ColumnVec::Str(Vec::with_capacity(cap)),
        }
    }

    /// Appends a value whose type was already checked against the column.
    fn push(&mut self, v: &Value) {
        match (self, v) {
            (ColumnVec::Bool(col), Value::Bool(b)) => col.push(*b),
            (ColumnVec::Int(col), Value::Int(i)) => col.push(*i),
            (ColumnVec::Str(col), Value::Str(s)) => col.push(s.clone()),
            (col, v) => unreachable!("value {v:?} in {col:?} after schema check"),
        }
    }

    fn extend_from(&mut self, other: &ColumnVec) {
        match (self, other) {
            (ColumnVec::Bool(a), ColumnVec::Bool(b)) => a.extend_from_slice(b),
            (ColumnVec::Int(a), ColumnVec::Int(b)) => a.extend_from_slice(b),
            (ColumnVec::Str(a), ColumnVec::Str(b)) => a.extend_from_slice(b),
            (a, b) => unreachable!("merging {a:?} into {b:?} across column types"),
        }
    }

    /// The value at position `i`, re-wrapped as a [`Value`].
    pub(crate) fn value(&self, i: usize) -> Value {
        match self {
            ColumnVec::Bool(col) => Value::Bool(col[i]),
            ColumnVec::Int(col) => Value::Int(col[i]),
            ColumnVec::Str(col) => Value::Str(col[i].clone()),
        }
    }
}

/// An immutable run of consecutive rows, stored column-major. Never
/// mutated after creation — snapshots share chunks by reference.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// Global rowid of the first row (fixed at creation: rows are only
    /// ever appended after existing ones, so a chunk's position in the
    /// table never moves).
    base: usize,
    /// Number of rows (every column vector has this length).
    len: usize,
    /// One typed vector per schema column.
    cols: Vec<ColumnVec>,
}

impl Chunk {
    /// Transposes row-major input (already schema-checked) into a
    /// columnar chunk.
    fn from_rows(base: usize, schema: &SchemaRef, rows: Vec<Vec<Value>>) -> Chunk {
        let mut cols: Vec<ColumnVec> = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::with_capacity(f.ty, rows.len()))
            .collect();
        for row in &rows {
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Chunk { base, len: rows.len(), cols }
    }

    /// Global rowid of the first row.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Number of rows in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The typed vector of column `pos` (schema order).
    pub(crate) fn col(&self, pos: usize) -> &ColumnVec {
        &self.cols[pos]
    }

    /// Materializes row `i` (chunk-local index) as an owned row.
    pub(crate) fn row_values(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(i)).collect()
    }
}

/// Per-column hash index, chunk-aligned: one immutable map per chunk from
/// value to the **global** rowids (ascending) holding it. A write only
/// builds the map for the chunk it installs; the maps of shared chunks
/// are shared right along with them.
type ColumnIndex = Vec<Arc<HashMap<Value, Vec<usize>>>>;

/// A stored table — and, because clones share all row data, a snapshot.
///
/// Rows are kept in insertion order; the hidden `rowid` column (exposed to
/// queries as `<alias>.rowid`) is the insertion index — the paper's "record
/// order in the database" (Fig. 9).
#[derive(Clone, Debug)]
pub struct Table {
    schema: SchemaRef,
    chunks: Vec<Arc<Chunk>>,
    len: usize,
    indexes: BTreeMap<Ident, ColumnIndex>,
    generation: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: SchemaRef) -> Table {
        Table { schema, chunks: Vec::new(), len: 0, indexes: BTreeMap::new(), generation: 0 }
    }

    /// The table's generation counter: bumped by every [`Table::insert`],
    /// [`Table::insert_many`] (once per call, however many rows), and
    /// [`Table::create_index`]. Cached physical plans record the
    /// generations of the tables they touch and replan when any of them
    /// moved — the invalidation key of the prepared-statement plan cache.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The logical schema (without `rowid`).
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of storage chunks (diagnostics; bounded at `O(log n)` by
    /// the tail merge).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The storage chunks, in rowid order — the executor's entry point
    /// for columnar scans.
    pub(crate) fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// The stored rows, in insertion order (rowid order), materialized
    /// from the columnar chunks on demand.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.chunks.iter().flat_map(|c| (0..c.len).map(move |i| c.row_values(i)))
    }

    /// The row at `rowid`, when in bounds, materialized from its chunk.
    pub fn row(&self, rowid: usize) -> Option<Vec<Value>> {
        if rowid >= self.len {
            return None;
        }
        let i = self.chunks.partition_point(|c| c.base <= rowid).checked_sub(1)?;
        let chunk = &self.chunks[i];
        (rowid - chunk.base < chunk.len).then(|| chunk.row_values(rowid - chunk.base))
    }

    fn check_row(&self, values: &[Value]) {
        assert_eq!(
            values.len(),
            self.schema.arity(),
            "insert arity mismatch for {}",
            self.schema.describe()
        );
        for (v, f) in values.iter().zip(self.schema.fields()) {
            let ok = matches!(
                (v, f.ty),
                (Value::Bool(_), FieldType::Bool)
                    | (Value::Int(_), FieldType::Int)
                    | (Value::Str(_), FieldType::Str)
            );
            assert!(ok, "value {v:?} does not fit column {f}");
        }
    }

    /// Appends a row as a new copy-on-write chunk; maintains indexes. The
    /// row's `rowid` is its position. Clones taken before the call keep
    /// seeing the table without it.
    ///
    /// # Panics
    ///
    /// Panics when the value count does not match the schema arity or a
    /// value's type does not match its column — inserts come from trusted
    /// generators in this workspace.
    pub fn insert(&mut self, values: Vec<Value>) {
        self.check_row(&values);
        self.install_chunk(vec![values]);
        self.generation += 1;
    }

    /// Appends many rows as **one** new chunk, bumping the generation
    /// **once** — so bulk loads (datagen, benchmark setup) trigger one
    /// plan invalidation instead of one per row, and concurrent readers
    /// see either none or all of the batch. An empty batch is a no-op
    /// (no chunk, no generation bump).
    ///
    /// # Panics
    ///
    /// As [`Table::insert`], per row.
    pub fn insert_many(&mut self, rows: Vec<Vec<Value>>) {
        if rows.is_empty() {
            return;
        }
        for r in &rows {
            self.check_row(r);
        }
        self.install_chunk(rows);
        self.generation += 1;
    }

    /// Installs `rows` as a fresh columnar chunk, extends every column
    /// index with the chunk's map, and runs the geometric tail merge.
    fn install_chunk(&mut self, rows: Vec<Vec<Value>>) {
        let base = self.len;
        self.len += rows.len();
        let chunk = Chunk::from_rows(base, &self.schema, rows);
        for (col, idx) in self.indexes.iter_mut() {
            let pos = self
                .schema
                .index_of(&qbs_common::FieldRef::new(col.clone()))
                .expect("indexed column exists");
            idx.push(Arc::new(chunk_index(&chunk, pos)));
        }
        self.chunks.push(Arc::new(chunk));
        // Geometric tail merge: while the last chunk has grown at least as
        // large as its predecessor, fold the two into one freshly built
        // chunk (snapshots keep the originals). Sizes then fall strictly,
        // like a binary counter, bounding the chunk count at O(log n) with
        // amortized O(log n) row copies per insert.
        while self.chunks.len() >= 2 {
            let last = self.chunks[self.chunks.len() - 1].len;
            let prev = self.chunks[self.chunks.len() - 2].len;
            if last < prev {
                break;
            }
            let b = self.chunks.pop().expect("two chunks");
            let a = self.chunks.pop().expect("two chunks");
            // Column-wise concatenation: each merged column is one typed
            // extend, never a row-at-a-time rebuild.
            let mut cols: Vec<ColumnVec> = self
                .schema
                .fields()
                .iter()
                .map(|f| ColumnVec::with_capacity(f.ty, a.len + b.len))
                .collect();
            for (pos, col) in cols.iter_mut().enumerate() {
                col.extend_from(a.col(pos));
                col.extend_from(b.col(pos));
            }
            let merged = Arc::new(Chunk { base: a.base, len: a.len + b.len, cols });
            for (col, idx) in self.indexes.iter_mut() {
                let pos = self
                    .schema
                    .index_of(&qbs_common::FieldRef::new(col.clone()))
                    .expect("indexed column exists");
                idx.pop();
                idx.pop();
                idx.push(Arc::new(chunk_index(&merged, pos)));
            }
            self.chunks.push(merged);
        }
    }

    /// Builds (or rebuilds) a hash index on `column`.
    ///
    /// # Errors
    ///
    /// Returns the schema resolution error when the column does not exist.
    pub fn create_index(&mut self, column: &Ident) -> Result<(), qbs_common::CommonError> {
        let pos = self.schema.index_of(&qbs_common::FieldRef::new(column.clone()))?;
        let idx = self.chunks.iter().map(|c| Arc::new(chunk_index(c, pos))).collect();
        self.indexes.insert(column.clone(), idx);
        self.generation += 1;
        Ok(())
    }

    /// Row ids (in insertion order) whose `column` equals `value`, when an
    /// index exists. Per-chunk maps are probed in chunk order; each map's
    /// rowids are ascending and chunks are disjoint ascending ranges, so
    /// the concatenation is insertion order.
    pub fn index_lookup(&self, column: &Ident, value: &Value) -> Option<Vec<usize>> {
        let idx = self.indexes.get(column)?;
        let mut out = Vec::new();
        for map in idx {
            if let Some(rowids) = map.get(value) {
                out.extend_from_slice(rowids);
            }
        }
        Some(out)
    }

    /// True when `column` has a hash index.
    pub fn has_index(&self, column: &Ident) -> bool {
        self.indexes.contains_key(column)
    }

    /// Number of distinct keys in `column`'s hash index, when one exists —
    /// the planner's selectivity input (`len / distinct ≈` average bucket).
    /// Exact across chunks (a key present in several chunks counts once).
    pub fn index_cardinality(&self, column: &Ident) -> Option<usize> {
        let idx = self.indexes.get(column)?;
        if idx.len() == 1 {
            return Some(idx[0].len());
        }
        let mut distinct: std::collections::HashSet<&Value> = std::collections::HashSet::new();
        for map in idx {
            distinct.extend(map.keys());
        }
        Some(distinct.len())
    }

    /// The indexed columns, in schema order (the iteration order of the
    /// internal map is not deterministic, so callers get a stable list).
    pub fn indexed_columns(&self) -> Vec<Ident> {
        self.schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .filter(|c| self.indexes.contains_key(c))
            .collect()
    }

    /// The stored rows as an ordered [`Relation`](qbs_common::Relation)
    /// under the table's schema — the view the kernel interpreter consumes.
    pub fn relation(&self) -> qbs_common::Relation {
        let records =
            self.rows().map(|r| qbs_common::Record::new(self.schema.clone(), r)).collect();
        qbs_common::Relation::from_records(self.schema.clone(), records)
            .expect("stored rows satisfy the table schema")
    }
}

/// The per-chunk index map for one column: value → ascending global
/// rowids, read straight off the chunk's typed column vector.
fn chunk_index(chunk: &Chunk, pos: usize) -> HashMap<Value, Vec<usize>> {
    let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
    let col = chunk.col(pos);
    for i in 0..chunk.len {
        map.entry(col.value(i)).or_default().push(chunk.base + i);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_common::Schema;

    fn table() -> Table {
        Table::new(
            Schema::builder("t").field("a", FieldType::Int).field("b", FieldType::Str).finish(),
        )
    }

    #[test]
    fn insert_preserves_order() {
        let mut t = table();
        t.insert(vec![2.into(), "x".into()]);
        t.insert(vec![1.into(), "y".into()]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0).unwrap()[0], Value::from(2));
        let firsts: Vec<Value> = t.rows().map(|r| r[0].clone()).collect();
        assert_eq!(firsts, vec![Value::from(2), Value::from(1)]);
    }

    #[test]
    fn chunks_are_columnar_and_typed() {
        let mut t = table();
        t.insert_many((0..4i64).map(|i| vec![i.into(), format!("r{i}").into()]).collect());
        assert_eq!(t.chunk_count(), 1);
        let chunk = &t.chunks()[0];
        assert_eq!(chunk.len(), 4);
        match chunk.col(0) {
            ColumnVec::Int(col) => assert_eq!(col, &vec![0, 1, 2, 3]),
            other => panic!("Int column stored as {other:?}"),
        }
        match chunk.col(1) {
            ColumnVec::Str(col) => assert_eq!(col.len(), 4),
            other => panic!("Str column stored as {other:?}"),
        }
        assert_eq!(chunk.row_values(2), vec![Value::from(2), "r2".into()]);
    }

    #[test]
    fn index_lookup_returns_rowids_in_order() {
        let mut t = table();
        t.insert(vec![1.into(), "x".into()]);
        t.insert(vec![2.into(), "y".into()]);
        t.insert(vec![1.into(), "z".into()]);
        t.create_index(&"a".into()).unwrap();
        assert_eq!(t.index_lookup(&"a".into(), &1.into()).unwrap(), vec![0, 2]);
        assert_eq!(t.index_lookup(&"a".into(), &9.into()).unwrap(), Vec::<usize>::new());
        assert!(t.index_lookup(&"b".into(), &"x".into()).is_none());
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = table();
        t.create_index(&"a".into()).unwrap();
        t.insert(vec![5.into(), "x".into()]);
        assert_eq!(t.index_lookup(&"a".into(), &5.into()).unwrap(), vec![0]);
    }

    #[test]
    fn index_survives_tail_merges() {
        let mut t = table();
        t.create_index(&"a".into()).unwrap();
        for i in 0..100i64 {
            t.insert(vec![(i % 7).into(), format!("r{i}").into()]);
        }
        let hits = t.index_lookup(&"a".into(), &3.into()).unwrap();
        let expect: Vec<usize> = (0..100).filter(|i| i % 7 == 3).collect();
        assert_eq!(hits, expect);
        assert_eq!(t.index_cardinality(&"a".into()), Some(7));
    }

    #[test]
    fn generation_bumps_on_insert_and_index_build() {
        let mut t = table();
        assert_eq!(t.generation(), 0);
        t.insert(vec![1.into(), "x".into()]);
        assert_eq!(t.generation(), 1);
        t.create_index(&"a".into()).unwrap();
        assert_eq!(t.generation(), 2);
        t.insert(vec![2.into(), "y".into()]);
        assert_eq!(t.generation(), 3);
    }

    #[test]
    fn insert_many_installs_one_chunk_and_bumps_once() {
        let mut t = table();
        t.create_index(&"a".into()).unwrap();
        assert_eq!(t.generation(), 1);
        t.insert_many((0..50i64).map(|i| vec![i.into(), format!("r{i}").into()]).collect());
        assert_eq!(t.generation(), 2, "one bump for the whole batch");
        assert_eq!(t.len(), 50);
        assert_eq!(t.chunk_count(), 1);
        assert_eq!(t.index_lookup(&"a".into(), &7.into()).unwrap(), vec![7]);
        // Empty batches change nothing at all.
        t.insert_many(Vec::new());
        assert_eq!(t.generation(), 2);
    }

    #[test]
    fn clones_are_snapshots_sharing_chunks() {
        let mut t = table();
        t.insert_many((0..8i64).map(|i| vec![i.into(), "x".into()]).collect());
        let snap = t.clone();
        t.insert(vec![99.into(), "y".into()]);
        t.insert_many(vec![vec![100.into(), "z".into()]]);
        // The snapshot still reads exactly the rows that existed.
        assert_eq!(snap.len(), 8);
        assert_eq!(t.len(), 10);
        assert!(snap.row(8).is_none());
        // And the first chunk is shared by reference, not copied.
        assert!(Arc::ptr_eq(&snap.chunks[0], &t.chunks[0]));
    }

    #[test]
    fn tail_merge_bounds_chunk_count_logarithmically() {
        let mut t = table();
        for i in 0..1000i64 {
            t.insert(vec![i.into(), "x".into()]);
        }
        assert!(t.chunk_count() <= 11, "chunks: {}", t.chunk_count());
        // Every row is still addressable and in order.
        assert_eq!(t.len(), 1000);
        for i in 0..1000usize {
            assert_eq!(t.row(i).unwrap()[0], Value::from(i as i64));
        }
        assert_eq!(t.rows().count(), 1000);
    }

    #[test]
    #[should_panic(expected = "does not fit column")]
    fn type_mismatch_panics() {
        let mut t = table();
        t.insert(vec!["oops".into(), "x".into()]);
    }

    #[test]
    #[should_panic(expected = "does not fit column")]
    fn insert_many_type_mismatch_panics_before_installing() {
        let mut t = table();
        t.insert_many(vec![vec![1.into(), "ok".into()], vec!["oops".into(), "x".into()]]);
    }
}
