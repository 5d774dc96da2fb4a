//! The shared workload behind the vectorized-scan benchmarks
//! (`benches/vectorized_scan.rs` and `src/bin/scan_bench.rs`): one fact
//! table and four queries chosen so each exercises a different part of
//! the engine.
//!
//! * a **clustered** dimension (`t.bucket`, monotone in row order) whose
//!   per-block zone maps are tight — a narrow range on it lets the
//!   vectorized scan skip nearly every block;
//! * a **scattered** dimension (`v.val`, pseudo-random) whose zone maps
//!   are useless — a wide range on it measures raw predicate + aggregate
//!   throughput with no skipping help;
//! * a **small-domain** key (`g.key`) that takes the dense slot-array
//!   group path;
//! * MIN, MAX and AVG over the scattered window, which run the kernels
//!   compiled for the min, max and sum statistics rather than the
//!   engine's sum-only one.

use holap_table::{
    AggOp, AggSpec, ColumnId, FactTable, FactTableBuilder, GroupByQuery, Predicate, ScanQuery,
    TableSchema,
};

/// Default row count: a couple of thousand zone-map blocks.
pub const ROWS: usize = 2_000_000;

/// Cardinality of the clustered `t.bucket` column.
pub const BUCKETS: u32 = 64;

/// Cardinality of the scattered `v.val` column.
pub const VALS: u32 = 4096;

/// Cardinality of the `g.key` group column (dense group path).
pub const KEYS: u32 = 256;

/// Builds the benchmark fact table deterministically.
pub fn table(rows: usize) -> FactTable {
    let schema = TableSchema::builder()
        .dimension("t", &[("bucket", BUCKETS)])
        .dimension("v", &[("val", VALS)])
        .dimension("g", &[("key", KEYS)])
        .measure("m")
        .build();
    let mut b = FactTableBuilder::new(schema);
    let mut x = 0x9e3779b9u32;
    for i in 0..rows {
        // Clustered: bucket grows monotonically with the row index.
        let bucket = (i as u64 * u64::from(BUCKETS) / rows as u64) as u32;
        // Scattered: xorshift32.
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        b.push_row(
            &[bucket, x % VALS, (x >> 12) % KEYS],
            &[f64::from(x % 1000) * 0.25],
        )
        .unwrap();
    }
    b.finish()
}

/// The four benchmark queries.
pub struct ScanQueries {
    /// Unselective range on the scattered column (~50% of rows match).
    pub filtered: ScanQuery,
    /// MIN + MAX + AVG over the rows `filtered` matches.
    pub min_max: ScanQuery,
    /// Narrow range on the clustered column (~1/64 of rows, zone-skippable).
    pub selective: ScanQuery,
    /// Grouped SUM over the small-domain key, filtered like `filtered`.
    pub grouped: GroupByQuery,
}

/// Builds the four queries.
pub fn queries() -> ScanQueries {
    let window = ScanQuery::new().filter(Predicate::range(ColumnId::dim(1, 0), 0, VALS / 2 - 1));
    let filtered = window
        .clone()
        .aggregate(AggSpec::new(AggOp::Sum, Some(0)))
        .aggregate(AggSpec::count_star());
    let min_max = window
        .aggregate(AggSpec::new(AggOp::Min, Some(0)))
        .aggregate(AggSpec::new(AggOp::Max, Some(0)))
        .aggregate(AggSpec::new(AggOp::Avg, Some(0)));
    let selective = ScanQuery::new()
        .filter(Predicate::range(ColumnId::dim(0, 0), 17, 17))
        .aggregate(AggSpec::new(AggOp::Sum, Some(0)))
        .aggregate(AggSpec::count_star());
    let grouped = GroupByQuery::new(
        ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(1, 0), 0, VALS / 2 - 1))
            .aggregate(AggSpec::new(AggOp::Sum, Some(0))),
        vec![ColumnId::dim(2, 0)],
    );
    ScanQueries {
        filtered,
        min_max,
        selective,
        grouped,
    }
}
