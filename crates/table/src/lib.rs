//! Columnar fact-table storage and scan engine — the data substrate of the
//! GPU side of the hybrid OLAP system (paper §III-E, Fig. 6).
//!
//! The fact table keeps two kinds of columns:
//!
//! * **dimension columns** — one `u32` column per *(dimension, level)* pair.
//!   A condition `C_L(f, t, l_K)` in a decomposed query (Eq. 11) addresses
//!   exactly one of these columns and filters it with an inclusive integer
//!   range. Text dimensions are stored as dictionary codes (see
//!   `holap-dict`), so after translation they filter identically.
//! * **measure (data) columns** — `f64` columns holding the values that are
//!   aggregated.
//!
//! Storage follows the paper's "1D array memory structure … all columns of
//! the table one after another": all `u32` dimension data lives in one
//! contiguous pool and all `f64` measure data in another, with per-column
//! `(offset, len)` windows ([`column`]). This is what makes the GPU memory
//! accounting of `holap-gpusim` exact and keeps scans streaming over
//! contiguous memory.
//!
//! The scan engine ([`scan`]) evaluates conjunctive range filters plus
//! weighted aggregations (SUM/COUNT/MIN/MAX/AVG), sequentially or in
//! parallel over row blocks ([`par`]) — the CPU stand-in for the paper's four-step GPU
//! pipeline (parallel table scan → parallel reduction). It also reports the
//! number of columns a query touches, the `C_QD` quantity of Eq. 12 that
//! drives the GPU cost model.
//!
//! Execution is vectorized ([`exec`]): predicates evaluate column-wise over
//! fixed [`BATCH_ROWS`]-row batches into reusable selection vectors with
//! branch-free kernels, per-block zone maps ([`zone`]) skip batches whose
//! `[min, max]` cannot satisfy a conjunct, set predicates compile to dense
//! membership bitmaps, and group-by folds each batch in one pass into
//! per-slot arrays (a single small-domain key is its own slot; wider keys
//! are packed into a `u64` or hashed). The original row-at-a-time
//! interpreter is retained as [`FactTable::scan_scalar`] /
//! [`FactTable::group_by_scalar`] — the reference implementation the
//! vectorized engine is property-tested and benchmarked against.
//!
//! # Example
//!
//! ```
//! use holap_table::{AggOp, AggSpec, ColumnId, FactTableBuilder, Predicate, ScanQuery, TableSchema};
//!
//! // 1 dimension ("time") with 2 levels (year: 4, month: 48), 1 measure.
//! let schema = TableSchema::builder()
//!     .dimension("time", &[("year", 4), ("month", 48)])
//!     .measure("sales")
//!     .build();
//! let mut b = FactTableBuilder::new(schema);
//! b.push_row(&[0, 5], &[10.0]).unwrap(); // year 0, month 5
//! b.push_row(&[1, 13], &[20.0]).unwrap();
//! b.push_row(&[1, 14], &[30.0]).unwrap();
//! let table = b.finish();
//!
//! let q = ScanQuery::new()
//!     .filter(Predicate::range(ColumnId::dim(0, 0), 1, 1)) // year == 1
//!     .aggregate(AggSpec::new(AggOp::Sum, Some(0)));       // SUM(sales)
//! let result = table.scan_seq(&q).unwrap();
//! assert_eq!(result.values[0].value(), Some(50.0));
//! assert_eq!(q.columns_accessed(), 2); // 1 filter column + 1 data column
//! ```

#![warn(missing_docs)]

pub mod column;
pub mod exec;
pub mod groupby;
pub mod par;
pub mod scan;
pub mod schema;
pub mod table;
pub mod telemetry;
pub mod zone;

pub use column::{ColumnStore, F64Pool, U32Pool};
pub use exec::{BATCH_ROWS, BLOCK_ROWS};
pub use groupby::{Group, GroupByQuery, GroupedResult};
pub use scan::{
    AggOp, AggResult, AggSpec, AggValue, Predicate, ScanError, ScanQuery, SetPredicate,
};
pub use schema::{
    ColumnId, DimensionSchema, LevelSchema, MeasureSchema, SchemaBuilder, TableSchema,
};
pub use table::{FactTable, FactTableBuilder, RowError};
pub use telemetry::ScanTelemetry;
pub use zone::{ZoneColumn, ZoneMaps};
