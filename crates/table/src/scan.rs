//! Filter + aggregate scans over a fact table.
//!
//! This is the workload the paper offloads to GPU partitions: a brute-force
//! scan of the fact table evaluating conjunctive inclusive-range filters on
//! dimension columns, followed by (optionally weighted) aggregation over
//! measure columns and a reduction (Lauer et al.'s pipeline, paper §II-C).
//! Both entry points run on the vectorized executor ([`crate::exec`]):
//! batch-at-a-time predicate evaluation over selection vectors with
//! zone-map block skipping. The parallel variant splits the row blocks
//! into one contiguous part per thread ([`crate::par`]) and merges the
//! partial accumulators — structurally
//! the same as the GPU's "parallel table scan → parallel reduction" steps.
//! A plain scan runs as a grouped scan with one slot and no key, so both
//! share one aggregation kernel. The row-at-a-time interpreter is kept as
//! [`FactTable::scan_scalar`], the reference implementation the vectorized
//! engine is tested and benchmarked against.

use crate::exec::CompiledGroupBy;
use crate::schema::ColumnId;
use crate::table::FactTable;
use std::fmt;

/// Inclusive range filter on a `u32` dimension column: the physical form of
/// the paper's condition `C_L(f, t, l_K)` after translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Column the filter applies to (must be a dimension column).
    pub column: ColumnId,
    /// Lower bound, inclusive (`f`).
    pub lo: u32,
    /// Upper bound, inclusive (`t`).
    pub hi: u32,
}

impl Predicate {
    /// Builds a range predicate `lo <= col <= hi`.
    pub fn range(column: ColumnId, lo: u32, hi: u32) -> Self {
        Self { column, lo, hi }
    }

    /// Builds an equality predicate `col == v`.
    pub fn eq(column: ColumnId, v: u32) -> Self {
        Self {
            column,
            lo: v,
            hi: v,
        }
    }
}

/// Aggregation operators supported by the scan engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Number of matching rows (needs no measure column).
    Count,
    /// Sum of a measure.
    Sum,
    /// Minimum of a measure.
    Min,
    /// Maximum of a measure.
    Max,
    /// Arithmetic mean of a measure.
    Avg,
}

/// One requested aggregate: an operator plus the measure column it reads
/// (`None` only for [`AggOp::Count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    /// Operator.
    pub op: AggOp,
    /// Measure column index, or `None` for `COUNT(*)`.
    pub measure: Option<usize>,
}

impl AggSpec {
    /// Creates an aggregate spec.
    ///
    /// # Panics
    ///
    /// Panics if a non-`Count` operator is given no measure column.
    pub fn new(op: AggOp, measure: Option<usize>) -> Self {
        assert!(
            measure.is_some() || op == AggOp::Count,
            "{op:?} requires a measure column"
        );
        Self { op, measure }
    }

    /// `COUNT(*)` shorthand.
    pub fn count_star() -> Self {
        Self {
            op: AggOp::Count,
            measure: None,
        }
    }
}

/// Membership filter on a `u32` dimension column: the row matches when
/// its coordinate is one of `codes`. This is how substring (`contains`)
/// text predicates reach the scan engine — the dictionary side turns the
/// pattern into a set of codes (see `holap-dict`'s Aho–Corasick module),
/// which is generally not a contiguous range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetPredicate {
    /// Column the filter applies to (must be a dimension column).
    pub column: ColumnId,
    /// Sorted, deduplicated member codes. May be empty (matches nothing).
    codes: Vec<u32>,
}

impl SetPredicate {
    /// Builds a membership predicate (codes are sorted and deduplicated).
    pub fn new(column: ColumnId, mut codes: Vec<u32>) -> Self {
        codes.sort_unstable();
        codes.dedup();
        Self { column, codes }
    }

    /// The sorted member codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.codes.binary_search(&v).is_ok()
    }

    /// Whether any member code lies in `lo..=hi` — the zone-map pruning
    /// test: a block whose `[min, max]` misses every code cannot match.
    #[inline]
    pub fn intersects_range(&self, lo: u32, hi: u32) -> bool {
        let i = self.codes.partition_point(|&c| c < lo);
        i < self.codes.len() && self.codes[i] <= hi
    }

    /// Whether *every* value in `lo..=hi` is a member — the filter can be
    /// elided for a block whose `[min, max]` the set covers. Codes are
    /// sorted and deduplicated, so the run `lo..=hi` is present exactly
    /// when `lo` is a member and `hi` sits `hi - lo` slots later.
    #[inline]
    pub fn covers_range(&self, lo: u32, hi: u32) -> bool {
        let i = self.codes.partition_point(|&c| c < lo);
        let span = (hi - lo) as usize;
        i < self.codes.len()
            && self.codes[i] == lo
            && i + span < self.codes.len()
            && self.codes[i + span] == hi
    }
}

/// A full scan query: conjunctive filters, aggregates, optional row weight.
///
/// The `weight` multiplies every aggregated measure value before
/// accumulation — the paper's "multiple weighted aggregations" inherited
/// from Lauer et al.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanQuery {
    /// Conjunctive range filters (the query's filtration conditions).
    pub predicates: Vec<Predicate>,
    /// Conjunctive membership filters (translated substring predicates).
    pub set_predicates: Vec<SetPredicate>,
    /// Requested aggregates.
    pub aggregates: Vec<AggSpec>,
    /// Weight applied to measure values (default 1.0).
    pub weight: f64,
}

impl Default for ScanQuery {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanQuery {
    /// Creates an empty query (no filters, no aggregates, weight 1).
    pub fn new() -> Self {
        Self {
            predicates: Vec::new(),
            set_predicates: Vec::new(),
            aggregates: Vec::new(),
            weight: 1.0,
        }
    }

    /// Adds a filter (builder style).
    pub fn filter(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    /// Adds a membership filter (builder style).
    pub fn filter_set(mut self, p: SetPredicate) -> Self {
        self.set_predicates.push(p);
        self
    }

    /// Adds an aggregate (builder style).
    pub fn aggregate(mut self, a: AggSpec) -> Self {
        self.aggregates.push(a);
        self
    }

    /// Sets the row weight (builder style).
    pub fn with_weight(mut self, w: f64) -> Self {
        self.weight = w;
        self
    }

    /// Number of distinct physical columns this query reads — `C_QD` of
    /// Eq. 12: filtration condition columns plus data columns processed.
    pub fn columns_accessed(&self) -> usize {
        let mut cols: Vec<ColumnId> = self
            .predicates
            .iter()
            .map(|p| p.column)
            .chain(self.set_predicates.iter().map(|p| p.column))
            .chain(
                self.aggregates
                    .iter()
                    .filter_map(|a| a.measure.map(ColumnId::Measure)),
            )
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols.len()
    }

    /// Fraction of the table's columns this query reads — the `C/C_TOT`
    /// argument of the GPU performance function (Eq. 13).
    pub fn column_fraction(&self, total_columns: usize) -> f64 {
        assert!(total_columns > 0);
        (self.columns_accessed() as f64 / total_columns as f64).min(1.0)
    }
}

/// Errors raised by scan validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// A predicate references a column that is not a dimension column of
    /// the schema.
    BadPredicateColumn(ColumnId),
    /// An aggregate references a measure column outside the schema.
    BadMeasure(usize),
    /// A predicate's bounds are inverted (`lo > hi`).
    EmptyRange(Predicate),
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadPredicateColumn(c) => write!(f, "predicate column {c:?} not in schema"),
            Self::BadMeasure(m) => write!(f, "measure column {m} not in schema"),
            Self::EmptyRange(p) => write!(f, "predicate {p:?} has lo > hi"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Accumulator/result for one aggregate.
///
/// Every engine fills in `count` and, beyond that, only the running
/// statistic of its own operator: `sum` for SUM and AVG, `min` for MIN,
/// `max` for MAX. The other fields keep their empty values (`0`, `+∞`,
/// `−∞`); [`AggValue::value`] reads only the operator's own statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggValue {
    /// Operator this value was computed with.
    pub op: AggOp,
    /// Running sum (weighted) for Sum/Avg, `0` otherwise.
    pub sum: f64,
    /// Number of rows accumulated.
    pub count: u64,
    /// Running minimum (weighted) for Min, `+∞` otherwise or when empty.
    pub min: f64,
    /// Running maximum (weighted) for Max, `−∞` otherwise or when empty.
    pub max: f64,
}

impl AggValue {
    pub(crate) fn empty(op: AggOp) -> Self {
        Self {
            op,
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one (weighted) value to the count and to the operator's own
    /// statistic. A tie never replaces the running extreme, so the first
    /// row wins.
    #[inline]
    pub(crate) fn accumulate(&mut self, v: f64) {
        self.count += 1;
        match self.op {
            AggOp::Count => {}
            AggOp::Sum | AggOp::Avg => self.sum += v,
            AggOp::Min => {
                if v < self.min {
                    self.min = v;
                }
            }
            AggOp::Max => {
                if v > self.max {
                    self.max = v;
                }
            }
        }
    }

    #[inline]
    pub(crate) fn accumulate_count(&mut self) {
        self.count += 1;
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.op, other.op);
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The final value of the aggregate, or `None` when no row matched and
    /// the operator has no identity (Min/Max/Avg).
    pub fn value(&self) -> Option<f64> {
        match self.op {
            AggOp::Count => Some(self.count as f64),
            AggOp::Sum => Some(self.sum),
            AggOp::Min => (self.count > 0).then_some(self.min),
            AggOp::Max => (self.count > 0).then_some(self.max),
            AggOp::Avg => (self.count > 0).then(|| self.sum / self.count as f64),
        }
    }
}

/// Result of a scan: one [`AggValue`] per requested aggregate, plus the
/// number of rows that matched the filters.
#[derive(Debug, Clone, PartialEq)]
pub struct AggResult {
    /// Aggregate values, in request order.
    pub values: Vec<AggValue>,
    /// Number of rows that passed all filters.
    pub matched_rows: u64,
}

impl FactTable {
    pub(crate) fn validate(&self, q: &ScanQuery) -> Result<(), ScanError> {
        for p in &q.predicates {
            match p.column {
                ColumnId::Dim { .. } if self.schema().contains(p.column) => {}
                _ => return Err(ScanError::BadPredicateColumn(p.column)),
            }
            if p.lo > p.hi {
                return Err(ScanError::EmptyRange(*p));
            }
        }
        for p in &q.set_predicates {
            match p.column {
                ColumnId::Dim { .. } if self.schema().contains(p.column) => {}
                _ => return Err(ScanError::BadPredicateColumn(p.column)),
            }
        }
        for a in &q.aggregates {
            if let Some(m) = a.measure {
                if m >= self.schema().measures.len() {
                    return Err(ScanError::BadMeasure(m));
                }
            }
        }
        Ok(())
    }

    /// Scans one block of rows `[start, end)` row-at-a-time, returning
    /// partial results — the naive interpreter kept as the reference the
    /// vectorized engine is verified against.
    fn scan_block_scalar(&self, q: &ScanQuery, start: usize, end: usize) -> AggResult {
        let pred_cols: Vec<&[u32]> = q
            .predicates
            .iter()
            .map(|p| self.u32_column(p.column))
            .collect();
        let set_cols: Vec<&[u32]> = q
            .set_predicates
            .iter()
            .map(|p| self.u32_column(p.column))
            .collect();
        let agg_cols: Vec<Option<&[f64]>> = q
            .aggregates
            .iter()
            .map(|a| a.measure.map(|m| self.measure_column(m)))
            .collect();
        let mut values: Vec<AggValue> =
            q.aggregates.iter().map(|a| AggValue::empty(a.op)).collect();
        let mut matched = 0u64;
        'rows: for row in start..end {
            for (p, col) in q.predicates.iter().zip(&pred_cols) {
                let v = col[row];
                if v < p.lo || v > p.hi {
                    continue 'rows;
                }
            }
            for (p, col) in q.set_predicates.iter().zip(&set_cols) {
                if !p.contains(col[row]) {
                    continue 'rows;
                }
            }
            matched += 1;
            for (val, col) in values.iter_mut().zip(&agg_cols) {
                match col {
                    Some(c) => val.accumulate(c[row] * q.weight),
                    None => val.accumulate_count(),
                }
            }
        }
        AggResult {
            values,
            matched_rows: matched,
        }
    }

    /// Row-at-a-time reference scan: the original naive interpreter, with
    /// one [`AggValue`] per aggregate that accumulates only its operator's
    /// statistic. Property tests assert the vectorized
    /// [`FactTable::scan_seq`] is exactly equivalent to it, and the
    /// `scan_bench` binary measures the speedup against it.
    pub fn scan_scalar(&self, q: &ScanQuery) -> Result<AggResult, ScanError> {
        self.validate(q)?;
        Ok(self.scan_block_scalar(q, 0, self.rows()))
    }

    /// Sequential scan (the single-threaded baseline) on the vectorized
    /// executor: a grouped scan with one slot and no key. Bit-identical to
    /// [`FactTable::scan_scalar`]: batches are visited in row order with a
    /// single accumulator per statistic, so floating-point accumulation
    /// order is unchanged.
    pub fn scan_seq(&self, q: &ScanQuery) -> Result<AggResult, ScanError> {
        self.validate(q)?;
        let compiled = CompiledGroupBy::compile(self, q, &[]);
        Ok(compiled.run_seq().finish_scan(&compiled))
    }

    /// Parallel scan over row blocks with the current [`crate::par::Pool`]'s
    /// width: each thread accumulates a contiguous run of whole blocks
    /// into its own partial and the partials merge in block order —
    /// no `Vec` of per-block results is ever materialised. Blocks the zone
    /// maps rule out entirely are never handed to a thread.
    ///
    /// Equivalent to [`FactTable::scan_seq`] up to floating-point
    /// reassociation in the reduction; MIN/MAX keep the earlier extreme on
    /// ties, so they match to the bit.
    pub fn scan_par(&self, q: &ScanQuery) -> Result<AggResult, ScanError> {
        self.validate(q)?;
        let compiled = CompiledGroupBy::compile(self, q, &[]);
        Ok(compiled.run_par().finish_scan(&compiled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::table::FactTableBuilder;

    /// 2 dims (2 + 1 levels), 2 measures; 1000 rows with known content.
    fn table() -> FactTable {
        let schema = TableSchema::builder()
            .dimension("time", &[("year", 10), ("month", 120)])
            .dimension("geo", &[("city", 50)])
            .measure("sales")
            .measure("qty")
            .build();
        let mut b = FactTableBuilder::new(schema);
        for i in 0..1000u32 {
            let year = i % 10;
            let month = i % 120;
            let city = i % 50;
            b.push_row(&[year, month, city], &[i as f64, (i % 7) as f64])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn count_star_no_filters() {
        let t = table();
        let q = ScanQuery::new().aggregate(AggSpec::count_star());
        let r = t.scan_seq(&q).unwrap();
        assert_eq!(r.matched_rows, 1000);
        assert_eq!(r.values[0].value(), Some(1000.0));
    }

    #[test]
    fn filtered_sum_matches_manual() {
        let t = table();
        // year == 3 → rows 3, 13, 23, …, 993 (100 rows, values i).
        let q = ScanQuery::new()
            .filter(Predicate::eq(ColumnId::dim(0, 0), 3))
            .aggregate(AggSpec::new(AggOp::Sum, Some(0)));
        let r = t.scan_seq(&q).unwrap();
        assert_eq!(r.matched_rows, 100);
        let expect: f64 = (0..100).map(|k| (3 + 10 * k) as f64).sum();
        assert_eq!(r.values[0].value(), Some(expect));
    }

    #[test]
    fn conjunction_of_filters() {
        let t = table();
        // year in [2,4] AND city == 12 → i ≡ 12 (mod 50) and i%10 ∈ {2,3,4}
        let q = ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(0, 0), 2, 4))
            .filter(Predicate::eq(ColumnId::dim(1, 0), 12))
            .aggregate(AggSpec::count_star());
        let r = t.scan_seq(&q).unwrap();
        let expect = (0..1000u32)
            .filter(|i| (2..=4).contains(&(i % 10)) && i % 50 == 12)
            .count() as u64;
        assert_eq!(r.matched_rows, expect);
        assert!(expect > 0);
    }

    #[test]
    fn min_max_avg() {
        let t = table();
        let q = ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(0, 0), 0, 0)) // i % 10 == 0
            .aggregate(AggSpec::new(AggOp::Min, Some(0)))
            .aggregate(AggSpec::new(AggOp::Max, Some(0)))
            .aggregate(AggSpec::new(AggOp::Avg, Some(0)));
        let r = t.scan_seq(&q).unwrap();
        assert_eq!(r.values[0].value(), Some(0.0));
        assert_eq!(r.values[1].value(), Some(990.0));
        assert_eq!(r.values[2].value(), Some(495.0));
    }

    #[test]
    fn empty_match_semantics() {
        let t = table();
        let q = ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(1, 0), 49, 49))
            .filter(Predicate::range(ColumnId::dim(1, 0), 0, 0)) // contradictory
            .aggregate(AggSpec::count_star())
            .aggregate(AggSpec::new(AggOp::Min, Some(0)))
            .aggregate(AggSpec::new(AggOp::Avg, Some(1)));
        let r = t.scan_seq(&q).unwrap();
        assert_eq!(r.matched_rows, 0);
        assert_eq!(r.values[0].value(), Some(0.0));
        assert_eq!(r.values[1].value(), None);
        assert_eq!(r.values[2].value(), None);
    }

    #[test]
    fn weighted_aggregation() {
        let t = table();
        let q = ScanQuery::new()
            .aggregate(AggSpec::new(AggOp::Sum, Some(1)))
            .with_weight(2.5);
        let r = t.scan_seq(&q).unwrap();
        let plain: f64 = (0..1000u32).map(|i| (i % 7) as f64).sum();
        assert!((r.values[0].value().unwrap() - plain * 2.5).abs() < 1e-9);
    }

    #[test]
    fn parallel_equals_sequential() {
        let t = table();
        let q = ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(0, 1), 10, 90))
            .aggregate(AggSpec::new(AggOp::Sum, Some(0)))
            .aggregate(AggSpec::count_star())
            .aggregate(AggSpec::new(AggOp::Min, Some(1)))
            .aggregate(AggSpec::new(AggOp::Max, Some(1)));
        let s = t.scan_seq(&q).unwrap();
        let p = t.scan_par(&q).unwrap();
        assert_eq!(s.matched_rows, p.matched_rows);
        for (a, b) in s.values.iter().zip(&p.values) {
            match (a.value(), b.value()) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6 * (1.0 + x.abs())),
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn columns_accessed_matches_eq12() {
        // 2 distinct filter columns + 1 data column, one filter column
        // repeated and one aggregate repeated → still 3 distinct columns.
        let q = ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(0, 0), 0, 1))
            .filter(Predicate::range(ColumnId::dim(0, 0), 0, 5))
            .filter(Predicate::range(ColumnId::dim(1, 0), 0, 5))
            .aggregate(AggSpec::new(AggOp::Sum, Some(0)))
            .aggregate(AggSpec::new(AggOp::Avg, Some(0)))
            .aggregate(AggSpec::count_star());
        assert_eq!(q.columns_accessed(), 3);
        assert!((q.column_fraction(6) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_predicates_filter_membership() {
        let t = table();
        let q = ScanQuery::new()
            .filter_set(SetPredicate::new(ColumnId::dim(1, 0), vec![41, 3, 17, 3]))
            .aggregate(AggSpec::count_star());
        let r = t.scan_seq(&q).unwrap();
        let expect = (0..1000u32)
            .filter(|i| [3, 17, 41].contains(&(i % 50)))
            .count() as u64;
        assert_eq!(r.matched_rows, expect);
        // Combined with a range filter.
        let q2 = ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(0, 0), 0, 4))
            .filter_set(SetPredicate::new(ColumnId::dim(1, 0), vec![3, 17, 41]))
            .aggregate(AggSpec::count_star());
        let r2 = t.scan_seq(&q2).unwrap();
        let expect2 = (0..1000u32)
            .filter(|i| i % 10 <= 4 && [3, 17, 41].contains(&(i % 50)))
            .count() as u64;
        assert_eq!(r2.matched_rows, expect2);
        // Parallel agrees.
        assert_eq!(t.scan_par(&q2).unwrap().matched_rows, expect2);
        // Columns: the set column counts towards Eq. 12.
        assert_eq!(q2.columns_accessed(), 2);
    }

    #[test]
    fn empty_set_matches_nothing() {
        let t = table();
        let q = ScanQuery::new()
            .filter_set(SetPredicate::new(ColumnId::dim(0, 0), vec![]))
            .aggregate(AggSpec::count_star());
        assert_eq!(t.scan_seq(&q).unwrap().matched_rows, 0);
    }

    #[test]
    fn set_predicate_on_bad_column_rejected() {
        let t = table();
        let q = ScanQuery::new().filter_set(SetPredicate::new(ColumnId::measure(0), vec![1]));
        assert!(matches!(
            t.scan_seq(&q),
            Err(ScanError::BadPredicateColumn(_))
        ));
    }

    #[test]
    fn validation_errors() {
        let t = table();
        let q = ScanQuery::new().filter(Predicate::range(ColumnId::dim(5, 0), 0, 1));
        assert_eq!(
            t.scan_seq(&q),
            Err(ScanError::BadPredicateColumn(ColumnId::dim(5, 0)))
        );
        let q = ScanQuery::new().filter(Predicate::range(ColumnId::measure(0), 0, 1));
        assert!(matches!(
            t.scan_seq(&q),
            Err(ScanError::BadPredicateColumn(_))
        ));
        let q = ScanQuery::new().aggregate(AggSpec::new(AggOp::Sum, Some(9)));
        assert_eq!(t.scan_seq(&q), Err(ScanError::BadMeasure(9)));
        let p = Predicate::range(ColumnId::dim(0, 0), 5, 2);
        let q = ScanQuery::new().filter(p);
        assert_eq!(t.scan_seq(&q), Err(ScanError::EmptyRange(p)));
    }

    #[test]
    #[should_panic(expected = "requires a measure column")]
    fn agg_spec_requires_measure() {
        AggSpec::new(AggOp::Sum, None);
    }

    #[test]
    fn scan_empty_table() {
        let schema = TableSchema::builder()
            .dimension("d", &[("l", 2)])
            .measure("m")
            .build();
        let t = FactTableBuilder::new(schema).finish();
        let q = ScanQuery::new().aggregate(AggSpec::count_star());
        assert_eq!(t.scan_par(&q).unwrap().matched_rows, 0);
    }
}
