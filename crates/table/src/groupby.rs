//! Grouped filter + aggregate scans: `GROUP BY` over dimension columns.
//!
//! The cube-construction literature the paper builds on (§II-A/B) is all
//! about group-bys — a MOLAP cube *is* a materialised group-by lattice.
//! This module provides the dynamic counterpart on the fact table: group
//! rows by one or more dimension columns while aggregating measures, with
//! the same conjunctive range filters as plain scans. The engine uses it
//! for drill-down result sets ("sales *by month*"), and building a cube is
//! semantically `GROUP BY` over every dimension at the target resolution.

use crate::exec::{CompiledGroupBy, GroupAcc, BLOCK_ROWS};
use crate::par;
use crate::scan::{AggValue, Predicate, ScanError, ScanQuery};
use crate::schema::ColumnId;
use crate::table::FactTable;
use std::collections::HashMap;

/// A grouped scan: a plain [`ScanQuery`] plus the dimension columns whose
/// distinct value combinations form the groups.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByQuery {
    /// Filters + aggregates + weight.
    pub scan: ScanQuery,
    /// Group-key columns (must be dimension columns), in key order.
    pub group_by: Vec<ColumnId>,
}

impl GroupByQuery {
    /// Wraps a scan with group-key columns.
    pub fn new(scan: ScanQuery, group_by: Vec<ColumnId>) -> Self {
        Self { scan, group_by }
    }

    /// Number of distinct physical columns read — Eq. 12 extended: filter
    /// columns + data columns + group-key columns.
    pub fn columns_accessed(&self) -> usize {
        let mut cols: Vec<ColumnId> = self
            .scan
            .predicates
            .iter()
            .map(|p| p.column)
            .chain(self.scan.set_predicates.iter().map(|p| p.column))
            .chain(
                self.scan
                    .aggregates
                    .iter()
                    .filter_map(|a| a.measure.map(ColumnId::Measure)),
            )
            .chain(self.group_by.iter().copied())
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols.len()
    }
}

/// One group of a grouped-scan result.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// The group key: one coordinate per `group_by` column, in order.
    pub key: Vec<u32>,
    /// Aggregate values, in request order.
    pub values: Vec<AggValue>,
    /// Rows in the group.
    pub rows: u64,
}

/// Result of a grouped scan: groups sorted by key (deterministic output).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedResult {
    /// Groups in ascending key order.
    pub groups: Vec<Group>,
    /// Total rows that passed the filters.
    pub matched_rows: u64,
}

impl GroupedResult {
    /// Finds a group by exact key.
    pub fn group(&self, key: &[u32]) -> Option<&Group> {
        self.groups
            .binary_search_by(|g| g.key.as_slice().cmp(key))
            .ok()
            .map(|i| &self.groups[i])
    }
}

/// Per-block accumulator keyed by group key.
type Partial = HashMap<Vec<u32>, (Vec<AggValue>, u64)>;

impl FactTable {
    fn validate_group_by(&self, q: &GroupByQuery) -> Result<(), ScanError> {
        for &col in &q.group_by {
            match col {
                ColumnId::Dim { .. } if self.schema().contains(col) => {}
                _ => return Err(ScanError::BadPredicateColumn(col)),
            }
        }
        Ok(())
    }

    /// Row-at-a-time grouped scan of `[start, end)` — the naive reference
    /// implementation retained for verification and benchmarking.
    fn group_block_scalar(&self, q: &GroupByQuery, start: usize, end: usize) -> (Partial, u64) {
        let pred_cols: Vec<(&Predicate, &[u32])> = q
            .scan
            .predicates
            .iter()
            .map(|p| (p, self.u32_column(p.column)))
            .collect();
        let set_cols: Vec<&[u32]> = q
            .scan
            .set_predicates
            .iter()
            .map(|p| self.u32_column(p.column))
            .collect();
        let key_cols: Vec<&[u32]> = q.group_by.iter().map(|&c| self.u32_column(c)).collect();
        let agg_cols: Vec<Option<&[f64]>> = q
            .scan
            .aggregates
            .iter()
            .map(|a| a.measure.map(|m| self.measure_column(m)))
            .collect();
        let mut partial: Partial = HashMap::new();
        let mut matched = 0u64;
        let mut key = vec![0u32; q.group_by.len()];
        'rows: for row in start..end {
            for (p, col) in &pred_cols {
                let v = col[row];
                if v < p.lo || v > p.hi {
                    continue 'rows;
                }
            }
            for (p, col) in q.scan.set_predicates.iter().zip(&set_cols) {
                if !p.contains(col[row]) {
                    continue 'rows;
                }
            }
            matched += 1;
            for (k, col) in key.iter_mut().zip(&key_cols) {
                *k = col[row];
            }
            let entry = partial.entry(key.clone()).or_insert_with(|| {
                (
                    q.scan
                        .aggregates
                        .iter()
                        .map(|a| AggValue::empty(a.op))
                        .collect(),
                    0u64,
                )
            });
            entry.1 += 1;
            for (val, col) in entry.0.iter_mut().zip(&agg_cols) {
                match col {
                    Some(c) => val.accumulate(c[row] * q.scan.weight),
                    None => val.accumulate_count(),
                }
            }
        }
        (partial, matched)
    }

    fn merge_partials(parts: Vec<(Partial, u64)>) -> GroupedResult {
        let mut total: Partial = HashMap::new();
        let mut matched = 0u64;
        for (part, m) in parts {
            matched += m;
            for (key, (vals, rows)) in part {
                match total.entry(key) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((vals, rows));
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let (tv, tr) = e.get_mut();
                        *tr += rows;
                        for (a, b) in tv.iter_mut().zip(&vals) {
                            a.merge(b);
                        }
                    }
                }
            }
        }
        let mut groups: Vec<Group> = total
            .into_iter()
            .map(|(key, (values, rows))| Group { key, values, rows })
            .collect();
        groups.sort_by(|a, b| a.key.cmp(&b.key));
        GroupedResult {
            groups,
            matched_rows: matched,
        }
    }

    /// Row-at-a-time reference grouped scan — the original naive
    /// interpreter (per-row `Vec<u32>` key clone + `HashMap` probe),
    /// retained verbatim: property tests assert the vectorized
    /// [`FactTable::group_by_seq`] is exactly equivalent to it, and the
    /// `scan_bench` binary measures the speedup against it.
    pub fn group_by_scalar(&self, q: &GroupByQuery) -> Result<GroupedResult, ScanError> {
        self.validate(&q.scan)?;
        self.validate_group_by(q)?;
        Ok(Self::merge_partials(vec![self.group_block_scalar(
            q,
            0,
            self.rows(),
        )]))
    }

    /// Sequential grouped scan on the vectorized executor: one fused pass
    /// per batch into per-slot arrays, with the key code as the slot for a
    /// single small-domain key and a packed-`u64` (or tuple) map otherwise,
    /// instead of a per-row `Vec<u32>` clone. Bit-identical to
    /// [`FactTable::group_by_scalar`]: rows accumulate into their group in
    /// row order.
    pub fn group_by_seq(&self, q: &GroupByQuery) -> Result<GroupedResult, ScanError> {
        self.validate(&q.scan)?;
        self.validate_group_by(q)?;
        let compiled = CompiledGroupBy::compile(self, q);
        let mut acc = GroupAcc::new(&compiled);
        compiled.scan_range(self.zone_maps(), 0, self.rows(), &mut acc);
        Ok(acc.finish(&compiled))
    }

    /// Parallel grouped scan over row blocks ([`par::fold_reduce`]):
    /// every thread folds a contiguous run of whole blocks into its own
    /// slot-array accumulator and the accumulators merge in block order (the classic two-phase
    /// parallel aggregation of Liang & Orlowska's "naïve parallel
    /// algorithm", §II-B — without materialising per-block partials).
    pub fn group_by_par(&self, q: &GroupByQuery) -> Result<GroupedResult, ScanError> {
        self.validate(&q.scan)?;
        self.validate_group_by(q)?;
        let rows = self.rows();
        let compiled = CompiledGroupBy::compile(self, q);
        if rows == 0 || compiled.scan.empty {
            return Ok(GroupAcc::new(&compiled).finish(&compiled));
        }
        let zones = self.zone_maps();
        let blocks = rows.div_ceil(BLOCK_ROWS);
        let total = par::fold_reduce(
            0..blocks,
            || GroupAcc::new(&compiled),
            |mut acc, b| {
                let start = b * BLOCK_ROWS;
                let end = (start + BLOCK_ROWS).min(rows);
                compiled.scan_range(zones, start, end, &mut acc);
                acc
            },
            |mut a, b| {
                a.merge(&compiled, b);
                a
            },
        );
        Ok(total.finish(&compiled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{AggOp, AggSpec};
    use crate::schema::TableSchema;
    use crate::table::FactTableBuilder;

    fn table() -> FactTable {
        let schema = TableSchema::builder()
            .dimension("time", &[("year", 4), ("month", 48)])
            .dimension("geo", &[("city", 6)])
            .measure("sales")
            .build();
        let mut b = FactTableBuilder::new(schema);
        for i in 0..2000u32 {
            b.push_row(&[i % 4, i % 48, i % 6], &[i as f64]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn group_by_year_counts() {
        let t = table();
        let q = GroupByQuery::new(
            ScanQuery::new().aggregate(AggSpec::count_star()),
            vec![ColumnId::dim(0, 0)],
        );
        let r = t.group_by_seq(&q).unwrap();
        assert_eq!(r.groups.len(), 4);
        assert_eq!(r.matched_rows, 2000);
        for g in &r.groups {
            assert_eq!(g.rows, 500);
            assert_eq!(g.values[0].value(), Some(500.0));
        }
    }

    #[test]
    fn grouped_sums_match_per_group_filters() {
        let t = table();
        let q = GroupByQuery::new(
            ScanQuery::new()
                .filter(Predicate::range(ColumnId::dim(0, 1), 0, 23))
                .aggregate(AggSpec::new(AggOp::Sum, Some(0))),
            vec![ColumnId::dim(1, 0)],
        );
        let grouped = t.group_by_seq(&q).unwrap();
        // Each group must equal the plain scan with the key as a filter.
        for g in &grouped.groups {
            let plain = t
                .scan_seq(
                    &ScanQuery::new()
                        .filter(Predicate::range(ColumnId::dim(0, 1), 0, 23))
                        .filter(Predicate::eq(ColumnId::dim(1, 0), g.key[0]))
                        .aggregate(AggSpec::new(AggOp::Sum, Some(0))),
                )
                .unwrap();
            assert_eq!(plain.matched_rows, g.rows);
            assert_eq!(plain.values[0].value(), g.values[0].value());
        }
        // Groups partition the filtered rows.
        let total: u64 = grouped.groups.iter().map(|g| g.rows).sum();
        assert_eq!(total, grouped.matched_rows);
    }

    #[test]
    fn multi_column_keys() {
        let t = table();
        let q = GroupByQuery::new(
            ScanQuery::new().aggregate(AggSpec::new(AggOp::Sum, Some(0))),
            vec![ColumnId::dim(0, 0), ColumnId::dim(1, 0)],
        );
        let r = t.group_by_seq(&q).unwrap();
        // 4 years × 6 cities, but i%4 and i%6 are correlated mod 12:
        // exactly 12 distinct (i%4, i%6) pairs exist.
        assert_eq!(r.groups.len(), 12);
        // Keys are sorted and unique.
        for w in r.groups.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        // Lookup works.
        assert!(r.group(&[0, 0]).is_some());
        assert!(r.group(&[0, 1]).is_none(), "i%4==0 implies i%6 even");
    }

    #[test]
    fn parallel_equals_sequential() {
        let t = table();
        let q = GroupByQuery::new(
            ScanQuery::new()
                .filter(Predicate::range(ColumnId::dim(1, 0), 1, 4))
                .aggregate(AggSpec::new(AggOp::Sum, Some(0)))
                .aggregate(AggSpec::new(AggOp::Min, Some(0)))
                .aggregate(AggSpec::new(AggOp::Max, Some(0)))
                .aggregate(AggSpec::count_star()),
            vec![ColumnId::dim(0, 1)],
        );
        let s = t.group_by_seq(&q).unwrap();
        let p = t.group_by_par(&q).unwrap();
        assert_eq!(s.matched_rows, p.matched_rows);
        assert_eq!(s.groups.len(), p.groups.len());
        for (a, b) in s.groups.iter().zip(&p.groups) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.rows, b.rows);
            for (x, y) in a.values.iter().zip(&b.values) {
                match (x.value(), y.value()) {
                    (Some(u), Some(v)) => assert!((u - v).abs() < 1e-9 * (1.0 + u.abs())),
                    (u, v) => assert_eq!(u, v),
                }
            }
        }
    }

    #[test]
    fn columns_accessed_includes_group_keys() {
        let q = GroupByQuery::new(
            ScanQuery::new()
                .filter(Predicate::range(ColumnId::dim(0, 0), 0, 1))
                .aggregate(AggSpec::new(AggOp::Sum, Some(0))),
            vec![ColumnId::dim(0, 0), ColumnId::dim(1, 0)],
        );
        // filter col dim(0,0) overlaps group key → 3 distinct columns.
        assert_eq!(q.columns_accessed(), 3);
    }

    #[test]
    fn bad_group_column_rejected() {
        let t = table();
        let q = GroupByQuery::new(
            ScanQuery::new().aggregate(AggSpec::count_star()),
            vec![ColumnId::measure(0)],
        );
        assert!(matches!(
            t.group_by_seq(&q),
            Err(ScanError::BadPredicateColumn(_))
        ));
    }

    #[test]
    fn empty_table_yields_no_groups() {
        let schema = TableSchema::builder()
            .dimension("d", &[("l", 2)])
            .measure("m")
            .build();
        let t = FactTableBuilder::new(schema).finish();
        let q = GroupByQuery::new(
            ScanQuery::new().aggregate(AggSpec::count_star()),
            vec![ColumnId::dim(0, 0)],
        );
        let r = t.group_by_par(&q).unwrap();
        assert!(r.groups.is_empty());
        assert_eq!(r.matched_rows, 0);
    }
}
