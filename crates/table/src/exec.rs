//! The vectorized scan executor: batch-at-a-time predicate evaluation over
//! selection vectors, zone-map block skipping, and slot-array grouping.
//!
//! This is the one engine behind [`FactTable::scan_seq`],
//! [`FactTable::scan_par`], [`FactTable::group_by_seq`] and
//! [`FactTable::group_by_par`]. Instead of interpreting every predicate for
//! every row (the retained reference implementation,
//! [`FactTable::scan_scalar`]), a scan is *compiled* once:
//!
//! * each conjunctive range predicate collapses to one inclusive window per
//!   physical column (the intersection of all windows on that column);
//! * each [`SetPredicate`] becomes a dense bitmap over the column's domain
//!   when the domain is small enough ([`BITMAP_MAX_BITS`]), falling back to
//!   binary search over the sorted codes for huge sparse domains;
//! * provably-empty conjunctions (an empty set, a contradictory window, or
//!   a window disjoint from the table-wide zone bounds) short-circuit to
//!   the empty result without visiting a single row.
//!
//! Execution then walks fixed [`BATCH_ROWS`]-row batches. For every batch
//! the zone maps decide, per filter, one of three outcomes: **skip** the
//! batch (no row can match), **elide** the filter (every row matches), or
//! **evaluate** it. Evaluated filters run branch-free over the batch: the
//! first fills a reusable selection vector with matching row indices, the
//! rest compact it in place. Aggregation walks the surviving indices in row
//! order — the same floating-point accumulation order as the scalar
//! reference, so sequential results are bit-identical.
//!
//! A grouped scan keeps its groups as per-slot arrays ([`GroupAcc`]): a row
//! count per slot, and a sum/min/max per slot for each distinct measure
//! column; every aggregate's `count` is the slot's row count. A single
//! small-domain key is its own slot (the arrays span the column's zone-map
//! maximum); wider keys are packed into a `u64` or hashed as a tuple, and
//! the map hands out slot ids. Each batch then runs one fused pass over its
//! matching rows — read the key, bump the row count, fold the measure —
//! with no per-row dispatch on the key path or the aggregate list.

use crate::scan::{AggOp, AggResult, AggValue, ScanQuery, SetPredicate};
use crate::schema::ColumnId;
use crate::table::FactTable;
use crate::zone::ZoneMaps;
use std::collections::HashMap;

/// Rows per vectorized batch. Zone-map blocks are exactly this size, so a
/// batch maps to one zone-map entry per column.
pub const BATCH_ROWS: usize = 1024;

/// Rows per parallel work block: a whole number of batches, large enough to
/// amortise a thread's start-up, small enough to load-balance across threads.
pub const BLOCK_ROWS: usize = 64 * BATCH_ROWS;

// A parallel block must cover a whole number of zone-aligned batches.
const _: () = assert!(BLOCK_ROWS.is_multiple_of(BATCH_ROWS));

/// Largest column domain a set predicate is compiled into a dense bitmap
/// for (2^22 bits = 512 KiB of words). Larger domains keep binary search.
pub const BITMAP_MAX_BITS: u64 = 1 << 22;

/// Largest single-column domain the group-by uses the key code as its
/// slot for.
const DENSE_GROUP_MAX: u64 = 1 << 16;

/// One compiled conjunct bound to its physical column.
struct Filter<'t> {
    /// Column data.
    col: &'t [u32],
    /// Flat dimension-column index (zone-map addressing).
    zone_idx: usize,
    op: FilterOp<'t>,
}

enum FilterOp<'t> {
    /// Inclusive window `lo..=hi` (already the intersection of every range
    /// predicate on this column).
    Range { lo: u32, hi: u32 },
    /// Dense membership bitmap over the column domain; `pred` is kept for
    /// zone-map pruning.
    Bitmap {
        words: Vec<u64>,
        pred: &'t SetPredicate,
    },
    /// Sorted-codes binary search (huge sparse domains).
    Sparse { pred: &'t SetPredicate },
}

/// What the zone map proves about one filter on one batch.
enum ZoneDecision {
    /// No row of the batch can match — skip the batch.
    Skip,
    /// Every row of the batch matches — elide the filter.
    AllMatch,
    /// Undecided — evaluate the filter.
    Eval,
}

impl Filter<'_> {
    fn zone_decision(&self, zones: &ZoneMaps, block: usize) -> ZoneDecision {
        let (bmin, bmax) = zones.column(self.zone_idx).block_bounds(block);
        match &self.op {
            FilterOp::Range { lo, hi } => {
                if bmax < *lo || bmin > *hi {
                    ZoneDecision::Skip
                } else if *lo <= bmin && bmax <= *hi {
                    ZoneDecision::AllMatch
                } else {
                    ZoneDecision::Eval
                }
            }
            FilterOp::Bitmap { pred, .. } | FilterOp::Sparse { pred } => {
                if !pred.intersects_range(bmin, bmax) {
                    ZoneDecision::Skip
                } else if pred.covers_range(bmin, bmax) {
                    ZoneDecision::AllMatch
                } else {
                    ZoneDecision::Eval
                }
            }
        }
    }

    /// Fills `sel` with the indices of matching rows in `[start, end)`.
    /// Branch-free: the index is stored unconditionally and the cursor
    /// advances by the 0/1 match flag.
    fn eval_init(&self, start: usize, end: usize, sel: &mut [u32]) -> usize {
        let window = &self.col[start..end];
        let mut n = 0;
        match &self.op {
            FilterOp::Range { lo, hi } => {
                let (lo, span) = (*lo, *hi - *lo);
                for (i, &v) in window.iter().enumerate() {
                    sel[n] = (start + i) as u32;
                    n += usize::from(v.wrapping_sub(lo) <= span);
                }
            }
            FilterOp::Bitmap { words, .. } => {
                for (i, &v) in window.iter().enumerate() {
                    sel[n] = (start + i) as u32;
                    n += ((words[(v >> 6) as usize] >> (v & 63)) & 1) as usize;
                }
            }
            FilterOp::Sparse { pred } => {
                for (i, &v) in window.iter().enumerate() {
                    sel[n] = (start + i) as u32;
                    n += usize::from(pred.contains(v));
                }
            }
        }
        n
    }

    /// Compacts `sel[..n]` in place to the indices that also pass this
    /// filter, returning the surviving count.
    fn eval_compact(&self, sel: &mut [u32], n: usize) -> usize {
        let col = self.col;
        let mut m = 0;
        match &self.op {
            FilterOp::Range { lo, hi } => {
                let (lo, span) = (*lo, *hi - *lo);
                for k in 0..n {
                    let idx = sel[k];
                    let v = col[idx as usize];
                    sel[m] = idx;
                    m += usize::from(v.wrapping_sub(lo) <= span);
                }
            }
            FilterOp::Bitmap { words, .. } => {
                for k in 0..n {
                    let idx = sel[k];
                    let v = col[idx as usize];
                    sel[m] = idx;
                    m += ((words[(v >> 6) as usize] >> (v & 63)) & 1) as usize;
                }
            }
            FilterOp::Sparse { pred } => {
                for k in 0..n {
                    let idx = sel[k];
                    sel[m] = idx;
                    m += usize::from(pred.contains(col[idx as usize]));
                }
            }
        }
        m
    }
}

/// A scan compiled against one table: filters bound to columns, aggregate
/// inputs resolved, degeneracy decided.
pub(crate) struct CompiledScan<'t> {
    filters: Vec<Filter<'t>>,
    agg_cols: Vec<Option<&'t [f64]>>,
    ops: Vec<AggOp>,
    weight: f64,
    /// The conjunction provably matches no row; execution returns the
    /// empty result without visiting any block.
    pub(crate) empty: bool,
}

impl<'t> CompiledScan<'t> {
    /// Compiles a validated query against `table`.
    pub(crate) fn compile(table: &'t FactTable, q: &'t ScanQuery) -> Self {
        let schema = table.schema();
        let zones = table.zone_maps();
        let has_rows = table.rows() > 0;
        let mut empty = false;

        // Intersect all range predicates per physical column, preserving
        // first-appearance order (conjunction is order-independent, so one
        // window per column is semantically identical and strictly cheaper).
        let mut order: Vec<usize> = Vec::new();
        let mut windows: HashMap<usize, (u32, u32)> = HashMap::new();
        for p in &q.predicates {
            let ColumnId::Dim { dim, level } = p.column else {
                unreachable!("validated predicate column");
            };
            let zone_idx = schema.dim_column_index(dim, level).expect("validated");
            windows
                .entry(zone_idx)
                .and_modify(|w| {
                    w.0 = w.0.max(p.lo);
                    w.1 = w.1.min(p.hi);
                })
                .or_insert_with(|| {
                    order.push(zone_idx);
                    (p.lo, p.hi)
                });
        }
        let mut filters = Vec::with_capacity(order.len() + q.set_predicates.len());
        for zone_idx in order {
            let (lo, hi) = windows[&zone_idx];
            if lo > hi {
                empty = true; // contradictory conjunction, e.g. =3 AND =5
            } else if has_rows {
                let (tmin, tmax) = zones.column(zone_idx).bounds().expect("table has rows");
                if hi < tmin || lo > tmax {
                    empty = true; // window disjoint from the table's domain
                }
            }
            filters.push(Filter {
                col: table.dim_column_flat(zone_idx),
                zone_idx,
                op: FilterOp::Range { lo, hi },
            });
        }

        for p in &q.set_predicates {
            let ColumnId::Dim { dim, level } = p.column else {
                unreachable!("validated set-predicate column");
            };
            let zone_idx = schema.dim_column_index(dim, level).expect("validated");
            if p.codes().is_empty() {
                empty = true;
            } else if has_rows {
                let (tmin, tmax) = zones.column(zone_idx).bounds().expect("table has rows");
                if !p.intersects_range(tmin, tmax) {
                    empty = true; // no member code inside the table's domain
                }
            }
            let cardinality = u64::from(schema.dimensions[dim].levels[level].cardinality);
            let op = if cardinality <= BITMAP_MAX_BITS {
                // Column values are `< cardinality` by construction, so a
                // cardinality-sized bitmap is always in bounds; member
                // codes beyond the domain can never match and are dropped.
                let mut words = vec![0u64; (cardinality as usize).div_ceil(64)];
                for &c in p.codes() {
                    if u64::from(c) < cardinality {
                        words[(c >> 6) as usize] |= 1 << (c & 63);
                    }
                }
                FilterOp::Bitmap { words, pred: p }
            } else {
                FilterOp::Sparse { pred: p }
            };
            filters.push(Filter {
                col: table.u32_column(p.column),
                zone_idx,
                op,
            });
        }

        let agg_cols = q
            .aggregates
            .iter()
            .map(|a| a.measure.map(|m| table.measure_column(m)))
            .collect();
        let ops = q.aggregates.iter().map(|a| a.op).collect();
        Self {
            filters,
            agg_cols,
            ops,
            weight: q.weight,
            empty,
        }
    }

    /// The result of matching zero rows.
    pub(crate) fn empty_result(&self) -> AggResult {
        AggResult {
            values: self.ops.iter().map(|&op| AggValue::empty(op)).collect(),
            matched_rows: 0,
        }
    }

    /// Walks `[start, end)` (with `start` batch-aligned) one batch at a
    /// time and hands `visit` each batch's matching rows, in row order.
    /// Zone maps skip a batch or elide its filters; the remaining filters
    /// fill and compact the selection vector.
    fn for_each_batch(
        &self,
        zones: &ZoneMaps,
        start: usize,
        end: usize,
        mut visit: impl FnMut(Matched<'_>),
    ) {
        debug_assert_eq!(start % BATCH_ROWS, 0);
        if self.empty || start >= end {
            return;
        }
        let mut sel = vec![0u32; BATCH_ROWS];
        let mut active: Vec<&Filter<'_>> = Vec::with_capacity(self.filters.len());
        let mut batch_start = start;
        let (mut scanned, mut skipped, mut elided, mut matched) = (0u64, 0u64, 0u64, 0u64);
        while batch_start < end {
            let batch_end = (batch_start + BATCH_ROWS).min(end);
            let block = batch_start / BATCH_ROWS;
            active.clear();
            let mut skip = false;
            for f in &self.filters {
                match f.zone_decision(zones, block) {
                    ZoneDecision::Skip => {
                        skip = true;
                        break;
                    }
                    ZoneDecision::AllMatch => {}
                    ZoneDecision::Eval => active.push(f),
                }
            }
            if skip {
                skipped += 1;
                batch_start = batch_end;
                continue;
            }
            scanned += 1;
            elided += (self.filters.len() - active.len()) as u64;
            if active.is_empty() {
                // Every row of the batch matches: no selection vector.
                matched += (batch_end - batch_start) as u64;
                visit(Matched::Window(batch_start..batch_end));
            } else {
                let mut n = active[0].eval_init(batch_start, batch_end, &mut sel);
                for f in &active[1..] {
                    if n == 0 {
                        break;
                    }
                    n = f.eval_compact(&mut sel, n);
                }
                if n > 0 {
                    matched += n as u64;
                    visit(Matched::Rows(&sel[..n]));
                }
            }
            batch_start = batch_end;
        }
        crate::telemetry::flush(scanned, skipped, elided, matched);
    }

    /// Scans `[start, end)` (with `start` batch-aligned), accumulating into
    /// `acc`. Row order is preserved, so accumulation order matches the
    /// scalar reference exactly.
    pub(crate) fn scan_range(
        &self,
        zones: &ZoneMaps,
        start: usize,
        end: usize,
        acc: &mut AggResult,
    ) {
        self.for_each_batch(zones, start, end, |m| {
            acc.matched_rows += m.len() as u64;
            for (val, col) in acc.values.iter_mut().zip(&self.agg_cols) {
                match (col, &m) {
                    (Some(c), Matched::Window(w)) => {
                        for &v in &c[w.clone()] {
                            val.accumulate(v * self.weight);
                        }
                    }
                    (Some(c), Matched::Rows(sel)) => {
                        for &idx in *sel {
                            val.accumulate(c[idx as usize] * self.weight);
                        }
                    }
                    (None, _) => val.count += m.len() as u64,
                }
            }
        });
    }
}

/// The rows of one batch that pass every filter, ascending.
enum Matched<'a> {
    /// The zone maps proved every row of the window matches.
    Window(std::ops::Range<usize>),
    /// The selection vector: indices of the matching rows.
    Rows(&'a [u32]),
}

impl Matched<'_> {
    fn len(&self) -> usize {
        match self {
            Matched::Window(w) => w.len(),
            Matched::Rows(sel) => sel.len(),
        }
    }
}

/// How group keys map to slots.
enum GroupPath {
    /// Single key column with a small domain: the slot is the key code
    /// itself, over `0..slots` (the column's table-wide maximum + 1).
    Dense { slots: usize },
    /// Combined key bits fit in a `u64`: keys packed by shifting, probed
    /// in a `u64`-keyed map (no per-row allocation).
    Packed { bits: Vec<u32> },
    /// Fallback for keys wider than 64 bits: `Vec<u32>`-keyed map (the
    /// key is cloned only once per group).
    Hashed,
}

/// A grouped scan compiled against one table.
pub(crate) struct CompiledGroupBy<'t> {
    pub(crate) scan: CompiledScan<'t>,
    key_cols: Vec<&'t [u32]>,
    path: GroupPath,
    /// The distinct measure columns the aggregates read, each accumulated
    /// once however many aggregates share it.
    measures: Vec<&'t [f64]>,
    /// Per aggregate: its operator and its index into `measures`
    /// (`None` for `COUNT(*)`).
    aggs: Vec<(AggOp, Option<usize>)>,
}

impl<'t> CompiledGroupBy<'t> {
    /// Compiles a validated grouped query against `table`.
    pub(crate) fn compile(table: &'t FactTable, q: &'t crate::groupby::GroupByQuery) -> Self {
        let scan = CompiledScan::compile(table, &q.scan);
        let key_cols: Vec<&[u32]> = q.group_by.iter().map(|&c| table.u32_column(c)).collect();
        let cards: Vec<u64> = q
            .group_by
            .iter()
            .map(|&c| {
                let ColumnId::Dim { dim, level } = c else {
                    unreachable!("validated group column");
                };
                u64::from(table.schema().dimensions[dim].levels[level].cardinality)
            })
            .collect();
        // Bits needed to hold any coordinate `0..cardinality`.
        let bits: Vec<u32> = cards
            .iter()
            .map(|&c| 64 - (c - 1).leading_zeros().min(64))
            .collect();
        let path = if cards.len() == 1 && cards[0] <= DENSE_GROUP_MAX {
            let ColumnId::Dim { dim, level } = q.group_by[0] else {
                unreachable!("validated group column");
            };
            let zone_idx = table
                .schema()
                .dim_column_index(dim, level)
                .expect("validated");
            let bounds = table.zone_maps().column(zone_idx).bounds();
            GroupPath::Dense {
                slots: bounds.map_or(0, |(_, max)| max as usize + 1),
            }
        } else if bits.iter().sum::<u32>() <= 64 {
            GroupPath::Packed { bits }
        } else {
            GroupPath::Hashed
        };
        let mut measure_ids: Vec<usize> = Vec::new();
        let aggs = q
            .scan
            .aggregates
            .iter()
            .map(|a| {
                let measure = a.measure.map(|m| {
                    measure_ids
                        .iter()
                        .position(|&id| id == m)
                        .unwrap_or_else(|| {
                            measure_ids.push(m);
                            measure_ids.len() - 1
                        })
                });
                (a.op, measure)
            })
            .collect();
        let measures = measure_ids
            .iter()
            .map(|&m| table.measure_column(m))
            .collect();
        Self {
            scan,
            key_cols,
            path,
            measures,
            aggs,
        }
    }

    /// Grouped scan of `[start, end)` (with `start` batch-aligned),
    /// accumulating into `acc` in row order.
    pub(crate) fn scan_range(
        &self,
        zones: &ZoneMaps,
        start: usize,
        end: usize,
        acc: &mut GroupAcc,
    ) {
        let mut slots: Vec<u32> = Vec::new();
        let mut key = vec![0u32; self.key_cols.len()];
        self.scan.for_each_batch(zones, start, end, |m| {
            acc.matched += m.len() as u64;
            match (&self.path, m) {
                (GroupPath::Dense { .. }, Matched::Window(w)) => {
                    let codes = self.key_cols[0];
                    acc.fold(self, w.map(|row| (row, codes[row] as usize)));
                }
                (GroupPath::Dense { .. }, Matched::Rows(sel)) => {
                    let codes = self.key_cols[0];
                    acc.fold(
                        self,
                        sel.iter()
                            .map(|&i| (i as usize, codes[i as usize] as usize)),
                    );
                }
                (_, Matched::Window(w)) => self.fold_mapped(acc, w, &mut key, &mut slots),
                (_, Matched::Rows(sel)) => {
                    let rows = sel.iter().map(|&i| i as usize);
                    self.fold_mapped(acc, rows, &mut key, &mut slots);
                }
            }
        });
    }

    /// The Packed/Hashed batch step: probe each row's slot into `slots`,
    /// then run the same fused fold as the dense path.
    fn fold_mapped(
        &self,
        acc: &mut GroupAcc,
        rows: impl Iterator<Item = usize> + Clone,
        key: &mut [u32],
        slots: &mut Vec<u32>,
    ) {
        slots.clear();
        for row in rows.clone() {
            for (k, col) in key.iter_mut().zip(&self.key_cols) {
                *k = col[row];
            }
            slots.push(acc.slot_for_key(self, key));
        }
        acc.fold(self, rows.zip(slots.iter().map(|&s| s as usize)));
    }
}

/// Running SUM/MIN/MAX of one measure column within one group.
#[derive(Clone, Copy)]
struct Moments {
    sum: f64,
    min: f64,
    max: f64,
}

impl Moments {
    const EMPTY: Self = Self {
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Adds one (weighted) value — [`AggValue::accumulate`]'s arithmetic:
    /// a tie never replaces the running extreme, so the first row wins.
    #[inline(always)]
    fn add(&mut self, v: f64) {
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Appends the moments of later rows: the earlier extreme wins ties,
    /// as it would have in one row-order pass.
    fn merge(&mut self, later: &Self) {
        self.sum += later.sum;
        if later.min < self.min {
            self.min = later.min;
        }
        if later.max > self.max {
            self.max = later.max;
        }
    }
}

/// Per-worker grouping accumulator (the fold state of the parallel
/// `fold`+`reduce` grouped scan), held as per-slot arrays.
pub(crate) struct GroupAcc {
    matched: u64,
    /// Matched rows per slot — also every aggregate's `count`.
    rows: Vec<u64>,
    /// Per distinct measure column, per slot.
    moments: Vec<Vec<Moments>>,
    /// Packed/Hashed: the key of each slot.
    keys: Vec<Vec<u32>>,
    /// `Packed`: packed key → slot.
    packed: HashMap<u64, u32>,
    /// `Hashed`: full key → slot.
    hashed: HashMap<Vec<u32>, u32>,
}

impl GroupAcc {
    pub(crate) fn new(g: &CompiledGroupBy<'_>) -> Self {
        let slots = match g.path {
            GroupPath::Dense { slots } => slots,
            _ => 0,
        };
        Self {
            matched: 0,
            rows: vec![0; slots],
            moments: vec![vec![Moments::EMPTY; slots]; g.measures.len()],
            keys: Vec::new(),
            packed: HashMap::new(),
            hashed: HashMap::new(),
        }
    }

    /// The fused kernel: one pass over `(row, slot)` pairs, in row order,
    /// that bumps the slot's row count and folds the first measure; any
    /// further measure gets a pass of its own.
    #[inline(always)]
    fn fold(
        &mut self,
        g: &CompiledGroupBy<'_>,
        pairs: impl Iterator<Item = (usize, usize)> + Clone,
    ) {
        let rows = self.rows.as_mut_slice();
        let weight = g.scan.weight;
        match (g.measures.as_slice(), self.moments.as_mut_slice()) {
            ([first, more @ ..], [acc, accs @ ..]) => {
                for (row, s) in pairs.clone() {
                    rows[s] += 1;
                    acc[s].add(first[row] * weight);
                }
                for (col, acc) in more.iter().zip(accs) {
                    for (row, s) in pairs.clone() {
                        acc[s].add(col[row] * weight);
                    }
                }
            }
            _ => {
                for (_, s) in pairs {
                    rows[s] += 1;
                }
            }
        }
    }

    /// Packed/Hashed: finds or creates the slot of `key`.
    fn slot_for_key(&mut self, g: &CompiledGroupBy<'_>, key: &[u32]) -> u32 {
        let next = self.keys.len() as u32;
        let slot = match &g.path {
            GroupPath::Packed { bits } => {
                let packed = key
                    .iter()
                    .zip(bits)
                    .fold(0u64, |acc, (&coord, &b)| (acc << b) | u64::from(coord));
                *self.packed.entry(packed).or_insert(next)
            }
            GroupPath::Hashed => match self.hashed.get(key) {
                Some(&s) => s,
                None => {
                    self.hashed.insert(key.to_vec(), next);
                    next
                }
            },
            GroupPath::Dense { .. } => unreachable!("dense slots are key codes"),
        };
        if slot == next {
            self.keys.push(key.to_vec());
            self.rows.push(0);
            for m in &mut self.moments {
                m.push(Moments::EMPTY);
            }
        }
        slot
    }

    /// Merges `other`, which covers later rows, into `self` (the reduce
    /// step).
    pub(crate) fn merge(&mut self, g: &CompiledGroupBy<'_>, other: Self) {
        if self.matched == 0 {
            // `self` holds no group (e.g. the reduce's starting identity).
            *self = other;
            return;
        }
        self.matched += other.matched;
        for s in 0..other.rows.len() {
            if other.rows[s] == 0 {
                continue; // a vacant dense code
            }
            let t = match g.path {
                GroupPath::Dense { .. } => s,
                _ => self.slot_for_key(g, &other.keys[s]) as usize,
            };
            self.rows[t] += other.rows[s];
            for (mine, theirs) in self.moments.iter_mut().zip(&other.moments) {
                mine[t].merge(&theirs[s]);
            }
        }
    }

    /// Produces the final result: the occupied slots as groups in key
    /// order, each aggregate's `count` taken from its slot's rows.
    pub(crate) fn finish(mut self, g: &CompiledGroupBy<'_>) -> crate::groupby::GroupedResult {
        let dense = matches!(g.path, GroupPath::Dense { .. });
        let mut groups: Vec<crate::groupby::Group> = (0..self.rows.len())
            .filter(|&s| self.rows[s] > 0)
            .map(|s| {
                let rows = self.rows[s];
                let values = g
                    .aggs
                    .iter()
                    .map(|&(op, measure)| {
                        let mut v = AggValue::empty(op);
                        v.count = rows;
                        if let Some(j) = measure {
                            let m = self.moments[j][s];
                            (v.sum, v.min, v.max) = (m.sum, m.min, m.max);
                        }
                        v
                    })
                    .collect();
                let key = if dense {
                    vec![s as u32]
                } else {
                    std::mem::take(&mut self.keys[s])
                };
                crate::groupby::Group { key, values, rows }
            })
            .collect();
        if !dense {
            groups.sort_by(|a, b| a.key.cmp(&b.key));
        }
        crate::groupby::GroupedResult {
            groups,
            matched_rows: self.matched,
        }
    }
}
