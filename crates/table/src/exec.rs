//! The vectorized scan executor: batch-at-a-time predicate evaluation over
//! selection vectors, zone-map block skipping, and one slot-array
//! aggregation kernel for plain and grouped scans.
//!
//! This is the one engine behind [`FactTable::scan_seq`],
//! [`FactTable::scan_par`], [`FactTable::group_by_seq`] and
//! [`FactTable::group_by_par`]. Instead of interpreting every predicate for
//! every row (the reference implementation, [`FactTable::scan_scalar`]),
//! a scan is *compiled* once:
//!
//! * each conjunctive range predicate collapses to one inclusive window per
//!   physical column (the intersection of all windows on that column);
//! * each [`SetPredicate`] becomes a dense bitmap over the column's domain
//!   when the domain is small enough ([`BITMAP_MAX_BITS`]), falling back to
//!   binary search over the sorted codes for huge sparse domains;
//! * provably-empty conjunctions (an empty set, a contradictory window, or
//!   a window disjoint from the table-wide zone bounds) short-circuit to
//!   the empty result without visiting a single row;
//! * each distinct measure column gets its *need set*: the statistics
//!   (sum, min, max) its aggregates read, and no others.
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
//! Both kinds of scan aggregate into per-slot arrays (`GroupAcc`): a row
//! count per slot, and per distinct measure column one array per statistic
//! in its need set; every aggregate's `count` is the slot's row count. A
//! plain scan is a grouped scan with one slot and no key, whose batch fold
//! keeps its statistics in locals. A single small-domain key is its own
//! slot (the arrays span the column's zone-map maximum); wider keys are
//! packed into a `u64` or hashed as a tuple, and the map hands out slot
//! ids. Each batch runs one fused pass over its matching rows — read the
//! key, bump the row count, fold the measure — through a loop compiled for
//! the measure's need set, with no per-row dispatch on the key path or the
//! aggregate list.

use crate::par;
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

/// A scan's filters compiled against one table: bound to columns,
/// degeneracy decided.
pub(crate) struct CompiledScan<'t> {
    filters: Vec<Filter<'t>>,
    zones: &'t ZoneMaps,
    rows: usize,
    /// The conjunction provably matches no row; execution returns the
    /// empty result without visiting any block.
    empty: bool,
}

impl<'t> CompiledScan<'t> {
    /// Compiles a validated query's filters against `table`.
    fn compile(table: &'t FactTable, q: &'t ScanQuery) -> Self {
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

        Self {
            filters,
            zones,
            rows: table.rows(),
            empty,
        }
    }

    /// Decides batch `batch` from the zone maps: `false` when no row can
    /// match, else `true` with `active` refilled with the filters the
    /// batch must evaluate (the others match every row).
    fn plan_batch<'s>(&'s self, batch: usize, active: &mut Vec<&'s Filter<'t>>) -> bool {
        active.clear();
        for f in &self.filters {
            match f.zone_decision(self.zones, batch) {
                ZoneDecision::Skip => return false,
                ZoneDecision::AllMatch => {}
                ZoneDecision::Eval => active.push(f),
            }
        }
        true
    }

    /// The parallel blocks in which the zone maps leave at least one batch
    /// to scan. The batches of the dropped blocks are published as skipped,
    /// as if the scan had visited them.
    fn live_blocks(&self) -> Vec<usize> {
        if self.empty {
            return Vec::new();
        }
        let mut active = Vec::with_capacity(self.filters.len());
        let mut skipped = 0u64;
        let live = (0..self.rows.div_ceil(BLOCK_ROWS))
            .filter(|&b| {
                let start = b * BLOCK_ROWS;
                let end = (start + BLOCK_ROWS).min(self.rows);
                let batches = start / BATCH_ROWS..end.div_ceil(BATCH_ROWS);
                let live = batches
                    .clone()
                    .any(|batch| self.plan_batch(batch, &mut active));
                if !live {
                    skipped += batches.len() as u64;
                }
                live
            })
            .collect();
        crate::telemetry::flush(0, skipped, 0, 0);
        live
    }

    /// Walks `[start, end)` (with `start` batch-aligned) one batch at a
    /// time and hands `visit` each batch's matching rows, in row order.
    /// Zone maps skip a batch or elide its filters; the remaining filters
    /// fill and compact the selection vector.
    fn for_each_batch(&self, start: usize, end: usize, mut visit: impl FnMut(Matched<'_>)) {
        debug_assert_eq!(start % BATCH_ROWS, 0);
        if self.empty || start >= end {
            return;
        }
        let mut sel = vec![0u32; BATCH_ROWS];
        let mut active = Vec::with_capacity(self.filters.len());
        let mut batch_start = start;
        let (mut scanned, mut skipped, mut elided, mut matched) = (0u64, 0u64, 0u64, 0u64);
        while batch_start < end {
            let batch_end = (batch_start + BATCH_ROWS).min(end);
            if !self.plan_batch(batch_start / BATCH_ROWS, &mut active) {
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

/// How rows map to slots.
enum GroupPath {
    /// No key (a plain scan): every row goes to slot 0.
    Single,
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

/// The running statistics one measure column's aggregates read: the union
/// of its aggregates' needs. `COUNT` reads none, since every aggregate's
/// count is its slot's row count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Need {
    sum: bool,
    min: bool,
    max: bool,
}

impl Need {
    fn of(op: AggOp) -> Self {
        Self {
            sum: matches!(op, AggOp::Sum | AggOp::Avg),
            min: op == AggOp::Min,
            max: op == AggOp::Max,
        }
    }

    fn or(self, other: Self) -> Self {
        Self {
            sum: self.sum || other.sum,
            min: self.min || other.min,
            max: self.max || other.max,
        }
    }

    fn is_empty(self) -> bool {
        self == Self::default()
    }
}

/// A plain or grouped scan compiled against one table.
pub(crate) struct CompiledGroupBy<'t> {
    scan: CompiledScan<'t>,
    key_cols: Vec<&'t [u32]>,
    path: GroupPath,
    weight: f64,
    /// The distinct measure columns the aggregates read a statistic of,
    /// each with its need set and accumulated once however many aggregates
    /// share it.
    measures: Vec<(&'t [f64], Need)>,
    /// Per aggregate: its operator and its index into `measures` (`None`
    /// for `COUNT`, which reads only the slot's row count).
    aggs: Vec<(AggOp, Option<usize>)>,
}

impl<'t> CompiledGroupBy<'t> {
    /// Compiles a validated query grouped by `group_by` against `table`;
    /// no key columns make it a plain scan ([`GroupPath::Single`]).
    pub(crate) fn compile(table: &'t FactTable, q: &'t ScanQuery, group_by: &[ColumnId]) -> Self {
        let key_cols: Vec<&[u32]> = group_by.iter().map(|&c| table.u32_column(c)).collect();
        let cards: Vec<u64> = group_by
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
        let path = if group_by.is_empty() {
            GroupPath::Single
        } else if cards.len() == 1 && cards[0] <= DENSE_GROUP_MAX {
            let ColumnId::Dim { dim, level } = group_by[0] else {
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
        let mut measures: Vec<(usize, Need)> = Vec::new();
        let aggs = q
            .aggregates
            .iter()
            .map(|a| {
                let need = Need::of(a.op);
                let measure = a.measure.filter(|_| !need.is_empty()).map(|m| {
                    let j = measures.iter().position(|&(id, _)| id == m);
                    let j = j.unwrap_or_else(|| {
                        measures.push((m, Need::default()));
                        measures.len() - 1
                    });
                    measures[j].1 = measures[j].1.or(need);
                    j
                });
                (a.op, measure)
            })
            .collect();
        let measures = measures
            .iter()
            .map(|&(m, need)| (table.measure_column(m), need))
            .collect();
        Self {
            scan: CompiledScan::compile(table, q),
            key_cols,
            path,
            weight: q.weight,
            measures,
            aggs,
        }
    }

    /// Runs the query over the whole table on the calling thread.
    pub(crate) fn run_seq(&self) -> GroupAcc {
        let mut acc = GroupAcc::new(self);
        self.scan_range(0, self.scan.rows, &mut acc);
        acc
    }

    /// Runs the query with the current [`par::Pool`]'s width: each thread
    /// folds a contiguous run of whole blocks into its own accumulator and
    /// the accumulators merge in block order. Only blocks the zone maps
    /// leave work in are handed out, so a query with at most one such
    /// block runs inline and starts no thread.
    pub(crate) fn run_par(&self) -> GroupAcc {
        par::fold_reduce(
            self.scan.live_blocks(),
            || GroupAcc::new(self),
            |mut acc, b| {
                let start = b * BLOCK_ROWS;
                let end = (start + BLOCK_ROWS).min(self.scan.rows);
                self.scan_range(start, end, &mut acc);
                acc
            },
            |mut a, b| {
                a.merge(self, b);
                a
            },
        )
    }

    /// Scan of `[start, end)` (with `start` batch-aligned), accumulating
    /// into `acc` in row order.
    fn scan_range(&self, start: usize, end: usize, acc: &mut GroupAcc) {
        let mut slots: Vec<u32> = Vec::new();
        let mut key = vec![0u32; self.key_cols.len()];
        self.scan.for_each_batch(start, end, |m| {
            acc.matched += m.len() as u64;
            match (&self.path, m) {
                (GroupPath::Single, m) => acc.fold_single(self, &m),
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

/// Calls `$kernel` with a need set's flags as its trailing `SUM`, `MIN`
/// and `MAX` const parameters, so each need set runs a loop of its own.
macro_rules! with_need {
    ($need:expr, $kernel:ident $(::<$($lead:literal),*>)? ($($arg:expr),* $(,)?)) => {
        match ($need.sum, $need.min, $need.max) {
            (true, false, false) => $kernel::<$($($lead,)*)? true, false, false>($($arg),*),
            (false, true, false) => $kernel::<$($($lead,)*)? false, true, false>($($arg),*),
            (false, false, true) => $kernel::<$($($lead,)*)? false, false, true>($($arg),*),
            (true, true, false) => $kernel::<$($($lead,)*)? true, true, false>($($arg),*),
            (true, false, true) => $kernel::<$($($lead,)*)? true, false, true>($($arg),*),
            (false, true, true) => $kernel::<$($($lead,)*)? false, true, true>($($arg),*),
            (true, true, true) => $kernel::<$($($lead,)*)? true, true, true>($($arg),*),
            (false, false, false) => unreachable!("a measure with an empty need set is not compiled"),
        }
    };
}

/// The slot kernel: folds one measure's weighted values over `(row, slot)`
/// pairs in row order into the statistics `SUM`/`MIN`/`MAX`, and also
/// bumps each slot's row count when `ROWS`. A tie never replaces a running
/// extreme, so the first row wins.
#[inline(always)]
fn fold_slots<const ROWS: bool, const SUM: bool, const MIN: bool, const MAX: bool>(
    rows: &mut [u64],
    stats: &mut Stats,
    col: &[f64],
    weight: f64,
    pairs: impl Iterator<Item = (usize, usize)>,
) {
    let (sum, min, max) = (&mut stats.sum[..], &mut stats.min[..], &mut stats.max[..]);
    for (row, s) in pairs {
        if ROWS {
            rows[s] += 1;
        }
        let x = col[row] * weight;
        if SUM {
            sum[s] += x;
        }
        if MIN && x < min[s] {
            min[s] = x;
        }
        if MAX && x > max[s] {
            max[s] = x;
        }
    }
}

/// The one-slot kernel of a plain scan: [`fold_slots`]'s arithmetic on
/// slot 0, with the running statistics held in locals for the batch and
/// stored back once.
#[inline(always)]
fn fold_one_slot<const SUM: bool, const MIN: bool, const MAX: bool>(
    stats: &mut Stats,
    values: impl Iterator<Item = f64>,
) {
    let mut sum = if SUM { stats.sum[0] } else { 0.0 };
    let mut min = if MIN { stats.min[0] } else { f64::INFINITY };
    let mut max = if MAX { stats.max[0] } else { f64::NEG_INFINITY };
    for x in values {
        if SUM {
            sum += x;
        }
        if MIN && x < min {
            min = x;
        }
        if MAX && x > max {
            max = x;
        }
    }
    if SUM {
        stats.sum[0] = sum;
    }
    if MIN {
        stats.min[0] = min;
    }
    if MAX {
        stats.max[0] = max;
    }
}

/// One measure column's statistics per slot. Only the statistics in its
/// need set are kept; the others stay empty.
struct Stats {
    need: Need,
    sum: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Stats {
    fn new(need: Need, slots: usize) -> Self {
        let mut stats = Self {
            need,
            sum: Vec::new(),
            min: Vec::new(),
            max: Vec::new(),
        };
        stats.resize(slots);
        stats
    }

    /// Grows each kept statistic to `slots` slots, new slots empty.
    fn resize(&mut self, slots: usize) {
        if self.need.sum {
            self.sum.resize(slots, 0.0);
        }
        if self.need.min {
            self.min.resize(slots, f64::INFINITY);
        }
        if self.need.max {
            self.max.resize(slots, f64::NEG_INFINITY);
        }
    }

    /// Appends slot `s` of `later`, which covers later rows, to slot `t`:
    /// the earlier extreme wins ties, as it would have in one row-order
    /// pass.
    fn merge_slot(&mut self, t: usize, later: &Self, s: usize) {
        if self.need.sum {
            self.sum[t] += later.sum[s];
        }
        if self.need.min && later.min[s] < self.min[t] {
            self.min[t] = later.min[s];
        }
        if self.need.max && later.max[s] > self.max[t] {
            self.max[t] = later.max[s];
        }
    }
}

/// Per-worker accumulator (the fold state of the parallel `fold`+`reduce`
/// scan), held as per-slot arrays.
pub(crate) struct GroupAcc {
    matched: u64,
    /// Matched rows per slot — also every aggregate's `count`.
    rows: Vec<u64>,
    /// Per distinct measure column.
    stats: Vec<Stats>,
    /// Packed/Hashed: the key of each slot.
    keys: Vec<Vec<u32>>,
    /// `Packed`: packed key → slot.
    packed: HashMap<u64, u32>,
    /// `Hashed`: full key → slot.
    hashed: HashMap<Vec<u32>, u32>,
}

impl GroupAcc {
    fn new(g: &CompiledGroupBy<'_>) -> Self {
        let slots = match g.path {
            GroupPath::Single => 1,
            GroupPath::Dense { slots } => slots,
            GroupPath::Packed { .. } | GroupPath::Hashed => 0,
        };
        Self {
            matched: 0,
            rows: vec![0; slots],
            stats: g
                .measures
                .iter()
                .map(|&(_, need)| Stats::new(need, slots))
                .collect(),
            keys: Vec::new(),
            packed: HashMap::new(),
            hashed: HashMap::new(),
        }
    }

    /// The fused grouped kernel: one pass over `(row, slot)` pairs, in row
    /// order, that bumps the slot's row count and folds the first measure;
    /// any further measure gets a pass of its own.
    #[inline(always)]
    fn fold(
        &mut self,
        g: &CompiledGroupBy<'_>,
        pairs: impl Iterator<Item = (usize, usize)> + Clone,
    ) {
        let rows = self.rows.as_mut_slice();
        let weight = g.weight;
        match (g.measures.as_slice(), self.stats.as_mut_slice()) {
            ([(col, need), more @ ..], [stats, more_stats @ ..]) => {
                with_need!(
                    need,
                    fold_slots::<true>(rows, stats, col, weight, pairs.clone())
                );
                for (&(col, need), stats) in more.iter().zip(more_stats) {
                    with_need!(
                        need,
                        fold_slots::<false>(rows, stats, col, weight, pairs.clone())
                    );
                }
            }
            _ => {
                for (_, s) in pairs {
                    rows[s] += 1;
                }
            }
        }
    }

    /// The plain-scan kernel: one pass per measure over the batch's
    /// matching rows into slot 0.
    fn fold_single(&mut self, g: &CompiledGroupBy<'_>, m: &Matched<'_>) {
        self.rows[0] += m.len() as u64;
        let weight = g.weight;
        for (&(col, need), stats) in g.measures.iter().zip(&mut self.stats) {
            match m {
                Matched::Window(w) => {
                    let values = col[w.clone()].iter().map(|&x| x * weight);
                    with_need!(need, fold_one_slot(stats, values));
                }
                Matched::Rows(sel) => {
                    let values = sel.iter().map(|&i| col[i as usize] * weight);
                    with_need!(need, fold_one_slot(stats, values));
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
            GroupPath::Single | GroupPath::Dense { .. } => {
                unreachable!("single and dense slots need no key map")
            }
        };
        if slot == next {
            self.keys.push(key.to_vec());
            self.rows.push(0);
            for stats in &mut self.stats {
                stats.resize(self.rows.len());
            }
        }
        slot
    }

    /// Merges `other`, which covers later rows, into `self` (the reduce
    /// step).
    fn merge(&mut self, g: &CompiledGroupBy<'_>, other: Self) {
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
                GroupPath::Single | GroupPath::Dense { .. } => s,
                _ => self.slot_for_key(g, &other.keys[s]) as usize,
            };
            self.rows[t] += other.rows[s];
            for (mine, theirs) in self.stats.iter_mut().zip(&other.stats) {
                mine.merge_slot(t, theirs, s);
            }
        }
    }

    /// Slot `s`'s aggregate values. Each carries the slot's row count as
    /// its `count` and, beyond that, only its own operator's statistic.
    fn values(&self, g: &CompiledGroupBy<'_>, s: usize) -> Vec<AggValue> {
        g.aggs
            .iter()
            .map(|&(op, measure)| {
                let mut v = AggValue::empty(op);
                v.count = self.rows[s];
                if let Some(stats) = measure.map(|j| &self.stats[j]) {
                    match op {
                        AggOp::Sum | AggOp::Avg => v.sum = stats.sum[s],
                        AggOp::Min => v.min = stats.min[s],
                        AggOp::Max => v.max = stats.max[s],
                        AggOp::Count => {}
                    }
                }
                v
            })
            .collect()
    }

    /// The plain-scan result: slot 0's values, which for zero matched rows
    /// are the empty value of every aggregate.
    pub(crate) fn finish_scan(self, g: &CompiledGroupBy<'_>) -> AggResult {
        debug_assert!(matches!(g.path, GroupPath::Single));
        AggResult {
            values: self.values(g, 0),
            matched_rows: self.matched,
        }
    }

    /// The grouped result: the occupied slots as groups in key order.
    pub(crate) fn finish(mut self, g: &CompiledGroupBy<'_>) -> crate::groupby::GroupedResult {
        let mut groups = Vec::new();
        for s in (0..self.rows.len()).filter(|&s| self.rows[s] > 0) {
            let key = match g.path {
                GroupPath::Single => Vec::new(),
                GroupPath::Dense { .. } => vec![s as u32],
                GroupPath::Packed { .. } | GroupPath::Hashed => std::mem::take(&mut self.keys[s]),
            };
            groups.push(crate::groupby::Group {
                key,
                values: self.values(g, s),
                rows: self.rows[s],
            });
        }
        if matches!(g.path, GroupPath::Packed { .. } | GroupPath::Hashed) {
            groups.sort_by(|a: &crate::groupby::Group, b| a.key.cmp(&b.key));
        }
        crate::groupby::GroupedResult {
            groups,
            matched_rows: self.matched,
        }
    }
}
