//! Property tests pinning the vectorized scan engine to the retained
//! row-at-a-time scalar reference.
//!
//! The sequential vectorized paths (`scan_seq`, `group_by_seq`) must be
//! **exactly** equal to `scan_scalar` / `group_by_scalar` — including
//! floating-point bit identity, because both accumulate measures in row
//! order with one accumulator per (group, aggregate). The parallel paths
//! reassociate additions across blocks, so sums are compared with a
//! relative tolerance while order-independent aggregates (COUNT/MIN/MAX)
//! stay exact.

use holap::table::par::Pool;
use holap::table::{
    AggOp, AggResult, AggSpec, AggValue, ColumnId, FactTable, FactTableBuilder, GroupByQuery,
    GroupedResult, Predicate, ScanQuery, SetPredicate, TableSchema, BATCH_ROWS, BLOCK_ROWS,
};
use holap::workload::Rng;

mod common;
use common::check;

const ALL_OPS: [AggOp; 5] = [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Avg];

/// Random tables spanning several zone-map blocks: two dimensions (the
/// first with two levels), two measures, up to ~3 batches of rows. When
/// `sorted` is set the level-0 coordinates are clustered, so zone maps
/// produce genuine `Skip` and `AllMatch` decisions rather than `Eval`
/// everywhere.
fn table(rng: &mut Rng) -> FactTable {
    table_of(rng, 3 * BATCH_ROWS + 7)
}

/// [`table`] with up to `max_rows - 1` rows.
fn table_of(rng: &mut Rng, max_rows: usize) -> FactTable {
    let (c0, c1, c2) = (
        rng.gen_range(2u32..6),
        rng.gen_range(4u32..40),
        rng.gen_range(2u32..8),
    );
    let mut rows: Vec<(u32, f64)> = (0..rng.gen_range(0..max_rows))
        .map(|_| (rng.gen_range(0u32..1_000_000), rng.gen_range(-100.0..100.0)))
        .collect();
    if rng.gen::<bool>() {
        rows.sort_by_key(|&(coord, _)| coord % c1);
    }
    let schema = TableSchema::builder()
        .dimension("a", &[("coarse", c0), ("fine", c1)])
        .dimension("b", &[("l0", c2)])
        .measure("m0")
        .measure("m1")
        .build();
    let mut b = FactTableBuilder::new(schema);
    for (coord, v) in rows {
        b.push_row(&[coord % c0, coord % c1, coord % c2], &[v, -v * 0.5])
            .unwrap();
    }
    b.finish()
}

/// Random queries: every aggregate op (plus COUNT(*)) over [`filtered`].
fn query(rng: &mut Rng) -> ScanQuery {
    let mut q = filtered(rng);
    for op in ALL_OPS {
        q = q.aggregate(AggSpec::new(op, Some(0)));
        q = q.aggregate(AggSpec::new(op, Some(1)));
    }
    q.aggregate(AggSpec::count_star())
}

/// Random filters without aggregates: a random weight, 0–2 range filters
/// — possibly contradictory (`lo > hi` after intersection) — and an
/// optional membership filter that may be empty.
fn filtered(rng: &mut Rng) -> ScanQuery {
    let cols = [
        ColumnId::dim(0, 0),
        ColumnId::dim(0, 1),
        ColumnId::dim(1, 0),
    ];
    let filters: Vec<(usize, u32, u32)> = (0..rng.gen_range(0usize..3))
        .map(|_| {
            (
                rng.gen_range(0usize..3),
                rng.gen_range(0u32..40),
                rng.gen_range(0u32..40),
            )
        })
        .collect();
    let set = rng.gen_bool(0.5).then(|| {
        (0..rng.gen_range(0usize..5))
            .map(|_| rng.gen_range(0u32..40))
            .collect::<Vec<_>>()
    });
    let weight = *rng.choose(&[1.0f64, 0.5, -2.0, 3.25]).unwrap();
    let mut q = ScanQuery::new().with_weight(weight);
    for (c, lo, hi) in filters {
        q = q.filter(Predicate::range(cols[c], lo.min(hi), lo.max(hi)));
    }
    if let Some(codes) = set {
        q = q.filter_set(SetPredicate::new(ColumnId::dim(0, 1), codes));
    }
    q
}

/// The sequential vectorized scan is bit-identical to the scalar
/// reference for every op, weight, and filter combination.
#[test]
fn vectorized_scan_equals_scalar_exactly() {
    check(96, |rng| {
        let table = table(rng);
        let q = query(rng);
        assert_eq!(table.scan_seq(&q).unwrap(), table.scan_scalar(&q).unwrap());
    });
}

/// The parallel scan matches the scalar reference: COUNT/MIN/MAX and
/// matched-row counts exactly, SUM/AVG within FP-reassociation slack.
#[test]
fn parallel_scan_equals_scalar() {
    check(96, |rng| {
        let table = table(rng);
        let q = query(rng);
        let s = table.scan_scalar(&q).unwrap();
        let p = table.scan_par(&q).unwrap();
        assert_eq!(s.matched_rows, p.matched_rows);
        assert_eq!(s.values.len(), p.values.len());
        for (a, b) in s.values.iter().zip(&p.values) {
            assert_eq!(a.count, b.count);
            assert_eq!(a.min, b.min);
            assert_eq!(a.max, b.max);
            assert!((a.sum - b.sum).abs() <= 1e-9 * (1.0 + a.sum.abs()));
        }
    });
}

/// The sequential vectorized group-by is bit-identical to the scalar
/// reference — groups, keys, row counts, and aggregate values.
#[test]
fn vectorized_group_by_equals_scalar_exactly() {
    check(96, |rng| {
        let table = table(rng);
        let q = query(rng);
        let two_keys = rng.gen::<bool>();
        let keys = if two_keys {
            vec![ColumnId::dim(0, 1), ColumnId::dim(1, 0)]
        } else {
            vec![ColumnId::dim(0, 0)]
        };
        let gq = GroupByQuery::new(q, keys);
        assert_eq!(
            table.group_by_seq(&gq).unwrap(),
            table.group_by_scalar(&gq).unwrap()
        );
    });
}

/// The parallel group-by produces the same groups as the scalar
/// reference, with SUM compared under FP-reassociation slack.
#[test]
fn parallel_group_by_equals_scalar() {
    check(96, |rng| {
        let table = table(rng);
        let q = query(rng);
        let gq = GroupByQuery::new(q, vec![ColumnId::dim(0, 1), ColumnId::dim(1, 0)]);
        let s = table.group_by_scalar(&gq).unwrap();
        let p = table.group_by_par(&gq).unwrap();
        assert_eq!(s.matched_rows, p.matched_rows);
        assert_eq!(s.groups.len(), p.groups.len());
        for (a, b) in s.groups.iter().zip(&p.groups) {
            assert_eq!(&a.key, &b.key);
            assert_eq!(a.rows, b.rows);
            for (x, y) in a.values.iter().zip(&b.values) {
                assert_eq!(x.count, y.count);
                assert_eq!(x.min, y.min);
                assert_eq!(x.max, y.max);
                assert!((x.sum - y.sum).abs() <= 1e-9 * (1.0 + x.sum.abs()));
            }
        }
    });
}

/// Keys too wide to pack into a `u64` fall back to the hashed group path;
/// the fallback must still match the scalar reference exactly.
#[test]
fn wide_keys_use_hashed_path_and_match_scalar() {
    // 5 key columns × 16 bits each = 80 bits > 64 → Hashed.
    let card = 1 << 16;
    let schema = TableSchema::builder()
        .dimension("d0", &[("l", card)])
        .dimension("d1", &[("l", card)])
        .dimension("d2", &[("l", card)])
        .dimension("d3", &[("l", card)])
        .dimension("d4", &[("l", card)])
        .measure("m")
        .build();
    let mut b = FactTableBuilder::new(schema);
    let mut x = 1u32;
    for _ in 0..4000 {
        // Small xorshift keeps coords deterministic but scattered.
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let c = x % card;
        b.push_row(&[c, c / 3, c / 7, c / 11, c / 13], &[f64::from(x % 1000)])
            .unwrap();
    }
    let table = b.finish();
    let q = GroupByQuery::new(
        ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(0, 0), 0, card / 2))
            .aggregate(AggSpec::new(AggOp::Sum, Some(0)))
            .aggregate(AggSpec::count_star()),
        (0..5).map(|d| ColumnId::dim(d, 0)).collect(),
    );
    assert_eq!(
        table.group_by_seq(&q).unwrap(),
        table.group_by_scalar(&q).unwrap()
    );
}

/// A membership filter on a column whose cardinality exceeds the bitmap
/// budget compiles to the sorted-probe fallback; results must not change.
#[test]
fn huge_domain_set_predicate_uses_sparse_path() {
    let card = (1u32 << 22) + 10; // just past BITMAP_MAX_BITS
    let schema = TableSchema::builder()
        .dimension("id", &[("l", card)])
        .measure("m")
        .build();
    let mut b = FactTableBuilder::new(schema);
    for i in 0..3000u32 {
        b.push_row(&[(i * 1399) % card], &[f64::from(i)]).unwrap();
    }
    let table = b.finish();
    let codes: Vec<u32> = (0..3000u32)
        .step_by(5)
        .map(|i| (i * 1399) % card)
        .chain([card - 1, 7]) // members that hit no row are fine too
        .collect();
    let q = ScanQuery::new()
        .filter_set(SetPredicate::new(ColumnId::dim(0, 0), codes))
        .aggregate(AggSpec::new(AggOp::Sum, Some(0)))
        .aggregate(AggSpec::new(AggOp::Avg, Some(0)))
        .aggregate(AggSpec::count_star());
    assert_eq!(table.scan_seq(&q).unwrap(), table.scan_scalar(&q).unwrap());
    assert_eq!(table.scan_par(&q).unwrap().matched_rows, 600);
}

/// Degenerate queries short-circuit without touching rows and still agree
/// with the scalar reference.
#[test]
fn degenerate_queries_match_scalar() {
    let schema = TableSchema::builder()
        .dimension("a", &[("l", 8)])
        .measure("m")
        .build();
    let mut b = FactTableBuilder::new(schema);
    for i in 0..2000u32 {
        b.push_row(&[i % 8], &[f64::from(i)]).unwrap();
    }
    let table = b.finish();
    let agg = |q: ScanQuery| {
        q.aggregate(AggSpec::new(AggOp::Sum, Some(0)))
            .aggregate(AggSpec::count_star())
    };
    // Empty membership set.
    let empty_set =
        agg(ScanQuery::new().filter_set(SetPredicate::new(ColumnId::dim(0, 0), vec![])));
    // Contradictory conjunction: [2,7] ∩ [0,1] = ∅.
    let contradiction = agg(ScanQuery::new()
        .filter(Predicate::range(ColumnId::dim(0, 0), 2, 7))
        .filter(Predicate::range(ColumnId::dim(0, 0), 0, 1)));
    // Membership set disjoint from the surviving range window.
    let out_of_domain = agg(ScanQuery::new()
        .filter(Predicate::range(ColumnId::dim(0, 0), 7, 7))
        .filter_set(SetPredicate::new(ColumnId::dim(0, 0), vec![0, 1, 2])));
    for q in [empty_set, contradiction, out_of_domain] {
        let s = table.scan_scalar(&q).unwrap();
        assert_eq!(table.scan_seq(&q).unwrap(), s);
        assert_eq!(table.scan_par(&q).unwrap(), s);
        let gq = GroupByQuery::new(q, vec![ColumnId::dim(0, 0)]);
        let gs = table.group_by_scalar(&gq).unwrap();
        assert_eq!(table.group_by_seq(&gq).unwrap(), gs);
        assert_eq!(table.group_by_par(&gq).unwrap(), gs);
        assert!(gs.groups.is_empty());
    }
}

/// Random group keys over [`table`]'s columns: one key (the dense path)
/// or two (the packed path).
fn keys(rng: &mut Rng) -> Vec<ColumnId> {
    if rng.gen::<bool>() {
        vec![ColumnId::dim(0, 1), ColumnId::dim(1, 0)]
    } else {
        vec![ColumnId::dim(0, 0)]
    }
}

/// The shape the engine sends, `SUM(m) + COUNT(*)`, is bit-identical to
/// the scalar reference.
#[test]
fn engine_shape_group_by_equals_scalar_exactly() {
    check(96, |rng| {
        let table = table(rng);
        let q = filtered(rng)
            .aggregate(AggSpec::new(AggOp::Sum, Some(rng.gen_range(0usize..2))))
            .aggregate(AggSpec::count_star());
        let gq = GroupByQuery::new(q, keys(rng));
        assert_eq!(
            table.group_by_seq(&gq).unwrap(),
            table.group_by_scalar(&gq).unwrap()
        );
    });
}

/// A query with no measure at all groups like the scalar reference.
#[test]
fn count_only_group_by_equals_scalar_exactly() {
    check(96, |rng| {
        let table = table(rng);
        let q = filtered(rng).aggregate(AggSpec::count_star());
        let gq = GroupByQuery::new(q, keys(rng));
        let s = table.group_by_scalar(&gq).unwrap();
        assert_eq!(table.group_by_seq(&gq).unwrap(), s);
        assert_eq!(table.group_by_par(&gq).unwrap(), s);
    });
}

/// Single keys at the edges of the dense path: one code, the largest
/// dense domain (2^16), and one past it (the packed path). The codes in
/// use may stop well short of the domain.
#[test]
fn single_key_cardinality_edges_equal_scalar() {
    for card in [1u32, 1 << 16, (1 << 16) + 1] {
        check(16, |rng| {
            let schema = TableSchema::builder()
                .dimension("k", &[("l", card)])
                .dimension("f", &[("l", 8)])
                .measure("m")
                .build();
            let span = *rng.choose(&[1u32, 100, card]).unwrap().min(&card);
            let mut b = FactTableBuilder::new(schema);
            for _ in 0..rng.gen_range(0..3 * BATCH_ROWS + 7) {
                let k = card - 1 - rng.gen_range(0..span);
                let v = rng.gen_range(-100.0..100.0);
                b.push_row(&[k, rng.gen_range(0u32..8)], &[v]).unwrap();
            }
            let table = b.finish();
            let lo = rng.gen_range(0u32..8);
            let q = ScanQuery::new()
                .filter(Predicate::range(
                    ColumnId::dim(1, 0),
                    lo,
                    rng.gen_range(lo..8),
                ))
                .aggregate(AggSpec::new(AggOp::Sum, Some(0)))
                .aggregate(AggSpec::new(AggOp::Min, Some(0)))
                .aggregate(AggSpec::new(AggOp::Max, Some(0)))
                .aggregate(AggSpec::count_star());
            let gq = GroupByQuery::new(q, vec![ColumnId::dim(0, 0)]);
            let s = table.group_by_scalar(&gq).unwrap();
            assert_eq!(table.group_by_seq(&gq).unwrap(), s, "cardinality {card}");
            assert_eq!(
                table.group_by_par(&gq).unwrap().groups.len(),
                s.groups.len()
            );
        });
    }
}

/// Batches where every row matches — no filter at all, or one the zone
/// maps elide — group like the scalar reference.
#[test]
fn all_match_batches_group_like_scalar() {
    check(48, |rng| {
        let table = table(rng);
        let whole_domain = Predicate::range(ColumnId::dim(0, 0), 0, u32::MAX);
        let filters = [ScanQuery::new(), ScanQuery::new().filter(whole_domain)];
        for q in filters {
            let mut q = q.with_weight(*rng.choose(&[1.0f64, -2.0]).unwrap());
            for op in ALL_OPS {
                q = q.aggregate(AggSpec::new(op, Some(1)));
            }
            let gq = GroupByQuery::new(q, keys(rng));
            let s = table.group_by_scalar(&gq).unwrap();
            assert_eq!(s.matched_rows, table.rows() as u64);
            assert_eq!(table.group_by_seq(&gq).unwrap(), s);
        }
    });
}

/// A group whose values are all `0.0` or `-0.0`: MIN and MAX tie on every
/// row, and the first row's sign must win, as in the scalar reference.
/// The parallel merge keeps the earlier extreme on ties, so it agrees to
/// the bit under every pool width too.
#[test]
fn signed_zero_ties_keep_row_order() {
    check(6, |rng| {
        let schema = TableSchema::builder()
            .dimension("g", &[("l", 3)])
            .measure("m")
            .build();
        let mut b = FactTableBuilder::new(schema);
        for _ in 0..rng.gen_range(1..3 * BLOCK_ROWS) {
            let v = *rng.choose(&[0.0f64, -0.0]).unwrap();
            b.push_row(&[rng.gen_range(0u32..3)], &[v]).unwrap();
        }
        let table = b.finish();
        let mut q = ScanQuery::new().with_weight(*rng.choose(&[1.0f64, -2.0]).unwrap());
        for op in ALL_OPS {
            q = q.aggregate(AggSpec::new(op, Some(0)));
        }
        let gq = GroupByQuery::new(q, vec![ColumnId::dim(0, 0)]);
        let s = table.group_by_scalar(&gq).unwrap();
        let bits = |r: &GroupedResult| -> Vec<(u64, u64, u64)> {
            let values = r.groups.iter().flat_map(|g| &g.values);
            values
                .map(|v| (v.sum.to_bits(), v.min.to_bits(), v.max.to_bits()))
                .collect()
        };
        let seq = table.group_by_seq(&gq).unwrap();
        assert_eq!(seq, s);
        assert_eq!(bits(&seq), bits(&s));
        for threads in [1, 2, 8] {
            let par = Pool::new(threads).install(|| table.group_by_par(&gq).unwrap());
            assert_eq!(par, s, "{threads} threads");
            assert_eq!(bits(&par), bits(&s), "{threads} threads");
        }
    });
}

/// The parallel group-by over tables of several blocks, under one, two
/// and eight threads: keys, row counts, COUNT, MIN and MAX exact, SUM
/// within FP-reassociation slack.
#[test]
fn parallel_group_by_matches_scalar_under_every_pool_width() {
    check(12, |rng| {
        let table = table_of(rng, 3 * BLOCK_ROWS);
        let q = query(rng);
        let gq = GroupByQuery::new(q, keys(rng));
        let s = table.group_by_scalar(&gq).unwrap();
        for threads in [1, 2, 8] {
            let p = Pool::new(threads).install(|| table.group_by_par(&gq).unwrap());
            assert_eq!(s.matched_rows, p.matched_rows, "{threads} threads");
            assert_eq!(s.groups.len(), p.groups.len(), "{threads} threads");
            for (a, b) in s.groups.iter().zip(&p.groups) {
                assert_eq!(&a.key, &b.key);
                assert_eq!(a.rows, b.rows);
                for (x, y) in a.values.iter().zip(&b.values) {
                    assert_eq!(x.count, y.count);
                    assert_eq!(x.min, y.min);
                    assert_eq!(x.max, y.max);
                    assert!((x.sum - y.sum).abs() <= 1e-9 * (1.0 + x.sum.abs()));
                }
            }
        }
    });
}

/// The plain scan the engine sends, `SUM(m) + COUNT(*)` under a random
/// weight, is bit-identical to the scalar reference, sequentially and on
/// a one-thread pool.
#[test]
fn engine_shape_scan_equals_scalar_exactly() {
    check(96, |rng| {
        let table = table(rng);
        let q = filtered(rng)
            .aggregate(AggSpec::new(AggOp::Sum, Some(rng.gen_range(0usize..2))))
            .aggregate(AggSpec::count_star());
        let s = table.scan_scalar(&q).unwrap();
        assert_eq!(table.scan_seq(&q).unwrap(), s);
        assert_eq!(Pool::new(1).install(|| table.scan_par(&q).unwrap()), s);
    });
}

/// The result of matching no row: one empty value per aggregate.
fn empty_result(q: &ScanQuery) -> AggResult {
    let values = q.aggregates.iter().map(|a| AggValue {
        op: a.op,
        sum: 0.0,
        count: 0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    });
    AggResult {
        values: values.collect(),
        matched_rows: 0,
    }
}

/// A scan whose filters overlap every block's zone bounds but match no
/// row runs the kernel and still answers the empty result, not "no
/// values".
#[test]
fn empty_match_scan_is_the_empty_result() {
    check(24, |rng| {
        let schema = TableSchema::builder()
            .dimension("a", &[("l", 64)])
            .measure("m")
            .build();
        let mut b = FactTableBuilder::new(schema);
        for _ in 0..rng.gen_range(1..3 * BLOCK_ROWS) {
            let even = 2 * rng.gen_range(0u32..32);
            b.push_row(&[even], &[rng.gen_range(-100.0..100.0)])
                .unwrap();
        }
        let table = b.finish();
        let odd: Vec<u32> = (0..rng.gen_range(1usize..6))
            .map(|_| 2 * rng.gen_range(0u32..32) + 1)
            .collect();
        let mut q = ScanQuery::new()
            .filter(Predicate::range(ColumnId::dim(0, 0), 1, 63))
            .filter_set(SetPredicate::new(ColumnId::dim(0, 0), odd))
            .with_weight(*rng.choose(&[1.0f64, -2.0]).unwrap());
        for op in ALL_OPS {
            q = q.aggregate(AggSpec::new(op, Some(0)));
        }
        let q = q.aggregate(AggSpec::count_star());
        let empty = empty_result(&q);
        assert_eq!(table.scan_scalar(&q).unwrap(), empty);
        assert_eq!(table.scan_seq(&q).unwrap(), empty);
        for threads in [1, 2, 8] {
            let par = Pool::new(threads).install(|| table.scan_par(&q).unwrap());
            assert_eq!(par, empty, "{threads} threads");
        }
    });
}

/// The weighted measure values of the rows that pass `q`'s filters, in
/// row order — a row loop of its own, independent of every engine.
fn matching_values(table: &FactTable, q: &ScanQuery, measure: usize) -> Vec<f64> {
    let col = table.measure_column(measure);
    (0..table.rows())
        .filter(|&row| {
            q.predicates.iter().all(|p| {
                let v = table.u32_column(p.column)[row];
                p.lo <= v && v <= p.hi
            }) && q
                .set_predicates
                .iter()
                .all(|p| p.codes().contains(&table.u32_column(p.column)[row]))
        })
        .map(|row| col[row] * q.weight)
        .collect()
}

/// Checks one aggregate against the row loop: `value()` is the operator's
/// answer (SUM and AVG within `slack`), `count` is the matched rows, and
/// the statistics of the other operators keep their empty values.
fn assert_contract(v: &AggValue, xs: &[f64], slack: f64) {
    let sum = xs.iter().fold(0.0, |a, &x| a + x);
    let first_min = xs
        .iter()
        .fold(f64::INFINITY, |m, &x| if x < m { x } else { m });
    let first_max = xs
        .iter()
        .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m });
    let n = xs.len();
    assert_eq!(v.count, n as u64, "{:?} count", v.op);
    let want = match v.op {
        AggOp::Count => Some(n as f64),
        AggOp::Sum => Some(sum),
        AggOp::Min => (n > 0).then_some(first_min),
        AggOp::Max => (n > 0).then_some(first_max),
        AggOp::Avg => (n > 0).then(|| sum / n as f64),
    };
    match (v.value(), want) {
        (Some(got), Some(want)) if slack > 0.0 && matches!(v.op, AggOp::Sum | AggOp::Avg) => {
            assert!(
                (got - want).abs() <= slack * (1.0 + want.abs()),
                "{:?}",
                v.op
            );
        }
        (got, want) => assert_eq!(got, want, "{:?} value", v.op),
    }
    if !matches!(v.op, AggOp::Sum | AggOp::Avg) {
        assert_eq!(v.sum.to_bits(), 0.0f64.to_bits(), "{:?} keeps sum 0", v.op);
    }
    if v.op != AggOp::Min {
        assert_eq!(v.min, f64::INFINITY, "{:?} keeps min +inf", v.op);
    }
    if v.op != AggOp::Max {
        assert_eq!(v.max, f64::NEG_INFINITY, "{:?} keeps max -inf", v.op);
    }
}

/// Every aggregate carries its count and only its own operator's
/// statistic, and its value equals a row loop written here, in the
/// scalar reference, the sequential scan and the parallel scan.
#[test]
fn each_aggregate_carries_only_its_own_statistic() {
    check(48, |rng| {
        let table = table(rng);
        let q = query(rng);
        let xs = [0, 1].map(|m| matching_values(&table, &q, m));
        let results = [
            (table.scan_scalar(&q).unwrap(), 0.0),
            (table.scan_seq(&q).unwrap(), 0.0),
            (table.scan_par(&q).unwrap(), 1e-9),
        ];
        for (r, slack) in &results {
            assert_eq!(r.matched_rows, xs[0].len() as u64);
            for (v, a) in r.values.iter().zip(&q.aggregates) {
                assert_contract(v, a.measure.map_or(&xs[0][..], |m| &xs[m]), *slack);
            }
        }
    });
}

/// Several operators on one measure plus another measure — the union of
/// need sets — plain and grouped, bit-identical to the scalar reference
/// sequentially and on a one-thread pool.
#[test]
fn need_set_union_equals_scalar_exactly() {
    check(96, |rng| {
        let table = table(rng);
        let mut q = filtered(rng);
        for op in [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Avg] {
            q = q.aggregate(AggSpec::new(op, Some(0)));
        }
        let q = q.aggregate(AggSpec::new(AggOp::Sum, Some(1)));
        let s = table.scan_scalar(&q).unwrap();
        assert_eq!(table.scan_seq(&q).unwrap(), s);
        assert_eq!(Pool::new(1).install(|| table.scan_par(&q).unwrap()), s);
        let gq = GroupByQuery::new(q, keys(rng));
        let gs = table.group_by_scalar(&gq).unwrap();
        assert_eq!(table.group_by_seq(&gq).unwrap(), gs);
        assert_eq!(
            Pool::new(1).install(|| table.group_by_par(&gq).unwrap()),
            gs
        );
    });
}

/// A plain scan over values that are all `0.0` or `-0.0`: MIN and MAX tie
/// on every row and the first row's sign wins, to the bit, sequentially
/// and under every pool width — the plain-scan twin of
/// `signed_zero_ties_keep_row_order`.
#[test]
fn plain_scan_signed_zero_ties_keep_row_order() {
    check(6, |rng| {
        let schema = TableSchema::builder()
            .dimension("g", &[("l", 3)])
            .measure("m")
            .build();
        let mut b = FactTableBuilder::new(schema);
        for _ in 0..rng.gen_range(1..3 * BLOCK_ROWS) {
            let v = *rng.choose(&[0.0f64, -0.0]).unwrap();
            b.push_row(&[rng.gen_range(0u32..3)], &[v]).unwrap();
        }
        let table = b.finish();
        let mut q = ScanQuery::new().with_weight(*rng.choose(&[1.0f64, -2.0]).unwrap());
        for op in ALL_OPS {
            q = q.aggregate(AggSpec::new(op, Some(0)));
        }
        let s = table.scan_scalar(&q).unwrap();
        let bits = |r: &AggResult| -> Vec<(u64, u64, u64)> {
            let values = r.values.iter();
            values
                .map(|v| (v.sum.to_bits(), v.min.to_bits(), v.max.to_bits()))
                .collect()
        };
        let seq = table.scan_seq(&q).unwrap();
        assert_eq!(seq, s);
        assert_eq!(bits(&seq), bits(&s));
        for threads in [1, 2, 8] {
            let par = Pool::new(threads).install(|| table.scan_par(&q).unwrap());
            assert_eq!(par, s, "{threads} threads");
            assert_eq!(bits(&par), bits(&s), "{threads} threads");
        }
    });
}
