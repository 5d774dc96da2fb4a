//! Vectorized scan engine vs the retained scalar reference.
//!
//! Four workloads over a multi-million-row fact table:
//!
//! * `filtered_scan` — an unselective range filter (~50% of rows match):
//!   the win is branch-free column-wise predicate evaluation.
//! * `min_max_scan` — MIN, MAX and AVG over the same rows: the kernels
//!   compiled for the min, max and sum statistics.
//! * `selective_scan` — a narrow range on a clustered column: zone maps
//!   skip almost every block, so the win is not reading rows at all.
//! * `group_by` — grouped SUM over a small-domain key: the win is the
//!   dense slot-array group path plus vectorized filtering.
//!
//! `cargo bench -p holap-bench --bench vectorized_scan`. For the JSON
//! artifact (`BENCH_scan.json`) see `src/bin/scan_bench.rs`, which times
//! the same workloads and writes a report.

use holap_bench::scan_workload::{queries, table, ROWS};
use holap_bench::timing::{Bench, Throughput};

fn main() {
    let t = table(ROWS);
    let q = queries();
    let bench = Bench::new("vectorized_scan");
    let rows = Some(Throughput::Elements(ROWS as u64));

    bench.run("filtered_scan/scalar", rows, || {
        t.scan_scalar(&q.filtered).unwrap()
    });
    bench.run("filtered_scan/vectorized", rows, || {
        t.scan_seq(&q.filtered).unwrap()
    });
    bench.run("filtered_scan/parallel", rows, || {
        t.scan_par(&q.filtered).unwrap()
    });

    bench.run("min_max_scan/scalar", rows, || {
        t.scan_scalar(&q.min_max).unwrap()
    });
    bench.run("min_max_scan/vectorized", rows, || {
        t.scan_seq(&q.min_max).unwrap()
    });
    bench.run("min_max_scan/parallel", rows, || {
        t.scan_par(&q.min_max).unwrap()
    });

    bench.run("selective_scan/scalar", rows, || {
        t.scan_scalar(&q.selective).unwrap()
    });
    bench.run("selective_scan/vectorized", rows, || {
        t.scan_seq(&q.selective).unwrap()
    });
    bench.run("selective_scan/parallel", rows, || {
        t.scan_par(&q.selective).unwrap()
    });

    bench.run("group_by/scalar", rows, || {
        t.group_by_scalar(&q.grouped).unwrap()
    });
    bench.run("group_by/vectorized", rows, || {
        t.group_by_seq(&q.grouped).unwrap()
    });
    bench.run("group_by/parallel", rows, || {
        t.group_by_par(&q.grouped).unwrap()
    });
}
