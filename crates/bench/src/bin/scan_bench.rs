//! Emits `BENCH_scan.json`: rows/s of the vectorized scan engine vs the
//! scalar reference, on the four workloads of
//! [`holap_bench::scan_workload`].
//!
//! ```text
//! scan_bench [--rows N] [--out PATH] [--no-parallel]
//! ```
//!
//! Before any timing, every engine's answer is checked against the scalar
//! reference: the sequential ones must be equal to the bit, the parallel
//! ones equal in COUNT/MIN/MAX and row counts with SUM within
//! FP-reassociation slack. A wrong answer panics, so the binary doubles as
//! a correctness smoke test.
//!
//! Each (case, engine) pair is timed as the best of three runs after one
//! warmup, so the numbers are throughput ceilings, not averages. The JSON
//! also records the speedup ratios the acceptance gates read
//! (`speedup_vectorized` = vectorized seq vs scalar) and the host it ran on.

use holap_bench::scan_workload::{queries, table, ScanQueries, ROWS};
use holap_bench::{host_fingerprint, write_report};
use holap_model::Json;
use holap_table::{AggValue, FactTable};
use std::time::Instant;

fn best_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    f(); // warmup
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Parallel results may reassociate SUM; everything else is exact.
fn assert_par_values(case: &str, scalar: &[AggValue], par: &[AggValue]) {
    assert_eq!(scalar.len(), par.len(), "{case}: aggregate count");
    for (s, p) in scalar.iter().zip(par) {
        assert_eq!((s.count, s.min, s.max), (p.count, p.min, p.max), "{case}");
        assert!(
            (s.sum - p.sum).abs() <= 1e-9 * (1.0 + s.sum.abs()),
            "{case}: sum {} vs {}",
            s.sum,
            p.sum
        );
    }
}

/// Checks every engine's answer against the scalar reference.
fn check_answers(t: &FactTable, q: &ScanQueries) {
    for (case, sq) in [
        ("filtered_scan", &q.filtered),
        ("min_max_scan", &q.min_max),
        ("selective_scan", &q.selective),
    ] {
        let scalar = t.scan_scalar(sq).unwrap();
        assert_eq!(t.scan_seq(sq).unwrap(), scalar, "{case}: seq != scalar");
        let par = t.scan_par(sq).unwrap();
        assert_eq!(
            par.matched_rows, scalar.matched_rows,
            "{case}: matched rows"
        );
        assert_par_values(case, &scalar.values, &par.values);
    }
    let scalar = t.group_by_scalar(&q.grouped).unwrap();
    assert_eq!(
        t.group_by_seq(&q.grouped).unwrap(),
        scalar,
        "group_by: seq != scalar"
    );
    let par = t.group_by_par(&q.grouped).unwrap();
    assert_eq!(
        par.matched_rows, scalar.matched_rows,
        "group_by: matched rows"
    );
    assert_eq!(par.groups.len(), scalar.groups.len(), "group_by: groups");
    for (s, p) in scalar.groups.iter().zip(&par.groups) {
        assert_eq!((&s.key, s.rows), (&p.key, p.rows), "group_by: group");
        assert_par_values("group_by", &s.values, &p.values);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let rows: usize = flag("--rows")
        .map(|v| v.parse().expect("--rows takes an integer"))
        .unwrap_or(ROWS);
    let out = flag("--out").unwrap_or_else(|| "BENCH_scan.json".to_owned());
    let parallel = !args.iter().any(|a| a == "--no-parallel");

    eprintln!("building {rows}-row table…");
    let t = table(rows);
    let q = queries();
    eprintln!("checking answers against the scalar reference…");
    check_answers(&t, &q);

    let mut cases = Vec::new();
    let mut run = |name: &str, scalar: f64, vectorized: f64, par: Option<f64>| {
        let rps = |secs: f64| rows as f64 / secs;
        let case = Json::obj([
            ("name", name.into()),
            ("scalar_rows_per_sec", rps(scalar).into()),
            ("vectorized_rows_per_sec", rps(vectorized).into()),
            ("parallel_rows_per_sec", par.map(rps).into()),
            ("speedup_vectorized", (scalar / vectorized).into()),
            ("speedup_parallel", par.map(|p| scalar / p).into()),
        ]);
        eprintln!(
            "{name:16} scalar {:>12.0} rows/s   vectorized {:>12.0} rows/s ({:.2}x){}",
            rps(scalar),
            rps(vectorized),
            scalar / vectorized,
            par.map(|p| format!("   parallel {:.0} rows/s ({:.2}x)", rps(p), scalar / p))
                .unwrap_or_default(),
        );
        cases.push(case);
    };

    run(
        "filtered_scan",
        best_secs(|| t.scan_scalar(&q.filtered).unwrap()),
        best_secs(|| t.scan_seq(&q.filtered).unwrap()),
        parallel.then(|| best_secs(|| t.scan_par(&q.filtered).unwrap())),
    );
    run(
        "min_max_scan",
        best_secs(|| t.scan_scalar(&q.min_max).unwrap()),
        best_secs(|| t.scan_seq(&q.min_max).unwrap()),
        parallel.then(|| best_secs(|| t.scan_par(&q.min_max).unwrap())),
    );
    run(
        "selective_scan",
        best_secs(|| t.scan_scalar(&q.selective).unwrap()),
        best_secs(|| t.scan_seq(&q.selective).unwrap()),
        parallel.then(|| best_secs(|| t.scan_par(&q.selective).unwrap())),
    );
    run(
        "group_by",
        best_secs(|| t.group_by_scalar(&q.grouped).unwrap()),
        best_secs(|| t.group_by_seq(&q.grouped).unwrap()),
        parallel.then(|| best_secs(|| t.group_by_par(&q.grouped).unwrap())),
    );

    let report = Json::obj([
        ("benchmark", "vectorized_scan".into()),
        ("host", host_fingerprint()),
        ("rows", rows.into()),
        ("runs_per_case", 3u32.into()),
        ("cases", cases.into()),
    ]);
    write_report(&out, &report);
}
