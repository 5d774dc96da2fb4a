//! Shared measurement and reporting helpers for the benchmark harness.
//!
//! The binaries built on top of this library regenerate the paper's
//! evaluation artefacts:
//!
//! * `repro` — prints every table (1–3), the in-text GPU translation
//!   experiment, every measurable figure (3, 4, 5, 8, 9) and the ablation
//!   studies, each with the paper-reported values alongside;
//! * `calibrate` — re-measures the host machine and fits a fresh
//!   [`holap_model::SystemProfile`], emitted as JSON.

#![warn(missing_docs)]

pub mod scan_workload;
pub mod timing;

use holap_cube::{bandwidth, Region};
use holap_dict::{Dictionary, LinearDict};
use holap_model::{fit, DictPerfModel, Json};
use holap_sim::scenarios::RateRow;
use holap_table::par::Pool;
use holap_workload::{name_pool, NameStyle};
use std::time::Instant;

/// Writes a bench report as indented JSON plus a trailing newline.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_report(path: &str, report: &Json) {
    std::fs::write(path, report.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");
}

/// The host a measurement ran on: `nproc` (available parallelism), the
/// `rustc` release and the source revision (`git describe --always
/// --dirty`), each `"unknown"` when it cannot be read.
pub fn host_fingerprint() -> Json {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            )
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", nproc.into()),
        ("rustc", run("rustc", &["--version"]).into()),
        (
            "commit",
            run("git", &["describe", "--always", "--dirty"]).into(),
        ),
    ])
}

/// One point of a host-measured figure series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// X coordinate (size in MB, column fraction, dictionary length, …).
    pub x: f64,
    /// Y coordinate (seconds or MB/s).
    pub y: f64,
}

/// Pretty-prints a rate table with the paper's reported values.
pub fn print_rate_table(title: &str, rows: &[RateRow]) {
    println!("\n{title}");
    println!("{:-<78}", "");
    println!(
        "{:<32} {:>12} {:>12} {:>10} {:>8}",
        "configuration", "measured Q/s", "paper Q/s", "cpu share", "deadline%"
    );
    for r in rows {
        let paper = r
            .paper_qps
            .map(|p| format!("{p:.0}"))
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "{:<32} {:>12.1} {:>12} {:>9.0}% {:>7.0}%",
            r.label,
            r.qps,
            paper,
            r.report.cpu_share() * 100.0,
            r.report.deadline_hit_ratio() * 100.0
        );
    }
}

/// Prints a figure series as aligned columns (and CSV-ready).
pub fn print_series(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[(String, Vec<SeriesPoint>)],
) {
    println!("\n{title}");
    println!("{:-<78}", "");
    print!("{x_label:>14}");
    for (name, _) in series {
        print!(" {name:>18}");
    }
    println!("  ({y_label})");
    let xs: Vec<f64> = series
        .first()
        .map(|(_, pts)| pts.iter().map(|p| p.x).collect())
        .unwrap_or_default();
    for (i, &x) in xs.iter().enumerate() {
        print!("{x:>14.4}");
        for (_, pts) in series {
            match pts.get(i) {
                Some(p) => print!(" {:>18.6}", p.y),
                None => print!(" {:>18}", "-"),
            }
        }
        println!();
    }
}

/// Fig. 3 sweep: effective aggregation bandwidth (MB/s) over cube sizes,
/// for one thread count. Sizes in MB; `reps` best-of runs per point.
pub fn fig3_bandwidth_series(sizes_mb: &[f64], threads: usize, reps: usize) -> Vec<SeriesPoint> {
    sizes_mb
        .iter()
        .map(|&mb| {
            let cube = bandwidth::synthetic_cube_of_mb(mb);
            let region = Region::full(cube.shape());
            let s = bandwidth::measure_aggregation(&cube, &region, threads, reps);
            SeriesPoint {
                x: mb,
                y: s.bandwidth_mbps,
            }
        })
        .collect()
}

/// Fig. 4/5 sweep: processing time (s) over sub-cube sizes for one thread
/// count. Reuses one large cube and varies the region, like the paper's
/// benchmark.
pub fn fig45_time_series(sizes_mb: &[f64], threads: usize, reps: usize) -> Vec<SeriesPoint> {
    let max_mb = sizes_mb.iter().copied().fold(1.0f64, f64::max);
    let cube = bandwidth::synthetic_cube_of_mb(max_mb);
    let total_cells = cube.cells();
    sizes_mb
        .iter()
        .map(|&mb| {
            let want = ((mb / max_mb) * total_cells as f64).max(1.0) as u32;
            let cells = want.min(cube.shape()[0]);
            let region = Region::new(vec![(0, cells - 1)]);
            let s = bandwidth::measure_aggregation(&cube, &region, threads, reps);
            SeriesPoint {
                x: s.size_mb,
                y: s.secs,
            }
        })
        .collect()
}

/// Fig. 9 sweep: worst-case linear-dictionary lookup time (s) over
/// dictionary lengths. The probe key is the *last* entry, which is the
/// upper bound `P_DICT` models (Eq. 17).
pub fn fig9_dictionary_series(lengths: &[usize], reps: usize) -> Vec<SeriesPoint> {
    lengths
        .iter()
        .map(|&len| {
            let names = name_pool(len, NameStyle::City, 42);
            let dict = LinearDict::build(names.iter().map(String::as_str));
            let needle = names.last().expect("non-empty dictionary").clone();
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let code = dict.encode(&needle);
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(code);
                best = best.min(dt);
            }
            SeriesPoint {
                x: len as f64,
                y: best,
            }
        })
        .collect()
}

/// Fits the dictionary model from a Fig. 9 series.
pub fn fit_dict_model(series: &[SeriesPoint]) -> DictPerfModel {
    let xs: Vec<f64> = series.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = series.iter().map(|p| p.y).collect();
    DictPerfModel::fit(&xs, &ys)
}

/// Fits a straight line through a series.
pub fn fit_series_linear(series: &[SeriesPoint]) -> fit::Linear {
    let xs: Vec<f64> = series.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = series.iter().map(|p| p.y).collect();
    fit::fit_linear(&xs, &ys)
}

/// Builds the scan workload used by the Fig. 8 measurement: a fact table of
/// roughly `mb` MB with the paper's 3 × 4-level layout.
pub fn fig8_table(mb: f64) -> holap_table::FactTable {
    use holap_workload::{FactsSpec, PaperHierarchy, SyntheticFacts};
    let h = PaperHierarchy::default();
    let rows = ((mb * 1024.0 * 1024.0) / h.table_schema().row_bytes() as f64) as usize;
    let facts = SyntheticFacts::generate(&FactsSpec {
        schema: h.table_schema(),
        rows,
        text_levels: vec![],
        dict_kind: holap_dict::DictKind::Sorted,
        skew: None,
        seed: 8,
    });
    facts.table
}

/// Fig. 8 measurement: wall time (s) of the simulated scan kernel over the
/// number of columns accessed, for one partition width (SM count → thread
/// pool width).
pub fn fig8_series(table: &holap_table::FactTable, sms: u32, reps: usize) -> Vec<SeriesPoint> {
    use holap_table::{AggOp, AggSpec, ColumnId, Predicate, ScanQuery};
    let pool = Pool::new(sms as usize);
    let schema = table.schema();
    let dim_ids: Vec<ColumnId> = schema.dim_column_ids().collect();
    let total = schema.total_columns();
    let mut out = Vec::new();
    // 1 data column + k filter columns, k = 1 .. all dimension columns.
    for k in 1..=dim_ids.len() {
        let mut q = ScanQuery::new().aggregate(AggSpec::new(AggOp::Sum, Some(0)));
        for id in dim_ids.iter().take(k) {
            // A wide predicate: filters little, reads the whole column.
            q = q.filter(Predicate::range(*id, 0, u32::MAX - 1));
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = pool.install(|| table.scan_par(&q)).expect("valid scan");
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(r);
            best = best.min(dt);
        }
        out.push(SeriesPoint {
            x: (k + 1) as f64 / total as f64,
            y: best,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_series_is_roughly_linear() {
        let lens = [2_000usize, 8_000, 32_000];
        let series = fig9_dictionary_series(&lens, 5);
        assert_eq!(series.len(), 3);
        let model = fit_dict_model(&series);
        // Slope must be positive and in a plausible per-entry range
        // (paper: 13.8 ns; a modern host with short strings: ~0.1–50 ns).
        assert!(model.secs_per_entry > 0.0);
        assert!(model.secs_per_entry < 1e-6, "{}", model.secs_per_entry);
    }

    #[test]
    fn fig3_series_produces_points() {
        let pts = fig3_bandwidth_series(&[1.0, 4.0], 2, 2);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.y > 0.0));
    }

    #[test]
    fn fig8_series_covers_column_fractions() {
        let table = fig8_table(4.0); // 4 MB test table
        let pts = fig8_series(&table, 2, 2);
        assert_eq!(pts.len(), 12);
        assert!(pts.last().unwrap().x <= 1.0);
        assert!(pts[0].x > 0.0);
    }
}
