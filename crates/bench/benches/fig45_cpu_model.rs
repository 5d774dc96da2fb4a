//! Figures 4 & 5 — CPU cube-processing time vs sub-cube size for the
//! 4-thread and 8-thread parallel implementations (the measurements the
//! paper fits Eq. 5–10 to), plus the same aggregation on a chunk-offset
//! compressed cube, whose cost the model does not describe.

use holap_bench::timing::Bench;
use holap_cube::{bandwidth, CubeSchema, MolapCube, Region};
use holap_table::{par::Pool, TableSchema};
use holap_workload::Rng;

/// Side of the compressed cube, per dimension.
const SIDE: u32 = 160;

/// A `SIDE`³ cube of 2 M uniform rows (about 38.6 % of the cells filled)
/// after compression: every chunk is stored sparse.
fn compressed_cube() -> MolapCube {
    let schema = TableSchema::builder()
        .dimension("time", &[("l0", SIDE)])
        .dimension("geo", &[("l0", SIDE)])
        .dimension("product", &[("l0", SIDE)])
        .measure("m")
        .build();
    let mut cube = MolapCube::build_empty(CubeSchema::from_table_schema(&schema), 0);
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..2_000_000 {
        let coords: [u32; 3] = std::array::from_fn(|_| rng.gen_range(0..SIDE));
        cube.add(&coords, rng.gen_range(0.0..100.0), 1);
    }
    let chunks = cube.parts().2.chunk_count();
    assert_eq!(cube.compress(), chunks, "every chunk is under-filled");
    cube
}

fn main() {
    let bench = Bench::new("fig45_cpu_model");
    let max_mb = 256.0;
    let cube = bandwidth::synthetic_cube_of_mb(max_mb);
    let total_cells = cube.cells();
    for &threads in &[4usize, 8] {
        let pool = Pool::new(threads);
        for &size_mb in &[1.0f64, 8.0, 64.0, 256.0] {
            let cells =
                (((size_mb / max_mb) * total_cells as f64).max(1.0) as u32).min(cube.shape()[0]);
            let region = Region::new(vec![(0, cells - 1)]);
            bench.run(&format!("{threads}T/{size_mb}MB"), None, || {
                pool.install(|| cube.aggregate_par(&region))
            });
        }
    }

    let compressed = compressed_cube();
    let full = Region::full(compressed.shape());
    let mut slice = full.clone();
    slice.bounds[1] = (SIDE / 2, SIDE / 2);
    for &threads in &[1usize, 4] {
        let pool = Pool::new(threads);
        for (name, region) in [("geo_slice", &slice), ("full", &full)] {
            bench.run(&format!("compressed/{threads}T/{name}"), None, || {
                pool.install(|| compressed.aggregate_par(region))
            });
        }
    }
}
