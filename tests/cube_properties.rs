//! Property-based tests of the MOLAP cube substrate: aggregation agrees
//! with brute force over cells; parallelism, compression and roll-up are
//! all answer-preserving.

use holap::cube::{CubeSchema, MolapCube, Region};
use holap::table::TableSchema;
use holap::workload::Rng;

mod common;
use common::check;

/// Entries of one generated cube: `(x, y, value)` per added cell.
type CellEntries = Vec<(u32, u32, f64)>;

/// A 2-D cube with a uniform 2-level hierarchy of `coarse` coordinates
/// refined by `factor`, holding `entries` at the fine level.
fn cube_of(coarse: [u32; 2], factor: [u32; 2], entries: &CellEntries) -> MolapCube {
    let schema = CubeSchema::from_table_schema(
        &TableSchema::builder()
            .dimension("a", &[("l0", coarse[0]), ("l1", coarse[0] * factor[0])])
            .dimension("b", &[("l0", coarse[1]), ("l1", coarse[1] * factor[1])])
            .measure("m")
            .build(),
    );
    let mut cube = MolapCube::build_empty_with_chunks(schema, 1, 3);
    for &(x, y, v) in entries {
        cube.add(&[x, y], v, 1);
    }
    cube
}

/// A random 2-D cube schema (uniform 2-level hierarchy) plus cell values.
fn random_cube(rng: &mut Rng) -> (MolapCube, CellEntries) {
    let coarse = [rng.gen_range(2u32..6), rng.gen_range(2u32..5)];
    let factor = [rng.gen_range(1u32..4), rng.gen_range(1u32..4)];
    let fine = [coarse[0] * factor[0], coarse[1] * factor[1]];
    let entries: CellEntries = (0..rng.gen_range(0usize..40))
        .map(|_| {
            (
                rng.gen_range(0..fine[0]),
                rng.gen_range(0..fine[1]),
                rng.gen_range(-100.0..100.0),
            )
        })
        .collect();
    (cube_of(coarse, factor, &entries), entries)
}

/// Region aggregation equals the brute-force sum over added entries.
#[test]
fn aggregate_matches_brute_force() {
    check(192, |rng| {
        let (cube, entries) = random_cube(rng);
        let shape = cube.shape().to_vec();
        let region = Region::full(&shape);
        let agg = cube.aggregate_seq(&region);
        let sum: f64 = entries.iter().map(|&(_, _, v)| v).sum();
        assert_eq!(agg.count, entries.len() as u64);
        assert!((agg.sum - sum).abs() < 1e-9 * (1.0 + sum.abs()));
    });
}

/// Sub-region aggregation matches filtering the entries by the region.
#[test]
fn subregion_matches_filter() {
    check(192, |rng| {
        let (cube, entries) = random_cube(rng);
        let seed = rng.gen_range(0u64..1000);
        let shape = cube.shape().to_vec();
        // Derive a deterministic sub-region from the seed.
        let f0 = (seed % u64::from(shape[0])) as u32;
        let t0 = f0 + ((seed / 7) % u64::from(shape[0] - f0)) as u32;
        let f1 = ((seed / 3) % u64::from(shape[1])) as u32;
        let t1 = f1 + ((seed / 11) % u64::from(shape[1] - f1)) as u32;
        let region = Region::new(vec![(f0, t0), (f1, t1)]);
        let agg = cube.aggregate_seq(&region);
        let inside = |x: u32, y: u32| x >= f0 && x <= t0 && y >= f1 && y <= t1;
        let want_count = entries.iter().filter(|&&(x, y, _)| inside(x, y)).count() as u64;
        let want_sum: f64 = entries
            .iter()
            .filter(|&&(x, y, _)| inside(x, y))
            .map(|&(_, _, v)| v)
            .sum();
        assert_eq!(agg.count, want_count);
        assert!((agg.sum - want_sum).abs() < 1e-9 * (1.0 + want_sum.abs()));
    });
}

/// Parallel, compressed and rolled-up variants all preserve answers.
#[test]
fn transformations_preserve_answers() {
    check(192, |rng| {
        let (cube, _entries) = random_cube(rng);
        let shape = cube.shape().to_vec();
        let full = Region::full(&shape);
        let reference = cube.aggregate_seq(&full);

        // Parallel == sequential.
        let par = cube.aggregate_par(&full);
        assert_eq!(par.count, reference.count);
        assert!((par.sum - reference.sum).abs() < 1e-9 * (1.0 + reference.sum.abs()));

        // Compression preserves answers.
        let mut compressed = cube.clone();
        compressed.compress();
        let comp = compressed.aggregate_seq(&full);
        assert_eq!(comp.count, reference.count);
        assert!((comp.sum - reference.sum).abs() < 1e-12 * (1.0 + reference.sum.abs()));
        assert!(compressed.bytes() <= cube.bytes());

        // Roll-up to the coarse resolution preserves totals.
        let coarse = cube.rollup_to(0);
        let coarse_total = coarse.aggregate_seq(&Region::full(coarse.shape()));
        assert_eq!(coarse_total.count, reference.count);
        assert!((coarse_total.sum - reference.sum).abs() < 1e-9 * (1.0 + reference.sum.abs()));

        // Per-coordinate aggregation along each axis partitions the total.
        for (dim, &extent) in shape.iter().enumerate() {
            let along = cube.aggregate_along_par(dim, &full);
            let count: u64 = along.iter().map(|a| a.count).sum();
            let sum: f64 = along.iter().map(|a| a.sum).sum();
            assert_eq!(count, reference.count);
            assert!((sum - reference.sum).abs() < 1e-9 * (1.0 + reference.sum.abs()));
            assert_eq!(along.len(), extent as usize);
        }
    });
}

/// Aggregating any region never panics and its count never exceeds
/// the cube-wide total (cells may hold multi-row counts, so the bound
/// is the number of added entries, not the region's cell count).
fn assert_region_count_bounded(cube: &MolapCube, entries: &CellEntries, region_seed: u64) {
    let shape = cube.shape().to_vec();
    // Derive a deterministic region from the seed.
    let bounds: Vec<(u32, u32)> = shape
        .iter()
        .enumerate()
        .map(|(d, &c)| {
            let f = ((region_seed >> (8 * d)) % u64::from(c)) as u32;
            let t = f + ((region_seed >> (8 * d + 4)) % u64::from(c - f)) as u32;
            (f, t)
        })
        .collect();
    let region = Region::new(bounds);
    let agg = cube.aggregate_par(&region);
    assert!(agg.count <= entries.len() as u64);
}

#[test]
fn region_count_bounded() {
    check(192, |rng| {
        let (cube, entries) = random_cube(rng);
        assert_region_count_bounded(&cube, &entries, rng.gen::<u64>());
    });
}

/// A once-failing case: two entries in the same cell of the 2×2
/// two-level cube, whose cell count (2) exceeds the region's one cell.
#[test]
fn region_count_bounded_two_entries_in_one_cell() {
    let entries = vec![(1, 1, 0.0), (1, 1, 0.0)];
    let cube = cube_of([2, 2], [1, 1], &entries);
    assert_eq!(cube.shape(), [2, 2]);
    assert_eq!(cube.aggregate_seq(&Region::full(cube.shape())).count, 2);
    assert_region_count_bounded(&cube, &entries, 13006516476783170883);
}

/// Entries of one generated n-dimensional cube: `(coords, value)` per
/// added row.
type NdEntries = Vec<(Vec<u32>, f64)>;

/// A random 1–4-D cube, one level per dimension, whose chunk side divides
/// no extent (so every dimension has a smaller edge chunk). Each cell holds
/// rows with probability `fill`, one or two of them.
fn random_nd_cube(rng: &mut Rng, fill: f64) -> (MolapCube, NdEntries) {
    let ndim = rng.gen_range(1usize..=4);
    let side = rng.gen_range(2u32..=4);
    let max_chunks: u32 = if ndim > 2 { 2 } else { 4 };
    let shape: Vec<u32> = (0..ndim)
        .map(|_| side * rng.gen_range(1..=max_chunks) + rng.gen_range(1..side))
        .collect();
    let mut builder = TableSchema::builder();
    for (d, &extent) in shape.iter().enumerate() {
        builder = builder.dimension(&format!("d{d}"), &[("l0", extent)]);
    }
    let schema = CubeSchema::from_table_schema(&builder.measure("m").build());
    let mut cube = MolapCube::build_empty_with_chunks(schema, 0, side);
    let mut entries = NdEntries::new();
    let cells = shape.iter().product::<u32>();
    for idx in 0..cells {
        if !rng.gen_bool(fill) {
            continue;
        }
        let mut rest = idx;
        let mut coords = vec![0; ndim];
        for d in (0..ndim).rev() {
            coords[d] = rest % shape[d];
            rest /= shape[d];
        }
        for _ in 0..rng.gen_range(1u32..=2) {
            let v = rng.gen_range(-100.0..100.0);
            cube.add(&coords, v, 1);
            entries.push((coords.clone(), v));
        }
    }
    (cube, entries)
}

/// Random regions of `shape`: the full region, single cells, and boxes
/// whose dimensions from a random one on are full (the merged-run path).
fn random_regions(rng: &mut Rng, shape: &[u32]) -> Vec<Region> {
    let mut regions = vec![Region::full(shape)];
    for _ in 0..3 {
        regions.push(Region::new(
            shape
                .iter()
                .map(|&s| {
                    let c = rng.gen_range(0..s);
                    (c, c)
                })
                .collect(),
        ));
        let full_from = rng.gen_range(0..=shape.len());
        regions.push(Region::new(
            shape
                .iter()
                .enumerate()
                .map(|(d, &s)| {
                    if d >= full_from {
                        (0, s - 1)
                    } else {
                        let f = rng.gen_range(0..s);
                        (f, rng.gen_range(f..s))
                    }
                })
                .collect(),
        ));
    }
    regions
}

/// Brute-force `(count, sum)` over the entries inside `region` whose
/// `axis` coordinate (if any) is `at`.
fn brute_force(entries: &NdEntries, region: &Region, along: Option<(usize, u32)>) -> (u64, f64) {
    let inside = entries
        .iter()
        .filter(|(c, _)| region.contains(c) && along.is_none_or(|(axis, at)| c[axis] == at));
    inside.fold((0, 0.0), |(n, s), (_, v)| (n + 1, s + v))
}

fn assert_close(got: (u64, f64), want: (u64, f64), what: &str) {
    assert_eq!(got.0, want.0, "{what}: count");
    assert!(
        (got.1 - want.1).abs() < 1e-9 * (1.0 + want.1.abs()),
        "{what}: sum {} vs brute force {}",
        got.1,
        want.1
    );
}

/// Compressed and uncompressed cubes give identical answers on every
/// aggregation path, and both match brute force over the entries — with
/// edge chunks, on fills either side of the 40 % compression threshold.
#[test]
fn compressed_cubes_answer_like_dense_ones_on_subregions() {
    check(128, |rng| {
        let fill = [0.1, 0.3, 0.5, 0.9][rng.gen_range(0..4usize)];
        let (dense, entries) = random_nd_cube(rng, fill);
        let mut compressed = dense.clone();
        compressed.compress();
        let shape = dense.shape().to_vec();
        for region in random_regions(rng, &shape) {
            let what = format!("shape {shape:?} fill {fill} region {region:?}");
            let want = brute_force(&entries, &region, None);
            for cube in [&dense, &compressed] {
                let seq = cube.aggregate_seq(&region);
                assert_close((seq.count, seq.sum), want, &what);
            }
            assert_eq!(
                compressed.aggregate_seq(&region),
                dense.aggregate_seq(&region),
                "{what}"
            );
            assert_eq!(
                compressed.aggregate_par(&region),
                dense.aggregate_par(&region),
                "{what}"
            );
            for axis in 0..shape.len() {
                let seq = dense.aggregate_along_seq(axis, &region);
                let par = dense.aggregate_along_par(axis, &region);
                assert_eq!(compressed.aggregate_along_seq(axis, &region), seq, "{what}");
                assert_eq!(compressed.aggregate_along_par(axis, &region), par, "{what}");
                for (i, agg) in seq.iter().enumerate() {
                    let at = region.bounds[axis].0 + i as u32;
                    let want = brute_force(&entries, &region, Some((axis, at)));
                    assert_close((agg.count, agg.sum), want, &format!("{what} axis {axis}"));
                }
            }
        }
    });
}
