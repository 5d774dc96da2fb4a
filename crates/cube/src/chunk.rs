//! Chunk storage: dense arrays with chunk-offset compression.
//!
//! Following Zhao, Deshpande & Naughton (the array-based algorithm the
//! paper's cube engine descends from), chunks whose fill factor drops below
//! 40 % are stored compressed as `(offset, value)` pairs — "chunk-offset
//! compression" — while well-filled chunks stay dense.
//!
//! Both forms are queried the same way: the query region is walked as
//! contiguous row-major runs, trailing dimensions it covers fully merged
//! into one run. A dense chunk sums each run as a slice; a compressed chunk
//! finds each run's cells by binary search in its ascending offsets, so it
//! never decodes a cell's coordinates.

use crate::geometry::Region;
use std::ops::Range;

/// Fill-factor threshold below which a chunk is compressed (Zhao et al.'s
/// 40 %).
pub const COMPRESSION_FILL_THRESHOLD: f64 = 0.4;

/// Aggregate of a set of cells: the running `(sum, count)` pair every cube
/// cell stores.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellAgg {
    /// Sum of measure values aggregated into the cells.
    pub sum: f64,
    /// Number of fact rows aggregated into the cells.
    pub count: u64,
}

impl CellAgg {
    /// Merges another aggregate into this one.
    #[inline]
    pub fn merge(&mut self, other: CellAgg) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// One chunk of the cube: dense or chunk-offset compressed.
#[derive(Debug, Clone, PartialEq)]
pub enum Chunk {
    /// Dense storage: one `(sum, count)` per cell, row-major local order.
    Dense {
        /// Per-cell sums.
        sums: Vec<f64>,
        /// Per-cell counts (0 = empty cell).
        counts: Vec<u64>,
    },
    /// Chunk-offset compression: only non-empty cells, sorted by local
    /// offset.
    ///
    /// Invariant: `offsets` is strictly ascending and every offset is below
    /// the chunk's cell count; the aggregation kernels rely on it, and
    /// [`crate::MolapCube::from_parts`] rejects chunks that break it.
    Sparse {
        /// Local row-major offsets of the non-empty cells, strictly
        /// ascending.
        offsets: Vec<u32>,
        /// Sums of the non-empty cells, parallel to `offsets`.
        sums: Vec<f64>,
        /// Counts of the non-empty cells, parallel to `offsets`.
        counts: Vec<u64>,
    },
}

impl Chunk {
    /// A dense chunk of `cells` empty cells.
    pub fn dense_empty(cells: usize) -> Self {
        Self::Dense {
            sums: vec![0.0; cells],
            counts: vec![0; cells],
        }
    }

    /// A dense chunk with every cell holding `(sum, count)`.
    pub fn dense_filled(cells: usize, sum: f64, count: u64) -> Self {
        Self::Dense {
            sums: vec![sum; cells],
            counts: vec![count; cells],
        }
    }

    /// Number of non-empty cells.
    pub fn filled_cells(&self) -> usize {
        match self {
            Self::Dense { counts, .. } => counts.iter().filter(|&&c| c > 0).count(),
            Self::Sparse { offsets, .. } => offsets.len(),
        }
    }

    /// Fill factor relative to `total_cells` of the chunk.
    pub fn fill_factor(&self, total_cells: usize) -> f64 {
        if total_cells == 0 {
            0.0
        } else {
            self.filled_cells() as f64 / total_cells as f64
        }
    }

    /// Approximate bytes occupied by the chunk's cell data.
    pub fn bytes(&self) -> usize {
        match self {
            Self::Dense { sums, counts } => sums.len() * 8 + counts.len() * 8,
            Self::Sparse {
                offsets,
                sums,
                counts,
            } => offsets.len() * 4 + sums.len() * 8 + counts.len() * 8,
        }
    }

    /// Adds `(sum, count)` into the cell at local offset `off`.
    ///
    /// Dense chunks update in place; sparse chunks insert in offset order.
    pub fn add(&mut self, off: u32, sum: f64, count: u64) {
        match self {
            Self::Dense { sums, counts } => {
                sums[off as usize] += sum;
                counts[off as usize] += count;
            }
            Self::Sparse {
                offsets,
                sums,
                counts,
            } => match offsets.binary_search(&off) {
                Ok(i) => {
                    sums[i] += sum;
                    counts[i] += count;
                }
                Err(i) => {
                    offsets.insert(i, off);
                    sums.insert(i, sum);
                    counts.insert(i, count);
                }
            },
        }
    }

    /// Converts to sparse form if the fill factor is below
    /// [`COMPRESSION_FILL_THRESHOLD`]; returns whether a conversion
    /// happened.
    pub fn maybe_compress(&mut self, total_cells: usize) -> bool {
        let Self::Dense { sums, counts } = self else {
            return false;
        };
        let filled = counts.iter().filter(|&&c| c > 0).count();
        let fill = if total_cells == 0 {
            0.0
        } else {
            filled as f64 / total_cells as f64
        };
        if fill >= COMPRESSION_FILL_THRESHOLD {
            return false;
        }
        let mut offsets = Vec::with_capacity(filled);
        let mut kept_sums = Vec::with_capacity(filled);
        let mut kept_counts = Vec::with_capacity(filled);
        for (i, (&sum, &count)) in sums.iter().zip(counts.iter()).enumerate() {
            if count > 0 {
                offsets.push(i as u32);
                kept_sums.push(sum);
                kept_counts.push(count);
            }
        }
        *self = Self::Sparse {
            offsets,
            sums: kept_sums,
            counts: kept_counts,
        };
        true
    }

    /// Aggregates all cells of this chunk that fall inside `local_region`
    /// (bounds expressed in the chunk's local coordinates over
    /// `local_shape`).
    ///
    /// The region is walked as contiguous row-major runs
    /// ([`Chunk::for_each_run`]), each summed as one slice, so the hot loop
    /// is a straight streaming sum — this is what makes cube processing
    /// memory-bandwidth bound, as the paper's model assumes. Cells are
    /// summed in ascending offset order, dense or compressed.
    pub fn aggregate(&self, local_shape: &[u32], local_region: &Region) -> CellAgg {
        debug_assert_eq!(local_shape.len(), local_region.ndim());
        let (sums, counts) = self.values();
        let mut agg = CellAgg::default();
        self.for_each_run(local_shape, local_region, 0, |cells, _, _| {
            add_run(&mut agg, &sums[cells.clone()], &counts[cells]);
        });
        agg
    }

    /// Aggregates the cells inside `local_region`, split *along* one axis:
    /// the cell at local coordinate `c` contributes to
    /// `out[c[axis] − local_region.bounds[axis].0 + out_base]`.
    ///
    /// This is the chunk-level kernel behind per-coordinate (GROUP BY one
    /// dimension) cube queries. Runs merge only the dimensions after
    /// `axis`, so each run feeds one output slot unless `axis` is the
    /// innermost dimension.
    pub fn aggregate_along(
        &self,
        local_shape: &[u32],
        local_region: &Region,
        axis: usize,
        out: &mut [CellAgg],
        out_base: usize,
    ) {
        debug_assert!(axis < local_shape.len());
        let innermost = axis + 1 == local_shape.len();
        let axis_from = local_region.bounds[axis].0 as usize;
        let (sums, counts) = self.values();
        self.for_each_run(
            local_shape,
            local_region,
            axis + 1,
            |cells, start, outer| {
                if innermost {
                    // A run is one row of the axis starting at `axis_from`,
                    // so a cell's slot is its distance from the run start.
                    for i in cells {
                        let slot = &mut out[out_base + self.offset_of(i) - start];
                        slot.sum += sums[i];
                        slot.count += counts[i];
                    }
                } else {
                    let slot = &mut out[out_base + outer[axis] as usize - axis_from];
                    add_run(slot, &sums[cells.clone()], &counts[cells]);
                }
            },
        );
    }

    /// The stored per-cell sums and counts.
    fn values(&self) -> (&[f64], &[u64]) {
        match self {
            Self::Dense { sums, counts } | Self::Sparse { sums, counts, .. } => (sums, counts),
        }
    }

    /// Local row-major offset of the `i`-th stored cell.
    fn offset_of(&self, i: usize) -> usize {
        match self {
            Self::Dense { .. } => i,
            Self::Sparse { offsets, .. } => offsets[i] as usize,
        }
    }

    /// The run walker behind every chunk kernel: visits the stored cells of
    /// `local_region` one contiguous row-major run at a time, in ascending
    /// offset order, as `visit(cells, start, outer)`. `cells` indexes the
    /// run's cells in the chunk's `sums`/`counts`; `start` is the run's
    /// first local offset; `outer` holds the run's coordinates on the
    /// dimensions before the run dimension. Trailing dimensions the region
    /// covers fully are merged into one run, but no dimension before
    /// `merge_from`.
    ///
    /// A dense chunk's run is its offset range itself. A compressed chunk
    /// finds each run's cells by binary search from a cursor that only moves
    /// forward through its ascending `offsets`.
    fn for_each_run(
        &self,
        shape: &[u32],
        region: &Region,
        merge_from: usize,
        mut visit: impl FnMut(Range<usize>, usize, &[u32]),
    ) {
        match self {
            Self::Dense { .. } => {
                for_each_offset_run(shape, region, merge_from, |start, len, outer| {
                    visit(start..start + len, start, outer)
                })
            }
            Self::Sparse { offsets, .. } => {
                let cells: usize = shape.iter().map(|&s| s as usize).product();
                debug_assert!(
                    offsets.windows(2).all(|w| w[0] < w[1])
                        && offsets.last().is_none_or(|&o| (o as usize) < cells),
                    "sparse chunk offsets must be strictly ascending and in range"
                );
                let mut pos = 0;
                for_each_offset_run(shape, region, merge_from, |start, len, outer| {
                    let first = pos + offsets[pos..].partition_point(|&o| (o as usize) < start);
                    // Strictly ascending: at most `len` offsets fall in the run.
                    let window = &offsets[first..offsets.len().min(first + len)];
                    pos = first + window.partition_point(|&o| (o as usize) < start + len);
                    visit(first..pos, start, outer);
                });
            }
        }
    }
}

/// Sums one run's cells into `agg`, cell by cell in order.
#[inline]
fn add_run(agg: &mut CellAgg, sums: &[f64], counts: &[u64]) {
    for &v in sums {
        agg.sum += v;
    }
    for &c in counts {
        agg.count += c;
    }
}

/// Visits the contiguous row-major runs of `region` within `shape` in
/// ascending offset order, as `visit(start offset, length, outer)`.
///
/// The run dimension `k` is the first dimension, no earlier than
/// `merge_from`, after which the region covers every dimension fully; a
/// run spans the region's range on `k` and everything after it. `outer`
/// holds the run's coordinates on the dimensions `0..k`, stepped by an
/// odometer, last dimension fastest.
fn for_each_offset_run(
    shape: &[u32],
    region: &Region,
    merge_from: usize,
    mut visit: impl FnMut(usize, usize, &[u32]),
) {
    let ndim = shape.len();
    let mut k = ndim - 1;
    while k > merge_from && region.bounds[k] == (0, shape[k] - 1) {
        k -= 1;
    }
    let inner: usize = shape[k + 1..].iter().map(|&s| s as usize).product();
    let (from, to) = region.bounds[k];
    let len = (to - from + 1) as usize * inner;
    let mut outer: Vec<u32> = region.bounds[..k].iter().map(|&(f, _)| f).collect();
    loop {
        let row = outer
            .iter()
            .zip(shape)
            .fold(0usize, |acc, (&c, &s)| acc * s as usize + c as usize);
        visit(
            (row * shape[k] as usize + from as usize) * inner,
            len,
            &outer,
        );
        let mut d = k;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            if outer[d] < region.bounds[d].1 {
                outer[d] += 1;
                break;
            }
            outer[d] = region.bounds[d].0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::coords_of;

    fn dense_3x4() -> (Chunk, Vec<u32>) {
        // sums[i] = i, counts[i] = 1
        let sums: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let counts = vec![1u64; 12];
        (Chunk::Dense { sums, counts }, vec![3, 4])
    }

    #[test]
    fn dense_full_aggregate() {
        let (c, shape) = dense_3x4();
        let agg = c.aggregate(&shape, &Region::full(&shape));
        assert_eq!(agg.sum, (0..12).sum::<i32>() as f64);
        assert_eq!(agg.count, 12);
    }

    #[test]
    fn dense_sub_region() {
        let (c, shape) = dense_3x4();
        // rows 1..2, cols 1..2 → cells (1,1)=5 (1,2)=6 (2,1)=9 (2,2)=10
        let agg = c.aggregate(&shape, &Region::new(vec![(1, 2), (1, 2)]));
        assert_eq!(agg.sum, 30.0);
        assert_eq!(agg.count, 4);
    }

    #[test]
    fn one_dimensional_chunk() {
        let c = Chunk::Dense {
            sums: vec![1.0, 2.0, 3.0, 4.0],
            counts: vec![1; 4],
        };
        let agg = c.aggregate(&[4], &Region::new(vec![(1, 2)]));
        assert_eq!(agg.sum, 5.0);
        assert_eq!(agg.count, 2);
    }

    #[test]
    fn sparse_matches_dense() {
        let (mut dense, shape) = dense_3x4();
        // Zero out most cells so compression triggers.
        if let Chunk::Dense { sums, counts } = &mut dense {
            for i in 0..12 {
                if i % 4 != 0 {
                    sums[i] = 0.0;
                    counts[i] = 0;
                }
            }
        }
        let mut sparse = dense.clone();
        assert!(sparse.maybe_compress(12));
        assert!(matches!(sparse, Chunk::Sparse { .. }));
        for region in [
            Region::full(&shape),
            Region::new(vec![(0, 1), (0, 1)]),
            Region::new(vec![(2, 2), (0, 3)]),
        ] {
            assert_eq!(
                dense.aggregate(&shape, &region),
                sparse.aggregate(&shape, &region)
            );
        }
    }

    #[test]
    fn compression_threshold_respected() {
        let mut full = Chunk::dense_filled(10, 1.0, 1);
        assert!(!full.maybe_compress(10), "full chunk must stay dense");
        let mut half = Chunk::dense_empty(10);
        for i in 0..5 {
            half.add(i, 1.0, 1);
        }
        assert!(!half.maybe_compress(10), "50% fill stays dense");
        let mut sparse = Chunk::dense_empty(10);
        sparse.add(3, 1.0, 1);
        assert!(sparse.maybe_compress(10), "10% fill compresses");
        assert!(sparse.bytes() < Chunk::dense_empty(10).bytes());
    }

    #[test]
    fn add_into_sparse_keeps_order() {
        let mut c = Chunk::Sparse {
            offsets: vec![],
            sums: vec![],
            counts: vec![],
        };
        c.add(7, 1.0, 1);
        c.add(2, 2.0, 1);
        c.add(7, 3.0, 2);
        if let Chunk::Sparse {
            offsets,
            sums,
            counts,
        } = &c
        {
            assert_eq!(offsets, &[2, 7]);
            assert_eq!(sums, &[2.0, 4.0]);
            assert_eq!(counts, &[1, 3]);
        } else {
            panic!("expected sparse");
        }
        assert_eq!(c.filled_cells(), 2);
    }

    /// The per-cell sparse kernels the run walker replaced, kept as its
    /// oracle: every stored cell decoded to local coordinates and tested
    /// against the region, in offset order.
    fn per_cell_aggregate(chunk: &Chunk, shape: &[u32], region: &Region) -> CellAgg {
        let Chunk::Sparse {
            offsets,
            sums,
            counts,
        } = chunk
        else {
            panic!("the oracle reads sparse chunks");
        };
        let mut agg = CellAgg::default();
        for (i, &off) in offsets.iter().enumerate() {
            let coords = coords_of(shape, off as usize);
            if region.contains(&coords) {
                agg.sum += sums[i];
                agg.count += counts[i];
            }
        }
        agg
    }

    /// [`per_cell_aggregate`]'s counterpart for [`Chunk::aggregate_along`].
    fn per_cell_aggregate_along(
        chunk: &Chunk,
        shape: &[u32],
        region: &Region,
        axis: usize,
        out: &mut [CellAgg],
        out_base: usize,
    ) {
        let Chunk::Sparse {
            offsets,
            sums,
            counts,
        } = chunk
        else {
            panic!("the oracle reads sparse chunks");
        };
        let axis_from = region.bounds[axis].0;
        for (i, &off) in offsets.iter().enumerate() {
            let coords = coords_of(shape, off as usize);
            if region.contains(&coords) {
                let slot = out_base + (coords[axis] - axis_from) as usize;
                out[slot].sum += sums[i];
                out[slot].count += counts[i];
            }
        }
    }

    /// Minimal LCG for the randomised cases below.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % u64::from(n)) as u32
        }
    }

    /// A dense chunk of `shape` with roughly `fill_pct` % of its cells
    /// filled with non-dyadic values (so summation order shows in the
    /// bits), and the same cells in sparse form.
    fn random_chunk(rng: &mut Lcg, shape: &[u32], fill_pct: u32) -> (Chunk, Chunk) {
        let cells: u32 = shape.iter().product();
        let mut dense = Chunk::dense_empty(cells as usize);
        for off in 0..cells {
            if rng.below(100) < fill_pct {
                let sign = if off % 3 == 0 { -1.0 } else { 1.0 };
                dense.add(off, sign * 0.1 * f64::from(off + 1), 1 + u64::from(off % 4));
            }
        }
        let Chunk::Dense { sums, counts } = &dense else {
            unreachable!()
        };
        let keep: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
        let sparse = Chunk::Sparse {
            offsets: keep.iter().map(|&i| i as u32).collect(),
            sums: keep.iter().map(|&i| sums[i]).collect(),
            counts: keep.iter().map(|&i| counts[i]).collect(),
        };
        (dense, sparse)
    }

    /// Random regions of `shape`: the full region, single cells, regions
    /// whose trailing dimensions are full (merged runs) and arbitrary boxes.
    fn random_regions(rng: &mut Lcg, shape: &[u32]) -> Vec<Region> {
        let mut regions = vec![Region::full(shape)];
        for _ in 0..4 {
            regions.push(Region::new(
                shape
                    .iter()
                    .map(|&s| {
                        let c = rng.below(s);
                        (c, c)
                    })
                    .collect(),
            ));
            let full_from = rng.below(shape.len() as u32 + 1) as usize;
            regions.push(Region::new(
                shape
                    .iter()
                    .enumerate()
                    .map(|(d, &s)| {
                        let f = rng.below(s);
                        let t = f + rng.below(s - f);
                        if d >= full_from {
                            (0, s - 1)
                        } else {
                            (f, t)
                        }
                    })
                    .collect(),
            ));
        }
        regions
    }

    fn assert_bits_eq(got: CellAgg, want: CellAgg, what: &str) {
        assert_eq!(got.count, want.count, "{what}: count");
        assert_eq!(got.sum.to_bits(), want.sum.to_bits(), "{what}: sum bits");
    }

    #[test]
    fn run_kernels_match_the_per_cell_oracle_bit_for_bit() {
        let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
        for case in 0..300 {
            let ndim = 1 + case % 4;
            let shape: Vec<u32> = (0..ndim).map(|_| 1 + rng.below(6)).collect();
            let fill_pct = [0, 10, 39, 41, 80, 100][case % 6];
            let (dense, sparse) = random_chunk(&mut rng, &shape, fill_pct);
            for region in random_regions(&mut rng, &shape) {
                let what = format!("shape {shape:?} fill {fill_pct}% region {region:?}");
                let want = per_cell_aggregate(&sparse, &shape, &region);
                assert_bits_eq(dense.aggregate(&shape, &region), want, &what);
                assert_bits_eq(sparse.aggregate(&shape, &region), want, &what);
                for axis in 0..ndim {
                    let (from, to) = region.bounds[axis];
                    let out_base = rng.below(3) as usize;
                    let width = out_base + (to - from + 1) as usize;
                    // Pre-filled slots: the kernels add into what is there.
                    let start: Vec<CellAgg> = (0..width)
                        .map(|i| CellAgg {
                            sum: 0.3 * i as f64,
                            count: i as u64,
                        })
                        .collect();
                    let mut want = start.clone();
                    per_cell_aggregate_along(&sparse, &shape, &region, axis, &mut want, out_base);
                    for chunk in [&dense, &sparse] {
                        let mut got = start.clone();
                        chunk.aggregate_along(&shape, &region, axis, &mut got, out_base);
                        for (g, w) in got.iter().zip(&want) {
                            assert_bits_eq(*g, *w, &format!("{what} axis {axis}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fill_factor() {
        let mut c = Chunk::dense_empty(8);
        c.add(0, 1.0, 1);
        c.add(1, 1.0, 1);
        assert!((c.fill_factor(8) - 0.25).abs() < 1e-12);
    }
}
