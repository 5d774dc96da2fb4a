//! The MOLAP cube: schema, construction, roll-up and aggregation.

use crate::chunk::{CellAgg, Chunk};
use crate::geometry::{CellAddress, ChunkGrid, Region};
use holap_table::{par, FactTable, TableSchema};

pub use crate::chunk::CellAgg as CellAggregate;

/// Bytes one cube cell occupies: an `f64` sum plus a `u64` count.
/// This is the `E_size` of the paper's Eq. 3.
pub const CELL_BYTES: usize = 16;

/// Default chunk side length (cells per dimension per chunk).
pub const DEFAULT_CHUNK_SIDE: u32 = 64;

/// The dimensional schema shared by all cubes of one OLAP system: each
/// dimension's level hierarchy (coarsest first). A concrete cube
/// materialises one *resolution* — level `min(r, levels−1)` of every
/// dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeSchema {
    /// Dimension hierarchies (reusing the fact-table dimension schema so a
    /// cube can be built directly from a table).
    pub dimensions: Vec<holap_table::DimensionSchema>,
}

impl CubeSchema {
    /// Builds a cube schema from the dimensional part of a table schema.
    pub fn from_table_schema(table: &TableSchema) -> Self {
        Self {
            dimensions: table.dimensions.clone(),
        }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dimensions.len()
    }

    /// The finest resolution any dimension offers (max level index).
    pub fn max_resolution(&self) -> usize {
        self.dimensions
            .iter()
            .map(|d| d.levels.len() - 1)
            .max()
            .unwrap_or(0)
    }

    /// The level dimension `dim` uses at resolution `r` (clamped to the
    /// dimension's finest level).
    pub fn level_for(&self, dim: usize, r: usize) -> usize {
        r.min(self.dimensions[dim].levels.len() - 1)
    }

    /// Cardinality of dimension `dim` at resolution `r`.
    pub fn cardinality_at(&self, dim: usize, r: usize) -> u32 {
        let level = self.level_for(dim, r);
        self.dimensions[dim].levels[level].cardinality
    }

    /// Cube shape (cells per dimension) at resolution `r`.
    pub fn shape_at(&self, r: usize) -> Vec<u32> {
        (0..self.ndim())
            .map(|d| self.cardinality_at(d, r))
            .collect()
    }

    /// Total cell count at resolution `r`.
    pub fn cells_at(&self, r: usize) -> u64 {
        self.shape_at(r).iter().map(|&c| u64::from(c)).product()
    }

    /// Dense cube size in MB (`2^20` bytes) at resolution `r` — what Fig. 1
    /// plots against resolution.
    pub fn size_mb_at(&self, r: usize) -> f64 {
        (self.cells_at(r) as f64) * CELL_BYTES as f64 / (1024.0 * 1024.0)
    }

    /// Whether every dimension's hierarchy has divisible cardinalities
    /// between adjacent levels (uniform fan-out) — required for exact
    /// roll-up and exact range conversion between resolutions.
    pub fn uniform_hierarchy(&self) -> bool {
        self.dimensions.iter().all(|d| {
            d.levels
                .windows(2)
                .all(|w| w[1].cardinality % w[0].cardinality == 0)
        })
    }

    /// Converts an inclusive coordinate range on `dim` from a coarser
    /// resolution `from_r` to a finer resolution `to_r >= from_r`.
    ///
    /// With uniform hierarchies this is exact: each coarse coordinate maps
    /// to a contiguous block of fine coordinates.
    pub fn widen_range(
        &self,
        dim: usize,
        from_r: usize,
        to_r: usize,
        range: (u32, u32),
    ) -> (u32, u32) {
        assert!(to_r >= from_r, "widen_range requires to_r >= from_r");
        let coarse = u64::from(self.cardinality_at(dim, from_r));
        let fine = u64::from(self.cardinality_at(dim, to_r));
        debug_assert!(
            fine.is_multiple_of(coarse),
            "non-uniform hierarchy in widen_range"
        );
        let factor = fine / coarse;
        let lo = u64::from(range.0) * factor;
        let hi = (u64::from(range.1) + 1) * factor - 1;
        (lo as u32, hi as u32)
    }

    /// Maps a single coordinate from a finer resolution `from_r` down to a
    /// coarser resolution `to_r <= from_r` (the roll-up direction).
    pub fn coarsen_coord(&self, dim: usize, from_r: usize, to_r: usize, coord: u32) -> u32 {
        assert!(to_r <= from_r, "coarsen_coord requires to_r <= from_r");
        let fine = u64::from(self.cardinality_at(dim, from_r));
        let coarse = u64::from(self.cardinality_at(dim, to_r));
        ((u64::from(coord) * coarse) / fine) as u32
    }
}

/// A dense, chunked MOLAP cube materialised at one resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct MolapCube {
    schema: CubeSchema,
    resolution: usize,
    grid: ChunkGrid,
    chunks: Vec<Chunk>,
}

impl MolapCube {
    /// Creates an empty cube at `resolution` with the default chunk side.
    pub fn build_empty(schema: CubeSchema, resolution: usize) -> Self {
        Self::build_empty_with_chunks(schema, resolution, DEFAULT_CHUNK_SIDE)
    }

    /// Creates an empty cube with an explicit chunk side length.
    pub fn build_empty_with_chunks(schema: CubeSchema, resolution: usize, chunk_side: u32) -> Self {
        let grid = ChunkGrid::new(schema.shape_at(resolution), chunk_side);
        let chunks = (0..grid.chunk_count())
            .map(|i| Chunk::dense_empty(grid.chunk_cells(i)))
            .collect();
        Self {
            schema,
            resolution,
            grid,
            chunks,
        }
    }

    /// Creates a cube with every cell holding `(sum, count)` — the fast
    /// path for synthetic cubes in benchmarks.
    pub fn build_filled(schema: CubeSchema, resolution: usize, sum: f64, count: u64) -> Self {
        Self::build_filled_with_chunks(schema, resolution, sum, count, DEFAULT_CHUNK_SIDE)
    }

    /// [`MolapCube::build_filled`] with an explicit chunk side length.
    pub fn build_filled_with_chunks(
        schema: CubeSchema,
        resolution: usize,
        sum: f64,
        count: u64,
        chunk_side: u32,
    ) -> Self {
        let mut cube = Self::build_empty_with_chunks(schema, resolution, chunk_side);
        for (i, chunk) in cube.chunks.iter_mut().enumerate() {
            *chunk = Chunk::dense_filled(cube.grid.chunk_cells(i), sum, count);
        }
        cube
    }

    /// Builds the cube by aggregating `measure_idx` of a fact table at
    /// `resolution` — the cube-build task the paper assigns to the GPU
    /// ("building the cube from relational tables", §III-A), available here
    /// on the CPU as well.
    ///
    /// This is the array-based build of Zhao, Deshpande & Naughton (§II-B):
    /// one pass over the rows in row order, each adding its measure and a
    /// count of 1 straight into its cell of the dense chunked array. Cells
    /// are addressed through per-dimension lookup tables, so the pass
    /// allocates nothing per row, and every cell sums its rows in row
    /// order (`0.0 + m₁ + m₂ + …`).
    ///
    /// # Panics
    ///
    /// Panics if the table's dimensional schema disagrees with the cube
    /// schema or the measure index is out of range.
    pub fn build_from_table(
        schema: CubeSchema,
        resolution: usize,
        table: &FactTable,
        measure_idx: usize,
    ) -> Self {
        assert_eq!(
            schema.dimensions,
            table.schema().dimensions,
            "cube and table dimensional schemas must match"
        );
        let measure = table.measure_column(measure_idx);
        let mut cube = Self::build_empty(schema, resolution);
        let columns: Vec<&[u32]> = (0..cube.schema.ndim())
            .map(|d| table.dim_column(d, cube.schema.level_for(d, resolution)))
            .collect();
        let address = CellAddress::new(&cube.grid, &cube.grid.shape, |_, c| c);
        for (row, &m) in measure.iter().enumerate() {
            let (ci, off) = address.locate(|d| columns[d][row]);
            cube.chunks[ci].add(off, m, 1);
        }
        cube
    }

    /// Borrowed view of the cube's internals — used by persistence layers.
    pub fn parts(&self) -> (&CubeSchema, usize, &ChunkGrid, &[Chunk]) {
        (&self.schema, self.resolution, &self.grid, &self.chunks)
    }

    /// Reassembles a cube from its parts (inverse of [`MolapCube::parts`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the grid does not match the schema's shape at
    /// the resolution, or the chunk list disagrees with the grid.
    pub fn from_parts(
        schema: CubeSchema,
        resolution: usize,
        grid: ChunkGrid,
        chunks: Vec<Chunk>,
    ) -> Result<Self, String> {
        if grid.shape != schema.shape_at(resolution) {
            return Err(format!(
                "grid shape {:?} does not match schema shape {:?} at resolution {resolution}",
                grid.shape,
                schema.shape_at(resolution)
            ));
        }
        if chunks.len() != grid.chunk_count() {
            return Err(format!(
                "{} chunks supplied, grid has {}",
                chunks.len(),
                grid.chunk_count()
            ));
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let cells = grid.chunk_cells(i) as u64;
            let ok = match chunk {
                Chunk::Dense { sums, counts } => {
                    sums.len() as u64 == cells && counts.len() as u64 == cells
                }
                Chunk::Sparse {
                    offsets,
                    sums,
                    counts,
                } => {
                    offsets.len() == sums.len()
                        && sums.len() == counts.len()
                        && offsets.iter().all(|&o| u64::from(o) < cells)
                        && offsets.windows(2).all(|w| w[0] < w[1])
                }
            };
            if !ok {
                return Err(format!("chunk {i} is inconsistent with its local shape"));
            }
        }
        Ok(Self {
            schema,
            resolution,
            grid,
            chunks,
        })
    }

    /// Adds `(sum, count)` into the cell at `coords` (cube-resolution
    /// coordinates).
    pub fn add(&mut self, coords: &[u32], sum: f64, count: u64) {
        let (ci, off) = self.grid.locate(coords);
        self.chunks[ci].add(off, sum, count);
    }

    /// Reads one cell.
    pub fn cell(&self, coords: &[u32]) -> CellAgg {
        let region = Region::new(coords.iter().map(|&c| (c, c)).collect());
        self.aggregate_seq(&region)
    }

    /// Applies chunk-offset compression to all under-filled chunks;
    /// returns how many chunks were compressed.
    pub fn compress(&mut self) -> usize {
        let grid = &self.grid;
        self.chunks
            .iter_mut()
            .enumerate()
            .map(|(i, c)| usize::from(c.maybe_compress(grid.chunk_cells(i))))
            .sum()
    }

    /// The cube's resolution (level index).
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// The cube's schema.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// Cube shape (cells per dimension).
    pub fn shape(&self) -> &[u32] {
        &self.grid.shape
    }

    /// Total number of cells.
    pub fn cells(&self) -> u64 {
        self.grid.total_cells()
    }

    /// Actual bytes of cell storage (after compression).
    pub fn bytes(&self) -> usize {
        self.chunks.iter().map(Chunk::bytes).sum()
    }

    /// Dense-equivalent size in MB — the quantity the performance model
    /// works with (compressed chunks still require their dense scan
    /// equivalent in the model's terms).
    pub fn size_mb(&self) -> f64 {
        self.cells() as f64 * CELL_BYTES as f64 / (1024.0 * 1024.0)
    }

    /// Estimated sub-cube size in MB for a query region (paper Eq. 3):
    /// `E_size · Π (t_i − f_i + 1) / 2^20`.
    pub fn estimate_subcube_mb(&self, region: &Region) -> f64 {
        region.cells() as f64 * CELL_BYTES as f64 / (1024.0 * 1024.0)
    }

    fn validate_region(&self, region: &Region) {
        assert_eq!(
            region.ndim(),
            self.grid.ndim(),
            "region dimensionality mismatch"
        );
        for (d, (&(f, t), &card)) in region.bounds.iter().zip(&self.grid.shape).enumerate() {
            assert!(
                f <= t && t < card,
                "region bound ({f}, {t}) out of range for dimension {d} (cardinality {card})"
            );
        }
    }

    /// Chunk `chunk_idx`'s global region, its local shape, and its
    /// intersection with `region` in local coordinates — or `None` when the
    /// two are disjoint. All three come from one [`ChunkGrid::chunk_region`].
    fn local_view(&self, chunk_idx: usize, region: &Region) -> Option<(Region, Vec<u32>, Region)> {
        let chunk_region = self.grid.chunk_region(chunk_idx);
        let ndim = region.ndim();
        let (mut shape, mut local) = (Vec::with_capacity(ndim), Vec::with_capacity(ndim));
        for (&(base, last), &(from, to)) in chunk_region.bounds.iter().zip(&region.bounds) {
            let (from, to) = (from.max(base), to.min(last));
            if from > to {
                return None;
            }
            shape.push(last - base + 1);
            local.push((from - base, to - base));
        }
        Some((chunk_region, shape, Region::new(local)))
    }

    fn chunk_partial(&self, chunk_idx: usize, region: &Region) -> CellAgg {
        let (_, local_shape, local) = self
            .local_view(chunk_idx, region)
            .expect("chunk selected but does not intersect region");
        self.chunks[chunk_idx].aggregate(&local_shape, &local)
    }

    /// Sequential sub-cube aggregation over the region.
    pub fn aggregate_seq(&self, region: &Region) -> CellAgg {
        self.validate_region(region);
        let mut agg = CellAgg::default();
        for ci in self.grid.chunks_intersecting(region) {
            agg.merge(self.chunk_partial(ci, region));
        }
        agg
    }

    /// Parallel sub-cube aggregation: intersecting chunks are split into
    /// one contiguous part per thread and the partials reduced — the
    /// reproduction of the paper's OpenMP parallel cube processing. Run
    /// inside [`par::Pool::install`] to control the thread count.
    pub fn aggregate_par(&self, region: &Region) -> CellAgg {
        self.validate_region(region);
        let merge = |mut a: CellAgg, b: CellAgg| {
            a.merge(b);
            a
        };
        par::fold_reduce(
            self.grid.chunks_intersecting(region),
            CellAgg::default,
            |acc, ci| merge(acc, self.chunk_partial(ci, region)),
            merge,
        )
    }

    /// Per-coordinate aggregation along `dim` inside `region`: element `i`
    /// of the result aggregates the slice `dim == region.bounds[dim].0 + i`
    /// — the cube-side `GROUP BY` one dimension.
    pub fn aggregate_along_seq(&self, dim: usize, region: &Region) -> Vec<CellAgg> {
        self.validate_region(region);
        assert!(dim < self.grid.ndim(), "axis {dim} out of range");
        let width = (region.bounds[dim].1 - region.bounds[dim].0 + 1) as usize;
        let mut out = vec![CellAgg::default(); width];
        for ci in self.grid.chunks_intersecting(region) {
            self.chunk_partial_along(ci, dim, region, &mut out);
        }
        out
    }

    /// Parallel variant of [`MolapCube::aggregate_along_seq`]: chunks are
    /// processed concurrently into per-thread buffers that are reduced.
    pub fn aggregate_along_par(&self, dim: usize, region: &Region) -> Vec<CellAgg> {
        self.validate_region(region);
        assert!(dim < self.grid.ndim(), "axis {dim} out of range");
        let width = (region.bounds[dim].1 - region.bounds[dim].0 + 1) as usize;
        par::fold_reduce(
            self.grid.chunks_intersecting(region),
            || vec![CellAgg::default(); width],
            |mut acc, ci| {
                self.chunk_partial_along(ci, dim, region, &mut acc);
                acc
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    x.merge(y);
                }
                a
            },
        )
    }

    fn chunk_partial_along(
        &self,
        chunk_idx: usize,
        dim: usize,
        region: &Region,
        out: &mut [CellAgg],
    ) {
        let Some((chunk_region, local_shape, local)) = self.local_view(chunk_idx, region) else {
            return;
        };
        // Output base: where this chunk's slice of the axis starts within
        // the region's axis window.
        let out_base =
            (chunk_region.bounds[dim].0 + local.bounds[dim].0 - region.bounds[dim].0) as usize;
        self.chunks[chunk_idx].aggregate_along(&local_shape, &local, dim, out, out_base);
    }

    /// Rolls this cube up to a strictly coarser resolution, producing the
    /// new cube from its "smallest parent" (paper §II-B) instead of
    /// rescanning the fact table.
    ///
    /// Cells are visited chunk by chunk in offset order
    /// ([`MolapCube::for_each_cell`]) and scattered into the coarser cube
    /// through per-dimension coarsening tables, so each coarse cell sums
    /// its fine cells in that order.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.resolution()` changes nothing, or if the
    /// schema's hierarchy is not uniform (roll-up would be inexact).
    pub fn rollup_to(&self, target: usize) -> MolapCube {
        assert!(target < self.resolution, "roll-up target must be coarser");
        assert!(
            self.schema.uniform_hierarchy(),
            "roll-up needs uniform hierarchies"
        );
        let mut out = MolapCube::build_empty(self.schema.clone(), target);
        let address = CellAddress::new(&out.grid, &self.grid.shape, |d, c| {
            self.schema.coarsen_coord(d, self.resolution, target, c)
        });
        self.for_each_cell(|coords, sum, count| {
            let (ci, off) = address.locate(|d| coords[d]);
            out.chunks[ci].add(off, sum, count);
        });
        out
    }

    /// Visits every non-empty cell as `(global coords, sum, count)`, chunk
    /// by chunk in local offset order.
    pub fn for_each_cell<F: FnMut(&[u32], f64, u64)>(&self, mut f: F) {
        let mut global = vec![0u32; self.grid.ndim()];
        for (ci, chunk) in self.chunks.iter().enumerate() {
            let bounds = self.grid.chunk_region(ci).bounds;
            let mut visit = |off: u32, sum: f64, count: u64| {
                if count == 0 {
                    return;
                }
                let mut rest = off;
                for (g, &(from, to)) in global.iter_mut().zip(&bounds).rev() {
                    let extent = to - from + 1;
                    *g = from + rest % extent;
                    rest /= extent;
                }
                f(&global, sum, count);
            };
            match chunk {
                Chunk::Dense { sums, counts } => {
                    for (i, (&s, &c)) in sums.iter().zip(counts).enumerate() {
                        visit(i as u32, s, c);
                    }
                }
                Chunk::Sparse {
                    offsets,
                    sums,
                    counts,
                } => {
                    for ((&off, &s), &c) in offsets.iter().zip(sums).zip(counts) {
                        visit(off, s, c);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holap_table::{
        AggOp, AggSpec, ColumnId, FactTableBuilder, GroupByQuery, ScanQuery, TableSchema,
    };

    fn schema() -> CubeSchema {
        CubeSchema::from_table_schema(
            &TableSchema::builder()
                .dimension("time", &[("year", 4), ("month", 16), ("day", 64)])
                .dimension("geo", &[("region", 4), ("city", 8)])
                .measure("sales")
                .build(),
        )
    }

    #[test]
    fn schema_geometry() {
        let s = schema();
        assert_eq!(s.max_resolution(), 2);
        assert_eq!(s.shape_at(0), vec![4, 4]);
        assert_eq!(s.shape_at(1), vec![16, 8]);
        assert_eq!(s.shape_at(2), vec![64, 8]); // geo clamps to city
        assert_eq!(s.cells_at(2), 512);
        assert!(s.uniform_hierarchy());
    }

    #[test]
    fn widen_and_coarsen_are_inverse_on_blocks() {
        let s = schema();
        // time: year 2 at r0 → months 8..11 at r1.
        assert_eq!(s.widen_range(0, 0, 1, (2, 2)), (8, 11));
        for m in 8..=11 {
            assert_eq!(s.coarsen_coord(0, 1, 0, m), 2);
        }
    }

    #[test]
    fn filled_cube_full_aggregate() {
        let cube = MolapCube::build_filled(schema(), 1, 2.0, 1);
        let agg = cube.aggregate_seq(&Region::full(cube.shape()));
        assert_eq!(agg.count, 16 * 8);
        assert_eq!(agg.sum, 2.0 * 128.0);
    }

    #[test]
    fn add_and_cell_roundtrip() {
        let mut cube = MolapCube::build_empty(schema(), 1);
        cube.add(&[3, 5], 7.5, 2);
        cube.add(&[3, 5], 0.5, 1);
        let c = cube.cell(&[3, 5]);
        assert_eq!(c.sum, 8.0);
        assert_eq!(c.count, 3);
        assert_eq!(cube.cell(&[0, 0]).count, 0);
    }

    #[test]
    fn par_equals_seq() {
        let mut cube = MolapCube::build_empty_with_chunks(schema(), 2, 16);
        // Deterministic pseudo-random content.
        let mut x = 1u64;
        for day in 0..64u32 {
            for city in 0..8u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                cube.add(&[day, city], (x % 100) as f64, 1);
            }
        }
        for region in [
            Region::full(cube.shape()),
            Region::new(vec![(5, 40), (2, 6)]),
            Region::new(vec![(63, 63), (0, 7)]),
        ] {
            let s = cube.aggregate_seq(&region);
            let p = cube.aggregate_par(&region);
            assert_eq!(s.count, p.count);
            assert!((s.sum - p.sum).abs() < 1e-9 * (1.0 + s.sum.abs()));
        }
    }

    #[test]
    fn build_from_table_aggregates_rows() {
        let tschema = TableSchema::builder()
            .dimension("time", &[("year", 4), ("month", 16)])
            .dimension("geo", &[("city", 8)])
            .measure("sales")
            .build();
        let cschema = CubeSchema::from_table_schema(&tschema);
        let mut b = FactTableBuilder::new(tschema);
        // rows: (year, month, city, sales)
        b.push_row(&[0, 1, 3], &[10.0]).unwrap();
        b.push_row(&[0, 1, 3], &[5.0]).unwrap();
        b.push_row(&[2, 9, 3], &[7.0]).unwrap();
        let table = b.finish();

        // Fine cube at month resolution.
        let cube = MolapCube::build_from_table(cschema.clone(), 1, &table, 0);
        assert_eq!(cube.cell(&[1, 3]).sum, 15.0);
        assert_eq!(cube.cell(&[1, 3]).count, 2);
        assert_eq!(cube.cell(&[9, 3]).sum, 7.0);
        // Whole-cube totals match the table.
        let total = cube.aggregate_seq(&Region::full(cube.shape()));
        assert_eq!(total.sum, 22.0);
        assert_eq!(total.count, 3);
    }

    #[test]
    fn aggregate_along_matches_per_slice_aggregates() {
        let mut cube = MolapCube::build_empty_with_chunks(schema(), 2, 16);
        let mut x = 5u64;
        for day in 0..64u32 {
            for city in 0..8u32 {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                if !x.is_multiple_of(3) {
                    cube.add(&[day, city], (x % 40) as f64, 1);
                }
            }
        }
        cube.compress(); // exercise the sparse path too
        let region = Region::new(vec![(10, 50), (2, 6)]);
        for dim in 0..2usize {
            let along = cube.aggregate_along_seq(dim, &region);
            let along_par = cube.aggregate_along_par(dim, &region);
            assert_eq!(
                along.len(),
                (region.bounds[dim].1 - region.bounds[dim].0 + 1) as usize
            );
            for (i, agg) in along.iter().enumerate() {
                let mut slice = region.clone();
                let c = region.bounds[dim].0 + i as u32;
                slice.bounds[dim] = (c, c);
                let direct = cube.aggregate_seq(&slice);
                assert_eq!(agg.count, direct.count, "dim {dim} slice {c}");
                assert!((agg.sum - direct.sum).abs() < 1e-9 * (1.0 + direct.sum.abs()));
                assert_eq!(along_par[i].count, direct.count);
                assert!((along_par[i].sum - direct.sum).abs() < 1e-9 * (1.0 + direct.sum.abs()));
            }
            // Slices sum to the region total.
            let total = cube.aggregate_seq(&region);
            let sum: f64 = along.iter().map(|a| a.sum).sum();
            let count: u64 = along.iter().map(|a| a.count).sum();
            assert_eq!(count, total.count);
            assert!((sum - total.sum).abs() < 1e-9 * (1.0 + total.sum.abs()));
        }
    }

    #[test]
    fn rollup_preserves_totals_and_grouping() {
        let tschema = TableSchema::builder()
            .dimension("time", &[("year", 4), ("month", 16)])
            .dimension("geo", &[("region", 2), ("city", 8)])
            .measure("sales")
            .build();
        let cschema = CubeSchema::from_table_schema(&tschema);
        let mut b = FactTableBuilder::new(tschema);
        // month 5 is in year 1 (16/4 = 4 months per year); city 6 in region 1.
        b.push_row(&[1, 5, 1, 6], &[3.0]).unwrap();
        b.push_row(&[1, 7, 1, 7], &[4.0]).unwrap();
        b.push_row(&[0, 0, 0, 0], &[9.0]).unwrap();
        let table = b.finish();
        let fine = MolapCube::build_from_table(cschema.clone(), 1, &table, 0);
        let coarse = fine.rollup_to(0);
        // Coarse cube == building directly at resolution 0.
        let direct = MolapCube::build_from_table(cschema, 0, &table, 0);
        let full = Region::full(coarse.shape());
        assert_eq!(coarse.aggregate_seq(&full), direct.aggregate_seq(&full));
        assert_eq!(coarse.cell(&[1, 1]).sum, 7.0);
        assert_eq!(coarse.cell(&[0, 0]).sum, 9.0);
    }

    #[test]
    fn compression_reduces_bytes_and_keeps_answers() {
        let mut cube = MolapCube::build_empty_with_chunks(schema(), 2, 16);
        cube.add(&[10, 3], 5.0, 1);
        cube.add(&[50, 7], 2.0, 1);
        let full = Region::full(cube.shape());
        let before = cube.aggregate_seq(&full);
        let dense_bytes = cube.bytes();
        let compressed = cube.compress();
        assert!(compressed > 0);
        assert!(cube.bytes() < dense_bytes);
        assert_eq!(cube.aggregate_seq(&full), before);
        // Parallel path over sparse chunks agrees too.
        assert_eq!(cube.aggregate_par(&full), before);
    }

    #[test]
    fn size_estimates_follow_eq3() {
        let cube = MolapCube::build_filled(schema(), 1, 1.0, 1);
        let region = Region::new(vec![(0, 7), (0, 3)]); // 8 × 4 = 32 cells
        let mb = cube.estimate_subcube_mb(&region);
        assert!((mb - 32.0 * 16.0 / (1024.0 * 1024.0)).abs() < 1e-15);
        assert!((cube.size_mb() - 128.0 * 16.0 / (1024.0 * 1024.0)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn aggregate_rejects_out_of_range_region() {
        let cube = MolapCube::build_filled(schema(), 0, 1.0, 1);
        cube.aggregate_seq(&Region::new(vec![(0, 4), (0, 3)]));
    }

    /// The build [`MolapCube::build_from_table`] replaced, kept as its
    /// oracle: a `GROUP BY` over every dimension at the target resolution,
    /// then one [`MolapCube::add`] per group.
    fn group_by_build(
        schema: CubeSchema,
        resolution: usize,
        table: &FactTable,
        measure_idx: usize,
    ) -> MolapCube {
        let mut cube = MolapCube::build_empty(schema, resolution);
        let group_by: Vec<ColumnId> = (0..cube.schema.ndim())
            .map(|d| ColumnId::dim(d, cube.schema.level_for(d, resolution)))
            .collect();
        let q = GroupByQuery::new(
            ScanQuery::new().aggregate(AggSpec::new(AggOp::Sum, Some(measure_idx))),
            group_by,
        );
        for g in &table.group_by_seq(&q).unwrap().groups {
            cube.add(&g.key, g.values[0].sum, g.rows);
        }
        cube
    }

    /// The roll-up [`MolapCube::rollup_to`] replaced, kept as its oracle:
    /// every non-empty cell, chunk by chunk in offset order, decoded to
    /// global coordinates, coarsened and added one by one.
    fn per_cell_rollup(fine: &MolapCube, target: usize) -> MolapCube {
        let mut out = MolapCube::build_empty(fine.schema.clone(), target);
        let (schema, resolution, grid, chunks) = fine.parts();
        for (ci, chunk) in chunks.iter().enumerate() {
            let base = grid.chunk_region(ci);
            let local_shape = grid.chunk_local_shape(ci);
            let cells: Vec<(u32, f64, u64)> = match chunk {
                Chunk::Dense { sums, counts } => (0u32..)
                    .zip(sums.iter().zip(counts))
                    .map(|(off, (&s, &c))| (off, s, c))
                    .collect(),
                Chunk::Sparse {
                    offsets,
                    sums,
                    counts,
                } => (offsets.iter().zip(sums).zip(counts))
                    .map(|((&off, &s), &c)| (off, s, c))
                    .collect(),
            };
            for (off, sum, count) in cells.into_iter().filter(|&(_, _, c)| c > 0) {
                let local = crate::geometry::coords_of(&local_shape, off as usize);
                let coarse: Vec<u32> = (0..schema.ndim())
                    .map(|d| {
                        let global = base.bounds[d].0 + local[d];
                        schema.coarsen_coord(d, resolution, target, global)
                    })
                    .collect();
                out.add(&coarse, sum, count);
            }
        }
        out
    }

    /// Equal under `PartialEq` and in the bit pattern of every sum.
    fn assert_identical(a: &MolapCube, b: &MolapCube, what: &str) {
        assert_eq!(a, b, "{what}");
        let bits = |cube: &MolapCube| -> Vec<u64> {
            let mut out = Vec::new();
            cube.for_each_cell(|_, sum, _| out.push(sum.to_bits()));
            out
        };
        assert_eq!(bits(a), bits(b), "{what}: sum bits");
    }

    /// A table over `dims` (level cardinalities per dimension, coarsest
    /// first) with `rows` rows. Finest coordinates come from an LCG, every
    /// other row squeezed into the low eighth of each axis so that cells
    /// collect many rows; coarser levels follow the hierarchy. Measures are
    /// `±0.1·i`, which are not dyadic, so the order in which a cell sums
    /// its rows shows in its bits.
    fn lcg_table(dims: &[&[u32]], rows: u32) -> FactTable {
        let names: Vec<Vec<(String, u32)>> = dims
            .iter()
            .map(|levels| {
                (0..)
                    .zip(levels.iter())
                    .map(|(l, &c)| (format!("l{l}"), c))
                    .collect()
            })
            .collect();
        let mut builder = TableSchema::builder();
        for (d, levels) in names.iter().enumerate() {
            let refs: Vec<(&str, u32)> = levels.iter().map(|(n, c)| (n.as_str(), *c)).collect();
            builder = builder.dimension(&format!("d{d}"), &refs);
        }
        let mut b = FactTableBuilder::new(builder.measure("m").build());
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut coords = Vec::new();
        for i in 0..rows {
            coords.clear();
            for levels in dims {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let finest = *levels.last().unwrap();
                let span = if i % 2 == 0 {
                    finest.div_ceil(8)
                } else {
                    finest
                };
                let fine = (x >> 33) as u32 % span;
                coords.extend(levels.iter().map(|&c| fine * c / finest));
            }
            let sign = if i % 3 == 0 { -1.0 } else { 1.0 };
            b.push_row(&coords, &[sign * 0.1 * f64::from(i)]).unwrap();
        }
        b.finish()
    }

    /// The scatter build and roll-up equal their oracles bit for bit at
    /// every resolution, in dense and in compressed form.
    fn assert_matches_oracles(table: &FactTable) {
        let schema = CubeSchema::from_table_schema(table.schema());
        for r in 0..=schema.max_resolution() {
            let dense = MolapCube::build_from_table(schema.clone(), r, table, 0);
            let oracle = group_by_build(schema.clone(), r, table, 0);
            assert_identical(&dense, &oracle, &format!("dense build at {r}"));
            let (mut compressed, mut oracle_compressed) = (dense.clone(), oracle.clone());
            assert_eq!(compressed.compress(), oracle_compressed.compress());
            assert_identical(
                &compressed,
                &oracle_compressed,
                &format!("compressed build at {r}"),
            );
            for target in 0..r {
                assert_identical(
                    &dense.rollup_to(target),
                    &per_cell_rollup(&oracle, target),
                    &format!("dense roll-up {r} -> {target}"),
                );
                assert_identical(
                    &compressed.rollup_to(target),
                    &per_cell_rollup(&oracle_compressed, target),
                    &format!("compressed roll-up {r} -> {target}"),
                );
            }
        }
    }

    #[test]
    fn scatter_matches_oracles_with_edge_chunks() {
        // 70 and 130 are not multiples of the 64-cell chunk side.
        let table = lcg_table(&[&[5, 35, 70], &[2, 26, 130], &[1, 3, 9]], 6000);
        let schema = CubeSchema::from_table_schema(table.schema());
        assert!(MolapCube::build_empty(schema, 2).parts().2.chunk_count() > 4);
        assert_matches_oracles(&table);
    }

    #[test]
    fn scatter_matches_oracles_on_an_empty_table() {
        let table = lcg_table(&[&[5, 35, 70], &[2, 26, 130]], 0);
        assert_matches_oracles(&table);
        let schema = CubeSchema::from_table_schema(table.schema());
        let cube = MolapCube::build_from_table(schema, 1, &table, 0);
        assert_eq!(cube.aggregate_seq(&Region::full(cube.shape())).count, 0);
    }

    #[test]
    fn scatter_matches_oracles_in_one_dimension() {
        assert_matches_oracles(&lcg_table(&[&[4, 100]], 1000));
    }

    #[test]
    fn scatter_matches_oracles_in_four_dimensions() {
        assert_matches_oracles(&lcg_table(&[&[2, 6], &[3, 66], &[1, 5], &[4, 8]], 3000));
    }

    #[test]
    fn from_parts_rejects_unordered_or_out_of_range_offsets() {
        let cube = MolapCube::build_empty_with_chunks(schema(), 1, 4);
        let (schema, resolution, grid, _) = cube.parts();
        let cells = grid.chunk_cells(0) as u32;
        let sparse = |offsets: Vec<u32>| Chunk::Sparse {
            sums: vec![1.0; offsets.len()],
            counts: vec![1; offsets.len()],
            offsets,
        };
        let valid = |_: usize| sparse(vec![0, 3, cells - 1]);
        let build = |first: Chunk| {
            let chunks = std::iter::once(first)
                .chain((1..grid.chunk_count()).map(valid))
                .collect();
            MolapCube::from_parts(schema.clone(), resolution, grid.clone(), chunks)
        };
        assert!(build(valid(0)).is_ok());
        for (what, offsets) in [
            ("descending", vec![5, 2]),
            ("duplicated", vec![2, 2]),
            ("out of range", vec![1, cells]),
        ] {
            assert!(build(sparse(offsets)).is_err(), "{what} offsets accepted");
        }
    }

    #[test]
    fn for_each_cell_visits_only_nonempty() {
        let mut cube = MolapCube::build_empty(schema(), 0);
        cube.add(&[1, 2], 4.0, 2);
        cube.add(&[3, 0], 1.0, 1);
        let mut seen = Vec::new();
        cube.for_each_cell(|c, s, n| seen.push((c.to_vec(), s, n)));
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(seen, vec![(vec![1, 2], 4.0, 2), (vec![3, 0], 1.0, 1)]);
    }
}
