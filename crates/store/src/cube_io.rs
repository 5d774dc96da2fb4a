//! Cube persistence: schema + grid header, chunk payloads (dense chunks
//! as raw arrays, compressed chunks stay in chunk-offset form).

use crate::error::StoreError;
use crate::format::{ArtifactKind, Reader, Writer};
use crate::table_io::{put_dimensions, read_dimensions};
use holap_cube::{Chunk, ChunkGrid, CubeSchema, MolapCube};
use std::path::Path;

/// Reads the grid's three per-dimension arrays and checks that they cover
/// `shape` with chunks that tile it.
fn read_grid(r: &mut Reader, shape: &[u32]) -> Result<ChunkGrid, StoreError> {
    let grid = ChunkGrid {
        shape: r.u32_array()?,
        chunk_shape: r.u32_array()?,
        chunks_per_dim: r.u32_array()?,
    };
    let tiles = grid.shape == shape
        && grid.chunk_shape.len() == shape.len()
        && grid.chunks_per_dim.len() == shape.len()
        && (0..shape.len()).all(|d| {
            let side = grid.chunk_shape[d];
            side > 0 && grid.chunks_per_dim[d] == shape[d].div_ceil(side)
        });
    if !tiles {
        return Err(StoreError::Invalid(format!(
            "chunk grid {grid:?} does not tile shape {shape:?}"
        )));
    }
    Ok(grid)
}

const CHUNK_DENSE: u8 = 0;
const CHUNK_SPARSE: u8 = 1;

/// A cube file's writer with its header section (schema, resolution,
/// grid) written and closed.
fn header(schema: &CubeSchema, resolution: usize, grid: &ChunkGrid) -> Writer {
    let mut w = Writer::new(ArtifactKind::Cube);
    put_dimensions(&mut w, &schema.dimensions);
    w.put_u64(resolution as u64);
    w.put_u32_array(&grid.shape);
    w.put_u32_array(&grid.chunk_shape);
    w.put_u32_array(&grid.chunks_per_dim);
    w.end_section();
    w
}

/// Saves a cube.
pub fn save_cube(path: &Path, cube: &MolapCube) -> Result<(), StoreError> {
    let (schema, resolution, grid, chunks) = cube.parts();
    let mut w = header(schema, resolution, grid);
    w.put_u64(chunks.len() as u64);
    w.end_section(); // chunk count
    for chunk in chunks {
        put_chunk(&mut w, chunk);
    }
    w.finish(path)
}

/// Writes one chunk as its own section, so corruption names it.
fn put_chunk(w: &mut Writer, chunk: &Chunk) {
    match chunk {
        Chunk::Dense { sums, counts } => {
            w.put_u8(CHUNK_DENSE);
            w.put_f64_array(sums);
            w.put_u64_array(counts);
        }
        Chunk::Sparse {
            offsets,
            sums,
            counts,
        } => {
            w.put_u8(CHUNK_SPARSE);
            w.put_u32_array(offsets);
            w.put_f64_array(sums);
            w.put_u64_array(counts);
        }
    }
    w.end_section();
}

/// Loads a cube.
pub fn load_cube(path: &Path) -> Result<MolapCube, StoreError> {
    let mut r = Reader::open(path, ArtifactKind::Cube)?;
    let schema = CubeSchema {
        dimensions: read_dimensions(&mut r)?,
    };
    let resolution = usize::try_from(r.u64()?)
        .map_err(|_| StoreError::Invalid("resolution overflows usize".into()))?;
    let grid = read_grid(&mut r, &schema.shape_at(resolution))?;
    r.end_section()?;
    let n = r.u64()?;
    r.end_section()?;
    let expected = grid
        .chunks_per_dim
        .iter()
        .try_fold(1u64, |acc, &c| acc.checked_mul(u64::from(c)));
    if expected != Some(n) {
        return Err(StoreError::Invalid(format!(
            "file holds {n} chunks, grid {:?} expects another count",
            grid.chunks_per_dim
        )));
    }
    // Every chunk takes at least its tag byte.
    let n = r.fits(n, 1)?;
    let mut chunks = Vec::with_capacity(n);
    for i in 0..n {
        let tag = r.u8()?;
        let chunk = match tag {
            CHUNK_DENSE => {
                let sums = r.f64_array()?;
                let counts = r.u64_array()?;
                Chunk::Dense { sums, counts }
            }
            CHUNK_SPARSE => {
                let offsets = r.u32_array()?;
                let sums = r.f64_array()?;
                let counts = r.u64_array()?;
                Chunk::Sparse {
                    offsets,
                    sums,
                    counts,
                }
            }
            other => {
                return Err(StoreError::Invalid(format!(
                    "chunk {i} has unknown tag {other}"
                )))
            }
        };
        r.end_section()?;
        chunks.push(chunk);
    }
    r.finish()?;
    MolapCube::from_parts(schema, resolution, grid, chunks).map_err(StoreError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holap_cube::Region;
    use holap_table::TableSchema;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("holap-cube-{tag}-{}.holap", std::process::id()))
    }

    fn cube() -> MolapCube {
        let schema = CubeSchema::from_table_schema(
            &TableSchema::builder()
                .dimension("a", &[("l0", 4), ("l1", 16)])
                .dimension("b", &[("l0", 4), ("l1", 8)])
                .measure("m")
                .build(),
        );
        let mut cube = MolapCube::build_empty_with_chunks(schema, 1, 5);
        let mut x = 11u64;
        for _ in 0..60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            cube.add(
                &[(x >> 5) as u32 % 16, (x >> 13) as u32 % 8],
                (x % 50) as f64,
                1,
            );
        }
        cube
    }

    #[test]
    fn dense_roundtrip() {
        let c = cube();
        let path = temp("dense");
        save_cube(&path, &c).unwrap();
        let back = load_cube(&path).unwrap();
        assert_eq!(back, c);
        let full = Region::full(c.shape());
        assert_eq!(back.aggregate_seq(&full), c.aggregate_seq(&full));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_roundtrip() {
        let mut c = cube();
        assert!(c.compress() > 0, "sparse content compresses");
        let path = temp("sparse");
        save_cube(&path, &c).unwrap();
        let back = load_cube(&path).unwrap();
        assert_eq!(back, c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_chunk_count_rejected() {
        let c = cube();
        let (schema, resolution, grid, chunks) = c.parts();
        let path = temp("badcount");
        let mut w = header(schema, resolution, grid);
        w.put_u64((chunks.len() - 1) as u64); // lie about the count
        w.finish(&path).unwrap();
        assert!(matches!(load_cube(&path), Err(StoreError::Invalid(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_chunk_tag_rejected() {
        let schema = CubeSchema::from_table_schema(
            &TableSchema::builder()
                .dimension("a", &[("l", 2)])
                .measure("m")
                .build(),
        );
        let grid = ChunkGrid::new(vec![2], 64);
        let path = temp("badtag");
        let mut w = header(&schema, 0, &grid);
        w.put_u64(1);
        w.end_section();
        w.put_u8(9);
        w.finish(&path).unwrap();
        assert!(matches!(load_cube(&path), Err(StoreError::Invalid(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_files_fail_typed() {
        let path = temp("cut");
        let mut c = cube();
        c.compress();
        save_cube(&path, &c).unwrap();
        crate::format::assert_truncations_fail(&path, load_cube);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_counts_are_typed_errors() {
        let path = temp("overrun");
        let levels = |w: &mut Writer| {
            w.put_u64(1);
            w.put_str("a");
            w.put_u64(u64::MAX);
        };
        let c = cube();
        let (schema, resolution, grid, _) = c.parts();
        let mut w = header(schema, resolution, grid);
        w.put_u64(u64::MAX); // chunk count: disagrees with the grid
        w.finish(&path).unwrap();
        assert!(matches!(load_cube(&path), Err(StoreError::Invalid(_))));
        let mut w = Writer::new(ArtifactKind::Cube);
        levels(&mut w);
        w.finish(&path).unwrap();
        assert!(matches!(load_cube(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_cardinality_and_untiled_grids_are_invalid() {
        let path = temp("grid");
        let c = cube();
        let (schema, resolution, grid, _) = c.parts();
        let mut zero = schema.clone();
        zero.dimensions[1].levels[0].cardinality = 0;
        let mut untiled = grid.clone();
        untiled.chunks_per_dim[0] += 1;
        let mut short = grid.clone();
        short.chunk_shape.pop();
        for (s, g) in [(&zero, grid), (schema, &untiled), (schema, &short)] {
            let mut w = header(s, resolution, g);
            w.put_u64(0);
            w.finish(&path).unwrap();
            assert!(
                matches!(load_cube(&path), Err(StoreError::Invalid(_))),
                "{g:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unordered_or_out_of_range_sparse_offsets_are_invalid() {
        let path = temp("offsets");
        let mut c = cube();
        c.compress();
        let (schema, resolution, grid, chunks) = c.parts();
        let cells = grid.chunk_local_shape(0).iter().product::<u32>();
        for (what, offsets) in [
            ("descending", vec![4, 1]),
            ("duplicated", vec![3, 3]),
            ("out of range", vec![0, cells]),
        ] {
            // A well-formed file (valid section CRCs and digest) whose first
            // chunk carries the bad offsets.
            let mut w = header(schema, resolution, grid);
            w.put_u64(chunks.len() as u64);
            w.end_section();
            let bad = Chunk::Sparse {
                offsets,
                sums: vec![1.0, 2.0],
                counts: vec![1, 1],
            };
            for chunk in std::iter::once(&bad).chain(&chunks[1..]) {
                put_chunk(&mut w, chunk);
            }
            w.finish(&path).unwrap();
            assert!(
                matches!(load_cube(&path), Err(StoreError::Invalid(_))),
                "{what} offsets"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_files_get_a_version_error() {
        let path = temp("v3");
        std::fs::write(&path, crate::format::stamped(ArtifactKind::Cube, 3, b"{}")).unwrap();
        assert!(matches!(load_cube(&path), Err(StoreError::BadVersion(3))));
        std::fs::remove_file(&path).ok();
    }
}
