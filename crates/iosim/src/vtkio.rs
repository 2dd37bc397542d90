//! File-per-rank structured-grid I/O with a root manifest — the
//! "multi-file VTK I/O" configuration of Table 1.
//!
//! A piece is one rank's block of one timestep: a BP-lite step
//! ([`adios::BpStep`], marshalled by [`adios::staging::marshal`]) that
//! [`adios::BpFile::append`] writes to its own file at [`piece_path`],
//! so a piece carries what in transit ships — every array of the
//! block, ghost flags included, and its geometry — and reads back
//! through [`adios::BpFile::read_all`]. The file is appended to: a
//! writer reusing a directory removes the old piece first.

use std::path::{Path, PathBuf};

use datamodel::Extent;

/// Piece file name for `(step, rank)`.
pub fn piece_path(dir: &Path, step: u64, rank: usize) -> PathBuf {
    dir.join(format!("step{step:05}_r{rank:06}.bp"))
}

/// Manifest file name for a step.
pub(crate) fn manifest_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("step{step:05}.pmvtk"))
}

/// Write the manifest tying a step's pieces together (the `.pvti`
/// analogue: piece count and extents), rank 0 only, as in the paper's
/// setup.
pub fn write_manifest(dir: &Path, step: u64, extents: &[Extent]) -> std::io::Result<()> {
    let mut text = format!("pieces {}\n", extents.len());
    for e in extents {
        text.push_str(&format!(
            "piece {} {} {} {} {} {}\n",
            e.lo[0], e.lo[1], e.lo[2], e.hi[0], e.hi[1], e.hi[2]
        ));
    }
    std::fs::write(manifest_path(dir, step), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_lists_every_piece() {
        let dir = std::env::temp_dir().join(format!("vtkio_{}_manifest", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let extents = vec![
            Extent::new([0, 0, 0], [4, 2, 2]),
            Extent::new([4, 0, 0], [7, 2, 2]),
        ];
        write_manifest(&dir, 5, &extents).unwrap();
        let text = std::fs::read_to_string(manifest_path(&dir, 5)).unwrap();
        assert_eq!(text, "pieces 2\npiece 0 0 0 4 2 2\npiece 4 0 0 7 2 2\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
