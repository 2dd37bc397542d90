//! File-per-rank structured-grid I/O with a root manifest — the
//! "multi-file VTK I/O" configuration of Table 1.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use datamodel::Extent;

const MAGIC: &[u8; 4] = b"MVTK";

/// I/O and format errors.
#[derive(Debug)]
pub enum VtkIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid piece or manifest.
    Corrupt(&'static str),
}

impl From<std::io::Error> for VtkIoError {
    fn from(e: std::io::Error) -> Self {
        VtkIoError::Io(e)
    }
}

impl std::fmt::Display for VtkIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VtkIoError::Io(e) => write!(f, "vtkio: {e}"),
            VtkIoError::Corrupt(m) => write!(f, "vtkio: corrupt file: {m}"),
        }
    }
}

impl std::error::Error for VtkIoError {}

/// One rank's block of one timestep.
#[derive(Clone, Debug, PartialEq)]
pub struct Piece {
    /// Local point extent.
    pub extent: Extent,
    /// Global point extent.
    pub global: Extent,
    /// Grid spacing.
    pub spacing: [f64; 3],
    /// Named scalar point fields.
    pub arrays: Vec<(String, Vec<f64>)>,
}

/// Piece file name for `(step, rank)`.
pub fn piece_path(dir: &Path, step: u64, rank: usize) -> PathBuf {
    dir.join(format!("step{step:05}_r{rank:06}.mvtk"))
}

/// Manifest file name for a step.
pub fn manifest_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("step{step:05}.pmvtk"))
}

/// Write one rank's piece file. Returns bytes written.
pub fn write_piece(dir: &Path, step: u64, rank: usize, piece: &Piece) -> Result<u64, VtkIoError> {
    for (name, data) in &piece.arrays {
        if data.len() != piece.extent.num_points() {
            return Err(VtkIoError::Corrupt(Box::leak(
                format!("array '{name}' not sized to extent").into_boxed_str(),
            )));
        }
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    for e in [&piece.extent, &piece.global] {
        for v in e.lo.iter().chain(e.hi.iter()) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    for s in piece.spacing {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    buf.extend_from_slice(&(piece.arrays.len() as u32).to_le_bytes());
    for (name, data) in &piece.arrays {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
        for v in data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut f = std::fs::File::create(piece_path(dir, step, rank))?;
    f.write_all(&buf)?;
    Ok(buf.len() as u64)
}

/// Consume the next `N` bytes of `raw` as a fixed array, or
/// `Corrupt("truncated")` if the file ends first: a read that cannot
/// panic.
fn take_arr<const N: usize>(raw: &[u8], pos: &mut usize) -> Result<[u8; N], VtkIoError> {
    let arr = raw
        .get(*pos..)
        .and_then(<[u8]>::first_chunk::<N>)
        .ok_or(VtkIoError::Corrupt("truncated"))?;
    *pos += N;
    Ok(*arr)
}

/// Consume the next `n` bytes of `raw`, or `Corrupt("truncated")`.
fn take<'a>(raw: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], VtkIoError> {
    let bytes = raw
        .get(*pos..)
        .and_then(|rest| rest.get(..n))
        .ok_or(VtkIoError::Corrupt("truncated"))?;
    *pos += n;
    Ok(bytes)
}

/// Bytes of an array entry besides its name and values: the name
/// length (`u32`) and the element count (`u64`).
const ARRAY_HEADER: usize = 4 + 8;

/// Read a piece file back. Every count is checked against the bytes
/// left in the file before anything is allocated for it, so a corrupt
/// count is `Corrupt("truncated")`, never an allocation the file could
/// not fill.
pub fn read_piece(dir: &Path, step: u64, rank: usize) -> Result<Piece, VtkIoError> {
    let mut raw = Vec::new();
    std::fs::File::open(piece_path(dir, step, rank))?.read_to_end(&mut raw)?;
    let raw = &raw[..];
    let mut pos = 0usize;
    if take_arr::<4>(raw, &mut pos)? != *MAGIC {
        return Err(VtkIoError::Corrupt("bad magic"));
    }
    let mut exts = [[0i64; 6]; 2];
    for e in exts.iter_mut() {
        for v in e.iter_mut() {
            *v = i64::from_le_bytes(take_arr(raw, &mut pos)?);
        }
    }
    let mut spacing = [0.0f64; 3];
    for s in spacing.iter_mut() {
        *s = f64::from_le_bytes(take_arr(raw, &mut pos)?);
    }
    let narrays = u32::from_le_bytes(take_arr(raw, &mut pos)?) as usize;
    if narrays > (raw.len() - pos) / ARRAY_HEADER {
        return Err(VtkIoError::Corrupt("truncated"));
    }
    let mut arrays = Vec::with_capacity(narrays);
    for _ in 0..narrays {
        let nl = u32::from_le_bytes(take_arr(raw, &mut pos)?) as usize;
        let name = String::from_utf8(take(raw, &mut pos, nl)?.to_vec())
            .map_err(|_| VtkIoError::Corrupt("bad name"))?;
        let count = u64::from_le_bytes(take_arr(raw, &mut pos)?);
        // An element count the bytes left cannot hold fails here.
        let len = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .ok_or(VtkIoError::Corrupt("truncated"))?;
        let data = take(raw, &mut pos, len)?
            .as_chunks::<8>()
            .0
            .iter()
            .map(|&v| f64::from_le_bytes(v))
            .collect();
        arrays.push((name, data));
    }
    let ext = Extent::new(
        [exts[0][0], exts[0][1], exts[0][2]],
        [exts[0][3], exts[0][4], exts[0][5]],
    );
    let global = Extent::new(
        [exts[1][0], exts[1][1], exts[1][2]],
        [exts[1][3], exts[1][4], exts[1][5]],
    );
    Ok(Piece {
        extent: ext,
        global,
        spacing,
        arrays,
    })
}

/// The root-written manifest tying pieces together (the `.pvti`
/// analogue): piece count and extents.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Timestep.
    pub step: u64,
    /// Number of pieces.
    pub pieces: usize,
    /// Per-piece local extents.
    pub extents: Vec<Extent>,
}

/// Write the manifest (rank 0 only, as in the paper's setup).
pub fn write_manifest(dir: &Path, step: u64, extents: &[Extent]) -> Result<(), VtkIoError> {
    let mut text = format!("pieces {}\n", extents.len());
    for e in extents {
        text.push_str(&format!(
            "piece {} {} {} {} {} {}\n",
            e.lo[0], e.lo[1], e.lo[2], e.hi[0], e.hi[1], e.hi[2]
        ));
    }
    std::fs::write(manifest_path(dir, step), text)?;
    Ok(())
}

/// Read a manifest back.
pub fn read_manifest(dir: &Path, step: u64) -> Result<Manifest, VtkIoError> {
    let text = std::fs::read_to_string(manifest_path(dir, step))?;
    let mut lines = text.lines();
    let head = lines.next().ok_or(VtkIoError::Corrupt("empty manifest"))?;
    let pieces: usize = head
        .strip_prefix("pieces ")
        .and_then(|s| s.parse().ok())
        .ok_or(VtkIoError::Corrupt("bad manifest header"))?;
    let mut extents = Vec::with_capacity(pieces);
    for line in lines {
        let nums: Vec<i64> = line
            .strip_prefix("piece ")
            .ok_or(VtkIoError::Corrupt("bad piece line"))?
            .split_whitespace()
            .map(|w| w.parse().map_err(|_| VtkIoError::Corrupt("bad number")))
            .collect::<Result<_, _>>()?;
        if nums.len() != 6 {
            return Err(VtkIoError::Corrupt("piece needs 6 numbers"));
        }
        extents.push(Extent::new(
            [nums[0], nums[1], nums[2]],
            [nums[3], nums[4], nums[5]],
        ));
    }
    if extents.len() != pieces {
        return Err(VtkIoError::Corrupt("piece count mismatch"));
    }
    Ok(Manifest {
        step,
        pieces,
        extents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vtkio_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_piece() -> Piece {
        let extent = Extent::new([2, 0, 0], [4, 2, 2]);
        Piece {
            extent,
            global: Extent::whole([8, 3, 3]),
            spacing: [0.5, 1.0, 2.0],
            arrays: vec![(
                "data".to_string(),
                (0..extent.num_points()).map(|i| i as f64).collect(),
            )],
        }
    }

    #[test]
    fn piece_roundtrip() {
        let dir = tmpdir("roundtrip");
        let p = sample_piece();
        let bytes = write_piece(&dir, 3, 7, &p).unwrap();
        assert!(bytes as usize > p.extent.num_points() * 8);
        let back = read_piece(&dir, 3, 7).unwrap();
        assert_eq!(back, p);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_count_is_truncated_not_an_allocation() {
        let dir = tmpdir("count");
        let p = sample_piece();
        write_piece(&dir, 0, 0, &p).unwrap();
        let path = piece_path(&dir, 0, 0);
        let good = std::fs::read(&path).unwrap();
        // After magic, two extents and the spacing: the array count at
        // 124, then the one array's name length, "data" and its element
        // count at 136.
        assert_eq!(good[136..144], (p.arrays[0].1.len() as u64).to_le_bytes());
        let read_with = |at: usize, count: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + count.len()].copy_from_slice(count);
            std::fs::write(&path, &bad).unwrap();
            read_piece(&dir, 0, 0)
        };
        let truncated =
            |r: Result<Piece, VtkIoError>| matches!(r, Err(VtkIoError::Corrupt("truncated")));
        // An element count of 2^40 once aborted the process ("memory
        // allocation of 8796093022208 bytes failed"), and one element
        // too many must fail as well.
        assert!(truncated(read_with(136, &(1u64 << 40).to_le_bytes())));
        assert!(truncated(read_with(
            136,
            &(p.arrays[0].1.len() as u64 + 1).to_le_bytes()
        )));
        // An array count of 2^32 - 1 once asked for 206 158 430 160 B.
        assert!(truncated(read_with(124, &u32::MAX.to_le_bytes())));
        assert!(truncated(read_with(124, &2u32.to_le_bytes())));
        assert_eq!(read_with(124, &1u32.to_le_bytes()).unwrap(), p);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_roundtrip() {
        let dir = tmpdir("manifest");
        let extents = vec![
            Extent::new([0, 0, 0], [4, 2, 2]),
            Extent::new([4, 0, 0], [7, 2, 2]),
        ];
        write_manifest(&dir, 5, &extents).unwrap();
        let m = read_manifest(&dir, 5).unwrap();
        assert_eq!(m.pieces, 2);
        assert_eq!(m.extents, extents);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_sized_array_rejected() {
        let dir = tmpdir("badsize");
        let mut p = sample_piece();
        p.arrays[0].1.pop();
        assert!(write_piece(&dir, 0, 0, &p).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_piece_detected() {
        let dir = tmpdir("corrupt");
        write_piece(&dir, 0, 0, &sample_piece()).unwrap();
        let path = piece_path(&dir, 0, 0);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        assert!(read_piece(&dir, 0, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = tmpdir("missing");
        assert!(matches!(read_piece(&dir, 9, 9), Err(VtkIoError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
