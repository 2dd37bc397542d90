//! The aggregator's on-disk blob format: framed, append-only records.
//!
//! Layout per step frame:
//!
//! ```text
//! [step u64][n_blocks u32]
//!   n_blocks × [rank u64][name_len u32][name][extent 6×i64][count u64][f64…]
//! ```

use std::io::{Read, Write};
use std::path::Path;

/// One rank's block inside an aggregated step.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockRecord {
    /// Producing rank.
    pub rank: usize,
    /// Array name.
    pub name: String,
    /// Local extent `[lo0, lo1, lo2, hi0, hi1, hi2]`.
    pub extent: [i64; 6],
    /// Field values.
    pub data: Vec<f64>,
}

/// Append one aggregated step to `path`.
pub fn append_step(path: &Path, step: u64, blocks: &[BlockRecord]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut buf =
        Vec::with_capacity(16 + blocks.iter().map(|b| b.data.len() * 8 + 80).sum::<usize>());
    buf.extend_from_slice(&step.to_le_bytes());
    buf.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for b in blocks {
        buf.extend_from_slice(&(b.rank as u64).to_le_bytes());
        buf.extend_from_slice(&(b.name.len() as u32).to_le_bytes());
        buf.extend_from_slice(b.name.as_bytes());
        for e in b.extent {
            buf.extend_from_slice(&e.to_le_bytes());
        }
        buf.extend_from_slice(&(b.data.len() as u64).to_le_bytes());
        for v in &b.data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    f.write_all(&buf)
}

fn corrupt() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, "corrupt glean blob")
}

/// Consume the next `N` bytes as a fixed array, or a typed corruption
/// error if the file ends first — no panicking conversions anywhere on
/// the decode path.
fn take_arr<const N: usize>(raw: &[u8], pos: &mut usize) -> std::io::Result<[u8; N]> {
    let arr = raw
        .get(*pos..pos.saturating_add(N))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(corrupt)?;
    *pos += N;
    Ok(arr)
}

/// Bytes of a block record besides its name and values: rank (`u64`),
/// name length (`u32`), extent (6 × `i64`) and element count (`u64`).
const BLOCK_HEADER: usize = 8 + 4 + 48 + 8;

/// Read every `(step, blocks)` frame back from an aggregator file. Every
/// count is checked against the bytes left in the file before anything
/// is allocated for it: a corrupt count is `InvalidData`, never an
/// allocation the file could not fill.
pub fn read_blob_file(path: &Path) -> std::io::Result<Vec<(u64, Vec<BlockRecord>)>> {
    let mut raw = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut raw)?;
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < raw.len() {
        let step = u64::from_le_bytes(take_arr(&raw, &mut pos)?);
        let n = u32::from_le_bytes(take_arr(&raw, &mut pos)?) as usize;
        if n > (raw.len() - pos) / BLOCK_HEADER {
            return Err(corrupt());
        }
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            let rank = u64::from_le_bytes(take_arr(&raw, &mut pos)?) as usize;
            let name_len = u32::from_le_bytes(take_arr(&raw, &mut pos)?) as usize;
            let name_bytes = raw
                .get(pos..pos.saturating_add(name_len))
                .ok_or_else(corrupt)?;
            pos += name_len;
            let name = String::from_utf8(name_bytes.to_vec()).map_err(|_| corrupt())?;
            let mut extent = [0i64; 6];
            for e in extent.iter_mut() {
                *e = i64::from_le_bytes(take_arr(&raw, &mut pos)?);
            }
            let count = u64::from_le_bytes(take_arr(&raw, &mut pos)?);
            if count > ((raw.len() - pos) / 8) as u64 {
                return Err(corrupt());
            }
            let mut data = Vec::with_capacity(count as usize);
            for _ in 0..count {
                data.push(f64::from_le_bytes(take_arr(&raw, &mut pos)?));
            }
            blocks.push(BlockRecord {
                rank,
                name,
                extent,
                data,
            });
        }
        out.push((step, blocks));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("glean_{}_{}", std::process::id(), name))
    }

    fn rec(rank: usize) -> BlockRecord {
        BlockRecord {
            rank,
            name: "data".to_string(),
            extent: [0, 0, 0, 3, 3, 3],
            data: (0..8).map(|i| (rank * 10 + i) as f64).collect(),
        }
    }

    #[test]
    fn roundtrip_multiple_steps() {
        let p = tmp("roundtrip.bin");
        let _ = std::fs::remove_file(&p);
        append_step(&p, 0, &[rec(0), rec(1)]).unwrap();
        append_step(&p, 1, &[rec(0)]).unwrap();
        let frames = read_blob_file(&p).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, 0);
        assert_eq!(frames[0].1, vec![rec(0), rec(1)]);
        assert_eq!(frames[1].1.len(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncated_file_is_an_error() {
        let p = tmp("trunc.bin");
        let _ = std::fs::remove_file(&p);
        append_step(&p, 0, &[rec(0)]).unwrap();
        let raw = std::fs::read(&p).unwrap();
        std::fs::write(&p, &raw[..raw.len() - 3]).unwrap();
        assert!(read_blob_file(&p).is_err());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn a_corrupt_count_is_invalid_data_not_an_allocation() {
        let p = tmp("count.bin");
        let _ = std::fs::remove_file(&p);
        append_step(&p, 0, &[rec(0)]).unwrap();
        let good = std::fs::read(&p).unwrap();
        // `rec` is named "data": the element count sits at bytes 76..84,
        // after step, block count, rank, name length, name and extent.
        assert_eq!(good[76..84], 8u64.to_le_bytes());
        let read_with = |at: usize, count: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + count.len()].copy_from_slice(count);
            std::fs::write(&p, &bad).unwrap();
            read_blob_file(&p).map_err(|e| e.kind())
        };
        let invalid = Err(std::io::ErrorKind::InvalidData);
        // An element count of 2^40 once aborted the process
        // ("memory allocation of 8796093022208 bytes failed").
        assert_eq!(read_with(76, &(1u64 << 40).to_le_bytes()), invalid);
        assert_eq!(read_with(76, &9u64.to_le_bytes()), invalid);
        // So did a block count of 2^32 - 1.
        assert_eq!(read_with(8, &u32::MAX.to_le_bytes()), invalid);
        assert_eq!(
            read_with(8, &1u32.to_le_bytes()),
            Ok(vec![(0, vec![rec(0)])])
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn empty_file_has_no_frames() {
        let p = tmp("empty.bin");
        std::fs::write(&p, b"").unwrap();
        assert!(read_blob_file(&p).unwrap().is_empty());
        std::fs::remove_file(&p).unwrap();
    }
}
