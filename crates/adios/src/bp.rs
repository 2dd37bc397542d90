//! BP-lite: a self-describing, block-decomposed binary data format.
//!
//! A [`BpStep`] holds one timestep's variables. Each [`BpVar`] is
//! self-describing: name, element type, global dimensions, this block's
//! offset and local dimensions, and the payload. Steps serialize to a
//! compact binary framing used both by the FlexPath transport and by
//! [`BpFile`] on disk.

use bytes::{Buf, BufMut};
use datamodel::ScalarType;
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes of the framing. `BPL2` added a per-variable scalar type
/// and leaf index, so multi-leaf ranks and non-f64 arrays (notably the
/// `vtkGhostType` u8 array) survive a staging round trip intact.
const MAGIC: &[u8; 4] = b"BPL2";

/// Errors from decoding or file I/O.
#[derive(Debug)]
pub enum BpError {
    /// Bad magic or structurally invalid bytes.
    Corrupt(&'static str),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl From<std::io::Error> for BpError {
    fn from(e: std::io::Error) -> Self {
        BpError::Io(e)
    }
}

impl std::fmt::Display for BpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpError::Corrupt(m) => write!(f, "corrupt BP data: {m}"),
            BpError::Io(e) => write!(f, "BP I/O error: {e}"),
        }
    }
}

impl std::error::Error for BpError {}

/// One block-decomposed variable.
#[derive(Clone, Debug, PartialEq)]
pub struct BpVar {
    /// Variable name.
    pub name: String,
    /// Global dimensions (points per axis).
    pub global_dims: [u64; 3],
    /// This block's offset in the global index space.
    pub offset: [u64; 3],
    /// This block's local dimensions.
    pub local_dims: [u64; 3],
    /// Row-major (k slowest) payload, `local_dims` sized. Values travel
    /// widened to f64 (exact for every supported scalar type); `dtype`
    /// records the element type to restore on reconstruction.
    pub data: Vec<f64>,
    /// Declared element type of the source array.
    pub dtype: ScalarType,
    /// Which leaf of the sender's (multiblock) mesh this block belongs
    /// to, so a rank with several leaves reconstructs into several
    /// blocks instead of collapsing into the first leaf's extent.
    pub leaf: u32,
}

impl BpVar {
    /// Validate and build. Defaults to an `f64` variable on leaf 0; use
    /// [`BpVar::with_dtype`] / [`BpVar::with_leaf`] to override.
    pub fn new(
        name: impl Into<String>,
        global_dims: [u64; 3],
        offset: [u64; 3],
        local_dims: [u64; 3],
        data: Vec<f64>,
    ) -> Self {
        let expect: u64 = local_dims.iter().product();
        assert_eq!(
            data.len() as u64,
            expect,
            "payload length {} != local dims product {}",
            data.len(),
            expect
        );
        for a in 0..3 {
            assert!(
                offset[a] + local_dims[a] <= global_dims[a],
                "block exceeds global dims on axis {a}"
            );
        }
        BpVar {
            name: name.into(),
            global_dims,
            offset,
            local_dims,
            data,
            dtype: ScalarType::F64,
            leaf: 0,
        }
    }

    /// Declare the element type of the source array.
    pub fn with_dtype(mut self, dtype: ScalarType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Assign the variable to a mesh leaf.
    pub fn with_leaf(mut self, leaf: u32) -> Self {
        self.leaf = leaf;
        self
    }

    /// Payload size in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 8
    }
}

fn dtype_code(t: ScalarType) -> u8 {
    match t {
        ScalarType::F32 => 0,
        ScalarType::F64 => 1,
        ScalarType::I32 => 2,
        ScalarType::I64 => 3,
        ScalarType::U8 => 4,
    }
}

fn dtype_from_code(code: u8) -> Option<ScalarType> {
    Some(match code {
        0 => ScalarType::F32,
        1 => ScalarType::F64,
        2 => ScalarType::I32,
        3 => ScalarType::I64,
        4 => ScalarType::U8,
        _ => return None,
    })
}

/// One timestep of self-describing data, plus scalar attributes.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BpStep {
    /// Timestep index.
    pub step: u64,
    /// Physical time.
    pub time: f64,
    /// Named scalar attributes (spacing, origin, …).
    pub attributes: Vec<(String, f64)>,
    /// Variables.
    pub vars: Vec<BpVar>,
}

impl BpStep {
    /// New empty step.
    pub fn new(step: u64, time: f64) -> Self {
        BpStep {
            step,
            time,
            attributes: Vec::new(),
            vars: Vec::new(),
        }
    }

    /// Attach an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if let Some(a) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            a.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Read an attribute.
    pub fn attr(&self, name: &str) -> Option<f64> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Find a variable by name.
    pub fn var(&self, name: &str) -> Option<&BpVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Total payload bytes across variables.
    pub fn payload_bytes(&self) -> usize {
        self.vars.iter().map(BpVar::payload_bytes).sum()
    }

    /// Exact size of the encoded framing in bytes.
    pub fn encoded_len(&self) -> usize {
        let mut n = 4 + 8 + 8 + 4; // magic, step, time, attr count
        for (name, _) in &self.attributes {
            n += 4 + name.len() + 8;
        }
        n += 4; // var count
        for v in &self.vars {
            n += 4 + v.name.len() + 1 + 4 + 9 * 8 + 8 + v.data.len() * 8;
        }
        n
    }

    /// Serialize to the BP-lite framing — the marshaling copy the
    /// FlexPath transport pays (not zero-copy, per §4.1.4). `out` is
    /// cleared and refilled with exactly [`BpStep::encoded_len`] bytes;
    /// a caller that keeps one buffer across steps pays no allocation
    /// once its capacity has warmed up to the steady-state step size.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve_exact(self.encoded_len());
        out.put_slice(MAGIC);
        out.put_u64_le(self.step);
        out.put_f64_le(self.time);
        out.put_u32_le(self.attributes.len() as u32);
        for (name, value) in &self.attributes {
            put_string(out, name);
            out.put_f64_le(*value);
        }
        out.put_u32_le(self.vars.len() as u32);
        for v in &self.vars {
            put_string(out, &v.name);
            out.put_u8(dtype_code(v.dtype));
            out.put_u32_le(v.leaf);
            for d in v.global_dims {
                out.put_u64_le(d);
            }
            for d in v.offset {
                out.put_u64_le(d);
            }
            for d in v.local_dims {
                out.put_u64_le(d);
            }
            out.put_u64_le(v.data.len() as u64);
            for &x in &v.data {
                out.put_f64_le(x);
            }
        }
    }

    /// Decode from the framing.
    pub fn decode(mut buf: &[u8]) -> Result<BpStep, BpError> {
        if buf.len() < 4 || &buf[..4] != MAGIC {
            return Err(BpError::Corrupt("bad magic"));
        }
        buf.advance(4);
        if buf.remaining() < 16 {
            return Err(BpError::Corrupt("truncated header"));
        }
        let step = buf.get_u64_le();
        let time = buf.get_f64_le();
        if buf.remaining() < 4 {
            return Err(BpError::Corrupt("truncated attr count"));
        }
        let nattrs = buf.get_u32_le() as usize;
        let mut attributes = Vec::with_capacity(nattrs.min(1024));
        for _ in 0..nattrs {
            let name = get_string(&mut buf)?;
            if buf.remaining() < 8 {
                return Err(BpError::Corrupt("truncated attr value"));
            }
            attributes.push((name, buf.get_f64_le()));
        }
        if buf.remaining() < 4 {
            return Err(BpError::Corrupt("truncated var count"));
        }
        let nvars = buf.get_u32_le() as usize;
        let mut vars = Vec::with_capacity(nvars.min(1024));
        for _ in 0..nvars {
            let name = get_string(&mut buf)?;
            if buf.remaining() < 1 + 4 + 9 * 8 + 8 {
                return Err(BpError::Corrupt("truncated var header"));
            }
            let dtype =
                dtype_from_code(buf.get_u8()).ok_or(BpError::Corrupt("unknown scalar type"))?;
            let leaf = buf.get_u32_le();
            let mut dims = [[0u64; 3]; 3];
            for group in dims.iter_mut() {
                for d in group.iter_mut() {
                    *d = buf.get_u64_le();
                }
            }
            let n = buf.get_u64_le() as usize;
            if buf.remaining() < n * 8 {
                return Err(BpError::Corrupt("truncated payload"));
            }
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                data.push(buf.get_f64_le());
            }
            let expect: u64 = dims[2].iter().product();
            if n as u64 != expect {
                return Err(BpError::Corrupt("dims/payload mismatch"));
            }
            vars.push(BpVar {
                name,
                global_dims: dims[0],
                offset: dims[1],
                local_dims: dims[2],
                data,
                dtype,
                leaf,
            });
        }
        Ok(BpStep {
            step,
            time,
            attributes,
            vars,
        })
    }
}

fn put_string(b: &mut Vec<u8>, s: &str) {
    b.put_u32_le(s.len() as u32);
    b.put_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, BpError> {
    if buf.remaining() < 4 {
        return Err(BpError::Corrupt("truncated string length"));
    }
    let n = buf.get_u32_le() as usize;
    if n > 1 << 20 || buf.remaining() < n {
        return Err(BpError::Corrupt("truncated string"));
    }
    let s = String::from_utf8(buf[..n].to_vec()).map_err(|_| BpError::Corrupt("bad utf8"))?;
    buf.advance(n);
    Ok(s)
}

/// An append-only `.bp` file of framed steps: `[u64 length][payload]…`.
pub struct BpFile;

impl BpFile {
    /// Append one step.
    pub fn append(path: &Path, step: &BpStep) -> Result<(), BpError> {
        let mut bytes = Vec::new();
        step.encode_into(&mut bytes);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(&(bytes.len() as u64).to_le_bytes())?;
        f.write_all(&bytes)?;
        Ok(())
    }

    /// Read every step back.
    pub fn read_all(path: &Path) -> Result<Vec<BpStep>, BpError> {
        let mut f = std::fs::File::open(path)?;
        let mut raw = Vec::new();
        f.read_to_end(&mut raw)?;
        let mut steps = Vec::new();
        let mut pos = 0usize;
        while pos < raw.len() {
            let Some(len8) = raw
                .get(pos..pos + 8)
                .and_then(|s| <[u8; 8]>::try_from(s).ok())
            else {
                return Err(BpError::Corrupt("truncated frame length"));
            };
            let len = u64::from_le_bytes(len8) as usize;
            pos += 8;
            if pos + len > raw.len() {
                return Err(BpError::Corrupt("truncated frame"));
            }
            steps.push(BpStep::decode(&raw[pos..pos + len])?);
            pos += len;
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(s: &BpStep) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode_into(&mut out);
        out
    }

    fn sample() -> BpStep {
        let mut s = BpStep::new(7, 0.35);
        s.set_attr("spacing_x", 0.25);
        s.set_attr("origin_x", -1.0);
        s.vars.push(BpVar::new(
            "data",
            [8, 8, 8],
            [4, 0, 0],
            [4, 8, 8],
            (0..256).map(|i| i as f64 * 0.5).collect(),
        ));
        s.vars.push(BpVar::new(
            "rho",
            [8, 8, 8],
            [0, 0, 0],
            [1, 1, 1],
            vec![9.0],
        ));
        s
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let back = BpStep::decode(&encoded(&s)).expect("decode");
        assert_eq!(back, s);
    }

    #[test]
    fn encode_is_exactly_sized_and_reuses_capacity() {
        let s = sample();
        let mut arena = Vec::new();
        s.encode_into(&mut arena);
        assert_eq!(s.encoded_len(), arena.len(), "exact size accounting");
        let reference = arena.clone();
        // Warm buffer: re-encoding must reuse the allocation, not grow
        // or replace it.
        let ptr = arena.as_ptr();
        let cap = arena.capacity();
        for _ in 0..3 {
            s.encode_into(&mut arena);
            assert_eq!(arena.as_ptr(), ptr, "warm buffer must not reallocate");
            assert_eq!(arena.capacity(), cap);
            assert_eq!(arena, reference, "encoding is byte-stable");
        }
        let back = BpStep::decode(&arena).expect("decode from warm buffer");
        assert_eq!(back, s);
    }

    #[test]
    fn attributes_and_lookup() {
        let s = sample();
        assert_eq!(s.attr("spacing_x"), Some(0.25));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.var("rho").unwrap().data, vec![9.0]);
        assert!(s.var("nope").is_none());
        assert_eq!(s.payload_bytes(), 257 * 8);
    }

    #[test]
    fn dtype_and_leaf_survive_roundtrip() {
        let mut s = BpStep::new(1, 0.1);
        s.vars.push(
            BpVar::new(
                "vtkGhostType",
                [4, 1, 1],
                [0, 0, 0],
                [4, 1, 1],
                vec![0.0, 0.0, 1.0, 1.0],
            )
            .with_dtype(ScalarType::U8)
            .with_leaf(3),
        );
        let back = BpStep::decode(&encoded(&s)).expect("decode");
        assert_eq!(back.vars[0].dtype, ScalarType::U8);
        assert_eq!(back.vars[0].leaf, 3);
        assert_eq!(back, s);
    }

    #[test]
    fn attr_overwrite() {
        let mut s = BpStep::new(0, 0.0);
        s.set_attr("a", 1.0);
        s.set_attr("a", 2.0);
        assert_eq!(s.attr("a"), Some(2.0));
        assert_eq!(s.attributes.len(), 1);
    }

    #[test]
    fn corrupt_data_rejected() {
        let s = sample();
        let bytes = encoded(&s);
        assert!(matches!(
            BpStep::decode(&bytes[..10]),
            Err(BpError::Corrupt(_))
        ));
        assert!(matches!(BpStep::decode(b"NOPE"), Err(BpError::Corrupt(_))));
        let mut bad = bytes.clone();
        bad.truncate(bad.len() - 4);
        assert!(BpStep::decode(&bad).is_err());
    }

    #[test]
    fn file_append_and_read() {
        let path = std::env::temp_dir().join(format!("bp_test_{}.bp", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let a = sample();
        let mut b = sample();
        b.step = 8;
        BpFile::append(&path, &a).unwrap();
        BpFile::append(&path, &b).unwrap();
        let steps = BpFile::read_all(&path).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0], a);
        assert_eq!(steps[1].step, 8);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn wrong_payload_size_panics() {
        let _ = BpVar::new("x", [4, 4, 4], [0, 0, 0], [2, 2, 2], vec![0.0; 9]);
    }

    #[test]
    #[should_panic(expected = "exceeds global dims")]
    fn block_outside_global_panics() {
        let _ = BpVar::new("x", [4, 4, 4], [3, 0, 0], [2, 4, 4], vec![0.0; 32]);
    }
}
