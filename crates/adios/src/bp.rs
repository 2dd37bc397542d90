//! BP-lite: a self-describing, block-decomposed binary data format.
//!
//! A [`BpStep`] holds one timestep's variables. Each [`BpVar`] is
//! self-describing: name, global dimensions, this block's offset and
//! local dimensions, and a [`Payload`] in the variable's own scalar
//! type — the payload *is* the element type, so nothing is converted on
//! either side and a `u8` ghost array costs one byte a point. Steps
//! serialize to a compact binary framing (`BPL3`, DESIGN "One encoder")
//! that [`BpFile`] appends to disk. The FlexPath transport ships the same
//! framing without its payload sections, and the payloads beside it as
//! the buffers the writer marshalled into.
//!
//! A payload is an `Arc`: the writer's step can share the producer's
//! buffer while it is marshalled, and on the endpoint the buffer the
//! writer filled is the one the analysis mesh reads.

use datamodel::{AccessError, DataArray, MemorySpace, ScalarType};
use minimpi::Wire;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes of the framing. `BPL3` ships each payload in its own
/// scalar type (`count × size_of(type)` bytes, little-endian).
const MAGIC: &[u8; 4] = b"BPL3";

/// Bytes of a variable's header after its name: type code, leaf, three
/// dimension triples, element count.
const VAR_HEADER: usize = 1 + 4 + 9 * 8 + 8;

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

/// Everything that depends on a payload's scalar type, from one table
/// of `(variant, element type, wire code)`.
macro_rules! payload_types {
    ($(($variant:ident, $t:ty, $code:literal)),*) => {
        /// A variable's values, row-major (k slowest), in their own
        /// scalar type. Cloning bumps a reference count.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Payload {
            $($variant(Arc<Vec<$t>>)),*
        }

        /// A payload ships its values, in the buffer its `Arc` shares.
        impl Wire for Payload {
            fn heap_bytes(&self) -> usize {
                match self {
                    $(Payload::$variant(v) => v.heap_bytes()),*
                }
            }
        }

        $(
            impl From<Vec<$t>> for Payload {
                fn from(values: Vec<$t>) -> Self {
                    Payload::$variant(Arc::new(values))
                }
            }
        )*

        impl Payload {
            /// The element type.
            pub fn scalar_type(&self) -> ScalarType {
                match self {
                    $(Payload::$variant(_) => ScalarType::$variant),*
                }
            }

            /// Number of elements.
            pub(crate) fn len(&self) -> usize {
                match self {
                    $(Payload::$variant(v) => v.len()),*
                }
            }

            /// A named one-component array sharing this buffer.
            pub(crate) fn to_array(&self, name: &str) -> DataArray {
                match self {
                    $(Payload::$variant(v) => DataArray::shared(name, 1, Arc::clone(v))),*
                }
            }

            /// The payload of a single-buffer array read from `exec`:
            /// shares a zero-copy array's buffer, copies an owned one.
            pub(crate) fn of_array(arr: &DataArray, exec: MemorySpace) -> Result<Self, AccessError> {
                Ok(match arr.scalar_type() {
                    $(ScalarType::$variant => Payload::$variant(arr.share_in::<$t>(exec)?)),*
                })
            }

            /// Stop sharing: copy the buffer unless this is its only holder.
            pub(crate) fn detach(&mut self) {
                match self {
                    $(Payload::$variant(v) => {
                        Arc::make_mut(v);
                    })*
                }
            }

            fn code(&self) -> u8 {
                match self {
                    $(Payload::$variant(_) => $code),*
                }
            }

            /// Append the elements, little-endian: one bulk move.
            fn put_le(&self, out: &mut Vec<u8>) {
                match self {
                    $(Payload::$variant(v) => out.extend(v.iter().flat_map(|x| x.to_le_bytes()))),*
                }
            }

            /// Take `count` little-endian elements of type `code` off the
            /// front of `buf` into a fresh buffer: one bulk move.
            fn get_le(code: u8, count: u64, buf: &mut &[u8]) -> Result<Self, BpError> {
                match code {
                    $($code => {
                        let raw = take(buf, count, std::mem::size_of::<$t>())?;
                        let values = raw.as_chunks().0.iter().map(|c| <$t>::from_le_bytes(*c));
                        Ok(Payload::$variant(Arc::new(values.collect())))
                    })*
                    _ => Err(BpError::Corrupt("unknown scalar type")),
                }
            }

            /// Copy the values into `block` — the staging writer's
            /// marshaling copy — reusing its buffer when it has this type
            /// and nothing else holds it (`Arc::get_mut`); otherwise
            /// `block` becomes a fresh buffer.
            pub(crate) fn marshal_into(&self, block: &mut Self) {
                match (self, &mut *block) {
                    $((Payload::$variant(values), Payload::$variant(kept)) => {
                        if let Some(buffer) = Arc::get_mut(kept) {
                            buffer.clear();
                            buffer.extend_from_slice(values);
                            return;
                        }
                    })*
                    _ => {}
                }
                *block = self.copied();
            }

            /// The values in a fresh buffer of their own.
            pub(crate) fn copied(&self) -> Self {
                match self {
                    $(Payload::$variant(v) => Payload::$variant(Arc::new(v.to_vec()))),*
                }
            }
        }
    };
}

payload_types!(
    (F32, f32, 0),
    (F64, f64, 1),
    (I32, i32, 2),
    (I64, i64, 3),
    (U8, u8, 4)
);

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
    /// The values, `local_dims` sized.
    pub data: Payload,
    /// Which leaf of the sender's (multiblock) mesh this block belongs
    /// to, so a rank with several leaves reconstructs into several
    /// blocks instead of collapsing into the first leaf's extent.
    pub leaf: u32,
}

impl Wire for BpVar {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes() + self.data.heap_bytes()
    }
}

impl BpVar {
    /// Validate and build a variable on leaf 0 (see
    /// [`BpVar::with_leaf`]); a `Vec` of any supported scalar type
    /// converts into the payload.
    pub fn new(
        name: impl Into<String>,
        global_dims: [u64; 3],
        offset: [u64; 3],
        local_dims: [u64; 3],
        data: impl Into<Payload>,
    ) -> Self {
        let data = data.into();
        let expect: u64 = local_dims.iter().product();
        assert_eq!(data.len() as u64, expect, "payload length != dims product");
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
            leaf: 0,
        }
    }

    /// Assign the variable to a mesh leaf.
    pub fn with_leaf(mut self, leaf: u32) -> Self {
        self.leaf = leaf;
        self
    }

    /// Payload size in bytes, as shipped.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * self.data.scalar_type().size_of()
    }
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

/// A step GLEAN moves to its aggregator ships its attributes and
/// variables.
impl Wire for BpStep {
    fn heap_bytes(&self) -> usize {
        self.attributes.heap_bytes() + self.vars.heap_bytes()
    }
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
            n += 4 + v.name.len() + VAR_HEADER + v.payload_bytes();
        }
        n
    }

    /// Serialize to the BP-lite framing. `out` is cleared and refilled
    /// with exactly [`BpStep::encoded_len`] bytes; a caller that keeps
    /// one buffer across steps pays no allocation once its capacity has
    /// warmed up to the steady-state step size.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_framing(out, true);
    }

    /// The framing without its payload sections — every variable's
    /// header, element count included, and none of its values: what
    /// travels on the staging wire beside the payload blocks (see
    /// [`BpStep::adopt`]).
    pub(crate) fn encode_meta(&self, out: &mut Vec<u8>) {
        self.encode_framing(out, false);
    }

    /// The one encoder body; `payloads` says whether each variable's
    /// values follow its header inline.
    fn encode_framing(&self, out: &mut Vec<u8>, payloads: bool) {
        out.clear();
        let inline = if payloads { 0 } else { self.payload_bytes() };
        out.reserve_exact(self.encoded_len() - inline);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&self.time.to_le_bytes());
        out.extend_from_slice(&(self.attributes.len() as u32).to_le_bytes());
        for (name, value) in &self.attributes {
            put_string(out, name);
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&(self.vars.len() as u32).to_le_bytes());
        for v in &self.vars {
            put_string(out, &v.name);
            out.push(v.data.code());
            out.extend_from_slice(&v.leaf.to_le_bytes());
            for d in v.global_dims.iter().chain(&v.offset).chain(&v.local_dims) {
                out.extend_from_slice(&d.to_le_bytes());
            }
            out.extend_from_slice(&(v.data.len() as u64).to_le_bytes());
            if payloads {
                v.data.put_le(out);
            }
        }
    }

    /// Decode from the framing. The bytes come from outside the
    /// program: every read and every count is checked against what is
    /// left of `buf` before anything is allocated for it, and any
    /// inconsistency is a [`BpError::Corrupt`].
    pub fn decode(buf: &[u8]) -> Result<BpStep, BpError> {
        BpStep::parse(buf, Payload::get_le)
    }

    /// Decode a framing whose payload sections travel as `blocks` (see
    /// [`BpStep::encode_meta`]): block `i` becomes variable `i`'s
    /// payload as it is, with no copy, once its type code and element
    /// count agree with the variable's header. A block that disagrees,
    /// or a block count other than the variable count, is
    /// [`BpError::Corrupt`]. The blocks are drained either way, and the
    /// emptied list keeps its allocation, to carry payloads again.
    pub(crate) fn adopt(meta: &[u8], blocks: &mut Vec<Payload>) -> Result<BpStep, BpError> {
        let mut blocks = blocks.drain(..);
        let step = BpStep::parse(meta, |code, count, _| {
            let block = blocks
                .next()
                .ok_or(BpError::Corrupt("fewer payload blocks than variables"))?;
            if block.code() != code || block.len() as u64 != count {
                return Err(BpError::Corrupt("payload block disagrees with its header"));
            }
            Ok(block)
        })?;
        if blocks.next().is_some() {
            return Err(BpError::Corrupt("more payload blocks than variables"));
        }
        Ok(step)
    }

    /// The one decoder body: `payload(code, count, rest)` yields each
    /// variable's values once its header has been read and checked —
    /// inline off the front of `rest`, or from elsewhere.
    fn parse(
        mut buf: &[u8],
        mut payload: impl FnMut(u8, u64, &mut &[u8]) -> Result<Payload, BpError>,
    ) -> Result<BpStep, BpError> {
        let buf = &mut buf;
        if get(buf).ok() != Some(*MAGIC) {
            return Err(BpError::Corrupt("bad magic"));
        }
        let step = u64::from_le_bytes(get(buf)?);
        let time = f64::from_le_bytes(get(buf)?);
        // An entry takes at least its fixed-size fields, which bounds a
        // count by the bytes that remain.
        let nattrs = u32::from_le_bytes(get(buf)?) as usize;
        if nattrs > buf.len() / (4 + 8) {
            return Err(BpError::Corrupt("attribute count exceeds frame"));
        }
        let mut attributes = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            attributes.push((get_string(buf)?, f64::from_le_bytes(get(buf)?)));
        }
        let nvars = u32::from_le_bytes(get(buf)?) as usize;
        if nvars > buf.len() / (4 + VAR_HEADER) {
            return Err(BpError::Corrupt("variable count exceeds frame"));
        }
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let name = get_string(buf)?;
            let [code] = get(buf)?;
            let leaf = u32::from_le_bytes(get(buf)?);
            let mut dims = [[0u64; 3]; 3];
            for d in dims.iter_mut().flatten() {
                *d = u64::from_le_bytes(get(buf)?);
            }
            let [global_dims, offset, local_dims] = dims;
            let count = u64::from_le_bytes(get(buf)?);
            let points = local_dims.iter().try_fold(1u64, |n, &d| n.checked_mul(d));
            if points != Some(count) {
                return Err(BpError::Corrupt("dims/payload mismatch"));
            }
            let inside = |a| {
                u64::checked_add(offset[a], local_dims[a]).is_some_and(|hi| hi <= global_dims[a])
            };
            if !(0..3).all(inside) {
                return Err(BpError::Corrupt("block exceeds global dims"));
            }
            vars.push(BpVar {
                name,
                global_dims,
                offset,
                local_dims,
                data: payload(code, count, buf)?,
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
    b.extend_from_slice(&(s.len() as u32).to_le_bytes());
    b.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, BpError> {
    let n = u32::from_le_bytes(get(buf)?);
    let raw = take(buf, u64::from(n), 1)?;
    String::from_utf8(raw.to_vec()).map_err(|_| BpError::Corrupt("bad utf8"))
}

/// The next `N` bytes of `buf`, if they are there.
fn get<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], BpError> {
    let (front, rest) = buf
        .split_first_chunk()
        .ok_or(BpError::Corrupt("truncated"))?;
    *buf = rest;
    Ok(*front)
}

/// Split `count × size` bytes off the front of `buf`, if the product
/// exists and that much is there.
fn take<'a>(buf: &mut &'a [u8], count: u64, size: usize) -> Result<&'a [u8], BpError> {
    let bytes = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(size))
        .filter(|&n| n <= buf.len())
        .ok_or(BpError::Corrupt("length exceeds frame"))?;
    let (front, rest) = buf.split_at(bytes);
    *buf = rest;
    Ok(front)
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
        Self::frames(&raw)
    }

    /// The steps of a file's bytes, frame by frame.
    fn frames(mut rest: &[u8]) -> Result<Vec<BpStep>, BpError> {
        let mut steps = Vec::new();
        while !rest.is_empty() {
            let len = u64::from_le_bytes(get(&mut rest)?);
            steps.push(BpStep::decode(take(&mut rest, len, 1)?)?);
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
            (0..256).map(|i| i as f64 * 0.5).collect::<Vec<_>>(),
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

    /// `s`'s framing without payloads, and its payloads as blocks.
    fn split(s: &BpStep) -> (Vec<u8>, Vec<Payload>) {
        let mut meta = Vec::new();
        s.encode_meta(&mut meta);
        (meta, s.vars.iter().map(|v| v.data.clone()).collect())
    }

    #[test]
    fn meta_is_the_framing_with_its_payload_sections_cut_out() {
        let s = sample();
        let full = encoded(&s);
        let (meta, _) = split(&s);
        assert_eq!(meta.len(), s.encoded_len() - s.payload_bytes());
        // `data`'s 256 values end where `rho`'s header begins, and
        // `rho`'s one value ends the framing.
        let rho_header = 4 + "rho".len() + VAR_HEADER;
        let data_at = meta.len() - rho_header;
        let cut = [&full[..data_at], &full[data_at + 256 * 8..full.len() - 8]].concat();
        assert_eq!(meta, cut);
    }

    #[test]
    fn adopt_takes_each_block_as_its_payload() {
        let s = sample();
        let (meta, mut blocks) = split(&s);
        let back = BpStep::adopt(&meta, &mut blocks).expect("adopt");
        assert_eq!(back, s);
        assert!(blocks.is_empty() && blocks.capacity() == s.vars.len());
        for (got, sent) in back.vars.iter().zip(&s.vars) {
            let (Payload::F64(got), Payload::F64(values)) = (&got.data, &sent.data) else {
                panic!("f64 in, f64 out");
            };
            assert!(
                Arc::ptr_eq(got, values),
                "{}: adopted, not copied",
                sent.name
            );
        }
    }

    #[test]
    fn a_block_that_disagrees_with_its_header_is_corrupt_never_adopted() {
        let s = sample();
        let corrupt = |tamper: fn(&mut Vec<Payload>)| {
            let (meta, mut blocks) = split(&s);
            tamper(&mut blocks);
            matches!(BpStep::adopt(&meta, &mut blocks), Err(BpError::Corrupt(_)))
        };
        assert!(corrupt(|b| b[0] = vec![0.0f32; 256].into()), "wrong type");
        assert!(
            corrupt(|b| b[1] = vec![9u8].into()),
            "wrong type, same count"
        );
        assert!(
            corrupt(|b| b[0] = vec![0.0f64; 255].into()),
            "one element short"
        );
        assert!(
            corrupt(|b| b[1] = vec![9.0f64; 2].into()),
            "one element over"
        );
        assert!(
            corrupt(|b| b.push(vec![9.0f64].into())),
            "one block too many"
        );
        assert!(corrupt(|b| drop(b.pop())), "one block too few");
        assert!(corrupt(Vec::clear), "no blocks");
        assert!(!corrupt(|_| ()), "the blocks as marshalled");
        // The framing is checked as `decode` checks it.
        let (meta, mut blocks) = split(&s);
        assert!(matches!(
            BpStep::adopt(&meta[..meta.len() - 1], &mut blocks),
            Err(BpError::Corrupt(_))
        ));
    }

    #[test]
    fn attributes_and_lookup() {
        let s = sample();
        assert_eq!(s.attr("spacing_x"), Some(0.25));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.var("rho").unwrap().data, vec![9.0].into());
        assert!(s.var("nope").is_none());
        assert_eq!(s.payload_bytes(), 257 * 8);
    }

    #[test]
    fn type_and_leaf_survive_roundtrip_at_their_own_width() {
        let mut s = BpStep::new(1, 0.1);
        s.vars.push(
            BpVar::new(
                "vtkGhostType",
                [4, 1, 1],
                [0, 0, 0],
                [4, 1, 1],
                vec![0u8, 0, 1, 1],
            )
            .with_leaf(3),
        );
        assert_eq!(s.payload_bytes(), 4, "one byte a flag on the wire");
        let back = BpStep::decode(&encoded(&s)).expect("decode");
        assert_eq!(back.vars[0].data.scalar_type(), ScalarType::U8);
        assert_eq!(back.vars[0].leaf, 3);
        assert_eq!(back, s);
    }

    /// One variable of `dims` points per supported type.
    fn one_of_each(dims: [u64; 3]) -> Vec<BpVar> {
        let n = dims.iter().product::<u64>() as usize;
        let payloads: [Payload; 5] = [
            vec![1.5f32; n].into(),
            vec![-2.5f64; n].into(),
            vec![-3i32; n].into(),
            vec![i64::MIN; n].into(),
            vec![7u8; n].into(),
        ];
        payloads
            .into_iter()
            .map(|p| BpVar::new("v", dims, [0, 0, 0], dims, p))
            .collect()
    }

    #[test]
    fn hostile_lengths_are_corrupt_not_fatal() {
        let corrupt = |bytes: &[u8]| matches!(BpStep::decode(bytes), Err(BpError::Corrupt(_)));
        for var in one_of_each([3, 2, 1]) {
            let mut s = BpStep::new(0, 0.0);
            s.vars.push(var);
            let good = encoded(&s);
            assert_eq!(good.len(), s.encoded_len());
            // A payload cut anywhere short of its last byte.
            for cut in 1..=s.payload_bytes() {
                assert!(corrupt(&good[..good.len() - cut]), "{:?}", s.vars[0].data);
            }
            // An element count whose byte size wraps: the count field
            // sits just before the payload, and the dims are patched to
            // agree with it.
            let count_at = good.len() - s.payload_bytes() - 8;
            let mut bad = good.clone();
            let huge = u64::MAX / 8 + 1;
            bad[count_at..count_at + 8].copy_from_slice(&huge.to_le_bytes());
            bad[count_at - 24..count_at - 16].copy_from_slice(&huge.to_le_bytes());
            bad[count_at - 16..count_at - 8].copy_from_slice(&1u64.to_le_bytes());
            bad[count_at - 8..count_at].copy_from_slice(&1u64.to_le_bytes());
            assert!(corrupt(&bad), "{:?}", s.vars[0].data);
        }
        // Counts no frame this short could hold.
        let header = encoded(&BpStep::new(0, 0.0));
        for at in [header.len() - 8, header.len() - 4] {
            let mut bad = header.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(corrupt(&bad));
        }
        // The previous framing is not read.
        let mut old = encoded(&sample());
        old[..4].copy_from_slice(b"BPL2");
        assert!(corrupt(&old));
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
        // A block that does not fit its global grid is what `BpVar::new`
        // refuses to build; the decoder refuses it too. The first
        // variable's global dims follow its name and five header bytes.
        let name_at = 4 + 8 + 8 + 4 + 2 * (4 + 9 + 8) + 4;
        let global_at = name_at + 4 + "data".len() + 1 + 4;
        let mut outside = bytes.clone();
        outside[global_at..global_at + 8].copy_from_slice(&7u64.to_le_bytes());
        assert!(matches!(BpStep::decode(&outside), Err(BpError::Corrupt(_))));
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
        // A file cut anywhere inside its last frame, length prefix or
        // step, is corrupt; cut at a frame boundary it is the steps
        // before the cut.
        let whole = std::fs::read(&path).unwrap();
        let first = 8 + a.encoded_len();
        for end in first + 1..whole.len() {
            assert!(
                matches!(BpFile::frames(&whole[..end]), Err(BpError::Corrupt(_))),
                "cut at {end}"
            );
        }
        assert_eq!(BpFile::frames(&whole[..first]).unwrap(), [a]);
        assert!(BpFile::frames(b"").unwrap().is_empty(), "no steps");
        // A length prefix larger than the file is corrupt, not a wrapped
        // offset.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&u64::MAX.to_le_bytes()).unwrap();
        assert!(matches!(BpFile::read_all(&path), Err(BpError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn wrong_payload_size_panics() {
        let _ = BpVar::new("x", [4, 4, 4], [0, 0, 0], [2, 2, 2], vec![0.0f64; 9]);
    }

    #[test]
    #[should_panic(expected = "exceeds global dims")]
    fn block_outside_global_panics() {
        let _ = BpVar::new("x", [4, 4, 4], [3, 0, 0], [2, 4, 4], vec![0.0f64; 32]);
    }
}
