//! From-scratch DEFLATE (RFC 1951) and zlib (RFC 1950) encoding, plus a
//! matching inflater for round-trip verification.
//!
//! The encoder supports two modes:
//!
//! * **Stored** — uncompressed blocks (fast, ratio 1.0);
//! * **Fixed** — LZ77 (greedy, 3-byte hash chains, 32 KiB window) coded
//!   in the same pass with the fixed Huffman code of RFC 1951 §3.2.6.
//!
//! The PHASTA study (Table 2) traced its per-step in situ cost to this
//! exact computation — serial zlib compression of the rendered PNG on
//! rank 0 — so the reproduction needs a real, measurable compressor.

/// Compression mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Uncompressed stored blocks.
    Stored,
    /// LZ77 + fixed Huffman coding.
    Fixed,
}

// --------------------------------------------------------------------
// Bit I/O (LSB-first, per RFC 1951)
// --------------------------------------------------------------------

struct BitWriter {
    out: Vec<u8>,
    bitbuf: u64,
    nbits: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Write `n` bits, LSB-first. Huffman codes go through here too:
    /// the encoder's tables hold them already reversed.
    #[inline]
    fn bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32 && self.nbits < 32);
        self.bitbuf |= (value as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out
                .extend_from_slice(&(self.bitbuf as u32).to_le_bytes());
            self.bitbuf >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pad to a byte boundary.
    fn align(&mut self) {
        while self.nbits > 0 {
            self.out.push(self.bitbuf as u8);
            self.bitbuf >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        self.align();
        self.out
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bitbuf: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.bitbuf |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    fn bits(&mut self, n: u32) -> Result<u32, InflateError> {
        self.refill();
        if self.nbits < n {
            return Err(InflateError::UnexpectedEof);
        }
        let v = (self.bitbuf & ((1u64 << n) - 1)) as u32;
        self.bitbuf >>= n;
        self.nbits -= n;
        Ok(v)
    }

    fn align(&mut self) {
        let drop = self.nbits % 8;
        self.bitbuf >>= drop;
        self.nbits -= drop;
    }

    fn byte(&mut self) -> Result<u8, InflateError> {
        Ok(self.bits(8)? as u8)
    }
}

// --------------------------------------------------------------------
// Fixed Huffman tables
// --------------------------------------------------------------------

/// `(code, length)` for literal/length symbol `s` under the fixed code.
const fn fixed_litlen_code(s: usize) -> (u32, u32) {
    match s {
        0..=143 => (0x30 + s as u32, 8),
        144..=255 => (0x190 + (s - 144) as u32, 9),
        256..=279 => ((s - 256) as u32, 7),
        280..=287 => (0xC0 + (s - 280) as u32, 8),
        _ => panic!("symbol out of range"),
    }
}

/// Length symbol table: `(symbol, extra_bits, base_length)`.
const LENGTH_TABLE: [(u32, u32, u32); 29] = [
    (257, 0, 3),
    (258, 0, 4),
    (259, 0, 5),
    (260, 0, 6),
    (261, 0, 7),
    (262, 0, 8),
    (263, 0, 9),
    (264, 0, 10),
    (265, 1, 11),
    (266, 1, 13),
    (267, 1, 15),
    (268, 1, 17),
    (269, 2, 19),
    (270, 2, 23),
    (271, 2, 27),
    (272, 2, 31),
    (273, 3, 35),
    (274, 3, 43),
    (275, 3, 51),
    (276, 3, 59),
    (277, 4, 67),
    (278, 4, 83),
    (279, 4, 99),
    (280, 4, 115),
    (281, 5, 131),
    (282, 5, 163),
    (283, 5, 195),
    (284, 5, 227),
    (285, 0, 258),
];

/// Distance symbol table: `(symbol, extra_bits, base_distance)`.
const DIST_TABLE: [(u32, u32, u32); 30] = [
    (0, 0, 1),
    (1, 0, 2),
    (2, 0, 3),
    (3, 0, 4),
    (4, 1, 5),
    (5, 1, 7),
    (6, 2, 9),
    (7, 2, 13),
    (8, 3, 17),
    (9, 3, 25),
    (10, 4, 33),
    (11, 4, 49),
    (12, 5, 65),
    (13, 5, 97),
    (14, 6, 129),
    (15, 6, 193),
    (16, 7, 257),
    (17, 7, 385),
    (18, 8, 513),
    (19, 8, 769),
    (20, 9, 1025),
    (21, 9, 1537),
    (22, 10, 2049),
    (23, 10, 3073),
    (24, 11, 4097),
    (25, 11, 6145),
    (26, 12, 8193),
    (27, 12, 12289),
    (28, 13, 16385),
    (29, 13, 24577),
];

// --------------------------------------------------------------------
// LZ77 + fixed Huffman, one pass
// --------------------------------------------------------------------

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 32;
/// "No position" in the head table and the chain ring.
const NIL: u32 = u32::MAX;

/// Literal/length symbol → `(bits, nbits)`: its MSB-first code, reversed
/// once here so [`BitWriter::bits`] takes it as is.
const LITLEN_BITS: [(u16, u8); 288] = {
    let mut t = [(0, 0); 288];
    let mut s = 0;
    while s < t.len() {
        let (code, len) = fixed_litlen_code(s);
        t[s] = ((code as u16).reverse_bits() >> (16 - len), len as u8);
        s += 1;
    }
    t
};

/// Match length − [`MIN_MATCH`] → the length symbol's code with its
/// extra bits appended (13 bits at most).
const LENGTH_BITS: [(u16, u8); MAX_MATCH - MIN_MATCH + 1] = {
    let mut t = [(0, 0); MAX_MATCH - MIN_MATCH + 1];
    let mut k = 0;
    // In table order: symbol 285, the last, takes length 258 over from
    // symbol 284's thirty-second slot.
    while k < LENGTH_TABLE.len() {
        let (sym, extra, base) = LENGTH_TABLE[k];
        let (code, code_len) = LITLEN_BITS[sym as usize];
        let mut rest = 0;
        while rest < (1 << extra) && (base + rest) as usize <= MAX_MATCH {
            t[(base + rest) as usize - MIN_MATCH] =
                (code | (rest as u16) << code_len, code_len + extra as u8);
            rest += 1;
        }
        k += 1;
    }
    t
};

/// `(bits, nbits)` of a match distance: its symbol's 5-bit code with the
/// extra bits appended (18 bits at most). The symbol is the closed form
/// of [`DIST_TABLE`]: past the first four, every power of two holds two
/// symbols that split it in halves.
#[inline]
fn dist_bits(dist: usize) -> (u32, u32) {
    debug_assert!((1..=WINDOW).contains(&dist));
    let x = (dist - 1) as u32;
    let (sym, extra) = if x < 4 {
        (x, 0)
    } else {
        let extra = 30 - x.leading_zeros();
        (2 * (extra + 1) + ((x >> extra) & 1), extra)
    };
    let code = ((sym as u8).reverse_bits() >> 3) as u32;
    (code | (x & ((1 << extra) - 1)) << 5, 5 + extra)
}

/// Hash of the three bytes at the head of `b`.
#[inline]
fn hash3(b: &[u8]) -> usize {
    let v = (b[0] as u32) | ((b[1] as u32) << 8) | ((b[2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len`, eight bytes per comparison. Needs `a < b` and
/// `b + max_len <= data.len()`.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let (x, y) = (&data[a..a + max_len], &data[b..b + max_len]);
    let mut l = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = u64::from_le_bytes(wx.try_into().expect("chunk of 8"))
            ^ u64::from_le_bytes(wy.try_into().expect("chunk of 8"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && x[l] == y[l] {
        l += 1;
    }
    l
}

/// Greedy LZ77 (3-byte hash chains of at most [`MAX_CHAIN`] links, the
/// first longest match wins) coded with the fixed Huffman code as the
/// parse goes. The parse — and so the output, byte for byte — is that of
/// the token-list encoder this replaced, which the tests keep as their
/// oracle (`deflate/reference.rs`).
///
/// `head[h]` is the latest position whose three bytes hash to `h`,
/// `prev[p % WINDOW]` the one before `p` on the same chain. That ring
/// has exactly `WINDOW` slots because that is exactly how long a link
/// is needed: `p`'s slot is next written by `p + WINDOW`, and the search
/// at `i` runs before `i` is inserted, so every candidate with
/// `i - cand <= WINDOW` — distance 32 768 included — still owns its
/// slot, and the first candidate beyond that ends the walk before its
/// reused slot is read.
fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    assert!(n < NIL as usize, "deflate input of {n} bytes exceeds u32");
    let mut w = BitWriter::new();
    w.bits(1, 1); // BFINAL
    w.bits(0b01, 2); // BTYPE = fixed Huffman
    let mut head = vec![NIL; 1 << HASH_BITS];
    let mut prev = vec![NIL; WINDOW];
    let mut i = 0;
    while i < n {
        let (mut best_len, mut best_dist) = (0, 0);
        if i + MIN_MATCH <= n {
            let max_len = (n - i).min(MAX_MATCH);
            let h = hash3(&data[i..]);
            let mut cand = head[h];
            let mut chain = 0;
            // `best_len == max_len` cannot be beaten; stopping there also
            // keeps the reject byte below in bounds.
            while cand != NIL && chain < MAX_CHAIN && best_len < max_len {
                let c = cand as usize;
                if i - c > WINDOW {
                    break;
                }
                // A longer match must agree at `best_len`: one byte
                // rejects most candidates before the full comparison.
                if data[c + best_len] == data[i + best_len] {
                    let l = match_len(data, c, i, max_len);
                    if l > best_len {
                        (best_len, best_dist) = (l, i - c);
                    }
                }
                cand = prev[c % WINDOW];
                chain += 1;
            }
            prev[i % WINDOW] = head[h];
            head[h] = i as u32;
        }
        if best_len >= MIN_MATCH {
            let (len_bits, len_n) = LENGTH_BITS[best_len - MIN_MATCH];
            let (dist_bits, dist_n) = dist_bits(best_dist);
            // 13 + 18 bits at most: one write.
            w.bits(len_bits as u32 | dist_bits << len_n, len_n as u32 + dist_n);
            // Insert the skipped positions so later matches can find them.
            let stop = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            for (j, tri) in (i + 1..stop).zip(data[i + 1..stop + 2].windows(3)) {
                let h = hash3(tri);
                prev[j % WINDOW] = head[h];
                head[h] = j as u32;
            }
            i += best_len;
        } else {
            let (bits, nbits) = LITLEN_BITS[data[i] as usize];
            w.bits(bits as u32, nbits as u32);
            i += 1;
        }
    }
    let (eob, eob_n) = LITLEN_BITS[256];
    w.bits(eob as u32, eob_n as u32);
    w.finish()
}

// --------------------------------------------------------------------
// Public encode API
// --------------------------------------------------------------------

/// Raw DEFLATE-compress `data`.
pub fn deflate(data: &[u8], mode: Mode) -> Vec<u8> {
    match mode {
        Mode::Stored => deflate_stored(data),
        Mode::Fixed => deflate_fixed(data),
    }
}

fn deflate_stored(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![&[]]
    } else {
        data.chunks(65535).collect()
    };
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.iter().enumerate() {
        w.bits(u32::from(i == last), 1); // BFINAL
        w.bits(0b00, 2); // BTYPE = stored
        w.align();
        let len = chunk.len() as u16;
        w.out.extend_from_slice(&len.to_le_bytes());
        w.out.extend_from_slice(&(!len).to_le_bytes());
        w.out.extend_from_slice(chunk);
    }
    w.finish()
}

/// Adler-32 checksum (RFC 1950).
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// zlib-wrap (RFC 1950): header + DEFLATE stream + Adler-32.
pub fn zlib_compress(data: &[u8], mode: Mode) -> Vec<u8> {
    let mut out = vec![0x78, 0x01]; // 32K window, fastest-compression hint
    out.extend_from_slice(&deflate(data, mode));
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

// --------------------------------------------------------------------
// Inflate (stored + fixed blocks; enough to verify our own output)
// --------------------------------------------------------------------

/// Decompression errors.
#[derive(Debug, PartialEq, Eq)]
pub enum InflateError {
    /// Ran out of input bits.
    UnexpectedEof,
    /// A stored block's length check failed.
    StoredLengthMismatch,
    /// Dynamic-Huffman blocks are not supported by this inflater.
    DynamicUnsupported,
    /// Reserved block type.
    BadBlockType,
    /// Invalid symbol or distance.
    BadSymbol,
    /// zlib header or checksum invalid.
    BadZlib,
}

/// Decode a raw DEFLATE stream produced by [`deflate`].
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.bits(1)?;
        let btype = r.bits(2)?;
        match btype {
            0b00 => {
                r.align();
                let len = r.byte()? as u16 | ((r.byte()? as u16) << 8);
                let nlen = r.byte()? as u16 | ((r.byte()? as u16) << 8);
                if len != !nlen {
                    return Err(InflateError::StoredLengthMismatch);
                }
                for _ in 0..len {
                    out.push(r.byte()?);
                }
            }
            0b01 => inflate_fixed_block(&mut r, &mut out)?,
            0b10 => return Err(InflateError::DynamicUnsupported),
            _ => return Err(InflateError::BadBlockType),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn read_fixed_litlen(r: &mut BitReader) -> Result<u32, InflateError> {
    // Fixed code lengths are 7–9 bits; decode by successive widening.
    let mut code = 0u32;
    for len in 1..=9u32 {
        code = (code << 1) | r.bits(1)?;
        let (lo, hi, base) = match len {
            7 => (0b000_0000, 0b001_0111, 256),
            8 if (0x30..=0xBF).contains(&code) => (0x30, 0xBF, 0),
            8 if (0xC0..=0xC7).contains(&code) => (0xC0, 0xC7, 280),
            9 => (0x190, 0x1FF, 144),
            _ => continue,
        };
        if (lo..=hi).contains(&code) {
            return Ok(base + (code - lo));
        }
    }
    Err(InflateError::BadSymbol)
}

fn inflate_fixed_block(r: &mut BitReader, out: &mut Vec<u8>) -> Result<(), InflateError> {
    loop {
        let sym = read_fixed_litlen(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let (_, extra, base) = LENGTH_TABLE[(sym - 257) as usize];
                let len = base + r.bits(extra)?;
                // 5-bit distance code, MSB-first.
                let mut dcode = 0u32;
                for _ in 0..5 {
                    dcode = (dcode << 1) | r.bits(1)?;
                }
                if dcode >= 30 {
                    return Err(InflateError::BadSymbol);
                }
                let (_, dextra, dbase) = DIST_TABLE[dcode as usize];
                let dist = (dbase + r.bits(dextra)?) as usize;
                if dist == 0 || dist > out.len() {
                    return Err(InflateError::BadSymbol);
                }
                let start = out.len() - dist;
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}

/// Decode a zlib stream (header + DEFLATE + Adler-32 check).
pub fn zlib_decompress(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    if data.len() < 6 || data[0] & 0x0F != 8 {
        return Err(InflateError::BadZlib);
    }
    if !((data[0] as u16) << 8 | data[1] as u16).is_multiple_of(31) {
        return Err(InflateError::BadZlib);
    }
    let body = &data[2..data.len() - 4];
    let out = inflate(body)?;
    let want = u32::from_be_bytes([
        data[data.len() - 4],
        data[data.len() - 3],
        data[data.len() - 2],
        data[data.len() - 1],
    ]);
    if adler32(&out) != want {
        return Err(InflateError::BadZlib);
    }
    Ok(out)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], mode: Mode) {
        let comp = deflate(data, mode);
        let back = inflate(&comp).expect("inflate");
        assert_eq!(
            back,
            data,
            "roundtrip failed for {mode:?}, {} bytes",
            data.len()
        );
    }

    #[test]
    fn empty_input() {
        roundtrip(b"", Mode::Stored);
        roundtrip(b"", Mode::Fixed);
    }

    #[test]
    fn short_literals() {
        roundtrip(b"hello world", Mode::Stored);
        roundtrip(b"hello world", Mode::Fixed);
    }

    #[test]
    fn repetitive_data_roundtrips_and_compresses() {
        let data: Vec<u8> = b"abcabcabcabc"
            .iter()
            .cycle()
            .take(10_000)
            .cloned()
            .collect();
        roundtrip(&data, Mode::Fixed);
        let comp = deflate(&data, Mode::Fixed);
        assert!(
            comp.len() < data.len() / 4,
            "LZ77 should compress repeats well: {} vs {}",
            comp.len(),
            data.len()
        );
    }

    #[test]
    fn random_bytes_roundtrip() {
        // Pseudo-random: xorshift so no rand dependency needed here.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..70_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&data, Mode::Stored); // crosses the 65535 block boundary
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn all_byte_values_roundtrip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn image_like_data_compresses() {
        // Smooth gradient rows, like a rendered pseudocolor image.
        let mut data = Vec::new();
        for y in 0..200u32 {
            for x in 0..300u32 {
                data.push((x / 4) as u8);
                data.push((y / 2) as u8);
                data.push(128);
            }
        }
        let comp = deflate(&data, Mode::Fixed);
        assert!(
            comp.len() < data.len() / 3,
            "{} vs {}",
            comp.len(),
            data.len()
        );
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn zlib_wrapper_roundtrip_and_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let z = zlib_compress(data, Mode::Fixed);
        assert_eq!(zlib_decompress(&z).unwrap(), data);
        // Corrupt the checksum → rejected.
        let mut bad = z.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert_eq!(zlib_decompress(&bad), Err(InflateError::BadZlib));
    }

    #[test]
    fn zlib_header_is_valid() {
        let z = zlib_compress(b"x", Mode::Stored);
        assert_eq!(z[0] & 0x0F, 8, "deflate method");
        assert_eq!(((z[0] as u16) << 8 | z[1] as u16) % 31, 0, "FCHECK");
    }

    #[test]
    fn adler32_known_values() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E60398);
    }

    #[test]
    fn distance_closed_form_agrees_with_the_table() {
        for dist in 1..=WINDOW {
            let (bits, nbits) = dist_bits(dist);
            let sym = ((bits & 31) as u8).reverse_bits() >> 3;
            let (_, extra, base) = DIST_TABLE[sym as usize];
            assert_eq!(nbits, 5 + extra, "distance {dist}");
            assert_eq!((base + (bits >> 5)) as usize, dist);
        }
    }

    #[test]
    fn length_table_covers_every_length_once() {
        // Decode each entry back through LENGTH_TABLE, as inflate would.
        for len in MIN_MATCH..=MAX_MATCH {
            let (bits, nbits) = LENGTH_BITS[len - MIN_MATCH];
            let hit = LENGTH_TABLE.iter().find(|&&(sym, extra, _)| {
                let (code, code_len) = LITLEN_BITS[sym as usize];
                nbits == code_len + extra as u8 && bits & ((1 << code_len) - 1) == code
            });
            let &(sym, _, base) = hit.unwrap_or_else(|| panic!("length {len} has no symbol"));
            let code_len = LITLEN_BITS[sym as usize].1;
            assert_eq!((base + (bits >> code_len) as u32) as usize, len);
        }
        assert_eq!(LENGTH_BITS[0], LITLEN_BITS[257]);
        assert_eq!(LENGTH_BITS[MAX_MATCH - MIN_MATCH], LITLEN_BITS[285]);
    }

    fn assert_identical(data: &[u8], what: &str) {
        let new = deflate(data, Mode::Fixed);
        assert!(
            new == reference::deflate_fixed(data),
            "{what} ({} bytes): bytes differ from the reference encoder",
            data.len()
        );
        assert_eq!(inflate(&new).expect("inflate"), data, "{what}");
    }

    #[test]
    fn byte_identical_to_reference_on_short_inputs() {
        for len in 0..=4 {
            assert_identical(&vec![7; len], "constant");
            assert_identical(&(0..len as u8).collect::<Vec<_>>(), "distinct");
        }
        assert_identical(b"abcabcab", "match running into the end");
        assert_identical(b"aaaaaaaaaaaaaaaaaaab", "literal after a run");
    }

    #[test]
    fn byte_identical_to_reference_at_the_window_edge() {
        // A triple whose only earlier copy lies at exactly `gap`, over a
        // periodic background that keeps every chain full while the ring
        // wraps: 32 768 is the last distance a match may use, 32 769 the
        // first it may not. (`tests/properties.rs` holds the randomised
        // shapes; this is the hand-built one.)
        for gap in [WINDOW - 1, WINDOW, WINDOW + 1] {
            let mut data: Vec<u8> = (0..2 * WINDOW + 4096)
                .map(|k| ((k / 7) % 5) as u8)
                .collect();
            data[77..80].copy_from_slice(&[250, 251, 252]);
            data[77 + gap..80 + gap].copy_from_slice(&[250, 251, 252]);
            assert_identical(&data, "planted triple");
        }
    }

    #[test]
    fn max_length_match_roundtrips() {
        let data = vec![7u8; 600]; // forces 258-length matches
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn truncated_stream_errors() {
        let comp = deflate(b"some data to compress", Mode::Fixed);
        let cut = &comp[..comp.len() / 2];
        assert!(inflate(cut).is_err());
    }
}
