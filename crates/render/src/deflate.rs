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
//!
//! The fixed-mode stream can also be produced in **bands**, byte for
//! byte the serial one (`Fixed`; DESIGN §11 has the argument). Every
//! position enters the hash chains exactly once and in order, whether
//! it was a literal, a match start or skipped inside a match, so the
//! match found at `i` depends on `(data, i)` alone and only *which*
//! positions start a token depends on what came before. A band is
//! therefore parsed speculatively from its cut, its chains primed with
//! the `WINDOW` bytes before it; when the previous band's true landing
//! position is known, the band is re-parsed from there until it starts
//! a token where the speculative parse did — from that position on the
//! two are one parse — and the bit strings are spliced.
//!
//! A parse never holds its input whole either: it pulls the stream
//! through a sliding buffer of `WINDOW + CHUNK + MAX_MATCH + 3` bytes
//! (`Input`), its chains continuing across chunks, and folds the
//! Adler-32 of what it read chunk by chunk. The serial encoders copy
//! out of a stream they hold; the collective one flattens pixels.

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

/// An LSB-first bit string growing at the end of a byte vector.
pub(crate) struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// `out.len()` when the writer was made: bit 0 of its string.
    origin: usize,
    bitbuf: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    pub(crate) fn on(out: &'a mut Vec<u8>) -> Self {
        BitWriter {
            origin: out.len(),
            out,
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

    /// Bits written so far.
    #[inline]
    fn bit_len(&self) -> u64 {
        (self.out.len() - self.origin) as u64 * 8 + self.nbits as u64
    }

    /// Append bits `[from, to)` of the bit string held in `src`,
    /// wherever this writer stands: the splice of two parses.
    pub(crate) fn append(&mut self, src: &[u8], from: u64, to: u64) {
        debug_assert!(from <= to && to <= src.len() as u64 * 8);
        let mut at = from;
        while at < to {
            let take = (to - at).min(32);
            let byte = (at / 8) as usize;
            let mut word = [0; 8];
            let avail = (src.len() - byte).min(8);
            word[..avail].copy_from_slice(&src[byte..byte + avail]);
            // 7 bits of offset + 32 taken fit the 64 loaded.
            let chunk = (u64::from_le_bytes(word) >> (at % 8)) & ((1 << take) - 1);
            self.bits(chunk as u32, take as u32);
            at += take;
        }
    }

    /// Pad to a byte boundary and return how many bits were written
    /// before the padding.
    pub(crate) fn finish(mut self) -> u64 {
        let len = self.bit_len();
        while self.nbits > 0 {
            self.out.push(self.bitbuf as u8);
            self.bitbuf >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
        len
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

pub(crate) const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
pub(crate) const MAX_MATCH: usize = 258;
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
    for (&wx, &wy) in x.as_chunks::<8>().0.iter().zip(y.as_chunks::<8>().0) {
        let diff = u64::from_le_bytes(wx) ^ u64::from_le_bytes(wy);
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

/// Bytes of stream a parse asks its source for at a time, on top of
/// the window it keeps behind the token it stands at.
pub(crate) const CHUNK: usize = 64 * 1024;
/// Bytes at and past a token start that its search and the insertion of
/// a match's skipped positions read: a whole match and the last
/// skipped position's three bytes.
const LOOK: usize = MAX_MATCH + MIN_MATCH;
/// A parse's sliding buffer: the `WINDOW` bytes behind the token, a
/// chunk, and what a search at the chunk's end reads past it.
pub(crate) const SLIDE: usize = WINDOW + CHUNK + LOOK;
/// Bytes past its cut within which a speculative parse logs its token
/// starts, and so a junction's re-parse can meet it (the benchmark's
/// meet within 24 KB); one that has not met by then re-parses the rest
/// of its band, as one that never meets does, and no byte changes.
pub(crate) const JOIN_SPAN: usize = 64 * 1024;

/// Where a parse reads the stream, a chunk at a time: `fill(pos, dst)`
/// writes the stream's bytes `pos..pos + dst.len()`, any of them any
/// number of times. Nothing at or past `horizon` is asked for: the
/// stream's end, or at least `MAX_MATCH` bytes past the band parsed.
pub(crate) struct Input<'a> {
    pub(crate) horizon: usize,
    pub(crate) fill: &'a mut dyn FnMut(usize, &mut [u8]),
}

/// The source of a stream held whole in `data`: copies out of it.
pub(crate) fn copy_from(data: &[u8]) -> impl FnMut(usize, &mut [u8]) + '_ {
    move |pos, dst| dst.copy_from_slice(&data[pos..pos + dst.len()])
}

/// Stream bytes in view: `data[k]` is the byte at position `base + k` of
/// a stream that ends at `n`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [u8],
    base: usize,
    n: usize,
}

/// The Adler-32 of the stream's bytes in `range`, folded from the
/// pieces a parse reads them in, in order.
struct Sum {
    range: std::ops::Range<usize>,
    adler: u32,
}

impl Sum {
    /// Fold in `bytes`, the stream's from position `at` on.
    fn add(&mut self, at: usize, bytes: &[u8]) {
        let lo = self.range.start.max(at);
        let hi = self.range.end.min(at + bytes.len());
        if lo < hi {
            let piece = &bytes[lo - at..hi - at];
            self.adler = adler32_combine(self.adler, adler32(piece), piece.len());
        }
    }
}

/// The hash chains of the greedy parse. `head[h]` is the latest
/// position whose three bytes hash to `h`, `prev[p % WINDOW]` the one
/// before `p` on the same chain. That ring has exactly `WINDOW` slots
/// because that is exactly how long a link is needed: `p`'s slot is next
/// written by `p + WINDOW`, and the search at `i` runs before `i` is
/// inserted, so every candidate with `i - cand <= WINDOW` — distance
/// 32 768 included — still owns its slot, and the first candidate
/// beyond that ends the walk before its reused slot is read. Only
/// `head` is reset between parses: a slot of `prev` is read for a
/// position reached through `head`, and every such position wrote its
/// slot in this parse. Positions are the stream's own, wherever the
/// bytes in view start.
struct Chains {
    head: Box<[u32; 1 << HASH_BITS]>,
    prev: Box<[u32; WINDOW]>,
}

/// Enter `pos`, whose three bytes are `tri`, at the head of its chain.
#[inline]
fn insert(head: &mut [u32; 1 << HASH_BITS], prev: &mut [u32; WINDOW], pos: usize, tri: &[u8]) {
    let h = hash3(tri);
    prev[pos % WINDOW] = head[h];
    head[h] = pos as u32;
}

impl Chains {
    /// The parse loop: tokens from the start `i` on, coded as they are
    /// found, until one would start at or past `lim` or `at_token`
    /// says stop. Returns where the parse stands and whether `at_token`
    /// stopped it. `view` holds the `WINDOW` bytes before every token
    /// this starts and the `LOOK` bytes from it, or up to the end.
    fn run(
        &mut self,
        view: View,
        mut i: usize,
        lim: usize,
        w: &mut BitWriter,
        at_token: &mut impl FnMut(usize, u64) -> bool,
    ) -> (usize, bool) {
        let View { data, base, n } = view;
        let (head, prev) = (&mut *self.head, &mut *self.prev);
        while i < lim {
            if !at_token(i, w.bit_len()) {
                return (i, true);
            }
            let at = i - base;
            let (mut best_len, mut best_dist) = (0, 0);
            if i + MIN_MATCH <= n {
                let max_len = (n - i).min(MAX_MATCH);
                let h = hash3(&data[at..]);
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
                    let from = c - base;
                    if data[from + best_len] == data[at + best_len] {
                        let l = match_len(data, from, at, max_len);
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
                for (j, tri) in (i + 1..stop).zip(data[at + 1..stop + 2 - base].windows(3)) {
                    insert(head, prev, j, tri);
                }
                i += best_len;
            } else {
                let (bits, nbits) = LITLEN_BITS[data[at] as usize];
                w.bits(bits as u32, nbits as u32);
                i += 1;
            }
        }
        (i, false)
    }
}

/// The fixed-Huffman encoder: the chain tables of the greedy parse, its
/// sliding buffer and, for a band that does not start the stream, its
/// speculative parse. Kept between calls by a caller that encodes a
/// frame a step, so that none of them is allocated again.
///
/// A parse pulls its [`Input`] through the one buffer of `SLIDE` bytes:
/// when the next token's search could read past what is in view, the
/// `WINDOW` bytes behind it and the bytes ahead slide to the front and
/// the source writes the next chunk behind them. The chains are not
/// touched — positions are the stream's, and the window behind the
/// token is still in view — so the parse continues across chunks as if
/// the stream were held whole.
pub(crate) struct Fixed {
    chains: Chains,
    slide: Vec<u8>,
    /// The speculative parse of the band last given to
    /// [`Fixed::speculate`]: its bit string, …
    spec: Vec<u8>,
    spec_bits: u64,
    /// … every position before `cut + JOIN_SPAN` it started a token at
    /// with the bit offset of that token, in order, …
    starts: Vec<(usize, u64)>,
    /// … and the first position past the band it did not code.
    landing: usize,
}

impl Default for Fixed {
    /// An encoder kept between calls: its sliding buffer is `SLIDE`
    /// bytes whatever a stream's length, a closed form.
    fn default() -> Self {
        Fixed::with_slide(SLIDE)
    }
}

impl Fixed {
    /// An encoder whose sliding buffer holds `slide` bytes, what a
    /// parse of a stream that long fills (or any stream, at `SLIDE`).
    fn with_slide(slide: usize) -> Self {
        // Arrays, so that the parse's indices — a `HASH_BITS`-bit hash,
        // a position modulo `WINDOW` — are in bounds by their type.
        Fixed {
            chains: Chains {
                head: Box::new([NIL; 1 << HASH_BITS]),
                prev: Box::new([NIL; WINDOW]),
            },
            slide: Vec::with_capacity(slide),
            spec: Vec::new(),
            spec_bits: 0,
            starts: Vec::new(),
            landing: 0,
        }
    }

    /// Greedy LZ77 (3-byte hash chains of at most [`MAX_CHAIN`] links,
    /// the first longest match wins) over the stream from `from`, coded
    /// with the fixed Huffman code as the parse goes, until a token would
    /// start at or past `end` or `at_token(position, bit offset)` says
    /// stop. Returns the position of the token it did not write, and the
    /// Adler-32 of the bytes `from..end` (whole only if the parse ran to
    /// `end`).
    ///
    /// The chains are primed with the `WINDOW` positions before `from`,
    /// which is all a search at or after `from` can reach, so the tokens
    /// are those of the parse of the whole stream from any token start
    /// of its at `from` on: the parse from 0 — byte for byte that of the
    /// token-list encoder this replaced, which the tests keep as their
    /// oracle (`deflate/reference.rs`) — is the case `from == 0`. A last
    /// match may overrun `end`; the input has to reach what it can
    /// ([`MAX_MATCH`] bytes past `end`, or the end of the stream).
    fn parse(
        &mut self,
        input: &mut Input,
        from: usize,
        end: usize,
        w: &mut BitWriter,
        mut at_token: impl FnMut(usize, u64) -> bool,
    ) -> (usize, u32) {
        let Input { horizon: n, fill } = input;
        let n = *n;
        assert!(n < NIL as usize, "deflate input of {n} bytes exceeds u32");
        debug_assert!(from <= end && end <= n);
        let (chains, slide) = (&mut self.chains, &mut self.slide);
        chains.head.fill(NIL);
        let first = from.saturating_sub(WINDOW);
        // The view never outgrows the `min(SLIDE, n)` bytes the encoder
        // was built with. Every byte of it is the source's: what it held
        // is not read.
        slide.resize((first + SLIDE).min(n) - first, 0);
        fill(first, slide);
        let mut view = View {
            data: slide,
            base: first,
            n,
        };
        let mut sum = Sum {
            range: from..end,
            adler: 1,
        };
        sum.add(view.base, view.data);
        let primed = from.min(n.saturating_sub(MIN_MATCH - 1));
        let behind = view.data[first - view.base..].windows(3);
        for (j, tri) in (first..primed).zip(behind) {
            insert(&mut chains.head, &mut chains.prev, j, tri);
        }
        let mut i = from;
        loop {
            let (base, top) = (view.base, view.base + view.data.len());
            // Past `top - LOOK` a search could read beyond the view,
            // unless the view reaches the end of the stream.
            let lim = if top == n { end } else { end.min(top - LOOK) };
            let stopped;
            (i, stopped) = chains.run(view, i, lim, w, &mut at_token);
            if stopped || i >= end {
                break;
            }
            // Slide the window behind `i` and what lies past it to the
            // front, and pull the next chunk in behind them.
            let keep = i - WINDOW;
            slide.copy_within(keep - base.., 0);
            let kept = top - keep;
            slide.resize((keep + SLIDE).min(n) - keep, 0);
            fill(keep + kept, &mut slide[kept..]);
            sum.add(keep + kept, &slide[kept..]);
            view = View {
                data: slide,
                base: keep,
                n,
            };
        }
        (i, sum.adler)
    }

    /// Append the fixed-mode stream of all of `data` to `out`: one band,
    /// by an encoder made for it, whose sliding buffer is no larger than
    /// `data`. Returns the Adler-32 of `data`.
    pub(crate) fn whole(out: &mut Vec<u8>, data: &[u8]) -> u32 {
        let mut w = BitWriter::on(out);
        Fixed::begin(&mut w);
        let mut input = Input {
            horizon: data.len(),
            fill: &mut copy_from(data),
        };
        let once = &mut Fixed::with_slide(SLIDE.min(data.len()));
        let (_, adler) = once.lead(&mut w, &mut input, data.len());
        Fixed::end(w);
        adler
    }

    /// Open the one fixed-Huffman block of a stream.
    pub(crate) fn begin(w: &mut BitWriter) {
        w.bits(1, 1); // BFINAL
        w.bits(0b01, 2); // BTYPE = fixed Huffman
    }

    /// Code the band `[0, end)` that starts the stream straight into
    /// `w`; returns its landing position, the first it did not code, and
    /// the band's Adler-32.
    pub(crate) fn lead(
        &mut self,
        w: &mut BitWriter,
        input: &mut Input,
        end: usize,
    ) -> (usize, u32) {
        self.parse(input, 0, end, w, |_, _| true)
    }

    /// Parse the band `[cut, end)` as if a token started at `cut`,
    /// keeping the result for [`Fixed::join`], the token starts within
    /// [`JOIN_SPAN`] of the cut among it; returns the band's Adler-32.
    pub(crate) fn speculate(&mut self, input: &mut Input, cut: usize, end: usize) -> u32 {
        let (mut spec, mut starts) = (
            std::mem::take(&mut self.spec),
            std::mem::take(&mut self.starts),
        );
        spec.clear();
        starts.clear();
        let mut w = BitWriter::on(&mut spec);
        let span = cut + JOIN_SPAN;
        let (landing, adler) = self.parse(input, cut, end, &mut w, |i, bit| {
            if i < span {
                starts.push((i, bit));
            }
            true
        });
        self.landing = landing;
        self.spec_bits = w.finish();
        (self.spec, self.starts) = (spec, starts);
        adler
    }

    /// Write the true bit string of the speculated band `[cut, end)`
    /// into `w`, given `landing`, where the parse before it really
    /// stopped: re-parse from there until a token starts where the
    /// speculative parse started one within [`JOIN_SPAN`] of the cut,
    /// and splice that parse's bits on from that token. They need not
    /// meet — equal bytes give 258-byte matches from both starts, and
    /// `m + 258 k` never equals `cut + 258 k'` unless `m - cut` is a
    /// multiple of 258 — nor meet inside the span, and then the band is
    /// the re-parse alone. A `landing` at or past `end` (the match
    /// before covers the band) passes through. The re-parse asks its
    /// source again for the window before `landing` and whatever it
    /// reads from there: the speculative parse has slid past them.
    /// Returns the band's own landing, and the tokens the re-parse coded
    /// and the stream bytes they cover, which end before the band does
    /// iff the two parses met.
    pub(crate) fn join(
        &mut self,
        w: &mut BitWriter,
        input: &mut Input,
        landing: usize,
        end: usize,
    ) -> (usize, [u64; 2]) {
        if landing >= end {
            return (landing, [0; 2]);
        }
        let starts = std::mem::take(&mut self.starts);
        let (mut next, mut tokens) = (0, 0);
        let (stop, _) = self.parse(input, landing, end, w, |i, _| {
            while next < starts.len() && starts[next].0 < i {
                next += 1;
            }
            let on = next == starts.len() || starts[next].0 != i;
            tokens += u64::from(on);
            on
        });
        let met = stop < end;
        if met {
            w.append(&self.spec, starts[next].1, self.spec_bits);
        }
        self.starts = starts;
        let reparsed = [tokens, (stop - landing) as u64];
        (if met { self.landing } else { stop }, reparsed)
    }

    /// Close the block and pad the stream to a byte.
    pub(crate) fn end(mut w: BitWriter) {
        let (eob, eob_n) = LITLEN_BITS[256];
        w.bits(eob as u32, eob_n as u32);
        w.finish();
    }
}

// --------------------------------------------------------------------
// Public encode API
// --------------------------------------------------------------------

/// Raw DEFLATE-compress `data`.
pub fn deflate(data: &[u8], mode: Mode) -> Vec<u8> {
    let mut out = Vec::new();
    match mode {
        Mode::Stored => deflate_stored(&mut out, data.len(), |raw| raw.copy_from_slice(data)),
        Mode::Fixed => {
            Fixed::whole(&mut out, data);
        }
    }
    out
}

/// Append the `n` bytes that `fill` writes as stored blocks. A block
/// header is three bits padded to a byte plus two lengths, so the
/// stream stays byte-aligned throughout.
///
/// The bytes are written once, in `out`, behind the room the headers
/// will take; each block then slides down to its header. Block `i` of
/// `b` moves `5 (b − 1 − i)` bytes towards the front: never onto its
/// own header, never onto a block that has not moved yet.
pub(crate) fn deflate_stored(out: &mut Vec<u8>, n: usize, fill: impl FnOnce(&mut [u8])) {
    const BLOCK: usize = 65535;
    let blocks = n.div_ceil(BLOCK).max(1);
    let at = out.len();
    let body = at + 5 * blocks;
    out.resize(body + n, 0);
    fill(&mut out[body..]);
    for i in 0..blocks {
        let len = (n - i * BLOCK).min(BLOCK);
        let (src, header) = (body + i * BLOCK, at + i * (BLOCK + 5));
        out[header] = u8::from(i + 1 == blocks); // BFINAL, BTYPE = stored
        out[header + 1..header + 3].copy_from_slice(&(len as u16).to_le_bytes());
        out[header + 3..header + 5].copy_from_slice(&(!(len as u16)).to_le_bytes());
        out.copy_within(src..src + len, header + 5);
    }
}

const ADLER_MOD: u32 = 65521;

/// Bytes per lane block of [`adler32`].
const ADLER_LANES: usize = 16;
/// Bytes between reductions: the largest multiple of `ADLER_LANES` not
/// above 5 552, zlib's bound for the bytewise loop. A lane's `b` then
/// peaks at 255 · 346 · 347 / 2 < 2²⁴, so the sums over the lanes fit a
/// `u32` too; the checksum's own `a` and `b` are carried in `u64`.
const ADLER_RUN: usize = 5536;

/// Adler-32 checksum (RFC 1950), 16 bytes at a time: lane `k` sums the
/// bytes at `k` mod 16 (`a[k]`) and the running sums of those (`b[k]`).
/// Over a run of `m` blocks, byte `16j + k` enters the checksum's `b`
/// `16(m − j) − k` times, which is `16·b[k] − k·a[k]` summed over the
/// lanes, plus `16m` times the `a` the run started from.
pub(crate) fn adler32(data: &[u8]) -> u32 {
    let m = ADLER_MOD as u64;
    let (mut a, mut b) = (1u64, 0u64);
    for run in data.chunks(ADLER_RUN) {
        let mut blocks = run.chunks_exact(ADLER_LANES);
        let (mut la, mut lb) = ([0u32; ADLER_LANES], [0u32; ADLER_LANES]);
        for block in &mut blocks {
            // A counted `while` rather than a range `for`: the same code
            // optimised, and no iterator call per lane unoptimised, where
            // the Table 2 ablation test times the encoder.
            let mut k = 0;
            while k < ADLER_LANES {
                la[k] += block[k] as u32;
                lb[k] += la[k];
                k += 1;
            }
        }
        // Horizontal sums, each under 2³² (`Σ b[k]` < 16 · 2²⁴).
        let sum = |lanes: [u32; ADLER_LANES]| lanes.iter().sum::<u32>() as u64;
        let weighted: [u32; ADLER_LANES] = std::array::from_fn(|k| k as u32 * la[k]);
        let n = (run.len() - blocks.remainder().len()) as u64;
        b += n * a + ADLER_LANES as u64 * sum(lb) - sum(weighted);
        a += sum(la);
        for &byte in blocks.remainder() {
            a += byte as u64;
            b += a;
        }
        a %= m;
        b %= m;
    }
    ((b as u32) << 16) | a as u32
}

/// The bytewise loop [`adler32`] replaced: its oracle.
#[cfg(test)]
fn adler32_bytewise(data: &[u8]) -> u32 {
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= ADLER_MOD;
        b %= ADLER_MOD;
    }
    (b << 16) | a
}

/// The Adler-32 of `x ‖ y` from `adler32(x)`, `adler32(y)` and `y`'s
/// length (zlib's `adler32_combine`): `a` sums the bytes, and every one
/// of `y`'s `len_y` steps adds `x`'s final `a` (less the 1 both start
/// from) into `b` once more.
pub(crate) fn adler32_combine(x: u32, y: u32, len_y: usize) -> u32 {
    let m = ADLER_MOD as u64;
    let (ax, bx) = ((x & 0xFFFF) as u64, (x >> 16) as u64);
    let (ay, by) = ((y & 0xFFFF) as u64, (y >> 16) as u64);
    let a = (ax + ay + m - 1) % m;
    let b = (bx + by + (len_y as u64 % m) * (ax + m - 1)) % m;
    ((b as u32) << 16) | a as u32
}

/// The two bytes that open a zlib stream: 32K window, fastest-compression hint.
pub(crate) const ZLIB_HEADER: [u8; 2] = [0x78, 0x01];

/// zlib-wrap (RFC 1950): header + DEFLATE stream + Adler-32.
pub fn zlib_compress(data: &[u8], mode: Mode) -> Vec<u8> {
    let mut out = ZLIB_HEADER.to_vec();
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
impl Fixed {
    /// Heap bytes it holds between parses: its chain tables and sliding
    /// buffer, and its speculative parse's bit string and junction log.
    pub(crate) fn held(&self) -> [usize; 2] {
        let Chains { head, prev } = &self.chains;
        let tables = size_of_val(&**head) + size_of_val(&**prev) + self.slide.capacity();
        let log = self.starts.capacity() * size_of::<(usize, u64)>();
        [tables, self.spec.capacity() + log]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let data = xorshift_bytes(70_000, 0x12345678);
        roundtrip(&data, Mode::Stored); // crosses the 65535 block boundary
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn stored_blocks_slide_into_place_at_the_block_edges() {
        for len in [65_534, 65_535, 65_536, 2 * 65_535, 2 * 65_535 + 1] {
            let data = xorshift_bytes(len, 99);
            let comp = deflate(&data, Mode::Stored);
            assert_eq!(comp.len(), len + 5 * len.div_ceil(65_535));
            assert!(inflate(&comp).expect("inflate") == data, "{len} bytes");
        }
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

    /// The fixed-mode stream of `data` made band by band at `cuts`
    /// (ascending, each in `0..=len`), the way the collective PNG
    /// encoder makes it — every band sees only its own bytes, `WINDOW`
    /// before and `MAX_MATCH` after —, how many junctions never met, and
    /// the bytes each junction re-parsed.
    fn deflate_banded(data: &[u8], cuts: &[usize]) -> (Vec<u8>, usize, Vec<usize>) {
        let n = data.len();
        let mut edges = vec![0];
        edges.extend_from_slice(cuts);
        edges.push(n);
        let horizon = |end: usize| &data[..(end + MAX_MATCH).min(n)];
        let mut fixed = Fixed::default();
        let mut out = Vec::new();
        let mut w = BitWriter::on(&mut out);
        Fixed::begin(&mut w);
        let lead = horizon(edges[1]);
        let mut input = Input {
            horizon: lead.len(),
            fill: &mut copy_from(lead),
        };
        let (mut landing, _) = fixed.lead(&mut w, &mut input, edges[1]);
        let (mut unmet, mut reparsed) = (0, Vec::new());
        for band in edges[1..].windows(2) {
            let (cut, end) = (band[0], band[1]);
            // Bytes a band may not see are poisoned, not just unread.
            let mut seen = horizon(end).to_vec();
            seen[..cut.saturating_sub(WINDOW)].fill(0xA5);
            let mut input = Input {
                horizon: seen.len(),
                fill: &mut copy_from(&seen),
            };
            fixed.speculate(&mut input, cut, end);
            let (next, [_, bytes]) = fixed.join(&mut w, &mut input, landing, end);
            let met = landing + (bytes as usize) < end;
            unmet += usize::from(landing < end && !met);
            reparsed.push(bytes as usize);
            landing = next;
        }
        assert_eq!(landing, n, "the last band lands on the end of the stream");
        Fixed::end(w);
        (out, unmet, reparsed)
    }

    /// Pseudo-random: xorshift, so no rand dependency needed here.
    fn xorshift_bytes(len: usize, mut x: u32) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn bands_splice_to_the_serial_stream() {
        let scanlines: Vec<u8> = (0..40)
            .flat_map(|y: usize| (0..1 + 3 * 700).map(move |x| ((x / 90 + y / 7) % 5) as u8 * 40))
            .collect();
        let noise = xorshift_bytes(3 * WINDOW, 0x9E37_79B9);
        let text: Vec<u8> = b"in situ, in transit, post hoc; "
            .iter()
            .cycle()
            .take(2 * WINDOW + 259)
            .copied()
            .collect();
        for data in [&scanlines, &noise, &text] {
            let n = data.len();
            let want = deflate(data, Mode::Fixed);
            for cuts in [
                vec![n / 2],
                vec![n / 3, 2 * n / 3],
                vec![0, 1, 2, n - 1, n],
                vec![WINDOW - 1, WINDOW, WINDOW + 1],
                vec![1000, 1100, 1200, 1210, 1211, 40_000, 40_257, 40_300],
            ] {
                let (got, ..) = deflate_banded(data, &cuts);
                assert!(got == want, "{n} bytes cut at {cuts:?}");
            }
        }
    }

    #[test]
    fn equal_bytes_never_meet_and_still_splice() {
        // 258-byte matches from both starts: the re-parse starts tokens
        // at `landing + 258 k`, the speculative parse at `cut + 258 k`.
        let data = vec![7u8; 3 * WINDOW];
        let want = deflate(&data, Mode::Fixed);
        let (got, unmet, _) = deflate_banded(&data, &[WINDOW + 5, 2 * WINDOW + 11]);
        assert!(got == want);
        assert_eq!(unmet, 2, "both junctions take the re-parse-alone path");
        // A cut a whole number of matches from the start does meet.
        let (got, unmet, _) = deflate_banded(&data, &[1 + 258 * 40]);
        assert!(got == want);
        assert_eq!(unmet, 0);

        // Equal bytes out of phase past the cut, then noise, where the
        // two parses fall into step at once: a run that ends inside
        // `JOIN_SPAN` meets just past its end; one that ends beyond it
        // would meet just past the span, and re-parses the rest of its
        // band instead, to the same bytes.
        let cut = WINDOW + 5;
        let band = |run: usize| {
            let mut data = vec![7u8; cut + run];
            data.extend(xorshift_bytes(2 * JOIN_SPAN, 0x2545_F491));
            let want = deflate(&data, Mode::Fixed);
            let end = data.len() - JOIN_SPAN / 2;
            let (got, unmet, reparsed) = deflate_banded(&data, &[cut, end]);
            assert!(got == want, "a run of {run} bytes past the cut");
            (unmet, reparsed[0], end)
        };
        // The landing lies within a match of the cut, and so does the
        // re-parse's meeting point of the run's end, or its stop of the
        // band's end.
        let near = |at: usize, reparsed: usize| reparsed.abs_diff(at - cut) < MAX_MATCH;
        let run = JOIN_SPAN - 1000;
        let (unmet, reparsed, _) = band(run);
        assert_eq!(unmet, 0, "met inside the span");
        assert!(near(cut + run, reparsed), "met {reparsed} B on");
        let run = JOIN_SPAN + 1000;
        let (unmet, reparsed, end) = band(run);
        assert_eq!(unmet, 1, "not met inside the span");
        assert!(near(end, reparsed), "re-parsed {reparsed} B, not the band");
    }

    #[test]
    fn adler32_in_lanes_is_the_bytewise_loop() {
        let data = xorshift_bytes(3 * 5552 + 100, 5);
        let mut lengths: Vec<usize> = (0..=40).collect();
        for edge in [16, 32, 5536, 5552, 2 * 5536, 2 * 5552, 3 * 5536, 3 * 5552] {
            lengths.extend(edge - 3..=edge + 3);
        }
        for len in lengths {
            for from in [0, 7] {
                let bytes = &data[from..from + len];
                assert_eq!(
                    adler32(bytes),
                    adler32_bytewise(bytes),
                    "{len} bytes at {from}"
                );
            }
        }
        // The sums' worst case: every byte 0xFF, over many runs.
        let ones = vec![0xFF; 1 << 20];
        for len in [ADLER_RUN, ADLER_RUN + 1, 5552, 65_537, 1 << 20] {
            assert_eq!(
                adler32(&ones[..len]),
                adler32_bytewise(&ones[..len]),
                "{len} x 0xFF"
            );
        }
    }

    #[test]
    fn adler32_combines_across_a_split() {
        let data = xorshift_bytes(70_000, 77);
        for at in [0, 1, 5552, 65_521, 69_999, 70_000] {
            let (x, y) = data.split_at(at);
            assert_eq!(
                adler32_combine(adler32(x), adler32(y), y.len()),
                adler32(&data),
                "split at {at}"
            );
        }
    }

    /// `raw` cut positions folded into `0..=n`, ascending.
    fn cuts_in(raw: &[usize], n: usize) -> Vec<usize> {
        let mut cuts: Vec<usize> = raw.iter().map(|c| c % (n + 1)).collect();
        cuts.sort_unstable();
        cuts
    }

    /// Banded at `cuts` == one band == the reference encoder.
    fn assert_bands_identical(data: &[u8], cuts: &[usize]) -> usize {
        let (banded, unmet, _) = deflate_banded(data, cuts);
        let serial = deflate(data, Mode::Fixed);
        assert!(
            banded == serial,
            "{} bytes cut at {cuts:?}: bands differ from the one-band stream",
            data.len()
        );
        assert!(
            serial == reference::deflate_fixed(data),
            "{} bytes: one band differs from the reference",
            data.len()
        );
        unmet
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Noise and small palettes: cuts land in literals, at match
        /// starts and inside matches, bands shorter than a match included.
        #[test]
        fn banded_noise_and_palettes_are_the_serial_stream(
            len in 0usize..70_000,
            alphabet in 1u32..6,
            seed in any::<u32>(),
            raw_cuts in proptest::collection::vec(0usize..1_000_000, 1..9),
        ) {
            // Five symbols stand for "all 256".
            let modulus = if alphabet == 5 { 256 } else { alphabet };
            let data: Vec<u8> = xorshift_bytes(len, seed | 1)
                .into_iter()
                .map(|b| ((b as u32 % modulus) as u8).wrapping_mul(17))
                .collect();
            assert_bands_identical(&data, &cuts_in(&raw_cuts, len));
        }

        /// One row repeated, as filtered scanlines repeat: the long
        /// matches at distance `period` that a cut falls into.
        #[test]
        fn banded_repeated_rows_are_the_serial_stream(
            period in 1usize..6001,
            rows in 2usize..40,
            seed in any::<u32>(),
            raw_cuts in proptest::collection::vec(0usize..1_000_000, 1..9),
        ) {
            let row = xorshift_bytes(period, seed | 1);
            let len = (period * rows).min(90_000);
            let data: Vec<u8> = row.iter().cycle().take(len).copied().collect();
            assert_bands_identical(&data, &cuts_in(&raw_cuts, len));
        }

        /// Equal bytes: a junction whose cut is not a whole number of
        /// 258-byte matches past position 1 never meets, and the band
        /// must come out as the re-parse alone.
        #[test]
        fn banded_equal_bytes_take_the_never_meeting_path(
            len in 0usize..100_000,
            byte in any::<u8>(),
            raw_cuts in proptest::collection::vec(0usize..1_000_000, 1..9),
        ) {
            let data = vec![byte; len];
            let cuts = cuts_in(&raw_cuts, len);
            let unmet = assert_bands_identical(&data, &cuts);
            // Bands of full-length matches only, entered mid-match.
            let mut edges = cuts.clone();
            edges.push(len);
            let surely = edges
                .windows(2)
                .filter(|b| {
                    b[0] >= 1
                        && (b[0] - 1) % MAX_MATCH != 0
                        && b[1] - b[0] >= MAX_MATCH
                        && b[1] + MAX_MATCH <= len
                })
                .count();
            prop_assert!(unmet >= surely, "{unmet} unmet junctions, at least {surely} expected");
        }

        /// The lengths where a table or the window turns over.
        #[test]
        fn banded_edge_lengths_are_the_serial_stream(
            which in 0usize..6,
            kind in 0u32..3,
            seed in any::<u32>(),
            raw_cuts in proptest::collection::vec(0usize..1_000_000, 1..9),
        ) {
            let len = [0, 1, 2, WINDOW - 1, WINDOW + 1, 2 * WINDOW + 259][which];
            let data: Vec<u8> = xorshift_bytes(len, seed | 1)
                .into_iter()
                .map(|b| [b, b % 3, 9][kind as usize])
                .collect();
            assert_bands_identical(&data, &cuts_in(&raw_cuts, len));
        }

        #[test]
        fn adler32_combine_is_adler32_of_the_concatenation(
            data in proptest::collection::vec(any::<u8>(), 0..20_000),
            at in 0usize..1_000_000,
            ends in 0u32..4,
        ) {
            // The empty halves now and then, not once in 20 000.
            let at = match ends {
                0 => 0,
                1 => data.len(),
                _ => at % (data.len() + 1),
            };
            let (x, y) = data.split_at(at);
            prop_assert_eq!(
                adler32_combine(adler32(x), adler32(y), y.len()),
                adler32(&data)
            );
        }

        /// Appending a bit string from any bit of its buffer, onto a
        /// writer standing at any bit, is writing its fields there.
        #[test]
        fn appended_bits_are_the_fields_written_through(
            words in proptest::collection::vec(any::<u32>(), 0..600),
            split in 0usize..1_000_000,
            skip in 0usize..40,
        ) {
            let fields: Vec<(u32, u32)> = words
                .iter()
                .map(|&x| {
                    let n = 1 + (x >> 27) % 31;
                    (x & ((1 << n) - 1), n)
                })
                .collect();
            let split = split % (fields.len() + 1);
            let skip = skip.min(split);
            let mut want = Vec::new();
            let mut w = BitWriter::on(&mut want);
            fields.iter().for_each(|&(v, n)| w.bits(v, n));
            let want_bits = w.finish();
            let mut tail = Vec::new();
            let mut t = BitWriter::on(&mut tail);
            // `skip` fields of junk first: the tail starts mid-buffer.
            fields[..skip].iter().for_each(|&(v, n)| t.bits(v, n));
            let from = t.bit_len();
            fields[split..].iter().for_each(|&(v, n)| t.bits(v, n));
            let to = t.finish();
            let mut got = vec![0xEE]; // a writer need not start an empty vector
            let mut g = BitWriter::on(&mut got);
            fields[..split].iter().for_each(|&(v, n)| g.bits(v, n));
            g.append(&tail, from, to);
            prop_assert_eq!(g.finish(), want_bits);
            prop_assert!(got[1..] == want[..]);
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
