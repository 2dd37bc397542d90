//! The parent greedy encoder, kept verbatim as the byte-identity oracle
//! for [`deflate_fixed`](super): hash-chain LZ77 into a `Vec<Token>`,
//! then a token emitter that bit-reverses every Huffman code as it goes.
//! Slow and allocation-heavy (one chain link per input byte), which is
//! why it left product code; its *output* is the contract.
//!
//! Self-contained on purpose (its own tables and bit writer): the
//! oracle shares no code with the encoder it checks, and
//! `tests/properties.rs` can include this file by path.

struct BitWriter {
    out: Vec<u8>,
    bitbuf: u64,
    nbits: u32,
}

impl BitWriter {
    /// Write `n` bits, LSB-first.
    fn bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        self.bitbuf |= (value as u64) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.bitbuf & 0xFF) as u8);
            self.bitbuf >>= 8;
            self.nbits -= 8;
        }
    }

    /// Write a Huffman code: codes are emitted MSB-first.
    fn code(&mut self, code: u32, len: u32) {
        let mut rev = 0u32;
        for i in 0..len {
            rev |= ((code >> i) & 1) << (len - 1 - i);
        }
        self.bits(rev, len);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.bitbuf & 0xFF) as u8);
        }
        self.out
    }
}

/// `(code, length)` for literal/length symbol `s` under the fixed code.
fn fixed_litlen_code(s: usize) -> (u32, u32) {
    match s {
        0..=143 => (0x30 + s as u32, 8),
        144..=255 => (0x190 + (s - 144) as u32, 9),
        256..=279 => ((s - 256) as u32, 7),
        280..=287 => (0xC0 + (s - 280) as u32, 8),
        _ => unreachable!("symbol out of range"),
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

fn length_symbol(len: u32) -> (u32, u32, u32) {
    debug_assert!((3..=258).contains(&len));
    for i in (0..LENGTH_TABLE.len()).rev() {
        let (sym, extra, base) = LENGTH_TABLE[i];
        if len >= base && (len - base) < (1 << extra) || (sym == 285 && len == 258) {
            return (sym, extra, len - base);
        }
    }
    unreachable!("length {len} not in table")
}

fn dist_symbol(dist: u32) -> (u32, u32, u32) {
    debug_assert!((1..=32768).contains(&dist));
    for i in (0..DIST_TABLE.len()).rev() {
        let (sym, extra, base) = DIST_TABLE[i];
        if dist >= base {
            return (sym, extra, dist - base);
        }
    }
    unreachable!("distance {dist} not in table")
}

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 32;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// One LZ77 token.
enum Token {
    Literal(u8),
    Match { len: u32, dist: u32 },
}

fn lz77(data: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && chain < MAX_CHAIN {
                if i - cand <= WINDOW {
                    let max_len = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0;
                    while l < max_len && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= MAX_MATCH {
                            break;
                        }
                    }
                } else {
                    break;
                }
                cand = prev[cand];
                chain += 1;
            }
            // Insert current position into the chain.
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u32,
                dist: best_dist as u32,
            });
            // Insert the skipped positions so later matches can find them.
            let stop = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for (j, p) in prev.iter_mut().enumerate().take(stop).skip(i + 1) {
                let h = hash3(data, j);
                *p = head[h];
                head[h] = j;
            }
            i += best_len;
        } else {
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Raw DEFLATE stream of `data`: one final fixed-Huffman block.
pub(crate) fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter {
        out: Vec::new(),
        bitbuf: 0,
        nbits: 0,
    };
    w.bits(1, 1); // BFINAL
    w.bits(0b01, 2); // BTYPE = fixed Huffman
    for token in lz77(data) {
        match token {
            Token::Literal(b) => {
                let (code, len) = fixed_litlen_code(b as usize);
                w.code(code, len);
            }
            Token::Match { len, dist } => {
                let (sym, extra, rest) = length_symbol(len);
                let (code, clen) = fixed_litlen_code(sym as usize);
                w.code(code, clen);
                if extra > 0 {
                    w.bits(rest, extra);
                }
                let (dsym, dextra, drest) = dist_symbol(dist);
                w.code(dsym, 5); // fixed distance codes are 5 bits
                if dextra > 0 {
                    w.bits(drest, dextra);
                }
            }
        }
    }
    let (eob, eob_len) = fixed_litlen_code(256);
    w.code(eob, eob_len);
    w.finish()
}
