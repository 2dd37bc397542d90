//! Minimal PNG encoding (and decoding of our own files) over the
//! from-scratch zlib. 8-bit RGB, filter type 0 per scanline.
//!
//! A frame is flattened over its background: a pixel takes its RGB
//! where it is covered and the background where its depth is +∞ (the
//! framebuffer's coverage rule; it stores no alpha). One function,
//! `fill_scanlines`, does that for both encoders.
//!
//! Two ways in, one set of bytes out. [`encode_framebuffer`] and
//! [`encode_rgb`] are the paper's path — "render, compress on rank 0,
//! write" — and what the Table 2 reproduction times. [`PngEncoder`] is
//! the adaptors' path: a collective over the ranks that hold the
//! composited rows. The raw stream is cut at scanline boundaries into
//! bands of at least `MIN_BAND` (256 KiB), one per rank from 0 up. What
//! a band's parse reads — its rows, the rows holding the `WINDOW` bytes
//! before it and the `MAX_MATCH` after — comes from where the rows are:
//! another owner flattens its rows into a message to the band's rank (3
//! B/px scanlines), and the band's rank flattens its own only as the
//! parse pulls them through its sliding buffer (`deflate::Input`),
//! so no band's stream is ever held whole. Every band is parsed at once
//! and the junctions are settled in rank order (`deflate::Fixed`), each
//! counted under `render/junction` (tokens and bytes re-parsed); rank
//! 0 splices the bit strings and combines the per-band Adler-32s, each
//! folded chunk by chunk as the parse read it. The file is the serial
//! one byte for byte, at every rank count, because the parse is
//! (DESIGN §11).

use std::ops::Range;

use minimpi::Comm;

use crate::color::Color;
use crate::composite::Compositor;
use crate::deflate::{self, BitWriter, Fixed, Input, Mode, MAX_MATCH, WINDOW};
use crate::framebuffer::{covered, overlap, Framebuffer};

/// Tag space of the collective encoder.
const TAG_ROWS: u32 = 0x504E_0001;
const TAG_LANDING: u32 = 0x504E_0002;
const TAG_BAND: u32 = 0x504E_0003;

/// Fewest bytes of raw stream worth a rank of its own. At least
/// `WINDOW + MAX_MATCH`, so that what a band's parse reaches beyond
/// itself lies in the bands next to it and a landing position never
/// skips a band.
const MIN_BAND: usize = 256 * 1024;
const _: () = assert!(MIN_BAND >= WINDOW + MAX_MATCH);

/// CRC-32 (ISO 3309), as required by the PNG chunk format.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// `t[0]` is the bytewise table; `t[k][b]` carries byte `b` over `k`
/// further zero bytes, so eight table reads advance eight bytes.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (n, e) in t[0].iter_mut().enumerate() {
            let mut c = n as u32;
            for _ in 0..8 {
                let mask = (c & 1).wrapping_neg();
                c = (c >> 1) ^ (0xEDB8_8320 & mask);
            }
            *e = c;
        }
        for k in 1..8 {
            let (bytewise, before) = (t[0], t[k - 1]);
            for (e, c) in t[k].iter_mut().zip(before) {
                *e = (c >> 8) ^ bytewise[(c & 0xFF) as usize];
            }
        }
        t
    })
}

/// Slicing-by-8, like zlib's: the four bytes the running CRC is folded
/// into and the four after them are looked up independently.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = crc_tables();
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let head = (crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        crc = 0;
        for (k, &byte) in head.iter().chain(&b[4..]).enumerate() {
            crc ^= t[7 - k][byte as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Append one chunk, its payload written in place by `payload`: the
/// length is patched in and the CRC run over kind + payload where they
/// lie, so the payload is written once.
fn chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(kind);
    payload(out);
    let len = (out.len() - at - 8) as u32;
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
    let crc = crc32(&out[at + 4..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// A PNG file image of `width` × `height` 8-bit RGB whose zlib stream
/// `idat` writes.
fn file(width: usize, height: usize, idat: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A];
    chunk(&mut out, b"IHDR", |out| {
        out.extend_from_slice(&(width as u32).to_be_bytes());
        out.extend_from_slice(&(height as u32).to_be_bytes());
        out.extend_from_slice(&[8, 2, 0, 0, 0]); // 8-bit, RGB, deflate, adaptive, no interlace
    });
    chunk(&mut out, b"IDAT", idat);
    chunk(&mut out, b"IEND", |_| {});
    out
}

/// Bytes of one filtered scanline: the filter byte and `width` RGB pixels.
fn stride(width: usize) -> usize {
    1 + width * 3
}

/// Flatten `rows` of `fb` over `background` into `lines`, their stretch
/// of the filtered scanline stream: filter byte 0 (None), then the RGB
/// of each pixel, those at depth +∞ taking the background colour. The
/// one flatten path of both encoders.
fn fill_scanlines(lines: &mut [u8], fb: &Framebuffer, rows: Range<usize>, background: Color) {
    let width = fb.width();
    debug_assert_eq!(lines.len(), rows.len() * stride(width));
    debug_assert_eq!(overlap(&rows, &fb.rows()), rows, "rows the buffer holds");
    let background = [background.r, background.g, background.b];
    let first = fb.rows().start;
    let at = (rows.start - first) * width..(rows.end - first) * width;
    let pixels = fb.color()[at.clone()]
        .chunks_exact(width)
        .zip(fb.depth()[at].chunks_exact(width));
    // The row's colours are copied whole, then the clear pixels patched:
    // a select per pixel over 3-byte arrays does not vectorise.
    for (line, (colors, depths)) in lines.chunks_exact_mut(stride(width)).zip(pixels) {
        line[0] = 0;
        line[1..].copy_from_slice(colors.as_flattened());
        for (rgb, &d) in line[1..].as_chunks_mut::<3>().0.iter_mut().zip(depths) {
            if !covered(d) {
                *rgb = background;
            }
        }
    }
}

/// The zlib stream of the `n` bytes of raw stream that `fill` writes,
/// made here: one band. Stored mode has them written straight into the
/// file; fixed mode needs them beside it, as the parse's input.
fn zlib_serial(out: &mut Vec<u8>, n: usize, fill: impl FnOnce(&mut [u8]), mode: Mode) {
    out.extend_from_slice(&deflate::ZLIB_HEADER);
    let adler = match mode {
        Mode::Stored => {
            let mut adler = 0;
            deflate::deflate_stored(out, n, |raw| {
                fill(raw);
                adler = deflate::adler32(raw);
            });
            adler
        }
        Mode::Fixed => {
            let mut raw = vec![0; n];
            fill(&mut raw);
            Fixed::whole(out, &raw)
        }
    };
    out.extend_from_slice(&adler.to_be_bytes());
}

/// Encode 8-bit RGB pixels (`width*height*3` bytes, top row first) to a
/// PNG file image. `mode` selects the zlib strategy — the knob the
/// PHASTA discussion turns when it "skips the compression portion".
pub fn encode_rgb(width: usize, height: usize, rgb: &[u8], mode: Mode) -> Vec<u8> {
    assert_eq!(rgb.len(), width * height * 3, "pixel buffer size mismatch");
    assert!(width > 0 && height > 0, "degenerate image");
    // Raw image stream: one filter byte (0 = None) per scanline.
    let fill = |raw: &mut [u8]| {
        for (line, row) in raw
            .chunks_exact_mut(stride(width))
            .zip(rgb.chunks_exact(width * 3))
        {
            line[0] = 0;
            line[1..].copy_from_slice(row);
        }
    };
    serial(width, height, fill, mode)
}

/// Encode a framebuffer flattened over `background`, on this rank
/// alone: the scanline stream is written straight from the RGB pixels
/// and deflated as one band.
pub fn encode_framebuffer(fb: &Framebuffer, background: Color, mode: Mode) -> Vec<u8> {
    let (width, height) = (fb.width(), fb.height());
    let fill = |raw: &mut [u8]| fill_scanlines(raw, fb, 0..height, background);
    serial(width, height, fill, mode)
}

/// The file of the scanlines `fill` writes, encoded on this rank alone.
fn serial(width: usize, height: usize, fill: impl FnOnce(&mut [u8]), mode: Mode) -> Vec<u8> {
    let n = height * stride(width);
    file(width, height, |out| zlib_serial(out, n, fill, mode))
}

/// The collective encoder, and what a rank that deflates a band keeps in
/// its pool from one frame to the next, whatever scene encodes: the
/// deflate tables, its sliding buffer and the speculative parse's
/// buffers, and one scanline, for a row a chunk boundary cuts.
#[derive(Default)]
pub(crate) struct PngEncoder {
    fixed: Fixed,
    line: Vec<u8>,
}

/// Where a band's scanlines come from: the rows this rank owns,
/// flattened from its framebuffer as the parse pulls them, and the rows
/// other ranks flattened and sent, each with the rows it holds.
struct Scanlines<'a> {
    fb: &'a Framebuffer,
    background: Color,
    stride: usize,
    mine: Range<usize>,
    sent: Vec<(Range<usize>, Vec<u8>)>,
}

impl Scanlines<'_> {
    /// Write the stream's bytes `pos..pos + dst.len()`, each of them in
    /// a row this rank owns or was sent; `line` holds a row that `pos`
    /// or the end cuts.
    fn fill(&self, line: &mut Vec<u8>, mut pos: usize, mut dst: &mut [u8]) {
        let stride = self.stride;
        while !dst.is_empty() {
            let y = pos / stride;
            let (rows, lines) = match self.sent.iter().find(|(rows, _)| rows.contains(&y)) {
                Some((rows, lines)) => (rows, Some(lines)),
                None => (&self.mine, None),
            };
            debug_assert!(rows.contains(&y), "row {y} is neither owned nor sent");
            let take = (rows.end * stride - pos).min(dst.len());
            let (now, rest) = std::mem::take(&mut dst).split_at_mut(take);
            match lines {
                Some(lines) => {
                    let at = pos - rows.start * stride;
                    now.copy_from_slice(&lines[at..at + take]);
                }
                None => self.flatten(line, pos, now),
            }
            (pos, dst) = (pos + take, rest);
        }
    }

    /// Flatten the stream's bytes `pos..pos + dst.len()`, all in rows
    /// this rank owns: whole rows straight into `dst`, a cut one through
    /// `line`.
    fn flatten(&self, line: &mut Vec<u8>, pos: usize, dst: &mut [u8]) {
        let stride = self.stride;
        let (y, at) = (pos / stride, pos % stride);
        let row = |line: &mut Vec<u8>, y: usize| {
            line.resize(stride, 0);
            fill_scanlines(line, self.fb, y..y + 1, self.background);
        };
        let (head, dst) = if at == 0 {
            (0, dst)
        } else {
            let head = (stride - at).min(dst.len());
            row(line, y);
            dst[..head].copy_from_slice(&line[at..at + head]);
            (head, &mut dst[head..])
        };
        let first = (pos + head).div_ceil(stride);
        let whole = dst.len() / stride;
        let (rows, tail) = dst.split_at_mut(whole * stride);
        fill_scanlines(rows, self.fb, first..first + whole, self.background);
        if !tail.is_empty() {
            row(line, first + whole);
            tail.copy_from_slice(&line[..tail.len()]);
        }
    }
}

impl PngEncoder {
    /// Encode the image that `which` composited, flattened over
    /// `background`; collective, the file is returned on rank 0. `fb`
    /// is this rank's frame as the compositor left it short of the
    /// gather (`composite::merge`), holding the rows the rank kept: its
    /// rows that `which` assigns to the rank are final, and no other row
    /// is read. The bytes are
    /// those of [`encode_framebuffer`] on the gathered image in
    /// `Mode::Fixed`, deflated in up to `comm.size()` bands of at least
    /// `MIN_BAND` (256 KiB).
    ///
    /// A band's stream is never held whole: the parse pulls it through
    /// its sliding buffer (`deflate::SLIDE` bytes), flattening this
    /// rank's rows as it goes and copying the ones other ranks sent.
    pub(crate) fn encode(
        comm: &Comm,
        fb: &Framebuffer,
        which: Compositor,
        background: Color,
    ) -> Option<Vec<u8>> {
        let (p, me) = (comm.size(), comm.rank());
        let (width, height) = (fb.width(), fb.height());
        let stride = stride(width);
        let bands = (height / MIN_BAND.div_ceil(stride)).clamp(1, p);
        // Band `k`, and the rows whose scanlines its parse reads: its
        // own, those holding the `WINDOW` bytes before it and those
        // holding the `MAX_MATCH` after.
        let band = |k: usize| k * height / bands..(k + 1) * height / bands;
        let reads = |k: usize| {
            let band = band(k);
            (band.start * stride).saturating_sub(WINDOW) / stride
                ..(band.end * stride + MAX_MATCH).div_ceil(stride).min(height)
        };
        let owned = |r: usize| which.owned_rows(p, r, height);

        // Scanlines go where they are deflated, flattened straight into
        // the message. Sends are eager, so all of them first; every
        // receive names its source.
        for k in (0..bands).filter(|&k| k != me) {
            let rows = overlap(&reads(k), &owned(me));
            if !rows.is_empty() {
                let mut lines = vec![0; rows.len() * stride];
                fill_scanlines(&mut lines, fb, rows, background);
                comm.send(k, TAG_ROWS, lines);
            }
        }
        if me >= bands {
            return None;
        }
        let mut encoder = comm.spare::<PngEncoder>().unwrap_or_default();
        // Positions are the stream's: the parse does not care that this
        // rank holds only the stretch it reads.
        let reads = reads(me);
        let sent = (0..p)
            .filter(|&r| r != me)
            .map(|r| (overlap(&reads, &owned(r)), r))
            .filter(|(rows, _)| !rows.is_empty())
            .map(|(rows, r)| (rows, comm.recv(r, TAG_ROWS)))
            .collect();
        let mine = overlap(&reads, &owned(me));
        let scanlines = Scanlines {
            fb,
            background,
            stride,
            mine,
            sent,
        };
        let PngEncoder { fixed, line } = &mut encoder;
        line.clear(); // then the widest scanline yet, exactly
        line.reserve_exact(stride);
        let mut fill = |pos: usize, dst: &mut [u8]| scanlines.fill(line, pos, dst);
        let mut input = Input {
            horizon: reads.end * stride,
            fill: &mut fill,
        };
        let (cut, end) = (band(me).start * stride, band(me).end * stride);
        let png = if me > 0 {
            // Parse from the cut while the bands before do the same,
            // then settle the junction and pass the landing on.
            let adler = fixed.speculate(&mut input, cut, end);
            let landing: usize = comm.recv(me - 1, TAG_LANDING);
            let mut bits = Vec::new();
            let mut w = BitWriter::on(&mut bits);
            let (landing, [tokens, bytes]) = fixed.join(&mut w, &mut input, landing, end);
            let len = w.finish();
            comm.probe().bulk("render/junction", 1, tokens, bytes);
            if me + 1 < bands {
                comm.send(me + 1, TAG_LANDING, landing);
            }
            comm.send(0, TAG_BAND, (bits, len, adler));
            None
        } else {
            Some(file(width, height, |out| {
                out.extend_from_slice(&deflate::ZLIB_HEADER);
                let mut w = BitWriter::on(out);
                Fixed::begin(&mut w);
                let (landing, mut adler) = fixed.lead(&mut w, &mut input, end);
                if bands > 1 {
                    comm.send(1, TAG_LANDING, landing);
                }
                for k in 1..bands {
                    let (bits, len, theirs): (Vec<u8>, u64, u32) = comm.recv(k, TAG_BAND);
                    w.append(&bits, 0, len);
                    adler = deflate::adler32_combine(adler, theirs, band(k).len() * stride);
                }
                Fixed::end(w);
                out.extend_from_slice(&adler.to_be_bytes());
            }))
        };
        comm.keep(encoder, 1);
        png
    }
}

/// PNG decode errors.
#[derive(Debug, PartialEq, Eq)]
pub enum PngError {
    /// Missing or wrong signature.
    BadSignature,
    /// Chunk structure invalid or CRC mismatch.
    BadChunk,
    /// Unsupported format (we only decode our own 8-bit RGB output).
    Unsupported,
    /// zlib/deflate decode failure.
    BadData,
}

/// Decode a PNG produced by [`encode_rgb`] back to
/// `(width, height, rgb)`. Verifies signature, chunk CRCs, and the zlib
/// checksum — a real structural validation of the writer.
pub fn decode_rgb(png: &[u8]) -> Result<(usize, usize, Vec<u8>), PngError> {
    if png.len() < 8 || png[..8] != [0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A] {
        return Err(PngError::BadSignature);
    }
    let mut pos = 8;
    let mut width = 0usize;
    let mut height = 0usize;
    let mut idat = Vec::new();
    while pos + 12 <= png.len() {
        let len = be_u32(&png[pos..pos + 4]) as usize;
        let kind = &png[pos + 4..pos + 8];
        if pos + 12 + len > png.len() {
            return Err(PngError::BadChunk);
        }
        let payload = &png[pos + 8..pos + 8 + len];
        let want_crc = be_u32(&png[pos + 8 + len..pos + 12 + len]);
        if crc32(&png[pos + 4..pos + 8 + len]) != want_crc {
            return Err(PngError::BadChunk);
        }
        match kind {
            b"IHDR" => {
                if len != 13 || payload[8] != 8 || payload[9] != 2 {
                    return Err(PngError::Unsupported);
                }
                width = be_u32(&payload[0..4]) as usize;
                height = be_u32(&payload[4..8]) as usize;
            }
            b"IDAT" => idat.extend_from_slice(payload),
            b"IEND" => break,
            _ => {} // ancillary chunks ignored
        }
        pos += 12 + len;
    }
    if width == 0 || height == 0 {
        return Err(PngError::BadChunk);
    }
    // The scanline stream's length, unless the header's size has none.
    let stride = width.checked_mul(3).and_then(|n| n.checked_add(1));
    let Some((stride, n)) = stride.and_then(|s| Some((s, height.checked_mul(s)?))) else {
        return Err(PngError::BadChunk);
    };
    let raw = deflate::zlib_decompress(&idat).map_err(|_| PngError::BadData)?;
    if raw.len() != n {
        return Err(PngError::BadData);
    }
    let mut rgb = Vec::with_capacity(n - height);
    for row in raw.chunks(stride) {
        if row[0] != 0 {
            return Err(PngError::Unsupported); // we only write filter 0
        }
        rgb.extend_from_slice(&row[1..]);
    }
    Ok((width, height, rgb))
}

/// The big-endian number in `bytes`, four of them where it is called.
fn be_u32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0, |n, &b| n << 8 | u32::from(b))
}

#[cfg(test)]
impl PngEncoder {
    /// Heap bytes it holds between frames: its deflate tables, sliding
    /// buffer and scanline, and its speculative parse's bit string and
    /// junction log (`Fixed::held`).
    pub(crate) fn held(&self) -> [usize; 2] {
        let [tables, spec] = self.fixed.held();
        [tables + self.line.capacity(), spec]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::{composite, merge};
    use minimpi::World;

    fn gradient(w: usize, h: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                rgb.push((x * 255 / w.max(1)) as u8);
                rgb.push((y * 255 / h.max(1)) as u8);
                rgb.push(60);
            }
        }
        rgb
    }

    #[test]
    fn crc32_known_value() {
        // The canonical test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A chunk's CRC is streamed over kind, then payload.
        let streamed = crc32_update(crc32_update(0xFFFF_FFFF, b"1234"), b"56789");
        assert_eq!(streamed ^ 0xFFFF_FFFF, 0xCBF4_3926);
    }

    #[test]
    fn crc32_sliced_equals_bitwise_at_every_tail_length() {
        let bitwise = |data: &[u8]| {
            !data.iter().fold(!0u32, |crc, &b| {
                (0..8).fold(crc ^ b as u32, |c, _| {
                    (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
                })
            })
        };
        let data: Vec<u8> = (0..100u32).map(|k| (k * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "{len} bytes");
            // Streamed in two pieces that do not respect the 8-byte blocks.
            let (a, b) = data[..len].split_at(len / 3);
            let streamed = crc32_update(crc32_update(0xFFFF_FFFF, a), b) ^ 0xFFFF_FFFF;
            assert_eq!(streamed, bitwise(&data[..len]));
        }
    }

    #[test]
    fn roundtrip_stored_and_fixed() {
        for mode in [Mode::Stored, Mode::Fixed] {
            let rgb = gradient(37, 23);
            let png = encode_rgb(37, 23, &rgb, mode);
            let (w, h, back) = decode_rgb(&png).unwrap();
            assert_eq!((w, h), (37, 23));
            assert_eq!(back, rgb, "{mode:?}");
        }
    }

    #[test]
    fn compression_shrinks_pseudocolor_like_images() {
        // Pseudocolor slices have large constant-color regions (discrete
        // colormap bands), which LZ77 compresses well.
        let (w, h) = (320usize, 200usize);
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                let band = (((x / 20) + (y / 25)) % 16) as u8;
                rgb.extend_from_slice(&[band * 16, 255 - band * 16, 40]);
            }
        }
        let stored = encode_rgb(w, h, &rgb, Mode::Stored);
        let fixed = encode_rgb(w, h, &rgb, Mode::Fixed);
        assert!(
            fixed.len() < stored.len() / 4,
            "fixed {} vs stored {}",
            fixed.len(),
            stored.len()
        );
        // Smooth per-pixel gradients (the worst case for filter-0 rows)
        // still never expand beyond stored size plus framing.
        let grad = gradient(w, h);
        let g_fixed = encode_rgb(w, h, &grad, Mode::Fixed);
        let g_stored = encode_rgb(w, h, &grad, Mode::Stored);
        assert!(g_fixed.len() < g_stored.len());
    }

    #[test]
    fn framebuffer_encode_uses_background() {
        // A drawn black pixel is covered: only depth +∞ takes the
        // background.
        let mut fb = Framebuffer::new(3, 1);
        fb.set_pixel(0, 0, 0.0, Color::rgb(1, 2, 3));
        fb.set_pixel(1, 0, 0.5, Color::BLACK);
        let png = encode_framebuffer(&fb, Color::rgb(9, 9, 9), Mode::Stored);
        let (_, _, rgb) = decode_rgb(&png).unwrap();
        assert_eq!(rgb, vec![1, 2, 3, 0, 0, 0, 9, 9, 9]);
    }

    /// Every rank paints most pixels, at a depth that makes a different
    /// rank the closest from pixel to pixel, in flat runs with noisy
    /// stretches between them: long matches, literals, transparency.
    fn layer(rank: usize, p: usize, w: usize, h: usize) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let front = (x / 9 + y / 5) % p;
                let z = ((rank + p - front) % p) as f32 + 0.25;
                let noisy = (x / 40 + y / 3) % 4 == 0;
                let shade = if noisy {
                    (x * 31 + y * 17) as u8
                } else {
                    (y / 7) as u8
                };
                if !(x / 3 + 2 * y + rank).is_multiple_of(11) {
                    fb.set_pixel(
                        x,
                        y,
                        z,
                        Color::rgb(rank as u8 * 30 + 1, shade, (x / 50) as u8),
                    );
                }
            }
        }
        fb
    }

    /// The collective's file on `p` ranks, twice through each rank's
    /// pooled encoder, against `encode_framebuffer` of the gathered
    /// image.
    fn assert_collective_is_serial(which: Compositor, p: usize, size: (usize, usize)) {
        assert_streamed_is_serial(which, p, size, false);
    }

    /// [`assert_collective_is_serial`] over `layer`'s frames, or, if
    /// `flat`, over frames nothing is drawn into, on black: a stream of
    /// zero bytes, where a junction's re-parse never meets the
    /// speculative parse.
    fn assert_streamed_is_serial(which: Compositor, p: usize, (w, h): (usize, usize), flat: bool) {
        let background = if flat {
            Color::BLACK
        } else {
            Color::rgb(250, 240, 230)
        };
        let frame = move |rank: usize| {
            if flat {
                Framebuffer::new(w, h)
            } else {
                layer(rank, p, w, h)
            }
        };
        let out = World::run(p, move |comm| {
            let files: Vec<_> = (0..2)
                .map(|_| {
                    let kept = which.kept_rows(p, comm.rank(), h);
                    let mut fb = Framebuffer::with_rows(w, h, kept);
                    merge(comm, &mut fb, &frame(comm.rank()), which);
                    PngEncoder::encode(comm, &fb, which, background)
                })
                .collect();
            let gathered = composite(comm, frame(comm.rank()), which);
            (
                files,
                gathered.map(|fb| encode_framebuffer(&fb, background, Mode::Fixed)),
            )
        });
        let what = format!("{which:?} p={p} {w}x{h} flat={flat}");
        let mut ranks = out.into_iter();
        let (files, serial) = ranks.next().expect("rank 0");
        let serial = serial.expect("rank 0 holds the gathered image");
        for file in files {
            assert!(file.expect("rank 0 gets the file") == serial, "{what}");
        }
        // Header, Adler-32 and chunk CRCs of the spliced stream verify.
        let (dw, dh, rgb) = decode_rgb(&serial).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        assert_eq!((dw, dh, rgb.len()), (w, h, w * h * 3), "{what}");
        for (files, serial) in ranks {
            assert!(
                files.iter().all(Option::is_none) && serial.is_none(),
                "{what}"
            );
        }
    }

    const COMPOSITORS: [Compositor; 2] = [Compositor::BinarySwap, Compositor::DirectSendTree(2)];

    #[test]
    fn collective_file_is_the_serial_file_at_every_rank_count() {
        // One band on the root; two bands that the owners' rows have to
        // reach (stride 1537: 171 rows to a band).
        for size in [(64, 64), (512, 512)] {
            for which in COMPOSITORS {
                for p in 1..=8 {
                    assert_collective_is_serial(which, p, size);
                }
            }
        }
    }

    #[test]
    fn collective_file_is_the_serial_file_where_halving_and_bands_disagree() {
        // Stride 121: 2 167 rows to a band, eight bands. Binary swap's
        // eighths of 17 341 rows are not the even split's (rank 4 holds
        // rows 8670..10837, band 4 is 8670..10838), so a whole row
        // changes hands on top of the halos; at 3 and 5 ranks the bands
        // outnumber the owners.
        let size = (40, 8 * 2167 + 5);
        for which in COMPOSITORS {
            for p in [3, 5, 8] {
                assert_collective_is_serial(which, p, size);
            }
        }
        let swap = |r| Compositor::BinarySwap.owned_rows(8, r, size.1);
        assert!(
            (0..8).any(|r| swap(r) != (r * size.1 / 8..(r + 1) * size.1 / 8)),
            "the case this test is for"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The streamed collective's file is `encode_framebuffer`'s, byte
        /// for byte: 1–8 ranks under either compositor, any stride, and
        /// streams of one to three bands, so that at most rank counts the
        /// bands are fewer than the ranks. A slide falls wherever the
        /// parse stands, at any offset of a row. Flat frames make a zero
        /// stream, whose junctions re-parse to the band's end through
        /// bytes the speculative parse slid past.
        #[test]
        fn streamed_file_is_the_serial_file(
            width in 1usize..400,
            bytes in MIN_BAND / 2..3 * MIN_BAND,
            p in 1usize..9,
            tree in proptest::prelude::any::<bool>(),
            flat in proptest::prelude::any::<bool>(),
        ) {
            let which = COMPOSITORS[usize::from(tree)];
            let height = (bytes / stride(width)).max(p);
            assert_streamed_is_serial(which, p, (width, height), flat);
        }
    }

    #[test]
    fn a_flat_frame_is_the_serial_file_at_every_rank_count() {
        // 1 024 × 256 at stride 3 073: three bands of zero bytes, cut at
        // rows 85 and 170, 5 − 1 and 5 + 205 bytes past a multiple of
        // 258 from position 1, so neither junction meets.
        for which in COMPOSITORS {
            for p in 1..=8 {
                assert_streamed_is_serial(which, p, (1024, 256), true);
            }
        }
    }

    #[test]
    fn scanlines_are_pulled_at_every_offset_of_a_row() {
        // Stride 16: rows 0..4 are this rank's, flattened as they are
        // pulled; rows 4..9 came from another rank, as lines.
        let (w, h) = (5, 9);
        let fb = layer(0, 2, w, h);
        let background = Color::rgb(1, 2, 3);
        let s = stride(w);
        let mut stream = vec![0; h * s];
        fill_scanlines(&mut stream, &fb, 0..h, background);
        let scanlines = Scanlines {
            fb: &fb,
            background,
            stride: s,
            mine: 0..4,
            sent: vec![(4..9, stream[4 * s..].to_vec())],
        };
        let mut line = Vec::new();
        for pos in 0..h * s {
            for len in 0..=(h * s - pos).min(3 * s) {
                let mut pulled = vec![0xAA; len];
                scanlines.fill(&mut line, pos, &mut pulled);
                assert_eq!(pulled, stream[pos..pos + len], "{len} bytes at {pos}");
            }
        }
    }

    #[test]
    fn signature_and_structure_validated() {
        let rgb = gradient(4, 4);
        let mut png = encode_rgb(4, 4, &rgb, Mode::Fixed);
        assert_eq!(decode_rgb(&png[1..]), Err(PngError::BadSignature));
        // Corrupt a payload byte inside IHDR → CRC failure.
        png[16] ^= 0xFF;
        assert_eq!(decode_rgb(&png), Err(PngError::BadChunk));
    }

    /// A chunk of `kind` around `payload`, with its length and CRC.
    fn chunk(kind: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(kind);
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(&out[4..]).to_be_bytes());
        out
    }

    #[test]
    fn a_header_whose_stream_length_overflows_is_refused() {
        // 0xFFFF_FFFF × 0xFFFF_FFFF RGB: valid CRCs and a valid, short
        // IDAT, but `height * (1 + 3 * width)` is beyond `usize`. Once
        // this panicked with "attempt to multiply with overflow".
        let mut ihdr = [0xFF; 13];
        ihdr[8..].copy_from_slice(&[8, 2, 0, 0, 0]);
        let mut png = encode_rgb(1, 1, &[1, 2, 3], Mode::Stored)[..8].to_vec();
        png.extend(chunk(b"IHDR", &ihdr));
        png.extend(chunk(
            b"IDAT",
            &deflate::zlib_compress(&[0, 1, 2, 3], Mode::Stored),
        ));
        png.extend(chunk(b"IEND", &[]));
        assert_eq!(decode_rgb(&png), Err(PngError::BadChunk));
        // The same file at 1 × 1 decodes: only the size is at fault.
        png[16..24].copy_from_slice(&[0, 0, 0, 1, 0, 0, 0, 1]);
        let crc = crc32(&png[12..29]).to_be_bytes();
        png[29..33].copy_from_slice(&crc);
        assert_eq!(decode_rgb(&png), Ok((1, 1, vec![1, 2, 3])));
    }

    #[test]
    fn single_pixel_image() {
        let png = encode_rgb(1, 1, &[255, 0, 127], Mode::Fixed);
        let (w, h, rgb) = decode_rgb(&png).unwrap();
        assert_eq!((w, h, rgb), (1, 1, vec![255, 0, 127]));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_buffer_size_panics() {
        let _ = encode_rgb(4, 4, &[0; 10], Mode::Stored);
    }
}
