//! Minimal PNG encoding (and decoding of our own files) over the
//! from-scratch zlib. 8-bit RGB, filter type 0 per scanline — the same
//! "render, compress on rank 0, write" path the paper's slice pipelines
//! take.

use crate::color::Color;
use crate::deflate::{self, Mode};
use crate::framebuffer::Framebuffer;

/// CRC-32 (ISO 3309), as required by the PNG chunk format.
/// Table-driven, like zlib's implementation.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (n, e) in t.iter_mut().enumerate() {
            let mut c = n as u32;
            for _ in 0..8 {
                let mask = (c & 1).wrapping_neg();
                c = (c >> 1) ^ (0xEDB8_8320 & mask);
            }
            *e = c;
        }
        t
    })
}

fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let table = crc_table();
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

fn chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(payload);
    let crc = crc32_update(crc32_update(0xFFFF_FFFF, kind), payload) ^ 0xFFFF_FFFF;
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Wrap a filtered scanline stream (`height` rows of one filter byte +
/// `width` RGB pixels) into a PNG file image.
fn encode_scanlines(width: usize, height: usize, raw: &[u8], mode: Mode) -> Vec<u8> {
    debug_assert_eq!(raw.len(), height * (1 + width * 3));
    let mut out = Vec::new();
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);

    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&(width as u32).to_be_bytes());
    ihdr.extend_from_slice(&(height as u32).to_be_bytes());
    ihdr.extend_from_slice(&[8, 2, 0, 0, 0]); // 8-bit, RGB, deflate, adaptive, no interlace
    chunk(&mut out, b"IHDR", &ihdr);
    chunk(&mut out, b"IDAT", &deflate::zlib_compress(raw, mode));
    chunk(&mut out, b"IEND", &[]);
    out
}

/// Encode 8-bit RGB pixels (`width*height*3` bytes, top row first) to a
/// PNG file image. `mode` selects the zlib strategy — the knob the
/// PHASTA discussion turns when it "skips the compression portion".
pub fn encode_rgb(width: usize, height: usize, rgb: &[u8], mode: Mode) -> Vec<u8> {
    assert_eq!(rgb.len(), width * height * 3, "pixel buffer size mismatch");
    assert!(width > 0 && height > 0, "degenerate image");
    // Raw image stream: one filter byte (0 = None) per scanline.
    let mut raw = Vec::with_capacity(height * (1 + width * 3));
    for row in rgb.chunks(width * 3) {
        raw.push(0);
        raw.extend_from_slice(row);
    }
    encode_scanlines(width, height, &raw, mode)
}

/// Encode a framebuffer flattened over `background`: the scanline stream
/// is written straight from the RGBA pixels, transparent ones taking the
/// background colour.
pub fn encode_framebuffer(fb: &Framebuffer, background: Color, mode: Mode) -> Vec<u8> {
    let (width, height) = (fb.width(), fb.height());
    let background = [background.r, background.g, background.b];
    let stride = 1 + width * 3;
    let mut raw = vec![0; height * stride]; // filter byte 0 = None
    for (line, row) in raw
        .chunks_exact_mut(stride)
        .zip(fb.color.chunks_exact(width))
    {
        for (rgb, px) in line[1..].chunks_exact_mut(3).zip(row) {
            rgb.copy_from_slice(if px[3] == 0 { &background } else { &px[..3] });
        }
    }
    encode_scanlines(width, height, &raw, mode)
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
        let len = u32::from_be_bytes(png[pos..pos + 4].try_into().unwrap()) as usize;
        let kind = &png[pos + 4..pos + 8];
        if pos + 12 + len > png.len() {
            return Err(PngError::BadChunk);
        }
        let payload = &png[pos + 8..pos + 8 + len];
        let want_crc = u32::from_be_bytes(png[pos + 8 + len..pos + 12 + len].try_into().unwrap());
        if crc32(&png[pos + 4..pos + 8 + len]) != want_crc {
            return Err(PngError::BadChunk);
        }
        match kind {
            b"IHDR" => {
                if len != 13 || payload[8] != 8 || payload[9] != 2 {
                    return Err(PngError::Unsupported);
                }
                width = u32::from_be_bytes(payload[0..4].try_into().unwrap()) as usize;
                height = u32::from_be_bytes(payload[4..8].try_into().unwrap()) as usize;
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
    let raw = deflate::zlib_decompress(&idat).map_err(|_| PngError::BadData)?;
    let stride = 1 + width * 3;
    if raw.len() != height * stride {
        return Err(PngError::BadData);
    }
    let mut rgb = Vec::with_capacity(width * height * 3);
    for row in raw.chunks(stride) {
        if row[0] != 0 {
            return Err(PngError::Unsupported); // we only write filter 0
        }
        rgb.extend_from_slice(&row[1..]);
    }
    Ok((width, height, rgb))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut fb = Framebuffer::new(2, 1);
        fb.set_pixel(0, 0, 0.0, Color::rgb(1, 2, 3));
        let png = encode_framebuffer(&fb, Color::rgb(9, 9, 9), Mode::Stored);
        let (_, _, rgb) = decode_rgb(&png).unwrap();
        assert_eq!(rgb, vec![1, 2, 3, 9, 9, 9]);
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
