//! Golden-image regression test for the distributed render pipeline:
//! a seeded oscillator run renders one pseudocolor slice and one shaded
//! isosurface, and the digests of the framebuffers and of their PNG
//! files (flattened as Catalyst and Libsim do, over white and over
//! black) must match the checked-in goldens in
//! `tests/golden/render_digests.json`. The same run drives the two
//! adaptors end to end — Catalyst's slice, and a Libsim session of an
//! isosurface and a slice — and their files are pinned too.
//!
//! A framebuffer mismatch means a rendering change — rasterization,
//! colormap, compositing, or the simulation field itself; a PNG
//! mismatch alone means the encoder's *bytes* moved (scanline stream,
//! DEFLATE parse, chunk framing), which a round-trip test cannot see.
//! When the
//! change is intentional, regenerate the goldens with
//! `scripts/regen_goldens.sh` (which runs this test and `tests/counts.rs`
//! with `GOLDEN_REGEN=1`) and commit the diff.

use minimpi::{SchedPolicy, WorldBuilder};
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use render::camera::Camera;
use render::color::{Color, Colormap};
use render::composite::Compositor;
use render::deflate::Mode;
use render::framebuffer::Framebuffer;
use render::pipeline::{pseudocolor_slice, shaded_isosurface, IsosurfaceRender, SliceRender};
use render::png::encode_framebuffer;
use sensei::AnalysisAdaptor;

const GRID: [usize; 3] = [17, 17, 17];

fn digest_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/render_digests.json")
}

/// FNV-1a 64-bit: tiny, stable, dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest of everything a framebuffer holds: each pixel's RGBA, its
/// alpha read from coverage (`Framebuffer::pixel`), and the exact bit
/// patterns of the depth buffer.
fn framebuffer_digest(fb: &Framebuffer) -> u64 {
    let mut bytes = Vec::with_capacity(fb.color().len() * 8);
    for y in 0..fb.height() {
        for x in 0..fb.width() {
            let Color { r, g, b, a } = fb.pixel(x, y);
            bytes.extend_from_slice(&[r, g, b, a]);
        }
    }
    for d in fb.depth() {
        bytes.extend_from_slice(&d.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The golden file's keys, in the order [`render_goldens`] returns them.
const KEYS: [&str; 6] = [
    "slice",
    "isosurface",
    "slice_png",
    "isosurface_png",
    "catalyst_png",
    "libsim_png",
];

/// Render the golden oscillator deck at 4 ranks under a fixed schedule
/// seed; return rank 0's digests, one per entry of [`KEYS`].
fn render_goldens() -> [u64; 6] {
    let d = format_deck(&demo_oscillators());
    let out = WorldBuilder::new(4)
        .sched(SchedPolicy::Seeded(11))
        .run(move |comm| {
            let cfg = SimConfig {
                grid: GRID,
                steps: 2,
                ..SimConfig::default()
            };
            let root = (comm.rank() == 0).then_some(d.as_str());
            let mut sim = Simulation::new(comm, cfg, root);
            for _ in 0..2 {
                sim.step(comm);
            }
            let local = sim.local_extent();
            let global = sim.global_extent();
            let field = sim.field();

            let slice = pseudocolor_slice(
                comm,
                &local,
                &global,
                &field[..],
                &SliceRender {
                    axis: 2,
                    global_index: 8,
                    width: 96,
                    height: 72,
                    compositor: Compositor::BinarySwap,
                    cmap: Colormap::cool_warm(),
                },
            );

            // Isovalues placed inside the global data range so the
            // surfaces always exist.
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in field.iter() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let glo = comm.allreduce_scalar(lo, f64::min);
            let ghi = comm.allreduce_scalar(hi, f64::max);
            let iso = shaded_isosurface(
                comm,
                &local,
                &field[..],
                &IsosurfaceRender {
                    isovalues: vec![glo + 0.35 * (ghi - glo), glo + 0.7 * (ghi - glo)],
                    camera: Camera::look_at(
                        [8.0, 8.0, -22.0],
                        [8.0, 8.0, 8.0],
                        [0.0, 1.0, 0.0],
                        0.9,
                    ),
                    width: 96,
                    height: 96,
                    compositor: Compositor::BinarySwap,
                    cmap: Colormap::viridis(),
                    origin: [0.0; 3],
                    spacing: sim.spacing(),
                },
            );

            // The adaptors over the same step, each through its own
            // configuration of the render stack.
            let mut pipe = catalyst::SlicePipeline::new("data", 2, 8);
            (pipe.width, pipe.height) = (96, 72);
            let mut catalyst = catalyst::CatalystSliceAnalysis::new(pipe);
            let session = libsim::Session::parse(
                "image 96 96\nplot isosurface data levels=0.35,0.55,0.75\nplot pseudocolor data axis=z index=8\n",
            )
            .expect("session");
            let mut libsim = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
            let data = OscillatorAdaptor::new(&sim);
            catalyst.execute(&data, comm);
            libsim.execute(&data, comm);
            assert!(catalyst.take_failures().is_empty() && libsim.take_failures().is_empty());
            let adaptors = (catalyst.png_handle().lock().clone())
                .zip(libsim.png_handle().lock().clone());

            match (slice, iso, adaptors) {
                (Some(s), Some(i), Some((catalyst_png, libsim_png))) => {
                    assert_eq!(s.covered_pixels(), 96 * 72, "slice plane fully painted");
                    assert!(i.covered_pixels() > 0, "isosurface rendered something");
                    Some([
                        framebuffer_digest(&s),
                        framebuffer_digest(&i),
                        fnv1a(&encode_framebuffer(&s, Color::WHITE, Mode::Fixed)),
                        fnv1a(&encode_framebuffer(&i, Color::BLACK, Mode::Fixed)),
                        fnv1a(&catalyst_png),
                        fnv1a(&libsim_png),
                    ])
                }
                _ => None,
            }
        });
    out.into_iter().flatten().next().expect("rank 0 digests")
}

fn parse_digest(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\"");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("golden file has no \"{key}\" entry"));
    let rest = &json[at + pat.len()..];
    let hex: String = rest
        .chars()
        .skip_while(|c| !c.is_ascii_hexdigit())
        .take_while(|c| c.is_ascii_hexdigit())
        .collect();
    u64::from_str_radix(&hex, 16).expect("golden digest is hex")
}

#[test]
fn rendered_images_match_checked_in_digests() {
    let digests = render_goldens();
    let path = digest_path();
    if std::env::var("GOLDEN_REGEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let entries: Vec<String> = KEYS
            .iter()
            .zip(digests)
            .map(|(key, digest)| format!("  \"{key}\": \"{digest:016x}\""))
            .collect();
        std::fs::write(&path, format!("{{\n{}\n}}\n", entries.join(",\n"))).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run scripts/regen_goldens.sh to create it",
            path.display()
        )
    });
    for (key, digest) in KEYS.iter().zip(digests) {
        assert_eq!(
            digest,
            parse_digest(&json, key),
            "{key} changed; if intentional, run scripts/regen_goldens.sh"
        );
    }
}

/// The golden render itself is reproducible: two seeded runs digest
/// identically, so a golden mismatch always means a code change, never
/// schedule noise.
#[test]
fn golden_render_is_deterministic() {
    assert_eq!(render_goldens(), render_goldens());
}
