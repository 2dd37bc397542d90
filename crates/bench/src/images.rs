//! Regeneration of the paper's image figures (13, 14, 18) as real
//! renders from the proxies, written as PNG files.

use std::cell::Cell;
use std::path::Path;

use catalyst::{CatalystSliceAnalysis, SlicePipeline};
use datamodel::DataSet;
use libsim::{LibsimAnalysis, Session};
use minimpi::World;
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use render::color::{Color, Colormap};
use render::composite::Compositor::BinarySwap;
use render::scene::{Leaf, Plot, Scene};
use science::{
    Leslie, LeslieAdaptor, LeslieConfig, Nyx, NyxAdaptor, NyxConfig, Phasta, PhastaAdaptor,
    PhastaConfig,
};
use sensei::analysis::leaf_views;
use sensei::AnalysisAdaptor as _;
use sensei::{Association, DataAdaptor as _};

/// Render a Catalyst slice of the oscillator miniapp (quickstart image).
pub(crate) fn render_oscillator_slice(dir: &Path) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("create image dir");
    let dir2 = dir.to_path_buf();
    let deck = format_deck(&demo_oscillators());
    World::run(4, move |comm| {
        let cfg = SimConfig {
            grid: [33, 33, 33],
            steps: 10,
            ..SimConfig::default()
        };
        let root_deck = if comm.rank() == 0 {
            Some(deck.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root_deck);
        let mut pipe = SlicePipeline::new("data", 2, 16);
        pipe.width = 640;
        pipe.height = 480;
        pipe.output = Some(dir2.clone());
        let mut analysis = CatalystSliceAnalysis::new(pipe);
        for _ in 0..10 {
            sim.step(comm);
        }
        analysis.execute(&OscillatorAdaptor::new(&sim), comm);
    });
    dir.join("slice_00010.png")
}

/// Fig. 14 — the TML's evolution: Libsim renders (isosurfaces + slices)
/// at an early and a later step.
pub(crate) fn render_leslie_evolution(dir: &Path) -> Vec<std::path::PathBuf> {
    std::fs::create_dir_all(dir).expect("create image dir");
    let dir2 = dir.to_path_buf();
    World::run(2, move |comm| {
        let mut sim = Leslie::new(
            comm,
            LeslieConfig {
                grid: [32, 33, 16],
                epsilon: 0.15,
                ..LeslieConfig::default()
            },
        );
        let session = Session::parse(
            "image 480 480\nfrequency 1\nplot isosurface vorticity levels=0.4,0.6\nplot pseudocolor vorticity axis=z index=4\n",
        )
        .expect("session");
        let mut libsim = LibsimAnalysis::new(session, Path::new("/nonexistent/.visitrc"))
            .with_output_dir(dir2.clone());
        // Early state.
        libsim.execute(&LeslieAdaptor::new(&sim), comm);
        // Evolve and render again.
        for _ in 0..30 {
            sim.step(comm);
        }
        libsim.execute(&LeslieAdaptor::new(&sim), comm);
    });
    vec![dir.join("libsim_00000.png"), dir.join("libsim_00030.png")]
}

/// Fig. 18 — Nyx density slices at two separated steps (feature
/// tracking needs the in-between frames in situ provides).
pub(crate) fn render_nyx_slices(dir: &Path) -> Vec<std::path::PathBuf> {
    std::fs::create_dir_all(dir).expect("create image dir");
    let dir2 = dir.to_path_buf();
    World::run(4, move |comm| {
        let mut sim = Nyx::new(
            comm,
            NyxConfig {
                grid: [24, 24, 24],
                sigma_v: 0.3,
                ..NyxConfig::default()
            },
        );
        let mut pipe = SlicePipeline::new("density", 2, 12);
        pipe.width = 480;
        pipe.height = 480;
        pipe.output = Some(dir2.clone());
        let mut analysis = CatalystSliceAnalysis::new(pipe);
        analysis.execute(&NyxAdaptor::new(&sim), comm);
        for _ in 0..8 {
            sim.step(comm);
        }
        analysis.execute(&NyxAdaptor::new(&sim), comm);
    });
    vec![dir.join("slice_00000.png"), dir.join("slice_00008.png")]
}

/// Fig. 13 — PHASTA slice through the wing: a scene of one cut of the
/// tet mesh at z = 0.3 (through the tail), pseudocoloured by velocity
/// magnitude.
pub(crate) fn render_phasta_cut(dir: &Path) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("create image dir");
    let dir2 = dir.to_path_buf();
    World::run(2, move |comm| {
        let mut sim = Phasta::new(comm, PhastaConfig::default());
        for _ in 0..20 {
            sim.step(comm);
        }
        let plot = Plot::Cut {
            axis: 2,
            at: 0.3,
            cmap: Colormap::cool_warm(),
        };
        let mut scene = Scene::new(
            "phasta_cut",
            (640, 320),
            BinarySwap,
            Color::WHITE,
            vec![plot],
        );
        scene.output = Some(dir2.clone());
        let adaptor = PhastaAdaptor::new(&sim);
        let mesh = adaptor.full_mesh();
        let views = leaf_views(&mesh, Association::Point, "velmag").expect("velmag");
        let DataSet::Unstructured(grid) = &mesh else {
            panic!("PHASTA's mesh is unstructured")
        };
        let leaf = (Leaf::Unstructured(grid), &views[0].values[..]);
        let frame = scene.frame(comm, adaptor.step(), Some(leaf), &Cell::new(None));
        if let Some((_, written)) = frame {
            written.expect("write phasta cut");
        }
    });
    dir.join("phasta_cut_00020.png")
}

/// Render every paper image figure into `dir`; returns the paths.
pub fn render_all(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut out = vec![render_oscillator_slice(dir)];
    out.extend(render_leslie_evolution(dir));
    out.extend(render_nyx_slices(dir));
    out.push(render_phasta_cut(dir));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use render::png::decode_rgb;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bench_img_{}_{tag}", std::process::id()))
    }

    #[test]
    fn oscillator_slice_png_is_valid() {
        let dir = tmp("osc");
        let path = render_oscillator_slice(&dir);
        let bytes = std::fs::read(&path).expect("png exists");
        let (w, h, _) = decode_rgb(&bytes).expect("valid png");
        assert_eq!((w, h), (640, 480));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leslie_evolution_frames_differ() {
        let dir = tmp("leslie");
        let paths = render_leslie_evolution(&dir);
        let a = std::fs::read(&paths[0]).unwrap();
        let b = std::fs::read(&paths[1]).unwrap();
        let (_, _, rgb_a) = decode_rgb(&a).unwrap();
        let (_, _, rgb_b) = decode_rgb(&b).unwrap();
        assert_ne!(rgb_a, rgb_b, "the flow evolved between frames");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn phasta_cut_shows_wake_structure() {
        let dir = tmp("phasta");
        let path = render_phasta_cut(&dir);
        let bytes = std::fs::read(&path).unwrap();
        let (w, h, rgb) = decode_rgb(&bytes).unwrap();
        assert_eq!((w, h), (640, 320));
        // The cut paints a nontrivial portion of the frame in non-white.
        let painted = rgb.chunks(3).filter(|p| *p != [255, 255, 255]).count();
        assert!(painted > w * h / 4, "painted {painted}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
