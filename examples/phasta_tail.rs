//! PHASTA vertical-tail flow with live jet steering (§4.2.1): run the
//! unstructured proxy, render slice cuts through the wing every other
//! step, and retune the synthetic jet mid-run using feedback from the
//! in situ images — the paper's "really useful time" loop.
//!
//! ```text
//! cargo run --release --example phasta_tail
//! ```

use minimpi::World;
use render::camera::Camera;
use render::color::{Color, Colormap};
use render::deflate::Mode;
use render::framebuffer::Framebuffer;
use render::png::encode_framebuffer;
use render::raster::{fill_triangle, Vertex};
use science::{Phasta, PhastaAdaptor, PhastaConfig};
use sensei::DataAdaptor as _;

const STEPS: u64 = 30;

fn main() {
    std::fs::create_dir_all("results").expect("results dir");
    World::run(4, |comm| {
        let mut sim = Phasta::new(comm, PhastaConfig::default());
        if comm.rank() == 0 {
            println!(
                "PHASTA proxy: {} tets across {} ranks; images every other step",
                sim.total_tets(comm),
                comm.size()
            );
        } else {
            sim.total_tets(comm); // collective
        }

        for step in 0..STEPS {
            sim.step(comm);
            // Live steering: crank the jet up halfway through, as an
            // engineer would after inspecting the in situ images.
            if step == STEPS / 2 {
                sim.set_jet(0.8, 16.0);
                if comm.rank() == 0 {
                    println!("step {step}: retuned jet to amplitude 0.8, frequency 16");
                }
            }
            if step % 2 != 0 {
                continue;
            }
            // SENSEI → Catalyst-style slice cut + render.
            let adaptor = PhastaAdaptor::new(&sim);
            let mesh = adaptor.full_mesh();
            let datamodel::DataSet::Unstructured(grid) = &mesh else {
                unreachable!()
            };
            let tris = catalyst::cutter::cut_tets(grid, "velmag", [0.0, 0.0, 1.0], 0.3);
            let cam = Camera::ortho(0.0, 2.0, 0.0, 1.0);
            let cmap = Colormap::cool_warm();
            let (w, h) = (400usize, 200usize);
            let mut fb = Framebuffer::new(w, h);
            let local_max = tris.iter().flat_map(|t| t.scalars).fold(0.0f64, f64::max);
            let vmax = comm.allreduce_scalar(local_max, f64::max).max(1e-9);
            for t in &tris {
                let vs: Vec<Vertex> = t
                    .points
                    .iter()
                    .zip(&t.scalars)
                    .map(|(p, s)| {
                        let (x, y, z) = cam.project(*p, w, h).expect("ortho");
                        Vertex {
                            x,
                            y,
                            z,
                            color: cmap.map_range(*s, 0.0, vmax),
                        }
                    })
                    .collect();
                fill_triangle(&mut fb, vs[0], vs[1], vs[2]);
            }
            if let Some(final_fb) =
                render::composite::composite(comm, fb, render::composite::Compositor::BinarySwap)
            {
                let png = encode_framebuffer(&final_fb, Color::WHITE, Mode::Fixed);
                let path = format!("results/phasta_{step:03}.png");
                std::fs::write(&path, png).expect("write png");
                println!(
                    "step {step}: |v|max {vmax:.3}, crossflow {:.3} → {path}",
                    sim.max_crossflow()
                );
            }
        }
    });
    println!("done; inspect results/phasta_*.png to see the jet's effect appear mid-run");
}
