//! PHASTA vertical-tail flow with live jet steering (§4.2.1): run the
//! unstructured proxy, render slice cuts through the wing every other
//! step, and retune the synthetic jet mid-run using feedback from the
//! in situ images — the paper's "really useful time" loop.
//!
//! ```text
//! cargo run --release --example phasta_tail
//! ```

use std::cell::Cell;

use datamodel::DataSet;
use minimpi::World;
use render::color::{Color, Colormap};
use render::composite::Compositor::BinarySwap;
use render::scene::{Leaf, Plot, Scene};
use science::{Phasta, PhastaAdaptor, PhastaConfig};
use sensei::analysis::leaf_views;
use sensei::{Association, DataAdaptor as _};

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
        // A Catalyst-style slice through the wing: the cut z = 0.3.
        let plot = Plot::Cut {
            axis: 2,
            at: 0.3,
            cmap: Colormap::cool_warm(),
        };
        let mut scene = Scene::new("phasta", (400, 200), BinarySwap, Color::WHITE, vec![plot]);
        scene.output = Some("results".into());

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
            let adaptor = PhastaAdaptor::new(&sim);
            let mesh = adaptor.full_mesh();
            let views = leaf_views(&mesh, Association::Point, "velmag").expect("velmag");
            let DataSet::Unstructured(grid) = &mesh else {
                unreachable!("PHASTA's mesh is unstructured")
            };
            let leaf = (Leaf::Unstructured(grid), &views[0].values[..]);
            let range = Cell::new(None);
            let frame = scene.frame(comm, adaptor.step(), Some(leaf), &range);
            if let Some((_, written)) = frame {
                written.expect("write png");
                let vmax = range.get().map_or(0.0, |(_, hi)| hi);
                let (done, crossflow) = (adaptor.step(), sim.max_crossflow());
                println!(
                    "step {done}: |v|max {vmax:.3}, crossflow {crossflow:.3} → results/phasta_{done:05}.png"
                );
            }
        }
    });
    println!("done; inspect results/phasta_*.png to see the jet's effect appear mid-run");
}
