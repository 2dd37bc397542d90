//! A deck rank 0 cannot parse, or does not supply, fails every rank of
//! `Simulation::new` with the same message instead of leaving the other
//! ranks waiting in the deck's broadcast.

use std::time::Duration;

use minimpi::World;
use oscillator::{SimConfig, Simulation};
use probe::time::Wall;

/// Long enough for a 3-rank world to fail on a loaded machine. A rank
/// left waiting on a failed one is released at once by the world's
/// deadlock rule, so only a regression comes near it.
const DEADLINE: Duration = Duration::from_secs(5);

/// The world runs on a helper thread under a deadline, so a regression
/// fails here instead of hanging.
#[test]
fn a_bad_deck_fails_every_rank() {
    for ranks in [2, 3] {
        for (deck, cause) in [
            (Some("this is not a deck\n"), "line 1"),
            (None, "must supply the oscillator deck"),
        ] {
            let world = std::thread::spawn(move || {
                World::run(ranks, move |c| {
                    let config = SimConfig {
                        grid: [8; 3],
                        steps: 1,
                        ..SimConfig::default()
                    };
                    let root = if c.rank() == 0 { deck } else { None };
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        Simulation::new(c, config, root)
                    }))
                    .err()
                    .map(|e| minimpi::sched::panic_text(&*e))
                })
            });
            let start = Wall::now();
            while !world.is_finished() {
                assert!(
                    start.elapsed() < DEADLINE,
                    "{ranks} ranks, deck {deck:?}: the world still runs after {DEADLINE:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            let failures = world.join().expect("each rank returns its outcome");
            let first = failures[0].clone().expect("rank 0 fails");
            assert!(
                first.starts_with("bad deck: ") && first.contains(cause),
                "{first}"
            );
            assert_eq!(failures, vec![Some(first); ranks], "{ranks} ranks");
        }
    }
}
