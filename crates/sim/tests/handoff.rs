//! The engine's hand-off transport under load: a lost wake-up is a hang,
//! so these tests pass by finishing.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use dex_sim::{Engine, SimDuration, SimTime};

/// One short engine whose 5–7 threads spawn, `park`, `park_until` and
/// `unpark` each other. `shape` varies the child count, which children time
/// out before the root wakes them, and the gaps — so across shapes a wake
/// finds its target asleep, still on its way to sleep, and not yet started.
fn short_engine(shape: u64) -> SimTime {
    let engine = Engine::new();
    let kids = 3 + shape % 3;
    let done = Rc::new(Cell::new(0));
    engine.spawn_daemon("daemon", |ctx| loop {
        ctx.park();
    });
    engine.spawn("root", move |ctx| {
        let root = ctx.id();
        let spawned: Vec<_> = (0..kids)
            .map(|k| {
                let done = Rc::clone(&done);
                ctx.spawn(format!("kid{k}"), move |ctx| {
                    // Deadlines straddle the root's wake-up at 100 ns.
                    let deadline = ctx.now() + SimDuration::from_nanos(45 + 30 * k);
                    let timed_out = ctx.park_until(deadline);
                    assert_eq!(timed_out, deadline < SimTime::from_nanos(100));
                    ctx.advance(SimDuration::from_nanos(k + shape % 7));
                    done.set(done.get() + 1);
                    ctx.unpark(root);
                })
            })
            .collect();
        ctx.advance(SimDuration::from_nanos(100));
        for kid in spawned {
            ctx.unpark(kid);
        }
        while done.get() < kids {
            ctx.park();
        }
    });
    engine.run().expect("every thread finishes")
}

#[test]
fn thousands_of_short_engines_all_finish() {
    let mut ends: HashMap<u64, SimTime> = HashMap::new();
    for i in 0..3000u64 {
        let shape = i % 21;
        let end = short_engine(shape);
        assert_eq!(*ends.entry(shape).or_insert(end), end, "shape {shape}");
    }
}
