//@ path: crates/doh/src/fake_endpoint.rs
//! A fixture endpoint that schedules its own wakes instead of routing
//! them through the `Driver` registry — the direct call flags, and so
//! does the one inside the helper it calls (not the call of the helper).

pub fn on_wake(sim: &mut Sim) {
    sim.schedule_app(5, 1);
    rearm_later(sim);
}

fn rearm_later(sim: &mut Sim) {
    sim.schedule_app_in(3, 1);
}
