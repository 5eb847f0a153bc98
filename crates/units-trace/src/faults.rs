//! Deterministic fault injection for the Units pipeline.
//!
//! A [`FaultPlane`] is a seeded, schedule-driven description of *where*
//! and *when* the pipeline should fail on purpose: at named injection
//! points (`"parse/read"`, `"check/program"`, `"reduce/prim"`, …) the
//! pipeline crates call [`trip`], and the armed plane decides — from a
//! SplitMix64 stream or an explicit `(site, nth-hit)` trigger — whether
//! that call returns an [`Injected`] fault or panics outright. Equal
//! seeds over equal trip sequences fire at exactly the same points on
//! every platform, so a failing chaos schedule is a reproducible test
//! case, not a flake.
//!
//! # Injection-point naming
//!
//! Sites are `phase/operation` strings, mirroring the trace counter
//! namespace:
//!
//! | site                  | fires inside                                |
//! |-----------------------|---------------------------------------------|
//! | `parse/read`          | `units_syntax::parse_file`                  |
//! | `check/program`       | `units_check::check_program`                |
//! | `reduce/step`         | each Fig. 11 contraction                    |
//! | `reduce/merge`        | the Fig. 11 `compound` merge                |
//! | `reduce/store`        | Fig. 11 store operations (`set!`, cell refs)|
//! | `reduce/prim`         | δ-rule application (reference reducer)      |
//! | `runtime/prim`        | prim application (compiled backend)         |
//! | `compile/eval`        | §4.1.6 `evaluate_program` entry             |
//! | `compile/instantiate` | §4.1.6 `invoke_unit`                        |
//! | `compile/dynlink`     | §3.4 `Archive::load`; signed publish, swap  |
//! | `compile/artifact`    | §2 `publish_unit` and `load_unit`           |
//! | `vm/dispatch`         | bytecode VM chunk entry / unit invocation   |
//! | `store/read`          | persistent-store entry read (transient I/O) |
//! | `store/write`         | between temp-file write and atomic rename   |
//!
//! # Feature gating
//!
//! Exactly like the trace hooks in the crate root: the types here
//! always compile, but [`trip`] and the arm/disarm dispatch are live
//! only with the `faults` cargo feature. Without it, [`trip`] is an
//! `#[inline(always)]` `Ok(())` and the whole plane costs nothing —
//! [`COMPILED`] tells a caller which build it got.
//!
//! # Example
//!
//! ```
//! use units_trace::faults::{self, FaultPlane};
//!
//! faults::arm(FaultPlane::seeded(7).trigger("demo/site", 2));
//! let first = faults::trip("demo/site");
//! let second = faults::trip("demo/site");
//! if units_trace::faults::COMPILED {
//!     assert!(first.is_ok());
//!     assert_eq!(second.unwrap_err().hit, 2);
//! } else {
//!     assert!(first.is_ok() && second.is_ok());
//! }
//! faults::disarm();
//! ```

use std::fmt;

/// `true` when this build carries a live fault plane (the `faults`
/// cargo feature). When `false`, [`trip`] never fires regardless of
/// [`arm`] calls.
pub const COMPILED: bool = cfg!(feature = "faults");

/// What an armed [`FaultPlane`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// [`trip`] returns `Err(Injected)` — exercises typed error
    /// propagation through the pipeline.
    #[default]
    Error,
    /// [`trip`] panics — exercises the `catch_unwind` isolation
    /// boundaries around the Engine's loads and runs.
    Panic,
}

/// A fault that an armed [`FaultPlane`] injected at a [`trip`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injected {
    /// The injection-point name that fired (e.g. `"reduce/prim"`).
    pub site: &'static str,
    /// The 1-based count of [`trip`] calls at this site when it fired.
    pub hit: u64,
}

impl fmt::Display for Injected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.site, self.hit)
    }
}

impl std::error::Error for Injected {}

/// The record of one fault an armed plane fired, kept in the plane's
/// log so a chaos harness can see exactly what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired {
    /// The injection point that fired.
    pub site: &'static str,
    /// The 1-based per-site hit count at firing time.
    pub hit: u64,
    /// Whether the firing surfaced as an error or a panic.
    pub kind: FaultKind,
}

/// A seeded, deterministic schedule of faults.
///
/// Two ways to fire:
///
/// * **Stochastic** (default): every [`trip`] draws from a SplitMix64
///   stream seeded by [`FaultPlane::seeded`]; the fault fires with
///   probability `rate_per_mille / 1000`, at most `budget` times.
/// * **Explicit**: [`FaultPlane::trigger`] pins the schedule to the
///   nth hit of one named site, bypassing the stream entirely.
///
/// Both are fully deterministic in the seed and the trip sequence.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    rate_per_mille: u32,
    kind: FaultKind,
    budget: u64,
    site_filter: Option<String>,
    explicit: Option<(String, u64)>,
    state: u64,
    site_hits: Vec<(&'static str, u64)>,
    fired: Vec<Fired>,
}

impl FaultPlane {
    /// A plane firing [`FaultKind::Error`] faults at 20‰ per trip with
    /// a budget of one fault. Equal seeds replay identically.
    pub fn seeded(seed: u64) -> FaultPlane {
        FaultPlane {
            rate_per_mille: 20,
            kind: FaultKind::Error,
            budget: 1,
            site_filter: None,
            explicit: None,
            state: seed,
            site_hits: Vec::new(),
            fired: Vec::new(),
        }
    }

    /// Sets the per-trip firing probability in parts per thousand
    /// (clamped to 1000). `0` disables stochastic firing.
    pub fn rate_per_mille(mut self, rate: u32) -> FaultPlane {
        self.rate_per_mille = rate.min(1000);
        self
    }

    /// Sets what a firing does: typed error or panic.
    pub fn kind(mut self, kind: FaultKind) -> FaultPlane {
        self.kind = kind;
        self
    }

    /// Sets the maximum number of faults this plane may fire.
    pub fn budget(mut self, budget: u64) -> FaultPlane {
        self.budget = budget;
        self
    }

    /// Restricts firing to sites whose name starts with `prefix`
    /// (e.g. `"reduce/"` for the Fig. 11 reducer only).
    pub fn at_site(mut self, prefix: impl Into<String>) -> FaultPlane {
        self.site_filter = Some(prefix.into());
        self
    }

    /// Pins the schedule: fire exactly at the `nth` (1-based) [`trip`]
    /// of `site`, ignoring the stochastic stream.
    pub fn trigger(mut self, site: impl Into<String>, nth: u64) -> FaultPlane {
        self.explicit = Some((site.into(), nth.max(1)));
        self
    }

    /// Every fault this plane has fired so far, in order.
    pub fn fired(&self) -> &[Fired] {
        &self.fired
    }

    /// Total [`trip`] calls observed across all sites.
    pub fn trips(&self) -> u64 {
        self.site_hits.iter().map(|&(_, n)| n).sum()
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) — the same
        // stream as bench::SplitMix64, inlined because this crate has
        // no dependencies.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Records one [`trip`] at `site` and decides whether it fires.
    /// Exposed so a harness can drive a plane without arming it.
    pub fn roll(&mut self, site: &'static str) -> Option<Fired> {
        let hit = match self.site_hits.iter_mut().find(|(s, _)| *s == site) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                self.site_hits.push((site, 1));
                1
            }
        };
        if self.fired.len() as u64 >= self.budget {
            return None;
        }
        if let Some(prefix) = &self.site_filter {
            if !site.starts_with(prefix.as_str()) {
                return None;
            }
        }
        let fires = match &self.explicit {
            Some((target, nth)) => site == target && hit == *nth,
            None => {
                self.rate_per_mille > 0 && self.next_u64() % 1000 < u64::from(self.rate_per_mille)
            }
        };
        if !fires {
            return None;
        }
        let record = Fired { site, hit, kind: self.kind };
        self.fired.push(record);
        Some(record)
    }
}

#[cfg(feature = "faults")]
mod dispatch {
    use std::cell::RefCell;

    use super::{FaultKind, FaultPlane, Injected};

    thread_local! {
        static PLANE: RefCell<Option<FaultPlane>> = const { RefCell::new(None) };
    }

    /// Arms `plane` on the current thread; subsequent [`trip`] calls on
    /// this thread consult it until [`disarm`].
    pub fn arm(plane: FaultPlane) {
        PLANE.with(|p| *p.borrow_mut() = Some(plane));
    }

    /// Disarms the current thread's plane, returning it (with its fired
    /// log and hit counters) for inspection.
    pub fn disarm() -> Option<FaultPlane> {
        PLANE.with(|p| p.borrow_mut().take())
    }

    /// Whether a plane is armed on this thread.
    pub fn active() -> bool {
        PLANE.with(|p| p.borrow().is_some())
    }

    /// One named injection point. Returns `Err` when an armed
    /// [`FaultKind::Error`] schedule fires here, panics when a
    /// [`FaultKind::Panic`] schedule fires, and is `Ok(())` otherwise.
    pub fn trip(site: &'static str) -> Result<(), Injected> {
        let fired = PLANE.with(|p| p.borrow_mut().as_mut().and_then(|plane| plane.roll(site)));
        match fired {
            None => Ok(()),
            Some(f) => {
                // In trace builds, leave the trip site in the flight
                // recorder so a post-mortem dump names it even after
                // the error has been wrapped by the layers above.
                #[cfg(feature = "trace")]
                crate::recorder::record(&crate::Event {
                    phase: crate::Phase::Engine,
                    kind: "fault/fired",
                    span: None,
                    payload: format!("{} (hit {})", f.site, f.hit),
                    counters: Vec::new(),
                });
                match f.kind {
                    FaultKind::Error => Err(Injected { site: f.site, hit: f.hit }),
                    FaultKind::Panic => {
                        panic!("injected panic at {} (hit {})", f.site, f.hit)
                    }
                }
            }
        }
    }

    /// Installs (once, process-wide) a panic hook that suppresses the
    /// default "thread panicked" report whenever a fault plane is armed
    /// on the panicking thread — injected panics are expected there,
    /// and a chaos sweep would otherwise spray hundreds of backtraces.
    /// Panics on threads with no plane armed keep the previous hook's
    /// behavior.
    pub fn install_quiet_hook() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !active() {
                    previous(info);
                }
            }));
        });
    }
}

#[cfg(not(feature = "faults"))]
mod dispatch {
    //! No-op hooks: the shapes of the live API with empty bodies.

    use super::{FaultPlane, Injected};

    /// No-op without the `faults` feature.
    #[inline(always)]
    pub fn arm(_plane: FaultPlane) {}

    /// Always `None` without the `faults` feature.
    #[inline(always)]
    pub fn disarm() -> Option<FaultPlane> {
        None
    }

    /// Always `false` without the `faults` feature.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// Always `Ok(())` without the `faults` feature.
    #[inline(always)]
    pub fn trip(_site: &'static str) -> Result<(), Injected> {
        Ok(())
    }

    /// No-op without the `faults` feature.
    #[inline(always)]
    pub fn install_quiet_hook() {}
}

pub use dispatch::{active, arm, disarm, install_quiet_hook, trip};

#[cfg(all(test, feature = "faults"))]
mod tests {
    use super::*;

    #[test]
    fn explicit_trigger_fires_on_the_named_hit_only() {
        arm(FaultPlane::seeded(1).trigger("a/b", 3));
        assert!(trip("a/b").is_ok());
        assert!(trip("other").is_ok());
        assert!(trip("a/b").is_ok());
        let fault = trip("a/b").unwrap_err();
        assert_eq!(fault, Injected { site: "a/b", hit: 3 });
        // Budget of one: the schedule is spent.
        assert!(trip("a/b").is_ok());
        let plane = disarm().unwrap();
        assert_eq!(plane.fired().len(), 1);
        assert_eq!(plane.trips(), 5);
    }

    #[test]
    fn stochastic_schedule_replays_identically() {
        let run = |seed: u64| {
            arm(FaultPlane::seeded(seed).rate_per_mille(200).budget(u64::MAX));
            let pattern: Vec<bool> = (0..200).map(|_| trip("x/y").is_err()).collect();
            disarm();
            pattern
        };
        let first = run(42);
        assert_eq!(first, run(42), "same seed, same schedule");
        assert!(first.iter().any(|&b| b), "a 20% schedule fires within 200 trips");
        assert!(first.iter().any(|&b| !b));
    }

    #[test]
    fn site_filter_and_budget_bound_the_blast_radius() {
        arm(FaultPlane::seeded(9).rate_per_mille(1000).budget(2).at_site("reduce/"));
        assert!(trip("parse/read").is_ok(), "filtered site never fires");
        assert!(trip("reduce/step").is_err());
        assert!(trip("reduce/prim").is_err());
        assert!(trip("reduce/step").is_ok(), "budget exhausted");
        let plane = disarm().unwrap();
        assert_eq!(plane.fired().len(), 2);
    }

    #[test]
    fn panic_kind_panics() {
        arm(FaultPlane::seeded(3).kind(FaultKind::Panic).trigger("p/q", 1));
        let caught = std::panic::catch_unwind(|| {
            let _ = trip("p/q");
        });
        let payload = caught.unwrap_err();
        let message = payload.downcast_ref::<String>().unwrap();
        assert_eq!(message, "injected panic at p/q (hit 1)");
        disarm();
    }

    #[test]
    fn unarmed_trips_are_free() {
        assert!(!active());
        assert!(trip("anything").is_ok());
    }
}
