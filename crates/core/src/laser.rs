//! Run-time laser power management (the paper's Section IV.C future work).
//!
//! Fig. 8 shows laser (and SOA) power dominating the COMET stack, and the
//! paper observes that *"enabling dynamic laser power management, such as
//! that discussed in \[43], could significantly improve photonic memory
//! energy consumption"*. This module implements that extension: a
//! windowed, demand-driven power manager in the electrical interface that
//! throttles the off-chip comb laser and the active SOA stages when the
//! recent access rate does not justify full illumination.
//!
//! # Model
//!
//! Time is divided into fixed management windows. At each window boundary
//! the controller picks a power state from the *previous* window's access
//! count (the same one-window-history predictor \[43] uses for its SOA
//! gating):
//!
//! * **Active** — the full Fig. 7 stack (laser + SOA + tuning + interface).
//! * **Idle** — the laser throttles to a locking floor (comb lines must
//!   stay wavelength-locked, so it cannot switch off entirely), SOAs are
//!   gated off, and only the interface remains up.
//!
//! A window with zero accesses demotes the next window to Idle; any access
//! promotes the next window to Active. An access arriving *during* an Idle
//! window pays a wake-up latency (SOA carrier settling + laser ramp) and
//! immediately promotes the remainder of the window.
//!
//! The manager is deterministic and causal: it only uses information
//! available at each window boundary, so mispredictions show up as real
//! wake-up stalls — the throughput cost Fig. `ablations` quantifies
//! against the energy saved.

use comet_units::{Energy, Power, Time};

/// Laser management policy for [`CometDevice`](crate::CometDevice).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LaserPolicy {
    /// The paper's baseline: the full power stack burns for the whole run.
    #[default]
    Static,
    /// Windowed demand gating (the \[43]-style extension).
    Windowed(WindowedPolicy),
}

/// Parameters of the windowed laser manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedPolicy {
    /// Management window length.
    pub window: Time,
    /// Fraction of the full laser power kept in Idle state to hold the
    /// comb lines locked (`0.0..=1.0`).
    pub idle_laser_fraction: f64,
    /// Latency paid by the first access that hits an Idle window.
    pub wake_latency: Time,
}

impl WindowedPolicy {
    /// A defensible default: 1 µs windows, 10 % locking floor, 50 ns wake.
    pub fn default_1us() -> Self {
        WindowedPolicy {
            window: Time::from_micros(1.0),
            idle_laser_fraction: 0.10,
            wake_latency: Time::from_nanos(50.0),
        }
    }

    /// An aggressive variant: 200 ns windows, 5 % floor, 100 ns wake.
    pub fn aggressive() -> Self {
        WindowedPolicy {
            window: Time::from_nanos(200.0),
            idle_laser_fraction: 0.05,
            wake_latency: Time::from_nanos(100.0),
        }
    }
}

/// The power-state ledger driven by access timestamps.
///
/// Owned by [`CometDevice`](crate::CometDevice) when a windowed policy is
/// configured; can also be driven standalone for unit analysis.
///
/// # Examples
///
/// ```
/// use comet::{LaserPowerManager, WindowedPolicy};
/// use comet_units::{Power, Time};
///
/// let mut mgr = LaserPowerManager::new(
///     WindowedPolicy::default_1us(),
///     Power::from_watts(20.0), // gateable (laser + SOA)
///     Power::from_watts(1.0),  // always-on (interface)
/// );
/// // A burst at t=0, then silence: later windows run idle.
/// let stall = mgr.on_access(Time::ZERO);
/// assert_eq!(stall, Time::ZERO); // manager boots Active
/// let energy = mgr.finish(Time::from_micros(10.0));
/// let full = Power::from_watts(21.0) * Time::from_micros(10.0);
/// assert!(energy.as_joules() < 0.5 * full.as_joules());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LaserPowerManager {
    policy: WindowedPolicy,
    /// Power that the manager may gate (laser + active SOAs).
    gateable: Power,
    /// Power that stays on in every state (electrical interface, tuning).
    always_on: Power,
    /// Start of the window currently being accounted.
    window_start: Time,
    /// Whether the current window started (or was promoted to) Active.
    active: bool,
    /// Accesses observed in the current window.
    accesses_this_window: u64,
    /// Energy accounted so far.
    energy: Energy,
    /// Wake-ups incurred (for reporting).
    wakeups: u64,
}

impl LaserPowerManager {
    /// Creates a manager starting Active at `t = 0`.
    pub fn new(policy: WindowedPolicy, gateable: Power, always_on: Power) -> Self {
        LaserPowerManager {
            policy,
            gateable,
            always_on,
            window_start: Time::ZERO,
            active: true,
            accesses_this_window: 0,
            energy: Energy::ZERO,
            wakeups: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &WindowedPolicy {
        &self.policy
    }

    /// Wake-ups incurred so far.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    fn state_power(&self, active: bool) -> Power {
        if active {
            self.gateable + self.always_on
        } else {
            self.gateable * self.policy.idle_laser_fraction + self.always_on
        }
    }

    /// Advances window accounting up to `now` (charging each completed
    /// window at its decided state and re-deciding at each boundary).
    fn advance_to(&mut self, now: Time) {
        let w = self.policy.window;
        while self.window_start + w <= now {
            let end = self.window_start + w;
            self.energy += self.state_power(self.active) * w;
            // Boundary decision: demand in the window just closed.
            self.active = self.accesses_this_window > 0;
            self.accesses_this_window = 0;
            self.window_start = end;
        }
    }

    /// Records an access at time `at`; returns the wake-up stall the access
    /// suffers (zero when the laser is already Active).
    pub fn on_access(&mut self, at: Time) -> Time {
        let at = at.max(self.window_start);
        self.advance_to(at);
        self.accesses_this_window += 1;
        if self.active {
            Time::ZERO
        } else {
            // Promote the remainder of this window: charge the idle tail
            // consumed so far at idle power, then flip to Active from here.
            let idle_span = at - self.window_start;
            self.energy += self.state_power(false) * idle_span;
            // Restart the window clock at the promotion point so the
            // remainder is charged Active without double-counting.
            self.window_start = at;
            self.active = true;
            self.wakeups += 1;
            self.policy.wake_latency
        }
    }

    /// Closes accounting at `end` and returns the total managed energy.
    /// Energy/window accounting resets to the boot state afterwards (so a
    /// reused device does not double-charge); the wake-up counter is a
    /// lifetime statistic and survives.
    pub fn finish(&mut self, end: Time) -> Energy {
        self.advance_to(end);
        // Charge the partial tail window at its current state.
        if end > self.window_start {
            self.energy += self.state_power(self.active) * (end - self.window_start);
        }
        let total = self.energy;
        let wakeups = self.wakeups;
        *self = LaserPowerManager::new(self.policy, self.gateable, self.always_on);
        self.wakeups = wakeups;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(window_ns: f64) -> LaserPowerManager {
        LaserPowerManager::new(
            WindowedPolicy {
                window: Time::from_nanos(window_ns),
                idle_laser_fraction: 0.10,
                wake_latency: Time::from_nanos(50.0),
            },
            Power::from_watts(20.0),
            Power::from_watts(1.0),
        )
    }

    #[test]
    fn fully_idle_run_costs_near_idle_power() {
        let mut m = mgr(1000.0);
        // No accesses at all: first window Active (boot), rest Idle.
        let e = m.finish(Time::from_micros(100.0));
        let idle = m.state_power(false) * Time::from_micros(99.0);
        let boot = m.state_power(true) * Time::from_micros(1.0);
        assert!((e.as_joules() - (idle + boot).as_joules()).abs() < 1e-12);
    }

    #[test]
    fn saturated_run_costs_full_power() {
        let mut m = mgr(1000.0);
        for k in 0..1000 {
            let stall = m.on_access(Time::from_nanos(k as f64 * 100.0));
            assert_eq!(stall, Time::ZERO, "no wake-ups under steady demand");
        }
        let e = m.finish(Time::from_micros(100.0));
        let full = m.state_power(true) * Time::from_micros(100.0);
        assert!((e.as_joules() - full.as_joules()).abs() < 1e-12);
    }

    #[test]
    fn burst_after_idle_pays_wake_latency() {
        let mut m = mgr(1000.0);
        let _ = m.on_access(Time::ZERO);
        // Silence for 10 windows, then a burst: the burst access must stall.
        let stall = m.on_access(Time::from_micros(10.5));
        assert_eq!(stall, Time::from_nanos(50.0));
        assert_eq!(m.wakeups(), 1);
        // Follow-up accesses in the promoted window run stall-free.
        assert_eq!(m.on_access(Time::from_micros(10.6)), Time::ZERO);
    }

    #[test]
    fn energy_between_idle_and_active_bounds() {
        let mut m = mgr(500.0);
        // Sparse traffic: one access every 5 us.
        for k in 0..20 {
            let _ = m.on_access(Time::from_micros(k as f64 * 5.0));
        }
        let end = Time::from_micros(100.0);
        let e = m.finish(end);
        let min = m.state_power(false) * end;
        let max = m.state_power(true) * end;
        assert!(e > min, "above the idle floor");
        assert!(e < max, "below the static stack");
        // Sparse demand should land much closer to idle than to active.
        let midpoint = (min + max) / 2.0;
        assert!(e < midpoint, "sparse traffic should save > half the gap");
    }

    #[test]
    fn accounting_is_insensitive_to_probe_order() {
        // A COMET device under the windowed policy, probed between its
        // accesses the way the scheduler probes candidates it may never
        // issue, accounts exactly like one that is never probed.
        use crate::{CometConfig, CometDevice};
        use memsim::{DecodedAddress, MemOp, MemoryDevice};
        let policy = LaserPolicy::Windowed(WindowedPolicy::default_1us());
        let mut probed = CometDevice::with_policy(CometConfig::comet_4b(), policy);
        let mut plain = CometDevice::with_policy(CometConfig::comet_4b(), policy);
        let loc = |bank: u64, row: u64| DecodedAddress {
            channel: bank,
            bank: 0,
            row,
            column: 0,
        };
        let times = [0.0, 300.0, 2500.0, 2600.0, 9000.0];
        for (k, &t) in times.iter().enumerate() {
            let at = Time::from_nanos(t);
            for ahead in [0.0, 1.0e3, 5.0e4] {
                let _ =
                    probed.bank_available(&loc(k as u64 % 3 + 1, 7), at + Time::from_nanos(ahead));
                let _ = probed.bank_available(&loc(0, k as u64), at + Time::from_nanos(ahead));
                let _ = probed.row_hit(&loc(0, 7));
            }
            let a = probed.access(&loc(0, k as u64), MemOp::Write, at);
            let b = plain.access(&loc(0, k as u64), MemOp::Write, at);
            assert_eq!(a, b);
        }
        assert!(plain.laser_wakeups() > 0, "the accesses cross idle windows");
        assert_eq!(probed.laser_wakeups(), plain.laser_wakeups());
        assert_eq!(
            probed.drain_accumulated_energy(),
            plain.drain_accumulated_energy()
        );
    }

    #[test]
    fn finish_resets_accounting_but_keeps_wakeups() {
        let mut m = mgr(1000.0);
        let _ = m.on_access(Time::from_nanos(100.0));
        let _ = m.on_access(Time::from_micros(20.0)); // one wake-up
        assert_eq!(m.wakeups(), 1);
        let first = m.finish(Time::from_micros(30.0));
        assert!(first.as_joules() > 0.0);
        assert_eq!(m.wakeups(), 1, "wake-up count is a lifetime statistic");
        let second = m.finish(Time::from_micros(30.0));
        // Same span, no accesses: boot window active, rest idle — cheaper.
        assert!(second < first);
    }

    #[test]
    fn out_of_order_probe_does_not_panic() {
        // The engine may probe with an `at` before the current window
        // start after a promotion; the manager clamps.
        let mut m = mgr(1000.0);
        let _ = m.on_access(Time::from_micros(10.0));
        let stall = m.on_access(Time::from_micros(9.0));
        assert_eq!(stall, Time::ZERO);
    }
}
