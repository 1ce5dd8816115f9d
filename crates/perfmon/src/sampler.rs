//! The sampling driver: glue between the machine's System Sample Buffer
//! and the User Event Buffer.
//!
//! In the paper (§2.2), `dyn_open` programs the perfmon kernel interface
//! with a sampling rate and installs a signal handler; every time the
//! kernel's System Sample Buffer overflows, the handler copies the
//! samples into a larger circular User Event Buffer on which the
//! dynamic-optimization thread operates. Here the overflow shows up as
//! [`StopReason::SampleBufferOverflow`] from [`Machine::run`], and
//! [`Perfmon::on_overflow`] plays the signal handler: it drains the SSB,
//! charges the handler's cost to the main thread, and appends one
//! profile window to the UEB.

use sim::{Machine, StopReason};

use crate::window::{ProfileWindow, UserEventBuffer};

/// Driver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfmonConfig {
    /// Number of profile windows the UEB retains (the paper's `W`,
    /// typically 8–16).
    pub ueb_windows: usize,
    /// Cycles the "signal handler" charges the main thread per overflow
    /// (copying `SIZE_SSB` samples out of the kernel buffer).
    pub overflow_copy_cost: u64,
}

impl Default for PerfmonConfig {
    fn default() -> PerfmonConfig {
        PerfmonConfig { ueb_windows: 16, overflow_copy_cost: 2_000 }
    }
}

/// The sampling driver state. Cloning forks it: a run that splits in
/// two continues each half from the same window history.
#[derive(Debug, Clone)]
pub struct Perfmon {
    config: PerfmonConfig,
    ueb: UserEventBuffer,
    prev_counters: (u64, u64, u64),
    windows_produced: u64,
}

impl Perfmon {
    /// Creates a driver with the given configuration.
    pub fn new(config: PerfmonConfig) -> Perfmon {
        Perfmon {
            ueb: UserEventBuffer::new(config.ueb_windows),
            prev_counters: (0, 0, 0),
            windows_produced: 0,
            config,
        }
    }

    /// The User Event Buffer.
    pub fn ueb(&self) -> &UserEventBuffer {
        &self.ueb
    }

    /// Total profile windows produced so far.
    pub fn windows_produced(&self) -> u64 {
        self.windows_produced
    }

    /// Handles a sample-buffer overflow: drains the machine's SSB into
    /// a new profile window, charging the handler cost. Returns a
    /// reference to the freshly appended window.
    pub fn on_overflow<'a>(&'a mut self, machine: &mut Machine) -> &'a ProfileWindow {
        let samples = machine.drain_samples();
        machine.charge_cycles(self.config.overflow_copy_cost);
        let window = ProfileWindow::new(self.windows_produced, samples, self.prev_counters);
        if let Some(end) = window.end_counters() {
            self.prev_counters = end;
        }
        self.windows_produced += 1;
        self.ueb.push(window);
        self.ueb.last().expect("just pushed")
    }

    /// Runs the machine until it halts, handling overflows along the
    /// way and invoking `on_window` after each new profile window. The
    /// callback may inspect the machine and perfmon state (e.g. to run
    /// phase detection and patch traces).
    ///
    /// Returns the final cycle count; the machine records whether it
    /// halted or faulted.
    pub fn run_with_windows(
        &mut self,
        machine: &mut Machine,
        mut on_window: impl FnMut(&mut Machine, &ProfileWindow, &UserEventBuffer),
    ) -> u64 {
        loop {
            match machine.run(u64::MAX) {
                StopReason::Halted | StopReason::Faulted(_) | StopReason::CycleLimit => {
                    return machine.cycles();
                }
                StopReason::SampleBufferOverflow => {
                    self.on_overflow(machine);
                    let window = self.ueb.last().expect("on_overflow pushed a window");
                    on_window(machine, window, &self.ueb);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{Asm, CmpOp, Gr, Pr, CODE_BASE};
    use sim::{MachineConfig, SamplingConfig};

    fn looping_machine(iters: i64, interval: u64, cap: usize) -> Machine {
        let mut a = Asm::new();
        a.movl(Gr(10), 0);
        a.label("loop");
        a.addi(Gr(10), Gr(10), 1);
        a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), iters);
        a.br_cond(Pr(1), "loop");
        a.halt();
        let mut cfg = MachineConfig::default();
        cfg.sampling = Some(SamplingConfig {
            interval_cycles: interval,
            buffer_capacity: cap,
            per_sample_cost: 0,
            jitter: 0.3,
            ..Default::default()
        });
        Machine::new(a.finish(CODE_BASE).unwrap(), cfg)
    }

    #[test]
    fn windows_accumulate_through_run() {
        let mut m = looping_machine(2_000_000, 500, 32);
        let mut pm = Perfmon::new(PerfmonConfig { ueb_windows: 4, overflow_copy_cost: 0 });
        let mut windows_seen = 0;
        pm.run_with_windows(&mut m, |_, w, ueb| {
            windows_seen += 1;
            assert!(w.retired > 0);
            assert!(w.cpi > 0.0);
            assert!(ueb.len() <= 4);
        });
        assert!(windows_seen > 4, "expected several windows, got {windows_seen}");
        assert_eq!(pm.windows_produced(), windows_seen);
        assert_eq!(pm.ueb().len(), 4); // capped at W
    }

    #[test]
    fn overflow_cost_is_charged() {
        let mut m1 = looping_machine(500_000, 500, 32);
        let mut pm1 = Perfmon::new(PerfmonConfig { ueb_windows: 4, overflow_copy_cost: 0 });
        let free = pm1.run_with_windows(&mut m1, |_, _, _| {});

        let mut m2 = looping_machine(500_000, 500, 32);
        let mut pm2 = Perfmon::new(PerfmonConfig { ueb_windows: 4, overflow_copy_cost: 10_000 });
        let charged = pm2.run_with_windows(&mut m2, |_, _, _| {});
        assert!(charged > free, "handler cost must show up in cycles");
    }

    #[test]
    fn windows_chain_counters() {
        let mut m = looping_machine(1_000_000, 500, 16);
        let mut pm = Perfmon::new(PerfmonConfig::default());
        let mut prev_end = 0u64;
        pm.run_with_windows(&mut m, |_, w, _| {
            // Each window's cycle delta starts where the last ended.
            assert!(w.cycles > 0);
            assert!(w.samples.first().unwrap().cycles > prev_end);
            prev_end = w.samples.last().unwrap().cycles;
        });
    }
}
