//! The decision trace: one typed, deterministic record of what the
//! optimizer decided during a run, appended to by every pass through
//! [`OptContext::record`](crate::pipeline::OptContext::record). The
//! ledger's rejection counts are derived from it, and `lab explain`
//! reads the fate of every delinquent load from it (§4.3).

use isa::{Addr, Pc};
use obs::Json;

use crate::patch::PatchedTrace;
use crate::pattern::Pattern;
use crate::phase::PhaseSignature;
use crate::pipeline::PassKind;
use crate::prefetch::InsertionStats;
use crate::reject::Rejection;

/// One entry of the decision trace.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Profile window (1-based timeline position) the decision fell in.
    pub window: u64,
    /// The window's actionable phase signature, once the phase gate
    /// produced one.
    pub phase: Option<PhaseSignature>,
    /// The pass that decided.
    pub pass: PassKind,
    /// What the decision is about.
    pub site: Site,
    /// What was decided.
    pub outcome: Outcome,
}

/// What a [`Decision`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// The window or its phase as a whole.
    Window,
    /// A trace (or candidate trace head), by original-code address.
    Trace(Addr),
    /// A load, by its precise pc.
    Load(Pc),
}

/// What a pass decided about a [`Site`].
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The pass declined the site.
    Rejected(Rejection),
    /// The load is one of its loop trace's top delinquent loads
    /// (`delinq_filter`, §3.1), with its sampled DEAR misses.
    Delinquent {
        /// Start of the selected trace holding the load.
        trace: Addr,
        /// Sampled qualifying misses.
        samples: u64,
        /// Total sampled miss latency, cycles.
        latency: u64,
    },
    /// The load's address pattern (`pattern_analyze`, §3.2).
    Classified(Pattern),
    /// A prefetch stream was scheduled for the load
    /// (`prefetch_schedule`, §3.3–3.5).
    Scheduled {
        /// Prefetch distance in loop iterations.
        distance_iters: u64,
    },
    /// One trace selected this window, as `patch_deploy` handled it.
    Trace {
        /// Whether the trace closes a loop.
        is_loop: bool,
        /// Bundles in the trace.
        bundles: usize,
        /// Delinquent loads mapped into it.
        loads: usize,
        /// Streams inserted by this window's deploy.
        inserted: InsertionStats,
    },
    /// An optimized trace was published to the trace pool.
    Deployed {
        /// Cycle count right after the publication.
        at_cycles: u64,
        /// The installed patch (its `stats` are the streams inserted).
        patch: PatchedTrace,
    },
    /// A recording store was patched in for an unanalyzable load (§6).
    Instrumented {
        /// Cycle count right after the publication.
        at_cycles: u64,
        /// Address of the recording buffer.
        buffer: u64,
        /// Prefetch distance, in iterations, a promotion will use.
        dist_iters: u64,
        /// The installed instrumentation patch.
        patch: PatchedTrace,
    },
    /// Instrumentation was promoted to a real prefetch stream.
    Promoted {
        /// Cycle count right after the publication.
        at_cycles: u64,
        /// The dominant stride the recording revealed.
        stride: i64,
        /// The installed prefetch patch.
        patch: PatchedTrace,
    },
    /// A phase whose CPI regressed after patching was unpatched (§2.3).
    Unpatched {
        /// Cycle count right after the unpatch.
        at_cycles: u64,
        /// Patches removed.
        patches: usize,
        /// Phase CPI observed before patching.
        cpi_before: f64,
        /// Phase CPI that tripped the brake.
        cpi_now: f64,
    },
}

impl Outcome {
    /// The machine-editing episodes — deploy, instrument, promote and
    /// unpatch — as `{"kind": …, fields…}` objects (the ablation
    /// report's `events` column); `None` for every other outcome.
    pub fn episode_json(&self) -> Option<Json> {
        let episode = match self {
            Outcome::Deployed { at_cycles, patch } => Json::object()
                .with("kind", "deploy")
                .with("at_cycles", *at_cycles)
                .with("streams", patch.stats)
                .with("patch", patch),
            Outcome::Instrumented { at_cycles, buffer, dist_iters, patch } => Json::object()
                .with("kind", "instrument")
                .with("at_cycles", *at_cycles)
                .with("buffer", *buffer)
                .with("dist_iters", *dist_iters)
                .with("patch", patch),
            Outcome::Promoted { at_cycles, stride, patch } => Json::object()
                .with("kind", "promote")
                .with("at_cycles", *at_cycles)
                .with("stride", *stride)
                .with("patch", patch),
            Outcome::Unpatched { at_cycles, patches, cpi_before, cpi_now } => Json::object()
                .with("kind", "unpatch")
                .with("at_cycles", *at_cycles)
                .with("patches", *patches)
                .with("cpi_before", *cpi_before)
                .with("cpi_now", *cpi_now),
            _ => return None,
        };
        Some(episode)
    }
}
