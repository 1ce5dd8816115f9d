//! The unified rejection taxonomy.
//!
//! Every pass in the optimizer pipeline can decline work — a phase may
//! be unstable, a load unanalyzable, a prefetch stream a duplicate, a
//! patch unpublishable. Before the pipeline refactor those reasons were
//! scattered across `prefetch::SkipReason`, `pattern::PatternError` and
//! ad-hoc early returns; this module folds them into one [`Rejection`]
//! enum with stable snake_case labels, so the per-pass overhead ledger,
//! the diagnostic reports and the ablation harness all count rejections
//! in the same vocabulary (the paper's §4.3 failure analysis).

use obs::{Json, ToJson};

/// Why a pass declined a unit of work (a window, a hot target, a
/// delinquent load, a prefetch stream, or a patch).
///
/// Grouped by the pass that emits them; see DESIGN.md "Pass pipeline"
/// for the full pass-to-rejection mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rejection {
    // -- phase gate (§2.3) --
    /// The phase detector saw no stable phase in this window.
    PhaseUnstable,
    /// Stable phase, but its miss rate is too low to bother with.
    PhaseLowMissRate,
    /// Executing in the trace pool with DPI below the re-optimization
    /// threshold.
    PhaseBelowDpi,
    // -- re-optimization gate --
    /// The phase already had its optimization attempts exhausted.
    PhaseExhausted,
    /// The phase was optimized too recently; the profile must refresh
    /// with post-patch samples first.
    PhaseCooldown,
    /// Prefetch insertion is switched off (the Fig. 11 overhead
    /// measurement runs the machinery without insertion).
    InsertionDisabled,
    // -- unpatch monitor (§2.3) --
    /// The phase CPI regressed after patching; its traces were removed.
    CpiRegressed,
    // -- trace selection (§2.4) --
    /// The branch target was not sampled often enough to seed a trace.
    ColdTarget,
    /// The target is already covered by a trace selected this window.
    AlreadyCovered,
    /// The trace head does not map to executable code.
    HeadUnmapped,
    /// The trace head is a function boundary (call/return/halt).
    BoundaryAtHead,
    // -- pattern analysis (§3.2) --
    /// The sampled position does not hold a load instruction.
    NotALoad,
    /// The address dependence slice has no recognizable pattern.
    UnanalyzableSlice,
    /// The address never changes inside the loop — prefetching is
    /// pointless.
    LoopInvariantAddress,
    // -- prefetch scheduling (§3.3-3.5) --
    /// The pattern class is disabled in [`crate::PrefetchConfig`].
    PatternDisabled,
    /// Jump-pointer (dependence-based) prefetching is disabled in
    /// [`crate::PrefetchConfig`]; distinct from [`Rejection::PatternDisabled`]
    /// so ablations of the jump scheme stay attributable.
    JumpPointerDisabled,
    /// No reserved register (`r27`-`r30`) left for the stream.
    RegistersExhausted,
    /// An equivalent prefetch stream was already inserted.
    DuplicateStream,
    /// The load's average miss latency falls below the active policy's
    /// acceptance tier (the adaptive controller's strict arm).
    PolicyBelowTier,
    // -- policy controller --
    /// A trialed policy regressed CPI; the unpatch brake fired and the
    /// phase fell back to the paper's static policy.
    PolicyRegressed,
    // -- instrumentation (§6) --
    /// The recorded address stream had no dominant stride to promote.
    NoDominantStride,
    /// No arena space left for a recording buffer (or the trace is
    /// already instrumented).
    InstrumentBufferExhausted,
    // -- patch deployment (§2.5) --
    /// The trace-pool publication failed.
    PatchFailed,
}

impl Rejection {
    /// Every variant, in ledger/report order.
    pub const ALL: [Rejection; 23] = [
        Rejection::PhaseUnstable,
        Rejection::PhaseLowMissRate,
        Rejection::PhaseBelowDpi,
        Rejection::PhaseExhausted,
        Rejection::PhaseCooldown,
        Rejection::InsertionDisabled,
        Rejection::CpiRegressed,
        Rejection::ColdTarget,
        Rejection::AlreadyCovered,
        Rejection::HeadUnmapped,
        Rejection::BoundaryAtHead,
        Rejection::NotALoad,
        Rejection::UnanalyzableSlice,
        Rejection::LoopInvariantAddress,
        Rejection::PatternDisabled,
        Rejection::JumpPointerDisabled,
        Rejection::RegistersExhausted,
        Rejection::DuplicateStream,
        Rejection::PolicyBelowTier,
        Rejection::PolicyRegressed,
        Rejection::NoDominantStride,
        Rejection::InstrumentBufferExhausted,
        Rejection::PatchFailed,
    ];

    /// Stable snake_case label used as the JSON key in ledger and
    /// report serializations.
    pub fn label(self) -> &'static str {
        match self {
            Rejection::PhaseUnstable => "phase_unstable",
            Rejection::PhaseLowMissRate => "phase_low_miss_rate",
            Rejection::PhaseBelowDpi => "phase_below_dpi",
            Rejection::PhaseExhausted => "phase_exhausted",
            Rejection::PhaseCooldown => "phase_cooldown",
            Rejection::InsertionDisabled => "insertion_disabled",
            Rejection::CpiRegressed => "cpi_regressed",
            Rejection::ColdTarget => "cold_target",
            Rejection::AlreadyCovered => "already_covered",
            Rejection::HeadUnmapped => "head_unmapped",
            Rejection::BoundaryAtHead => "boundary_at_head",
            Rejection::NotALoad => "not_a_load",
            Rejection::UnanalyzableSlice => "unanalyzable_slice",
            Rejection::LoopInvariantAddress => "loop_invariant_address",
            Rejection::PatternDisabled => "pattern_disabled",
            Rejection::JumpPointerDisabled => "jump_pointer_disabled",
            Rejection::RegistersExhausted => "registers_exhausted",
            Rejection::DuplicateStream => "duplicate_stream",
            Rejection::PolicyBelowTier => "policy_below_tier",
            Rejection::PolicyRegressed => "policy_regressed",
            Rejection::NoDominantStride => "no_dominant_stride",
            Rejection::InstrumentBufferExhausted => "instrument_buffer_exhausted",
            Rejection::PatchFailed => "patch_failed",
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::error::Error for Rejection {}

impl ToJson for Rejection {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Rejection::ALL {
            let label = r.label();
            assert!(seen.insert(label), "duplicate label {label}");
            assert!(
                label.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "label {label} is not snake_case"
            );
        }
        assert_eq!(seen.len(), Rejection::ALL.len());
    }

    #[test]
    fn display_matches_label_and_serializes_as_string() {
        assert_eq!(Rejection::DuplicateStream.to_string(), "duplicate_stream");
        assert_eq!(Rejection::UnanalyzableSlice.to_json().to_string(), "\"unanalyzable_slice\"");
    }
}
