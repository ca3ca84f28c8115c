//! The maintainer's batch counters: what one maintained batch did, phase by
//! phase, as the engine reports it per batch and aggregates it for life.

/// Counters describing one maintained batch (aggregated by the engine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Edits applied.
    pub edits_applied: u64,
    /// (view, edit) pairs examined.
    pub view_edit_checks: u64,
    /// Pairs dismissed by the label-disjointness fast path.
    pub label_skips: u64,
    /// Pairs whose spine scan proved the answer set unchanged (no region
    /// re-evaluation at all, beyond dropping tombstoned answers).
    pub spine_clean: u64,
    /// Region re-evaluations run.
    pub regions_scanned: u64,
    /// Nodes visited across all region re-evaluations.
    pub region_nodes: u64,
    /// Whole-document re-evaluations (a spine too deep for the reachability
    /// mask).
    pub full_recomputes: u64,
    /// Answer nodes added across all views.
    pub answers_added: u64,
    /// Answer nodes removed across all views.
    pub answers_removed: u64,
    /// Per-(view, edit) region roots before coalescing merged them.
    pub regions_before_merge: u64,
    /// Region scans the merge eliminated (`regions_before_merge` minus the
    /// scans actually run) — what one scan per (view, edit) pair would have
    /// paid extra.
    pub scans_saved: u64,
    /// Microseconds applying edits: reserving room in the engine's
    /// document for the batch's grafts, and `prepare_batch` applying the
    /// batch to it in place.
    /// Together the five `*_us` phases cover an engine `apply_edits` call
    /// from its snapshot to its report, with no stretch left untimed.
    pub apply_us: u64,
    /// Microseconds building the post-batch `FlatTree` (in the engine,
    /// deriving it from the published one).
    pub freeze_us: u64,
    /// Microseconds diffing spines and merging regions (`coalesce_plan`).
    pub coalesce_us: u64,
    /// Microseconds scanning regions.
    pub scan_us: u64,
    /// Microseconds from the end of the scans to the end of publication:
    /// patching answer sets, counting what they gained and lost, and
    /// publication (re-allocating the changed views, the state swap, the
    /// release of the replaced snapshot).
    pub patch_us: u64,
}

impl MaintainStats {
    /// Field-wise sum, used by the engine's lifetime aggregation.
    pub fn add(&mut self, other: &MaintainStats) {
        self.edits_applied += other.edits_applied;
        self.view_edit_checks += other.view_edit_checks;
        self.label_skips += other.label_skips;
        self.spine_clean += other.spine_clean;
        self.regions_scanned += other.regions_scanned;
        self.region_nodes += other.region_nodes;
        self.full_recomputes += other.full_recomputes;
        self.answers_added += other.answers_added;
        self.answers_removed += other.answers_removed;
        self.regions_before_merge += other.regions_before_merge;
        self.scans_saved += other.scans_saved;
        self.apply_us += other.apply_us;
        self.freeze_us += other.freeze_us;
        self.coalesce_us += other.coalesce_us;
        self.scan_us += other.scan_us;
        self.patch_us += other.patch_us;
    }

    /// The canonical counter enumeration: one `(name, value)` pair per
    /// field, in declaration order. The observability registry exposes
    /// these under `xpv_maintain_*`, and `Display` renders the same list
    /// — one naming authority, so the rendered line and the exposition
    /// can never drift (see the `xpv-obs` crate docs).
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("edits_applied", self.edits_applied);
        f("view_edit_checks", self.view_edit_checks);
        f("label_skips", self.label_skips);
        f("spine_clean", self.spine_clean);
        f("regions_scanned", self.regions_scanned);
        f("region_nodes", self.region_nodes);
        f("full_recomputes", self.full_recomputes);
        f("answers_added", self.answers_added);
        f("answers_removed", self.answers_removed);
        f("regions_before_merge", self.regions_before_merge);
        f("scans_saved", self.scans_saved);
        f("apply_us", self.apply_us);
        f("freeze_us", self.freeze_us);
        f("coalesce_us", self.coalesce_us);
        f("scan_us", self.scan_us);
        f("patch_us", self.patch_us);
    }
}

impl std::fmt::Display for MaintainStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        xpv_obs::write_kv_line(f, |emit| self.visit(emit))
    }
}
