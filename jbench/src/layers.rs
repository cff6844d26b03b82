//! Per-layer metrics of a traced run, computed from the workload's
//! spans and ledger. A layer the workload does not exercise reads 0.

use crate::ledger::{geomean, Ledger};
use crate::trace::{totals, NameTotals, Span};
use std::collections::BTreeMap;

/// Per-layer metric names with their units, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.build_world_ms", "ms"),
    ("minic.compile_ms", "ms"),
    ("asm.assemble_ms", "ms"),
    ("link.link_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.blocks", "count"),
    ("core.emit_ms", "ms"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("rules.encode_us", "us"),
    ("rules.decode_us", "us"),
    ("rules.file_kb", "KB"),
    ("store.save_us", "us"),
    ("store.load_us", "us"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("vm.load_ms", "ms"),
    ("vm.native_ns_per_insn", "ns"),
    ("vm.minflt_per_run", "count"),
    ("vm.sys_ms_per_run", "ms"),
    ("dbt.ns_per_insn", "ns"),
    ("dbt.notrace_time_ratio", "x"),
    ("dbt.blocks_translated", "count"),
    ("dbt.probe_runs", "count"),
    ("dbt.indirect_transfers", "count"),
    ("dbt.indirect_chain_hits", "count"),
    ("dbt.chained_transfers", "count"),
    ("dbt.superblocks_formed", "count"),
    ("dbt.trace_exits", "count"),
    ("dbt.checks_fused", "count"),
    ("dbt.checks_hoisted", "count"),
    ("dbt.translation_mcycles", "Mcycles"),
    ("dbt.dispatch_mcycles", "Mcycles"),
    ("dbt.probe_mcycles", "Mcycles"),
    ("dbt.null_slowdown_x", "x"),
    ("jasan.probe_ns", "ns"),
    ("jcfi.probe_ns", "ns"),
    ("baselines.memcheck_ns_per_insn", "ns"),
    ("jasan.hybrid_slowdown_x", "x"),
    ("jasan.dyn_slowdown_x", "x"),
    ("jcfi.hybrid_slowdown_x", "x"),
    ("baselines.memcheck_slowdown_x", "x"),
    ("diag.capture_ms", "ms"),
    ("diag.render_us", "us"),
    ("diag.reports", "count"),
    ("profile.counter_ns_per_insn", "ns"),
    ("profile.export_ms", "ms"),
    ("profile.diff_ms", "ms"),
    ("profile.bundle_kb", "KB"),
    ("telemetry.flight_events", "count"),
];

/// Spans and ledger of a traced run.
pub struct Layers<'a> {
    totals: BTreeMap<&'static str, NameTotals>,
    differential: BTreeMap<&'static str, NameTotals>,
    ledger: &'a Ledger,
    ops: f64,
}

impl<'a> Layers<'a> {
    /// Aggregates `spans`; `ops` is the number of operations the run ran.
    pub fn new(spans: &[Span], ledger: &'a Ledger, ops: u64) -> Layers<'a> {
        Layers {
            totals: totals(spans, |_| true),
            differential: totals(spans, |s| s.differential),
            ledger,
            ops: ops as f64,
        }
    }

    fn t(&self, name: &str) -> Option<&NameTotals> {
        self.totals.get(name).filter(|t| t.count > 0)
    }

    /// Mean wall time per call, in `unit` nanoseconds.
    fn per_call(&self, name: &str, unit: f64) -> Option<f64> {
        self.t(name).map(|t| t.ns as f64 / t.count as f64 / unit)
    }

    /// Wall time per operation that made the call, in `unit` nanoseconds.
    fn per_op(&self, name: &str, unit: f64) -> Option<f64> {
        self.t(name)
            .map(|t| t.ns as f64 / t.ops.max(1) as f64 / unit)
    }

    fn sum_per_op(&self, names: &[&str], unit: f64) -> Option<f64> {
        let parts: Vec<f64> = names.iter().filter_map(|n| self.per_op(n, unit)).collect();
        (!parts.is_empty()).then(|| parts.iter().sum())
    }

    fn per_n(&self, name: &str) -> Option<f64> {
        self.t(name).map(|t| t.n as f64 / t.count as f64)
    }

    fn ledger_per_op(&self, key: &str) -> Option<f64> {
        (self.ledger.sums.contains_key(key) && self.ops > 0.0)
            .then(|| self.ledger.sum(key) / self.ops)
    }

    fn per_engine_run(&self, key: &str, scale: f64) -> Option<f64> {
        let runs = self.ledger.sum("eng.runs");
        (runs > 0.0).then(|| self.ledger.sum(key) / runs / scale)
    }

    fn ratio(&self, num: &str, den: &str) -> Option<f64> {
        let d = self.ledger.sum(den);
        (d > 0.0).then(|| self.ledger.sum(num) / d)
    }

    fn guest_runs(&self) -> (f64, u64, u64) {
        let mut runs = 0.0;
        let (mut minflt, mut sys_us) = (0, 0);
        for name in ["vm.load_process", "vm.run_native", "core.run_hybrid"] {
            if let Some(t) = self.t(name) {
                if name != "vm.load_process" {
                    runs += t.count as f64;
                }
                minflt += t.minflt;
                sys_us += t.sys_us;
            }
        }
        (runs, minflt, sys_us)
    }

    /// Computes one metric, `None` when the workload does not exercise it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        const MS: f64 = 1e6;
        const US: f64 = 1e3;
        let l = self.ledger;
        match name {
            "workloads.build_world_ms" => self.per_call("workloads.build_world", MS),
            "minic.compile_ms" => self.per_op("minic.compile", MS),
            "asm.assemble_ms" => self.per_op("asm.assemble", MS),
            "link.link_ms" => self.per_op("link.link", MS),
            "analysis.analyze_ms" => self.per_call("analysis.analyze", MS),
            "analysis.blocks" => self.per_n("analysis.analyze"),
            "core.emit_ms" => {
                // Both calls of the differential pair, over the same modules.
                let d = &self.differential;
                let (with, alone) = (
                    d.get("core.analyze_statically_with")?,
                    d.get("analysis.analyze")?,
                );
                Some(
                    (with.ns as f64 / with.count as f64 - alone.ns as f64 / alone.count as f64)
                        / MS,
                )
            }
            "core.cache_hits" => self.ledger_per_op("cache.hits"),
            "core.cache_misses" => self.ledger_per_op("cache.misses"),
            "rules.encode_us" => self.per_call("rules.to_bytes", US),
            "rules.decode_us" => self.per_call("rules.from_bytes", US),
            "rules.file_kb" => self.per_n("rules.to_bytes").map(|b| b / 1024.0),
            "store.save_us" => self.per_call("store.save", US),
            "store.load_us" => self.per_call("store.load", US),
            "store.hits" => self.ledger_per_op("store.hits"),
            "store.misses" => self.ledger_per_op("store.misses"),
            "vm.load_ms" => self.per_call("vm.load_process", MS),
            "vm.native_ns_per_insn" => self
                .t("vm.run_native")
                .filter(|t| t.n > 0)
                .map(|t| t.ns as f64 / t.n as f64),
            "vm.minflt_per_run" => {
                let (runs, minflt, _) = self.guest_runs();
                (runs > 0.0).then(|| minflt as f64 / runs)
            }
            "vm.sys_ms_per_run" => {
                let (runs, _, sys_us) = self.guest_runs();
                (runs > 0.0).then(|| sys_us as f64 / runs / 1e3)
            }
            "dbt.ns_per_insn" => l.paired_delta("null-client", "native", |r| r.insns as f64),
            "dbt.notrace_time_ratio" => self.ratio("notrace.off_ns", "notrace.on_ns"),
            "dbt.translation_mcycles" => self.per_engine_run("eng.translation_cycles", 1e6),
            "dbt.dispatch_mcycles" => self.per_engine_run("eng.dispatch_cycles", 1e6),
            "dbt.probe_mcycles" => self.per_engine_run("eng.probe_cycles", 1e6),
            "dbt.null_slowdown_x" => geomean(l.slowdowns.get("null-client")?),
            "jasan.probe_ns" => {
                l.paired_delta("jasan-hybrid", "null-client", |r| r.probe_runs as f64)
            }
            "jcfi.probe_ns" => {
                l.paired_delta("jcfi-hybrid", "null-client", |r| r.probe_runs as f64)
            }
            "baselines.memcheck_ns_per_insn" => {
                l.paired_delta("memcheck", "null-client", |r| r.insns as f64)
            }
            "jasan.hybrid_slowdown_x" => geomean(l.slowdowns.get("jasan-hybrid")?),
            "jasan.dyn_slowdown_x" => geomean(l.slowdowns.get("jasan-dyn")?),
            "jcfi.hybrid_slowdown_x" => geomean(l.slowdowns.get("jcfi-hybrid")?),
            "baselines.memcheck_slowdown_x" => geomean(l.slowdowns.get("memcheck")?),
            "diag.capture_ms" => {
                let pairs = l.sum("forensics.pairs");
                (pairs > 0.0)
                    .then(|| (l.sum("forensics.on_ns") - l.sum("forensics.off_ns")) / pairs / MS)
            }
            "diag.render_us" => self
                .t("diag.render")
                .filter(|t| t.n > 0)
                .map(|t| t.ns as f64 / t.n as f64 / US),
            "diag.reports" => self
                .t("diag.render")
                .map(|t| t.n as f64 / self.ops.max(1.0)),
            "profile.counter_ns_per_insn" => {
                let insns = l.sum("profile.insns");
                (insns > 0.0).then(|| (l.sum("profile.on_ns") - l.sum("profile.off_ns")) / insns)
            }
            "profile.export_ms" => self.sum_per_op(
                &[
                    "profile.to_json",
                    "profile.to_folded",
                    "profile.budget_table",
                ],
                MS,
            ),
            "profile.diff_ms" => self.sum_per_op(&["profile.parse", "profile.diff"], MS),
            "profile.bundle_kb" => self.per_n("profile.to_json").map(|b| b / 1024.0),
            "telemetry.flight_events" => self.ledger_per_op("flight.events"),
            counter if counter.starts_with("dbt.") => {
                self.per_engine_run(&format!("eng.{}", &counter[4..]), 1.0)
            }
            _ => None,
        }
    }
}

/// Every per-layer metric, in report order; one the workload does not
/// exercise reads 0.
pub fn layer_metrics(layers: &Layers) -> Vec<(&'static str, &'static str, f64)> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, unit, layers.metric(name).unwrap_or(0.0)))
        .collect()
}

/// Self time per span name, the layer ledger of the traced run.
pub fn self_time_table(spans: &[Span]) -> String {
    let t = totals(spans, |_| true);
    let mut rows: Vec<_> = t.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    let mut out = format!(
        "{:<32} {:>8} {:>12} {:>12} {:>10} {:>10}\n",
        "span", "calls", "total_ms", "self_ms", "sys_ms", "minflt"
    );
    for (name, r) in rows {
        out.push_str(&format!(
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>10.3} {:>10}\n",
            name,
            r.count,
            r.ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.sys_us as f64 / 1e3,
            r.minflt
        ));
    }
    out
}
