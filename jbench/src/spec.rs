//! The SPEC-shaped workloads: `spec-hybrid` (every program natively and
//! under five tool configurations) and `explain-profile` (the hybrid
//! tools with every observation path armed).

use crate::ledger::{Ledger, Rng};
use crate::oracle::{self, Outcome, Slowdowns};
use crate::trace::Tracer;
use crate::{OpResult, Workload};
use janitizer_baselines::{memcheck_costs, memcheck_runtime, Memcheck, MEMCHECK_RT};
use janitizer_core::{
    dependency_closure, run_hybrid, EngineOptions, EngineStats, HybridOptions, HybridRun,
    JanitizerError, RuleCache, RunProfile, SecurityPlugin, StaticContext,
};
use janitizer_eval::NullPlugin;
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_jcfi::Jcfi;
use janitizer_profile::diff::{BundleDiff, BundleSummary};
use janitizer_rules::RuleFile;
use janitizer_telemetry::json::Json;
use janitizer_vm::{load_process, LoadOptions, ModuleStore};
use janitizer_workloads::{build_world, BuildOptions, World};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Input scale of both SPEC-shaped workloads (multiplier on each
/// program's default argument).
pub const SCALE: f64 = 0.1;

/// Cycle budget of one run (the evaluation harness's).
const FUEL: u64 = 30_000_000_000;

/// A run configuration of the SPEC-shaped workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Config {
    /// Uninstrumented execution.
    Native,
    /// Engine with a pass-through client.
    Null,
    /// JASan without static analysis.
    JasanDyn,
    /// JASan with static rules (the headline configuration).
    JasanHybrid,
    /// JCFI with static rules.
    JcfiHybrid,
    /// The Memcheck-like dynamic-only baseline.
    Memcheck,
}

impl Config {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Config::Native => "native",
            Config::Null => "null-client",
            Config::JasanDyn => "jasan-dyn",
            Config::JasanHybrid => "jasan-hybrid",
            Config::JcfiHybrid => "jcfi-hybrid",
            Config::Memcheck => "memcheck",
        }
    }
}

/// The `spec-hybrid` configurations, in per-program run order: native
/// first, because every other cell is checked against it.
const SPEC_CONFIGS: [Config; 6] = [
    Config::Native,
    Config::Null,
    Config::JasanDyn,
    Config::JasanHybrid,
    Config::JcfiHybrid,
    Config::Memcheck,
];

/// The `explain-profile` configurations.
const EXPLAIN_CONFIGS: [Config; 2] = [Config::JasanHybrid, Config::JcfiHybrid];

/// Host-only switches of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Knobs {
    /// Arm the cycle profiler.
    pub profile: bool,
    /// Switch the trace layer off.
    pub no_traces: bool,
    /// Record the run as a differential span.
    pub differential: bool,
}

/// The result of one run.
pub struct Cell {
    /// What the run produced.
    pub outcome: Outcome,
    /// Modeled cycles.
    pub cycles: u64,
    /// Guest instructions.
    pub insns: u64,
    /// Engine counters (instrumented runs only).
    pub engine: Option<EngineStats>,
    /// Profile (profiled runs only).
    pub profile: Option<RunProfile>,
    /// Host nanoseconds of the whole run, loading included.
    pub host_ns: u64,
}

/// The built world with its filled rule cache.
pub struct SpecWorld {
    /// Programs, libraries and runtimes.
    pub world: World,
    /// Rule cache filled at set-up.
    pub cache: Arc<RuleCache>,
}

fn load_opts(world: &World, idx: usize, preload: Option<&str>) -> LoadOptions {
    LoadOptions {
        args: vec![world.args[idx]],
        preload: preload.map(|p| vec![p.to_string()]).unwrap_or_default(),
        ..LoadOptions::default()
    }
}

/// Builds the world at [`SCALE`] and fills the rule cache for every
/// statically analyzed configuration. Traced runs also time the static
/// pipeline and rule coding per module as differential calls.
pub fn setup_world(tr: &mut Tracer) -> SpecWorld {
    let mut world = tr.span("workloads.build_world", || {
        build_world(&BuildOptions {
            scale: SCALE,
            ..BuildOptions::default()
        })
    });
    world.store.add(memcheck_runtime());
    let cache = Arc::new(RuleCache::new());
    let plugins: [(Box<dyn SecurityPlugin>, Option<&str>); 3] = [
        (Box::new(NullPlugin), None),
        (Box::new(Jasan::hybrid()), Some(RT_MODULE)),
        (Box::new(Jcfi::hybrid()), None),
    ];
    let mut seen = BTreeSet::new();
    for w in &world.workloads {
        for (plugin, preload) in &plugins {
            let mut roots = vec![w.name.to_string()];
            roots.extend(preload.map(str::to_string));
            roots.push("ld.so".into());
            for name in dependency_closure(&world.store, &roots) {
                let Some(image) = world.store.get(&name) else {
                    continue;
                };
                let file = tr.span("core.get_or_analyze", || {
                    cache.get_or_analyze(&image, plugin.as_ref(), true)
                });
                if tr.on() && seen.insert(name.clone()) {
                    time_static_pipeline(tr, &image, plugin.as_ref(), &file);
                }
            }
        }
    }
    SpecWorld { world, cache }
}

/// Differential calls of a traced run: the static pipeline split into
/// its generic analysis and rule emission, and the rule file's coding.
pub fn time_static_pipeline(
    tr: &mut Tracer,
    image: &janitizer_obj::Image,
    plugin: &dyn SecurityPlugin,
    file: &RuleFile,
) {
    // Twice, in opposite orders, so neither call is always the cold one.
    let analyze = |tr: &mut Tracer| {
        let id = tr.enter("analysis.analyze", true);
        let ctx = StaticContext::analyze(image);
        tr.exit(id, ctx.cfg.blocks.len() as u64);
    };
    let with = |tr: &mut Tracer| {
        tr.differential("core.analyze_statically_with", || {
            janitizer_core::analyze_statically_with(image, plugin, true)
        })
    };
    analyze(tr);
    with(tr);
    with(tr);
    analyze(tr);
    let id = tr.enter("rules.to_bytes", true);
    let bytes = file.to_bytes();
    tr.exit(id, bytes.len() as u64);
    tr.differential("rules.from_bytes", || RuleFile::from_bytes(&bytes).is_ok());
}

/// One `run_hybrid` call, made by `run`, as a span (options and plugin
/// are built inside it); returns the run and its host nanoseconds.
pub fn traced_hybrid(
    tr: &mut Tracer,
    differential: bool,
    exe: &str,
    run: impl FnOnce() -> Result<HybridRun, JanitizerError>,
) -> Result<(HybridRun, u64), String> {
    let id = tr.enter("core.run_hybrid", differential);
    let t0 = Instant::now();
    let r = run().map_err(|e| format!("{exe}: {e}"));
    let ns = t0.elapsed().as_nanos() as u64;
    tr.exit(id, r.as_ref().map_or(0, |r| r.insns));
    r.map(|r| (r, ns))
}

/// Runs one program natively: the loader and the interpreter as two
/// layer calls.
pub fn run_native(
    tr: &mut Tracer,
    store: &ModuleStore,
    exe: &str,
    load: &LoadOptions,
    fuel: u64,
) -> Result<Cell, String> {
    let t0 = Instant::now();
    let mut proc = tr
        .span("vm.load_process", || load_process(store, exe, load))
        .map_err(|e| format!("{exe}: {e}"))?;
    // The span ends after the process is dropped, as `run_hybrid`'s does.
    let id = tr.enter("vm.run_native", false);
    let exit = proc.run_native(fuel);
    let mut cell = Cell {
        outcome: Outcome {
            code: exit.code(),
            stdout: proc.stdout_string(),
            reports: 0,
        },
        cycles: proc.cycles,
        insns: proc.insns,
        engine: None,
        profile: None,
        host_ns: 0,
    };
    drop(proc);
    tr.exit(id, cell.insns);
    cell.host_ns = t0.elapsed().as_nanos() as u64;
    Ok(cell)
}

/// Runs program `idx` under `cfg`.
pub fn run_cell(
    tr: &mut Tracer,
    sw: &SpecWorld,
    idx: usize,
    cfg: Config,
    k: Knobs,
) -> Result<Cell, String> {
    let world = &sw.world;
    let exe = world.workloads[idx].name;
    let store = &world.store;
    if cfg == Config::Native {
        return run_native(tr, store, exe, &load_opts(world, idx, None), FUEL);
    }
    let base = |load| HybridOptions {
        load,
        fuel: FUEL,
        rule_cache: Some(Arc::clone(&sw.cache)),
        profile: k.profile,
        no_traces: k.no_traces,
        ..HybridOptions::default()
    };
    let jasan = || {
        let mut p = Jasan::hybrid();
        p.opts.fuse_checks = !k.no_traces;
        p
    };
    let run = traced_hybrid(tr, k.differential, exe, || match cfg {
        Config::Native => unreachable!("handled above"),
        Config::Null => run_hybrid(store, exe, NullPlugin, &base(load_opts(world, idx, None))),
        Config::JasanDyn => {
            let opts = HybridOptions {
                dynamic_only: true,
                ..base(load_opts(world, idx, Some(RT_MODULE)))
            };
            run_hybrid(store, exe, jasan(), &opts)
        }
        Config::JasanHybrid => run_hybrid(
            store,
            exe,
            jasan(),
            &base(load_opts(world, idx, Some(RT_MODULE))),
        ),
        Config::JcfiHybrid => run_hybrid(
            store,
            exe,
            Jcfi::hybrid(),
            &base(load_opts(world, idx, None)),
        ),
        Config::Memcheck => {
            let opts = HybridOptions {
                dynamic_only: true,
                engine: EngineOptions {
                    costs: memcheck_costs(),
                    ..Default::default()
                },
                ..base(load_opts(world, idx, Some(MEMCHECK_RT)))
            };
            run_hybrid(store, exe, Memcheck::new(), &opts)
        }
    })?;
    let (run, host_ns) = run;
    Ok(Cell {
        outcome: Outcome {
            code: run.outcome.code(),
            stdout: run.stdout,
            reports: run.engine.reports.len(),
        },
        cycles: run.cycles,
        insns: run.insns,
        engine: Some(run.engine),
        profile: run.profile,
        host_ns,
    })
}

/// `spec-hybrid`: each round runs every program, in a seeded order,
/// natively and under the five tool configurations.
pub struct SpecHybrid {
    sw: SpecWorld,
    rng: Rng,
    order: Vec<usize>,
    native: BTreeMap<usize, Cell>,
    slow: BTreeMap<(usize, Config), f64>,
    ledger: Ledger,
}

impl SpecHybrid {
    /// Builds the world and fills the rule cache.
    pub fn setup(tr: &mut Tracer, seed: u64) -> SpecHybrid {
        SpecHybrid {
            sw: setup_world(tr),
            rng: Rng::new(seed, "spec-hybrid"),
            order: Vec::new(),
            native: BTreeMap::new(),
            slow: BTreeMap::new(),
            ledger: Ledger::default(),
        }
    }

    fn check_order(&self, idx: usize) -> Result<(), String> {
        let get = |c| {
            self.slow
                .get(&(idx, c))
                .copied()
                .ok_or("a cell of the program failed")
        };
        oracle::check_order(Slowdowns {
            null: get(Config::Null)?,
            jasan_hybrid: get(Config::JasanHybrid)?,
            jasan_dyn: get(Config::JasanDyn)?,
            jcfi_hybrid: get(Config::JcfiHybrid)?,
        })
        .map_err(|e| format!("{}: {e}", self.sw.world.workloads[idx].name))
    }
}

impl Workload for SpecHybrid {
    fn round(&mut self, _r: u64) -> usize {
        self.order = self.rng.permutation(self.sw.world.workloads.len());
        self.native.clear();
        self.slow.clear();
        self.order.len() * SPEC_CONFIGS.len()
    }

    fn min_rounds(&self) -> u64 {
        3
    }

    fn op(&mut self, tr: &mut Tracer, i: usize) -> OpResult {
        let idx = self.order[i / SPEC_CONFIGS.len()];
        let cfg = SPEC_CONFIGS[i % SPEC_CONFIGS.len()];
        let name = self.sw.world.workloads[idx].name;
        let cell = match run_cell(tr, &self.sw, idx, cfg, Knobs::default()) {
            Ok(c) => c,
            Err(e) => return OpResult::failed(e),
        };
        let host_ns = cell.host_ns;
        let mut res = OpResult::ok(cell.insns);
        if cfg == Config::Native {
            if cell.outcome.code.is_none() {
                res.wrong = Some(format!("{name}: native run did not exit"));
            }
            self.ledger
                .row(name, cfg.label(), host_ns, cell.insns, 0, 1.0);
            self.native.insert(idx, cell);
            return res;
        }
        let Some(native) = self.native.get(&idx) else {
            return OpResult::failed(format!("{name}: no native run"));
        };
        let x = cell.cycles as f64 / native.cycles.max(1) as f64;
        if let Err(e) = oracle::check_benign(&native.outcome, &cell.outcome) {
            res.wrong = Some(format!("{name} {}: {e}", cfg.label()));
        }
        self.slow.insert((idx, cfg), x);
        res.benign_slowdowns.push(x);
        if tr.on() {
            let engine = cell
                .engine
                .as_ref()
                .expect("instrumented run has engine stats");
            self.ledger.engine(engine);
            self.ledger.slowdown(cfg.label(), x);
            self.ledger
                .row(name, cfg.label(), host_ns, cell.insns, engine.probe_runs, x);
            if cfg != Config::Null {
                let knobs = Knobs {
                    no_traces: true,
                    differential: true,
                    ..Knobs::default()
                };
                if let Ok(off) = run_cell(tr, &self.sw, idx, cfg, knobs) {
                    self.ledger.add("notrace.on_ns", host_ns as f64);
                    self.ledger.add("notrace.off_ns", off.host_ns as f64);
                }
            }
        }
        if cfg == *SPEC_CONFIGS.last().expect("configs") && res.wrong.is_none() {
            if let Err(e) = self.check_order(idx) {
                res.wrong = Some(e);
            }
        }
        res
    }

    fn finish(&mut self) {
        let s = self.sw.cache.stats();
        self.ledger.add("cache.hits", s.hits as f64);
        self.ledger.add("cache.misses", s.misses as f64);
    }

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn row_label(&self) -> &'static str {
        "program"
    }
}

/// The reference an `explain-profile` cell is checked against.
struct Reference {
    native_cycles: u64,
    outcome: Outcome,
    cycles: u64,
}

/// `explain-profile`: each round runs every program, in a seeded order,
/// under JASan-hybrid and JCFI-hybrid with the profiler, the flight
/// recorder and the telemetry registry armed, exports each bundle and
/// diffs it against the previous one.
pub struct ExplainProfile {
    sw: SpecWorld,
    rng: Rng,
    order: Vec<usize>,
    refs: BTreeMap<(usize, Config), Reference>,
    prev: Option<BundleSummary>,
    ledger: Ledger,
}

impl ExplainProfile {
    /// Builds the world and fills the rule cache.
    pub fn setup(tr: &mut Tracer, seed: u64) -> ExplainProfile {
        ExplainProfile {
            sw: setup_world(tr),
            rng: Rng::new(seed, "explain-profile"),
            order: Vec::new(),
            refs: BTreeMap::new(),
            prev: None,
            ledger: Ledger::default(),
        }
    }

    fn cell_of(&self, i: usize) -> (usize, Config) {
        (
            self.order[i / EXPLAIN_CONFIGS.len()],
            EXPLAIN_CONFIGS[i % EXPLAIN_CONFIGS.len()],
        )
    }
}

/// A one-cell `janitizer.profile/v2` bundle, as `explain` writes it.
fn bundle_json(workload: &str, config: &str, p: &RunProfile) -> String {
    Json::obj([
        ("schema", Json::str("janitizer.profile/v2")),
        ("target", Json::str(workload)),
        ("top", Json::U64(10)),
        (
            "cells",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str(workload)),
                ("config", Json::str(config)),
                ("profile", p.to_json(10)),
            ])]),
        ),
    ])
    .render_pretty()
}

impl Workload for ExplainProfile {
    fn start(&mut self) {
        janitizer_telemetry::install(Box::<janitizer_telemetry::InMemoryCollector>::default());
        janitizer_telemetry::set_enabled(true);
        janitizer_telemetry::flight::arm(janitizer_telemetry::flight::DEFAULT_CAPACITY);
    }

    fn round(&mut self, _r: u64) -> usize {
        self.order = self.rng.permutation(self.sw.world.workloads.len());
        self.order.len() * EXPLAIN_CONFIGS.len()
    }

    fn min_rounds(&self) -> u64 {
        4
    }

    fn prepare(&mut self, i: usize) -> Result<(), String> {
        let (idx, cfg) = self.cell_of(i);
        if self.refs.contains_key(&(idx, cfg)) {
            return Ok(());
        }
        let mut quiet = Tracer::new(false);
        let native = run_cell(&mut quiet, &self.sw, idx, Config::Native, Knobs::default())?;
        let plain = run_cell(&mut quiet, &self.sw, idx, cfg, Knobs::default())?;
        self.refs.insert(
            (idx, cfg),
            Reference {
                native_cycles: native.cycles,
                outcome: plain.outcome,
                cycles: plain.cycles,
            },
        );
        Ok(())
    }

    fn op(&mut self, tr: &mut Tracer, i: usize) -> OpResult {
        let (idx, cfg) = self.cell_of(i);
        let name = self.sw.world.workloads[idx].name;
        let knobs = Knobs {
            profile: true,
            ..Knobs::default()
        };
        let cell = match run_cell(tr, &self.sw, idx, cfg, knobs) {
            Ok(c) => c,
            Err(e) => return OpResult::failed(e),
        };
        let host_ns = cell.host_ns;
        let Some(reference) = self.refs.get(&(idx, cfg)) else {
            return OpResult::failed(format!("{name}: no reference run"));
        };
        let Some(mut prof) = cell.profile else {
            return OpResult::failed(format!("{name}: profiled run returned no profile"));
        };
        prof.native_cycles = Some(reference.native_cycles);
        let mut res = OpResult::ok(cell.insns);
        let x = cell.cycles as f64 / reference.native_cycles.max(1) as f64;
        res.benign_slowdowns.push(x);
        let engine = cell
            .engine
            .as_ref()
            .expect("instrumented run has engine stats");
        let classes = prof.class_totals();
        let check = oracle::check_conservation(
            classes.total(),
            cell.cycles,
            classes.engine_overhead(),
            engine.total_overhead_cycles(),
        )
        .and_then(|()| {
            oracle::check_observation_only(
                (&cell.outcome, cell.cycles),
                (&reference.outcome, reference.cycles),
            )
        })
        .and_then(|()| oracle::check_benign(&reference.outcome, &cell.outcome));
        if let Err(e) = check {
            res.wrong = Some(format!("{name} {}: {e}", cfg.label()));
        }

        let id = tr.enter("profile.to_json", false);
        let doc = bundle_json(name, cfg.label(), &prof);
        tr.exit(id, doc.len() as u64);
        let folded = tr.span("profile.to_folded", || prof.to_folded());
        let budget = tr.span("profile.budget_table", || prof.budget_table(10));
        std::hint::black_box((&folded, &budget));
        let parsed = tr.span("profile.parse", || BundleSummary::parse(&doc));
        match parsed {
            Ok(cur) => {
                if let Some(prev) = &self.prev {
                    let diff = tr.span("profile.diff", || BundleDiff::compute(prev, &cur));
                    std::hint::black_box(&diff);
                }
                self.prev = Some(cur);
            }
            Err(e) => res.wrong = Some(format!("{name}: exported bundle does not parse: {e}")),
        }

        if tr.on() {
            self.ledger.engine(engine);
            self.ledger.slowdown(cfg.label(), x);
            self.ledger
                .row(name, cfg.label(), host_ns, cell.insns, engine.probe_runs, x);
            let knobs = Knobs {
                differential: true,
                ..Knobs::default()
            };
            if let Ok(off) = run_cell(tr, &self.sw, idx, cfg, knobs) {
                self.ledger.add("profile.on_ns", host_ns as f64);
                self.ledger.add("profile.off_ns", off.host_ns as f64);
                self.ledger.add("profile.insns", cell.insns as f64);
            }
        }
        res
    }

    fn finish(&mut self) {
        let s = self.sw.cache.stats();
        self.ledger.add("cache.hits", s.hits as f64);
        self.ledger.add("cache.misses", s.misses as f64);
        let dump = janitizer_telemetry::flight::dump_json("snapshot");
        let events = Json::parse(&dump)
            .ok()
            .and_then(|d| d.get("total_events").and_then(Json::as_u64))
            .unwrap_or(0);
        self.ledger.add("flight.events", events as f64);
        janitizer_telemetry::flight::disarm();
        janitizer_telemetry::set_enabled(false);
    }

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn row_label(&self) -> &'static str {
        "program"
    }
}
