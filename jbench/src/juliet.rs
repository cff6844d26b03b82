//! `juliet-verdict`: one verdict per newly arriving CWE-122 case pair.

use crate::ledger::{Ledger, Rng};
use crate::oracle::{self, Verdict};
use crate::spec::{run_native, time_static_pipeline, traced_hybrid};
use crate::trace::Tracer;
use crate::{OpResult, Workload};
use janitizer_asm::{assemble, AsmOptions};
use janitizer_baselines::{memcheck_costs, memcheck_runtime, Memcheck, MEMCHECK_RT};
use janitizer_core::{
    analyze_statically_with, dependency_closure, run_hybrid, EngineOptions, HybridOptions,
    HybridRun, RuleCache, RunOutcome, SecurityPlugin,
};
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CanaryMode, CompileOptions};
use janitizer_store::{RuleStore, StoreKey};
use janitizer_vm::{LoadOptions, ModuleStore};
use janitizer_workloads::{juliet_suite, library_base, JulietCase, JulietCategory, CRT0};
use std::path::PathBuf;
use std::sync::Arc;

/// Cycle budget of one case run (the evaluation harness's).
const FUEL: u64 = 200_000_000;

/// The case categories with the number of pairs each round draws: the
/// suite's 380/24/124/96 split scaled to 26 pairs.
const STRATA: [(JulietCategory, usize); 4] = [
    (JulietCategory::HeapToHeap, 16),
    (JulietCategory::HeapToHeapWide, 1),
    (JulietCategory::StackToHeap, 5),
    (JulietCategory::HeapToStack, 4),
];

/// Modules whose JASan rules the store holds before the first pair
/// arrives: everything a case links against or preloads.
const LIBRARIES: [&str; 3] = ["libjc.so", RT_MODULE, "ld.so"];

fn category_label(c: JulietCategory) -> &'static str {
    match c {
        JulietCategory::HeapToHeap => "heap-to-heap",
        JulietCategory::HeapToHeapWide => "heap-to-heap-wide",
        JulietCategory::StackToHeap => "stack-to-heap",
        JulietCategory::HeapToStack => "heap-to-stack",
    }
}

fn store_key(image: &janitizer_obj::Image, plugin: &dyn SecurityPlugin) -> StoreKey {
    StoreKey {
        module: image.name.clone(),
        fingerprint: image.fingerprint(),
        plugin: plugin.cache_key(),
        noop: true,
    }
}

/// The `juliet-verdict` workload.
pub struct JulietVerdict {
    base: ModuleStore,
    store: Arc<RuleStore>,
    dir: PathBuf,
    suite: Vec<JulietCase>,
    strata: Vec<Vec<usize>>,
    cursors: Vec<usize>,
    rng: Rng,
    round_cases: Vec<usize>,
    ledger: Ledger,
}

impl Drop for JulietVerdict {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl JulietVerdict {
    /// Builds the shared libraries and populates a fresh rule store with
    /// their JASan rules, under `dir`.
    pub fn setup(tr: &mut Tracer, seed: u64, dir: PathBuf) -> Result<JulietVerdict, String> {
        let mut base = tr.span("workloads.library_base", library_base);
        base.add(memcheck_runtime());
        let _ = std::fs::remove_dir_all(&dir);
        let store = tr
            .span("store.open", || RuleStore::open(&dir))
            .map_err(|e| format!("rule store: {e}"))?;
        let plugin = Jasan::hybrid();
        for name in LIBRARIES {
            let image = base.get(name).ok_or_else(|| format!("{name} missing"))?;
            let file = tr.span("core.analyze_statically_with", || {
                analyze_statically_with(&image, &plugin, true)
            });
            let id = tr.enter("rules.to_bytes", false);
            let bytes = file.to_bytes();
            tr.exit(id, bytes.len() as u64);
            tr.span("store.save", || {
                store.save(&store_key(&image, &plugin), &bytes)
            })
            .map_err(|e| format!("rule store: {e}"))?;
        }
        let suite = juliet_suite();
        let mut rng = Rng::new(seed, "juliet-verdict");
        // Round 0 draws the first pairs of each category in id order,
        // whatever the seed, so the modeled slowdown taken over it is
        // exact; later rounds walk a seeded permutation of the rest.
        let strata = STRATA
            .iter()
            .map(|(c, n)| {
                let ids: Vec<usize> = suite
                    .iter()
                    .filter(|k| k.category == *c)
                    .map(|k| k.id)
                    .collect();
                let (first, rest) = ids.split_at(*n);
                first
                    .iter()
                    .copied()
                    .chain(rng.permutation(rest.len()).into_iter().map(|j| rest[j]))
                    .collect()
            })
            .collect();
        Ok(JulietVerdict {
            base,
            store: Arc::new(store),
            dir,
            suite,
            strata,
            cursors: vec![0; STRATA.len()],
            rng,
            round_cases: Vec::new(),
            ledger: Ledger::default(),
        })
    }

    /// Compiles, assembles and links one variant against the libraries.
    fn build(&self, tr: &mut Tracer, src: &str) -> Result<ModuleStore, String> {
        let id = tr.enter("case.build", false);
        let r = (|| {
            let aopts = AsmOptions { pic: false };
            let crt0 = tr
                .span("asm.assemble", || assemble("crt0.s", CRT0, &aopts))
                .map_err(|e| e.to_string())?;
            let copts = CompileOptions {
                canary: CanaryMode::Arrays,
                ..CompileOptions::default()
            };
            let text = tr
                .span("minic.compile", || compile(src, &copts))
                .map_err(|e| e.to_string())?;
            let obj = tr
                .span("asm.assemble", || assemble("case.c.s", &text, &aopts))
                .map_err(|e| e.to_string())?;
            let exe = tr
                .span("link.link", || {
                    link(
                        &[crt0, obj],
                        &LinkOptions::executable("case").needs("libjc.so"),
                    )
                })
                .map_err(|e| e.to_string())?;
            let mut store = self.base.clone();
            tr.span("vm.store_add", || store.add(exe));
            Ok(store)
        })();
        tr.exit(id, 0);
        r
    }

    fn jasan_opts(cache: &Arc<RuleCache>, forensics: bool) -> HybridOptions {
        HybridOptions {
            load: LoadOptions {
                preload: vec![RT_MODULE.into()],
                ..LoadOptions::default()
            },
            fuel: FUEL,
            rule_cache: Some(Arc::clone(cache)),
            forensics,
            ..HybridOptions::default()
        }
    }

    fn memcheck_opts() -> HybridOptions {
        HybridOptions {
            dynamic_only: true,
            load: LoadOptions {
                preload: vec![MEMCHECK_RT.into()],
                ..LoadOptions::default()
            },
            engine: EngineOptions {
                costs: memcheck_costs(),
                ..Default::default()
            },
            fuel: FUEL,
            forensics: true,
            ..HybridOptions::default()
        }
    }

    /// Renders every report of a run as text and JSON.
    fn render(tr: &mut Tracer, run: &HybridRun) {
        if run.reports.is_empty() {
            return;
        }
        tr.span_n("diag.render", || {
            let bytes: usize = run
                .reports
                .iter()
                .map(|r| r.render_text().len() + r.to_json().render().len())
                .sum();
            (std::hint::black_box(bytes), run.reports.len() as u64)
        });
    }

    fn verdict_op(
        &mut self,
        tr: &mut Tracer,
        case: &JulietCase,
        res: &mut OpResult,
    ) -> Result<(), String> {
        let good = self.build(tr, &case.good)?;
        let bad = self.build(tr, &case.bad)?;

        // A fresh cache per arriving pair, over the persistent store:
        // library rules come from the store, the case's own are analyzed
        // and written back.
        let cache = Arc::new(RuleCache::with_store(Arc::clone(&self.store)));
        let before = self.store.stats();
        let plugin = Jasan::hybrid();
        let roots = [
            "case".to_string(),
            RT_MODULE.to_string(),
            "ld.so".to_string(),
        ];
        let mut case_rules = None;
        for store in [&good, &bad] {
            for name in dependency_closure(store, &roots) {
                let Some(image) = store.get(&name) else {
                    continue;
                };
                let file = tr.span("core.get_or_analyze", || {
                    cache.get_or_analyze(&image, &plugin, true)
                });
                if name == "case" && case_rules.is_none() {
                    case_rules = Some((image, file));
                }
            }
        }

        let after = self.store.stats();
        self.ledger
            .add("store.hits", (after.hits - before.hits) as f64);
        self.ledger
            .add("store.misses", (after.misses - before.misses) as f64);

        let native = run_native(tr, &good, "case", &LoadOptions::default(), FUEL)?;
        if native.outcome.code.is_none() {
            res.wrong = Some(format!(
                "case {}: good variant did not exit natively",
                case.id
            ));
        }
        let mut runs = Vec::with_capacity(4);
        let mut run_ns = Vec::with_capacity(4);
        for (store, is_jasan) in [(&good, false), (&bad, false), (&good, true), (&bad, true)] {
            let (run, ns) = traced_hybrid(tr, false, "case", || {
                if is_jasan {
                    run_hybrid(
                        store,
                        "case",
                        Jasan::hybrid(),
                        &Self::jasan_opts(&cache, true),
                    )
                } else {
                    run_hybrid(store, "case", Memcheck::new(), &Self::memcheck_opts())
                }
            })?;
            Self::render(tr, &run);
            runs.push(run);
            run_ns.push(ns);
        }
        let flagged = |r: &HybridRun| {
            matches!(r.outcome, RunOutcome::Violation(_)) || !r.engine.reports.is_empty()
        };
        let verdict = Verdict {
            memcheck_good: flagged(&runs[0]),
            memcheck_bad: flagged(&runs[1]),
            jasan_good: flagged(&runs[2]),
            jasan_bad: flagged(&runs[3]),
        };
        let mut check = oracle::check_verdict(case.category, verdict);
        if check.is_ok() && verdict.jasan_bad {
            let kinds: Vec<&str> = runs[3].reports.iter().map(|r| r.kind.as_str()).collect();
            check = oracle::check_report_kinds(&kinds);
        }
        if let Err(e) = check {
            res.wrong = Some(format!("case {}: {e}", case.id));
        }
        res.insns = native.insns + runs.iter().map(|r| r.insns).sum::<u64>();
        let native_cycles = native.cycles.max(1) as f64;
        for (run, label) in [(&runs[0], "memcheck"), (&runs[2], "jasan-hybrid")] {
            let x = run.cycles as f64 / native_cycles;
            res.benign_slowdowns.push(x);
            if tr.on() {
                self.ledger.slowdown(label, x);
            }
        }
        if tr.on() {
            self.trace_extras(
                tr,
                case,
                &bad,
                &cache,
                &native,
                (&runs, &run_ns),
                case_rules,
            );
        }
        let s = cache.stats();
        self.ledger.add("cache.hits", s.hits as f64);
        self.ledger.add("cache.misses", s.misses as f64);
        Ok(())
    }

    /// Rows, engine counters and the differential calls of a traced op.
    #[allow(clippy::too_many_arguments)]
    fn trace_extras(
        &mut self,
        tr: &mut Tracer,
        case: &JulietCase,
        bad: &ModuleStore,
        cache: &Arc<RuleCache>,
        native: &crate::spec::Cell,
        (runs, run_ns): (&[HybridRun], &[u64]),
        case_rules: Option<(Arc<janitizer_obj::Image>, Arc<janitizer_rules::RuleFile>)>,
    ) {
        let label = category_label(case.category);
        self.ledger
            .row(label, "native-good", native.host_ns, native.insns, 0, 1.0);
        let configs = ["memcheck-good", "memcheck-bad", "jasan-good", "jasan-bad"];
        for ((run, ns), cfg) in runs.iter().zip(run_ns).zip(configs) {
            self.ledger.engine(&run.engine);
            let x = run.cycles as f64 / native.cycles.max(1) as f64;
            self.ledger
                .row(label, cfg, *ns, run.insns, run.engine.probe_runs, x);
        }
        let on_ns = run_ns[3];
        if let Some(Ok((_, off_ns))) = tr.differential("diff.forensics_off", || {
            traced_hybrid(&mut Tracer::new(false), true, "case", || {
                run_hybrid(
                    bad,
                    "case",
                    Jasan::hybrid(),
                    &Self::jasan_opts(cache, false),
                )
            })
        }) {
            self.ledger.add("forensics.on_ns", on_ns as f64);
            self.ledger.add("forensics.off_ns", off_ns as f64);
            self.ledger.add("forensics.pairs", 1.0);
        }
        let plugin = Jasan::hybrid();
        if let Some((image, file)) = case_rules {
            time_static_pipeline(tr, &image, &plugin, &file);
            let bytes = file.to_bytes();
            let key = store_key(&image, &plugin);
            let _ = tr.differential("store.save", || self.store.save(&key, &bytes));
        }
        if let Some(lib) = self.base.get("libjc.so") {
            let key = store_key(&lib, &plugin);
            let _ = tr.differential("store.load", || self.store.load(&key));
        }
    }
}

impl Workload for JulietVerdict {
    fn round(&mut self, _r: u64) -> usize {
        let mut cases = Vec::new();
        for (k, (_, n)) in STRATA.iter().enumerate() {
            for _ in 0..*n {
                let stratum = &self.strata[k];
                cases.push(stratum[self.cursors[k] % stratum.len()]);
                self.cursors[k] += 1;
            }
        }
        let order = self.rng.permutation(cases.len());
        self.round_cases = order.into_iter().map(|j| cases[j]).collect();
        self.round_cases.len()
    }

    fn min_rounds(&self) -> u64 {
        8
    }

    fn op(&mut self, tr: &mut Tracer, i: usize) -> OpResult {
        let case = self.suite[self.round_cases[i]].clone();
        let mut res = OpResult::ok(0);
        if let Err(e) = self.verdict_op(tr, &case, &mut res) {
            return OpResult::failed(format!("case {}: {e}", case.id));
        }
        res
    }

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn row_label(&self) -> &'static str {
        "category"
    }
}
