//! Oracles computed apart from the program.
//!
//! Each check takes the program's output for one operation and returns
//! `Err` with a one-line reason when the output is wrong; the benchmark
//! fails that operation. None of them compares against saved output.

use janitizer_workloads::JulietCategory;

/// The two detectors of the Juliet verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detector {
    /// The Valgrind/Memcheck-like baseline (16-byte redzones, untracked stack).
    Memcheck,
    /// JASan-hybrid (32-byte redzones, frame-granularity stack policy).
    Jasan,
}

/// Whether `tool` flags a variant, from the case category alone.
///
/// Both tools catch the overflow into the adjacent redzone and the
/// undersized heap destination. Only JASan's wider redzones catch the
/// wide overflow into the next allocation. Neither sees the intra-frame
/// stack spill, and no good variant is flagged. Over the 624 pairs this
/// yields the paper's Fig. 10: JASan 528 found / 96 missed, Memcheck
/// 504 found / 120 missed, no false positives.
pub fn expected_flag(category: JulietCategory, bad: bool, tool: Detector) -> bool {
    bad && match category {
        JulietCategory::HeapToHeap | JulietCategory::StackToHeap => true,
        JulietCategory::HeapToHeapWide => tool == Detector::Jasan,
        JulietCategory::HeapToStack => false,
    }
}

/// The four flags of one verdict, in run order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Memcheck flagged the good variant.
    pub memcheck_good: bool,
    /// Memcheck flagged the bad variant.
    pub memcheck_bad: bool,
    /// JASan flagged the good variant.
    pub jasan_good: bool,
    /// JASan flagged the bad variant.
    pub jasan_bad: bool,
}

/// Checks a verdict against [`expected_flag`].
pub fn check_verdict(category: JulietCategory, v: Verdict) -> Result<(), String> {
    let cells = [
        (
            "memcheck",
            "good",
            Detector::Memcheck,
            false,
            v.memcheck_good,
        ),
        ("memcheck", "bad", Detector::Memcheck, true, v.memcheck_bad),
        ("jasan", "good", Detector::Jasan, false, v.jasan_good),
        ("jasan", "bad", Detector::Jasan, true, v.jasan_bad),
    ];
    for (tool, variant, det, bad, got) in cells {
        let want = expected_flag(category, bad, det);
        if got != want {
            return Err(format!(
                "{category:?}: {tool} on the {variant} variant flagged={got}, expected {want}"
            ));
        }
    }
    Ok(())
}

/// CWE-122 plants only heap overflows, so every JASan report on a
/// flagged variant must name that class (and a flagged variant must
/// carry at least one report).
pub fn check_report_kinds(kinds: &[&str]) -> Result<(), String> {
    if kinds.is_empty() {
        return Err("flagged variant produced no forensic report".into());
    }
    match kinds.iter().find(|k| **k != "heap-buffer-overflow") {
        Some(k) => Err(format!(
            "report of kind `{k}`, expected heap-buffer-overflow"
        )),
        None => Ok(()),
    }
}

/// What a benign run must reproduce of its native run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Exit code (`None`: the run did not exit normally).
    pub code: Option<i64>,
    /// Captured stdout.
    pub stdout: String,
    /// Security reports raised.
    pub reports: usize,
}

/// An instrumented run of a benign program ends like the native run and
/// raises no report.
pub fn check_benign(native: &Outcome, run: &Outcome) -> Result<(), String> {
    if native.code.is_none() {
        return Err("native run did not exit normally".into());
    }
    if run.code != native.code {
        return Err(format!(
            "exit {:?}, native exit {:?}",
            run.code, native.code
        ));
    }
    if run.stdout != native.stdout {
        return Err("stdout differs from the native run".into());
    }
    if run.reports != 0 {
        return Err(format!("{} reports on a benign input", run.reports));
    }
    Ok(())
}

/// Modeled slowdowns of one program under the SPEC configurations.
#[derive(Clone, Copy, Debug)]
pub struct Slowdowns {
    /// Null client (engine cost alone).
    pub null: f64,
    /// JASan-hybrid.
    pub jasan_hybrid: f64,
    /// JASan without static analysis.
    pub jasan_dyn: f64,
    /// JCFI-hybrid.
    pub jcfi_hybrid: f64,
}

/// The order the method guarantees: instrumentation only adds to the
/// engine's cost, and static rules only remove dynamic checks:
/// 1 ≤ null ≤ JASan-hybrid ≤ JASan-dyn, and null ≤ JCFI-hybrid.
pub fn check_order(s: Slowdowns) -> Result<(), String> {
    let chain = [
        ("native", 1.0),
        ("null-client", s.null),
        ("jasan-hybrid", s.jasan_hybrid),
        ("jasan-dyn", s.jasan_dyn),
    ];
    for w in chain.windows(2) {
        if w[1].1 < w[0].1 {
            return Err(format!(
                "{} {:.4}x < {} {:.4}x",
                w[1].0, w[1].1, w[0].0, w[0].1
            ));
        }
    }
    if s.jcfi_hybrid < s.null {
        return Err(format!(
            "jcfi-hybrid {:.4}x < null-client {:.4}x",
            s.jcfi_hybrid, s.null
        ));
    }
    Ok(())
}

/// Exact cycle conservation of a profile bundle: the class totals sum
/// to the run's cycles, and the engine's share equals the engine's own
/// overhead counter.
pub fn check_conservation(
    class_total: u64,
    run_cycles: u64,
    engine_overhead: u64,
    stats_overhead: u64,
) -> Result<(), String> {
    if class_total != run_cycles {
        return Err(format!(
            "profile classes sum to {class_total}, run took {run_cycles} cycles"
        ));
    }
    if engine_overhead != stats_overhead {
        return Err(format!(
            "profile engine overhead {engine_overhead} != engine counter {stats_overhead}"
        ));
    }
    Ok(())
}

/// Profiling only observes: outcome, cycles and reports equal those of
/// the unprofiled run of the same cell.
pub fn check_observation_only(
    profiled: (&Outcome, u64),
    plain: (&Outcome, u64),
) -> Result<(), String> {
    if profiled.0 != plain.0 {
        return Err(format!(
            "profiled outcome {:?} != unprofiled {:?}",
            profiled.0.code, plain.0.code
        ));
    }
    if profiled.1 != plain.1 {
        return Err(format!(
            "profiled run took {} cycles, unprofiled {}",
            profiled.1, plain.1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_workloads::{N_HEAP, N_HEAP_TO_STACK, N_HEAP_WIDE, N_STACK_TO_HEAP};

    const ALL: [JulietCategory; 4] = [
        JulietCategory::HeapToHeap,
        JulietCategory::HeapToHeapWide,
        JulietCategory::StackToHeap,
        JulietCategory::HeapToStack,
    ];

    fn expected(c: JulietCategory) -> Verdict {
        Verdict {
            memcheck_good: expected_flag(c, false, Detector::Memcheck),
            memcheck_bad: expected_flag(c, true, Detector::Memcheck),
            jasan_good: expected_flag(c, false, Detector::Jasan),
            jasan_bad: expected_flag(c, true, Detector::Jasan),
        }
    }

    #[test]
    fn category_oracle_reproduces_the_published_fig10_totals() {
        let counts = [N_HEAP, N_HEAP_WIDE, N_STACK_TO_HEAP, N_HEAP_TO_STACK];
        let (mut jasan_tp, mut mc_tp, mut fp) = (0, 0, 0);
        for (c, n) in ALL.into_iter().zip(counts) {
            let v = expected(c);
            jasan_tp += n * v.jasan_bad as usize;
            mc_tp += n * v.memcheck_bad as usize;
            fp += n * (v.jasan_good as usize + v.memcheck_good as usize);
        }
        assert_eq!((jasan_tp, 624 - jasan_tp), (528, 96));
        assert_eq!((mc_tp, 624 - mc_tp), (504, 120));
        assert_eq!(fp, 0);
    }

    #[test]
    fn a_flipped_verdict_fails() {
        for c in ALL {
            let v = expected(c);
            assert!(check_verdict(c, v).is_ok());
            for flip in 0..4 {
                let mut w = v;
                let f = match flip {
                    0 => &mut w.memcheck_good,
                    1 => &mut w.memcheck_bad,
                    2 => &mut w.jasan_good,
                    _ => &mut w.jasan_bad,
                };
                *f = !*f;
                assert!(check_verdict(c, w).is_err(), "{c:?} flip {flip}");
            }
        }
    }

    #[test]
    fn a_report_of_another_class_fails() {
        assert!(check_report_kinds(&["heap-buffer-overflow"]).is_ok());
        assert!(check_report_kinds(&["heap-buffer-overflow", "stack-buffer-overflow"]).is_err());
        assert!(check_report_kinds(&[]).is_err());
    }

    #[test]
    fn a_changed_exit_code_fails() {
        let native = Outcome {
            code: Some(3),
            stdout: "ok\n".into(),
            reports: 0,
        };
        assert!(check_benign(&native, &native.clone()).is_ok());
        let changed = Outcome {
            code: Some(4),
            ..native.clone()
        };
        assert!(check_benign(&native, &changed).is_err());
        let faulted = Outcome {
            code: None,
            ..native.clone()
        };
        assert!(check_benign(&native, &faulted).is_err());
        let reported = Outcome {
            reports: 1,
            ..native.clone()
        };
        assert!(check_benign(&native, &reported).is_err());
        let other_out = Outcome {
            stdout: "ok?\n".into(),
            ..native.clone()
        };
        assert!(check_benign(&native, &other_out).is_err());
    }

    #[test]
    fn a_cycle_total_off_by_one_fails() {
        assert!(check_conservation(1000, 1000, 400, 400).is_ok());
        assert!(check_conservation(1001, 1000, 400, 400).is_err());
        assert!(check_conservation(1000, 1000, 399, 400).is_err());
        let o = Outcome {
            code: Some(0),
            stdout: String::new(),
            reports: 0,
        };
        assert!(check_observation_only((&o, 77), (&o, 77)).is_ok());
        assert!(check_observation_only((&o, 78), (&o, 77)).is_err());
    }

    #[test]
    fn slowdown_order_violations_fail() {
        let ok = Slowdowns {
            null: 1.2,
            jasan_hybrid: 2.0,
            jasan_dyn: 3.0,
            jcfi_hybrid: 1.5,
        };
        assert!(check_order(ok).is_ok());
        assert!(check_order(Slowdowns { null: 0.99, ..ok }).is_err());
        assert!(check_order(Slowdowns {
            jasan_hybrid: 3.1,
            ..ok
        })
        .is_err());
        assert!(check_order(Slowdowns {
            jcfi_hybrid: 1.1,
            ..ok
        })
        .is_err());
    }
}
