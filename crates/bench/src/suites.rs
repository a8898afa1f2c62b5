//! Shared benchmark suites, each usable both as a stand-alone
//! `cargo bench` target (see `benches/`) and as a building block of the
//! combined `BENCH_baseline.json` report (see `src/bin/baseline.rs`).

use bignum::{uniform_below, MontgomeryContext, UBig};
use dse::eval::FigureOfMerit;
use dse::value::Value;
use dse_library::{crypto, Explorer};
use foundation::bench::{black_box, Harness};
use foundation::rng::{SeedableRng, StdRng};
use hwmodel::{paper_designs, sim};
use swmodel::{MontgomeryVariant, OpCounts, WordMontgomery};
use techlib::Technology;

/// Random odd modulus of exactly `bits` bits plus two reduced operands.
fn operands(bits: u32, seed: u64) -> (UBig, UBig, UBig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = uniform_below(&UBig::power_of_two(bits), &mut rng);
    m.set_bit(bits - 1, true);
    m.set_bit(0, true);
    let a = uniform_below(&m, &mut rng);
    let b = uniform_below(&m, &mut rng);
    (a, b, m)
}

/// Microbenchmarks of the `bignum` substrate: the arithmetic every other
/// layer of the reproduction stands on.
pub fn bignum_ops() -> Harness {
    let mut h = Harness::new("bignum_ops");
    for bits in [256u32, 1024, 4096] {
        let (a, b, _) = operands(bits, 1);
        h.bench(format!("bignum/mul/{bits}"), || {
            black_box(black_box(&a) * black_box(&b));
        });
    }
    for bits in [256u32, 1024] {
        let (a, b, m) = operands(bits, 2);
        let prod = &a * &b;
        h.bench(format!("bignum/div_rem/{bits}"), || {
            black_box(black_box(&prod).div_rem(black_box(&m)));
        });
    }
    for bits in [256u32, 1024] {
        let (a, b, m) = operands(bits, 3);
        let ctx = MontgomeryContext::new(&m).expect("odd modulus");
        let (abar, bbar) = (ctx.to_mont(&a), ctx.to_mont(&b));
        h.bench(format!("bignum/mont_mul/{bits}"), || {
            black_box(ctx.mont_mul(black_box(&abar), black_box(&bbar)));
        });
    }
    for bits in [256u32, 512] {
        let (a, e, m) = operands(bits, 4);
        h.bench(format!("bignum/mod_pow/{bits}"), || {
            black_box(black_box(&a).mod_pow(&e, &m));
        });
    }
    h
}

/// The cycle-accurate datapath simulator: one modular multiplication
/// through each Table-1 design family, then operand-width scaling.
pub fn datapath() -> Harness {
    let mut h = Harness::new("datapath");
    let (a, b, m) = operands(64, 11);
    for family in paper_designs() {
        let arch = family.architecture(16).expect("16-bit slices");
        h.bench(format!("hwmodel/simulate_64b/{}", family.name()), || {
            black_box(
                sim::simulate(black_box(&arch), black_box(&a), black_box(&b), black_box(&m))
                    .expect("valid operands"),
            );
        });
    }
    let arch = paper_designs()[1].architecture(64).expect("64-bit slices");
    for bits in [64u32, 256, 768] {
        let (a, b, m) = operands(bits, u64::from(bits));
        h.bench(format!("hwmodel/simulate_scaling/{bits}"), || {
            black_box(sim::simulate(&arch, &a, &b, &m).expect("valid operands"));
        });
    }
    h
}

/// The five word-level Montgomery variants as *actually executed* by this
/// library (not the Pentium cost model) — a sanity companion to Fig. 6.
pub fn sw_variants() -> Harness {
    let mut h = Harness::new("sw_variants");
    let (a, b, m) = operands(1024, 21);
    let ctx = WordMontgomery::new(&m).expect("odd modulus");
    for variant in MontgomeryVariant::ALL {
        h.bench(format!("swmodel/mont_mul_1024b/{variant}"), || {
            let mut counts = OpCounts::new();
            black_box(
                ctx.mont_mul(black_box(&a), black_box(&b), variant, &mut counts)
                    .expect("reduced operands"),
            );
        });
    }
    h
}

/// The design-space-layer machinery itself: layer construction, library
/// generation, pruning and Pareto queries — the operations a designer's
/// tool loop would hammer.
pub fn exploration() -> Harness {
    let mut h = Harness::new("exploration");
    h.bench("dse/build_crypto_layer", || {
        black_box(crypto::build_layer().expect("layer builds"));
    });
    let tech = Technology::g10_035();
    h.bench("dse/build_crypto_library_768", || {
        black_box(crypto::build_library(black_box(&tech), 768));
    });
    let layer = crypto::build_layer().expect("layer builds");
    let library = crypto::build_library(&tech, 768);
    h.bench("dse/session_prune_and_rank", || {
        let mut exp = Explorer::new(&layer.space, layer.omm, &library);
        exp.session
            .set_requirement("EOL", Value::from(768))
            .unwrap();
        exp.session
            .set_requirement("MaxLatencyUs", Value::from(8.0))
            .unwrap();
        exp.session
            .set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        exp.session
            .decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        exp.session
            .decide("Algorithm", Value::from("Montgomery"))
            .unwrap();
        exp.session
            .decide("AdderStructure", Value::from("carry-save"))
            .unwrap();
        black_box((
            exp.surviving_cores().len(),
            exp.pareto_cores(&[FigureOfMerit::AreaUm2, FigureOfMerit::DelayNs])
                .len(),
        ));
    });
    h.bench("dse/build_fir_library", || {
        black_box(dse_library::fir::build_library(black_box(&tech)));
    });
    h
}

/// Million-core scale: the columnar `CoreStore` over the seeded library
/// generator — cold index builds, AND-merge narrowing queries, and the
/// incremental decide/retract path against the legacy from-scratch scan
/// (asserted ≥10× faster in-suite, mirroring the `solve` suite's gate).
pub fn explore_scale() -> Harness {
    use dse_library::synthetic::{synthetic_core_space, synthetic_cores, CoreSpaceSpec};
    use dse_library::{CoreStore, ExplorerEngine};

    let mut h = Harness::new("explore_scale");
    for (label, cores) in [("1k", 1_000usize), ("100k", 100_000), ("1M", 1_000_000)] {
        let spec = CoreSpaceSpec::sized(cores);
        let (space, root) = synthetic_core_space(&spec);
        let library = synthetic_cores(&spec);

        // Cold index build: all posting lists + merit columns.
        h.bench(format!("explore_scale/store_build_{label}"), || {
            black_box(CoreStore::for_libraries(&[black_box(&library)]));
        });

        // The AND-merge narrowing path: decide, popcount, retract. The
        // option toggles per iteration so the cursor can never answer
        // from its memo — every round pays one retract + one AND-merge.
        let mut exp = Explorer::new(&space, root, &library);
        exp.set_engine(ExplorerEngine::Columnar);
        let mut flip = false;
        h.bench(format!("explore_scale/and_query_{label}"), || {
            flip = !flip;
            let option = if flip { "o1" } else { "o2" };
            exp.session.decide("P0", Value::from(option)).unwrap();
            black_box(exp.surviving_count());
            exp.session.undo().unwrap();
        });

        if cores == 1_000_000 {
            // Full interactive round at the million-core mark — decide,
            // survivor count, merit range, retract — incrementally…
            let mut flip = false;
            let incremental = h
                .bench("explore_scale/decide_incremental_1M", || {
                    flip = !flip;
                    let option = if flip { "o1" } else { "o2" };
                    exp.session.decide("P0", Value::from(option)).unwrap();
                    black_box((
                        exp.surviving_count(),
                        exp.merit_range(&FigureOfMerit::AreaUm2),
                    ));
                    exp.session.undo().unwrap();
                })
                .median_ns;

            // …versus the legacy from-scratch scan answering the same
            // queries.
            let mut scan = Explorer::new(&space, root, &library);
            scan.set_engine(ExplorerEngine::Scan);
            let mut flip = false;
            let scratch = h
                .bench("explore_scale/from_scratch_1M", || {
                    flip = !flip;
                    let option = if flip { "o1" } else { "o2" };
                    scan.session.decide("P0", Value::from(option)).unwrap();
                    black_box((
                        scan.surviving_count(),
                        scan.merit_range(&FigureOfMerit::AreaUm2),
                    ));
                    scan.session.undo().unwrap();
                })
                .median_ns;
            assert!(
                incremental * 10.0 <= scratch,
                "incremental decide must be ≥10× faster than from-scratch \
                 recompute at 1M cores: {incremental:.0} ns vs {scratch:.0} ns"
            );
        }
    }
    h
}

/// One benchmark per reproduced paper artifact: regenerating each
/// table/figure end to end (the `tables` harness body).
pub fn paper_artifacts() -> Harness {
    use crate::experiments::{
        ablation_cc2, ablation_pruning, fig12, fig3, fig6, fig9, fir, methods, power, table1,
        walkthrough,
    };
    let mut h = Harness::new("paper_artifacts");
    let tech = Technology::g10_035();
    h.bench("artifacts/table1", || {
        black_box(table1::run(&tech));
    });
    h.bench("artifacts/fig6", || {
        black_box(fig6::run(&tech));
    });
    h.bench("artifacts/fig9", || {
        black_box(fig9::run(&tech));
    });
    h.bench("artifacts/fig12", || {
        black_box(fig12::run(&tech));
    });
    h.bench("artifacts/fig3", || {
        black_box(fig3::run());
    });
    h.bench("artifacts/ablation_pruning", || {
        black_box(ablation_pruning::run(&tech));
    });
    h.bench("artifacts/power", || {
        black_box(power::run(&tech));
    });
    h.bench("artifacts/fir", || {
        black_box(fir::run(&tech));
    });
    h.bench("artifacts/ablation_cc2", || {
        black_box(ablation_cc2::run());
    });
    h.bench("artifacts/walkthrough", || {
        black_box(walkthrough::render());
    });
    h.bench("artifacts/methods", || {
        black_box(methods::run());
    });
    h
}

/// The resilience layer (`dse::robust`): supervised tool calls against
/// bare registry calls (the supervision overhead the acceptance gate
/// bounds at 2×), the full fallback ladder under injected faults, and
/// journal serialization/recovery.
pub fn robust() -> Harness {
    use dse::expr::Bindings;
    use dse::robust::{FaultPlan, FaultRates, Supervisor};
    use dse::robust::fault::silence_injected_panics;
    use dse::robust::{JournalRecord, JournaledSession};
    use dse_library::estimators::full_registry;

    silence_injected_panics();
    let mut h = Harness::new("robust");
    let tech = Technology::g10_035();
    let mut bindings = Bindings::new();
    bindings.insert("EOL".to_owned(), Value::from(768));
    bindings.insert("Algorithm".to_owned(), Value::from("Montgomery"));
    bindings.insert("Radix".to_owned(), Value::from(2));

    let bare = full_registry(tech.clone());
    h.bench("robust/bare_call", {
        let bindings = bindings.clone();
        move || {
            black_box(
                bare.run("CoarseDelayEstimator", black_box(&bindings))
                    .expect("healthy tool"),
            );
        }
    });
    let sup = Supervisor::new(full_registry(tech.clone()));
    h.bench("robust/supervised_call", {
        let bindings = bindings.clone();
        move || {
            black_box(
                sup.call("CoarseDelayEstimator", black_box(&bindings))
                    .expect("healthy tool"),
            );
        }
    });
    let chaotic = Supervisor::new(
        FaultPlan::new(42, 64, FaultRates::chaos()).wrap_registry(full_registry(tech.clone())),
    );
    h.bench("robust/supervised_estimate_under_chaos", {
        let bindings = bindings.clone();
        move || {
            black_box(chaotic.estimate(
                "BehaviorDelayEstimator",
                black_box(&bindings),
                Some((0.1, 50.0)),
            ));
        }
    });

    let layer = crypto::build_layer().expect("layer builds");
    h.bench("robust/journal_roundtrip", move || {
        let mut js = JournaledSession::new(&layer.space, layer.omm);
        js.set_requirement("EOL", Value::from(768)).unwrap();
        js.set_requirement("MaxLatencyUs", Value::from(8.0)).unwrap();
        js.set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
            .unwrap();
        js.decide("ImplementationStyle", Value::from("Hardware"))
            .unwrap();
        js.decide("Algorithm", Value::from("Montgomery")).unwrap();
        let text = black_box(js.journal().to_jsonl());
        black_box(
            JournaledSession::recover(&layer.space, layer.omm, &text).expect("clean journal"),
        );
    });
    h.bench("robust/journal_encode_decode_record", || {
        let r = JournalRecord::Decide {
            name: "Algorithm".to_owned(),
            value: Value::from("Montgomery"),
        };
        let line = foundation::json::encode(black_box(&r));
        black_box(foundation::json::decode::<JournalRecord>(&line).expect("roundtrip"));
    });
    h
}

/// The estimate memo (`dse::robust::EstimateCache`): cold vs warm
/// supervised estimates, the fingerprint itself, and a repeated-decide
/// session loop that must exceed the 90% hit-rate acceptance gate while
/// still missing (never serving stale figures) when an input changes.
pub fn cache() -> Harness {
    use std::sync::Arc;

    use dse::expr::Bindings;
    use dse::robust::{EstimateCache, Supervisor};
    use dse::session::ExplorationSession;
    use dse_library::estimators::full_registry;

    let mut h = Harness::new("cache");
    let tech = Technology::g10_035();
    let mut bindings = Bindings::new();
    bindings.insert("EOL", Value::from(768));
    bindings.insert("Algorithm", Value::from("Montgomery"));
    bindings.insert("BehavioralDecomposition", Value::from("use-default"));

    let cold = Supervisor::new(full_registry(tech.clone()));
    h.bench("cache/estimate_uncached", {
        let bindings = bindings.clone();
        move || {
            black_box(cold.estimate(
                "BehaviorDelayEstimator",
                black_box(&bindings),
                Some((0.1, 50.0)),
            ));
        }
    });

    let warm = Supervisor::with_cache(
        full_registry(tech.clone()),
        Arc::new(EstimateCache::new()),
    );
    warm.estimate("BehaviorDelayEstimator", &bindings, Some((0.1, 50.0)));
    h.bench("cache/estimate_memo_hit", {
        let bindings = bindings.clone();
        move || {
            black_box(warm.estimate(
                "BehaviorDelayEstimator",
                black_box(&bindings),
                Some((0.1, 50.0)),
            ));
        }
    });

    h.bench("cache/fingerprint", {
        let bindings = bindings.clone();
        move || {
            black_box(EstimateCache::fingerprint(black_box(&bindings)));
        }
    });

    // A repeated-decide loop: every undo/redecide returns the session to
    // a state the cache has fingerprinted before, so after the first
    // iteration every estimator run is a hit.
    let layer = crypto::build_layer().expect("layer builds");
    let cached = Supervisor::with_cache(
        full_registry(tech.clone()),
        Arc::new(EstimateCache::new()),
    );
    let mut session = ExplorationSession::new(&layer.space, layer.omm);
    session.set_requirement("EOL", Value::from(768)).unwrap();
    session
        .set_requirement("MaxLatencyUs", Value::from(8.0))
        .unwrap();
    session
        .set_requirement("ModuloIsOdd", Value::from("Guaranteed"))
        .unwrap();
    session
        .decide("ImplementationStyle", Value::from("Hardware"))
        .unwrap();
    session.decide("Algorithm", Value::from("Montgomery")).unwrap();
    h.bench("cache/repeated_decide_session", || {
        session
            .decide("BehavioralDecomposition", Value::from("use-default"))
            .unwrap();
        black_box(session.run_estimators(&cached));
        session.undo().unwrap();
    });

    let stats = cached.cache().expect("cache attached").stats();
    assert!(
        stats.hit_rate() > 0.90,
        "repeated-decide workload must exceed the 90% hit-rate gate, got {:.3} ({stats:?})",
        stats.hit_rate()
    );
    // Correct invalidation, both implicit and explicit: a changed input
    // must miss instead of serving the memoized figure, and dropping the
    // tool's entries must force recomputation.
    let misses_before = stats.misses;
    session
        .decide("BehavioralDecomposition", Value::from("select-per-operator"))
        .unwrap();
    black_box(session.run_estimators(&cached));
    let cache = cached.cache().expect("cache attached");
    assert!(
        cache.stats().misses > misses_before,
        "a changed input fingerprint must miss: {:?}",
        cache.stats()
    );
    assert!(cache.invalidate_tool("BehaviorDelayEstimator") > 0);
    h
}

/// The static analyzer (`dse::analyze`): full-space verification of the
/// shipped crypto layer, plus a synthetic ~1.4k-CDO space that stresses
/// the per-node passes (derivation graph, domain enumeration, hierarchy
/// checks) at a scale no shipped layer reaches.
pub fn analyze() -> Harness {
    use dse::constraint::{ConsistencyConstraint, Fidelity, Relation};
    use dse::expr::{Expr, Pred};
    use dse::hierarchy::DesignSpace;
    use dse::property::Property;
    use dse::value::Domain;

    /// A uniform tree: each node down to `depth` carries a generalized
    /// issue with `arity` options, each spawning a child. With
    /// `arity = 4, depth = 5` that is 1365 CDOs.
    fn synthetic_space(arity: usize, depth: usize) -> DesignSpace {
        let mut s = DesignSpace::new("synthetic");
        let root = s.add_root("Root", "");
        let mut frontier = vec![root];
        for level in 0..depth {
            let issue = format!("L{level}");
            let options: Vec<String> = (0..arity).map(|o| format!("o{o}")).collect();
            let mut next = Vec::with_capacity(frontier.len() * arity);
            for &node in &frontier {
                s.add_property(
                    node,
                    Property::generalized_issue(&issue, Domain::options(options.clone()), ""),
                )
                .expect("fresh issue per level");
                next.extend(s.specialize(node, &issue).expect("enumerable issue"));
            }
            frontier = next;
        }
        // A derivation chain and two option constraints for the domain
        // passes to chew on.
        s.add_constraint(
            root,
            ConsistencyConstraint::new(
                "CCderive",
                "",
                ["L0".to_owned()],
                ["Depth".to_owned()],
                Relation::Quantitative {
                    target: "Depth".to_owned(),
                    formula: Expr::constant(1),
                    fidelity: Fidelity::Exact,
                },
            ),
        )
        .expect("well-formed");
        s.add_constraint(
            root,
            ConsistencyConstraint::new(
                "CCpair",
                "",
                ["L0".to_owned(), "L1".to_owned()],
                [],
                Relation::InconsistentOptions(Pred::all([
                    Pred::is("L0", "o0"),
                    Pred::is("L1", "o1"),
                ])),
            ),
        )
        .expect("well-formed");
        s.add_constraint(
            root,
            ConsistencyConstraint::new(
                "CCdom",
                "",
                ["L0".to_owned(), "L1".to_owned()],
                [],
                Relation::Dominance(Pred::all([
                    Pred::is("L0", "o1"),
                    Pred::is("L1", "o0"),
                ])),
            ),
        )
        .expect("well-formed");
        s
    }

    let mut h = Harness::new("analyze");
    let layer = crypto::build_layer().expect("layer builds");
    h.bench("analyze/crypto_layer", || {
        black_box(dse::analyze::analyze(black_box(&layer.space)));
    });
    let synthetic = synthetic_space(4, 5);
    assert_eq!(synthetic.len(), 1365);
    h.bench("analyze/synthetic_1365_cdos", || {
        black_box(dse::analyze::analyze(black_box(&synthetic)));
    });
    // The same sweep pinned to one thread: the sequential-overhead bound
    // (the parallel engine must not tax single-core runs), and the
    // denominator for the multi-core speedup when cores are available.
    h.bench("analyze/synthetic_1365_cdos_1thread", || {
        foundation::par::with_thread_limit(1, || {
            black_box(dse::analyze::analyze(black_box(&synthetic)));
        });
    });
    h.bench("analyze/evaluation_order_crypto", || {
        black_box(
            dse::analyze::evaluation_order(black_box(&layer.space), layer.omm)
                .expect("crypto space is acyclic"),
        );
    });
    h
}

/// The exploration daemon's engine: request-dispatch overhead, full
/// session lifecycles (with and without journaling), a pipelined batch
/// fanned out across the worker pool, and the guard layer's two costs —
/// deadline admission on the hot path and journal compaction under
/// churn — each gated in-suite at 2× of its unguarded twin.
pub fn server() -> Harness {
    use dse_server::{EngineBuilder, GuardConfig};

    let mut h = Harness::new("server");
    let tech = Technology::g10_035();
    let engine = EngineBuilder::new(tech.clone())
        .with_shipped_layers()
        .build()
        .expect("engine builds");

    // Pure dispatch: parse + route + render for the cheapest op.
    let plain = h
        .bench("server/stats_roundtrip", || {
            black_box(engine.handle_line(black_box(r#"{"op":"stats"}"#)));
        })
        .median_ns;

    // The same request carrying a generous deadline: fuel bookkeeping
    // (budget construction + the admission charge) rides every guarded
    // request, so it must stay within 2× of the unguarded dispatch.
    let guarded = h
        .bench("server/guard_admission_overhead", || {
            black_box(engine.handle_line(black_box(r#"{"op":"stats","deadline_ms":60000}"#)));
        })
        .median_ns;
    assert!(
        guarded <= plain * 2.0,
        "deadline admission must cost ≤2× an unguarded request: \
         {guarded:.0} ns vs {plain:.0} ns"
    );

    // A full open → decide ×3 → surviving_cores → close conversation on
    // the shared snapshot (session state only; no disk).
    let conversation = |id: &str| -> Vec<String> {
        vec![
            format!(r#"{{"op":"open","session":"{id}","snapshot":"crypto"}}"#),
            format!(r#"{{"op":"decide","session":"{id}","name":"EOL","value":768}}"#),
            format!(r#"{{"op":"decide","session":"{id}","name":"ModuloIsOdd","value":"Guaranteed"}}"#),
            format!(r#"{{"op":"decide","session":"{id}","name":"ImplementationStyle","value":"Hardware"}}"#),
            format!(r#"{{"op":"surviving_cores","session":"{id}","limit":4}}"#),
            format!(r#"{{"op":"close","session":"{id}"}}"#),
        ]
    };
    let lines = conversation("bench");
    h.bench("server/session_lifecycle", || {
        for line in &lines {
            black_box(engine.handle_line(black_box(line)));
        }
    });

    // The same lifecycle with a decision journal underneath: the price
    // of durability (open/append/close per record).
    let dir = std::env::temp_dir().join(format!("dse-bench-server-{}", std::process::id()));
    let journaled = EngineBuilder::new(tech)
        .with_shipped_layers()
        .journal_dir(&dir)
        .build()
        .expect("engine builds");
    h.bench("server/session_lifecycle_journaled", || {
        for line in &lines {
            black_box(journaled.handle_line(black_box(line)));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Journal lifecycle under churn: one session accumulating ~1k
    // records of decide/retract per round. With the default threshold
    // the journal is compacted (verified replay + crash-safe rename)
    // about twice per round; the amortized cost must stay within 2× of
    // the same churn with compaction disabled.
    let churn: Vec<String> = {
        let mut v = vec![r#"{"op":"open","session":"churn","snapshot":"crypto"}"#.to_owned()];
        for _ in 0..500 {
            v.push(r#"{"op":"decide","session":"churn","name":"EOL","value":768}"#.to_owned());
            v.push(r#"{"op":"retract","session":"churn"}"#.to_owned());
        }
        v.push(r#"{"op":"close","session":"churn"}"#.to_owned());
        v
    };
    let churn_engine = |compact_after: usize, tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "dse-bench-guard-{tag}-{}",
            std::process::id()
        ));
        let engine = EngineBuilder::new(Technology::g10_035())
            .with_shipped_layers()
            .journal_dir(&dir)
            .guard(GuardConfig {
                compact_after,
                ..GuardConfig::default()
            })
            .build()
            .expect("engine builds");
        (engine, dir)
    };
    let (appending, append_dir) = churn_engine(0, "append");
    let append_only = h
        .bench("server/journal_churn_1k_append_only", || {
            for line in &churn {
                black_box(appending.handle_line(black_box(line)));
            }
        })
        .median_ns;
    let _ = std::fs::remove_dir_all(&append_dir);
    let (compacting, compact_dir) = churn_engine(512, "compact");
    let compacted = h
        .bench("server/journal_churn_1k_compacting", || {
            for line in &churn {
                black_box(compacting.handle_line(black_box(line)));
            }
        })
        .median_ns;
    let _ = std::fs::remove_dir_all(&compact_dir);
    assert!(
        compacted <= append_only * 2.0,
        "compaction must amortize to ≤2× append-only churn: \
         {compacted:.0} ns vs {append_only:.0} ns"
    );

    // 32 interleaved sessions in one pipelined batch: distinct sessions
    // fan out over foundation::par, per-session order preserved.
    let batch: Vec<String> = {
        let scripts: Vec<Vec<String>> = (0..32).map(|i| conversation(&format!("b{i}"))).collect();
        let rounds = scripts.iter().map(Vec::len).max().unwrap_or(0);
        (0..rounds)
            .flat_map(|r| scripts.iter().filter_map(move |s| s.get(r).cloned()))
            .collect()
    };
    h.bench("server/batch_32_sessions", || {
        black_box(engine.handle_batch(black_box(&batch)));
    });
    h
}

/// The propagation solver on the seeded synthetic stress layer — a
/// 10⁸-combination joint no exhaustive enumeration can finish. The
/// `incremental_decide_retract`-vs-`from_scratch_reanalysis` pair is a
/// hard gate: a decide/retract re-solve must stay at least 10× faster
/// than re-analyzing the space from scratch, or the suite panics.
pub fn solve() -> Harness {
    use dse::analyze::solve::Solver;
    use dse::analyze::{analyze_with_engine, DomainEngine};
    use dse_library::synthetic::{build_stress_layer, STRESS_SEED};

    let layer = build_stress_layer(STRESS_SEED).expect("stress layer builds");
    assert!(layer.combinations() >= 1_000_000);
    let mut h = Harness::new("solve");

    // The full analysis (all domain passes routed through the exact
    // propagation engine) — what `verify.sh`'s solver gate times.
    let scratch = h
        .bench("solve/from_scratch_reanalysis", || {
            black_box(analyze_with_engine(
                black_box(&layer.space),
                DomainEngine::Propagation,
            ));
        })
        .median_ns;

    // The incremental solver's setup cost: domains + watched-constraint
    // index + the parallel initial fixpoint.
    h.bench("solve/initial_fixpoint", || {
        black_box(Solver::for_space(black_box(&layer.space), layer.root));
    });

    // One decide/retract round trip against a warm solver: the
    // O(changed domains) path every interactive session and server
    // lookahead hits.
    let mut solver = Solver::for_space(&layer.space, layer.root);
    let raise = Value::from(true);
    let incremental = h
        .bench("solve/incremental_decide_retract", || {
            black_box(solver.decide("S0", black_box(&raise)));
            solver.retract();
        })
        .median_ns;
    assert!(
        incremental * 10.0 <= scratch,
        "incremental re-solve must be ≥10× faster than from-scratch \
         re-analysis: {incremental:.0} ns vs {scratch:.0} ns"
    );

    // A decide that conflicts (the fixpoint already pruned `tiny`), so
    // each iteration builds the full explanation chain.
    let mut conflicted = Solver::for_space(&layer.space, layer.root);
    let tiny = Value::from("tiny");
    h.bench("solve/conflict_explanation", || {
        let c = conflicted.decide("Codec", black_box(&tiny));
        assert!(c.is_some(), "Codec = tiny must conflict");
        black_box(c);
        conflicted.retract();
    });

    h
}

/// The wire path end to end in process: decode, dispatch, render into
/// a reused buffer.
///
/// `stats` is pure codec (no session work); `decide` is the hot
/// interactive op on a live session; the 32-session batch is the
/// pipelined shape the baseline also tracks as
/// `server/batch_32_sessions`, here through the byte-level batch entry
/// point.
pub fn wire() -> Harness {
    use dse_server::EngineBuilder;

    let mut h = Harness::new("wire");
    let engine = EngineBuilder::new(Technology::g10_035())
        .with_shipped_layers()
        .build()
        .expect("engine builds");

    let mut out = Vec::new();
    h.bench("wire/stats_roundtrip_fast", || {
        out.clear();
        engine.handle_line_into(black_box(r#"{"op":"stats"}"#), &mut out);
        black_box(&out);
    });

    engine.handle_line(r#"{"op":"open","session":"w","snapshot":"crypto"}"#);
    let decide = r#"{"op":"decide","session":"w","name":"EOL","value":768}"#;
    h.bench("wire/decide_roundtrip_fast", || {
        out.clear();
        engine.handle_line_into(black_box(decide), &mut out);
        black_box(&out);
    });

    let conversation = |id: &str| -> Vec<String> {
        vec![
            format!(r#"{{"op":"open","session":"{id}","snapshot":"crypto"}}"#),
            format!(r#"{{"op":"decide","session":"{id}","name":"EOL","value":768}}"#),
            format!(r#"{{"op":"decide","session":"{id}","name":"ModuloIsOdd","value":"Guaranteed"}}"#),
            format!(r#"{{"op":"decide","session":"{id}","name":"ImplementationStyle","value":"Hardware"}}"#),
            format!(r#"{{"op":"surviving_cores","session":"{id}","limit":4}}"#),
            format!(r#"{{"op":"close","session":"{id}"}}"#),
        ]
    };
    let batch: Vec<String> = {
        let scripts: Vec<Vec<String>> = (0..32).map(|i| conversation(&format!("w{i}"))).collect();
        let rounds = scripts.iter().map(Vec::len).max().unwrap_or(0);
        (0..rounds)
            .flat_map(|r| scripts.iter().filter_map(move |s| s.get(r).cloned()))
            .collect()
    };
    h.bench("wire/batch_32_sessions_fast", || {
        black_box(engine.handle_batch_into(black_box(&batch)));
    });

    h
}
