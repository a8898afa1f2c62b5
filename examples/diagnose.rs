//! Static analysis over every shipped design space layer.
//!
//! Runs [`dse::analyze::analyze`] on the crypto, IDCT and FIR layers and
//! prints each report in compiler style. `scripts/verify.sh` runs this as
//! a gate: shipped spaces must be error-free.
//!
//! ```text
//! cargo run --example diagnose                 # human-readable reports
//! cargo run --example diagnose -- --json       # machine-readable JSON
//! cargo run --example diagnose -- --stats      # solver counters + wall time
//! cargo run --example diagnose -- --synthetic  # add the ≥10⁶-combination stress space
//! ```
//!
//! `--stats` reports, per space: propagations run, conflicts found,
//! fixpoint iterations, exact-search nodes and wall time. `--synthetic`
//! appends the seeded [`dse_library::synthetic`] stress layer — a space
//! the legacy exhaustive checker cannot finish — which is how the
//! verify-script solver gate times the propagation engine.
//!
//! Exits nonzero when any space has an error-severity finding.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use design_space_layer::dse::analyze::{analyze_detailed, solve::SolveTotals, DomainEngine};
use design_space_layer::dse::diag::Report;
use design_space_layer::dse::hierarchy::DesignSpace;
use design_space_layer::dse_library::load_all_layers;
use design_space_layer::dse_library::synthetic::{build_stress_layer, STRESS_SEED};
use design_space_layer::foundation::json::{encode_pretty, Json, ToJson};
use design_space_layer::techlib::Technology;

/// One analyzed space: its report plus the solver-side counters.
struct Analyzed {
    name: String,
    report: Report,
    totals: SolveTotals,
    elapsed: Duration,
}

fn run(name: String, space: &DesignSpace) -> Analyzed {
    let start = Instant::now();
    let analysis = analyze_detailed(space, DomainEngine::Propagation);
    Analyzed {
        name,
        report: analysis.report,
        totals: analysis.stats,
        elapsed: start.elapsed(),
    }
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let json = std::env::args().any(|a| a == "--json");
    let stats = std::env::args().any(|a| a == "--stats");
    let synthetic = std::env::args().any(|a| a == "--synthetic");

    let mut analyzed: Vec<Analyzed> = load_all_layers(&Technology::g10_035())?
        .into_iter()
        .map(|layer| run(layer.title.to_owned(), &layer.space))
        .collect();
    let stress;
    if synthetic {
        stress = build_stress_layer(STRESS_SEED)?;
        analyzed.push(run(
            format!(
                "synthetic solver stress (seed {STRESS_SEED:#x}, {} combinations)",
                stress.combinations()
            ),
            &stress.space,
        ));
    }

    if json {
        let arr = Json::Array(
            analyzed
                .iter()
                .map(|a| {
                    let mut fields = vec![
                        ("space".to_owned(), Json::Str(a.name.clone())),
                        ("report".to_owned(), a.report.to_json()),
                    ];
                    if stats {
                        fields.push(("stats".to_owned(), stats_json(a)));
                    }
                    Json::Object(fields)
                })
                .collect(),
        );
        println!("{}", encode_pretty(&arr));
    } else {
        for a in &analyzed {
            println!("==> {}", a.name);
            println!("{}", a.report);
            if stats {
                println!(
                    "    stats: {} propagations, {} conflicts, {} fixpoint iterations, \
                     {} search nodes, {:.1} ms",
                    a.totals.propagations,
                    a.totals.conflicts,
                    a.totals.fixpoint_iterations,
                    a.totals.search_nodes,
                    a.elapsed.as_secs_f64() * 1e3,
                );
            }
            println!();
        }
    }

    let failed = analyzed.iter().any(|a| a.report.has_errors());
    if failed {
        eprintln!("diagnose: at least one space has errors");
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn stats_json(a: &Analyzed) -> Json {
    Json::Object(vec![
        (
            "propagations".to_owned(),
            Json::Int(a.totals.propagations as i64),
        ),
        ("conflicts".to_owned(), Json::Int(a.totals.conflicts as i64)),
        (
            "fixpoint_iterations".to_owned(),
            Json::Int(a.totals.fixpoint_iterations as i64),
        ),
        (
            "search_nodes".to_owned(),
            Json::Int(a.totals.search_nodes as i64),
        ),
        (
            "wall_ms".to_owned(),
            Json::Float(a.elapsed.as_secs_f64() * 1e3),
        ),
    ])
}
