//! `dsebench`: the socket-level benchmark of the `dse-server` daemon.
//!
//! ```text
//! cargo run --release --manifest-path dsebench/Cargo.toml -- \
//!     --workload designer_walk|core_narrow|batch_fanout \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run starts a real `dse_server::Server` in a child process (this
//! executable, `serve` mode), drives it over loopback from one client
//! thread on one connection, checks every response, replays the exact
//! request lines into a fresh in-process engine and compares the
//! responses byte for byte. `--trace 1` adds the traced in-process replay
//! that yields the per-layer metrics. The last stdout line is the JSON
//! result. See `README.md` beside this file.

mod client;
mod host;
mod replay;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use client::Edge;
use host::{CpuTimes, ProcCounters};
use serve::{Inputs, ServerChild, WorkDir};
use stats::Sliced;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    "usage: dsebench --workload designer_walk|core_narrow|batch_fanout --seed N \
     --seconds S --trace 0|1"
        .to_owned()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        serve_child(&args[1..])
    } else {
        parse_args(&args)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dsebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dsebench serve --workload W --work DIR`: the server child.
fn serve_child(args: &[String]) -> Result<(), String> {
    match args {
        [w, name, d, dir] if w == "--workload" && d == "--work" => {
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            serve::serve_main(workload, &PathBuf::from(dir))
        }
        _ => Err("usage: dsebench serve --workload W --work DIR".to_owned()),
    }
}

/// A metric as printed in the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one socket run measured.
struct Measured {
    run: client::SocketRun,
    setup_samples: Vec<f64>,
    rss_mb: f64,
    steal_pct: f64,
    /// Host calibration loop (µs) before and after the socket run.
    calib_us: [f64; 2],
    client: ProcCounters,
    server: ProcCounters,
    clean_exit: bool,
}

fn socket_run(a: &Args, work: &WorkDir) -> Result<Measured, String> {
    let calib_before = host::calibrate_us();
    let mut server = ServerChild::spawn(a.workload, work.path())?;
    let pid = server.pid();
    let mut host = [CpuTimes::default(); 2];
    let mut client = [ProcCounters::default(); 2];
    let mut srv = [ProcCounters::default(); 2];
    // Read before the shutdown: a child that has exited has no VmHWM.
    let mut rss_mb = None;
    let mut edge = |e: Edge| {
        let k = match e {
            Edge::Start => 0,
            Edge::End => 1,
        };
        host[k] = CpuTimes::read();
        client[k] = ProcCounters::read("self");
        srv[k] = ProcCounters::read(&pid);
        if k == 1 {
            rss_mb = host::peak_rss_mb(&pid);
        }
    };
    let run = client::drive(a.workload, a.seed, &server.addr, a.seconds, &mut edge)?;
    let rss_mb = rss_mb.ok_or("could not read the server's VmHWM")?;
    let clean_exit = !run.timed_out && server.wait_exit(Duration::from_secs(30));
    let calib_us = [calib_before, host::calibrate_us()];
    Ok(Measured {
        calib_us,
        setup_samples: server.setup_samples.clone(),
        rss_mb,
        steal_pct: host[1].steal_pct_since(&host[0]),
        client: client[1].since(&client[0]),
        server: srv[1].since(&srv[0]),
        clean_exit,
        run,
    })
}

fn run(a: &Args) -> Result<(), String> {
    let work = WorkDir::create(a.workload.name())?;
    let m = socket_run(a, &work)?;
    drop(work);

    // The transcript check, on a fresh engine built the same way.
    let inputs = Inputs::generate(a.workload);
    let check = replay::replay(a.workload, a.seed, &inputs, &m.run)?;
    if check.handle_ns.len() != m.run.answered() {
        return Err("the regenerated stream is shorter than the run".to_owned());
    }
    let (metrics, trace_failures) = if a.trace {
        let layer = trace::run(a.workload, a.seed, &inputs, &m.run, &check.handle_ns)?;
        let window = m.run.window_requests.max(1) as f64;
        let client_p50 = m.run.all.median_across_slices(50.0).unwrap_or(0.0);
        let mut out = vec![
            metric(
                "net.transport_p50_us",
                client_p50 - layer.server_p50_us,
                "us",
            ),
            metric(
                "process.server_cpu_us_per_op",
                m.server.cpu_ns as f64 / 1e3 / window,
                "us",
            ),
            metric(
                "process.server_ctx_switches_per_op",
                (m.server.voluntary_cs + m.server.involuntary_cs) as f64 / window,
                "count",
            ),
        ];
        out.extend(layer.metrics);
        (out, layer.failures)
    } else {
        (end_to_end(&m)?, 0)
    };

    let mut failed: Vec<usize> = m.run.unexpected.clone();
    failed.extend(&check.mismatched);
    failed.sort_unstable();
    failed.dedup();
    let failed = failed.len() + usize::from(m.run.timed_out) + trace_failures;
    let attempted = m.run.answered() + usize::from(m.run.timed_out);
    let correct = failed == 0 && m.clean_exit && m.run.all.count() > 0;
    println!(
        "workload {} seed {} seconds {}: attempted {attempted} failed {failed} \
         (unexpected {}, transcript mismatches {}, traced-replay failures {trace_failures}, \
         timed out {}, server exit clean {})",
        a.workload.name(),
        a.seed,
        a.seconds,
        m.run.unexpected.len(),
        check.mismatched.len(),
        m.run.timed_out,
        m.clean_exit
    );
    println!(
        "host: steal_pct {:.2} client_involuntary_cs {} server_involuntary_cs {} \
         server_voluntary_cs {} server_cpu_s {:.3} calib_us_before {:.0} calib_us_after {:.0}",
        m.steal_pct,
        m.client.involuntary_cs,
        m.server.involuntary_cs,
        m.server.voluntary_cs,
        m.server.cpu_ns as f64 / 1e9,
        m.calib_us[0],
        m.calib_us[1]
    );
    for x in &metrics {
        println!("  {:<40} {:>14.4} {}", x.name, x.value, x.unit);
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

/// The latency percentiles reported, each as its median over the run's
/// one-second slices, and whether the result line carries it. The p99s
/// are printed but left out of the result: on a shared 2-vCPU host they
/// moved up to 5× with host steal from run to run, far past any bound a
/// gate could hold.
const PERCENTILES: [(f64, bool); 2] = [(50.0, true), (99.0, false)];

/// The end-to-end metrics of one socket run.
fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    let run = &m.run;
    let throughput: Vec<f64> = run
        .completed
        .iter()
        .map(|&c| c as f64 / client::SLICE.as_secs_f64())
        .collect();
    let slices: Vec<String> = throughput.iter().map(|v| format!("{v:.0}")).collect();
    println!("  throughput_rps per slice: {}", slices.join(" "));
    let steal: Vec<String> = run.slice_steal.iter().map(|v| format!("{v:.1}")).collect();
    println!("  steal_pct per slice: {}", steal.join(" "));
    let mut out = vec![metric("throughput_rps", stats::median(&throughput), "1/s")];
    let classes: [(&str, &Sliced); 3] = [
        ("latency", &run.all),
        ("write", &run.writes),
        ("read", &run.reads),
    ];
    for (class, samples) in classes {
        for (q, gated) in PERCENTILES {
            let value = samples
                .median_across_slices(q)
                .ok_or_else(|| format!("no {class} request completed in the measured window"))?;
            let name = format!("{class}_p{q}_us");
            if gated {
                out.push(metric(name, value, "us"));
            } else {
                println!("  {name:<40} {value:>14.4} us (not in the result: unresolved)");
            }
            let slices: Vec<String> = samples
                .per_slice(q)
                .iter()
                .map(|v| format!("{v:.1}"))
                .collect();
            println!("  {class}_p{q}_us per slice: {}", slices.join(" "));
        }
        let tail =
            stats::highest_tail(samples.min_slice()).map_or("none".to_owned(), |q| format!("p{q}"));
        println!(
            "  {class}: {} samples, {} in the smallest of {} slices \
             (highest percentile with >= {} beyond it: {tail})",
            samples.count(),
            samples.min_slice(),
            run.completed.len(),
            stats::MIN_BEYOND,
        );
    }
    out.push(metric("setup_s", stats::median(&m.setup_samples), "s"));
    out.push(metric("server_rss_mb", m.rss_mb, "MB"));
    Ok(out)
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
