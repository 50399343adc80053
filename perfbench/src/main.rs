//! One benchmark for the live PBFT stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mux-mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `spec.rs` and README.md) against 4 replicas on
//! loopback TCP plus one multiplexed client driver, all in this process,
//! checks the run for correctness, and prints the metrics. The last
//! stdout line is the result object; the line before it is the full
//! report (host facts, sample counts, every metric). `--trace 0`
//! reports the end-to-end metrics of an untraced run on the runtime's
//! own `LoopbackCluster`; `--trace 1` adds a traced run of the same
//! workload and seed and reports the per-layer metrics. A run whose
//! correctness gate fails exits 1 and prints no numbers.
//!
//! `--write-manifest` regenerates `BENCHMARK.json` from the tables.

mod derive;
mod host;
mod load;
mod spec;
mod traced;

use bfs::{NfsOp, NfsReply, ROOT_INO};
use bft_core::CompletedOp;
use bft_runtime::{
    run_andrew_unreplicated_tcp, run_mux_sources, LoopbackCluster, NextOp, OpSource, ServiceKind,
    Snapshot, StorageKind, Topology, UnreplicatedServer,
};
use bft_statemachine::CounterService;
use bft_types::{ClientId, ReplicaId};
use bytes::Bytes;
use load::{median, AndrewSource, CounterSource, Observed, Summary, Window};
use spec::{Workload, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Warm-up before every measurement window.
const WARMUP: Duration = Duration::from_secs(1);
/// How long in-flight ops may take to finish after the window closes.
const DRAIN: Duration = Duration::from_secs(15);
/// Sub-windows the measured window is cut into (see `Observed::summarize`).
const SUB_WINDOWS: u32 = 5;
/// Cluster boots per untraced run; `setup_s` is their median.
const SETUP_BOOTS: usize = 5;
/// The view-0 primary, killed by the crash workload.
const PRIMARY: ReplicaId = ReplicaId(0);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-manifest") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let mut workload = *spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    // `--rate` replaces an open-loop workload's offered rate: it sweeps
    // the rate to find the knee; the benchmark's own runs never pass it.
    if argv.iter().any(|a| a == "--rate") {
        let rate: f64 = value("--rate")?
            .parse()
            .map_err(|e| format!("--rate: {e}"))?;
        match workload.load {
            spec::Load::Open { .. } if rate > 0.0 => {
                workload.load = spec::Load::Open { rate_per_s: rate }
            }
            spec::Load::Open { .. } => return Err("--rate must be positive".into()),
            spec::Load::Closed => {
                return Err(format!("{name} is closed loop; --rate does not apply"))
            }
        }
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            let path = "BENCHMARK.json";
            std::fs::write(path, spec::manifest_json()).expect("write BENCHMARK.json");
            eprintln!("wrote {path}");
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rate <ops/s>] | --write-manifest"
            );
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let work = root.join(".perfbench-run");
    let steal0 = host::cpu_steal_jiffies();
    let outcome = run(&args, &work);
    let steal1 = host::cpu_steal_jiffies();
    let steal_frac = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    // Data directories never outlive the run; results and spans stay.
    let _ = std::fs::remove_dir_all(work.join("data").join(std::process::id().to_string()));
    match outcome {
        Ok(report) => {
            let host = host::HostFacts::collect(&root);
            let detail = report.detail_json(&args, &host, &work, steal_frac);
            let dir = work.join("results");
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(
                dir.join(format!(
                    "{}-seed{}-trace{}.json",
                    args.workload.name, args.seed, args.trace as u8
                )),
                &detail,
            );
            println!("{detail}");
            println!("{}", report.result_json(args.trace));
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: FAILED: {e}",
                args.workload.name, args.seed
            );
            std::process::exit(1);
        }
    }
}

/// One cluster under test: the runtime's own, or the traced copy.
enum Harness {
    Live(LoopbackCluster),
    Traced(traced::TracedCluster),
}

impl Harness {
    fn boot(w: &Workload, traced: bool, data_dir: Option<&Path>) -> Harness {
        let tune = |topo: &mut Topology| {
            topo.service = w.service;
            topo.storage = w.storage;
            topo.data_dir = data_dir.map(|d| d.to_string_lossy().into_owned());
            topo.workers = 0;
            topo.checkpoint_interval = 128;
            topo.view_change_ms = w.view_change_ms;
            topo.tentative_execution = true;
        };
        // One principal beyond the workload's clients: the set-up probe.
        let clients = w.clients + 1;
        if traced {
            let mut topo = Topology::localhost(1, clients, 1);
            tune(&mut topo);
            Harness::Traced(traced::TracedCluster::start(topo))
        } else {
            Harness::Live(LoopbackCluster::start_with(1, clients, tune))
        }
    }

    fn topology(&self) -> &Topology {
        match self {
            Harness::Live(c) => c.topology(),
            Harness::Traced(c) => c.topology(),
        }
    }

    fn kill(&mut self, r: ReplicaId) {
        match self {
            Harness::Live(c) => c.kill(r),
            Harness::Traced(c) => c.kill(r),
        }
    }

    /// `wait_converged`: journal agreement and one state digest at one
    /// frontier on every live replica (`live` of them).
    fn converge(&self, timeout: Duration, live: usize) -> Result<Vec<Snapshot>, String> {
        let snaps = match self {
            Harness::Live(c) => c.try_wait_converged(timeout).map_err(|e| match e {
                bft_runtime::ConvergeFailure::Timeout(t) => t.to_string(),
                bft_runtime::ConvergeFailure::Safety(s) => format!("safety violation: {s}"),
            })?,
            Harness::Traced(c) => {
                let deadline = Instant::now() + timeout;
                loop {
                    let snaps = c.snapshots();
                    LoopbackCluster::check_journal_agreement(&snaps)
                        .map_err(|s| format!("safety violation: {s}"))?;
                    if !snaps.is_empty()
                        && snaps.windows(2).all(|w| {
                            w[0].committed_frontier == w[1].committed_frontier
                                && w[0].state_digest == w[1].state_digest
                        })
                    {
                        break snaps;
                    }
                    if Instant::now() >= deadline {
                        let views: Vec<String> = snaps
                            .iter()
                            .map(|s| {
                                format!(
                                    "r{} view {} frontier {} ({})",
                                    s.id.0, s.view, s.committed_frontier.0, s.exec_blocker
                                )
                            })
                            .collect();
                        return Err(format!(
                            "no convergence in {timeout:?}: {}",
                            views.join("; ")
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        if snaps.len() != live {
            return Err(format!(
                "{} replicas answered, {live} expected",
                snaps.len()
            ));
        }
        Ok(snaps)
    }
}

/// The one-op source the set-up probe runs: a counter INC or a BFS
/// GETATTR of the root.
struct Probe {
    op: Bytes,
    read_only: bool,
    issued: bool,
    result: Option<Bytes>,
}

impl OpSource for Probe {
    fn next(&mut self, _slot: usize, _now: Instant) -> NextOp {
        if self.issued {
            return NextOp::Wait;
        }
        self.issued = true;
        NextOp::Invoke {
            op: self.op.clone(),
            read_only: self.read_only,
            tag: 0,
        }
    }
    fn done(&mut self, _slot: usize, _tag: u64, op: &CompletedOp, _latency: Duration) -> Instant {
        self.result = Some(op.result.clone());
        Instant::now()
    }
    fn finished(&self) -> bool {
        self.result.is_some()
    }
}

/// Boots a cluster and completes one op on it; returns the cluster and
/// the seconds from boot start to that op's reply.
fn boot_to_first_op(
    w: &Workload,
    traced: bool,
    data_dir: Option<&Path>,
) -> Result<(Harness, f64), String> {
    let t0 = Instant::now();
    if let Some(dir) = data_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let cluster = Harness::boot(w, traced, data_dir);
    let (op, read_only) = match w.service {
        ServiceKind::Counter => (Bytes::from(vec![CounterService::OP_INC]), false),
        ServiceKind::Bfs => (NfsOp::GetAttr(ROOT_INO.0).encode(), true),
    };
    let mut probe = Probe {
        op,
        read_only,
        issued: false,
        result: None,
    };
    let topo = cluster.topology().clone();
    run_mux_sources(
        &[ClientId(w.clients)],
        &topo,
        &mut probe,
        None,
        Duration::from_secs(60),
    );
    let setup = t0.elapsed().as_secs_f64();
    let result = probe
        .result
        .ok_or("set-up probe got no reply within 60 s")?;
    let ok = match w.service {
        ServiceKind::Counter => result.as_ref() == 1u64.to_le_bytes(),
        ServiceKind::Bfs => matches!(NfsReply::decode(&result), Some(NfsReply::Attrs(_))),
    };
    if !ok {
        return Err(format!("set-up probe got a wrong reply {result:?}"));
    }
    Ok((cluster, setup))
}

/// Kills the view-0 primary at 30% of the window; returns the instant
/// its node thread had exited.
fn crash_controller(cluster: &mut Harness, window: Window) -> Instant {
    let at = window.from + (window.to - window.from).mul_f64(0.3);
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
    // The kill returns once the node thread has exited: from here on the
    // primary serves nothing.
    cluster.kill(PRIMARY);
    Instant::now()
}

/// Everything one measured run produced.
struct Run {
    obs: Observed,
    /// The end-to-end figures, over the measured window.
    summary: Summary,
    /// Seconds the measured window lasted.
    window_s: f64,
    setup_s: Vec<f64>,
    /// Kill to the first completion of an op due after the kill.
    unavailable_s: Option<f64>,
    killed_at: Option<Instant>,
    andrew: Option<AndrewOutcome>,
    driver_cpu_ns: u64,
    /// CPU ticks of the whole process (replicas and driver) while the
    /// driver ran.
    process_cpu_ticks: u64,
    snaps: Vec<Snapshot>,
    nodes: Option<Vec<traced::NodeReport>>,
    data_fs: Option<String>,
}

struct AndrewOutcome {
    reps: u32,
    replicated_s: f64,
    baseline_s: f64,
    phase_s: [f64; 5],
}

/// Runs the workload once: `boots` set-up boots (the last one is kept),
/// warm-up, the measured window, drain, then the correctness gate.
fn measure(
    w: &Workload,
    args: &Args,
    work: &Path,
    traced: bool,
    boots: usize,
) -> Result<Run, String> {
    let data_root = work.join("data").join(std::process::id().to_string());
    let data_dir = |i: usize| -> Option<PathBuf> {
        (w.storage == StorageKind::Wal).then(|| {
            data_root.join(format!(
                "{}-{}-{i}",
                w.name,
                if traced { "traced" } else { "live" }
            ))
        })
    };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..boots {
        let (cluster, secs) = boot_to_first_op(w, traced, data_dir(i).as_deref())?;
        setup_s.push(secs);
        if i + 1 == boots {
            kept = Some(cluster);
        } else {
            drop(cluster);
            if let Some(dir) = data_dir(i) {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    let mut cluster = kept.expect("at least one boot");
    let data_fs = data_dir(boots - 1).map(|d| host::fs_type(&d));

    let topo = cluster.topology().clone();
    let ids: Vec<ClientId> = (0..w.clients).map(ClientId).collect();
    let measure = Duration::from_secs(args.seconds);
    let window = Window::new(WARMUP, measure);
    let deadline = match w.service {
        ServiceKind::Counter => WARMUP + measure + DRAIN,
        // Fixed work: generous room for a much slower build.
        ServiceKind::Bfs => Duration::from_secs(120),
    };
    let mut counter = None;
    let mut andrew = None;
    let ticks0 = host::process_cpu_ticks();
    let (killed_at, driver_cpu_ns) = std::thread::scope(|s| {
        let controller = w.crash.then(|| {
            let cluster = &mut cluster;
            s.spawn(move || crash_controller(cluster, window))
        });
        let cpu0 = host::thread_cpu_ns();
        match w.service {
            ServiceKind::Counter => {
                let mut src = CounterSource::new(w, args.seed, window);
                run_mux_sources(&ids, &topo, &mut src, None, deadline);
                counter = Some(src);
            }
            ServiceKind::Bfs => {
                let mut src = AndrewSource::new(w, args.seed, args.seconds);
                run_mux_sources(&ids, &topo, &mut src, None, deadline);
                andrew = Some(src);
            }
        }
        let cpu = host::thread_cpu_ns().saturating_sub(cpu0);
        let killed_at = controller.map(|c| c.join().expect("crash controller panicked"));
        (killed_at, cpu)
    });
    let process_cpu_ticks = host::process_cpu_ticks().saturating_sub(ticks0);

    // Correctness gate: convergence, then the per-service reply checks,
    // each proven able to fail on a tampered copy.
    let live = if killed_at.is_some() { 3 } else { 4 };
    let snaps = cluster.converge(Duration::from_secs(30), live)?;
    // Steady-state workloads take medians over sub-windows. The fault
    // workload's figures span the whole window, so the outage counts.
    // So do Andrew's: its ops slow as the trees accumulate (about 2x
    // from the first sub-window to the last), so the median sub-window
    // would be one slice of that trend rather than a figure over it.
    let parts = if w.crash || w.service == ServiceKind::Bfs {
        1
    } else {
        SUB_WINDOWS
    };
    let (obs, andrew, summary, window_s) = match (counter, andrew) {
        (Some(src), None) => {
            load::check_counter_replies(&src.replies, w.clients as usize)?;
            let mut tampered = src.replies.clone();
            let first = tampered.first_mut().ok_or("no counter replies at all")?;
            first.value += 1;
            if load::check_counter_replies(&tampered, w.clients as usize).is_ok() {
                return Err("gate self-test: a tampered counter reply passed".into());
            }
            let summary = src.obs.summarize(window.from, window.to, parts);
            (src.obs, None, summary, window.seconds())
        }
        (None, Some(src)) => {
            if let Some(e) = src.errors.first() {
                return Err(e.clone());
            }
            if !src.finished() {
                return Err(format!(
                    "Andrew run incomplete at the {deadline:?} deadline"
                ));
            }
            let tampered = NfsReply::Err(bfs::FsError::Exists).encode();
            if load::check_bfs_reply(&tampered).is_ok() {
                return Err("gate self-test: a tampered BFS reply passed".into());
            }
            let (start, end) = src.measured_span.ok_or("no Andrew rep was measured")?;
            let replicated_s = end.duration_since(start).as_secs_f64();
            let phase_sum: f64 = src.phase_s.iter().sum();
            if phase_sum > replicated_s {
                return Err(format!(
                    "Andrew phases sum to {phase_sum:.6} s, more than the {replicated_s:.6} s total"
                ));
            }
            let server = UnreplicatedServer::start(bft_runtime::node::BFS_LIVE_BUCKETS);
            let baseline = run_andrew_unreplicated_tcp(
                server.addr(),
                w.clients as usize,
                src.measured_script(),
                false,
                Duration::from_secs(120),
            );
            drop(server);
            let outcome = AndrewOutcome {
                reps: src.measured_reps,
                replicated_s,
                baseline_s: baseline.total_wall.as_secs_f64(),
                phase_s: src.phase_s,
            };
            let summary = src.obs.summarize(start, end, parts);
            (src.obs, Some(outcome), summary, replicated_s)
        }
        _ => unreachable!("exactly one source runs"),
    };
    if obs.attempted == 0 {
        return Err("no op was attempted in the window".into());
    }
    let unavailable_s = killed_at.map(|kill| {
        obs.completions
            .iter()
            .filter(|(due, _)| *due >= kill)
            .map(|(_, done)| done.duration_since(kill).as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    });
    if unavailable_s.is_some_and(|u| !u.is_finite()) {
        return Err("no op due after the kill ever completed".into());
    }
    let nodes = match cluster {
        Harness::Traced(c) => Some(c.finish()),
        Harness::Live(c) => {
            c.shutdown();
            None
        }
    };
    Ok(Run {
        obs,
        summary,
        window_s,
        setup_s,
        unavailable_s,
        killed_at,
        andrew,
        driver_cpu_ns,
        process_cpu_ticks,
        snaps,
        nodes,
        data_fs,
    })
}

/// A finished invocation: the metrics to print and the facts behind
/// them.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value)` of every metric this invocation reports.
    metrics: Vec<(&'static str, f64)>,
    /// Extra facts for the detail line (already JSON-encoded values).
    facts: Vec<(String, String)>,
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let w = &args.workload;
    let live = measure(
        w,
        args,
        work,
        false,
        if args.trace { 1 } else { SETUP_BOOTS },
    )?;
    let mut facts: Vec<(String, String)> = vec![
        ("latency_samples".into(), live.obs.samples.len().to_string()),
        (
            "latency_samples_per_subwindow_min".into(),
            live.summary.samples.to_string(),
        ),
        (
            "subwindow_throughput_ops_s".into(),
            format!("{:?}", live.summary.per_part_ops_s),
        ),
        (
            "subwindow_latency_p50_ms".into(),
            format!("{:?}", live.summary.per_part_p50_ms),
        ),
        ("setup_samples_s".into(), format!("{:?}", live.setup_s)),
        (
            "data_dir_fs".into(),
            format!(
                "\"{}\"",
                live.data_fs.as_deref().unwrap_or("none (mem storage)")
            ),
        ),
        ("window_s".into(), live.window_s.to_string()),
        (
            "replicas_converged_at".into(),
            live.snaps
                .first()
                .map_or(0, |s| s.committed_frontier.0)
                .to_string(),
        ),
        (
            "replica_views".into(),
            format!(
                "{:?}",
                live.snaps.iter().map(|s| s.view).collect::<Vec<_>>()
            ),
        ),
        (
            "ops_per_batch".into(),
            format!(
                "{:?}",
                live.snaps
                    .iter()
                    .map(|s| s.stats.requests_executed as f64
                        / s.stats.batches_executed.max(1) as f64)
                    .collect::<Vec<_>>()
            ),
        ),
        (
            "latency_max_ms".into(),
            num(live.obs.samples.iter().map(|s| s.1).max().unwrap_or(0) as f64 / 1e3),
        ),
    ];
    if let spec::Load::Open { rate_per_s } = w.load {
        facts.push(("offered_ops_s".into(), rate_per_s.to_string()));
    }
    let outcome_metrics = |run: &Run| -> Vec<(&'static str, f64)> {
        let attempted = run.obs.attempted as f64;
        vec![
            ("failed_frac", run.obs.failed() as f64 / attempted),
            (
                "slo_miss_frac",
                w.slo_ms.map_or(0.0, |ms| {
                    run.obs.slo_misses(Duration::from_secs_f64(ms / 1e3)) as f64 / attempted
                }),
            ),
            ("unavailable_s", run.unavailable_s.unwrap_or(0.0)),
            (
                "andrew_overhead_x",
                run.andrew
                    .as_ref()
                    .map_or(0.0, |a| a.replicated_s / a.baseline_s),
            ),
        ]
    };
    if let Some(a) = &live.andrew {
        facts.push(("andrew_reps".into(), a.reps.to_string()));
        facts.push(("andrew_replicated_s".into(), a.replicated_s.to_string()));
        facts.push(("andrew_unreplicated_tcp_s".into(), a.baseline_s.to_string()));
    }
    let e2e = vec![
        ("throughput_ops_s", live.summary.throughput_ops_s),
        ("latency_p50_ms", live.summary.p50_ms),
        ("latency_p99_ms", live.summary.p99_ms),
        ("setup_s", median(&live.setup_s)),
        ("rss_peak_mb", host::rss_peak_mb()),
    ];
    if !args.trace {
        // The workload-specific outcomes go to the detail line.
        for (name, value) in outcome_metrics(&live) {
            facts.push((name.to_string(), value.to_string()));
        }
        return Ok(Report {
            attempted: live.obs.attempted,
            failed: live.obs.failed(),
            metrics: e2e,
            facts,
        });
    }

    let tr = measure(w, args, work, true, 1)?;
    let nodes = tr.nodes.as_ref().expect("traced run returns node reports");
    let span_path = work
        .join("traces")
        .join(format!("{}-seed{}.spans", w.name, args.seed));
    derive::dump_spans(&span_path, nodes).map_err(|e| format!("dump spans: {e}"))?;
    facts.push((
        "span_count".into(),
        nodes
            .iter()
            .map(|n| n.spans.len())
            .sum::<usize>()
            .to_string(),
    ));
    facts.push(("span_dump".into(), format!("\"{}\"", span_path.display())));
    facts.push((
        "traced_throughput_ops_s".into(),
        tr.summary.throughput_ops_s.to_string(),
    ));
    facts.push((
        "untraced_throughput_ops_s".into(),
        live.summary.throughput_ops_s.to_string(),
    ));
    let view_change_s = match tr.killed_at {
        Some(kill) => nodes
            .iter()
            .filter(|n| n.id != PRIMARY)
            .filter_map(|n| n.new_view_at)
            .map(|t| t.saturating_duration_since(kill).as_secs_f64())
            .fold(0.0, f64::max),
        None => 0.0,
    };
    let outside = derive::Outside {
        ops: tr.obs.completions.len() as u64 + 1,
        view_change_s,
    };
    let ops = tr.obs.completed.max(1) as f64;
    let lag_p99_ms = derive::percentile(&tr.obs.lags_us, 0.99) as f64 / 1e3;
    let mut per_layer = outcome_metrics(&tr);
    per_layer.extend([
        ("client.retransmit_frac", tr.obs.retransmitted as f64 / ops),
        ("client.lag_p99_ms", lag_p99_ms),
        (
            "client.proxy_us_per_op",
            tr.driver_cpu_ns as f64 / 1e3 / outside.ops as f64,
        ),
        ("exec.ro_frac", tr.obs.read_only as f64 / ops),
    ]);
    let phases = tr.andrew.as_ref().map_or([0.0; 5], |a| a.phase_s);
    for (name, secs) in [
        "exec.phase.mkdir_s",
        "exec.phase.copy_s",
        "exec.phase.stat_s",
        "exec.phase.read_s",
        "exec.phase.compile_s",
    ]
    .into_iter()
    .zip(phases)
    {
        per_layer.push((name, secs));
    }
    per_layer.extend(derive::layer_metrics(nodes, &outside));
    per_layer.extend(derive::crypto_metrics(nodes));
    // Closed loop: the throughput the tracer costs. Open loop, where
    // throughput is the offered rate by construction: the process CPU
    // time per op it adds.
    let cpu_per_op =
        |run: &Run| run.process_cpu_ticks as f64 / run.obs.completions.len().max(1) as f64;
    facts.push(("traced_cpu_ticks_per_op".into(), num(cpu_per_op(&tr))));
    facts.push(("untraced_cpu_ticks_per_op".into(), num(cpu_per_op(&live))));
    let overhead = match w.load {
        spec::Load::Closed => 1.0 - tr.summary.throughput_ops_s / live.summary.throughput_ops_s,
        spec::Load::Open { .. } => 1.0 - cpu_per_op(&live) / cpu_per_op(&tr),
    };
    per_layer.push(("trace.overhead_frac", overhead));
    // Report in manifest order.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = per_layer
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("per-layer metric {} was not derived", m.name));
            (m.name, value)
        })
        .collect();
    for (name, value) in e2e {
        facts.push((format!("untraced.{name}"), value.to_string()));
    }
    Ok(Report {
        attempted: tr.obs.attempted,
        failed: tr.obs.failed(),
        metrics,
        facts,
    })
}

/// A JSON number: finite values as Rust prints them (shortest exact
/// round trip), anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Report {
    fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .expect("metric in the tables")
    }

    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    num(*v),
                    Self::unit(name)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The contract's last line.
    fn result_json(&self, trace: bool) -> String {
        let expected = if trace { PER_LAYER } else { END_TO_END };
        debug_assert!(expected
            .iter()
            .all(|m| self.metrics.iter().any(|(n, _)| *n == m.name)));
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The full report: host facts, run facts and the metrics.
    fn detail_json(&self, args: &Args, host: &host::HostFacts, work: &Path, steal: f64) -> String {
        let s = |v: &str| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
        let mut fields = vec![
            ("workload".to_string(), s(args.workload.name)),
            ("seed".into(), args.seed.to_string()),
            ("seconds".into(), args.seconds.to_string()),
            ("tracing".into(), args.trace.to_string()),
            ("nproc".into(), host.nproc.to_string()),
            ("cpu_model".into(), s(&host.cpu_model)),
            ("kernel".into(), s(&host.kernel)),
            ("rustc".into(), s(&host.rustc)),
            ("git_commit".into(), s(&host.git_commit)),
            ("work_dir".into(), s(&work.display().to_string())),
            ("cpu_steal_frac".into(), num(steal)),
        ];
        fields.extend(self.facts.iter().cloned());
        fields.push(("metrics".into(), self.metrics_json()));
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"perfbench\": {{{}}}}}", body.join(", "))
    }
}
