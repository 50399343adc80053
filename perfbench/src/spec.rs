//! What the benchmark measures: the workloads, the metrics with their
//! units and bounds, and the `BENCHMARK.json` manifest built from them.
//! This table is the single source; `--write-manifest` regenerates the
//! manifest from it and a unit test keeps the committed copy in step.

use bft_runtime::{ServiceKind, StorageKind};

/// Seconds one run measures (the manifest's `run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rss_peak_mb", "MiB", Lower, 0.2),
];

/// The kinds of replica input `core.step_us.*` is keyed by.
pub const STEP_KINDS: &[&str] = &[
    "request",
    "pre_prepare",
    "prepare",
    "commit",
    "checkpoint",
    "view_change",
    "new_view",
    "status",
    "timer",
    "state_transfer",
    "other",
];

/// Reported by every traced run (`--trace 1`), on every workload. A
/// metric a workload does not exercise reads 0 there (README.md says
/// which apply where).
pub const PER_LAYER: &[Metric] = &[
    // Outcomes that apply to some workloads only. The manifest contract
    // puts every end-to-end metric on every workload and forbids zeros
    // there, so these ride with the traced run's metrics.
    layer("failed_frac", "frac", Lower),
    layer("slo_miss_frac", "frac", Lower),
    layer("unavailable_s", "s", Lower),
    layer("andrew_overhead_x", "x", Lower),
    // client (bft-runtime client driver)
    layer("client.retransmit_frac", "frac", Lower),
    layer("client.lag_p99_ms", "ms", Lower),
    layer("client.proxy_us_per_op", "us", Lower),
    // node (bft-runtime node loop)
    layer("node.busy_frac.primary", "frac", Lower),
    layer("node.busy_frac.backup_max", "frac", Lower),
    layer("node.drain_per_wake", "count", Higher),
    // transport (bft-runtime transport)
    layer("transport.frames_sent_per_op", "count", Lower),
    layer("transport.frames_recv_per_op", "count", Lower),
    layer("transport.send_us_per_op", "us", Lower),
    layer("transport.frames_dropped", "count", Lower),
    layer("transport.framing_errors", "count", Lower),
    layer("transport.connects", "count", Lower),
    // wire (bft-types wire + framing)
    layer("wire.decode_us_per_op", "us", Lower),
    layer("wire.encode_us_per_op", "us", Lower),
    layer("wire.bytes_per_op", "B", Lower),
    // crypto (bft-crypto)
    layer("crypto.macs_per_op", "count", Lower),
    layer("crypto.digest_bytes_per_op", "B", Lower),
    layer("crypto.mac_ns", "ns", Lower),
    layer("crypto.auth_gen_ns", "ns", Lower),
    layer("crypto.auth_verify_ns", "ns", Lower),
    layer("crypto.md5_mb_s", "MB/s", Higher),
    // core (bft-core)
    layer("core.step_us_per_op", "us", Lower),
    layer("core.step_us.request", "us", Lower),
    layer("core.step_us.pre_prepare", "us", Lower),
    layer("core.step_us.prepare", "us", Lower),
    layer("core.step_us.commit", "us", Lower),
    layer("core.step_us.checkpoint", "us", Lower),
    layer("core.step_us.view_change", "us", Lower),
    layer("core.step_us.new_view", "us", Lower),
    layer("core.step_us.status", "us", Lower),
    layer("core.step_us.timer", "us", Lower),
    layer("core.step_us.state_transfer", "us", Lower),
    layer("core.step_us.other", "us", Lower),
    layer("core.ops_per_batch", "count", Higher),
    layer("core.view_changes", "count", Lower),
    layer("core.view_change_s", "s", Lower),
    layer("core.pages_fetched", "count", Lower),
    layer("core.bytes_fetched", "B", Lower),
    layer("core.auth_failures", "count", Lower),
    // exec (bft-statemachine, bfs)
    layer("exec.us_per_op", "us", Lower),
    layer("exec.ro_frac", "frac", Higher),
    layer("exec.phase.mkdir_s", "s", Lower),
    layer("exec.phase.copy_s", "s", Lower),
    layer("exec.phase.stat_s", "s", Lower),
    layer("exec.phase.read_s", "s", Lower),
    layer("exec.phase.compile_s", "s", Lower),
    // storage (bft-storage)
    layer("storage.appends_per_op", "count", Lower),
    layer("storage.syncs_per_op", "count", Lower),
    layer("storage.append_us_p50", "us", Lower),
    layer("storage.sync_ms_p50", "ms", Lower),
    layer("storage.sync_ms_p99", "ms", Lower),
    layer("storage.bytes_per_op", "B", Lower),
    layer("storage.snapshot_ms", "ms", Lower),
    layer("storage.truncate_ms", "ms", Lower),
    layer("storage.recover_s", "s", Lower),
    // trace (the tracer itself)
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.unattributed_frac", "frac", Lower),
];

/// How a workload paces its operations.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Each logical client invokes its next op when the previous one
    /// completes.
    Closed,
    /// Poisson arrivals at a fixed aggregate rate, each handed to an idle
    /// logical client; latency counts from the arrival's due time.
    Open { rate_per_s: f64 },
}

/// One workload.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub service: ServiceKind,
    pub storage: StorageKind,
    /// Logical clients multiplexed onto the one driver thread.
    pub clients: u32,
    pub load: Load,
    /// Counter workloads: one op in `read_every` is a read-only GET
    /// (0 = write-only).
    pub read_every: u64,
    /// Counter op size in bytes.
    pub op_bytes: usize,
    /// Latency limit for `slo_miss_frac` (also stated in the `why`).
    pub slo_ms: Option<f64>,
    /// Kill the view-0 primary mid-run.
    pub crash: bool,
    /// Base view-change timeout of the cluster.
    pub view_change_ms: u64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mux-mem",
        why: "closed loop, 64 clients, 128 B ops, 1 in 4 read-only, mem storage: CPU-bound on the protocol path, so core, wire, crypto and transport set throughput",
        service: ServiceKind::Counter,
        storage: StorageKind::Mem,
        clients: 64,
        load: Load::Closed,
        read_every: 4,
        op_bytes: 128,
        slo_ms: None,
        crash: false,
        view_change_ms: 2000,
    },
    Workload {
        name: "open-wal",
        why: "open loop, Poisson 2000 ops/s (below the wal knee, see README), 32 clients, 128 B writes, wal storage: mux-mem's protocol path plus a WAL record per batch; SLO 50 ms",
        service: ServiceKind::Counter,
        storage: StorageKind::Wal,
        clients: 32,
        load: Load::Open { rate_per_s: 2000.0 },
        read_every: 0,
        op_bytes: 128,
        slo_ms: Some(50.0),
        crash: false,
        view_change_ms: 2000,
    },
    Workload {
        name: "andrew-rpc",
        why: "BFS Andrew script as pure RPC replay, 64 clients, read-only and tentative paths on, mem storage: execution, the read-only path and 1 KiB payloads carry weight",
        service: ServiceKind::Bfs,
        storage: StorageKind::Mem,
        clients: 64,
        load: Load::Closed,
        read_every: 0,
        op_bytes: 0,
        slo_ms: None,
        crash: false,
        view_change_ms: 2000,
    },
    Workload {
        name: "primary-crash",
        why: "open loop, Poisson 200 ops/s, 32 clients, wal storage; the view-0 primary is killed at 30% of the run: view change and the time without service; SLO 50 ms",
        service: ServiceKind::Counter,
        storage: StorageKind::Wal,
        clients: 32,
        load: Load::Open { rate_per_s: 200.0 },
        read_every: 0,
        op_bytes: 128,
        slo_ms: Some(50.0),
        crash: true,
        view_change_ms: 500,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `BENCHMARK.json` manifest, rendered from the tables above.
pub fn manifest_json() -> String {
    fn better(b: Better) -> &'static str {
        match b {
            Lower => "lower",
            Higher => "higher",
        }
    }
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_follow_the_manifest_rules() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {}",
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('"'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for kind in STEP_KINDS {
            let name = format!("core.step_us.{kind}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --write-manifest`"
        );
    }
}
