//! Per-layer metrics from a traced run: span self times (span minus the
//! part its child spans cover), counts per op, and the crypto calls
//! timed at the run's median message sizes.

use crate::spec::{PER_LAYER, STEP_KINDS};
use crate::traced::{self, NodeReport, Span, ROOT};
use bft_crypto::hmac::{mac, SessionKey};
use bft_crypto::{digest, Authenticator};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns as u64).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns as u64);
        }
    }
    own
}

/// Per span name: (count, total duration ns, total self ns), plus every
/// duration of the names whose distribution is reported.
pub struct Totals {
    pub count: Vec<u64>,
    pub dur_ns: Vec<u64>,
    pub self_ns: Vec<u64>,
    pub durations: Vec<Vec<u64>>,
}

impl Totals {
    fn new() -> Totals {
        let names = traced::STEP as usize + STEP_KINDS.len();
        Totals {
            count: vec![0; names],
            dur_ns: vec![0; names],
            self_ns: vec![0; names],
            durations: vec![Vec::new(); names],
        }
    }

    fn add(&mut self, spans: &[Span]) {
        let own = self_times(spans);
        for (s, own) in spans.iter().zip(own) {
            let i = s.name as usize;
            self.count[i] += 1;
            self.dur_ns[i] += s.dur_ns as u64;
            self.self_ns[i] += own;
            if matches!(
                s.name,
                traced::APPEND
                    | traced::SYNC
                    | traced::SNAPSHOT
                    | traced::TRUNCATE
                    | traced::RECOVER
            ) {
                self.durations[i].push(s.dur_ns as u64);
            }
        }
    }

    fn step_self_ns(&self) -> u64 {
        self.self_ns[traced::STEP as usize..].iter().sum()
    }
}

/// Percentile of an unsorted sample (nearest rank), 0 when empty.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Inputs to the per-layer derivation that come from outside the nodes.
pub struct Outside {
    /// Ops completed during the traced run (warm-up and drain included).
    pub ops: u64,
    /// Crash workload: kill → the last surviving replica runs a new view.
    pub view_change_s: f64,
}

/// Derives every node- and layer-side per-layer metric.
pub fn layer_metrics(reports: &[NodeReport], out: &Outside) -> Vec<(&'static str, f64)> {
    let ops = out.ops.max(1) as f64;
    let mut totals = Totals::new();
    for r in reports {
        totals.add(&r.spans);
    }
    let sum = |f: &dyn Fn(&NodeReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let us_per_op = |ns: u64| ns as f64 / 1e3 / ops;
    let busy_frac = |id: u32| -> f64 {
        let (busy, life) = reports
            .iter()
            .filter(|r| r.id.0 == id)
            .fold((0u64, 0f64), |acc, r| {
                let busy: u64 = r
                    .spans
                    .iter()
                    .filter(|s| s.name == traced::BUSY)
                    .map(|s| s.dur_ns as u64)
                    .sum();
                (acc.0 + busy, acc.1 + r.lifetime.as_secs_f64())
            });
        if life > 0.0 {
            busy as f64 / 1e9 / life
        } else {
            0.0
        }
    };
    let busy = traced::BUSY as usize;
    let mut m: Vec<(&'static str, f64)> = vec![
        ("node.busy_frac.primary", busy_frac(0)),
        (
            "node.busy_frac.backup_max",
            (1..4).map(busy_frac).fold(0.0, f64::max),
        ),
        (
            "node.drain_per_wake",
            sum(&|r| r.counts.deliveries) / sum(&|r| r.counts.wakes).max(1.0),
        ),
        (
            "transport.frames_sent_per_op",
            sum(&|r| r.transport.frames_sent) / ops,
        ),
        (
            "transport.frames_recv_per_op",
            sum(&|r| r.transport.frames_received) / ops,
        ),
        (
            "transport.send_us_per_op",
            us_per_op(totals.dur_ns[traced::SEND as usize]),
        ),
        (
            "transport.frames_dropped",
            sum(&|r| r.transport.frames_dropped),
        ),
        (
            "transport.framing_errors",
            sum(&|r| r.transport.framing_errors),
        ),
        ("transport.connects", sum(&|r| r.transport.connects)),
        (
            "wire.decode_us_per_op",
            us_per_op(totals.dur_ns[traced::DECODE as usize]),
        ),
        (
            "wire.encode_us_per_op",
            us_per_op(totals.dur_ns[traced::ENCODE as usize]),
        ),
        ("wire.bytes_per_op", sum(&|r| r.counts.bytes_sent) / ops),
        ("crypto.macs_per_op", sum(&|r| r.counts.macs) / ops),
        (
            "crypto.digest_bytes_per_op",
            sum(&|r| r.counts.digest_bytes) / ops,
        ),
        ("core.step_us_per_op", us_per_op(totals.step_self_ns())),
    ];
    for (i, kind) in STEP_KINDS.iter().enumerate() {
        let name = PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("core.step_us.") == Some(kind))
            .expect("every step kind has a metric")
            .name;
        m.push((name, us_per_op(totals.self_ns[traced::STEP as usize + i])));
    }
    // ops per batch at the replica that ordered the most requests.
    let ops_per_batch = reports
        .iter()
        .filter(|r| r.stats.batches_executed > 0)
        .map(|r| r.stats.requests_executed as f64 / r.stats.batches_executed as f64)
        .fold(0.0, f64::max);
    let ms = |ns: u64| ns as f64 / 1e6;
    let d = |code: u8| &totals.durations[code as usize];
    m.extend([
        ("core.ops_per_batch", ops_per_batch),
        (
            "core.view_changes",
            reports
                .iter()
                .map(|r| r.stats.views_entered)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("core.view_change_s", out.view_change_s),
        ("core.pages_fetched", sum(&|r| r.stats.pages_fetched)),
        ("core.bytes_fetched", sum(&|r| r.stats.bytes_fetched)),
        ("core.auth_failures", sum(&|r| r.stats.auth_failures)),
        (
            "exec.us_per_op",
            us_per_op(totals.dur_ns[traced::EXEC as usize]),
        ),
        (
            "storage.appends_per_op",
            totals.count[traced::APPEND as usize] as f64 / ops,
        ),
        (
            "storage.syncs_per_op",
            totals.count[traced::SYNC as usize] as f64 / ops,
        ),
        (
            "storage.append_us_p50",
            percentile(d(traced::APPEND), 0.5) as f64 / 1e3,
        ),
        ("storage.sync_ms_p50", ms(percentile(d(traced::SYNC), 0.5))),
        ("storage.sync_ms_p99", ms(percentile(d(traced::SYNC), 0.99))),
        ("storage.bytes_per_op", sum(&|r| r.counts.wal_bytes) / ops),
        (
            "storage.snapshot_ms",
            ms(percentile(d(traced::SNAPSHOT), 0.5)),
        ),
        (
            "storage.truncate_ms",
            ms(percentile(d(traced::TRUNCATE), 0.5)),
        ),
        (
            "storage.recover_s",
            d(traced::RECOVER).iter().copied().max().unwrap_or(0) as f64 / 1e9,
        ),
        (
            "trace.unattributed_frac",
            totals.self_ns[busy] as f64 / totals.dur_ns[busy].max(1) as f64,
        ),
    ]);
    m
}

/// Times `f` in batches for about `budget` and returns the median
/// per-call time of the batches, in nanoseconds.
fn time_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut calls = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed() >= budget / 20 {
            break;
        }
        calls *= 2;
    }
    let mut per_call: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// The public crypto calls timed at the traced run's median sizes:
/// single MAC, authenticator generation and verification, and MD5
/// throughput.
pub fn crypto_metrics(reports: &[NodeReport]) -> Vec<(&'static str, f64)> {
    let median = |pick: &dyn Fn(&NodeReport) -> &Vec<u32>, fallback: u64| -> usize {
        let all: Vec<u64> = reports
            .iter()
            .flat_map(|r| pick(r).iter().map(|&v| v as u64))
            .collect();
        if all.is_empty() {
            fallback as usize
        } else {
            percentile(&all, 0.5) as usize
        }
    };
    let mac_len = median(&|r| &r.mac_sizes, 64);
    let auth_len = median(&|r| &r.auth_sizes, 64);
    let tags = median(&|r| &r.auth_tags, 4).max(1);
    let keys: Vec<SessionKey> = (0..tags as u64).map(SessionKey::from_seed).collect();
    let mac_buf = vec![0x5au8; mac_len];
    let auth_buf = vec![0xa5u8; auth_len];
    let budget = Duration::from_millis(40);
    let mac_ns = time_call(budget, || {
        black_box(mac(black_box(&keys[0]), black_box(&mac_buf)));
    });
    let gen_ns = time_call(budget, || {
        black_box(Authenticator::generate(
            black_box(&keys),
            7,
            black_box(&auth_buf),
        ));
    });
    let authenticator = Authenticator::generate(&keys, 7, &auth_buf);
    let verify_ns = time_call(budget, || {
        black_box(authenticator.verify(0, black_box(&keys[0]), black_box(&auth_buf)));
    });
    let md5_len = auth_len.max(mac_len);
    let md5_ns = time_call(budget, || {
        black_box(digest(black_box(&auth_buf[..md5_len.min(auth_buf.len())])));
    });
    vec![
        ("crypto.mac_ns", mac_ns),
        ("crypto.auth_gen_ns", gen_ns),
        ("crypto.auth_verify_ns", verify_ns),
        (
            "crypto.md5_mb_s",
            md5_len.min(auth_buf.len()) as f64 / md5_ns * 1e3,
        ),
    ]
}

/// Writes every span as a fixed 24-byte little-endian record
/// (`start_ns u64, dur_ns u32, parent u32, req u32, node u8, name u8,
/// 2 pad bytes`) after a one-line text header naming the span codes.
/// `parent` indexes the same node incarnation's records.
pub fn dump_spans(path: &Path, reports: &[NodeReport]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = (0..traced::STEP + STEP_KINDS.len() as u8)
        .map(|c| format!("{c}={}", traced::span_name(c)))
        .collect();
    writeln!(
        f,
        "perfbench-spans v1 record=24B start_ns:u64 dur_ns,parent,req:u32 node:u8 name:u8 pad:2 incarnations={} names={}",
        reports.len(),
        names.join(",")
    )?;
    for r in reports {
        for s in &r.spans {
            f.write_all(&s.start_ns.to_le_bytes())?;
            f.write_all(&s.dur_ns.to_le_bytes())?;
            f.write_all(&s.parent.to_le_bytes())?;
            f.write_all(&s.req.to_le_bytes())?;
            f.write_all(&[r.id.0 as u8, s.name, 0, 0])?;
        }
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32, name: u8) -> Span {
        Span {
            start_ns,
            dur_ns: (end_ns - start_ns) as u32,
            req: 0,
            parent,
            name,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // busy [0,100) > step [10,60) > exec [20,30); busy > encode [70,80)
        let spans = [
            span(0, 100, ROOT, traced::BUSY),
            span(10, 60, 0, traced::STEP),
            span(20, 30, 1, traced::EXEC),
            span(70, 80, 0, traced::ENCODE),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 10, 10]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[40, 10, 30, 20], 0.0), 10);
        assert_eq!(percentile(&[40, 10, 30, 20], 1.0), 40);
        assert_eq!(percentile(&[40, 10, 30, 20], 0.5), 30);
    }
}
