//! The benchmark's op sources for `run_mux_sources`, built from the
//! seed, plus the correctness gate on what they observe.
//!
//! Every source runs a warm-up, then a measurement window (the Andrew
//! source: a fixed number of measured reps), then stops issuing and
//! drains: ops invoked inside the window (open loop: due inside it) are
//! *attempted*, and an attempted op without a reply certificate when the
//! driver's deadline passes is *failed*.

use crate::spec::{Load, Workload};
use bfs::{generate_script, AndrewConfig, NfsReply, OpKind, ScriptScheduler, ScriptedOp, PHASES};
use bft_core::CompletedOp;
use bft_runtime::{NextOp, OpSource};
use bft_statemachine::CounterService;
use bytes::Bytes;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only randomness, derived from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_bf75_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The measurement schedule shared by every source.
#[derive(Clone, Copy)]
pub struct Window {
    /// Warm-up starts (first op may be invoked).
    pub begin: Instant,
    /// Measurement starts.
    pub from: Instant,
    /// Measurement ends. Closed loop: no op is invoked at or after this
    /// instant. Open loop: every arrival is due before it, and one still
    /// waiting for a free client at this instant is invoked late.
    pub to: Instant,
}

impl Window {
    pub fn new(warmup: Duration, measure: Duration) -> Window {
        let begin = Instant::now();
        Window {
            begin,
            from: begin + warmup,
            to: begin + warmup + measure,
        }
    }

    fn measured(&self, t: Instant) -> bool {
        t >= self.from && t < self.to
    }

    pub fn seconds(&self) -> f64 {
        (self.to - self.from).as_secs_f64()
    }
}

/// What every source reports about the measured ops.
#[derive(Default)]
pub struct Observed {
    /// Ops invoked inside the window; open loop: ops due inside it,
    /// whether or not a client was free to invoke them before the
    /// driver's deadline.
    pub attempted: u64,
    /// Attempted ops that completed.
    pub completed: u64,
    /// `(attempted at, latency µs)` of each completed attempted op; open
    /// loop: attempted at its due time, latency from it.
    pub samples: Vec<(Instant, u64)>,
    /// Open loop: invoke time minus due time, microseconds.
    pub lags_us: Vec<u64>,
    /// Completed attempted ops that needed a retransmission.
    pub retransmitted: u64,
    /// Completed attempted ops that rode the read-only path.
    pub read_only: u64,
    /// `(due, completed)` of every completion, warm-up and drain included
    /// (throughput, unavailability, and the denominator of the traced
    /// run's per-op ratios).
    pub completions: Vec<(Instant, Instant)>,
}

impl Observed {
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }

    /// Attempted ops that failed or took longer than `slo`.
    pub fn slo_misses(&self, slo: Duration) -> u64 {
        let slow = self
            .samples
            .iter()
            .filter(|(_, us)| *us > slo.as_micros() as u64)
            .count() as u64;
        slow + self.failed()
    }

    /// Throughput and latency percentiles over `[from, to)` cut into
    /// `parts` equal sub-windows: each figure is the median of its
    /// per-sub-window values, so one transient stall on a shared host
    /// moves one sub-window, not the result.
    pub fn summarize(&self, from: Instant, to: Instant, parts: u32) -> Summary {
        let part = (to - from) / parts;
        let index = |t: Instant| -> Option<usize> {
            (t >= from && t < to).then(|| {
                (((t - from).as_nanos() / part.as_nanos()) as usize).min(parts as usize - 1)
            })
        };
        let mut lat: Vec<Vec<u64>> = vec![Vec::new(); parts as usize];
        for &(at, us) in &self.samples {
            if let Some(i) = index(at) {
                lat[i].push(us);
            }
        }
        let mut done = vec![0u64; parts as usize];
        for &(_, at) in &self.completions {
            if let Some(i) = index(at) {
                done[i] += 1;
            }
        }
        let per_part = |p: f64| -> Vec<f64> {
            lat.iter()
                .map(|l| crate::derive::percentile(l, p) as f64 / 1e3)
                .collect()
        };
        let tput: Vec<f64> = done
            .iter()
            .map(|&n| n as f64 / part.as_secs_f64())
            .collect();
        Summary {
            throughput_ops_s: median(&tput),
            per_part_ops_s: tput,
            p50_ms: median(&per_part(0.5)),
            p99_ms: median(&per_part(0.99)),
            per_part_p50_ms: per_part(0.5),
            samples: lat.iter().map(Vec::len).min().unwrap_or(0),
        }
    }
}

/// End-to-end figures of one run (see [`Observed::summarize`]).
pub struct Summary {
    pub throughput_ops_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Latency samples in the smallest sub-window.
    pub samples: usize,
    /// Throughput of each sub-window.
    pub per_part_ops_s: Vec<f64>,
    /// Median latency of each sub-window.
    pub per_part_p50_ms: Vec<f64>,
}

/// Median of a sample (mean of the middle two for even sizes), 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One counter reply, kept for the exactly-once / read-your-writes gate.
#[derive(Clone, Copy, Debug)]
pub struct CounterReply {
    pub client: u32,
    pub read: bool,
    pub value: u64,
}

/// The counter gate: per client, replies in completion order must read
/// like exactly-once execution — each INC returns one more than the
/// client's previous write count, each GET returns that count.
pub fn check_counter_replies(replies: &[CounterReply], clients: usize) -> Result<(), String> {
    let mut writes = vec![0u64; clients];
    for (i, r) in replies.iter().enumerate() {
        let w = writes
            .get_mut(r.client as usize)
            .ok_or_else(|| format!("reply {i} from unknown client {}", r.client))?;
        let expected = if r.read { *w } else { *w + 1 };
        if r.value != expected {
            return Err(format!(
                "client {} {} #{i} returned {}, expected {expected}: a lost, duplicated or stale execution",
                r.client,
                if r.read { "GET" } else { "INC" },
                r.value
            ));
        }
        if !r.read {
            *w += 1;
        }
    }
    Ok(())
}

/// The BFS gate: every reply decodes and is not an NFS error.
pub fn check_bfs_reply(result: &[u8]) -> Result<NfsReply, String> {
    match NfsReply::decode(result) {
        Some(NfsReply::Err(e)) => Err(format!("BFS op failed: {e:?}")),
        Some(reply) => Ok(reply),
        None => Err("undecodable BFS reply".into()),
    }
}

struct Inflight {
    due: Instant,
    invoked: Instant,
    read: bool,
}

/// Counter workloads: closed loop, or Poisson open loop.
pub struct CounterSource {
    window: Window,
    read_every: u64,
    /// Per-client offset into the read pattern (seeded).
    read_phase: Vec<u64>,
    issued: Vec<u64>,
    /// Seeded op bodies, one per client (the payload is padding).
    bodies: Vec<(Bytes, Bytes)>,
    /// Open loop: due offsets from `window.begin`, ascending.
    arrivals: Option<Vec<Duration>>,
    next_arrival: usize,
    inflight: Vec<Option<Inflight>>,
    pub replies: Vec<CounterReply>,
    pub obs: Observed,
}

impl CounterSource {
    pub fn new(w: &Workload, seed: u64, window: Window) -> CounterSource {
        let mut rng = Rng::new(seed);
        let clients = w.clients as usize;
        let read_phase = (0..clients)
            .map(|_| {
                if w.read_every > 0 {
                    rng.next_u64() % w.read_every
                } else {
                    0
                }
            })
            .collect();
        let bodies = (0..clients)
            .map(|_| {
                let mut pad = vec![0u8; w.op_bytes.max(1)];
                for b in pad.iter_mut().skip(1) {
                    *b = rng.next_u64() as u8;
                }
                pad[0] = CounterService::OP_INC;
                let inc = Bytes::from(pad.clone());
                pad[0] = CounterService::OP_GET;
                (inc, Bytes::from(pad))
            })
            .collect();
        let arrivals = match w.load {
            Load::Closed => None,
            Load::Open { rate_per_s } => {
                // A Poisson process conditioned on its count: exactly
                // rate x span arrivals at independent uniform times, so
                // the offered load is the same for every seed.
                let span = (window.to - window.begin).as_secs_f64();
                let n = (rate_per_s * span).round() as usize;
                let mut due: Vec<Duration> = (0..n)
                    .map(|_| Duration::from_secs_f64(span * (1.0 - rng.unit())))
                    .collect();
                due.sort();
                Some(due)
            }
        };
        // Open loop: an op is attempted when it falls due, so one never
        // invoked (every client busy until the deadline) counts as failed.
        let attempted = arrivals.as_ref().map_or(0, |a| {
            a.iter()
                .filter(|&&offset| window.measured(window.begin + offset))
                .count() as u64
        });
        CounterSource {
            window,
            read_every: w.read_every,
            read_phase,
            issued: vec![0; clients],
            bodies,
            arrivals,
            next_arrival: 0,
            inflight: (0..clients).map(|_| None).collect(),
            replies: Vec::new(),
            obs: Observed {
                attempted,
                ..Observed::default()
            },
        }
    }

    fn in_flight(&self) -> bool {
        self.inflight.iter().any(Option::is_some)
    }
}

impl OpSource for CounterSource {
    fn next(&mut self, slot: usize, now: Instant) -> NextOp {
        let due = match &self.arrivals {
            None if now >= self.window.to => return NextOp::Finished,
            None => now,
            // Arrivals are all due before `window.to`: one that waited
            // for a free client past it is still invoked, late.
            Some(arrivals) => {
                let Some(&offset) = arrivals.get(self.next_arrival) else {
                    return NextOp::Finished;
                };
                let due = self.window.begin + offset;
                if due > now {
                    return NextOp::Wait;
                }
                self.next_arrival += 1;
                due
            }
        };
        let invoked = Instant::now();
        let k = self.issued[slot];
        self.issued[slot] += 1;
        let read = self.read_every > 0
            && (k + self.read_phase[slot]) % self.read_every == self.read_every - 1;
        if self.window.measured(due) {
            if self.arrivals.is_some() {
                self.obs
                    .lags_us
                    .push(invoked.saturating_duration_since(due).as_micros() as u64);
            } else {
                self.obs.attempted += 1;
            }
        }
        self.inflight[slot] = Some(Inflight { due, invoked, read });
        let (inc, get) = &self.bodies[slot];
        NextOp::Invoke {
            op: if read { get.clone() } else { inc.clone() },
            read_only: read,
            tag: k,
        }
    }

    fn done(&mut self, slot: usize, _tag: u64, op: &CompletedOp, _latency: Duration) -> Instant {
        let now = Instant::now();
        let Some(inflight) = self.inflight[slot].take() else {
            return now;
        };
        let value = <[u8; 8]>::try_from(op.result.as_ref()).map_or(u64::MAX, u64::from_le_bytes);
        self.replies.push(CounterReply {
            client: slot as u32,
            read: inflight.read,
            value,
        });
        self.obs.completions.push((inflight.due, now));
        if self.window.measured(inflight.due) {
            self.obs.completed += 1;
            let from = if self.arrivals.is_some() {
                inflight.due
            } else {
                inflight.invoked
            };
            self.obs
                .samples
                .push((from, now.duration_since(from).as_micros() as u64));
            if op.retransmissions > 0 {
                self.obs.retransmitted += 1;
            }
            if inflight.read && op.retransmissions <= 1 {
                self.obs.read_only += 1;
            }
        }
        now
    }

    fn finished(&self) -> bool {
        let issued_all = match &self.arrivals {
            None => Instant::now() >= self.window.to,
            Some(arrivals) => self.next_arrival == arrivals.len(),
        };
        issued_all && !self.in_flight()
    }
}

/// Per-rep bookkeeping for the Andrew source.
struct Rep {
    sched: ScriptScheduler,
    measured: bool,
    first_invoke: Option<Instant>,
    /// Per phase: (first invoke, last completion).
    phase: [(Option<Instant>, Option<Instant>); PHASES.len()],
}

/// Andrew reps per second of `--seconds` (about one second of work per
/// 16 reps on a 2-CPU host). The Andrew workload runs a fixed amount of
/// work — warm-up reps, then `16 x seconds` measured reps — because
/// the replicas' memory grows with every tree created, and a fixed
/// tree count keeps `rss_peak_mb` comparable between runs.
pub const ANDREW_REPS_PER_S: u32 = 16;

/// Unmeasured reps before the measured ones.
pub const ANDREW_WARMUP_REPS: u32 = 16;

/// The Andrew script, rep after rep, as pure RPC replay. Each rep gets
/// its own tree (root named from the seed and the rep number) and its
/// own scheduler, so phase windows are taken per rep and never span
/// two reps.
pub struct AndrewSource {
    total_reps: u32,
    cfg: AndrewConfig,
    prefix: String,
    rep: Rep,
    reps: u32,
    pub measured_reps: u32,
    /// Sum over measured reps of each phase's window.
    pub phase_s: [f64; PHASES.len()],
    /// First invoke of the first measured rep to the last completion of
    /// the last one.
    pub measured_span: Option<(Instant, Instant)>,
    inflight: Vec<Option<(u32, Instant, bool)>>,
    pub errors: Vec<String>,
    pub obs: Observed,
}

/// The default Andrew tree (4 dirs x 5 files of 1 KiB) with its root
/// renamed to `root`.
pub fn andrew_rep_script(cfg: &AndrewConfig, root: &str) -> Vec<ScriptedOp> {
    let rename = |p: &mut String| {
        if let Some(rest) = p.strip_prefix("/run0") {
            *p = format!("/{root}{rest}");
        } else if p == "run0" {
            *p = root.to_string();
        }
    };
    let mut script = generate_script(cfg);
    for op in &mut script {
        match &mut op.kind {
            OpKind::Mkdir(a, b) | OpKind::Create(a, b) => {
                rename(a);
                rename(b);
            }
            OpKind::Write(p, _, _) | OpKind::Stat(p) | OpKind::Read(p, _, _) => rename(p),
        }
    }
    script
}

impl AndrewSource {
    pub fn new(w: &Workload, seed: u64, seconds: u64) -> AndrewSource {
        let cfg = AndrewConfig::default();
        let prefix = format!("s{:x}", Rng::new(seed).next_u64() & 0xff_ffff);
        let mut src = AndrewSource {
            total_reps: ANDREW_WARMUP_REPS + ANDREW_REPS_PER_S * seconds as u32,
            cfg,
            prefix,
            rep: Rep {
                sched: ScriptScheduler::new(Vec::new()),
                measured: false,
                first_invoke: None,
                phase: [(None, None); PHASES.len()],
            },
            reps: 0,
            measured_reps: 0,
            phase_s: [0.0; PHASES.len()],
            measured_span: None,
            inflight: (0..w.clients).map(|_| None).collect(),
            errors: Vec::new(),
            obs: Observed::default(),
        };
        src.start_rep();
        src
    }

    pub fn rep_root(&self, rep: u32) -> String {
        format!("{}r{rep}", self.prefix)
    }

    /// The measured reps' scripts, for the unreplicated baseline.
    pub fn measured_script(&self) -> Vec<ScriptedOp> {
        let first = self.reps - self.measured_reps;
        (first..self.reps)
            .flat_map(|r| andrew_rep_script(&self.cfg, &self.rep_root(r)))
            .collect()
    }

    fn start_rep(&mut self) {
        let root = self.rep_root(self.reps);
        self.rep = Rep {
            sched: ScriptScheduler::new(andrew_rep_script(&self.cfg, &root)),
            measured: self.reps >= ANDREW_WARMUP_REPS,
            first_invoke: None,
            phase: [(None, None); PHASES.len()],
        };
        self.reps += 1;
    }

    fn finish_rep(&mut self) {
        if !self.rep.measured {
            return;
        }
        self.measured_reps += 1;
        for (i, (s, e)) in self.rep.phase.iter().enumerate() {
            if let (Some(s), Some(e)) = (s, e) {
                self.phase_s[i] += e.duration_since(*s).as_secs_f64();
            }
        }
        let start = self.rep.first_invoke.expect("a finished rep invoked ops");
        let end = self
            .rep
            .phase
            .iter()
            .filter_map(|p| p.1)
            .max()
            .expect("completions");
        self.measured_span = Some(match self.measured_span {
            None => (start, end),
            Some((s, _)) => (s, end),
        });
    }

    fn phase_index(&self, idx: usize) -> usize {
        let phase = self.rep.sched.phase_of(idx);
        PHASES
            .iter()
            .position(|p| *p == phase)
            .expect("known phase")
    }
}

impl OpSource for AndrewSource {
    fn next(&mut self, slot: usize, now: Instant) -> NextOp {
        if !self.errors.is_empty() {
            return NextOp::Finished;
        }
        if self.rep.sched.is_finished() {
            if self.reps == self.total_reps {
                return NextOp::Finished;
            }
            self.start_rep();
        }
        match self.rep.sched.next_ready() {
            Some((idx, op, read_only)) => {
                let p = self.phase_index(idx);
                self.rep.phase[p].0.get_or_insert(now);
                self.rep.first_invoke.get_or_insert(now);
                if self.rep.measured {
                    self.obs.attempted += 1;
                }
                self.inflight[slot] = Some((self.reps, now, read_only));
                NextOp::Invoke {
                    op: op.encode(),
                    read_only,
                    tag: idx as u64,
                }
            }
            None => NextOp::Wait,
        }
    }

    fn done(&mut self, slot: usize, tag: u64, op: &CompletedOp, latency: Duration) -> Instant {
        let now = Instant::now();
        let Some((rep, invoked, read_only)) = self.inflight[slot].take() else {
            return now;
        };
        debug_assert_eq!(rep, self.reps, "ops never outlive their rep");
        let reply = match check_bfs_reply(&op.result) {
            Ok(reply) => reply,
            Err(e) => {
                self.errors.push(format!("rep {rep} op {tag}: {e}"));
                return now;
            }
        };
        let idx = tag as usize;
        let p = self.phase_index(idx);
        self.rep.sched.complete(idx, &reply);
        self.rep.phase[p].1 = Some(now);
        self.obs.completions.push((invoked, now));
        if self.rep.measured {
            self.obs.completed += 1;
            self.obs.samples.push((invoked, latency.as_micros() as u64));
            if op.retransmissions > 0 {
                self.obs.retransmitted += 1;
            }
            if read_only && op.retransmissions <= 1 {
                self.obs.read_only += 1;
            }
        }
        if self.rep.sched.is_finished() {
            self.finish_rep();
        }
        now
    }

    fn finished(&self) -> bool {
        !self.errors.is_empty() || (self.rep.sched.is_finished() && self.reps == self.total_reps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replies() -> Vec<CounterReply> {
        let r = |client, read, value| CounterReply {
            client,
            read,
            value,
        };
        vec![
            r(0, false, 1),
            r(1, false, 1),
            r(0, true, 1),
            r(0, false, 2),
            r(1, true, 1),
        ]
    }

    #[test]
    fn counter_gate_accepts_exactly_once_sequences() {
        assert!(check_counter_replies(&replies(), 2).is_ok());
    }

    #[test]
    fn counter_gate_rejects_tampered_replies() {
        for i in 0..replies().len() {
            let mut tampered = replies();
            tampered[i].value += 1;
            assert!(check_counter_replies(&tampered, 2).is_err(), "reply {i}");
        }
        // A duplicated execution: the same INC answered twice.
        let mut dup = replies();
        dup.insert(1, dup[0]);
        assert!(check_counter_replies(&dup, 2).is_err());
    }

    #[test]
    fn bfs_gate_rejects_error_replies() {
        assert!(check_bfs_reply(&NfsReply::Ok.encode()).is_ok());
        let err = NfsReply::Err(bfs::FsError::NotFound).encode();
        assert!(check_bfs_reply(&err).is_err());
        assert!(check_bfs_reply(&[0xff]).is_err());
    }

    #[test]
    fn rep_scripts_rename_the_root() {
        let script = andrew_rep_script(&AndrewConfig::default(), "x7r3");
        assert!(matches!(&script[0].kind, OpKind::Mkdir(p, n) if p == "/" && n == "x7r3"));
        assert!(script.iter().skip(1).all(|op| match &op.kind {
            OpKind::Mkdir(p, _) | OpKind::Create(p, _) => p.starts_with("/x7r3"),
            OpKind::Write(p, _, _) | OpKind::Stat(p) | OpKind::Read(p, _, _) =>
                p.starts_with("/x7r3/"),
        }));
    }

    #[test]
    fn open_loop_counts_arrivals_due_while_every_client_is_busy() {
        let w = crate::spec::workload("open-wal").expect("open-wal");
        let begin = Instant::now();
        let window = Window {
            begin,
            from: begin,
            to: begin + Duration::from_millis(200),
        };
        let mut src = CounterSource::new(w, 3, window);
        let due = src.arrivals.clone().expect("open loop");
        assert!(
            due.len() > 2 * w.clients as usize,
            "more arrivals than clients"
        );
        let attempted = src.obs.attempted;
        assert_eq!(attempted, due.len() as u64);
        // Every client is busy from before the window closes until after.
        let late = window.to + Duration::from_millis(50);
        for slot in 0..w.clients as usize {
            assert!(matches!(src.next(slot, late), NextOp::Invoke { .. }));
        }
        // Had the driver's deadline passed here, the arrivals not yet
        // invoked would count as failed rather than vanish.
        assert_eq!(src.obs.failed(), attempted);
        assert!(!src.finished());
        // Past the window, each freed client still takes the arrivals that
        // fell due inside it, until none is left.
        let mut completed = 0;
        while completed < due.len() {
            let slot = completed % w.clients as usize;
            let op = CompletedOp {
                timestamp: bft_types::Timestamp(completed as u64 + 1),
                result: Bytes::new(),
                retransmissions: 0,
            };
            src.done(slot, 0, &op, Duration::ZERO);
            completed += 1;
            let next = src.next(slot, late);
            assert_eq!(
                matches!(next, NextOp::Invoke { .. }),
                completed + w.clients as usize <= due.len(),
                "op {completed}"
            );
        }
        assert!(src.finished());
        assert_eq!(src.obs.attempted, attempted);
        assert_eq!(src.obs.failed(), 0);
    }

    #[test]
    fn poisson_arrivals_repeat_per_seed_and_match_the_rate() {
        let w = crate::spec::workload("open-wal").expect("open-wal");
        let window = Window::new(Duration::ZERO, Duration::from_secs(10));
        let a = CounterSource::new(w, 7, window)
            .arrivals
            .expect("open loop");
        let b = CounterSource::new(w, 7, window)
            .arrivals
            .expect("open loop");
        let c = CounterSource::new(w, 8, window)
            .arrivals
            .expect("open loop");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let Load::Open { rate_per_s } = w.load else {
            panic!("open-wal is open loop")
        };
        let expected = rate_per_s * 10.0;
        assert!((a.len() as f64 - expected).abs() < expected * 0.1);
    }
}
