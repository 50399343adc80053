//! The traced run: a cluster whose nodes run the benchmark's own copy of
//! the runtime's direct (`workers = 0`) node loop, recording a span
//! around every call into a layer.
//!
//! The loop mirrors `bft_runtime::node` line for line — control
//! requests, due timers, one blocking receive, a bounded drain — built
//! on the public `Transport::start_as` and `Replica` step API. A timing
//! [`Service`] wrapper and a timing [`Storage`] wrapper sit inside the
//! replica, so a `core.step.*` span's self time excludes execution and
//! disk. Spans stay in memory per node and are handed back when the
//! node stops.

use bft_core::{Action, Input, Replica, ReplicaDriver, ReplicaStats, Target, TimerId};
use bft_runtime::transport::StatsSnapshot;
use bft_runtime::{RtTimers, Snapshot, StorageKind, Topology, Transport};
use bft_statemachine::Service;
use bft_storage::{CheckpointSnapshot, Storage, StorageError, WalRecord, WalStorage};
use bft_types::framing::frame_bytes;
use bft_types::{Auth, AuthContent, Message, NodeId, ReplicaId, Requester, SeqNo, Wire};
use bytes::Bytes;
use std::cell::RefCell;
use std::net::{SocketAddr, TcpListener};
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Same idle poll and drain bound as the runtime's node loop.
const IDLE_POLL: Duration = Duration::from_millis(25);
const DRAIN_BATCH: usize = 128;

/// Span names. `STEP + i` is `core.step.<STEP_KINDS[i]>`.
pub const BUSY: u8 = 0;
pub const DECODE: u8 = 1;
pub const ENCODE: u8 = 2;
pub const SEND: u8 = 3;
pub const EXEC: u8 = 4;
pub const EXEC_STATE: u8 = 5;
pub const APPEND: u8 = 6;
pub const SYNC: u8 = 7;
pub const SNAPSHOT: u8 = 8;
pub const LOAD: u8 = 9;
pub const TRUNCATE: u8 = 10;
pub const REPLAY: u8 = 11;
pub const RECOVER: u8 = 12;
pub const STEP: u8 = 13;

/// Display name of a span code, as written to the span dump.
pub fn span_name(code: u8) -> String {
    const FIXED: [&str; 13] = [
        "node.busy",
        "wire.decode",
        "wire.encode",
        "transport.send",
        "exec.execute",
        "exec.state",
        "storage.append",
        "storage.sync",
        "storage.snapshot",
        "storage.load",
        "storage.truncate",
        "storage.replay",
        "storage.recover",
    ];
    match FIXED.get(code as usize) {
        Some(name) => name.to_string(),
        None => format!(
            "core.step.{}",
            crate::spec::STEP_KINDS[(code - STEP) as usize]
        ),
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span (24 bytes). Times are nanoseconds since the run's
/// epoch; `req` names the request (client in the top byte, timestamp
/// below) or the batch (sequence number, top bit set) the work was for,
/// 0 when neither.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u32,
    pub parent: u32,
    pub req: u32,
    pub name: u8,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Clone, Default, Debug)]
pub struct Counts {
    /// Receive calls that returned a payload.
    pub wakes: u64,
    /// Payloads delivered to the replica.
    pub deliveries: u64,
    /// Frame bytes handed to the transport, once per destination.
    pub bytes_sent: u64,
    /// MACs computed on sends plus MACs checked on receipt.
    pub macs: u64,
    /// Bytes run through MD5 by those MACs.
    pub digest_bytes: u64,
    /// Bytes of WAL records appended.
    pub wal_bytes: u64,
}

/// A node's span buffer and counts. Shared (single-threaded) with the
/// timing wrappers inside the replica.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub counts: Counts,
    /// Content length of every authenticated message sent, and the
    /// number of tags of each authenticator sent.
    pub mac_sizes: Vec<u32>,
    pub auth_sizes: Vec<u32>,
    pub auth_tags: Vec<u32>,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            counts: Counts::default(),
            mac_sizes: Vec::new(),
            auth_sizes: Vec::new(),
            auth_tags: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: u8, req: u32) -> u32 {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            start_ns,
            dur_ns: 0,
            req,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            name,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32) {
        let end = self.now_ns();
        let span = &mut self.spans[idx as usize];
        span.dur_ns = u32::try_from(end - span.start_ns).unwrap_or(u32::MAX);
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }
}

type Shared = Rc<RefCell<Tracer>>;

fn span<R>(tr: &Shared, name: u8, req: u32, f: impl FnOnce() -> R) -> R {
    let idx = tr.borrow_mut().open(name, req);
    let out = f();
    tr.borrow_mut().close(idx);
    out
}

/// A [`Service`] that times every call into the service layer.
struct TimedService<S> {
    inner: S,
    tr: Shared,
}

impl<S: Service> Service for TimedService<S> {
    fn execute(&mut self, requester: Requester, op: &[u8], nondet: &[u8]) -> Bytes {
        let tr = Rc::clone(&self.tr);
        span(&tr, EXEC, 0, || self.inner.execute(requester, op, nondet))
    }
    fn is_read_only(&self, op: &[u8]) -> bool {
        self.inner.is_read_only(op)
    }
    fn has_access(&self, requester: Requester, op: &[u8]) -> bool {
        self.inner.has_access(requester, op)
    }
    fn propose_nondet(&self, seq: SeqNo) -> Bytes {
        self.inner.propose_nondet(seq)
    }
    fn check_nondet(&self, nondet: &[u8]) -> bool {
        self.inner.check_nondet(nondet)
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn get_page(&self, index: u64) -> Bytes {
        span(&self.tr, EXEC_STATE, 0, || self.inner.get_page(index))
    }
    fn put_page(&mut self, index: u64, data: &[u8]) {
        let tr = Rc::clone(&self.tr);
        span(&tr, EXEC_STATE, 0, || self.inner.put_page(index, data))
    }
    fn take_dirty(&mut self) -> Vec<u64> {
        let tr = Rc::clone(&self.tr);
        span(&tr, EXEC_STATE, 0, || self.inner.take_dirty())
    }
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
}

/// A [`Storage`] that times every call into the storage layer.
struct TimedStorage {
    inner: WalStorage,
    tr: Shared,
}

impl Storage for TimedStorage {
    fn append(&mut self, rec: &WalRecord) -> Result<(), StorageError> {
        let out = span(&self.tr, APPEND, 0, || self.inner.append(rec));
        self.tr.borrow_mut().counts.wal_bytes += rec.wire_len() as u64;
        out
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        span(&self.tr, SYNC, 0, || self.inner.sync())
    }
    fn write_snapshot(&mut self, snap: &CheckpointSnapshot) -> Result<(), StorageError> {
        span(&self.tr, SNAPSHOT, 0, || self.inner.write_snapshot(snap))
    }
    fn load_snapshot(&mut self) -> Result<Option<CheckpointSnapshot>, StorageError> {
        span(&self.tr, LOAD, 0, || self.inner.load_snapshot())
    }
    fn truncate_below(&mut self, watermark: SeqNo) -> Result<(), StorageError> {
        span(&self.tr, TRUNCATE, 0, || {
            self.inner.truncate_below(watermark)
        })
    }
    fn replay(&mut self) -> Box<dyn Iterator<Item = WalRecord> + '_> {
        let tr = Rc::clone(&self.tr);
        span(&tr, REPLAY, 0, || self.inner.replay())
    }
}

/// The `core.step.*` span code for an input.
fn step_code(input: &Input) -> u8 {
    let kind = match input {
        Input::Timer(_) | Input::WatchdogInterrupt => "timer",
        Input::Deliver(msg) => match msg {
            Message::Request(_) => "request",
            Message::PrePrepare(_) => "pre_prepare",
            Message::Prepare(_) => "prepare",
            Message::Commit(_) => "commit",
            Message::Checkpoint(_) => "checkpoint",
            Message::ViewChange(_)
            | Message::ViewChangeAck(_)
            | Message::ViewChangePk(_)
            | Message::NotCommitted(_)
            | Message::NotCommittedPrimary(_) => "view_change",
            Message::NewView(_) | Message::NewViewPk(_) => "new_view",
            Message::StatusActive(_) | Message::StatusPending(_) => "status",
            Message::Fetch(_) | Message::MetaData(_) | Message::Data(_) => "state_transfer",
            _ => "other",
        },
    };
    let i = crate::spec::STEP_KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is listed");
    STEP + i as u8
}

/// The request (client, timestamp) or batch (seq, top bit) a message
/// serves, 0 for neither.
fn req_id(msg: &Message) -> u32 {
    let client = |r: &Requester, ts: u64| match r {
        Requester::Client(c) => ((c.0 & 0x7f) << 24) | (ts as u32 & 0xff_ffff),
        Requester::Replica(_) => 0,
    };
    let batch = |seq: SeqNo| (1 << 31) | (seq.0 as u32 & 0x7fff_ffff);
    match msg {
        Message::Request(r) => client(&r.requester, r.timestamp.0),
        Message::Reply(r) => client(&r.requester, r.timestamp.0),
        Message::PrePrepare(m) => batch(m.seq),
        Message::Prepare(m) => batch(m.seq),
        Message::Commit(m) => batch(m.seq),
        _ => 0,
    }
}

/// `(auth field, authenticated content length)` of any message.
fn auth_parts(msg: &Message) -> (&Auth, usize) {
    macro_rules! each {
        ($($v:ident),+ $(,)?) => {
            match msg {
                $(Message::$v(m) => (m.auth_field(), m.with_content(|c| c.len())),)+
            }
        };
    }
    each!(
        Request,
        Reply,
        PrePrepare,
        Prepare,
        Commit,
        Checkpoint,
        ViewChange,
        ViewChangeAck,
        NewView,
        NotCommitted,
        NotCommittedPrimary,
        ViewChangePk,
        NewViewPk,
        StatusActive,
        StatusPending,
        Fetch,
        MetaData,
        Data,
        NewKey,
        QueryStable,
        ReplyStable,
    )
}

enum Ctl {
    Snapshot(Sender<Snapshot>),
    Shutdown,
}

/// What a node hands back when it stops.
pub struct NodeReport {
    pub id: ReplicaId,
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub mac_sizes: Vec<u32>,
    pub auth_sizes: Vec<u32>,
    pub auth_tags: Vec<u32>,
    pub transport: StatsSnapshot,
    pub stats: ReplicaStats,
    /// Node thread lifetime, for busy fractions.
    pub lifetime: Duration,
    /// When this node first ran an active view above 0.
    pub new_view_at: Option<Instant>,
}

struct TracedNode {
    ctl: Sender<Ctl>,
    join: Option<std::thread::JoinHandle<NodeReport>>,
}

impl TracedNode {
    fn stop(mut self) -> NodeReport {
        let _ = self.ctl.send(Ctl::Shutdown);
        self.join
            .take()
            .expect("joined once")
            .join()
            .expect("traced node thread panicked")
    }
}

/// The per-node loop state: the runtime's `apply_actions`/`deliver`
/// plus spans and counts.
struct NodeLoop {
    me: ReplicaId,
    n: usize,
    transport: Transport,
    timers: RtTimers<TimerId>,
    tr: Shared,
}

impl NodeLoop {
    fn step<S: Service>(&mut self, replica: &mut Replica<S>, input: Input, req: u32) {
        let code = step_code(&input);
        let actions = span(&self.tr, code, req, || replica.step(input));
        self.apply(actions);
    }

    fn deliver<S: Service>(&mut self, replica: &mut Replica<S>, payload: Vec<u8>) {
        self.tr.borrow_mut().counts.deliveries += 1;
        let decoded = span(&self.tr, DECODE, 0, || {
            let mut slice = payload.as_slice();
            Message::decode(&mut slice)
                .ok()
                .filter(|_| slice.is_empty())
        });
        let Some(msg) = decoded else {
            return;
        };
        let (auth, content) = auth_parts(&msg);
        if matches!(auth, Auth::Mac(_) | Auth::Authenticator(_)) {
            let mut t = self.tr.borrow_mut();
            t.counts.macs += 1;
            t.counts.digest_bytes += content as u64;
        }
        let req = req_id(&msg);
        self.step(replica, Input::Deliver(msg), req);
    }

    fn apply(&mut self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let req = req_id(&msg);
                    let frame = Arc::new(span(&self.tr, ENCODE, req, || frame_bytes(&msg)));
                    let dests = resolve_dests(self.me, &to, self.n);
                    {
                        let (auth, content) = auth_parts(&msg);
                        let tags = match auth {
                            Auth::Mac(_) => 1,
                            Auth::Authenticator(a) => a.tags.len(),
                            _ => 0,
                        };
                        let mut t = self.tr.borrow_mut();
                        t.counts.bytes_sent += (frame.len() * dests.len()) as u64;
                        t.counts.macs += tags as u64;
                        t.counts.digest_bytes += (tags * content) as u64;
                        match auth {
                            Auth::Mac(_) => t.mac_sizes.push(content as u32),
                            Auth::Authenticator(_) => {
                                t.auth_sizes.push(content as u32);
                                t.auth_tags.push(tags as u32);
                            }
                            _ => {}
                        }
                    }
                    for dest in dests {
                        let frame = Arc::clone(&frame);
                        span(&self.tr, SEND, req, || self.transport.send(dest, frame));
                    }
                }
                Action::SetTimer { id, after } => self.timers.set(id, after),
                Action::CancelTimer { id } => self.timers.cancel(id),
            }
        }
    }
}

/// The runtime's destination expansion, unchanged.
fn resolve_dests(me: ReplicaId, to: &Target, n: usize) -> Vec<NodeId> {
    match to {
        Target::Replica(r) => vec![NodeId::Replica(*r)],
        Target::AllReplicas => (0..n as u32)
            .map(ReplicaId)
            .filter(|r| *r != me)
            .map(NodeId::Replica)
            .collect(),
        Target::Requester(Requester::Client(c)) => vec![NodeId::Client(*c)],
        Target::Requester(Requester::Replica(r)) => vec![NodeId::Replica(*r)],
        Target::Node(node) => vec![*node],
    }
}

fn snapshot<S: Service>(replica: &Replica<S>, me: ReplicaId, transport: StatsSnapshot) -> Snapshot {
    let next = SeqNo(ReplicaDriver::last_executed(replica).0 + 1);
    Snapshot {
        id: me,
        view: replica.current_view().0,
        view_active: replica.view_active(),
        last_exec: ReplicaDriver::last_executed(replica),
        committed_frontier: ReplicaDriver::committed_frontier(replica),
        state_digest: ReplicaDriver::state_digest(replica),
        journal: ReplicaDriver::journal(replica).to_vec(),
        stats: replica.stats,
        transport,
        exec_blocker: match replica.debug_fetch() {
            Some(fetch) => format!("fetch: {fetch}"),
            None => replica.debug_exec_blocker(next),
        },
    }
}

/// The node thread body: boot (or recover from the WAL), then the
/// direct event loop until shutdown.
fn run_node<S: Service>(
    id: ReplicaId,
    topo: Topology,
    listener: TcpListener,
    service: S,
    ctl_rx: Receiver<Ctl>,
    epoch: Instant,
) -> NodeReport {
    let born = Instant::now();
    let tr: Shared = Rc::new(RefCell::new(Tracer::new(epoch)));
    let keys = topo.keys();
    let config = topo.replica_config();
    let service = TimedService {
        inner: service,
        tr: Rc::clone(&tr),
    };
    let mut replica = Replica::new(id, config, service, &keys, topo.key_seed);
    let (in_tx, in_rx) = mpsc::channel::<Vec<u8>>();
    let peers: Vec<(NodeId, SocketAddr)> = topo
        .replicas
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != id.0 as usize)
        .map(|(i, addr)| (NodeId::Replica(ReplicaId(i as u32)), *addr))
        .collect();
    let transport = Transport::start_as(vec![NodeId::Replica(id)], Some(listener), peers, in_tx);
    let boot = match topo.storage {
        StorageKind::Mem => ReplicaDriver::boot(&mut replica),
        StorageKind::Wal => {
            let dir =
                std::path::Path::new(topo.data_dir.as_deref().expect("wal requires data_dir"))
                    .join(format!("replica-{}", id.0));
            let wal = WalStorage::open(&dir).unwrap_or_else(|e| {
                panic!("replica {}: open WAL at {}: {e:?}", id.0, dir.display())
            });
            let mut storage = TimedStorage {
                inner: wal,
                tr: Rc::clone(&tr),
            };
            let boot = span(&tr, RECOVER, 0, || replica.recover(&mut storage));
            replica.attach_storage(Box::new(storage));
            boot
        }
    };
    let mut node = NodeLoop {
        me: id,
        n: topo.replicas.len(),
        transport,
        timers: RtTimers::new(),
        tr: Rc::clone(&tr),
    };
    node.apply(boot);
    let mut new_view_at = None;

    'run: loop {
        let busy = tr.borrow_mut().open(BUSY, 0);
        while let Ok(ctl) = ctl_rx.try_recv() {
            match ctl {
                Ctl::Snapshot(reply) => {
                    let _ = reply.send(snapshot(&replica, id, node.transport.stats()));
                }
                Ctl::Shutdown => {
                    tr.borrow_mut().close(busy);
                    break 'run;
                }
            }
        }
        while let Some(timer) = node.timers.pop_due() {
            node.step(&mut replica, Input::Timer(timer), 0);
        }
        tr.borrow_mut().close(busy);
        let wait = node.timers.until_next().unwrap_or(IDLE_POLL).min(IDLE_POLL);
        match in_rx.recv_timeout(wait) {
            Ok(payload) => {
                let busy = tr.borrow_mut().open(BUSY, 0);
                tr.borrow_mut().counts.wakes += 1;
                node.deliver(&mut replica, payload);
                for _ in 0..DRAIN_BATCH {
                    match in_rx.try_recv() {
                        Ok(payload) => node.deliver(&mut replica, payload),
                        Err(_) => break,
                    }
                }
                tr.borrow_mut().close(busy);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if new_view_at.is_none() && replica.current_view().0 > 0 && replica.view_active() {
            new_view_at = Some(Instant::now());
        }
    }
    let transport = node.transport.stats();
    node.transport.shutdown();
    let stats = replica.stats;
    drop(replica);
    let mut t = tr.borrow_mut();
    NodeReport {
        id,
        spans: std::mem::take(&mut t.spans),
        counts: t.counts.clone(),
        mac_sizes: std::mem::take(&mut t.mac_sizes),
        auth_sizes: std::mem::take(&mut t.auth_sizes),
        auth_tags: std::mem::take(&mut t.auth_tags),
        transport,
        stats,
        lifetime: born.elapsed(),
        new_view_at,
    }
}

/// A 3f+1 cluster of traced nodes on loopback ports. Killed nodes'
/// reports are kept; [`TracedCluster::finish`] returns them all.
pub struct TracedCluster {
    topo: Topology,
    listeners: Vec<TcpListener>,
    nodes: Vec<Option<TracedNode>>,
    epoch: Instant,
    reports: Vec<NodeReport>,
}

impl TracedCluster {
    /// Boots the cluster on `topo` (listener addresses are filled in
    /// here, exactly as `LoopbackCluster` does).
    pub fn start(mut topo: Topology) -> TracedCluster {
        let n = 3 * topo.f + 1;
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        topo.set_replicas(
            listeners
                .iter()
                .map(|l| l.local_addr().expect("listener addr"))
                .collect(),
        );
        let mut cluster = TracedCluster {
            topo,
            listeners,
            nodes: Vec::new(),
            epoch: Instant::now(),
            reports: Vec::new(),
        };
        cluster.nodes = (0..n).map(|i| Some(cluster.spawn(i))).collect();
        cluster
    }

    fn spawn(&self, i: usize) -> TracedNode {
        let id = ReplicaId(i as u32);
        let topo = self.topo.clone();
        let listener = self.listeners[i].try_clone().expect("clone listener");
        let epoch = self.epoch;
        let (ctl, ctl_rx) = mpsc::channel();
        let join = std::thread::Builder::new()
            .name(format!("traced-node-{i}"))
            .spawn(move || match topo.service {
                bft_runtime::ServiceKind::Counter => {
                    let service = bft_statemachine::CounterService::new(
                        topo.clients + (3 * topo.f + 1) as u32,
                    );
                    run_node(id, topo, listener, service, ctl_rx, epoch)
                }
                bft_runtime::ServiceKind::Bfs => {
                    let service =
                        bfs::BfsService::new_realtime(bft_runtime::node::BFS_LIVE_BUCKETS);
                    run_node(id, topo, listener, service, ctl_rx, epoch)
                }
            })
            .expect("spawn traced node");
        TracedNode {
            ctl,
            join: Some(join),
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Stops replica `r` abruptly (its report is kept).
    pub fn kill(&mut self, r: ReplicaId) {
        if let Some(node) = self.nodes[r.0 as usize].take() {
            self.reports.push(node.stop());
        }
    }

    /// Snapshots of every live replica.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.nodes
            .iter()
            .flatten()
            .filter_map(|node| {
                let (tx, rx) = mpsc::channel();
                node.ctl.send(Ctl::Snapshot(tx)).ok()?;
                rx.recv_timeout(Duration::from_secs(5)).ok()
            })
            .collect()
    }

    /// Stops every node and returns all reports, killed incarnations
    /// included.
    pub fn finish(mut self) -> Vec<NodeReport> {
        let mut reports = std::mem::take(&mut self.reports);
        for node in self.nodes.iter_mut() {
            if let Some(node) = node.take() {
                reports.push(node.stop());
            }
        }
        reports
    }
}

impl Drop for TracedCluster {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut() {
            if let Some(node) = node.take() {
                let _ = node.ctl.send(Ctl::Shutdown);
                if let Some(join) = node.join {
                    let _ = join.join();
                }
            }
        }
    }
}
