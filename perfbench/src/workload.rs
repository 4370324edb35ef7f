//! The three workloads: set-up, the measured window, and the checks
//! after it. Servers run in-process and are driven over real TCP
//! through the public `Client` and `ReplicaGroup` APIs.

use crate::gen::{self, Frame, KeyDist, ScheduledQuery, ROSTER};
use crate::ledger::{Checks, Ledger, Verdict, WriterLedger};
use crate::pin;
use crate::probe;
use crate::procfs::{self, GroupDelta};
use crate::stats::{median_f64, Hist};
use crate::trace::{Span, Tracer};
use ivl_replica::{DeltaStats, ReplicaError, ReplicaGroup, ReplicaMode};
use ivl_service::objects::ObjectConfig;
use ivl_service::{
    serve, Backend, Client, ClientError, ErrorEnvelope, Request, Response, ServerConfig,
    ServerHandle, StatsReport,
};
use ivl_spec::history::{History, HistoryBuilder, ObjectId, OpId, ProcessId};
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Which traffic mix a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One threaded server, two closed-loop ingest connections over
    /// hot keys (Zipf 1.1 over 512), no reads in the window.
    Ingest,
    /// One event-loop server, one closed-loop ingest connection over
    /// cold keys (Zipf 0.8 over 1M) beside one open-loop query
    /// connection.
    Mixed,
    /// Two threaded replicas under one partition-mode `ReplicaGroup`:
    /// closed-loop group batches with merged reads on an open-loop
    /// schedule, from one generator thread.
    Replicated,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Mixed, Workload::Replicated];

    /// Key distribution of the ingest frames (and of the queries).
    pub fn keys(self) -> KeyDist {
        match self {
            Workload::Ingest | Workload::Replicated => KeyDist { keys: 512, s: 1.1 },
            Workload::Mixed => KeyDist {
                keys: 1 << 20,
                s: 0.8,
            },
        }
    }

    /// Ingest connections (generator threads that write).
    pub fn writers(self) -> usize {
        match self {
            Workload::Ingest => 2,
            Workload::Mixed | Workload::Replicated => 1,
        }
    }

    fn backend(self) -> Backend {
        match self {
            Workload::Mixed => Backend::EventLoop,
            Workload::Ingest | Workload::Replicated => Backend::Threaded,
        }
    }

    fn servers(self) -> usize {
        match self {
            Workload::Replicated => 2,
            Workload::Ingest | Workload::Mixed => 1,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
            Workload::Replicated => "replicated",
        })
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ingest" => Ok(Workload::Ingest),
            "mixed" => Ok(Workload::Mixed),
            "replicated" => Ok(Workload::Replicated),
            other => Err(format!(
                "unknown workload {other:?} (want ingest, mixed or replicated)"
            )),
        }
    }
}

/// Set-ups timed before each sub-window (the last one boots the rig
/// that is measured) and again after it; the median of all of them is
/// reported. A set-up lasts about a millisecond, so trials on both
/// sides of every sub-window sample the host across the whole run, as
/// the windows' own metrics do.
pub const SETUP_TRIALS: usize = 6;
/// Helper processes that each time [`HELPER_SETUPS`] set-ups after an
/// untraced run's windows. Set-up time depends on the process as well
/// as on the host: on the development VM some processes boot rigs
/// about 2x faster than others for their whole life, so one process's
/// median is not the program's. `setup_s` is the median over the run's
/// own process and these of each process's median.
pub const SETUP_PROCESSES: usize = 6;
/// Set-ups timed in each helper process.
pub const HELPER_SETUPS: usize = 48;
/// Open-loop point-query rate of `mixed`, per second: well under what
/// one query connection sustains, so the schedule, not the server,
/// sets the load.
pub const QUERY_RATE: f64 = 2_000.0;
/// Open-loop merged-read rate of `replicated`, per second: a read
/// every few dozen batches, so most replies are sparse deltas.
pub const READ_RATE: f64 = 1_000.0;
/// Length of `ingest`'s verification sweep after each sub-window,
/// seconds.
pub const SWEEP_SECONDS: f64 = 0.1;
/// Sub-windows an untraced run is cut into, each on a freshly booted
/// rig pinned to the next of the allowed CPUs in turn. On a virtual
/// machine the pace of a vCPU moves between a few levels up to 2x
/// apart, every few seconds at some times and not for minutes at
/// others. Short sub-windows, each measured against the host probe
/// taken right around it, keep the probe and the window at the same
/// pace; the run reports the median over all of them.
pub const SUB_RUNS: usize = 32;
/// Length of each host probe, run on the sub-window's CPU just before
/// its rig boots and again just after the rig is joined.
pub const PROBE: Duration = Duration::from_millis(50);

/// Everything one run needs besides the workload's fixed shape.
#[derive(Clone, Debug)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
}

impl Params {
    /// The canonical settings for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Params {
            workload,
            seed,
            seconds,
        }
    }

    /// The open-loop schedule this run reads on (empty for `ingest`,
    /// whose reads are the closed-loop sweep after the window).
    pub fn schedule(&self) -> Vec<ScheduledQuery> {
        let rate = match self.workload {
            Workload::Ingest => return Vec::new(),
            Workload::Mixed => QUERY_RATE,
            Workload::Replicated => READ_RATE,
        };
        let n = (rate * self.seconds).ceil() as usize + 1;
        gen::query_schedule(self.seed, 100, self.workload.keys(), rate, n)
    }

    /// The frame pools of the run's ingest streams.
    pub fn pools(&self) -> Vec<Vec<Frame>> {
        (0..self.workload.writers())
            .map(|s| gen::frame_pool(self.seed, s as u64, self.workload.keys(), gen::FRAME_POOL))
            .collect()
    }
}

/// The client-side counter history: per object, every batch is a
/// counter update of its weight and every read a counter query
/// returning the answer's `observed`.
pub type CounterHistory = History<u64, u64, u64>;

/// Recorder of the client-side counter history (traced runs only).
#[derive(Debug, Default)]
struct HistoryRec(Mutex<HistoryBuilder<u64, u64, u64>>);

impl HistoryRec {
    fn invoke_update(&self, p: u32, frame: &Frame) -> OpId {
        self.0.lock().expect("history lock").invoke_update(
            ProcessId(p),
            ObjectId(frame.object),
            frame.weight(),
        )
    }

    fn invoke_query(&self, p: u32, object: u32) -> OpId {
        self.0
            .lock()
            .expect("history lock")
            .invoke_query(ProcessId(p), ObjectId(object), 0)
    }

    fn respond_update(&self, op: OpId) {
        self.0.lock().expect("history lock").respond_update(op);
    }

    fn respond_query(&self, op: OpId, observed: u64) {
        self.0
            .lock()
            .expect("history lock")
            .respond_query(op, observed);
    }
}

/// The truth books of one rig: the ledger, and the history when
/// traced. Both start empty with the rig, so set-up frames are in
/// them.
struct Books {
    ledger: Ledger,
    history: Option<HistoryRec>,
}

/// Booted servers and the workload's connections.
struct Rig {
    servers: Vec<ServerHandle>,
    ingest: Vec<Client>,
    query: Option<Client>,
    group: Option<ReplicaGroup>,
}

impl Rig {
    /// Hangs up every connection, then drains and joins the servers.
    fn join(self) {
        drop(self.ingest);
        drop(self.query);
        drop(self.group);
        for s in self.servers {
            s.join();
        }
    }
}

fn server_config(workload: Workload) -> ServerConfig {
    ServerConfig {
        backend: workload.backend(),
        objects: ROSTER
            .iter()
            .map(|&(name, kind, _)| ObjectConfig::new(name, kind))
            .collect(),
        ..ServerConfig::default()
    }
}

/// Sends `frame` through `send`, keeping the books: invoked before the
/// send, completed after its ack. Returns when the send started and
/// when its ack arrived, so callers time the call alone.
fn send_booked<E>(
    frame: &Frame,
    ledger: &WriterLedger,
    history: Option<&HistoryRec>,
    process: u32,
    send: impl FnOnce(u32, &[(u64, u64)]) -> Result<(), E>,
) -> Result<(Instant, Instant), E> {
    ledger.invoke(frame);
    let op = history.map(|h| h.invoke_update(process, frame));
    let t0 = Instant::now();
    send(frame.object, &frame.items)?;
    let t1 = Instant::now();
    ledger.complete(frame);
    if let (Some(h), Some(op)) = (history, op) {
        h.respond_update(op);
    }
    Ok((t0, t1))
}

/// One batch on a direct connection.
fn direct_batch(
    client: &mut Client,
) -> impl FnMut(u32, &[(u64, u64)]) -> Result<(), ClientError> + '_ {
    |object, items| client.object_id(object).batch(items).map(drop)
}

/// One batch through the group.
fn group_batch(
    group: &mut ReplicaGroup,
) -> impl FnMut(u32, &[(u64, u64)]) -> Result<(), ReplicaError> + '_ {
    |object, items| group.batch(object, items).map(drop)
}

/// Boots the workload's servers, registers the roster, connects, and
/// waits for the first ack of every ingest stream (its pool frame 0).
fn boot(p: &Params, pools: &[Vec<Frame>], books: &Books) -> Result<Rig, String> {
    let w = p.workload;
    let servers = (0..w.servers())
        .map(|_| serve("127.0.0.1:0", server_config(w)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("serve: {e}"))?;
    let addr = servers[0].addr();
    let mut rig = Rig {
        servers,
        ingest: Vec::new(),
        query: None,
        group: None,
    };
    match w {
        Workload::Ingest | Workload::Mixed => {
            for (i, pool) in pools.iter().enumerate() {
                let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                send_booked(
                    &pool[0],
                    books.ledger.writer(i),
                    books.history.as_ref(),
                    i as u32,
                    direct_batch(&mut c),
                )
                .map_err(|e| format!("first ack: {e}"))?;
                rig.ingest.push(c);
            }
            if w == Workload::Mixed {
                rig.query = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
            }
        }
        Workload::Replicated => {
            let addrs = rig.servers.iter().map(|s| s.addr().to_string()).collect();
            let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, server_config(w).seed)
                .map_err(|e| format!("replica group: {e}"))?;
            send_booked(
                &pools[0][0],
                books.ledger.writer(0),
                books.history.as_ref(),
                0,
                group_batch(&mut group),
            )
            .map_err(|e| format!("first ack: {e}"))?;
            rig.group = Some(group);
        }
    }
    Ok(rig)
}

/// What a generator thread brings back from the window.
#[derive(Debug, Default)]
struct GenOut {
    batch_ns: Hist,
    /// Traced runs: batch latencies of the periods without and with
    /// spans.
    batch_split: [Hist; 2],
    read_ns: Hist,
    service_ns: Hist,
    lateness_ns: Hist,
    frames: u64,
    /// Frames per ingest stream, in stream order.
    stream_frames: Vec<u64>,
    items: u64,
    reads: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    checks: Checks,
    spans: Vec<Span>,
    /// The generator threads' own `/proc` counters over their loops.
    proc: Option<GroupDelta>,
}

impl GenOut {
    fn absorb(&mut self, o: GenOut) {
        self.batch_ns.merge(&o.batch_ns);
        for (a, b) in self.batch_split.iter_mut().zip(&o.batch_split) {
            a.merge(b);
        }
        self.read_ns.merge(&o.read_ns);
        self.service_ns.merge(&o.service_ns);
        self.lateness_ns.merge(&o.lateness_ns);
        self.frames += o.frames;
        self.stream_frames.extend(o.stream_frames);
        self.items += o.items;
        self.reads += o.reads;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.checks.absorb(o.checks);
        // Parents index the thread's own buffer: re-base them.
        let base = self.spans.len();
        self.spans.extend(o.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
        self.proc = match (self.proc.take(), o.proc) {
            (Some(mut a), Some(b)) => {
                a.add(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records one frame sent at `t0` and acknowledged at `t1`.
    fn acked(&mut self, tracer: &Tracer, frame: &Frame, t0: Instant, t1: Instant) {
        let items = frame.items.len() as u64;
        let ns = (t1 - t0).as_nanos() as u64;
        self.batch_ns.record(ns);
        if let Some(on) = tracer.spans_at(t0) {
            self.batch_split[usize::from(on)].record(ns);
        }
        self.frames += 1;
        self.items += items;
    }

    /// Issues one read now through `read`, keeping the books and
    /// checking its answer against the ledger; the read is timed from
    /// its due time `q.due_ns` (for a closed-loop read, its send).
    fn checked_read(
        &mut self,
        ctx: &Ctx<'_>,
        tracer: &mut Tracer,
        span: &'static str,
        process: u32,
        q: &ScheduledQuery,
        read: impl FnOnce() -> Result<ErrorEnvelope, String>,
    ) {
        let history = ctx.books.history.as_ref();
        self.attempted += 1;
        let before = ctx.books.ledger.start(q.object, q.key);
        let op = history.map(|h| h.invoke_query(process, q.object));
        let issued = Instant::now();
        let res = read();
        let done = Instant::now();
        let env = match res {
            Ok(env) => env,
            Err(e) => return self.fail(format!("read: {e}")),
        };
        if let (Some(h), Some(op)) = (history, op) {
            h.respond_query(op, env.observed());
        }
        self.check(&env, ctx.books.ledger.end(q.object, q.key, before));
        let due = (ctx.start + Duration::from_nanos(q.due_ns)).min(issued);
        self.read_ns.record((done - due).as_nanos() as u64);
        self.service_ns.record((done - issued).as_nanos() as u64);
        self.lateness_ns.record((issued - due).as_nanos() as u64);
        self.reads += 1;
        tracer.record(span, (1 << 63) | self.reads, issued, done);
    }

    /// Records one checked answer's verdict.
    fn check(&mut self, env: &ErrorEnvelope, truth: crate::ledger::Truth) {
        if self.checks.record(env, truth) == Verdict::DeterministicMiss && self.errors.len() < 8 {
            self.errors
                .push(format!("deterministic envelope miss: {env:?} vs {truth:?}"));
        }
    }
}

/// Shared read-only context of the generator threads.
struct Ctx<'a> {
    books: &'a Books,
    start: Instant,
    deadline: Instant,
    traced: bool,
}

/// Runs a generator loop between two samples of its own thread.
fn measured(body: impl FnOnce() -> GenOut) -> GenOut {
    let before = procfs::sample_self();
    let mut out = body();
    out.proc = before
        .zip(procfs::sample_self())
        .map(|(b, a)| GroupDelta::between(&b, &a));
    out
}

/// Closed-loop ingest on one direct connection: frames from `pool`
/// (cycled, from frame 1 — frame 0 was the set-up's first ack) until
/// the deadline.
fn ingest_loop(ctx: &Ctx<'_>, client: &mut Client, pool: &[Frame], w: usize) -> GenOut {
    let mut out = GenOut::default();
    let mut tracer = Tracer::new(ctx.start, ctx.traced);
    tracer.open("gen.ingest", w as u64);
    let ledger = ctx.books.ledger.writer(w);
    let history = ctx.books.history.as_ref();
    let mut i = 1;
    loop {
        let frame = &pool[i % pool.len()];
        i += 1;
        out.attempted += 1;
        let (t0, t1) = match send_booked(frame, ledger, history, w as u32, direct_batch(client)) {
            Ok(times) => times,
            Err(e) => {
                out.fail(format!("batch: {e}"));
                break;
            }
        };
        out.acked(&tracer, frame, t0, t1);
        tracer.record("client.batch", ((w as u64) << 48) | i as u64, t0, t1);
        if t1 >= ctx.deadline {
            break;
        }
    }
    out.stream_frames = vec![out.frames];
    tracer.close();
    out.spans = tracer.into_spans();
    out
}

/// Sleeps until `due` — the open-loop pacing. Lateness is measured
/// against `due` by the caller, so an oversleep is visible.
fn wait_until(due: Instant) {
    if let Some(sleep) = due.checked_duration_since(Instant::now()) {
        thread::sleep(sleep);
    }
}

/// Timer slack of the open-loop query generator, ns. With the
/// kernel's default of 50 µs, a paced sleep may end that much after
/// its due time, and the overshoot would count as read latency.
const QUERY_TIMER_SLACK_NS: u64 = 1_000;

/// Sets the calling thread's timer slack to [`QUERY_TIMER_SLACK_NS`]
/// through `/proc/<tid>/timerslack_ns`, which a thread may write for
/// itself. Where that fails the default slack stays, and the generator's
/// lateness, measured either way, shows it.
fn tighten_timer_slack() {
    if let Ok(link) = std::fs::read_link("/proc/thread-self") {
        if let Some(tid) = link.file_name() {
            let path = std::path::Path::new("/proc")
                .join(tid)
                .join("timerslack_ns");
            let _ = std::fs::write(path, QUERY_TIMER_SLACK_NS.to_string());
        }
    }
}

/// Open-loop point queries on one direct connection: issued at the
/// schedule's due times, timed from them, each answer checked against
/// the ledger.
fn query_loop(
    ctx: &Ctx<'_>,
    client: &mut Client,
    schedule: &[ScheduledQuery],
    process: u32,
) -> GenOut {
    let mut out = GenOut::default();
    tighten_timer_slack();
    let mut tracer = Tracer::new(ctx.start, ctx.traced);
    tracer.open("gen.query", u64::from(process));
    for q in schedule {
        let due = ctx.start + Duration::from_nanos(q.due_ns);
        if due >= ctx.deadline {
            break;
        }
        wait_until(due);
        out.checked_read(ctx, &mut tracer, "client.query", process, q, || {
            client
                .object_id(q.object)
                .query(q.key)
                .map_err(|e| e.to_string())
        });
    }
    tracer.close();
    out.spans = tracer.into_spans();
    out
}

/// `ingest`'s verification sweep once the writers are quiet:
/// closed-loop point queries over every key in turn, across the roster
/// rotation, until the deadline.
fn sweep_loop(ctx: &Ctx<'_>, client: &mut Client) -> GenOut {
    let mut out = GenOut::default();
    let mut tracer = Tracer::new(ctx.start, ctx.traced);
    tracer.open("gen.sweep", 0);
    let keys = Workload::Ingest.keys().keys as u64;
    let mut i = 0u64;
    while Instant::now() < ctx.deadline {
        // Closed loop: each query is due when it is sent.
        let q = ScheduledQuery {
            due_ns: ctx.start.elapsed().as_nanos() as u64,
            object: gen::pick_object(i),
            key: i % keys,
        };
        i += 1;
        out.checked_read(ctx, &mut tracer, "client.query", 0, &q, || {
            client
                .object_id(q.object)
                .query(q.key)
                .map_err(|e| e.to_string())
        });
    }
    tracer.close();
    out.spans = tracer.into_spans();
    out
}

/// The replicated generator: closed-loop group batches, with a merged
/// read issued whenever one is due on the open-loop schedule.
fn replicated_loop(
    ctx: &Ctx<'_>,
    group: &mut ReplicaGroup,
    pool: &[Frame],
    schedule: &[ScheduledQuery],
) -> GenOut {
    let mut out = GenOut::default();
    let mut tracer = Tracer::new(ctx.start, ctx.traced);
    tracer.open("gen.replica", 0);
    let ledger = ctx.books.ledger.writer(0);
    let history = ctx.books.history.as_ref();
    let (mut i, mut r) = (1usize, 0usize);
    loop {
        let now = Instant::now();
        if now >= ctx.deadline {
            break;
        }
        if let Some(q) = schedule.get(r) {
            let due = ctx.start + Duration::from_nanos(q.due_ns);
            if now >= due {
                r += 1;
                out.checked_read(ctx, &mut tracer, "replica.query", 0, q, || {
                    group
                        .query(q.object, q.key)
                        .map(|read| read.envelope)
                        .map_err(|e| e.to_string())
                });
                continue;
            }
        }
        let frame = &pool[i % pool.len()];
        i += 1;
        out.attempted += 1;
        let (t0, t1) = match send_booked(frame, ledger, history, 0, group_batch(group)) {
            Ok(times) => times,
            Err(e) => {
                out.fail(format!("group batch: {e}"));
                break;
            }
        };
        out.acked(&tracer, frame, t0, t1);
        tracer.record("replica.batch", i as u64, t0, t1);
    }
    out.stream_frames = vec![out.frames];
    tracer.close();
    out.spans = tracer.into_spans();
    out
}

/// Server thread-name prefixes: all server threads, then the
/// connection, reactor and accept groups.
pub const SERVER_GROUPS: [&str; 4] = ["ivl-", "ivl-conn-", "ivl-reactor-", "ivl-accept"];

/// One sub-window's figures beside the host probe around it.
#[derive(Clone, Debug, PartialEq)]
pub struct SubWindow {
    /// The CPU the rig and its probes ran on.
    pub cpu: usize,
    /// Median probe round trip, ns (both probes' samples).
    pub probe_ns: f64,
    /// Acknowledged items per second of the window.
    pub updates_per_s: f64,
    /// Batch latency p50, ns.
    pub batch_ns: f64,
    /// Read latency p50 from the due time, ns.
    pub read_ns: f64,
    /// Read latency p50 from the send, ns.
    pub service_ns: f64,
    /// Process CPU per op (item or window read) over the window, ns
    /// (`None` without `/proc`).
    pub cpu_ns_per_op: Option<f64>,
}

impl SubWindow {
    fn of(cpu: usize, probe_ns: f64, o: &Outcome) -> SubWindow {
        SubWindow {
            cpu,
            probe_ns,
            updates_per_s: o.items as f64 / o.window_s,
            batch_ns: o.batch_ns.quantile(0.5),
            read_ns: o.read_ns.quantile(0.5),
            service_ns: o.service_ns.quantile(0.5),
            cpu_ns_per_op: o
                .cpu_ns
                .map(|(user, sys)| (user + sys) as f64 / (o.items + o.window_reads) as f64),
        }
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up times of every trial in this process, seconds.
    pub setup_s: Vec<f64>,
    /// Median set-up time of each process that timed set-ups (this
    /// one first, then the helpers), seconds.
    pub setup_medians: Vec<f64>,
    /// Measured window length, seconds.
    pub window_s: f64,
    /// Batch latencies (send to ack), ns.
    pub batch_ns: Hist,
    /// Traced runs: batch latencies of the periods without and with
    /// spans, ns.
    pub batch_split: [Hist; 2],
    /// Read latencies from the due time, ns.
    pub read_ns: Hist,
    /// Read latencies from the actual send, ns.
    pub service_ns: Hist,
    /// How late the open-loop generator issued each read, ns.
    pub lateness_ns: Hist,
    /// Acknowledged frames in the window.
    pub frames: u64,
    /// Acknowledged update items in the window.
    pub items: u64,
    /// Answered reads (window, plus the `ingest` sweep).
    pub reads: u64,
    /// Reads answered inside the window.
    pub window_reads: u64,
    /// Ops attempted / failed (refusals included).
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Why the run is wrong, if it is.
    pub errors: Vec<String>,
    /// Answer checks.
    pub checks: Checks,
    /// Whole-process CPU over the window, `(user, sys)` ns.
    pub cpu_ns: Option<(u64, u64)>,
    /// Server threads' counters over the window: all of them, and the
    /// `ivl-conn-*`, `ivl-reactor-*` and `ivl-accept` groups.
    pub server_proc: Option<[GroupDelta; 4]>,
    /// The generator threads' own counters over the window.
    pub client_proc: Option<GroupDelta>,
    /// Server counters over the window, summed across servers.
    pub stats: StatsReport,
    /// Client wire bytes `(out, in)` over the window.
    pub wire: (u64, u64),
    /// Merged-read delta accounting (`replicated`).
    pub delta: Option<DeltaStats>,
    /// Replica connection failures (`replicated`).
    pub replica_failures: u64,
    /// Spans (traced runs).
    pub spans: Vec<Span>,
    /// Client-side counter history (traced runs).
    pub history: Option<CounterHistory>,
    /// The frames sent in the window, in order (up to one pool).
    pub sent_frames: Vec<Frame>,
    /// Frames per read answered in the window (all frames when the
    /// window has no reads, as in `ingest`).
    pub frames_per_read: usize,
    /// Peak resident set the run added above the benchmark's own
    /// inputs and ledger, KiB.
    pub peak_rss_kib: Option<u64>,
    /// Each sub-window's figures and host probe, in run order.
    pub subs: Vec<SubWindow>,
}

impl Outcome {
    /// Folds another sub-window's outcome into this one.
    fn absorb(&mut self, o: Outcome) {
        self.setup_s.extend(o.setup_s);
        self.window_s += o.window_s;
        let [off, on] = &mut self.batch_split;
        for (a, b) in [
            (off, &o.batch_split[0]),
            (on, &o.batch_split[1]),
            (&mut self.batch_ns, &o.batch_ns),
            (&mut self.read_ns, &o.read_ns),
            (&mut self.service_ns, &o.service_ns),
            (&mut self.lateness_ns, &o.lateness_ns),
        ] {
            a.merge(b);
        }
        self.frames += o.frames;
        self.items += o.items;
        self.reads += o.reads;
        self.window_reads += o.window_reads;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.checks.absorb(o.checks);
        self.cpu_ns = self
            .cpu_ns
            .zip(o.cpu_ns)
            .map(|((u0, s0), (u1, s1))| (u0 + u1, s0 + s1));
        self.server_proc = self
            .server_proc
            .take()
            .zip(o.server_proc)
            .map(|(mut a, b)| {
                for (x, y) in a.iter_mut().zip(&b) {
                    x.add(y);
                }
                a
            });
        self.client_proc = self
            .client_proc
            .take()
            .zip(o.client_proc)
            .map(|(mut a, b)| {
                a.add(&b);
                a
            });
        add_stats(&mut self.stats, &o.stats);
        self.wire = (self.wire.0 + o.wire.0, self.wire.1 + o.wire.1);
        self.delta = self.delta.zip(o.delta).map(|(a, b)| DeltaStats {
            reads: a.reads + b.reads,
            unchanged: a.unchanged + b.unchanged,
            deltas: a.deltas + b.deltas,
            fulls: a.fulls + b.fulls,
            bytes_out: a.bytes_out + b.bytes_out,
            bytes_in: a.bytes_in + b.bytes_in,
        });
        self.replica_failures += o.replica_failures;
        self.subs.extend(o.subs);
    }
}

/// Adds `s`'s counters into `total`; the gauge and the log2 quantiles
/// take the larger value.
fn add_stats(total: &mut StatsReport, s: &StatsReport) {
    total.updates += s.updates;
    total.queries += s.queries;
    total.batches += s.batches;
    total.frames += s.frames;
    total.wakeups += s.wakeups;
    total.busy_rejections += s.busy_rejections;
    total.ready_peak = total.ready_peak.max(s.ready_peak);
    total.update_p50_ns = total.update_p50_ns.max(s.update_p50_ns);
    total.query_p50_ns = total.query_p50_ns.max(s.query_p50_ns);
    if total.objects.is_empty() {
        total.objects = s.objects.clone();
    } else {
        for (t, o) in total.objects.iter_mut().zip(&s.objects) {
            t.updates += o.updates;
            t.queries += o.queries;
            t.observed += o.observed;
        }
    }
}

fn sum_stats(servers: &[ServerHandle]) -> StatsReport {
    let mut total = StatsReport::default();
    for s in servers {
        add_stats(&mut total, &s.stats());
    }
    total
}

fn stats_delta(before: &StatsReport, after: &StatsReport) -> StatsReport {
    StatsReport {
        updates: after.updates - before.updates,
        queries: after.queries - before.queries,
        batches: after.batches - before.batches,
        frames: after.frames - before.frames,
        wakeups: after.wakeups - before.wakeups,
        busy_rejections: after.busy_rejections - before.busy_rejections,
        ..after.clone()
    }
}

/// Cross-checks the servers' own counters against the books: every
/// acknowledged item applied once, every object's observed weight
/// equal to what the generators completed.
fn check_counts(
    servers: &[ServerHandle],
    books: &Books,
    sent: &[u64; 3],
    errors: &mut Vec<String>,
) {
    let stats = sum_stats(servers);
    let total: u64 = sent.iter().sum();
    if stats.updates != total {
        errors.push(format!(
            "servers counted {} updates, generators sent {total}",
            stats.updates
        ));
    }
    for (id, row) in stats.objects.iter().enumerate().take(ROSTER.len()) {
        let completed = books.ledger.completed(id as u32);
        if row.updates != sent[id] || row.observed != completed {
            errors.push(format!(
                "object {id}: servers counted {} items / {} weight, generators sent {} / {completed}",
                row.updates, row.observed, sent[id]
            ));
        }
    }
}

/// Items sent per object: `pool`'s frame 0 at set-up, then
/// `frames_after_first` frames from frame 1 on (cycled).
fn items_per_object(pool: &[Frame], frames_after_first: u64, acc: &mut [u64; 3]) {
    acc[pool[0].object as usize] += pool[0].items.len() as u64;
    for i in 1..=frames_after_first as usize {
        let f = &pool[i % pool.len()];
        acc[f.object as usize] += f.items.len() as u64;
    }
}

/// Runs one workload: [`SUB_RUNS`] sub-windows on fresh rigs, merged
/// (one window when `traced`, which adds spans and the client-side
/// history). Sub-window `k` runs pinned to `cpus[k % cpus.len()]`.
///
/// The inputs and the ledger are built once, before the peak resident
/// set is reset, so `peak_rss_kib` is what the servers, clients and
/// windows add on top of the benchmark's own data. The ledger is
/// allocated after the inputs, so it takes the memory the key
/// generators' tables freed rather than leaving it for the program.
pub fn run(p: &Params, traced: bool, cpus: &[usize]) -> Result<Outcome, String> {
    let subs = if traced { 1 } else { SUB_RUNS };
    let sub = Params {
        seconds: p.seconds / subs as f64,
        ..p.clone()
    };
    let pools = sub.pools();
    let schedule = sub.schedule();
    let mut books = Books {
        ledger: Ledger::new(p.workload.writers(), p.workload.keys().keys),
        history: None,
    };
    // The probe's request is the size of a batch frame of this run.
    let mut request = Vec::new();
    Request::Batch {
        object: pools[0][1].object,
        items: pools[0][1].items.clone(),
    }
    .encode(&mut request);
    let mut reply = Vec::new();
    Response::Ack { applied: 0 }.encode(&mut reply);
    let probe =
        || probe::round_trips(&request, reply.len(), PROBE).map_err(|e| format!("host probe: {e}"));
    let baseline = procfs::reset_peak_rss();
    let mut out = Outcome::default();
    for k in 0..subs {
        let cpu = cpus[k % cpus.len()];
        pin::pin_current_thread(cpu).map_err(|e| format!("cannot pin to cpu {cpu}: {e}"))?;
        let (mut o, rtt) = run_once(&sub, traced, &pools, &schedule, &mut books, &probe)?;
        o.subs = vec![SubWindow::of(cpu, rtt.quantile(0.5), &o)];
        if k == 0 {
            out = o;
        } else {
            out.absorb(o);
        }
    }
    out.peak_rss_kib = baseline
        .zip(procfs::peak_rss_kib())
        .map(|(base, peak)| peak.saturating_sub(base));
    out.setup_medians = vec![median_f64(&out.setup_s)];
    if !traced {
        for j in 0..SETUP_PROCESSES {
            let cpu = cpus[j % cpus.len()];
            pin::pin_current_thread(cpu).map_err(|e| format!("cannot pin to cpu {cpu}: {e}"))?;
            let times = helper_setups(p)?;
            out.setup_s.extend(&times);
            out.setup_medians.push(median_f64(&times));
        }
    }
    Ok(out)
}

/// The flag that makes the benchmark binary a set-up helper.
pub const HELPER_FLAG: &str = "--setup-helper";

/// Times [`HELPER_SETUPS`] set-ups of `p`'s workload in this process
/// (the helper's side): fresh inputs and books, then one rig after
/// another, each joined before the next.
pub fn setup_times(p: &Params) -> Result<Vec<f64>, String> {
    let pools = p.pools();
    let mut books = Books {
        ledger: Ledger::new(p.workload.writers(), p.workload.keys().keys),
        history: None,
    };
    let mut times = Vec::new();
    for _ in 0..HELPER_SETUPS {
        timed_setup(p, &pools, &mut books, false, &mut times)?.join();
    }
    Ok(times)
}

/// Runs this benchmark binary as a set-up helper for `p`'s workload,
/// on the calling thread's CPU, waits for it to end, and returns the
/// set-up times it printed.
fn helper_setups(p: &Params) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &p.workload.to_string()])
        .args(["--seed", &p.seed.to_string()])
        .args([HELPER_FLAG, "1"])
        .output()
        .map_err(|e| format!("set-up helper: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let times = stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup-times "))
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up helper failed ({}): {stdout}", out.status))?;
    times
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|e| format!("set-up helper output {t:?}: {e}"))
        })
        .collect()
}

/// One rig, one window: timed set-ups, the measured window, the
/// checks. `probe` runs right before the rig boots and right after it
/// is joined, with no rig up; both probes' round trips are returned
/// beside the outcome.
fn run_once(
    p: &Params,
    traced: bool,
    pools: &[Vec<Frame>],
    schedule: &[ScheduledQuery],
    books: &mut Books,
    probe: &dyn Fn() -> Result<Hist, String>,
) -> Result<(Outcome, Hist), String> {
    let w = p.workload;
    let mut out = Outcome::default();
    for _ in 1..SETUP_TRIALS {
        timed_setup(p, pools, books, false, &mut out.setup_s)?.join();
    }
    let mut rtt = probe()?;
    let mut rig = timed_setup(p, pools, books, traced, &mut out.setup_s)?;

    let stats0 = sum_stats(&rig.servers);
    let threads0 = procfs::sample_threads();
    let cpu0 = procfs::process_cpu();
    let start = Instant::now();
    let ctx = Ctx {
        books: &*books,
        start,
        deadline: start + Duration::from_secs_f64(p.seconds),
        traced,
    };
    let mut gen = GenOut::default();
    let wire0: (u64, u64);
    match w {
        Workload::Ingest | Workload::Mixed => {
            wire0 = wire_total(&rig);
            let outs = thread::scope(|s| {
                let mut handles = Vec::new();
                for (i, client) in rig.ingest.iter_mut().enumerate() {
                    let (ctx, pool) = (&ctx, &pools[i]);
                    handles.push(
                        thread::Builder::new()
                            .name(format!("pb-ingest-{i}"))
                            .spawn_scoped(s, move || measured(|| ingest_loop(ctx, client, pool, i)))
                            .expect("spawn ingest generator"),
                    );
                }
                if let Some(client) = rig.query.as_mut() {
                    let (ctx, schedule) = (&ctx, schedule);
                    let process = w.writers() as u32;
                    handles.push(
                        thread::Builder::new()
                            .name("pb-query".into())
                            .spawn_scoped(s, move || {
                                measured(|| query_loop(ctx, client, schedule, process))
                            })
                            .expect("spawn query generator"),
                    );
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator thread"))
                    .collect::<Vec<_>>()
            });
            for o in outs {
                gen.absorb(o);
            }
        }
        Workload::Replicated => {
            wire0 = (0, 0);
            let group = rig.group.as_mut().expect("replicated rig has a group");
            let (ctx, pool, schedule) = (&ctx, &pools[0], schedule);
            let o = thread::scope(|s| {
                thread::Builder::new()
                    .name("pb-replica".into())
                    .spawn_scoped(s, move || {
                        measured(|| replicated_loop(ctx, group, pool, schedule))
                    })
                    .expect("spawn replicated generator")
                    .join()
                    .expect("generator thread")
            });
            gen.absorb(o);
        }
    }
    out.window_s = start.elapsed().as_secs_f64();
    let cpu1 = procfs::process_cpu();
    let threads1 = procfs::sample_threads();
    out.stats = stats_delta(&stats0, &sum_stats(&rig.servers));
    out.cpu_ns = cpu0.zip(cpu1).map(|((u0, s0), (u1, s1))| {
        (
            (u1 - u0) * procfs::NS_PER_TICK,
            (s1 - s0) * procfs::NS_PER_TICK,
        )
    });
    out.server_proc = threads0.zip(threads1).map(|(before, after)| {
        SERVER_GROUPS.map(|prefix| procfs::group_delta(&before, &after, &[prefix]))
    });
    out.client_proc = gen.proc.take();
    out.window_reads = gen.reads;

    // Wire bytes: the direct clients count their own; the group's
    // writes are re-encoded from the frames it routed.
    let wire1 = wire_total(&rig);
    out.wire = (wire1.0 - wire0.0, wire1.1 - wire0.1);
    if let Some(group) = rig.group.as_ref() {
        let d = group.delta_stats();
        let (mut bytes_out, mut bytes_in) = (d.bytes_out, d.bytes_in);
        let mut buf = Vec::new();
        for i in 1..=gen.frames as usize {
            let f = &pools[0][i % pools[0].len()];
            let mut routed: Vec<Vec<(u64, u64)>> = vec![Vec::new(); group.len()];
            for &(k, wt) in &f.items {
                routed[group.route(k)].push((k, wt));
            }
            for sub in routed.into_iter().filter(|s| !s.is_empty()) {
                buf.clear();
                Request::Batch {
                    object: f.object,
                    items: sub,
                }
                .encode(&mut buf);
                bytes_out += buf.len() as u64;
                buf.clear();
                Response::Ack { applied: 0 }.encode(&mut buf);
                bytes_in += buf.len() as u64;
            }
        }
        out.wire = (bytes_out, bytes_in);
        out.delta = Some(d);
        out.replica_failures = group.health().iter().map(|h| h.failures).sum();
    }
    out.frames_per_read = (gen.frames as usize / (gen.reads as usize).max(1)).max(1);

    // The ingest workload's reads: a verification sweep of every key
    // once the writers are quiet.
    if w == Workload::Ingest {
        let start = Instant::now();
        let sweep_ctx = Ctx {
            books: &*books,
            start,
            deadline: start + Duration::from_secs_f64(SWEEP_SECONDS),
            traced,
        };
        gen.absorb(sweep_loop(&sweep_ctx, &mut rig.ingest[0]));
    }

    let mut sent = [0u64; 3];
    for (pool, &n) in pools.iter().zip(&gen.stream_frames) {
        items_per_object(pool, n, &mut sent);
    }
    check_counts(&rig.servers, books, &sent, &mut gen.errors);

    // Frames for the replay, in send order (stream 0 first).
    out.sent_frames = pools[0]
        .iter()
        .cycle()
        .skip(1)
        .take((gen.frames as usize).min(pools[0].len()))
        .cloned()
        .collect();

    rig.join();
    rtt.merge(&probe()?);
    out.batch_ns = gen.batch_ns;
    out.batch_split = gen.batch_split;
    out.read_ns = gen.read_ns;
    out.service_ns = gen.service_ns;
    out.lateness_ns = gen.lateness_ns;
    out.frames = gen.frames;
    out.items = gen.items;
    out.reads = gen.reads;
    out.attempted = gen.attempted;
    out.failed = gen.failed;
    out.errors = gen.errors;
    out.checks = gen.checks;
    if out.checks.det_misses > 0 && out.errors.is_empty() {
        out.errors.push("deterministic envelope miss".into());
    }
    out.spans = gen.spans;
    out.history = books
        .history
        .take()
        .map(|h| h.0.into_inner().expect("history lock").finish());
    for _ in 0..SETUP_TRIALS {
        timed_setup(p, pools, books, false, &mut out.setup_s)?.join();
    }
    Ok((out, rtt))
}

/// Boots a rig on fresh books (with a history if `traced`), appending
/// the set-up time to `times`.
fn timed_setup(
    p: &Params,
    pools: &[Vec<Frame>],
    books: &mut Books,
    traced: bool,
    times: &mut Vec<f64>,
) -> Result<Rig, String> {
    books.ledger.reset();
    books.history = traced.then(HistoryRec::default);
    let t0 = Instant::now();
    let rig = boot(p, pools, books)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(rig)
}

fn wire_total(rig: &Rig) -> (u64, u64) {
    rig.ingest
        .iter()
        .chain(rig.query.iter())
        .map(Client::wire_bytes)
        .fold((0, 0), |(o, i), (a, b)| (o + a, i + b))
}
