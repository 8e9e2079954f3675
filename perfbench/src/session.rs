//! One session of the product path: set-up, the timed window, drain and
//! the post-window security checks.
//!
//! Two application threads drive the system over loopback sockets:
//!
//! * the **publisher** thread encrypts each event with
//!   `Publisher::publish` and sends it with `ReactorClient::publish`
//!   (closed loop with a fixed in-flight window, or open loop on a
//!   Poisson schedule);
//! * the **gateway** thread owns one subscribing connection holding every
//!   principal's `SecureFilter`, receives with
//!   `ReactorClient::recv_timeout` and decrypts each event once for every
//!   principal the oracle says must receive it. `ReactorClient` is not
//!   `Sync`, so the gateway thread also runs the subscribe side of the
//!   churn schedule (joins, leaves, the epoch rollover) at their due times.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

use psguard::{DecryptError, PsGuard, PsGuardConfig, Publisher, Subscriber};
use psguard_crypto::Token;
use psguard_model::{Event, EventId, Filter};
use psguard_routing::{SecureEvent, SecureFilter};
use psguard_siena::{
    spawn_broker_durable, spawn_broker_with, ClientReactor, Cursor, FramePoolStats, LogConfig,
    ReactorClient, ResumeOutcome, TcpBroker, TcpConfig, TcpStats,
};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

use crate::gen::{fresh_fence, payload_into, topic_name, ChurnOp, Inputs, Load, Rng};
use crate::stats::procfs;
use crate::trace::{EventTimes, GatewayTimes};

/// Timeout for any single acknowledged call; hitting it counts a failure.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Gateway poll granularity when nothing is due.
const IDLE_POLL: Duration = Duration::from_millis(20);
/// After the last publish, how long the gateway waits without a frame
/// before it stops waiting for stragglers.
const DRAIN_IDLE: Duration = Duration::from_secs(2);
/// Tolerance around a join or leave inside which a delivery is neither
/// required nor unexpected (frames from two connections are not ordered
/// against each other).
const MEMBERSHIP_GRACE_NS: u64 = 1_000_000_000;
/// Security-check samples kept per epoch.
const SAMPLES: usize = 32;
/// Published events the traced session keeps for the offline replays.
const KEEP_EVENTS: usize = 4096;

const NEVER: u64 = u64::MAX;

/// The deployment a run's sessions share: KDC, schema, per-topic tokens
/// and every principal's plaintext filter.
pub struct Deployment {
    pub ps: PsGuard,
    pub tokens: Vec<Token>,
    pub filters: Vec<Filter>,
}

impl Deployment {
    pub fn new(inputs: &Inputs) -> Self {
        let master = format!("perfbench-master-{}", inputs.seed);
        let ps = PsGuard::new(
            master.as_bytes(),
            inputs.params.schema(),
            PsGuardConfig::default(),
        );
        let tokens = (0..inputs.params.topics as u32)
            .map(|t| ps.routing_token(&topic_name(t)))
            .collect();
        let filters = inputs.interests.iter().map(|i| i.filter()).collect();
        Deployment {
            ps,
            tokens,
            filters,
        }
    }
}

/// Everything one session measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Events fully delivered and decrypted per second: the median over
    /// the whole seconds of the window.
    pub throughput_eps: f64,
    /// Whole seconds the throughput median is taken over.
    pub throughput_windows: usize,
    /// Publish-due → last required decrypt, in ms, in publish order.
    pub latency_ms: Vec<f64>,
    pub join_ms: Vec<f64>,
    pub regrant_s: Option<f64>,
    pub catchup_s: Option<f64>,
    pub peak_rss_mb: f64,
    pub published: u64,
    pub completed: u64,
    pub required_deliveries: u64,
    pub missing: u64,
    pub unexpected: u64,
    pub failed_calls: u64,
    pub attempted_calls: u64,
    pub security_checks: u64,
    pub epoch_mismatch_retries: u64,
    pub cpu_ms: f64,
    pub ctx_switches: u64,
    /// Share of the machine's CPU time stolen by the hypervisor during
    /// the window.
    pub steal_frac: f64,
    pub broker: TcpStats,
    pub broker_pool: FramePoolStats,
    pub frames_encoded_window: u64,
    pub publisher_client: TcpStats,
    pub gateway_client: TcpStats,
    pub grant_us: Vec<f64>,
    pub grant_hash_ops: u64,
    pub publisher_hash_ops: u64,
    pub publisher_cache: (u64, u64),
    pub subscriber_hash_ops: u64,
    pub subscriber_cache: (u64, u64),
    pub decrypts: u64,
    pub events: Option<EventTimes>,
    pub gateway: Option<GatewayTimes>,
    pub kept: Vec<SecureEvent>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.published + self.required_deliveries + self.attempted_calls
    }

    pub fn failed(&self) -> u64 {
        self.missing + self.unexpected + self.failed_calls
    }
}

/// A set-up system: broker, both connections and every credential.
struct System {
    publisher_client: ReactorClient<SecureFilter>,
    gateway_client: ReactorClient<SecureFilter>,
    reactor: ClientReactor<SecureFilter>,
    broker: TcpBroker,
    log_dir: Option<PathBuf>,
    publisher: Publisher,
    subs: Vec<Option<Subscriber>>,
}

impl System {
    fn teardown(self) {
        let System {
            publisher_client,
            gateway_client,
            reactor,
            broker,
            log_dir,
            ..
        } = self;
        // Broker first: a dispatcher that sees the gateway leave before
        // it sees the shutdown removes every subscription one by one,
        // which at 100k filters takes seconds and is not measured.
        broker.shutdown();
        drop(publisher_client);
        drop(gateway_client);
        drop(reactor);
        if let Some(dir) = log_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Grants, broker spawn, connect, subscribe burst and fence ack.
fn set_up(
    inputs: &Inputs,
    dep: &Deployment,
    fence: SecureFilter,
    log_dir: Option<PathBuf>,
    grant_us: Option<&mut Vec<f64>>,
    grant_hash_ops: &mut u64,
) -> Result<System, String> {
    let ps = &dep.ps;
    let mut publisher = ps.publisher("publisher");
    for t in 0..inputs.params.topics as u32 {
        ps.authorize_publisher(&mut publisher, &topic_name(t), 0);
    }
    let mut subs: Vec<Option<Subscriber>> = Vec::with_capacity(inputs.interests.len());
    let mut timings = grant_us;
    for p in 0..inputs.interests.len() {
        if p >= inputs.params.principals {
            subs.push(None);
            continue;
        }
        let mut sub = ps.subscriber(format!("p{p}"));
        let t = Instant::now();
        let ops = ps
            .authorize_subscriber(&mut sub, &dep.filters[p], 0)
            .map_err(|e| format!("grant for principal {p} failed: {e}"))?;
        if let Some(v) = timings.as_deref_mut() {
            v.push(t.elapsed().as_secs_f64() * 1e6);
        }
        *grant_hash_ops += ops.total();
        subs.push(Some(sub));
    }

    let broker = match &log_dir {
        Some(dir) => {
            spawn_broker_durable::<SecureFilter>(
                "127.0.0.1:0",
                None,
                TcpConfig::default(),
                LogConfig::new(dir),
            )
            .map_err(|e| format!("durable broker spawn failed: {e}"))?
            .0
        }
        None => spawn_broker_with::<SecureFilter>("127.0.0.1:0", None, TcpConfig::default())
            .map_err(|e| format!("broker spawn failed: {e}"))?,
    };
    let reactor = ClientReactor::<SecureFilter>::new();
    let publisher_client = reactor
        .connect(broker.addr())
        .map_err(|e| format!("publisher connect failed: {e}"))?;
    let gateway_client = reactor
        .connect(broker.addr())
        .map_err(|e| format!("gateway connect failed: {e}"))?;
    for sub in subs.iter().flatten() {
        for sf in sub.secure_filters() {
            gateway_client
                .subscribe(sf)
                .map_err(|e| format!("subscribe failed: {e}"))?;
        }
    }
    gateway_client
        .subscribe_acked(fence, CALL_TIMEOUT)
        .map_err(|e| format!("fence ack failed: {e}"))?;
    Ok(System {
        publisher_client,
        gateway_client,
        reactor,
        broker,
        log_dir,
        publisher,
        subs,
    })
}

/// State the two threads share during the window.
struct Shared {
    t0: Instant,
    /// Publish start of event `seq` in ns since `t0`, plus one (0 = not
    /// yet published).
    pub_ns: Vec<AtomicU64>,
    /// Events published once the publisher stops; `NEVER` before.
    stop_seq: AtomicU64,
    /// When the publisher stopped, in ns since `t0`.
    stop_ns: AtomicU64,
    /// Rollover: the gateway has re-granted every live principal.
    epoch_ready: AtomicBool,
    /// First event published under epoch 1.
    switch_seq: AtomicU64,
    /// Durable: first gap event, first live event after the gap.
    gap_start: AtomicU64,
    gap_end: AtomicU64,
    disconnected: AtomicBool,
    caught_up: AtomicBool,
    failed: AtomicBool,
}

impl Shared {
    fn ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Prints how long a harness phase took, to standard error.
fn phase(name: &str, since: Instant) {
    eprintln!("phase {name} {:.3} s", since.elapsed().as_secs_f64());
}

/// Session settings.
pub struct SessionCfg {
    pub setups: usize,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub salt: u64,
}

/// Runs one session: a set-up, the timed window on it, the drain and
/// the checks; then `cfg.setups - 1` further set-ups, each torn down
/// again, for the `setup_s` median. Peak RSS is read before those, so it
/// covers one system.
pub fn run(inputs: &Inputs, dep: &Deployment, cfg: &SessionCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(cfg.setups);
    for k in 0..cfg.setups.max(1) {
        let salt = cfg.salt * 1000 + k as u64;
        let fence = fresh_fence(inputs.secure_filters(&dep.tokens), |j| {
            let token = dep.ps.routing_token(&format!("fence/{salt}/{j}"));
            SecureFilter::from_filter(token, &Filter::for_topic("fence"))
        });
        let log_dir = inputs.params.durable_gap.map(|_| {
            cfg.out_dir
                .join(format!("log-{}-{salt}", std::process::id()))
        });
        if let Some(dir) = &log_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let first = k == 0;
        let mut grant_us = Vec::new();
        let mut grant_ops = 0;
        let t = Instant::now();
        let system = set_up(
            inputs,
            dep,
            fence,
            log_dir,
            (cfg.trace && first).then_some(&mut grant_us),
            &mut grant_ops,
        )?;
        setup_s.push(t.elapsed().as_secs_f64());
        phase("setup", t);
        let t = Instant::now();
        if first {
            out = window(inputs, dep, cfg, system)?;
            out.grant_us = grant_us;
            out.grant_hash_ops = grant_ops;
            out.peak_rss_mb = procfs::peak_rss_mb();
            phase("window+drain+checks+teardown", t);
        } else {
            system.teardown();
            phase("teardown", t);
        }
    }
    out.setup_s = setup_s;
    Ok(out)
}

/// The timed window on a set-up system, its drain and checks, then the
/// teardown.
fn window(
    inputs: &Inputs,
    dep: &Deployment,
    cfg: &SessionCfg,
    system: System,
) -> Result<Outcome, String> {
    let System {
        publisher_client,
        gateway_client,
        reactor,
        broker,
        log_dir,
        publisher,
        subs,
    } = system;
    let n = inputs.len();
    let pool_before = broker.pool_stats();
    let (cpu0, sw0) = procfs::cpu_and_switches();
    let (steal0, total0) = procfs::steal_and_total();
    let shared = Shared {
        t0: Instant::now(),
        pub_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        stop_seq: AtomicU64::new(NEVER),
        stop_ns: AtomicU64::new(NEVER),
        epoch_ready: AtomicBool::new(false),
        switch_seq: AtomicU64::new(NEVER),
        gap_start: AtomicU64::new(NEVER),
        gap_end: AtomicU64::new(NEVER),
        disconnected: AtomicBool::new(false),
        caught_up: AtomicBool::new(inputs.params.durable_gap.is_none()),
        failed: AtomicBool::new(false),
    };
    let (done_tx, done_rx) = channel::<u64>();
    let addr = broker.addr();

    let (pub_res, gw_res) = std::thread::scope(|s| {
        let shared = &shared;
        let p = s.spawn(move || {
            let r = publisher_loop(
                inputs,
                dep,
                cfg,
                shared,
                publisher,
                publisher_client,
                done_rx,
            );
            if r.is_err() {
                shared.failed.store(true, SeqCst);
            }
            r
        });
        let reactor = &reactor;
        let g = s.spawn(move || {
            let r = gateway_loop(
                inputs,
                dep,
                cfg,
                shared,
                subs,
                gateway_client,
                reactor,
                addr,
                done_tx,
            );
            if r.is_err() {
                shared.failed.store(true, SeqCst);
            }
            r
        });
        (
            p.join()
                .map_err(|_| "publisher thread panicked".to_string()),
            g.join().map_err(|_| "gateway thread panicked".to_string()),
        )
    });
    let (cpu1, sw1) = procfs::cpu_and_switches();
    let (steal1, total1) = procfs::steal_and_total();
    phase("threads", shared.t0);
    let pub_out = pub_res??;
    let (mut out, gw_conn) = gw_res??;
    out.steal_frac = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    out.cpu_ms = cpu1 - cpu0;
    out.ctx_switches = sw1.saturating_sub(sw0);
    out.broker = broker.stats();
    out.broker_pool = broker.pool_stats();
    out.frames_encoded_window = out.broker_pool.frames_encoded - pool_before.frames_encoded;
    out.publisher_client = pub_out.client.stats();
    out.published = pub_out.published;
    out.publisher_hash_ops = pub_out.hash_ops;
    out.publisher_cache = pub_out.cache;
    out.events = pub_out.times;
    out.kept = pub_out.kept;

    broker.shutdown();
    drop(pub_out.client);
    drop(gw_conn);
    drop(reactor);
    if let Some(dir) = log_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(out)
}

struct PublisherOut {
    client: ReactorClient<SecureFilter>,
    published: u64,
    hash_ops: u64,
    cache: (u64, u64),
    times: Option<EventTimes>,
    kept: Vec<SecureEvent>,
}

fn build_event(inputs: &Inputs, seq: usize, buf: &mut Vec<u8>) -> Event {
    payload_into(inputs.seed, seq as u64, inputs.params.payload, buf);
    Event::builder(topic_name(inputs.topics[seq]))
        .id(EventId(seq as u64))
        .attr(crate::gen::ATTR, inputs.xs[seq])
        .payload(buf.clone())
        .build()
}

#[allow(clippy::too_many_arguments)]
fn publisher_loop(
    inputs: &Inputs,
    dep: &Deployment,
    cfg: &SessionCfg,
    shared: &Shared,
    mut publisher: Publisher,
    client: ReactorClient<SecureFilter>,
    done_rx: Receiver<u64>,
) -> Result<PublisherOut, String> {
    let ops0 = publisher.ops().total();
    let window_ns = (inputs.seconds * 1e9) as u64;
    let n = inputs.len();
    let mut times = cfg.trace.then(|| EventTimes::with_capacity(n));
    let mut kept = Vec::new();
    let mut buf = Vec::with_capacity(inputs.params.payload);
    let mut epoch = 0u64;
    let mut inflight = 0usize;
    let gap = inputs.params.durable_gap;
    let gap_at_ns = window_ns * 3 / 10;
    let mut seq = 0usize;
    // Gap events are sent back to back, without the window.
    let mut gap_left = 0usize;

    let mut send =
        |seq: usize, due: u64, epoch: u64, publisher: &mut Publisher| -> Result<(), String> {
            let start = shared.ns();
            shared.pub_ns[seq].store(start + 1, SeqCst);
            // Traced: [due, start, built, published, send start, sent].
            let mut st = [due, start, 0, 0, 0, 0];
            let mut stamp = |i: usize| {
                if cfg.trace {
                    st[i] = shared.ns();
                }
            };
            let event = build_event(inputs, seq, &mut buf);
            stamp(2);
            let secure = publisher
                .publish(&event, epoch)
                .map_err(|e| format!("publish of event {seq} failed: {e}"))?;
            stamp(3);
            if cfg.trace && kept.len() < KEEP_EVENTS {
                kept.push(secure.clone());
            }
            stamp(4);
            client
                .publish(secure)
                .map_err(|e| format!("send of event {seq} failed: {e}"))?;
            stamp(5);
            if let Some(t) = times.as_mut() {
                t.push(seq as u64, st);
            }
            Ok(())
        };

    match inputs.params.load {
        Load::Open { .. } => {
            for (seq_i, &due) in inputs.due_ns.iter().enumerate() {
                if shared.failed.load(SeqCst) {
                    break;
                }
                let now = shared.ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                if epoch == 0 && shared.epoch_ready.load(SeqCst) {
                    for t in 0..inputs.params.topics as u32 {
                        dep.ps
                            .authorize_publisher(&mut publisher, &topic_name(t), 1);
                    }
                    epoch = 1;
                    shared.switch_seq.store(seq_i as u64, SeqCst);
                }
                send(seq_i, due, epoch, &mut publisher)?;
                seq = seq_i + 1;
            }
        }
        Load::Closed { window } => loop {
            if shared.failed.load(SeqCst) || seq >= n {
                break;
            }
            let now = shared.ns();
            let gap_pending = gap.is_some() && shared.gap_start.load(SeqCst) == NEVER;
            if now >= window_ns && !gap_pending && shared.caught_up.load(SeqCst) && gap_left == 0 {
                break;
            }
            if gap_left > 0 {
                send(seq, now, epoch, &mut publisher)?;
                seq += 1;
                gap_left -= 1;
                if gap_left == 0 {
                    shared.gap_end.store(seq as u64, SeqCst);
                }
                continue;
            }
            if let (Some(g), true) = (gap, gap_pending && now >= gap_at_ns) {
                // Let every in-flight event finish, then hand the gap
                // start to the gateway and wait until it has dropped.
                while inflight > 0 {
                    recv_done(&done_rx, shared)?;
                    inflight -= 1;
                }
                shared.gap_start.store(seq as u64, SeqCst);
                while !shared.disconnected.load(SeqCst) {
                    if shared.failed.load(SeqCst) {
                        return Err("gateway failed before the gap".into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                gap_left = g.min(n - seq);
                continue;
            }
            while inflight >= window {
                recv_done(&done_rx, shared)?;
                inflight -= 1;
            }
            while done_rx.try_recv().is_ok() {
                inflight = inflight.saturating_sub(1);
            }
            // Closed loop: an event is due once its window slot is free.
            send(seq, shared.ns(), epoch, &mut publisher)?;
            if !inputs.matching(seq).is_empty() {
                inflight += 1;
            }
            seq += 1;
        },
    }
    shared.stop_ns.store(shared.ns(), SeqCst);
    shared.stop_seq.store(seq as u64, SeqCst);
    let cache = publisher.cache_stats();
    Ok(PublisherOut {
        client,
        published: seq as u64,
        hash_ops: publisher.ops().total() - ops0,
        cache: (
            cache.hits + cache.partial_hits,
            cache.hits + cache.partial_hits + cache.misses,
        ),
        times,
        kept,
    })
}

fn recv_done(rx: &Receiver<u64>, shared: &Shared) -> Result<(), String> {
    let deadline = Instant::now() + CALL_TIMEOUT;
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(_) => return Ok(()),
            Err(RecvTimeoutError::Disconnected) => return Err("gateway stopped early".into()),
            Err(RecvTimeoutError::Timeout) => {
                if shared.failed.load(SeqCst) {
                    return Err("gateway failed".into());
                }
                if Instant::now() > deadline {
                    return Err("no completion within the call timeout".into());
                }
            }
        }
    }
}

fn add_stats(a: TcpStats, b: TcpStats) -> TcpStats {
    TcpStats {
        evicted_peers: a.evicted_peers + b.evicted_peers,
        dropped_frames: a.dropped_frames + b.dropped_frames,
        dropped_deliveries: a.dropped_deliveries + b.dropped_deliveries,
        reconnects: a.reconnects + b.reconnects,
        heartbeats_sent: a.heartbeats_sent + b.heartbeats_sent,
        replayed_frames: a.replayed_frames + b.replayed_frames,
        log_append_failures: a.log_append_failures + b.log_append_failures,
        duplicates_suppressed: a.duplicates_suppressed + b.duplicates_suppressed,
    }
}

/// Membership of one principal on the gateway connection, in ns since
/// the window start.
#[derive(Clone, Copy)]
struct Member {
    joined: u64,
    acked: u64,
    left: u64,
}

#[allow(clippy::too_many_arguments)]
fn gateway_loop(
    inputs: &Inputs,
    dep: &Deployment,
    cfg: &SessionCfg,
    shared: &Shared,
    mut subs: Vec<Option<Subscriber>>,
    client: ReactorClient<SecureFilter>,
    reactor: &ClientReactor<SecureFilter>,
    addr: std::net::SocketAddr,
    done_tx: Sender<u64>,
) -> Result<(Outcome, Option<ReactorClient<SecureFilter>>), String> {
    let n = inputs.len();
    let ps = &dep.ps;
    let closed = matches!(inputs.params.load, Load::Closed { .. });
    let mut client = Some(client);
    let mut old_stats = TcpStats::default();
    let ops0: u64 = subs.iter().flatten().map(|s| s.ops().total()).sum();

    let initial = inputs.params.principals;
    let mut members: Vec<Member> = (0..inputs.interests.len())
        .map(|p| {
            if p < initial {
                Member {
                    joined: 0,
                    acked: 0,
                    left: NEVER,
                }
            } else {
                Member {
                    joined: NEVER,
                    acked: NEVER,
                    left: NEVER,
                }
            }
        })
        .collect();
    let mut regranted = vec![false; inputs.interests.len()];
    let mut revoked: Vec<u32> = Vec::new();
    let mut rollover_started = false;

    let mut received = vec![false; n];
    let mut done_ns = vec![0u64; n];
    let mut out = Outcome {
        gateway: cfg.trace.then(GatewayTimes::default),
        ..Outcome::default()
    };
    let mut samples: [Vec<SecureEvent>; 2] = [Vec::new(), Vec::new()];
    let mut sample_rng = Rng::new(inputs.seed ^ 0x5a5a);
    let mut expect = Vec::with_capacity(inputs.params.payload);
    let mut required: Vec<u32> = Vec::new();
    let mut churn = inputs.churn.iter().peekable();
    let mut last_frame = Instant::now();
    let mut catch_up_at: Option<Instant> = None;
    let mut resume_from: Option<Cursor> = None;
    let mut gap_required_left: Option<u64> = None;

    // Required recipients of event `seq` published at `t_pub`.
    let required_of = |seq: usize, t_pub: u64, members: &[Member], req: &mut Vec<u32>| -> bool {
        req.clear();
        let mut possible = false;
        for &p in inputs.matching(seq) {
            let m = members[p as usize];
            if m.acked <= t_pub && t_pub < m.left {
                req.push(p);
            }
            if m.joined != NEVER
                && m.joined <= t_pub.saturating_add(MEMBERSHIP_GRACE_NS)
                && t_pub < m.left.saturating_add(MEMBERSHIP_GRACE_NS)
            {
                possible = true;
            }
        }
        possible || !req.is_empty()
    };

    loop {
        if shared.failed.load(SeqCst) {
            return Err("publisher failed".into());
        }
        // Churn operations that are due.
        let now = shared.ns();
        while let Some(&&(at, op)) = churn.peek() {
            if at > now {
                break;
            }
            churn.next();
            let c = client.as_ref().expect("churn runs on a connected gateway");
            match op {
                ChurnOp::Join(p) => {
                    out.attempted_calls += 1;
                    let t = Instant::now();
                    members[p as usize].joined = shared.ns();
                    let mut sub = ps.subscriber(format!("p{p}"));
                    // A join during the rollover holds both epochs' grants.
                    let switched = shared.switch_seq.load(SeqCst) != NEVER;
                    let epochs: &[u64] = match (rollover_started, switched) {
                        (false, _) => &[0],
                        (true, false) => &[0, 1],
                        (true, true) => &[1],
                    };
                    for &e in epochs {
                        ps.authorize_subscriber(&mut sub, &dep.filters[p as usize], e)
                            .map_err(|err| format!("grant for joiner {p} failed: {err}"))?;
                    }
                    let sf = sub.secure_filters().swap_remove(0);
                    subs[p as usize] = Some(sub);
                    match c.subscribe_acked(sf, CALL_TIMEOUT) {
                        Ok(()) => {
                            members[p as usize].acked = shared.ns();
                            out.join_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        Err(_) => out.failed_calls += 1,
                    }
                }
                ChurnOp::Leave(p) => {
                    out.attempted_calls += 1;
                    members[p as usize].left = shared.ns();
                    if !rollover_started {
                        revoked.push(p);
                    }
                    let sf = subs[p as usize]
                        .as_ref()
                        .expect("a leaver joined first")
                        .secure_filters()
                        .swap_remove(0);
                    if c.unsubscribe(&sf).is_err() {
                        out.failed_calls += 1;
                    }
                }
                ChurnOp::Rollover => {
                    rollover_started = true;
                    let t = Instant::now();
                    let mut live = 0;
                    for p in 0..members.len() {
                        let m = members[p];
                        if m.acked != NEVER && m.left == NEVER {
                            let sub = subs[p].as_mut().expect("live principals hold a subscriber");
                            if sub.subscription_count() == 1 {
                                ps.authorize_subscriber(sub, &dep.filters[p], 1)
                                    .map_err(|err| format!("re-grant for {p} failed: {err}"))?;
                                regranted[p] = true;
                                live += 1;
                            }
                        }
                    }
                    out.regrant_s = Some(t.elapsed().as_secs_f64());
                    out.attempted_calls += live;
                    shared.epoch_ready.store(true, SeqCst);
                }
            }
        }

        // Durable: drop for the gap, then reconnect and catch up.
        if let Some(c) = client.as_ref() {
            let gs = shared.gap_start.load(SeqCst);
            if gs != NEVER && !shared.disconnected.load(SeqCst) {
                // Every pre-gap event is complete (the publisher waited).
                old_stats = add_stats(old_stats, c.stats());
                resume_from = c.cursor();
                client = None;
                shared.disconnected.store(true, SeqCst);
                continue;
            }
        } else {
            let ge = shared.gap_end.load(SeqCst);
            if ge == NEVER {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let gs = shared.gap_start.load(SeqCst) as usize;
            gap_required_left = Some(
                (gs..ge as usize)
                    .filter(|&s| !inputs.matching(s).is_empty())
                    .count() as u64,
            );
            out.attempted_calls += 1;
            let c = reactor
                .connect_resuming(addr, resume_from)
                .map_err(|e| format!("gateway reconnect failed: {e}"))?;
            for sub in subs.iter().flatten() {
                for sf in sub.secure_filters() {
                    c.subscribe(sf)
                        .map_err(|e| format!("re-subscribe failed: {e}"))?;
                }
            }
            c.catch_up().map_err(|e| format!("catch_up failed: {e}"))?;
            catch_up_at = Some(Instant::now());
            client = Some(c);
        }
        let c = client.as_ref().expect("connected here");

        if let Some(t) = catch_up_at {
            if let Some(outcome) = c.recv_resume(Duration::ZERO) {
                out.catchup_s = Some(t.elapsed().as_secs_f64());
                catch_up_at = None;
                if outcome != ResumeOutcome::ContinuedAtCursor {
                    out.failed_calls += 1;
                }
            }
        }

        let timeout = match churn.peek() {
            Some(&&(at, _)) => Duration::from_nanos(at.saturating_sub(shared.ns())).min(IDLE_POLL),
            None if catch_up_at.is_some() => Duration::from_millis(1),
            None => IDLE_POLL,
        };
        let w0 = cfg.trace.then(|| shared.ns());
        let got = c.recv_timeout(timeout);
        let recv_ns = shared.ns();
        if let (Some(w0), Some(t)) = (w0, out.gateway.as_mut()) {
            t.recv_wait_ns += recv_ns - w0;
        }

        match got {
            Some(ev) => {
                last_frame = Instant::now();
                let seq = ev.event.id().0 as usize;
                if seq >= n || received[seq] {
                    out.unexpected += 1;
                    continue;
                }
                let t_pub = shared.pub_ns[seq].load(SeqCst);
                if t_pub == 0 {
                    out.unexpected += 1;
                    continue;
                }
                let t_pub = t_pub - 1;
                received[seq] = true;
                if !required_of(seq, t_pub, &members, &mut required) {
                    out.unexpected += 1;
                }
                payload_into(inputs.seed, seq as u64, inputs.params.payload, &mut expect);
                for &p in &required {
                    let sub = subs[p as usize]
                        .as_mut()
                        .expect("required principals hold a subscriber");
                    let d0 = cfg.trace.then(|| shared.ns());
                    let res = sub.decrypt(&ev);
                    out.decrypts += 1;
                    if let (Some(d0), Some(t)) = (d0, out.gateway.as_mut()) {
                        t.decrypts.push((seq as u64, d0, shared.ns()));
                    }
                    match res {
                        Ok(plain) => {
                            if plain.payload() != expect.as_slice() {
                                return Err(format!(
                                    "VIOLATION: principal {p} decrypted event {seq} to a wrong payload"
                                ));
                            }
                            if regranted[p as usize] && ev.epoch == 1 {
                                out.epoch_mismatch_retries += 1;
                            }
                        }
                        Err(_) => out.failed_calls += 1,
                    }
                }
                out.required_deliveries += required.len() as u64;
                let done = shared.ns();
                if !required.is_empty() {
                    done_ns[seq] = done;
                    out.completed += 1;
                    if let Some(t) = out.gateway.as_mut() {
                        t.delivered.push((seq as u64, recv_ns, done));
                    }
                    let gs = shared.gap_start.load(SeqCst) as usize;
                    let ge = shared.gap_end.load(SeqCst) as usize;
                    let in_gap = gs <= seq && seq < ge;
                    if in_gap {
                        if let Some(left) = gap_required_left.as_mut() {
                            *left = left.saturating_sub(1);
                            if *left == 0 {
                                shared.caught_up.store(true, SeqCst);
                            }
                        }
                    } else if closed {
                        let _ = done_tx.send(seq as u64);
                    }
                    // Seeded sample for the post-window security checks.
                    let bucket = ev.epoch.min(1) as usize;
                    if samples[bucket].len() < SAMPLES && sample_rng.below(64) == 0 {
                        samples[bucket].push(ev);
                    }
                }
            }
            None => {
                let stop = shared.stop_seq.load(SeqCst);
                if stop != NEVER && last_frame.elapsed() >= DRAIN_IDLE {
                    break;
                }
                if stop != NEVER && closed && catch_up_at.is_none() {
                    // Closed loop: stop as soon as everything arrived.
                    let all =
                        (0..stop as usize).all(|s| received[s] || inputs.matching(s).is_empty());
                    if all {
                        break;
                    }
                }
            }
        }
        if shared.stop_seq.load(SeqCst) != NEVER && !closed {
            // Open loop: done once every published event is accounted
            // for and no frame has arrived for a moment.
            if last_frame.elapsed() >= Duration::from_millis(300) {
                let stop = shared.stop_seq.load(SeqCst) as usize;
                let all = (0..stop).all(|s| received[s]);
                if all {
                    break;
                }
            }
        }
    }

    // Missing deliveries and latencies, in publish order.
    let stop = shared.stop_seq.load(SeqCst) as usize;
    let mut per_second = vec![0u64; (shared.stop_ns.load(SeqCst) / 1_000_000_000) as usize];
    for seq in 0..stop {
        let t_pub = shared.pub_ns[seq].load(SeqCst).saturating_sub(1);
        if !received[seq] {
            required_of(seq, t_pub, &members, &mut required);
            out.missing += required.len() as u64;
            out.required_deliveries += required.len() as u64;
            continue;
        }
        if done_ns[seq] == 0 {
            continue;
        }
        if let Some(c) = per_second.get_mut((done_ns[seq] / 1_000_000_000) as usize) {
            *c += 1;
        }
        let due = match inputs.params.load {
            Load::Open { .. } => inputs.due_ns[seq],
            Load::Closed { .. } => t_pub,
        };
        if done_ns[seq] > due {
            out.latency_ms.push((done_ns[seq] - due) as f64 / 1e6);
        }
    }

    // Post-window security checks on the seeded samples.
    let mut checks = 0;
    for ev in samples.iter().flatten() {
        let seq = ev.event.id().0 as usize;
        let topic = inputs.topics[seq];
        let x = inputs.xs[seq];
        // A non-recipient principal on the same topic must fail.
        let outsider = inputs.by_topic[topic as usize].iter().copied().find(|&p| {
            !inputs.interests[p as usize].covers(topic, x) && subs[p as usize].is_some()
        });
        if let Some(p) = outsider {
            let sub = subs[p as usize].as_mut().expect("checked above");
            if sub.decrypt(ev).is_ok() {
                return Err(format!(
                    "VIOLATION: non-recipient principal {p} decrypted event {seq}"
                ));
            }
            checks += 1;
        }
        // A principal revoked at the rollover must see an epoch mismatch.
        if ev.epoch == 1 {
            if let Some(&p) = revoked
                .iter()
                .find(|&&p| inputs.interests[p as usize].topic == topic)
            {
                let sub = subs[p as usize]
                    .as_mut()
                    .expect("revoked principals joined once");
                match sub.decrypt(ev) {
                    Err(DecryptError::EpochMismatch { .. }) => checks += 1,
                    other => {
                        return Err(format!(
                            "VIOLATION: revoked principal {p} decrypting epoch-1 event {seq} gave {other:?}"
                        ))
                    }
                }
            }
        }
    }
    if inputs.params.rollover && samples[1].is_empty() {
        return Err("no epoch-1 event was sampled for the revocation check".into());
    }
    out.security_checks = checks;

    out.gateway_client = match client.as_ref() {
        Some(c) => add_stats(old_stats, c.stats()),
        None => old_stats,
    };
    let rates: Vec<f64> = per_second.iter().map(|&c| c as f64).collect();
    let shown: Vec<String> = per_second.iter().map(u64::to_string).collect();
    println!("completed per second: {}", shown.join(" "));
    out.throughput_eps = crate::stats::median(&rates);
    out.throughput_windows = rates.len();
    let (mut hits, mut lookups) = (0, 0);
    let mut ops = 0;
    for s in subs.iter().flatten() {
        let cs = s.cache_stats();
        hits += cs.hits + cs.partial_hits;
        lookups += cs.hits + cs.partial_hits + cs.misses;
        ops += s.ops().total();
    }
    out.subscriber_hash_ops = ops.saturating_sub(ops0);
    out.subscriber_cache = (hits, lookups);
    if let Some(t) = out.gateway.as_mut() {
        t.end_ns = shared.ns();
    }
    Ok((out, client))
}
