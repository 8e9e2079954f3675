//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use perfbench::gen::{self, Inputs, Load, Params};
use perfbench::session::{self, Deployment, Outcome, SessionCfg};
use perfbench::stats::{chunked_percentile, median, num, percentile, procfs, Metrics};
use perfbench::{layers, trace};

/// Latency samples per chunk for the tail percentile: the least that
/// leaves ten samples beyond p99.
const TAIL_CHUNK: usize = 1000;
/// Where spans, logs and result files go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench_out";
/// Events whose spans the span file keeps (all spans feed the metrics);
/// bounds the file to ~15 MB.
const SPAN_FILE_EVENTS: u64 = 20_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {:?})",
            gen::WORKLOADS
        ));
    }
    Ok(a)
}

/// A percentile under the sample-count rule; smoke runs, too small for
/// the rule, fall back to the sample maximum.
fn pct(v: &[f64], q: f64, smoke: bool, what: &str) -> Result<f64, String> {
    match percentile(v, q) {
        Some(x) => Ok(x),
        None if smoke => Ok(v.iter().copied().fold(f64::NAN, f64::max)),
        None => Err(format!(
            "{what}: {} samples cannot support p{}",
            v.len(),
            q * 100.0
        )),
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (no subprocess, nothing outside the checkout); `unknown` when the
/// checkout is not a git repository.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
    });
    match rev {
        Some(r) if r.len() >= 12 => r[..12].to_string(),
        _ => "unknown".into(),
    }
}

fn stamp(args: &Args, p: &Params, hwm_reset: bool, gen_s: f64) -> String {
    let load = match p.load {
        Load::Closed { window } => format!("closed window {window}"),
        Load::Open { rate } => format!("open {rate} ev/s"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"git_revision\": \"{}\", \"nproc\": {nproc}, \"principals\": {}, \"topics\": {}, \
         \"zipf_s\": {}, \"domain\": {}, \"filter_width\": {}, \"payload_bytes\": {}, \
         \"load\": \"{load}\", \"churn_per_s\": {}, \"rollover\": {}, \"durable_gap\": {}, \
         \"setups\": {}, \"peak_rss_reset\": {hwm_reset}, \"input_gen_s\": {}}}",
        p.name,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        git_revision(),
        p.principals,
        p.topics,
        p.zipf_s,
        p.domain,
        p.width(),
        p.payload,
        p.churn_rate,
        p.rollover,
        p.durable_gap.map_or("null".into(), |g| g.to_string()),
        p.setups,
        num(gen_s),
    )
}

/// The end-to-end metrics of one untraced session, and the workload-
/// specific ones the report prints beside them.
fn e2e(o: &Outcome, smoke: bool) -> Result<(Metrics, Metrics), String> {
    let mut m = Metrics::default();
    m.put("setup_s", median(&o.setup_s), "s", o.setup_s.len());
    m.put(
        "throughput_eps",
        o.throughput_eps,
        "ev/s",
        o.throughput_windows,
    );
    let lat = &o.latency_ms;
    m.put(
        "latency_p50_ms",
        pct(lat, 0.5, smoke, "latency")?,
        "ms",
        lat.len(),
    );
    let p99 = match chunked_percentile(lat, 0.99, TAIL_CHUNK) {
        Some(v) => v,
        None => pct(lat, 0.99, smoke, "latency")?,
    };
    m.put("latency_p99_ms", p99, "ms", lat.len());
    m.put("peak_rss_mb", o.peak_rss_mb, "MB", 1);

    let chunks: Vec<String> = lat
        .chunks(TAIL_CHUNK)
        .filter_map(|c| percentile(c, 0.99))
        .map(|v| format!("{v:.2}"))
        .collect();
    println!(
        "latency p99 per {TAIL_CHUNK} events (ms): {}",
        chunks.join(" ")
    );
    let mut extra = Metrics::default();
    extra.put(
        "failed_frac",
        o.failed() as f64 / o.attempted().max(1) as f64,
        "frac",
        o.attempted() as usize,
    );
    if !o.join_ms.is_empty() {
        extra.put(
            "join_p50_ms",
            pct(&o.join_ms, 0.5, smoke, "join")?,
            "ms",
            o.join_ms.len(),
        );
        // The highest percentile the join sample supports.
        if let Some((q, v)) = [0.99, 0.98, 0.95, 0.9]
            .iter()
            .find_map(|&q| percentile(&o.join_ms, q).map(|v| (q, v)))
        {
            extra.put(
                format!("join_p{}_ms", (q * 100.0) as u32),
                v,
                "ms",
                o.join_ms.len(),
            );
        }
    }
    if let Some(r) = o.regrant_s {
        extra.put("regrant_s", r, "s", 1);
    }
    if let Some(c) = o.catchup_s {
        extra.put("catchup_s", c, "s", 1);
    }
    extra.put("host.cpu_steal_frac", o.steal_frac, "frac", 1);
    extra.put("missing_deliveries", o.missing as f64, "count", 1);
    extra.put("unexpected_deliveries", o.unexpected as f64, "count", 1);
    extra.put("failed_calls", o.failed_calls as f64, "count", 1);
    extra.put("security_checks", o.security_checks as f64, "count", 1);
    extra.put("published", o.published as f64, "count", 1);
    extra.put(
        "siena.reactor.evicted_peers",
        o.broker.evicted_peers as f64,
        "count",
        1,
    );
    extra.put(
        "siena.reactor.dropped_frames",
        o.broker.dropped_frames as f64,
        "count",
        1,
    );
    extra.put(
        "siena.client.reconnects",
        (o.publisher_client.reconnects + o.gateway_client.reconnects) as f64,
        "count",
        1,
    );
    extra.put(
        "siena.client.dropped_deliveries",
        o.gateway_client.dropped_deliveries as f64,
        "count",
        1,
    );
    Ok((m, extra))
}

/// The per-layer metrics of a traced session `t`, with the untraced
/// session `u` for the tracing overhead.
fn per_layer(
    inputs: &Inputs,
    dep: &Deployment,
    u: &Outcome,
    t: &Outcome,
    spans_path: &Path,
    out_dir: &Path,
    smoke: bool,
) -> Result<Metrics, String> {
    let spans = trace::build_spans(
        t.events
            .as_ref()
            .ok_or("traced session kept no publisher spans")?,
        t.gateway
            .as_ref()
            .ok_or("traced session kept no gateway spans")?,
    );
    trace::write_spans(spans_path, &spans, SPAN_FILE_EVENTS)
        .map_err(|e| format!("writing spans: {e}"))?;
    let sum = trace::summarize(&spans);
    let d = |name: &str, scale: f64| -> Vec<f64> {
        sum.durations
            .get(name)
            .map(|v| v.iter().map(|x| x * scale).collect())
            .unwrap_or_default()
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m = Metrics::default();

    let publish = d("psguard.publish", 1.0);
    m.put(
        "psguard.publisher.us_p50",
        pct(&publish, 0.5, smoke, "publish")?,
        "us",
        publish.len(),
    );
    m.put(
        "psguard.publisher.us_p99",
        pct(&publish, 0.99, smoke, "publish")?,
        "us",
        publish.len(),
    );
    m.put(
        "psguard.publisher.hash_ops_per_event",
        ratio(t.publisher_hash_ops, t.published),
        "ops",
        t.published as usize,
    );
    m.put(
        "psguard.publisher.key_cache_hit_ratio",
        ratio(t.publisher_cache.0, t.publisher_cache.1),
        "frac",
        t.publisher_cache.1 as usize,
    );

    let decrypt = d("psguard.decrypt", 1.0);
    m.put(
        "psguard.subscriber.us_p50",
        pct(&decrypt, 0.5, smoke, "decrypt")?,
        "us",
        decrypt.len(),
    );
    m.put(
        "psguard.subscriber.us_p99",
        pct(&decrypt, 0.99, smoke, "decrypt")?,
        "us",
        decrypt.len(),
    );
    m.put(
        "psguard.subscriber.hash_ops_per_decrypt",
        ratio(t.subscriber_hash_ops, t.decrypts),
        "ops",
        t.decrypts as usize,
    );
    m.put(
        "psguard.subscriber.key_cache_hit_ratio",
        ratio(t.subscriber_cache.0, t.subscriber_cache.1),
        "frac",
        t.subscriber_cache.1 as usize,
    );
    m.put(
        "psguard.subscriber.epoch_mismatch_retries",
        t.epoch_mismatch_retries as f64,
        "count",
        1,
    );

    layers::crypto(inputs, &mut m);

    let g = &t.grant_us;
    m.put(
        "keys.kdc.grant_us_p50",
        pct(g, 0.5, smoke, "grant")?,
        "us",
        g.len(),
    );
    m.put(
        "keys.kdc.grant_us_p99",
        pct(g, 0.99, smoke, "grant")?,
        "us",
        g.len(),
    );
    m.put(
        "keys.kdc.hash_ops_per_grant",
        ratio(t.grant_hash_ops, g.len() as u64),
        "ops",
        g.len(),
    );

    let b = layers::broker(inputs, dep, &t.kept);
    m.put(
        "siena.broker.match_us_p50",
        pct(&b.match_us, 0.5, smoke, "match")?,
        "us",
        b.match_us.len(),
    );
    m.put(
        "siena.broker.match_us_p99",
        pct(&b.match_us, 0.99, smoke, "match")?,
        "us",
        b.match_us.len(),
    );
    m.put(
        "siena.broker.match_work_per_event",
        ratio(b.match_work, b.match_us.len() as u64),
        "ops",
        b.match_us.len(),
    );
    m.put(
        "siena.broker.subscribe_us_p99",
        pct(&b.subscribe_us, 0.99, smoke, "subscribe")?,
        "us",
        b.subscribe_us.len(),
    );
    m.put(
        "siena.broker.unsubscribe_us_p99",
        pct(&b.unsubscribe_us, 0.99, smoke, "unsubscribe")?,
        "us",
        b.unsubscribe_us.len(),
    );

    let (enc, dec, bytes) = layers::wire(&t.kept);
    m.put("siena.wire.encode_us", median(&enc), "us", enc.len());
    m.put("siena.wire.decode_us", median(&dec), "us", dec.len());
    m.put("siena.wire.frame_bytes", bytes, "B", enc.len());

    let transit = d("siena.transit", 1e-3);
    m.put(
        "siena.reactor.transit_ms_p50",
        pct(&transit, 0.5, smoke, "transit")?,
        "ms",
        transit.len(),
    );
    m.put(
        "siena.reactor.transit_ms_p99",
        pct(&transit, 0.99, smoke, "transit")?,
        "ms",
        transit.len(),
    );
    m.put(
        "siena.reactor.frames_encoded_per_publish",
        ratio(t.frames_encoded_window, t.published),
        "frames",
        t.published as usize,
    );
    let pool = t.broker_pool;
    m.put(
        "siena.reactor.pool_reuse_ratio",
        ratio(
            pool.reused_buffers,
            pool.reused_buffers + pool.fresh_buffers,
        ),
        "frac",
        pool.frames_encoded as usize,
    );
    m.put(
        "siena.reactor.dropped_frames",
        t.broker.dropped_frames as f64,
        "count",
        1,
    );
    m.put(
        "siena.reactor.evicted_peers",
        t.broker.evicted_peers as f64,
        "count",
        1,
    );

    let client_pub = d("siena.client.publish", 1.0);
    m.put(
        "siena.client.publish_us_p99",
        pct(&client_pub, 0.99, smoke, "client publish")?,
        "us",
        client_pub.len(),
    );
    let gw = t.gateway.as_ref().expect("checked above");
    m.put(
        "siena.client.recv_idle_frac",
        ratio(gw.recv_wait_ns, gw.end_ns),
        "frac",
        1,
    );
    m.put(
        "siena.client.reconnects",
        (t.publisher_client.reconnects + t.gateway_client.reconnects) as f64,
        "count",
        1,
    );
    m.put(
        "siena.client.dropped_deliveries",
        t.gateway_client.dropped_deliveries as f64,
        "count",
        1,
    );

    let (append, replay_rate) = layers::log(
        &t.kept,
        &out_dir.join(format!("log-offline-{}", std::process::id())),
    )?;
    m.put(
        "siena.log.append_us_p50",
        pct(&append, 0.5, smoke, "append")?,
        "us",
        append.len(),
    );
    m.put(
        "siena.log.append_us_p99",
        pct(&append, 0.99, smoke, "append")?,
        "us",
        append.len(),
    );
    m.put("siena.log.replay_records_per_s", replay_rate, "1/s", 3);
    m.put(
        "siena.log.replayed_frames",
        t.broker.replayed_frames as f64,
        "count",
        1,
    );
    m.put(
        "siena.log.duplicates_suppressed",
        t.gateway_client.duplicates_suppressed as f64,
        "count",
        1,
    );

    m.put(
        "process.cpu_ms_per_event",
        t.cpu_ms / t.published.max(1) as f64,
        "ms",
        t.published as usize,
    );
    m.put(
        "process.ctx_switches_per_event",
        ratio(t.ctx_switches, t.published),
        "count",
        t.published as usize,
    );

    let lag = d("bench.gen", 1e-3);
    m.put(
        "bench.gen.lag_ms_p99",
        pct(&lag, 0.99, smoke, "generator lag")?,
        "ms",
        lag.len(),
    );
    let overhead = match inputs.params.load {
        Load::Closed { .. } => (u.throughput_eps - t.throughput_eps) / u.throughput_eps,
        Load::Open { .. } => {
            let (a, b) = (
                pct(&u.latency_ms, 0.5, smoke, "latency")?,
                pct(&t.latency_ms, 0.5, smoke, "latency")?,
            );
            (b - a) / a
        }
    };
    m.put("bench.trace.overhead_frac", overhead, "frac", 2);
    m.put(
        "bench.trace.unattributed_frac",
        sum.unattributed_frac,
        "frac",
        t.completed as usize,
    );

    // The reconciliation the unattributed share summarises: stage
    // medians along the blocking path against the median latency.
    let lat_med = median(&d("event", 1e-3));
    let mut stage_sum = 0.0;
    for s in trace::STAGES {
        let v = d(s, 1e-3);
        let med = if v.is_empty() { 0.0 } else { median(&v) };
        stage_sum += med;
        let self_ms = *sum.self_ns.get(s).unwrap_or(&0) as f64 / 1e6;
        println!(
            "stage {s:<22} median {med:>9.4} ms  self total {self_ms:>10.1} ms  n={}",
            v.len()
        );
    }
    println!("stage sum {stage_sum:.4} ms vs median latency {lat_med:.4} ms (traced)");
    Ok(m)
}

fn print_metrics(kind: &str, m: &Metrics) {
    for x in &m.0 {
        println!(
            "{kind} {:<44} {:>14} {:<6} n={}",
            x.name,
            num(x.value),
            x.unit,
            x.samples
        );
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let params = Params::named(&args.workload, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload {} (one of {:?})",
            args.workload,
            gen::WORKLOADS
        )
    })?;
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;

    let t = Instant::now();
    let inputs = gen::generate(&params, args.seed, args.seconds);
    let dep = Deployment::new(&inputs);
    let gen_s = t.elapsed().as_secs_f64();
    // Peak RSS counts from here: input generation is not the system's.
    let hwm_reset = procfs::reset_peak_rss();
    let stamp = stamp(&args, &params, hwm_reset, gen_s);
    println!("stamp {stamp}");

    let tag = format!("{}-s{}-t{}", params.name, args.seed, u8::from(args.trace));
    let (metrics, extra, attempted, failed) = if !args.trace {
        let cfg = SessionCfg {
            setups: params.setups,
            trace: false,
            out_dir: out_dir.clone(),
            salt: 1,
        };
        let o = session::run(&inputs, &dep, &cfg)?;
        let (m, extra) = e2e(&o, args.smoke)?;
        (m, extra, o.attempted(), o.failed())
    } else {
        let cfg = SessionCfg {
            setups: 1,
            trace: false,
            out_dir: out_dir.clone(),
            salt: 2,
        };
        let u = session::run(&inputs, &dep, &cfg)?;
        let cfg = SessionCfg {
            setups: 1,
            trace: true,
            out_dir: out_dir.clone(),
            salt: 3,
        };
        let tr = session::run(&inputs, &dep, &cfg)?;
        let spans = out_dir.join(format!("spans-{tag}.tsv"));
        let m = per_layer(&inputs, &dep, &u, &tr, &spans, &out_dir, args.smoke)?;
        let (_, extra) = e2e(&tr, args.smoke)?;
        (
            m,
            extra,
            u.attempted() + tr.attempted(),
            u.failed() + tr.failed(),
        )
    };
    let kind = if args.trace { "layer" } else { "e2e" };
    print_metrics(kind, &metrics);
    print_metrics("report", &extra);
    println!("attempted {attempted} failed {failed}");

    let result = format!(
        "{{\"stamp\": {stamp}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}, \"report\": {}}}\n",
        metrics.to_json(true),
        extra.to_json(true)
    );
    std::fs::write(out_dir.join(format!("result-{tag}.json")), result)
        .map_err(|e| format!("writing result: {e}"))?;
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json(false)
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            if e.starts_with("VIOLATION") {
                ExitCode::from(3)
            } else {
                ExitCode::from(2)
            }
        }
    }
}
