//! End-to-end dissemination throughput: serial broker vs. sharded pipeline.
//!
//! Routes pools of secure (tokenized) events through tables of
//! {100, 1k, 10k, 100k} subscriptions, comparing the serial
//! `Broker::publish` loop (one cloned delivery per recipient) against
//! `ShardedPipeline::publish_batch` with {1, 2, 4, 8} shards (reused
//! scratch, clone-free `BatchDeliveries`, cross-shard parallelism). Both
//! sides probe through the same per-bucket `PrfContext`s, so the ratio
//! measures batching and sharding only. Also microbenchmarks the
//! PRF-verify fast path: one-shot `prf_verify` (re-deriving HMAC pads
//! per probe) vs. a reusable `PrfContext`.
//!
//! Writes machine-readable results to `BENCH_pipeline.json` in the
//! current directory. Pass `--smoke` for a seconds-long CI variant that
//! skips the throughput assertions and writes to `target/bench-smoke/`.

use psguard_bench::support::{assert_floor, measure, write_bench_json, Json, Measured};
use psguard_crypto::{prf, prf_verify, PrfContext, Token};
use psguard_model::{Constraint, Event, Op};
use psguard_routing::{RoutableTag, SecureEvent, SecureFilter};
use psguard_siena::{Broker, Peer, ShardedPipeline};

/// Distinct topics (= live tokens each event is probed against).
const TOPICS: usize = 128;
/// Events per measured pool; larger than the probe-memo capacity so
/// repeated passes keep paying for PRF probes on both paths.
const POOL: usize = 2_048;
/// Events per `publish_batch` call.
const BATCH: usize = 256;
/// Encrypted payload bytes per event.
const PAYLOAD: usize = 1_024;

fn topic_token(t: usize) -> Token {
    prf(b"bench-master", format!("topic{t:03}").as_bytes())
}

/// `n` subscriptions spread over the topics, each with a range
/// constraint about half the events satisfy — a realistic mix of token
/// probing, predicate counting, and high fanout at large `n`.
fn subscriptions(n: usize) -> Vec<(Peer, SecureFilter)> {
    (0..n)
        .map(|i| {
            let filter = SecureFilter {
                token: topic_token(i % TOPICS),
                constraints: vec![Constraint::new("x", Op::Ge((i % 50) as i64))],
            };
            (Peer::Local(i as u32), filter)
        })
        .collect()
}

fn event_pool() -> Vec<SecureEvent> {
    (0..POOL)
        .map(|i| {
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
            SecureEvent {
                tag: RoutableTag::with_nonce(&topic_token(i % TOPICS), nonce),
                event: Event::builder("")
                    .attr("x", (i % 50) as i64)
                    .payload(vec![0xAB; PAYLOAD])
                    .build(),
                iv: [0u8; 16],
                epoch: 0,
                mac: [0u8; 20],
            }
        })
        .collect()
}

/// Events/second over whole pool passes: at least `min_passes` passes
/// and `min_ms` of wall time per cell (one warm-up pass first).
fn measure_pool(min_passes: usize, min_ms: u128, mut run_pass: impl FnMut()) -> Measured {
    let m = measure(1, min_passes, min_ms, |_| run_pass());
    Measured {
        per_sec: m.per_sec * POOL as f64,
        iters: m.iters,
    }
}

struct ShardCell {
    shards: usize,
    eps: f64,
    passes: usize,
    batch_work: u64,
}

struct Row {
    subscriptions: usize,
    serial_eps: f64,
    serial_passes: usize,
    cells: Vec<ShardCell>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Full-mode cells must sample several whole pool passes: a cell that
    // crosses the wall-time floor after a single pass reports whatever
    // scheduling noise that one pass absorbed (observed as a 1.42x
    // outlier between 2.1x neighbors at 10k subscriptions).
    let (sizes, shard_counts, min_passes, min_ms): (&[usize], &[usize], usize, u128) = if smoke {
        (&[100, 1_000], &[1, 2], 1, 10)
    } else {
        (&[100, 1_000, 10_000, 100_000], &[1, 2, 4, 8], 4, 600)
    };

    let pool = event_pool();
    let mut rows = Vec::new();
    for &n in sizes {
        let subs = subscriptions(n);

        let mut broker: Broker<SecureFilter> = Broker::new(true);
        for (peer, filter) in &subs {
            broker.subscribe(*peer, filter.clone());
        }
        let serial = measure_pool(min_passes, min_ms, || {
            for e in &pool {
                std::hint::black_box(broker.publish(Peer::Parent, e.clone()));
            }
        });
        drop(broker);

        let mut cells = Vec::new();
        for &shards in shard_counts {
            let mut pipeline: ShardedPipeline<SecureFilter> =
                ShardedPipeline::with_capacity(true, shards, n);
            for (peer, filter) in &subs {
                pipeline.subscribe(*peer, filter.clone());
            }
            let m = measure_pool(min_passes, min_ms, || {
                for batch in pool.chunks(BATCH) {
                    std::hint::black_box(pipeline.publish_batch(Peer::Parent, batch));
                }
            });
            let batch_work = pipeline.last_batch_work();
            println!(
                "n={n:>6}  shards={shards}  pipeline {:>12.0} ev/s ({} passes)  speedup {:>6.2}x",
                m.per_sec,
                m.iters,
                m.per_sec / serial.per_sec
            );
            cells.push(ShardCell {
                shards,
                eps: m.per_sec,
                passes: m.iters,
                batch_work,
            });
        }
        println!(
            "n={n:>6}  serial   {:>12.0} ev/s ({} passes)",
            serial.per_sec, serial.iters
        );
        rows.push(Row {
            subscriptions: n,
            serial_eps: serial.per_sec,
            serial_passes: serial.iters,
            cells,
        });
    }

    // PRF-verify microbench: the per-probe cost with and without the
    // reusable keyed context, single-threaded.
    let token = topic_token(0);
    let ctx = PrfContext::for_token(&token);
    let probes: Vec<([u8; 16], Token)> = (0..1_024u64)
        .map(|i| {
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&i.to_le_bytes());
            let tag = prf(token.as_bytes(), &nonce);
            (nonce, tag)
        })
        .collect();
    let oneshot = measure(1, 8, min_ms, |_| {
        for (nonce, tag) in &probes {
            std::hint::black_box(prf_verify(&token, nonce, tag));
        }
    });
    let oneshot_vps = oneshot.per_sec * probes.len() as f64;
    let context = measure(1, 8, min_ms, |_| {
        for (nonce, tag) in &probes {
            std::hint::black_box(ctx.verify(nonce, tag));
        }
    });
    let context_vps = context.per_sec * probes.len() as f64;
    let prf_speedup = context_vps / oneshot_vps;
    println!(
        "prf-verify  one-shot {oneshot_vps:>12.0} /s  context {context_vps:>12.0} /s  speedup {prf_speedup:.2}x"
    );

    let doc = Json::obj()
        .field("bench", Json::str("pipeline_scaling"))
        .field("unit", Json::str("events_per_second"))
        .field("topics", Json::Int(TOPICS as u64))
        .field("pool", Json::Int(POOL as u64))
        .field("batch", Json::Int(BATCH as u64))
        .field("payload_bytes", Json::Int(PAYLOAD as u64))
        .field("smoke", Json::Bool(smoke))
        .field(
            "prf_context",
            Json::obj()
                .field("oneshot_vps", Json::f1(oneshot_vps))
                .field("oneshot_passes", Json::Int(oneshot.iters as u64))
                .field("context_vps", Json::f1(context_vps))
                .field("context_passes", Json::Int(context.iters as u64))
                .field("speedup", Json::f2(prf_speedup)),
        )
        .field(
            "sizes",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("subscriptions", Json::Int(r.subscriptions as u64))
                            .field("serial_eps", Json::f1(r.serial_eps))
                            .field("serial_passes", Json::Int(r.serial_passes as u64))
                            .field(
                                "shards",
                                Json::Arr(
                                    r.cells
                                        .iter()
                                        .map(|c| {
                                            Json::obj()
                                                .field("shards", Json::Int(c.shards as u64))
                                                .field("eps", Json::f1(c.eps))
                                                .field("passes", Json::Int(c.passes as u64))
                                                .field("speedup", Json::f2(c.eps / r.serial_eps))
                                                .field("batch_work", Json::Int(c.batch_work))
                                        })
                                        .collect(),
                                ),
                            )
                    })
                    .collect(),
            ),
        );
    write_bench_json("BENCH_pipeline.json", &doc);

    if smoke {
        println!("smoke mode: skipping throughput assertions");
        return;
    }
    let at_100k = rows
        .iter()
        .find(|r| r.subscriptions == 100_000)
        .expect("100k row");
    // Which shard count wins is machine-dependent (on a single-core box
    // anything past one shard is oversharding), so the floor applies to
    // the best cell, not a pinned shard count.
    let speedup = at_100k
        .cells
        .iter()
        .map(|c| c.eps / at_100k.serial_eps)
        .fold(0.0f64, f64::max);
    assert_floor(
        "pipeline (best shard count) vs serial broker at 100k",
        speedup,
        3.0,
    );
    assert_floor("PrfContext vs one-shot prf_verify", prf_speedup, 1.5);
}
