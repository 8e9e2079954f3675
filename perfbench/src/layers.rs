//! Offline per-layer replays on the run's own generated inputs and the
//! events the traced session published: crypto primitives at the
//! workload's payload size, a `Broker::<SecureFilter>` on an identical
//! table, the wire codec, and the durable log.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use psguard_crypto::{cbc_decrypt, cbc_encrypt, kh, Aes128};
use psguard_routing::{SecureEvent, SecureFilter};
use psguard_siena::{Broker, EventLog, FramePool, LogConfig, Message, Peer, Wire};

use crate::gen::{payload_into, Inputs, Rng};
use crate::session::Deployment;
use crate::stats::{median, Metrics};

/// Peer ids as the reactor broker numbers them: the publisher connects
/// first, the gateway second.
const PUBLISHER: Peer = Peer::Child(1);
const GATEWAY: Peer = Peer::Child(2);
/// Principals unsubscribed (and re-subscribed) to time removal.
const UNSUBSCRIBES: usize = 2000;

/// Per-call time of `f` in µs: the median over `batches` of `per` calls.
fn time_call(batches: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / per as f64
        })
        .collect();
    median(&v)
}

/// `crypto.*`: AES-CBC both ways and one keyed hash at the payload size.
pub fn crypto(inputs: &Inputs, m: &mut Metrics) {
    let mut pt = Vec::new();
    payload_into(inputs.seed, 0, inputs.params.payload, &mut pt);
    let aes = Aes128::new(&[0x5c; 16]);
    let iv = [7u8; 16];
    let ct = cbc_encrypt(&aes, &iv, &pt);
    let (batches, per) = (25, 200);
    m.put(
        "crypto.cbc_encrypt_us",
        time_call(batches, per, || {
            black_box(cbc_encrypt(black_box(&aes), &iv, black_box(&pt)));
        }),
        "us",
        batches,
    );
    m.put(
        "crypto.cbc_decrypt_us",
        time_call(batches, per, || {
            black_box(cbc_decrypt(black_box(&aes), &iv, black_box(&ct)).ok());
        }),
        "us",
        batches,
    );
    m.put(
        "crypto.kh_us",
        time_call(batches, per, || {
            black_box(kh(black_box(&[3u8; 20]), black_box(&ct)));
        }),
        "us",
        batches,
    );
}

/// Durations, in µs, of each call of a replay.
pub struct BrokerReplay {
    pub subscribe_us: Vec<f64>,
    pub unsubscribe_us: Vec<f64>,
    pub match_us: Vec<f64>,
    pub match_work: u64,
}

/// `siena.broker.*`: the gateway's table rebuilt in a bare broker, then
/// the traced session's events matched against it, then a seeded sample
/// of principals unsubscribed.
pub fn broker(inputs: &Inputs, dep: &Deployment, kept: &[SecureEvent]) -> BrokerReplay {
    let mut b: Broker<SecureFilter> = Broker::new(true);
    let filters: Vec<SecureFilter> = (0..inputs.params.principals)
        .map(|p| {
            let i = inputs.interests[p];
            SecureFilter::from_filter(dep.tokens[i.topic as usize], &dep.filters[p])
        })
        .collect();
    let mut subscribe_us = Vec::with_capacity(filters.len());
    for f in &filters {
        let f = f.clone();
        let t = Instant::now();
        black_box(b.subscribe(GATEWAY, f));
        subscribe_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut match_us = Vec::with_capacity(kept.len());
    let mut match_work = 0;
    for ev in kept {
        let ev = ev.clone();
        let t = Instant::now();
        black_box(b.publish(PUBLISHER, ev));
        match_us.push(t.elapsed().as_secs_f64() * 1e6);
        match_work += b.last_match_work();
    }
    let mut rng = Rng::new(inputs.seed ^ 0x0b0b);
    let mut unsubscribe_us = Vec::with_capacity(UNSUBSCRIBES);
    let mut order: Vec<usize> = (0..filters.len()).collect();
    for k in 0..UNSUBSCRIBES.min(order.len()) {
        let j = k + rng.below((order.len() - k) as u64) as usize;
        order.swap(k, j);
        let f = &filters[order[k]];
        let t = Instant::now();
        black_box(b.unsubscribe(GATEWAY, f));
        unsubscribe_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    BrokerReplay {
        subscribe_us,
        unsubscribe_us,
        match_us,
        match_work,
    }
}

/// `siena.wire.*`: encode each kept event once into a pooled frame and
/// decode it back. Returns `(encode µs, decode µs, mean frame bytes)`.
pub fn wire(kept: &[SecureEvent]) -> (Vec<f64>, Vec<f64>, f64) {
    let pool = FramePool::new();
    let mut enc = Vec::with_capacity(kept.len());
    let mut dec = Vec::with_capacity(kept.len());
    let mut bytes = 0usize;
    for ev in kept {
        let msg: Message<SecureFilter, SecureEvent> = Message::Publish(ev.clone());
        let t = Instant::now();
        let frame = black_box(pool.encode(&msg));
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        bytes += frame.wire_bytes().len();
        let t = Instant::now();
        let back = Message::<SecureFilter, SecureEvent>::from_bytes(frame.payload());
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches!(back, Ok(Message::Publish(ref e)) if e == ev),
            "wire round trip"
        );
    }
    (enc, dec, bytes as f64 / kept.len().max(1) as f64)
}

/// `siena.log.*`: append each kept event's encoding to a fresh log with
/// the shipped defaults, then replay it from the start three times.
/// Returns `(append µs, replay records/s)`.
pub fn log(kept: &[SecureEvent], dir: &Path) -> Result<(Vec<f64>, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut log, _) = EventLog::open(LogConfig::new(dir)).map_err(|e| format!("log open: {e}"))?;
    let mut append = Vec::with_capacity(kept.len());
    for ev in kept {
        let bytes = ev.to_bytes();
        let t = Instant::now();
        log.append(&bytes).map_err(|e| format!("log append: {e}"))?;
        append.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let budget = log.replay_budget();
    let mut rates = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..3 {
        let mut cur = log.replay_cursor(1);
        let mut records = 0usize;
        let t = Instant::now();
        loop {
            buf.clear();
            let more = log
                .replay_next(&mut cur, budget, &mut buf)
                .map_err(|e| format!("log replay: {e}"))?;
            records += buf.len();
            if !more {
                break;
            }
        }
        if records != kept.len() {
            return Err(format!(
                "log replay returned {records} of {} records",
                kept.len()
            ));
        }
        rates.push(records as f64 / t.elapsed().as_secs_f64());
    }
    drop(log);
    let _ = std::fs::remove_dir_all(dir);
    Ok((append, median(&rates)))
}
