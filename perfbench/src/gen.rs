//! Seeded input generation: workload shapes, principal filters, the
//! event stream with its delivery oracle, and the churn schedule.
//!
//! Everything here is a pure function of `(workload, seed, seconds,
//! smoke)`; the system under test only ever sees the generated values.

use std::collections::HashSet;

use psguard_crypto::Token;
use psguard_keys::Schema;
use psguard_model::{Constraint, Filter, IntRange, Op};
use psguard_routing::SecureFilter;
use psguard_siena::wire::filter_crc;

/// The numeric attribute every filter constrains and every event carries.
pub const ATTR: &str = "x";

/// How the publisher paces itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// At most `window` events published but not yet fully decrypted.
    Closed { window: usize },
    /// Poisson arrivals at `rate` events per second, timed from each
    /// event's scheduled send time.
    Open { rate: f64 },
}

/// One workload's shape. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone)]
pub struct Params {
    pub name: &'static str,
    /// Principals subscribed when the timed window starts.
    pub principals: usize,
    pub topics: usize,
    /// Zipf exponent of the event topic distribution (0 = uniform).
    pub zipf_s: f64,
    /// Size of the attribute domain `[0, domain)`.
    pub domain: i64,
    /// Target mean number of principals matching an event.
    pub recipients: f64,
    pub payload: usize,
    pub load: Load,
    /// Poisson joins and leaves per second (0 = no churn).
    pub churn_rate: f64,
    /// Re-key every live principal halfway through the window.
    pub rollover: bool,
    /// Durable broker; the gateway drops for `gap` events and catches up.
    pub durable_gap: Option<usize>,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Upper bound on the publish rate, used to size the event stream.
    pub max_rate: f64,
}

pub const WORKLOADS: [&str; 4] = ["ticker", "wide_table", "steady_churn", "durable_catchup"];

impl Params {
    /// The named workload; `smoke` shrinks every size axis for tests.
    pub fn named(name: &str, smoke: bool) -> Option<Params> {
        let mut p = match name {
            "ticker" => Params {
                name: "ticker",
                principals: 1_000,
                topics: 64,
                zipf_s: 0.0,
                domain: 1024,
                recipients: 1.0,
                payload: 64,
                load: Load::Closed { window: 64 },
                churn_rate: 0.0,
                rollover: false,
                durable_gap: None,
                setups: 21,
                max_rate: 20_000.0,
            },
            "wide_table" => Params {
                name: "wide_table",
                principals: 100_000,
                topics: 256,
                zipf_s: 1.1,
                domain: 4096,
                recipients: 6.0,
                payload: 1024,
                load: Load::Closed { window: 64 },
                churn_rate: 0.0,
                rollover: false,
                durable_gap: None,
                setups: 5,
                max_rate: 4_000.0,
            },
            "steady_churn" => Params {
                name: "steady_churn",
                principals: 10_000,
                topics: 64,
                zipf_s: 0.0,
                domain: 1024,
                recipients: 2.0,
                payload: 256,
                load: Load::Open { rate: 1_000.0 },
                churn_rate: 50.0,
                rollover: true,
                durable_gap: None,
                setups: 9,
                max_rate: 1_000.0,
            },
            "durable_catchup" => Params {
                name: "durable_catchup",
                principals: 10_000,
                topics: 64,
                zipf_s: 0.0,
                domain: 1024,
                recipients: 2.0,
                payload: 256,
                load: Load::Closed { window: 64 },
                churn_rate: 0.0,
                rollover: false,
                durable_gap: Some(20_000),
                setups: 3,
                max_rate: 10_000.0,
            },
            _ => return None,
        };
        if smoke {
            p.principals = (p.principals / 20).max(100);
            p.topics = p.topics.min(16);
            p.setups = 1;
            p.durable_gap = p.durable_gap.map(|g| g / 20);
        }
        Some(p)
    }

    /// Filter width giving `recipients` matches per event on average.
    pub fn width(&self) -> i64 {
        let w = self.recipients * self.topics as f64 * self.domain as f64 / self.principals as f64;
        (w.round() as i64).clamp(1, self.domain)
    }

    pub fn schema(&self) -> Schema {
        Schema::builder()
            .numeric(
                ATTR,
                IntRange::new(0, self.domain - 1).expect("domain is positive"),
                1,
            )
            .expect("a power-of-two domain is a valid key tree")
            .build()
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// Fills `out` with the plaintext of event `seq`: a pure function of the
/// run seed and the sequence number, so the gateway can regenerate it to
/// compare byte for byte instead of storing every payload.
pub fn payload_into(seed: u64, seq: u64, len: usize, out: &mut Vec<u8>) {
    out.clear();
    let mut rng = Rng::new(seed.rotate_left(17) ^ seq.wrapping_mul(0xa076_1d64_78bd_642f));
    while out.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
}

/// A principal's subscription: one topic and one attribute range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interest {
    pub topic: u32,
    pub lo: i64,
    pub hi: i64,
}

impl Interest {
    pub fn covers(&self, topic: u32, x: i64) -> bool {
        self.topic == topic && self.lo <= x && x <= self.hi
    }

    pub fn filter(&self) -> Filter {
        Filter::for_topic(topic_name(self.topic)).with(Constraint::new(
            ATTR,
            Op::InRange(IntRange::new(self.lo, self.hi).expect("lo <= hi by construction")),
        ))
    }
}

pub fn topic_name(t: u32) -> String {
    format!("t{t:03}")
}

/// A membership change on the gateway connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    Join(u32),
    Leave(u32),
    /// Re-grant every live principal for the next epoch.
    Rollover,
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub params: Params,
    pub seed: u64,
    pub seconds: f64,
    /// Every principal that ever subscribes; the first
    /// `params.principals` are live at the start.
    pub interests: Vec<Interest>,
    pub by_topic: Vec<Vec<u32>>,
    /// Event stream: topic and attribute value of event `seq`.
    pub topics: Vec<u32>,
    pub xs: Vec<i64>,
    /// CSR oracle: principals whose filter matches event `seq` are
    /// `matches[offsets[seq]..offsets[seq + 1]]`.
    pub offsets: Vec<u32>,
    pub matches: Vec<u32>,
    /// Open loop: scheduled send time of each event, in ns from the
    /// start of the timed window.
    pub due_ns: Vec<u64>,
    /// Churn schedule in ns from the start of the timed window.
    pub churn: Vec<(u64, ChurnOp)>,
}

impl Inputs {
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// Principals whose filter matches event `seq`.
    pub fn matching(&self, seq: usize) -> &[u32] {
        &self.matches[self.offsets[seq] as usize..self.offsets[seq + 1] as usize]
    }

    /// Every principal's secure filter, as the gateway subscribes it.
    pub fn secure_filters<'a>(
        &'a self,
        tokens: &'a [Token],
    ) -> impl Iterator<Item = SecureFilter> + 'a {
        self.interests
            .iter()
            .map(|i| SecureFilter::from_filter(tokens[i.topic as usize], &i.filter()))
    }
}

/// The first candidate fence whose SubAck crc no existing filter has.
/// `subscribe_acked` matches acks by crc, so a fence sharing one with an
/// earlier subscription could return on that earlier ack while the
/// burst is still being installed.
pub fn fresh_fence(
    existing: impl IntoIterator<Item = SecureFilter>,
    candidate: impl Fn(u64) -> SecureFilter,
) -> SecureFilter {
    let crcs: HashSet<u32> = existing.into_iter().map(|f| filter_crc(&f)).collect();
    (0..)
        .map(candidate)
        .find(|f| !crcs.contains(&filter_crc(f)))
        .expect("some candidate has a fresh crc")
}

/// Cumulative Zipf weights over `n` ranks (uniform when `s == 0`).
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Generates the inputs of one run.
pub fn generate(params: &Params, seed: u64, seconds: f64) -> Inputs {
    let mut rng = Rng::new(seed);
    let width = params.width();

    // Churn schedule first: it fixes how many principals ever exist.
    let window_ns = (seconds * 1e9) as u64;
    let mut churn = Vec::new();
    let mut total = params.principals;
    if params.churn_rate > 0.0 {
        let mut live: Vec<u32> = (0..params.principals as u32).collect();
        let mut t_join = rng.exp(params.churn_rate);
        let mut t_leave = rng.exp(params.churn_rate);
        let rollover_at = seconds / 2.0;
        let mut rolled = !params.rollover;
        loop {
            let t = t_join.min(t_leave);
            if !rolled && rollover_at <= t {
                churn.push(((rollover_at * 1e9) as u64, ChurnOp::Rollover));
                rolled = true;
            }
            if t >= seconds {
                break;
            }
            let at = (t * 1e9) as u64;
            if t_join <= t_leave {
                let p = total as u32;
                total += 1;
                live.push(p);
                churn.push((at, ChurnOp::Join(p)));
                t_join += rng.exp(params.churn_rate);
            } else {
                let k = rng.below(live.len() as u64) as usize;
                churn.push((at, ChurnOp::Leave(live.swap_remove(k))));
                t_leave += rng.exp(params.churn_rate);
            }
        }
    }

    // Distinct filters: (topic, lo) is unique and every width is equal,
    // so no two principals share a filter on the gateway connection.
    let mut taken = HashSet::with_capacity(total);
    let mut interests = Vec::with_capacity(total);
    let mut by_topic = vec![Vec::new(); params.topics];
    let positions = (params.domain - width + 1) as u64;
    for p in 0..total {
        let topic = (p % params.topics) as u32;
        let lo = loop {
            let lo = rng.below(positions) as i64;
            if taken.insert((topic, lo)) {
                break lo;
            }
        };
        interests.push(Interest {
            topic,
            lo,
            hi: lo + width - 1,
        });
        by_topic[topic as usize].push(p as u32);
    }

    // The event stream with its oracle.
    let n_events = match params.load {
        Load::Closed { .. } => {
            (params.max_rate * seconds) as usize + params.durable_gap.unwrap_or(0)
        }
        Load::Open { .. } => 0,
    };
    let mut due_ns = Vec::new();
    if let Load::Open { rate } = params.load {
        let mut t = rng.exp(rate);
        while t < seconds {
            due_ns.push((t * 1e9) as u64);
            t += rng.exp(rate);
        }
    }
    let n_events = n_events.max(due_ns.len());
    let cdf = zipf_cdf(params.topics, params.zipf_s);
    let mut topics = Vec::with_capacity(n_events);
    let mut xs = Vec::with_capacity(n_events);
    let mut offsets = Vec::with_capacity(n_events + 1);
    let mut matches = Vec::new();
    offsets.push(0u32);
    for _ in 0..n_events {
        let u = rng.unit();
        let topic = cdf.partition_point(|&c| c < u).min(params.topics - 1) as u32;
        let x = rng.below(params.domain as u64) as i64;
        topics.push(topic);
        xs.push(x);
        matches.extend(
            by_topic[topic as usize]
                .iter()
                .copied()
                .filter(|&p| interests[p as usize].covers(topic, x)),
        );
        offsets.push(u32::try_from(matches.len()).expect("oracle fits in u32"));
    }
    debug_assert!(churn.iter().all(|(t, _)| *t <= window_ns));

    Inputs {
        params: params.clone(),
        seed,
        seconds,
        interests,
        by_topic,
        topics,
        xs,
        offsets,
        matches,
        due_ns,
        churn,
    }
}
