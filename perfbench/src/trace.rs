//! The traced run's spans: recorded in memory by the two application
//! threads around their calls into each layer, merged per event after
//! the window, written out as TSV, and reduced to self times.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// Publisher-side timestamps per event, in ns since the window start:
/// `[due, start, built, published, send start, sent]` — scheduled send
/// time, loop start, event built (= `Publisher::publish` called),
/// `Publisher::publish` returned, then either side of
/// `ReactorClient::publish`.
#[derive(Debug, Default)]
pub struct EventTimes {
    pub seqs: Vec<u64>,
    pub stamps: Vec<[u64; 6]>,
}

impl EventTimes {
    pub fn with_capacity(n: usize) -> Self {
        EventTimes {
            seqs: Vec::with_capacity(n),
            stamps: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, seq: u64, stamps: [u64; 6]) {
        self.seqs.push(seq);
        self.stamps.push(stamps);
    }
}

/// Gateway-side timestamps, in ns since the window start.
#[derive(Debug, Default)]
pub struct GatewayTimes {
    /// `(seq, recv returned, last required decrypt done)`.
    pub delivered: Vec<(u64, u64, u64)>,
    /// `(seq, start, end)` of every `Subscriber::decrypt` call.
    pub decrypts: Vec<(u64, u64, u64)>,
    /// Time spent inside `recv_timeout`.
    pub recv_wait_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: usize,
    pub event: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Stage names along the blocking path of one event, in order.
pub const STAGES: [&str; 6] = [
    "bench.gen",
    "bench.build",
    "psguard.publish",
    "siena.client.publish",
    "siena.transit",
    "bench.deliver",
];

/// Merges both threads' timestamps into one span list. Every delivered
/// event gets a root `event` span (due → last required decrypt) with the
/// six stages as children; decrypts are children of `bench.deliver`.
/// Events nobody had to receive get their publisher-side stages only.
/// `siena.transit` (send end → `recv_timeout` returned) covers sockets,
/// broker and client reactor, which the benchmark cannot see into; the
/// root's self time is what no stage covers.
pub fn build_spans(ev: &EventTimes, gw: &GatewayTimes) -> Vec<Span> {
    let delivered: HashMap<u64, (u64, u64)> =
        gw.delivered.iter().map(|&(s, r, d)| (s, (r, d))).collect();
    let mut decrypts: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for &(s, a, b) in &gw.decrypts {
        decrypts.entry(s).or_default().push((a, b));
    }
    let mut spans = Vec::with_capacity(ev.seqs.len() * 8);
    for (&seq, st) in ev.seqs.iter().zip(&ev.stamps) {
        let [due, start, built, published, send_start, sent] = *st;
        let (root, end) = match delivered.get(&seq) {
            Some(&(recv, done)) => {
                spans.push(Span {
                    name: "event",
                    start: due,
                    end: done,
                    parent: NO_PARENT,
                    event: seq,
                });
                (spans.len() - 1, Some((recv, done)))
            }
            None => (NO_PARENT, None),
        };
        let mut stage = |name, a: u64, b: u64| {
            spans.push(Span {
                name,
                start: a,
                end: b,
                parent: root,
                event: seq,
            });
            spans.len() - 1
        };
        stage("bench.gen", due, start);
        stage("bench.build", start, built);
        stage("psguard.publish", built, published);
        stage("siena.client.publish", send_start, sent);
        if let Some((recv, done)) = end {
            stage("siena.transit", sent, recv);
            let deliver = stage("bench.deliver", recv, done);
            for &(a, b) in decrypts.get(&seq).map(Vec::as_slice).unwrap_or(&[]) {
                spans.push(Span {
                    name: "psguard.decrypt",
                    start: a,
                    end: b,
                    parent: deliver,
                    event: seq,
                });
            }
        }
    }
    spans
}

/// Per-name durations and self times derived from the spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Span durations in µs, by name.
    pub durations: HashMap<&'static str, Vec<f64>>,
    /// Total self time in ns, by name: duration minus the children's.
    pub self_ns: HashMap<&'static str, u64>,
    /// Root time not covered by any stage, over total root time.
    pub unattributed_frac: f64,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent] += s.dur();
        }
    }
    let mut sum = Summary::default();
    let (mut root_total, mut root_self) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        sum.durations
            .entry(s.name)
            .or_default()
            .push(s.dur() as f64 / 1e3);
        let own = s.dur().saturating_sub(child_ns[i]);
        *sum.self_ns.entry(s.name).or_default() += own;
        if s.parent == NO_PARENT && s.name == "event" {
            root_total += s.dur();
            root_self += own;
        }
    }
    sum.unattributed_frac = if root_total > 0 {
        root_self as f64 / root_total as f64
    } else {
        0.0
    };
    sum
}

/// Writes the spans of events below `max_event` as TSV: index, name,
/// start_ns, end_ns, parent, event. A parent is always a span of the
/// same event, so every written parent index resolves within the file.
pub fn write_spans(path: &Path, spans: &[Span], max_event: u64) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\tevent")?;
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.event < max_event)
    {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start, s.end, s.event
        )?;
    }
    w.flush()
}
