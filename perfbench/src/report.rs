//! Samples, counters, the epoch loop and the result line shared by the
//! workloads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ltree::SchemeStats;

/// One timed call: its result and how long it took, in ns.
#[inline]
pub fn time<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// What one workload run recorded.
#[derive(Default)]
pub struct Recorder {
    /// Whether calls are sampled (timed rounds) or only counted (warm-up).
    sampling: bool,
    /// Latency of every sampled edit, ns.
    pub edits: Vec<u64>,
    /// Latency of every sampled query, ns.
    pub queries: Vec<u64>,
    /// Time spent inside the program's sampled calls, ns.
    pub busy_ns: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Failed correctness checks (first few kept).
    pub failures: Vec<String>,
    /// Failed correctness checks, by check.
    pub failed_checks: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// Record one edit call that took `ns`; true when it succeeded.
    pub fn edit<T, E: std::fmt::Display>(&mut self, r: &Result<T, E>, ns: u64) -> bool {
        if self.sampling {
            self.edits.push(ns);
        }
        self.op(r, ns)
    }

    /// Record one query call that took `ns`; true when it succeeded.
    pub fn query<T, E: std::fmt::Display>(&mut self, r: &Result<T, E>, ns: u64) -> bool {
        if self.sampling {
            self.queries.push(ns);
        }
        self.op(r, ns)
    }

    fn op<T, E: std::fmt::Display>(&mut self, r: &Result<T, E>, ns: u64) -> bool {
        if self.sampling {
            self.busy_ns += ns;
        }
        self.attempted += 1;
        match r {
            Ok(_) => true,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("operation failed: {e}");
                }
                false
            }
        }
    }

    /// Record a correctness check; `Err` carries what went wrong.
    pub fn check(&mut self, what: &'static str, r: Result<(), String>) {
        if let Err(e) = r {
            *self.failed_checks.entry(what).or_default() += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Samples per window of [`windowed_quantile`]: a p99 over one window
/// still has ten samples beyond it.
const WINDOW: usize = 1000;

/// The `q`-quantile of `v` (nearest rank), in the unit `ns / div`.
fn quantile(v: &mut [u64], q: f64, div: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / div
}

/// The median over consecutive windows of `WINDOW` samples of each
/// window's `q`-quantile, in the unit `ns / div`; the plain quantile when
/// there are fewer than two windows. A burst of interference from outside
/// the program moves one window's quantile, not the median of them.
fn windowed_quantile(v: &[u64], q: f64, div: f64) -> f64 {
    if v.len() < 2 * WINDOW {
        return quantile(&mut v.to_vec(), q, div);
    }
    let mut per: Vec<f64> = v
        .chunks_exact(WINDOW)
        .map(|w| quantile(&mut w.to_vec(), q, div))
        .collect();
    median(&mut per)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn stats_add(sum: &mut SchemeStats, before: SchemeStats, after: SchemeStats) {
    sum.inserts += after.inserts.saturating_sub(before.inserts);
    sum.deletes += after.deletes.saturating_sub(before.deletes);
    sum.label_writes += after.label_writes.saturating_sub(before.label_writes);
    sum.node_touches += after.node_touches.saturating_sub(before.node_touches);
    sum.relabel_events += after.relabel_events.saturating_sub(before.relabel_events);
}

/// Named metric values with units, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }
}

/// One epoch's client session over a freshly set-up program.
pub trait Session {
    /// Run one round of operations, recording each into `rec`.
    fn round(&mut self, rec: &mut Recorder);
    /// The scheme's cost counters.
    fn stats(&self) -> SchemeStats;
    /// The scheme's `memory_bytes()` per live item.
    fn mem_per_item(&self) -> f64;
    /// The epoch's closing checks; tears the session down.
    fn finish(self, rec: &mut Recorder);
}

/// How a workload's run is cut into epochs.
pub struct Plan {
    /// Set-ups per epoch; all but the last are dropped right away.
    pub setups: usize,
    /// Unsampled rounds at the start of every epoch.
    pub warmup: usize,
    /// Sampled rounds per epoch.
    pub rounds: usize,
    /// Epochs whose counters give the count metrics.
    pub counted: usize,
}

/// What a run of epochs measured.
pub struct Run {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Epochs run.
    pub epochs: usize,
    /// Counter growth over the sampled rounds of the counted epochs.
    pub counted: SchemeStats,
    /// Scheme memory per live item after the counted epochs' sampled
    /// rounds, averaged over them.
    pub mem_per_item: f64,
}

/// Run epochs until the sampled rounds have taken `seconds` and at least
/// `plan.counted` epochs ran.
///
/// Each epoch sets the program up afresh with `build`, which returns the
/// session and how long the program's own set-up calls took (`setup_s`
/// is the median), warms up, runs `plan.rounds` sampled rounds and closes
/// with the session's checks. A run is whole epochs, each walking the same
/// kind of states from a fresh start, so it measures the same mixture of
/// states however fast the machine is; within one session the tombstones
/// pile up and calls slow down, and relabeling cost comes in cycles.
/// `probe` is called just before and just after the first epoch's sampled
/// rounds. The counters are read over the counted epochs, a fixed amount
/// of work, so they repeat exactly for a seed. Reading them is one more
/// operation; it fails when they read zero although items were inserted
/// (how `RemoteScheme::scheme_stats` reports a failed flush). Reading the
/// memory per item is another; it fails when that reads zero (how
/// `RemoteScheme::memory_bytes` and `live_len` report a failed flush).
pub fn run_epochs<S: Session, P>(
    seconds: f64,
    plan: &Plan,
    rec: &mut Recorder,
    mut build: impl FnMut(usize) -> Result<(S, f64), String>,
    mut probe: impl FnMut(&S) -> P,
) -> Result<(Run, Option<(P, P)>), String> {
    let mut setups = Vec::new();
    let mut counted = SchemeStats::default();
    let mut mem = 0.0;
    let mut probes = None;
    let mut sampled = Duration::ZERO;
    let deadline = Duration::from_secs_f64(seconds);
    let mut epoch = 0;
    while epoch < plan.counted || sampled < deadline {
        let mut sess = None;
        for _ in 0..plan.setups {
            drop(sess.take());
            let (built, setup_s) = build(epoch)?;
            setups.push(setup_s);
            sess = Some(built);
        }
        let mut sess = sess.expect("at least one set-up per epoch");
        for _ in 0..plan.warmup {
            sess.round(rec);
        }
        let before = sess.stats();
        let first = (epoch == 0).then(|| probe(&sess));
        rec.sampling = true;
        let start = Instant::now();
        for _ in 0..plan.rounds {
            sess.round(rec);
        }
        sampled += start.elapsed();
        rec.sampling = false;
        if let Some(first) = first {
            probes = Some((first, probe(&sess)));
        }
        if epoch < plan.counted {
            let after = sess.stats();
            rec.attempted += 1;
            if after.inserts <= before.inserts {
                rec.failed += 1;
                eprintln!("scheme counters read zero after inserts");
            }
            stats_add(&mut counted, before, after);
            let per_item = sess.mem_per_item();
            rec.attempted += 1;
            if !(per_item.is_finite() && per_item > 0.0) {
                rec.failed += 1;
                eprintln!("scheme memory per item read {per_item}");
            }
            mem += per_item / plan.counted as f64;
        }
        sess.finish(rec);
        epoch += 1;
    }
    let run = Run {
        setup_s: median(&mut setups),
        epochs: epoch,
        counted,
        mem_per_item: mem,
    };
    Ok((run, probes))
}

/// The nine end-to-end metrics of one workload run. Each is above 0 when
/// all goes well; reading them is one more operation, which fails when
/// one is not.
pub fn end_to_end(run: &Run, rec: &mut Recorder) -> Metrics {
    let ops = (rec.edits.len() + rec.queries.len()) as f64;
    let per_item = |v: u64| v as f64 / run.counted.inserts.max(1) as f64;
    let mut m = Metrics::default();
    m.put("setup_s", run.setup_s, "s");
    m.put("ops_per_s", ops / (rec.busy_ns.max(1) as f64 / 1e9), "1/s");
    m.put(
        "edit_p50_us",
        windowed_quantile(&rec.edits, 0.50, 1e3),
        "us",
    );
    m.put(
        "edit_p99_us",
        windowed_quantile(&rec.edits, 0.99, 1e3),
        "us",
    );
    m.put(
        "query_p50_us",
        windowed_quantile(&rec.queries, 0.50, 1e3),
        "us",
    );
    m.put(
        "query_p99_us",
        windowed_quantile(&rec.queries, 0.99, 1e3),
        "us",
    );
    m.put(
        "label_writes_per_item",
        per_item(run.counted.label_writes),
        "count",
    );
    m.put(
        "node_touches_per_item",
        per_item(run.counted.node_touches),
        "count",
    );
    m.put("mem_bytes_per_item", run.mem_per_item, "B");
    rec.attempted += 1;
    if let Some((name, v, _)) = m.0.iter().find(|(_, v, _)| !(v.is_finite() && *v > 0.0)) {
        rec.failed += 1;
        eprintln!("end-to-end metric {name} read {v}");
    }
    m
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
