//! `label-server`: a `LabelServer` on a loopback TCP port hosting
//! `traced(durable(sharded(4,ltree(4,2))))`, driven by one `RemoteScheme`
//! client.
//!
//! The write-ahead log fsyncs before every ack (`sync=always`, the default
//! checkpoint cadence). The client runs skewed single inserts, insert and
//! delete runs, pipelined splice plans and read batches. This is the
//! production path through every wrapper; `remote`, `durable`, `sharded`
//! and `obs` do most of the work here and none in the other workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ltree::metrics::{HistogramSnapshot, MetricValue};
use ltree::remote::{DurableOptions, LabelServer, RemoteScheme, TransportStats};
use ltree::rng::SplitMix64;
use ltree::{
    BatchLabeling, Instrumented, LeafHandle, OrderedLabeling, OrderedLabelingMut, SchemeStats,
    Splice, SpliceResult,
};

use crate::layer::{self, Fault, READ_OPS, WRITE_OPS};
use crate::model::{match_stream, ListModel, DELETE_RUNS, HOT_INSERTS, HOT_SHARE, MAX_RUN};
use crate::report::{end_to_end, run_epochs, time, Metrics, Plan, Recorder, Session};
use crate::Settings;

/// Items bulk-loaded at set-up.
const ITEMS: usize = 100_000;
/// Consecutive items one read batch reads.
const READ_BATCH: usize = 64;
/// Splices in one pipelined plan.
const PLAN_SPLICES: usize = 4;
/// Operations per round; runs are whole rounds.
const ROUND_OPS: usize = 50;
/// Set-ups, warm-up and sampled rounds per epoch, and the counted epochs.
const PLAN: Plan = Plan {
    setups: 1,
    warmup: 2,
    rounds: 60,
    counted: 2,
};
/// Scratch space for the write-ahead logs, under the working directory.
const SCRATCH: &str = ".perfbench-tmp";
/// The scheme the log is recovered into (the hosted stack minus `traced`).
const DURABLE_INNER: &str = "sharded(4,ltree(4,2))";

fn hosted_spec(s: &Settings, dir: &Path) -> String {
    let dir = dir.display();
    match (s.trace, s.fault) {
        (true, _) => format!(
            "layer(traced(layer(durable(layer(sharded(4,layer(ltree(4,2),name=ltree)),\
             name=sharded),dir={dir}),name=durable)),name=traced)"
        ),
        (false, Some(f)) if f != Fault::Recovery => format!(
            "layer(traced(durable({DURABLE_INNER},dir={dir})),fault={})",
            f.name()
        ),
        _ => format!("traced(durable({DURABLE_INNER},dir={dir}))"),
    }
}

fn recovery_spec(s: &Settings) -> String {
    match s.fault {
        Some(Fault::Recovery) => format!("layer({DURABLE_INNER},fault=recovery)"),
        _ => DURABLE_INNER.to_owned(),
    }
}

/// Fields drop in order: the client closes its connection before the
/// server shuts down.
struct Deployment {
    client: RemoteScheme,
    server: LabelServer,
    dir: PathBuf,
}

fn deploy(s: &Settings, dir: PathBuf) -> Result<(Deployment, Vec<LeafHandle>), String> {
    let e = |e: ltree::LTreeError| e.to_string();
    let scheme = layer::registry().build(&hosted_spec(s, &dir)).map_err(e)?;
    let server = LabelServer::bind("127.0.0.1:0", scheme).map_err(e)?;
    let mut client = RemoteScheme::connect(&server.local_addr().to_string()).map_err(e)?;
    let handles = client.bulk_build(ITEMS).map_err(e)?;
    Ok((
        Deployment {
            server,
            client,
            dir,
        },
        handles,
    ))
}

struct Client<'a> {
    s: &'a Settings,
    d: Deployment,
    model: ListModel,
    rng: SplitMix64,
    run: Vec<u64>,
    labels: Vec<u128>,
}

impl Session for Client<'_> {
    fn round(&mut self, rec: &mut Recorder) {
        // The shares are chosen: reads a little over a third, single
        // inserts most of the edits (so the edit median is a single
        // insert's), and plans rare, as each carries four splices.
        for _ in 0..ROUND_OPS {
            let draw = self.rng.next_f64();
            if draw < 0.45 {
                self.single_insert(rec);
            } else if draw < 0.60 {
                self.run_op(rec);
            } else if draw < 0.65 {
                self.plan(rec);
            } else {
                self.read_batch(rec);
            }
        }
    }

    fn stats(&self) -> SchemeStats {
        self.d.client.scheme_stats()
    }

    fn mem_per_item(&self) -> f64 {
        let client = &self.d.client;
        client.memory_bytes() as f64 / client.live_len().max(1) as f64
    }

    /// The live cursor, then the order recovered from the log, must both
    /// equal the model's live order.
    fn finish(self, rec: &mut Recorder) {
        rec.check("final cursor", check_cursor(&self.model, &self.d.client));
        let dir = self.d.dir.clone();
        rec.check("recovery", check_recovery(self.s, &self.model, self.d));
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Client<'_> {
    fn single_insert(&mut self, rec: &mut Recorder) {
        let anchor = if self.rng.gen_bool(HOT_INSERTS) {
            self.model.random_hot(&mut self.rng)
        } else {
            self.model.random_live(&mut self.rng)
        };
        let client = &mut self.d.client;
        let (r, ns) = time(|| client.insert_after(LeafHandle(anchor)));
        if rec.edit(&r, ns) {
            self.model.insert_after(anchor, &[r.expect("checked").0]);
        }
    }

    /// An insert run or, with odds `DELETE_RUNS`, a delete run; the model
    /// records a delete right away. `None` when the splice would touch one
    /// of the `avoid` items.
    fn next_splice(&mut self, avoid: &[u64]) -> Option<(Splice, Option<usize>)> {
        let count = self.rng.gen_range(1..MAX_RUN + 1);
        let first = self.model.random_live(&mut self.rng);
        if avoid.contains(&first) {
            return None;
        }
        if !self.rng.gen_bool(DELETE_RUNS) {
            let op = Splice::InsertAfter {
                anchor: LeafHandle(first),
                count,
            };
            return Some((op, None));
        }
        self.model.run_from(first, count, &mut self.run);
        if self.run.iter().any(|h| avoid.contains(h)) {
            return None;
        }
        for &h in &self.run {
            self.model.delete(h);
        }
        let op = Splice::DeleteRun {
            first: LeafHandle(first),
            count,
        };
        Some((op, Some(self.run.len())))
    }

    fn apply_result(
        &mut self,
        rec: &mut Recorder,
        op: Splice,
        want: Option<usize>,
        got: SpliceResult,
    ) {
        match (op, got) {
            (Splice::InsertAfter { anchor, count }, SpliceResult::Inserted(hs)) => {
                if hs.len() != count {
                    rec.check(
                        "insert run",
                        Err(format!("{} of {count} handles", hs.len())),
                    );
                }
                let hs: Vec<u64> = hs.iter().map(|h| h.0).collect();
                self.model.insert_after(anchor.0, &hs);
            }
            (Splice::DeleteRun { .. }, SpliceResult::Deleted(n)) if Some(n) == want => {}
            (_, got) => rec.check("splice", Err(format!("{op:?} answered {got:?}"))),
        }
    }

    fn run_op(&mut self, rec: &mut Recorder) {
        let (op, want) = self.next_splice(&[]).expect("nothing to avoid");
        let client = &mut self.d.client;
        let (r, ns) = time(|| client.splice(op));
        if rec.edit(&r, ns) {
            self.apply_result(rec, op, want, r.expect("checked"));
        }
    }

    /// `PLAN_SPLICES` splices sent with `pipeline_splices`. A splice never
    /// touches an earlier insert's anchor, so the model can record the
    /// plan's deletes before the call and its inserts after it.
    fn plan(&mut self, rec: &mut Recorder) {
        let mut plan = Vec::with_capacity(PLAN_SPLICES);
        let mut wants = Vec::with_capacity(PLAN_SPLICES);
        let mut anchors: Vec<u64> = Vec::new();
        while plan.len() < PLAN_SPLICES {
            let Some((op, want)) = self.next_splice(&anchors) else {
                continue;
            };
            if let Splice::InsertAfter { anchor, .. } = op {
                anchors.push(anchor.0);
            }
            plan.push(op);
            wants.push(want);
        }
        let client = &mut self.d.client;
        let (r, ns) = time(|| client.pipeline_splices(&plan));
        if rec.edit(&r, ns) {
            let results = r.expect("checked");
            if results.len() != plan.len() {
                rec.check("splice plan", Err(format!("{} results", results.len())));
            }
            for ((op, want), got) in plan.into_iter().zip(wants).zip(results) {
                self.apply_result(rec, op, want, got);
            }
        }
    }

    /// `READ_BATCH` consecutive `label_of` calls plus a `compare` of each
    /// neighbouring pair.
    fn read_batch(&mut self, rec: &mut Recorder) {
        let first = self.model.random_live(&mut self.rng);
        self.model.run_from(first, READ_BATCH, &mut self.run);
        let (client, run, labels) = (&self.d.client, &self.run, &mut self.labels);
        labels.clear();
        let (r, ns) = time(|| -> ltree::Result<bool> {
            for &h in run {
                labels.push(client.label_of(LeafHandle(h))?);
            }
            let mut ordered = true;
            for w in run.windows(2) {
                ordered &= client.compare(LeafHandle(w[0]), LeafHandle(w[1]))?.is_lt();
            }
            Ok(ordered)
        });
        if rec.query(&r, ns) {
            let check = if !r.expect("checked") {
                Err("compare disagrees with the model's order".to_owned())
            } else if self.labels.windows(2).any(|w| w[0] >= w[1]) {
                Err("labels do not increase along the model's order".to_owned())
            } else {
                Ok(())
            };
            rec.check("read batch", check);
        }
    }
}

/// The client's whole cursor must equal the model's live order.
fn check_cursor(model: &ListModel, client: &RemoteScheme) -> Result<(), String> {
    let mut cur = client.first_in_order();
    let stream = std::iter::from_fn(|| {
        let h = cur?;
        cur = client.next_in_order(h);
        Some(h.0)
    });
    match_stream(model, None, stream, true).map(|_| ())
}

/// Shut the server down, recover a new one from its log directory and
/// compare the recovered order with the model.
fn check_recovery(s: &Settings, model: &ListModel, d: Deployment) -> Result<(), String> {
    let Deployment {
        server,
        client,
        dir,
    } = d;
    drop(client);
    drop(server);
    let e = |e: ltree::LTreeError| e.to_string();
    let inner = layer::registry().build(&recovery_spec(s)).map_err(e)?;
    let server =
        LabelServer::recover_from_dir("127.0.0.1:0", inner, &dir, DurableOptions::default())
            .map_err(|err| format!("recovery failed: {err}"))?;
    let client = RemoteScheme::connect(&server.local_addr().to_string()).map_err(e)?;
    let r = check_cursor(model, &client);
    drop(client);
    r
}

fn counters(server: &LabelServer) -> BTreeMap<String, u64> {
    server
        .stats_breakdown()
        .into_iter()
        .filter(|(name, _)| name.starts_with("wal/"))
        .map(|(name, st)| (name, st.node_touches))
        .collect()
}

fn histograms(server: &LabelServer) -> BTreeMap<String, HistogramSnapshot> {
    server
        .metrics()
        .into_iter()
        .filter_map(|m| match m.value {
            MetricValue::Histogram(h) => Some((m.name, h)),
            _ => None,
        })
        .collect()
}

/// The mean of one histogram's samples recorded between two scrapes,
/// divided by `div`.
fn mean_between(
    before: &BTreeMap<String, HistogramSnapshot>,
    after: &BTreeMap<String, HistogramSnapshot>,
    name: &str,
    div: f64,
) -> f64 {
    let a = after.get(name).cloned().unwrap_or_default();
    let b = before.get(name).cloned().unwrap_or_default();
    (a.sum - b.sum) as f64 / (a.count - b.count).max(1) as f64 / div
}

/// What the traced run reads just before and after the sampled rounds.
type Probe = (
    BTreeMap<(&'static str, &'static str), layer::Acc>,
    TransportStats,
    BTreeMap<String, u64>,
    BTreeMap<String, HistogramSnapshot>,
);

fn probe(c: &Client) -> Probe {
    let server = &c.d.server;
    (
        layer::snapshot(),
        c.d.client.transport_stats(),
        counters(server),
        histograms(server),
    )
}

/// A fresh deployment of `ITEMS` in `dir` and its model.
fn build<'a>(s: &'a Settings, epoch: usize, dir: PathBuf) -> Result<(Client<'a>, f64), String> {
    let (deployed, ns) = time(|| deploy(s, dir));
    let (d, handles) = deployed?;
    let mut rng = SplitMix64::new(s.seed ^ 0x5EED_0003 ^ ((epoch as u64) << 32));
    let hot_len = (ITEMS as f64 * HOT_SHARE) as usize;
    let hot_start = rng.gen_range(0..ITEMS - hot_len);
    let ids: Vec<u64> = handles.iter().map(|h| h.0).collect();
    let client = Client {
        s,
        d,
        model: ListModel::new(&ids, hot_start..hot_start + hot_len),
        rng,
        run: Vec::new(),
        labels: Vec::with_capacity(READ_BATCH),
    };
    Ok((client, ns as f64 / 1e9))
}

/// Run the workload; `layers` receives the per-layer metrics when tracing.
pub fn run(s: &Settings, layers: &mut Metrics) -> Result<(Recorder, Metrics), String> {
    let run_dir = Path::new(SCRATCH).join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut rec = Recorder::default();
    let mut setups = 0;
    let out = run_epochs(
        s.seconds,
        &PLAN,
        &mut rec,
        |epoch| {
            setups += 1;
            build(s, epoch, run_dir.join(format!("setup-{setups}")))
        },
        probe,
    );
    let _ = std::fs::remove_dir_all(&run_dir);
    // Removed only when no other run still uses it.
    let _ = std::fs::remove_dir(SCRATCH);
    let (run, probes) = out?;
    eprintln!("label-server: {} epochs", run.epochs);

    if let (true, Some((before, after))) = (s.trace, probes) {
        let (spans_before, wire_before, wal_before, hist_before) = before;
        let (spans_after, wire_after, wal_after, hist_after) = after;
        let ops = (PLAN.rounds * ROUND_OPS) as f64;
        let wire = |f: fn(&TransportStats) -> u64| (f(&wire_after) - f(&wire_before)) as f64 / ops;
        let span =
            |layer: &str, ops: &[&str]| layer::delta(&spans_before, &spans_after, layer, ops);
        let self_mean = |a: layer::Acc, div: f64| a.self_ns as f64 / a.calls.max(1) as f64 / div;
        let wal = |name: &str| {
            let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
            (get(&wal_after) - get(&wal_before)) as f64
        };
        let mean = |name: &str, div: f64| mean_between(&hist_before, &hist_after, name, div);
        let writes = span("durable", &WRITE_OPS);
        let all_ops: Vec<&str> = READ_OPS.iter().chain(&WRITE_OPS).copied().collect();
        layers.put(
            "client.round_trips_per_op",
            wire(|t| t.round_trips),
            "count",
        );
        layers.put(
            "client.wire_bytes_per_op",
            wire(|t| t.bytes_sent + t.bytes_received),
            "B",
        );
        layers.put("server.decode_us", mean("net/phase/decode", 1e3), "us");
        layers.put(
            "server.lock_wait_us",
            mean("net/phase/lock-wait", 1e3),
            "us",
        );
        layers.put("server.apply_us", mean("net/phase/apply", 1e3), "us");
        layers.put("server.encode_us", mean("net/phase/encode", 1e3), "us");
        layers.put(
            "traced.self_us",
            self_mean(span("traced", &all_ops), 1e3),
            "us",
        );
        layers.put("durable.write_self_us", self_mean(writes, 1e3), "us");
        let per_write = |v: f64| v / writes.calls.max(1) as f64;
        layers.put(
            "durable.fsyncs_per_write",
            per_write(wal("wal/fsyncs")),
            "count",
        );
        layers.put(
            "durable.wal_bytes_per_write",
            per_write(wal("wal/bytes")),
            "B",
        );
        layers.put("durable.checkpoints", wal("wal/checkpoints"), "count");
        layers.put(
            "durable.checkpoint_ms",
            mean("wal/checkpoint-duration", 1e6),
            "ms",
        );
        layers.put(
            "durable.read_self_ns",
            self_mean(span("durable", &READ_OPS), 1.0),
            "ns",
        );
        layers.put(
            "sharded.read_self_ns",
            self_mean(span("sharded", &READ_OPS), 1.0),
            "ns",
        );
        layers.put(
            "sharded.write_self_us",
            self_mean(span("sharded", &WRITE_OPS), 1e3),
            "us",
        );
    }
    let e2e = end_to_end(&run, &mut rec);
    Ok((rec, e2e))
}
