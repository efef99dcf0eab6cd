//! `ltree-stream`: an in-process `ltree(4,2)` of about a million items
//! under skewed single inserts, insert runs, delete runs and order scans.
//!
//! One client, closed loop. The list is larger than the last-level cache,
//! and the L-Tree core does almost all the work, so this is where the
//! paper's own cost (label writes per inserted item) is measured.

use ltree::rng::SplitMix64;
use ltree::{DynScheme, LeafHandle, SchemeStats, Splice, SpliceResult};

use crate::layer;
use crate::model::{match_stream, ListModel, DELETE_RUNS, HOT_INSERTS, HOT_SHARE, MAX_RUN};
use crate::report::{end_to_end, run_epochs, time, Metrics, Plan, Recorder, Session};
use crate::Settings;

/// Items bulk-loaded at set-up.
const ITEMS: usize = 1_000_000;
/// Handles one order scan walks.
const SCAN_STEPS: usize = 256;
/// Operations per round; runs are whole rounds.
const ROUND_OPS: usize = 200;
/// Set-ups, warm-up and sampled rounds per epoch, and the counted epochs.
const PLAN: Plan = Plan {
    setups: 2,
    warmup: 10,
    rounds: 400,
    counted: 1,
};

fn spec(s: &Settings) -> String {
    match (s.trace, s.fault) {
        (true, _) => "layer(ltree(4,2),name=ltree)".into(),
        (false, Some(f)) => format!("layer(ltree(4,2),fault={})", f.name()),
        (false, None) => "ltree(4,2)".into(),
    }
}

struct Stream {
    scheme: Box<dyn DynScheme>,
    model: ListModel,
    rng: SplitMix64,
    run: Vec<u64>,
    scan: Vec<(u64, u128)>,
}

impl Session for Stream {
    fn round(&mut self, rec: &mut Recorder) {
        // The shares are chosen: reads a little under half, and single
        // inserts most of the edits, so the edit median is a single
        // insert's rather than the step between two kinds of edit.
        for _ in 0..ROUND_OPS {
            let draw = self.rng.next_f64();
            if draw < 0.45 {
                self.single_insert(rec);
            } else if draw < 0.55 {
                self.run_op(rec);
            } else {
                self.order_scan(rec);
            }
        }
    }

    fn stats(&self) -> SchemeStats {
        self.scheme.scheme_stats()
    }

    fn mem_per_item(&self) -> f64 {
        self.scheme.memory_bytes() as f64 / self.scheme.live_len().max(1) as f64
    }

    /// The whole cursor must match the model's live order.
    fn finish(self, rec: &mut Recorder) {
        let scheme = &self.scheme;
        let mut cur = scheme.first_in_order();
        let stream = std::iter::from_fn(|| {
            let h = cur?;
            cur = scheme.next_in_order(h);
            Some(h.0)
        });
        let r = match_stream(&self.model, None, stream, true).map(|_| ());
        rec.check("final cursor", r);
    }
}

impl Stream {
    fn single_insert(&mut self, rec: &mut Recorder) {
        let anchor = if self.rng.gen_bool(HOT_INSERTS) {
            self.model.random_hot(&mut self.rng)
        } else {
            self.model.random_live(&mut self.rng)
        };
        let (r, ns) = time(|| self.scheme.insert_after(LeafHandle(anchor)));
        if rec.edit(&r, ns) {
            self.model.insert_after(anchor, &[r.expect("checked").0]);
        }
    }

    /// An insert run (§4.1) or, with odds `DELETE_RUNS`, a delete run
    /// (§2.3).
    fn run_op(&mut self, rec: &mut Recorder) {
        let count = self.rng.gen_range(1..MAX_RUN + 1);
        let first = self.model.random_live(&mut self.rng);
        if !self.rng.gen_bool(DELETE_RUNS) {
            let op = Splice::InsertAfter {
                anchor: LeafHandle(first),
                count,
            };
            let (r, ns) = time(|| self.scheme.splice(op));
            if rec.edit(&r, ns) {
                let new: Vec<u64> = r
                    .expect("checked")
                    .into_inserted()
                    .iter()
                    .map(|h| h.0)
                    .collect();
                if new.len() != count {
                    rec.check(
                        "insert run",
                        Err(format!("{} of {count} handles", new.len())),
                    );
                }
                self.model.insert_after(first, &new);
            }
        } else {
            let op = Splice::DeleteRun {
                first: LeafHandle(first),
                count,
            };
            let (r, ns) = time(|| self.scheme.splice(op));
            if rec.edit(&r, ns) {
                self.model.run_from(first, count, &mut self.run);
                let deleted = r.as_ref().map(SpliceResult::deleted).unwrap_or(0);
                if deleted != self.run.len() {
                    rec.check(
                        "delete run",
                        Err(format!(
                            "deleted {deleted}, the model expects {}",
                            self.run.len()
                        )),
                    );
                }
                for &h in &self.run {
                    self.model.delete(h);
                }
            }
        }
    }

    /// Walk `SCAN_STEPS` handles with `next_in_order` + `label_of`.
    fn order_scan(&mut self, rec: &mut Recorder) {
        let start = self.model.random_live(&mut self.rng);
        let scheme = &self.scheme;
        let scan = &mut self.scan;
        scan.clear();
        let (r, ns) = time(|| -> ltree::Result<()> {
            let mut h = Some(LeafHandle(start));
            while let Some(cur) = h {
                if scan.len() == SCAN_STEPS {
                    break;
                }
                scan.push((cur.0, scheme.label_of(cur)?));
                h = scheme.next_in_order(cur);
            }
            Ok(())
        });
        if rec.query(&r, ns) {
            rec.check("order scan", check_scan(&self.model, start, &self.scan));
        }
    }
}

/// The scan must follow the model's live order, and live labels must
/// strictly increase along it.
fn check_scan(model: &ListModel, start: u64, scan: &[(u64, u128)]) -> Result<(), String> {
    match_stream(model, Some(start), scan.iter().map(|&(h, _)| h), false)?;
    let mut prev: Option<u128> = None;
    for &(h, l) in scan {
        if model.state(h) != Some(true) {
            continue;
        }
        if prev.is_some_and(|p| p >= l) {
            return Err(format!(
                "label {l} of {h} does not exceed its predecessor's"
            ));
        }
        prev = Some(l);
    }
    Ok(())
}

/// A fresh list of `ITEMS` and its model; the hot region's place and the
/// operations follow from the seed and the epoch.
fn build(s: &Settings, epoch: usize) -> Result<(Stream, f64), String> {
    let reg = layer::registry();
    let (built, ns) = time(|| -> ltree::Result<_> {
        let mut scheme = reg.build(&spec(s))?;
        let handles = scheme.bulk_build(ITEMS)?;
        Ok((scheme, handles))
    });
    let (scheme, handles) = built.map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(s.seed ^ 0x5EED_0002 ^ ((epoch as u64) << 32));
    let hot_len = (ITEMS as f64 * HOT_SHARE) as usize;
    let hot_start = rng.gen_range(0..ITEMS - hot_len);
    let ids: Vec<u64> = handles.iter().map(|h| h.0).collect();
    let stream = Stream {
        scheme,
        model: ListModel::new(&ids, hot_start..hot_start + hot_len),
        rng,
        run: Vec::new(),
        scan: Vec::with_capacity(SCAN_STEPS),
    };
    Ok((stream, ns as f64 / 1e9))
}

/// Run the workload; `layers` receives the per-layer metrics when tracing.
pub fn run(s: &Settings, layers: &mut Metrics) -> Result<(Recorder, Metrics), String> {
    let mut rec = Recorder::default();
    let (run, probes) = run_epochs(
        s.seconds,
        &PLAN,
        &mut rec,
        |epoch| build(s, epoch),
        |_| layer::snapshot(),
    )?;
    eprintln!("ltree-stream: {} epochs", run.epochs);
    if let (true, Some((before, after))) = (s.trace, probes) {
        let d = |ops: &[&str]| layer::delta(&before, &after, "ltree", ops);
        let mean = |a: layer::Acc, div: f64| a.total_ns as f64 / a.calls.max(1) as f64 / div;
        let all = layer::snapshot();
        let bulk = layer::delta(&Default::default(), &all, "ltree", &["bulk_build"]);
        let stats = run.counted;
        layers.put("ltree.bulk_build_s", mean(bulk, 1e9), "s");
        layers.put("ltree.splice_us", mean(d(&["splice"]), 1e3), "us");
        layers.put(
            "ltree.insert_after_us",
            mean(d(&["insert_after"]), 1e3),
            "us",
        );
        layers.put("ltree.label_of_ns", mean(d(&["label_of"]), 1.0), "ns");
        layers.put(
            "ltree.next_in_order_ns",
            mean(d(&["next_in_order"]), 1.0),
            "ns",
        );
        layers.put(
            "ltree.relabel_events_per_item",
            stats.relabel_events as f64 / stats.inserts.max(1) as f64,
            "count",
        );
    }
    let e2e = end_to_end(&run, &mut rec);
    Ok((rec, e2e))
}
