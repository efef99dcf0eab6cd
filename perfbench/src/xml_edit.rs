//! `xml-edit`: an XMark-style auction document bound to `ltree(4,2)`
//! through `Document`, edited and queried by one client.
//!
//! Set-up parses the serialised document and binds it. The session mixes
//! fragment inserts, subtree deletes, subtree moves and label-evaluated
//! path queries; this is the paper's own use case and the only workload
//! where `xmldb` does most of the work.

use ltree::gen::{auction_profile, generate, DocProfile};
use ltree::rng::SplitMix64;
use ltree::xml::{parse, to_string, Document, Path, XmlNodeId, XmlTree};
use ltree::{DynScheme, Instrumented, OrderedLabeling, SchemeStats};

use crate::layer;
use crate::report::{end_to_end, run_epochs, time, Metrics, Plan, Recorder, Session};
use crate::Settings;

/// Independently generated pieces the document is made of. Each piece
/// adds one section of every kind below under the one `site` root, so the
/// document's make-up is an average over many draws and barely depends on
/// the seed (a single generated auction document is dominated by whatever
/// its first few hundred elements happened to be).
const PIECES: usize = 40;
/// The auction sections of one piece and their element counts; 500 per
/// piece, 20 000 elements in all.
const SECTIONS: [(&str, usize); 4] = [
    ("regions", 200),
    ("people", 100),
    ("open_auctions", 120),
    ("categories", 80),
];
/// Fragments generated up front and inserted round-robin.
const FRAGMENTS: usize = 32;
/// Largest subtree a delete or move picks.
const MAX_SUBTREE: usize = 200;
/// The label-evaluated path queries, used round-robin. An odd number of
/// them puts the median query inside one path's own spread of times
/// rather than on the step between two paths.
const QUERIES: [&str; 7] = [
    "/site/regions/africa/item/name",
    "//item/description//text",
    "//person/profile/interest",
    "//open_auction/bidder/increase",
    "//category/name",
    "//parlist/listitem",
    "//item/location",
];
/// Operations per round; runs are whole rounds.
const ROUND_OPS: usize = 20;
/// Set-ups, warm-up and sampled rounds per epoch, and the counted epochs.
const PLAN: Plan = Plan {
    setups: 4,
    warmup: 10,
    rounds: 250,
    counted: 2,
};

type Doc = Document<Box<dyn DynScheme>>;

fn spec(s: &Settings) -> String {
    match (s.trace, s.fault) {
        (true, _) => "layer(ltree(4,2),name=ltree)".into(),
        (false, Some(f)) => format!("layer(ltree(4,2),fault={})", f.name()),
        (false, None) => "ltree(4,2)".into(),
    }
}

/// Time `f`, as an `xmldb` span when tracing.
fn call<R>(trace: bool, op: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    if trace {
        time(|| layer::span("xmldb", op, f))
    } else {
        time(f)
    }
}

struct Edit<'a> {
    doc: Doc,
    trace: bool,
    rng: SplitMix64,
    /// Every element id handed out so far (some since deleted).
    pool: Vec<XmlNodeId>,
    fragments: &'a [XmlTree],
    paths: &'a [Path],
    next_fragment: usize,
    next_query: usize,
    target: usize,
    /// `ltree` label reads made inside path queries (traced runs).
    query_label_reads: u64,
}

impl Session for Edit<'_> {
    fn round(&mut self, rec: &mut Recorder) {
        // The shares are chosen: queries 40 %, and edits that keep the
        // element count at its start value, so the document and every
        // query's cost keep their size over an epoch.
        for _ in 0..ROUND_OPS {
            let draw = self.rng.next_f64();
            if draw < 0.40 {
                if self.doc.element_count() < self.target {
                    self.insert(rec);
                } else {
                    self.delete(rec);
                }
            } else if draw < 0.60 {
                self.move_op(rec);
            } else {
                self.query(rec);
            }
        }
    }

    fn stats(&self) -> SchemeStats {
        self.doc.scheme().scheme_stats()
    }

    fn mem_per_item(&self) -> f64 {
        let scheme = self.doc.scheme();
        scheme.memory_bytes() as f64 / scheme.live_len().max(1) as f64
    }

    fn finish(self, rec: &mut Recorder) {
        rec.check("document regions", check_regions(&self.doc));
    }
}

impl Edit<'_> {
    fn depth(&self, mut id: XmlNodeId) -> u32 {
        let mut d = 0;
        while let Ok(Some(p)) = self.doc.tree().parent(id) {
            d += 1;
            id = p;
        }
        d
    }

    /// The ancestor of `id` (or `id` itself) at depth `at`, when `id` is
    /// at least that deep.
    fn ancestor_at(&self, id: XmlNodeId, at: u32) -> Option<XmlNodeId> {
        let mut d = self.depth(id);
        let mut cur = id;
        if d < at {
            return None;
        }
        while d > at {
            cur = self.doc.tree().parent(cur).ok()??;
            d -= 1;
        }
        Some(cur)
    }

    fn random_element(&mut self) -> XmlNodeId {
        loop {
            let id = self.pool[self.rng.gen_range(0..self.pool.len())];
            if self.doc.tree().contains(id) {
                return id;
            }
        }
    }

    /// A subtree root at depth 3 of at most `MAX_SUBTREE` elements.
    fn random_subtree(&mut self) -> Option<XmlNodeId> {
        for _ in 0..64 {
            let id = self.random_element();
            let Some(root) = self.ancestor_at(id, 3) else {
                continue;
            };
            let size = self
                .doc
                .tree()
                .dfs(root)
                .map(|v| v.len())
                .unwrap_or(usize::MAX);
            if size <= MAX_SUBTREE {
                return Some(root);
            }
        }
        None
    }

    fn insert(&mut self, rec: &mut Recorder) {
        let id = self.random_element();
        let at = self.rng.gen_range(1..4) as u32;
        let parent = self.ancestor_at(id, at).unwrap_or(id);
        let index = self.rng.gen_range(0..4);
        let fragments = self.fragments;
        let fragment = &fragments[self.next_fragment];
        self.next_fragment = (self.next_fragment + 1) % self.fragments.len();
        let doc = &mut self.doc;
        let (r, ns) = call(self.trace, "insert_fragment", || {
            doc.insert_fragment(parent, index, fragment)
        });
        if rec.edit(&r, ns) {
            self.pool.extend(r.expect("checked"));
        }
    }

    fn delete(&mut self, rec: &mut Recorder) {
        let Some(root) = self.random_subtree() else {
            return self.query(rec);
        };
        let doc = &mut self.doc;
        let (r, ns) = call(self.trace, "delete_subtree", || doc.delete_subtree(root));
        rec.edit(&r, ns);
    }

    fn move_op(&mut self, rec: &mut Recorder) {
        let Some(src) = self.random_subtree() else {
            return self.query(rec);
        };
        let mut dst = None;
        for _ in 0..64 {
            let id = self.random_element();
            let at = self.rng.gen_range(1..4) as u32;
            let cand = self.ancestor_at(id, at).unwrap_or(id);
            // The destination must not lie inside the moved subtree.
            let mut cur = Some(cand);
            while let Some(c) = cur {
                if c == src {
                    break;
                }
                cur = self.doc.tree().parent(c).ok().flatten();
            }
            if cur.is_none() {
                dst = Some(cand);
                break;
            }
        }
        let Some(dst) = dst else {
            return self.query(rec);
        };
        let index = self.rng.gen_range(0..4);
        let doc = &mut self.doc;
        let (r, ns) = call(self.trace, "move_subtree", || {
            doc.move_subtree(src, dst, index)
        });
        rec.edit(&r, ns);
    }

    fn query(&mut self, rec: &mut Recorder) {
        let paths = self.paths;
        let path = &paths[self.next_query];
        self.next_query = (self.next_query + 1) % self.paths.len();
        let reads_before = self.trace.then(|| layer::calls("ltree", "label_of"));
        let doc = &self.doc;
        let (r, ns) = call(self.trace, "query", || path.eval_labeled(doc));
        if let Some(before) = reads_before {
            self.query_label_reads += layer::calls("ltree", "label_of") - before;
        }
        if rec.query(&r, ns) {
            let got = r.expect("checked");
            let check = match path.eval_navigational(doc) {
                Ok(want) if want == got => Ok(()),
                Ok(want) => Err(format!(
                    "{path}: labels give {} elements, navigation {}",
                    got.len(),
                    want.len()
                )),
                Err(e) => Err(format!("{path}: navigation failed: {e}")),
            };
            rec.check("path query", check);
        }
    }
}

/// The benchmark's own DFS over the document, as an Euler tour: the begin
/// label of each element on entering it and its end label on leaving it
/// must strictly increase along the tour. That holds exactly when begin
/// labels follow document order, every child's region sits strictly
/// inside its parent's and sibling regions are disjoint.
fn check_regions(doc: &Doc) -> Result<(), String> {
    let tree = doc.tree();
    let Some(root) = tree.root() else {
        return Ok(());
    };
    // `Some(end)`: leaving the element, whose end label is `end`.
    let mut stack: Vec<(XmlNodeId, Option<u128>)> = vec![(root, None)];
    let mut prev: Option<u128> = None;
    while let Some((id, leaving)) = stack.pop() {
        let label = match leaving {
            Some(end) => end,
            None => {
                let (begin, end) = doc.span(id).map_err(|e| format!("span of {id:?}: {e}"))?;
                stack.push((id, Some(end)));
                let children = tree.child_elements(id).map_err(|e| e.to_string())?;
                stack.extend(children.into_iter().rev().map(|c| (c, None)));
                begin
            }
        };
        if prev.is_some_and(|p| p >= label) {
            let which = if leaving.is_some() { "end" } else { "begin" };
            return Err(format!(
                "{which} label of {id:?} does not exceed the label before it on the tour"
            ));
        }
        prev = Some(label);
    }
    Ok(())
}

/// The serialised input document.
fn document(seed: u64) -> Result<String, String> {
    let mut rng = SplitMix64::new(seed);
    let (mut doc, root) = XmlTree::with_root("site");
    for _ in 0..PIECES {
        for (section, n) in SECTIONS {
            let profile = DocProfile {
                root: section,
                ..auction_profile(n)
            };
            let part = generate(&profile, rng.next_u64());
            doc.graft(root, usize::MAX, &part)
                .map_err(|e| e.to_string())?;
        }
    }
    to_string(&doc).map_err(|e| e.to_string())
}

fn fragments(seed: u64) -> Vec<XmlTree> {
    (0..FRAGMENTS)
        .map(|i| {
            let n = 2 + (i * 7) % 23;
            let profile = DocProfile {
                root: "item",
                ..auction_profile(n)
            };
            generate(&profile, seed ^ (0xF0 + i as u64))
        })
        .collect()
}

/// Run the workload; `layers` receives the per-layer metrics when tracing.
pub fn run(s: &Settings, layers: &mut Metrics) -> Result<(Recorder, Metrics), String> {
    let reg = layer::registry();
    let text = document(s.seed)?;
    let fragments = fragments(s.seed);
    let paths = QUERIES
        .iter()
        .map(|q| Path::parse(q).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let build = |epoch: usize| -> Result<(Edit, f64), String> {
        let scheme = reg.build(&spec(s)).map_err(|e| e.to_string())?;
        let (doc, ns) = time(|| -> ltree::xml::error::Result<Doc> {
            let (tree, _) = call(s.trace, "parse", || parse(&text));
            let (doc, _) = call(s.trace, "bind", || Document::from_tree(tree?, scheme));
            doc
        });
        let doc = doc.map_err(|e| e.to_string())?;
        let edit = Edit {
            pool: doc.tree().all_elements(),
            target: doc.element_count(),
            doc,
            trace: s.trace,
            rng: SplitMix64::new(s.seed ^ 0x5EED_0001 ^ ((epoch as u64) << 32)),
            fragments: &fragments,
            paths: &paths,
            next_fragment: 0,
            next_query: 0,
            query_label_reads: 0,
        };
        Ok((edit, ns as f64 / 1e9))
    };
    let mut rec = Recorder::default();
    let probe = |e: &Edit| (layer::snapshot(), e.query_label_reads);
    let (run, probes) = run_epochs(s.seconds, &PLAN, &mut rec, build, probe)?;
    eprintln!("xml-edit: {} epochs", run.epochs);

    if let (true, Some(((before, reads0), (after, reads1)))) = (s.trace, probes) {
        let xml = |op: &str, div: f64| {
            let a = layer::delta(&before, &after, "xmldb", &[op]);
            a.self_ns as f64 / a.calls.max(1) as f64 / div
        };
        let setup = |op: &str| {
            let a = layer::delta(&Default::default(), &layer::snapshot(), "xmldb", &[op]);
            a.self_ns as f64 / a.calls.max(1) as f64 / 1e9
        };
        let queries = layer::delta(&before, &after, "xmldb", &["query"]).calls;
        layers.put("xmldb.parse_s", setup("parse"), "s");
        layers.put("xmldb.bind_s", setup("bind"), "s");
        layers.put(
            "xmldb.insert_fragment_self_us",
            xml("insert_fragment", 1e3),
            "us",
        );
        layers.put(
            "xmldb.delete_subtree_self_us",
            xml("delete_subtree", 1e3),
            "us",
        );
        layers.put("xmldb.move_subtree_self_us", xml("move_subtree", 1e3), "us");
        layers.put("xmldb.query_self_us", xml("query", 1e3), "us");
        layers.put(
            "ltree.label_reads_per_query",
            (reads1 - reads0) as f64 / queries.max(1) as f64,
            "count",
        );
    }
    let e2e = end_to_end(&run, &mut rec);
    Ok((rec, e2e))
}
