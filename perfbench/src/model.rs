//! The benchmark's own model of an ordered list with tombstones.
//!
//! The model is what the `ltree-stream` and `label-server` checks compare
//! the program against. Every update is O(1) per item it touches: live
//! items form a doubly linked chain, tombstones are unlinked but kept so a
//! scheme that streams them can be told apart from one that invents
//! handles, and dense vectors of live (and hot) items give O(1) random
//! picks.

use std::collections::HashMap;

use ltree::rng::SplitMix64;

/// Share of the list that receives most single inserts, and the share of
/// single inserts that land in it: the repository's skewed-point update
/// profile (`EditProfile::SkewedPoint` in `xmlgen::standard_profiles`),
/// after the paper's uneven insertion rates (§6). Used by `ltree-stream`
/// and `label-server`.
pub const HOT_SHARE: f64 = 0.05;
/// See [`HOT_SHARE`].
pub const HOT_INSERTS: f64 = 0.9;
/// Share of insert and delete runs that delete: the repository's
/// mixed-edit profile (`EditProfile::MixedEdit` in `standard_profiles`).
pub const DELETE_RUNS: f64 = 0.3;
/// Longest run. Lengths are uniform from 1, as in the mixed-edit profile,
/// whose own longest run scales with the sweep's budget; 64 is chosen.
pub const MAX_RUN: usize = 64;

const NIL: u32 = u32::MAX;

struct Node {
    handle: u64,
    prev: u32,
    next: u32,
    /// Position in `live`, `NIL` once deleted.
    live_pos: u32,
    /// Position in `hot`, `NIL` when not hot or deleted.
    hot_pos: u32,
}

/// See the [module docs](self).
pub struct ListModel {
    nodes: Vec<Node>,
    index: HashMap<u64, u32>,
    head: u32,
    live: Vec<u32>,
    hot: Vec<u32>,
}

impl ListModel {
    /// A model of `handles`, in list order; the items at positions
    /// `hot` form the hot region.
    pub fn new(handles: &[u64], hot: std::ops::Range<usize>) -> ListModel {
        let mut m = ListModel {
            nodes: Vec::with_capacity(handles.len() * 2),
            index: HashMap::with_capacity(handles.len() * 2),
            head: NIL,
            live: Vec::with_capacity(handles.len()),
            hot: Vec::new(),
        };
        let mut prev = NIL;
        for (i, &h) in handles.iter().enumerate() {
            prev = m.push_after(prev, h, hot.contains(&i));
        }
        m
    }

    fn push_after(&mut self, prev: u32, handle: u64, hot: bool) -> u32 {
        let id = self.nodes.len() as u32;
        let next = if prev == NIL {
            self.head
        } else {
            self.nodes[prev as usize].next
        };
        self.nodes.push(Node {
            handle,
            prev,
            next,
            live_pos: self.live.len() as u32,
            hot_pos: if hot { self.hot.len() as u32 } else { NIL },
        });
        self.live.push(id);
        if hot {
            self.hot.push(id);
        }
        if prev == NIL {
            self.head = id;
        } else {
            self.nodes[prev as usize].next = id;
        }
        if next != NIL {
            self.nodes[next as usize].prev = id;
        }
        self.index.insert(handle, id);
        id
    }

    fn id(&self, handle: u64) -> u32 {
        *self.index.get(&handle).expect("handle known to the model")
    }

    /// Whether the model has ever seen `handle`, and whether it is live.
    pub fn state(&self, handle: u64) -> Option<bool> {
        self.index
            .get(&handle)
            .map(|&id| self.nodes[id as usize].live_pos != NIL)
    }

    /// A uniformly random live item.
    pub fn random_live(&self, rng: &mut SplitMix64) -> u64 {
        self.nodes[self.live[rng.gen_range(0..self.live.len())] as usize].handle
    }

    /// A random live item of the hot region, or any live item when the
    /// hot region has emptied.
    pub fn random_hot(&self, rng: &mut SplitMix64) -> u64 {
        if self.hot.is_empty() {
            return self.random_live(rng);
        }
        self.nodes[self.hot[rng.gen_range(0..self.hot.len())] as usize].handle
    }

    /// Record `new` (in list order) inserted right after live `anchor`.
    /// New items join the hot region when their anchor is hot.
    pub fn insert_after(&mut self, anchor: u64, new: &[u64]) {
        let mut prev = self.id(anchor);
        let hot = self.nodes[prev as usize].hot_pos != NIL;
        for &h in new {
            prev = self.push_after(prev, h, hot);
        }
    }

    /// The up-to-`count` live items starting at live `first`, in order.
    pub fn run_from(&self, first: u64, count: usize, out: &mut Vec<u64>) {
        out.clear();
        let mut cur = self.id(first);
        while cur != NIL && out.len() < count {
            out.push(self.nodes[cur as usize].handle);
            cur = self.nodes[cur as usize].next;
        }
    }

    /// The live successor of live `h`.
    pub fn next_live(&self, h: u64) -> Option<u64> {
        let next = self.nodes[self.id(h) as usize].next;
        (next != NIL).then(|| self.nodes[next as usize].handle)
    }

    /// Record the deletion of live `h`.
    pub fn delete(&mut self, h: u64) {
        let id = self.id(h);
        let (prev, next, live_pos, hot_pos) = {
            let n = &self.nodes[id as usize];
            (n.prev, n.next, n.live_pos, n.hot_pos)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        self.live.swap_remove(live_pos as usize);
        if let Some(&moved) = self.live.get(live_pos as usize) {
            self.nodes[moved as usize].live_pos = live_pos;
        }
        if hot_pos != NIL {
            self.hot.swap_remove(hot_pos as usize);
            if let Some(&moved) = self.hot.get(hot_pos as usize) {
                self.nodes[moved as usize].hot_pos = hot_pos;
            }
        }
        let n = &mut self.nodes[id as usize];
        n.live_pos = NIL;
        n.hot_pos = NIL;
        n.prev = NIL;
        n.next = NIL;
    }

    /// Live items in list order.
    pub fn live_order(&self) -> impl Iterator<Item = u64> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let n = &self.nodes[cur as usize];
            cur = n.next;
            Some(n.handle)
        })
    }
}

/// Compare a scheme's stream of handles (from `start`, or from the list
/// head when `start` is `None`) against the model's live order. The scheme
/// may stream tombstones the model knows as deleted; it may not skip,
/// reorder or invent live items. `expect_all` demands that the stream
/// covers the rest of the list. Returns a description of the first
/// mismatch.
pub fn match_stream(
    model: &ListModel,
    start: Option<u64>,
    stream: impl IntoIterator<Item = u64>,
    expect_all: bool,
) -> std::result::Result<usize, String> {
    let mut want = match start {
        Some(h) => Some(h),
        None => model.live_order().next(),
    };
    let mut matched = 0usize;
    for h in stream {
        match model.state(h) {
            Some(false) => continue,
            None => return Err(format!("scheme streamed handle {h} the model never saw")),
            Some(true) => {}
        }
        if want != Some(h) {
            return Err(format!(
                "after {matched} matching items the scheme streamed {h}, the model expects {want:?}"
            ));
        }
        matched += 1;
        want = model.next_live(h);
    }
    if expect_all && want.is_some() {
        return Err(format!(
            "the scheme's stream ended after {matched} live items; the model continues with {want:?}"
        ));
    }
    Ok(matched)
}
