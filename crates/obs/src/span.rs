//! Nested wall-clock spans aggregating into a [`StageTimings`] tree.
//!
//! `Span::enter("slpa")` returns a guard; when the guard drops, the
//! elapsed time is added to the node at the current span path of the
//! innermost installed [`Recorder`]. A span opened while no recorder is
//! installed on its thread records nothing. Repeated spans with the same
//! name at the same path accumulate `seconds` and `count`, so a
//! per-level loop produces one node per distinct name, not one per
//! iteration.
//!
//! Recorders nest: installing a second recorder shadows the first until
//! its guard drops, which lets a library (e.g. the hierarchical
//! optimiser) own its private timing tree while the caller owns the
//! surrounding one and grafts the returned subtree in with
//! [`Recorder::attach_child`].
//!
//! Span paths are tracked per thread. The intended pattern — and how the
//! pipeline uses it — is that coordinating code on one thread opens the
//! spans while worker threads report through the (genuinely cross-thread)
//! metrics registry.

use crate::json::JsonValue;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Aggregated wall-clock timings of one stage and its sub-stages.
#[derive(Clone, Debug, PartialEq)]
pub struct StageTimings {
    /// Stage name (one span-path segment).
    pub name: String,
    /// Total seconds across all spans recorded at this node.
    pub seconds: f64,
    /// Number of spans that closed at this node.
    pub count: u64,
    /// Sub-stages, in first-recorded order.
    pub children: Vec<StageTimings>,
}

impl Default for StageTimings {
    fn default() -> Self {
        StageTimings::new("")
    }
}

impl StageTimings {
    /// An empty node.
    pub fn new(name: impl Into<String>) -> Self {
        StageTimings {
            name: name.into(),
            seconds: 0.0,
            count: 0,
            children: Vec::new(),
        }
    }

    /// The direct child with the given name.
    pub fn child(&self, name: &str) -> Option<&StageTimings> {
        self.children.iter().find(|c| c.name == name)
    }

    /// The node at a `/`-free path of child names below this node.
    pub fn find(&self, path: &[&str]) -> Option<&StageTimings> {
        let mut node = self;
        for segment in path {
            node = node.child(segment)?;
        }
        Some(node)
    }

    /// Seconds recorded at a path below this node, `0.0` when absent.
    pub fn seconds_of(&self, path: &[&str]) -> f64 {
        self.find(path).map_or(0.0, |n| n.seconds)
    }

    /// Appends a finished subtree (e.g. a callee's recorder output).
    fn push_child(&mut self, child: StageTimings) {
        self.children.push(child);
    }

    /// Seconds this subtree accounts for: the node's own timed seconds
    /// when it was directly spanned, otherwise the sum over its
    /// children. Grafted recorder roots (and other structural nodes)
    /// carry `count == 0`, so their time lives in the children.
    pub fn subtree_seconds(&self) -> f64 {
        if self.count > 0 {
            self.seconds
        } else {
            self.children.iter().map(|c| c.subtree_seconds()).sum()
        }
    }

    /// Sum of the direct children's subtree seconds — the "accounted
    /// for" part of this stage.
    pub fn child_seconds(&self) -> f64 {
        self.children.iter().map(|c| c.subtree_seconds()).sum()
    }

    /// Adds `elapsed` at `path` below this node, creating nodes as
    /// needed.
    fn record(&mut self, path: &[String], elapsed: f64) {
        let mut node = self;
        for segment in path {
            let pos = match node.children.iter().position(|c| &c.name == segment) {
                Some(i) => i,
                None => {
                    node.children.push(StageTimings::new(segment.clone()));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[pos];
        }
        node.seconds += elapsed;
        node.count += 1;
    }

    /// An indented text rendering of the tree (for examples and the
    /// stderr sink).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if self.count > 0 {
            out.push_str(&format!(
                "  {:.3}s{}",
                self.seconds,
                if self.count > 1 {
                    format!(" (x{})", self.count)
                } else {
                    String::new()
                }
            ));
        } else if !self.children.is_empty() {
            // Structural node (e.g. a grafted recorder root): show the
            // time its subtree accounts for.
            out.push_str(&format!("  Σ {:.3}s", self.subtree_seconds()));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    /// The JSON form used by the run report:
    /// `{"name": …, "seconds": …, "count": …, "children": […]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("name", JsonValue::from(self.name.as_str())),
            ("seconds", JsonValue::from(self.seconds)),
            ("count", JsonValue::from(self.count)),
            (
                "children",
                JsonValue::Arr(self.children.iter().map(StageTimings::to_json).collect()),
            ),
        ])
    }
}

struct RecorderInner {
    root: Mutex<StageTimings>,
}

impl RecorderInner {
    fn record(&self, path: &[String], elapsed: f64) {
        self.root
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(path, elapsed);
    }
}

/// A span-timing collector. Create one per logical run, [install]
/// (Recorder::install) it, run the instrumented code, then take the
/// aggregated tree with [`Recorder::finish`].
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

struct Frame {
    inner: Arc<RecorderInner>,
    path: Vec<String>,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// A recorder whose tree is rooted at `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                root: Mutex::new(StageTimings::new(name)),
            }),
        }
    }

    /// Makes this recorder the span target for the current thread until
    /// the returned guard drops. Installs nest (last installed wins).
    pub fn install(&self) -> RecorderGuard {
        FRAMES.with(|f| {
            f.borrow_mut().push(Frame {
                inner: Arc::clone(&self.inner),
                path: Vec::new(),
            })
        });
        RecorderGuard {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Grafts a finished subtree under this recorder's root (used to
    /// nest a callee's private recorder output).
    pub fn attach_child(&self, child: StageTimings) {
        self.inner
            .root
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_child(child);
    }

    /// The aggregated tree recorded so far.
    pub fn finish(self) -> StageTimings {
        self.inner
            .root
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Uninstalls its recorder from the current thread on drop.
pub struct RecorderGuard {
    inner: Arc<RecorderInner>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        FRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            // Normally ours is on top; be defensive about out-of-order
            // drops rather than panicking inside a Drop.
            if let Some(pos) = frames
                .iter()
                .rposition(|fr| Arc::ptr_eq(&fr.inner, &self.inner))
            {
                frames.remove(pos);
            }
        });
    }
}

/// A named wall-clock span. See the module docs for the pattern.
pub struct Span;

impl Span {
    /// Opens a span; the elapsed time is recorded when the returned
    /// guard drops, if a recorder is installed on this thread.
    pub fn enter(name: impl Into<String>) -> SpanGuard {
        let open = FRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            frames.last_mut().map(|top| {
                top.path.push(name.into());
                (Arc::clone(&top.inner), top.path.clone(), Instant::now())
            })
        });
        SpanGuard { open }
    }
}

/// Records its span's elapsed time on drop.
pub struct SpanGuard {
    /// The recorder, the span's path in it and its start; `None` when no
    /// recorder was installed at `enter`.
    open: Option<(Arc<RecorderInner>, Vec<String>, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((target, path, start)) = self.open.take() else {
            return;
        };
        let elapsed = start.elapsed().as_secs_f64();
        FRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            if let Some(top) = frames.last_mut() {
                if Arc::ptr_eq(&top.inner, &target) && top.path.last() == path.last() {
                    top.path.pop();
                }
            }
        });
        target.record(&path, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_a_tree() {
        let recorder = Recorder::new("run");
        {
            let _g = recorder.install();
            {
                let _a = Span::enter("outer");
                let _b = Span::enter("inner");
            }
            let _c = Span::enter("sibling");
        }
        let tree = recorder.finish();
        assert_eq!(tree.name, "run");
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].name, "outer");
        assert_eq!(tree.children[0].children[0].name, "inner");
        assert_eq!(tree.children[1].name, "sibling");
        assert!(tree.seconds_of(&["outer", "inner"]) > 0.0);
        assert_eq!(tree.seconds_of(&["missing"]), 0.0);
    }

    #[test]
    fn repeated_spans_aggregate() {
        let recorder = Recorder::new("run");
        {
            let _g = recorder.install();
            for _ in 0..3 {
                let _s = Span::enter("stage");
            }
        }
        let tree = recorder.finish();
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].count, 3);
    }

    #[test]
    fn inner_recorder_shadows_outer() {
        let outer = Recorder::new("outer");
        let inner = Recorder::new("inner");
        {
            let _og = outer.install();
            let _outer_span = Span::enter("before");
            {
                let _ig = inner.install();
                let _s = Span::enter("callee");
            }
        }
        let inner_tree = inner.finish();
        assert!(inner_tree.child("callee").is_some());
        let outer_tree = outer.finish();
        assert!(outer_tree.child("callee").is_none());
        assert!(outer_tree.child("before").is_some());
    }

    #[test]
    fn a_span_with_no_recorder_records_nothing() {
        let recorder = Recorder::new("run");
        let orphan = Span::enter("orphan");
        {
            let _g = recorder.install();
            drop(orphan);
            let _s = Span::enter("stage");
        }
        let tree = recorder.finish();
        assert!(tree.child("orphan").is_none());
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].name, "stage");
    }

    #[test]
    fn attach_child_grafts_subtrees() {
        let recorder = Recorder::new("caller");
        let mut subtree = StageTimings::new("callee");
        subtree.seconds = 1.5;
        subtree.count = 1;
        recorder.attach_child(subtree);
        let tree = recorder.finish();
        assert_eq!(tree.seconds_of(&["callee"]), 1.5);
        assert_eq!(tree.child_seconds(), 1.5);
    }

    #[test]
    fn render_and_json_contain_names() {
        let recorder = Recorder::new("run");
        {
            let _g = recorder.install();
            let _a = Span::enter("stage");
        }
        let tree = recorder.finish();
        assert!(tree.render().contains("stage"));
        let json = tree.to_json().render();
        assert!(json.contains("\"name\":\"stage\""), "{json}");
        assert!(json.contains("\"children\":[]"), "{json}");
    }
}
