//! Peak heap of community detection.
//!
//! `detect_communities` counts the symmetrised co-occurrence graph
//! without the directed graph or its transpose, and sizes its CSR arrays
//! exactly before it fills them. An entry is a 16-bit target and a 16-bit
//! weight id, 4 bytes, while the graph has at most 65 536 nodes and holds
//! at most 65 536 distinct weights (as every shape here does); each
//! distinct weight is stored once. The chain it replaced — the directed
//! graph, its transpose, then their merge — held all three at once, about
//! 2.3–2.6× the undirected CSR; arrays grown by doubling left up to 2×
//! and, on every retrain of a serving daemon, a trail of freed blocks that
//! fragments the heap. A counting global allocator measures the peak and
//! counts every growing `realloc` of a large block, on a
//! `train_sbm`-shaped corpus, a served-fit-shaped corpus and one drain
//! batch of that served world. This binary holds one test, so nothing
//! else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use viralcast::community::Slpa;
use viralcast::graph::cooccurrence::{CooccurrenceGraph, CooccurrenceOptions};
use viralcast::graph::{NodeId, SbmConfig};
use viralcast::pipeline::{detect_communities, InferOptions};
use viralcast::propagation::{Cascade, CascadeSet, PlantedConfig};
use viralcast::{SbmExperiment, SbmExperimentConfig};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Growing `realloc`s to a block of at least [`LARGE`] bytes.
static REGROWN: AtomicUsize = AtomicUsize::new(0);

/// 64 KiB: far above any per-row scratch of these corpora, far below
/// the CSR arrays.
const LARGE: usize = 64 << 10;

/// `System`, plus live and peak byte counts and a count of large blocks
/// grown in place or moved.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size > layout.size() {
                if new_size >= LARGE {
                    REGROWN.fetch_add(1, Ordering::SeqCst);
                }
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one call allocated.
struct Heap {
    /// The most bytes live during the call beyond those live when it
    /// started.
    peak: usize,
    /// Growing `realloc`s to a block of [`LARGE`] bytes or more.
    regrown: usize,
}

/// `f`'s result, and what it allocated.
fn heap_of<T>(f: impl FnOnce() -> T) -> (Heap, T) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    REGROWN.store(0, Ordering::SeqCst);
    let out = f();
    let heap = Heap {
        peak: PEAK.load(Ordering::SeqCst) - base,
        regrown: REGROWN.load(Ordering::SeqCst),
    };
    (heap, out)
}

/// The benchmark's SBM world in the local regime: `nodes` nodes in
/// communities of 40, `train` training cascades.
fn world(nodes: usize, train: usize, held_out: usize) -> SbmExperiment {
    SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes,
                community_size: 40,
                intra_prob: 0.2,
                inter_prob: 0.001,
            },
            planted: PlantedConfig {
                on_topic: 1.2,
                off_topic: 0.02,
                jitter: 0.3,
            },
            cascades: train + held_out,
            train_fraction: train as f64 / (train + held_out) as f64,
            ..SbmExperimentConfig::default()
        },
        1,
    )
}

/// One trainer drain of the served world: 85 held-out cascades cut to
/// their first 80 infections, what a serving daemon's ingest carries.
fn drain_batch(world: &SbmExperiment) -> CascadeSet {
    let heads = world
        .test()
        .cascades()
        .iter()
        .take(85)
        .map(|c| {
            let keep = c.len().min(80);
            Cascade::new(c.infections()[..keep].to_vec()).expect("a prefix of a cascade")
        })
        .collect();
    CascadeSet::new(world.test().node_count(), heads)
}

#[test]
fn communities_allocate_the_graph_once_near_its_size() {
    let options = InferOptions::default();
    let job = world(1000, 400, 400);
    let served = world(2000, 800, 100);
    let batch = drain_batch(&served);
    for (name, train) in [
        ("train_sbm job", job.train()),
        ("served fit", served.train()),
        ("drain batch", &batch),
    ] {
        let (reference, (want, edges, distinct)) = heap_of(|| {
            let directed = CooccurrenceGraph::build(
                train.node_count(),
                &train.node_sequences(),
                CooccurrenceOptions {
                    successor_window: None,
                    min_weight: options.min_cooccurrence_weight,
                },
            );
            let undirected = directed.undirected();
            let partition = Slpa::new(options.slpa).run(&undirected).partition;
            (
                partition,
                undirected.edge_count(),
                undirected.distinct_weights(),
            )
        });
        let (heap, got) = heap_of(|| detect_communities(train, &options));
        assert_eq!(got, want, "{name}: partitions differ");

        // Each entry is a 16-bit target and a 16-bit weight id; each
        // distinct weight is stored once.
        let offsets = (train.node_count() + 1) * size_of::<usize>();
        let csr =
            offsets + edges * (size_of::<u16>() + size_of::<u16>()) + distinct * size_of::<f64>();
        // Exact sizing leaves only the per-call scratch beyond the CSR:
        // 1.35× (train_sbm job), 1.22× (served fit) and 1.28× (drain
        // batch). 32-bit targets or 32-bit ids would read 1.72–1.85×.
        // The bound, 1 524 396 / 7 722 744 / 1 863 936 B on those shapes,
        // is 0.80× the 1.25 times the 6-byte-an-entry CSR it replaced.
        // Arrays grown by doubling reached 1.71× (served fit) and 1.81×
        // (drain batch) of the 12-byte-an-entry CSR of the time.
        let bound = csr * 3 / 2;
        assert!(
            heap.peak <= bound,
            "{name}: peak {} B above 1.5 times the {csr} B undirected CSR",
            heap.peak
        );
        assert!(
            reference.peak > bound,
            "{name}: the directed chain's peak {} B is not above {bound} B, \
             so the allocator counts nothing",
            reference.peak
        );
        // With one `f64` per entry the CSR alone took `edges · 12` bytes;
        // narrow targets and interned weights bring the whole call to
        // 0.41–0.46× of that.
        let per_edge_f64 = offsets + edges * (size_of::<NodeId>() + size_of::<f64>());
        assert!(
            heap.peak < per_edge_f64,
            "{name}: peak {} B not below the {per_edge_f64} B of a CSR with a weight per edge",
            heap.peak
        );
        // Each growing realloc of a large block leaves a freed block of
        // its old size behind; a drain that left them on every batch
        // fragmented a serving daemon's heap by ≈ 0.6 MiB per retrain.
        assert_eq!(
            heap.regrown, 0,
            "{name}: {} large blocks grown by realloc; size the arrays before filling them",
            heap.regrown
        );
    }
}
