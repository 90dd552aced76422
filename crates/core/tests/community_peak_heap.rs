//! Peak heap of community detection.
//!
//! `detect_communities` counts the symmetrised co-occurrence graph in one
//! pass. The chain it replaced — the directed graph, its transpose, then
//! their merge — held all three at once, about 2.6–3× the undirected CSR.
//! A counting global allocator measures both on a `train_sbm`-shaped and
//! a served-fit-shaped corpus. This binary holds one test, so nothing
//! else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use viralcast::community::Slpa;
use viralcast::graph::cooccurrence::{CooccurrenceGraph, CooccurrenceOptions};
use viralcast::graph::{NodeId, SbmConfig};
use viralcast::pipeline::{detect_communities, InferOptions};
use viralcast::propagation::PlantedConfig;
use viralcast::{SbmExperiment, SbmExperimentConfig};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, plus live and peak byte counts.
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

/// `f`'s result, and the most bytes live during `f` beyond those live
/// when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (PEAK.load(Ordering::SeqCst) - base, out)
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

#[test]
fn communities_peak_below_twice_the_undirected_graph() {
    let options = InferOptions::default();
    for (name, world) in [
        ("train_sbm job", world(1000, 400, 400)),
        ("served fit", world(2000, 800, 100)),
    ] {
        let train = world.train();
        let (reference_peak, (want, edges)) = peak_of(|| {
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
            (partition, undirected.edge_count())
        });
        let (peak, got) = peak_of(|| detect_communities(train, &options));
        assert_eq!(got, want, "{name}: partitions differ");

        let csr = (train.node_count() + 1) * size_of::<usize>()
            + edges * (size_of::<NodeId>() + size_of::<f64>());
        let bound = 2 * csr;
        // Vec doubling can leave the output arrays up to twice their
        // length, untouched; the directed chain holds two more graphs.
        assert!(
            peak <= bound,
            "{name}: peak {peak} B above twice the {csr} B undirected CSR"
        );
        assert!(
            reference_peak > bound,
            "{name}: the directed chain's peak {reference_peak} B is not above \
             {bound} B, so the allocator counts nothing"
        );
    }
}
