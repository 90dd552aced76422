//! The one scan every ranking runs: rows scored a fixed chunk at a time,
//! and one bounded selection over the scores.
//!
//! [`top_k`] hands its caller up to 256 row ids at a time — ascending,
//! every row of the model or only the ones a shard's [`RowBlock`] owns,
//! so a shard never scores a row it does not answer for — and has it
//! score them into a stack buffer. Each score is tested against the
//! current floor with one integer compare on its total-order key (the
//! one [`f64::total_cmp`] orders by); only the rows that beat it pay for
//! the infected-set binary search. Rows arrive in ascending id, so a row
//! whose key equals the floor's ranks after the kept row that set it and
//! is dropped on the same compare.
//!
//! A large scan — rows × score width of at least [`SPLIT_WORK`]
//! multiply-adds — is cut into two contiguous row ranges when a core is
//! free: the calling thread selects from the first, one scoped helper
//! thread from the second, each with its own bounded selection and
//! floor, and the two kept lists are merged under [`rank_order`]. That
//! order is total over distinct node ids and every score is the same
//! bits on either thread, so the answer is the sequential one whatever
//! the thread count or the load. A process-wide count of the threads
//! scanning ([`SCANNING`]) hands out a helper only while fewer of them
//! run than there are cores; under saturation every scan runs alone.
//!
//! Backends whose scores are inner products score a chunk with
//! [`score_rows`]: four rows' dot products side by side, each summed in
//! topic order from `-0.0` — where [`dot`]'s `Sum` starts — so every
//! score is bit-identical to `dot(h, row)`. The row width is a const the
//! compiler unrolls for K = 8 and K = 16 and a runtime value otherwise;
//! the body is the same generic function.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use viralcast_graph::NodeId;
use viralcast_obs as obs;
use viralcast_propagation::dot;

use crate::{rank_order, RowBlock};

/// Rows scored per chunk: 256 scores (2 KiB) and their ids (1 KiB) on
/// the stack.
const CHUNK: usize = 256;

/// Multiply-adds (rows × score width) from which a scan takes a helper
/// thread: about 0.15 ms of scoring on a 2-vCPU Xeon (≈ 0.58 ns per
/// multiply-add there), well above the ≈ 36 µs of CPU a scoped spawn
/// and join cost. A 60 000 × 16 model's predict scan qualifies; a
/// 2 000-row model's never does.
const SPLIT_WORK: usize = 1 << 18;

/// Threads running a large scan right now, helpers included.
static SCANNING: AtomicUsize = AtomicUsize::new(0);

/// The cores this process may run on, asked once: the standard library
/// reads cgroup files on every call (≈ 18 µs on a 2-vCPU Xeon).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One thread's place in [`SCANNING`], given back on drop.
struct Claim;

impl Claim {
    /// The scanning thread itself, always counted.
    fn scan() -> Claim {
        SCANNING.fetch_add(1, Ordering::Relaxed);
        Claim
    }

    /// A helper, granted while fewer threads scan than there are cores.
    fn helper() -> Option<Claim> {
        SCANNING
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cores()).then_some(n + 1)
            })
            .ok()
            .map(|_| Claim)
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        SCANNING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The integer [`f64::total_cmp`] orders by: `a.total_cmp(&b)` is
/// `order_key(a).cmp(&order_key(b))`.
#[inline]
fn order_key(score: f64) -> i64 {
    let bits = score.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The one selection every backend scan feeds: the `top` best rows of
/// `0..node_count` under [`rank_order`], best first — exactly what
/// scoring every row, dropping the `infected` ones (sorted ascending,
/// repeats allowed) and those `owned` does not hold, sorting the rest
/// and truncating would return.
///
/// `score(rows, out)` writes the score of row `rows[i]` into `out[i]`;
/// `rows` ascends and holds only rows `owned` holds. It may run on two
/// threads at once, each over its own rows. `width` is the multiply-adds
/// one row's score costs (the topic count for an inner product); a scan
/// of at least [`SPLIT_WORK`] of them is split in two when a core is
/// free, with the same answer.
///
/// At most `2·top` rows are kept per part: a full buffer is cut back to
/// its best `top` by `select_nth_unstable_by` and the worst survivor's
/// key becomes the floor a later row must beat. Memory follows the rows
/// kept, never `top` itself, so a hostile `top = usize::MAX` costs what
/// a full sort would.
pub fn top_k(
    node_count: usize,
    top: usize,
    infected: &[NodeId],
    owned: Option<&RowBlock>,
    width: usize,
    score: impl Fn(&[NodeId], &mut [f64]) + Sync,
) -> Vec<(NodeId, f64)> {
    if top == 0 {
        return Vec::new();
    }
    let rows = Span::of(node_count, owned);
    if rows.len().saturating_mul(width) < SPLIT_WORK {
        return select(rows, top, infected, &score);
    }
    let _scan = Claim::scan();
    match Claim::helper() {
        Some(_helper) => select_parts(rows, 2, top, infected, &score),
        None => select(rows, top, infected, &score),
    }
}

/// The rows a scan visits, ascending: every row below a bound, or the
/// ones a shard owns.
#[derive(Clone)]
enum Span<'r> {
    All(Range<usize>),
    Listed(&'r [NodeId]),
}

impl<'r> Span<'r> {
    /// The rows of `0..node_count` that `owned` holds, or all of them.
    fn of(node_count: usize, owned: Option<&'r RowBlock>) -> Self {
        match owned {
            Some(block) => Span::Listed(block.rows_below(node_count)),
            None => Span::All(0..node_count),
        }
    }

    fn len(&self) -> usize {
        match self {
            Span::All(range) => range.len(),
            Span::Listed(ids) => ids.len(),
        }
    }

    /// Part `i` of `parts` contiguous parts of near-equal length.
    fn part(&self, i: usize, parts: usize) -> Self {
        let (start, end) = (self.len() * i / parts, self.len() * (i + 1) / parts);
        match self {
            Span::All(range) => Span::All(range.start + start..range.start + end),
            Span::Listed(ids) => Span::Listed(&ids[start..end]),
        }
    }

    /// Calls `visit` on the rows in order, up to [`CHUNK`] at a time.
    fn chunks(self, mut visit: impl FnMut(&[NodeId])) {
        match self {
            Span::Listed(ids) => ids.chunks(CHUNK).for_each(visit),
            Span::All(range) => {
                let mut ids = [NodeId(0); CHUNK];
                for start in range.clone().step_by(CHUNK) {
                    let rows = &mut ids[..CHUNK.min(range.end - start)];
                    for (id, v) in rows.iter_mut().zip(start..) {
                        *id = NodeId::new(v);
                    }
                    visit(rows);
                }
            }
        }
    }
}

/// [`select`] over `parts` contiguous parts of `rows`: the calling
/// thread takes the first, one scoped helper each of the rest (a helper
/// the OS refuses is run here instead), and the kept lists are merged.
/// The parts hold distinct rows and [`rank_order`] is total over them,
/// so the answer is [`select`]'s on the whole span for any `parts`.
fn select_parts<F>(
    rows: Span<'_>,
    parts: usize,
    top: usize,
    infected: &[NodeId],
    score: &F,
) -> Vec<(NodeId, f64)>
where
    F: Fn(&[NodeId], &mut [f64]) + Sync,
{
    if parts <= 1 {
        return select(rows, top, infected, score);
    }
    thread::scope(|s| {
        let helpers: Vec<_> = (1..parts)
            .map(|i| {
                let part = rows.part(i, parts);
                let run = part.clone();
                thread::Builder::new()
                    .spawn_scoped(s, move || select(run, top, infected, score))
                    .map_err(|_| part)
            })
            .collect();
        let started = helpers.iter().filter(|h| h.is_ok()).count();
        obs::metrics()
            .counter("model.scan.helpers")
            .incr(started as u64);
        let mut kept = vec![select(rows.part(0, parts), top, infected, score)];
        for helper in helpers {
            kept.push(match helper {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                Err(part) => select(part, top, infected, score),
            });
        }
        // Each part is sorted: the stable sort merges the runs.
        let mut merged = Vec::with_capacity(kept.iter().map(Vec::len).sum());
        merged.extend(kept.into_iter().flatten());
        merged.sort_by(rank_order);
        merged.truncate(top);
        merged
    })
}

/// The `top` best of `rows` under [`rank_order`], best first, skipping
/// the `infected` ones.
fn select(
    rows: Span<'_>,
    top: usize,
    infected: &[NodeId],
    score: &impl Fn(&[NodeId], &mut [f64]),
) -> Vec<(NodeId, f64)> {
    let mut kept: Vec<(NodeId, f64)> = Vec::new();
    // The least key that can still make the cut. Saturating: a floor at
    // `i64::MAX` lets equal keys through, and the next cut drops them.
    let mut floor = i64::MIN;
    let mut chunk = [0.0; CHUNK];
    rows.chunks(|rows| {
        let scores = &mut chunk[..rows.len()];
        score(rows, scores);
        for (&v, &s) in rows.iter().zip(scores.iter()) {
            if order_key(s) < floor || infected.binary_search(&v).is_ok() {
                continue;
            }
            kept.push((v, s));
            if kept.len() == top.saturating_mul(2) {
                kept.select_nth_unstable_by(top - 1, rank_order);
                kept.truncate(top);
                floor = order_key(kept[top - 1].1).saturating_add(1);
            }
        }
    });
    kept.sort_unstable_by(rank_order);
    kept.truncate(top);
    kept
}

/// Scores `rows` of the row-major `matrix`, whose rows are `h.len()`
/// wide: `out[i]` is `dot(h, row rows[i])` bit for bit, and `-0.0` (the
/// empty sum) when `h` is empty.
pub(crate) fn score_rows(h: &[f64], matrix: &[f64], rows: &[NodeId], out: &mut [f64]) {
    let k = h.len();
    // An unsharded chunk is a run of consecutive ids: one slice of
    // `matrix`, walked without looking each id up.
    let first = rows.first().map_or(0, |v| v.index());
    if rows
        .last()
        .is_some_and(|v| v.index() - first + 1 == rows.len())
    {
        let run = &matrix[first * k..(first + rows.len()) * k];
        by_width(h, Rows::Run(run), out);
    } else {
        by_width(h, Rows::Gather(matrix, rows), out);
    }
}

/// Where [`dots`] finds its rows: a contiguous run of them, or the
/// listed rows of the whole matrix.
#[derive(Clone, Copy)]
enum Rows<'m> {
    Run(&'m [f64]),
    Gather(&'m [f64], &'m [NodeId]),
}

/// [`dots`] at a const width for K = 8 and K = 16, a runtime one
/// otherwise; with no topics every score is the empty sum.
#[inline(always)]
fn by_width(h: &[f64], rows: Rows<'_>, out: &mut [f64]) {
    match h.len() {
        0 => out.fill(-0.0),
        8 => dots(Fixed::<8>, h, rows, out),
        16 => dots(Fixed::<16>, h, rows, out),
        k => dots(k, h, rows, out),
    }
}

/// A row width: a const the compiler unrolls, or a runtime value.
trait Width: Copy {
    fn get(self) -> usize;
}

#[derive(Clone, Copy)]
struct Fixed<const K: usize>;

impl<const K: usize> Width for Fixed<K> {
    #[inline(always)]
    fn get(self) -> usize {
        K
    }
}

impl Width for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// Splits `rows` into quads of rows `width` wide, and the rest, for
/// [`kernel`]. `width` is non-zero.
#[inline(always)]
fn dots(width: impl Width, h: &[f64], rows: Rows<'_>, out: &mut [f64]) {
    let k = width.get();
    let h = &h[..k];
    match rows {
        Rows::Run(run) => {
            let quads = run.chunks_exact(4 * k);
            let rest = quads.remainder().chunks_exact(k);
            let quads = quads.map(|quad| {
                let (r0, quad) = quad.split_at(k);
                let (r1, quad) = quad.split_at(k);
                let (r2, r3) = quad.split_at(k);
                [r0, r1, r2, r3]
            });
            kernel(h, quads, rest, out);
        }
        Rows::Gather(matrix, ids) => {
            let row = |v: &NodeId| &matrix[v.index() * k..][..k];
            let quads = ids.chunks_exact(4);
            let rest = quads.remainder().iter().map(row);
            let quads = quads.map(|q| [row(&q[0]), row(&q[1]), row(&q[2]), row(&q[3])]);
            kernel(h, quads, rest, out);
        }
    }
}

/// The kernel: four rows' sums side by side, each in topic order from
/// `-0.0`, then the `rest` through [`dot`].
#[inline(always)]
fn kernel<'m>(
    h: &[f64],
    quads: impl Iterator<Item = [&'m [f64]; 4]>,
    rest: impl Iterator<Item = &'m [f64]>,
    out: &mut [f64],
) {
    let mut outs = out.chunks_exact_mut(4);
    for ([r0, r1, r2, r3], out) in quads.zip(&mut outs) {
        let mut s = [-0.0; 4];
        for ((((x, a), b), c), d) in h.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            s[0] += x * a;
            s[1] += x * b;
            s[2] += x * c;
            s[3] += x * d;
        }
        out.copy_from_slice(&s);
    }
    for (row, o) in rest.zip(outs.into_remainder()) {
        *o = dot(h, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `top_k` over a fixed score row.
    fn select(scores: &[f64], top: usize) -> Vec<(NodeId, f64)> {
        top_k(scores.len(), top, &[], None, 1, |rows, out| {
            for (o, v) in out.iter_mut().zip(rows) {
                *o = scores[v.index()];
            }
        })
    }

    fn nodes(ranked: &[(NodeId, f64)]) -> Vec<u32> {
        ranked.iter().map(|r| r.0 .0).collect()
    }

    #[test]
    fn shared_comparator_orders_by_score_then_node() {
        let ranked = select(&[0.5, 2.0, 1.0, 1.0], 3);
        assert_eq!(
            ranked,
            vec![(NodeId(1), 2.0), (NodeId(2), 1.0), (NodeId(3), 1.0)]
        );
    }

    #[test]
    fn non_finite_scores_sort_deterministically_without_panicking() {
        let scores = [f64::NEG_INFINITY, f64::NAN, f64::INFINITY, f64::NAN, 1.0];
        // NaN first (ties by node id), then +∞, finite scores, -∞.
        assert_eq!(nodes(&select(&scores, 5)), vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn the_order_key_is_total_cmp() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(u64::MAX),
            f64::from_bits(i64::MAX as u64),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            0.0,
            -0.0,
            1.0,
            -1.0,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} ({:#x}) vs {b:?} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
        assert_eq!(order_key(f64::from_bits(u64::MAX)), i64::MIN);
        assert_eq!(order_key(f64::from_bits(i64::MAX as u64)), i64::MAX);
    }

    /// The keys at both ends of `i64`: a row keyed `i64::MIN` still makes
    /// an unfilled cut, and behind a floor keyed `i64::MAX` (which cannot
    /// be raised by one) the earliest rows still win the tie.
    #[test]
    fn extreme_keys_are_kept_and_cut_exactly() {
        let lowest = f64::from_bits(u64::MAX);
        let highest = f64::from_bits(i64::MAX as u64);
        assert_eq!(nodes(&select(&[1.0, lowest], 2)), vec![0, 1]);
        let scores = [highest, highest, highest, 1.0, highest, highest];
        assert_eq!(nodes(&select(&scores, 2)), vec![0, 1]);
        assert_eq!(nodes(&select(&scores, 1)), vec![0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference `top_k` must equal: filter every row, sort them all
    /// by `rank_order`, truncate.
    fn reference(
        scores: &[f64],
        top: usize,
        infected: &[NodeId],
        owned: Option<&RowBlock>,
    ) -> Vec<(NodeId, u64)> {
        let mut all: Vec<(NodeId, f64)> = scores
            .iter()
            .enumerate()
            .map(|(v, &s)| (NodeId::new(v), s))
            .filter(|(v, _)| !infected.contains(v) && owned.map_or(true, |b| b.contains(*v)))
            .collect();
        all.sort_by(rank_order);
        all.truncate(top);
        bits(&all)
    }

    fn bits(ranked: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
        ranked.iter().map(|&(v, s)| (v, s.to_bits())).collect()
    }

    /// `top_k` is the reference bit for bit, and so is the selection cut
    /// into 2–4 contiguous parts on as many threads: dense ties (four
    /// score values), one score in five NaN / ±∞ / ±0.0, rows laid out
    /// shuffled, ascending (every row beats the floor — the worst case)
    /// and descending (every late row is dropped — the best), across
    /// chunk boundaries and parts shorter than a chunk, with and without
    /// infected rows (one id repeated) and a shard, for every `top`
    /// around `n` and the hostile `usize::MAX`.
    #[test]
    fn top_k_equals_the_sorted_prefix() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(0..700usize);
            let mut shuffled: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_range(0..5) == 0 {
                        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0][rng.gen_range(0..5)]
                    } else {
                        rng.gen_range(0..4) as f64 / 4.0
                    }
                })
                .collect();
            for i in (1..n).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let mut ascending = shuffled.clone();
            ascending.sort_by(f64::total_cmp);
            let descending: Vec<f64> = ascending.iter().rev().copied().collect();
            let mut infected: Vec<NodeId> = (0..rng.gen_range(0..6))
                .map(|_| NodeId::new(rng.gen_range(0..n.max(1))))
                .collect();
            if let Some(&again) = infected.first() {
                infected.push(again);
            }
            infected.sort_unstable();
            let shard = RowBlock::round_robin(n, rng.gen_range(0..3), 3).unwrap();
            for top in [0, 1, 7, n.saturating_sub(1), n, n + 1, 2 * n, usize::MAX] {
                for (order, scores) in [
                    ("shuffled", &shuffled),
                    ("ascending", &ascending),
                    ("descending", &descending),
                ] {
                    for owned in [None, Some(&shard)] {
                        let score = |rows: &[NodeId], out: &mut [f64]| {
                            assert!(owned.is_none_or(|b| rows.iter().all(|&v| b.contains(v))));
                            for (o, v) in out.iter_mut().zip(rows) {
                                *o = scores[v.index()];
                            }
                        };
                        let want = reference(scores, top, &infected, owned);
                        let got = top_k(n, top, &infected, owned, 1, score);
                        assert_eq!(
                            bits(&got),
                            want,
                            "case {case}: n {n}, top {top}, {order}, shard {}",
                            owned.is_some()
                        );
                        for parts in 2..=4 {
                            let rows = Span::of(n, owned);
                            let split = select_parts(rows, parts, top, &infected, &score);
                            assert_eq!(
                                bits(&split),
                                want,
                                "case {case}: n {n}, top {top}, {order}, shard {}, {parts} parts",
                                owned.is_some()
                            );
                        }
                        assert!(
                            got.capacity() <= 2 * n.max(4),
                            "case {case}: n {n}, top {top}, {order}: capacity {} follows `top`, not the rows",
                            got.capacity()
                        );
                    }
                }
            }
        }
    }
}
