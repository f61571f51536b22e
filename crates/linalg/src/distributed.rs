//! Partitioned CSR matvec over the multi-process shard backend.
//!
//! [`plan_shards`] splits a graph's CSR structure along a node
//! partition (an edge-cut, typically from `socmix-community`) into
//! per-shard blocks: each shard owns an ascending set of global rows,
//! a local CSR whose columns index an ascending *gathered input list*
//! (the global columns its rows touch), and nothing else. The blocks
//! are shipped once to the worker processes of a
//! [`socmix_par::shard::ShardGroup`]; every apply round then exchanges
//! only the gathered input slices and the per-row sums.
//!
//! [`DistributedOp`] wraps a plan plus a live group as an ordinary
//! [`LinearOp`]/[`MultiLinearOp`], so Lanczos, power iteration, the
//! batch engine, and the TVD probes run unmodified on either backend.
//!
//! # Bit-for-bit determinism
//!
//! The sharded result is **bitwise identical** to the shared-memory
//! exact kernels at every shard count:
//!
//! - the parent computes the scaled vector `z[i] = x[i] · inv[i]`
//!   exactly as the local kernel does (same multiply, same rounding),
//! - each shard's input list is ascending in global id, so the column
//!   remap is monotone and every row accumulates its neighbors in the
//!   exact storage order of the global CSR,
//! - workers sum `f64`s sequentially per row — no reassociation — and
//!   the symmetric finisher (`· inv[i]`) is applied parent-side as the
//!   same final multiply.
//!
//! The cross-shard determinism tests assert this equality on the whole
//! fixture catalog.

use crate::kernel::{self, Real};
use crate::multivec::MultiLinearOp;
use crate::op::{inv_scale, LinearOp};
use crate::workspace::with_scratch;
use socmix_graph::Graph;
use socmix_obs::Counter;
use socmix_par::shard::{frame, ShardError, ShardGroup, ShardSpec};
use std::sync::{Arc, Mutex};

/// Matvec rounds routed through the process-sharded backend.
static DIST_MATVECS: Counter = Counter::new("linalg.matvec.dist");
/// Batched matvec rounds routed through the process-sharded backend.
static DIST_MULTI: Counter = Counter::new("linalg.matvec.dist_multi");

/// One shard's slice of the partitioned CSR structure.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ShardPart {
    /// Global row ids owned by this shard, ascending.
    pub rows: Vec<u32>,
    /// Global column ids this shard's rows reference, ascending and
    /// deduplicated — the gather list for the input slice.
    pub inputs: Vec<u32>,
    /// Local CSR row offsets (`rows.len() + 1` entries).
    pub offsets: Vec<usize>,
    /// Local CSR columns: positions into `inputs`.
    pub targets: Vec<u32>,
}

/// A partitioned CSR structure ready for [`DistributedOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards (= parts, some possibly empty).
    pub shards: usize,
    /// FNV-1a fingerprint of (structure, labels, shard count); workers
    /// cache loaded blocks by it.
    pub fingerprint: u64,
    /// Per-shard blocks.
    pub parts: Vec<ShardPart>,
    /// Edges crossing between shards (each undirected edge once) —
    /// the communication-volume driver.
    pub edge_cut: usize,
}

/// The contiguous `k`-way labeling `label(v) = ⌊v·k/n⌋` (mirrors
/// `socmix-community`'s `Partition::contiguous`, which this crate
/// cannot depend on). Labels stay `< k` even when `k > n`, so a plan
/// built from them always has exactly `k` parts (trailing ones empty).
pub fn contiguous_labels(n: usize, k: usize) -> Vec<u32> {
    assert!(k >= 1, "need at least one part");
    if n == 0 {
        return Vec::new();
    }
    (0..n).map(|v| (v * k / n) as u32).collect()
}

/// Splits `g`'s CSR structure along `labels` into `shards` blocks.
///
/// Every label must be `< shards`; parts may be empty. The per-row
/// column remap (global id → position in the ascending input list) is
/// monotone, so each local row accumulates in the exact storage order
/// of the global CSR — the root of the bitwise-determinism guarantee.
pub fn plan_shards(g: &Graph, labels: &[u32], shards: usize) -> ShardPlan {
    assert_eq!(labels.len(), g.num_nodes(), "one label per node");
    assert!(shards >= 1, "need at least one shard");
    let offsets = g.offsets();
    let targets = g.raw_targets();
    let mut parts: Vec<ShardPart> = vec![ShardPart::default(); shards];
    for (v, &l) in labels.iter().enumerate() {
        assert!(
            (l as usize) < shards,
            "label {l} out of range for {shards} shards"
        );
        parts[l as usize].rows.push(v as u32);
    }
    for part in &mut parts {
        let mut cols: Vec<u32> = Vec::new();
        for &r in &part.rows {
            let r = r as usize;
            cols.extend_from_slice(&targets[offsets[r]..offsets[r + 1]]);
        }
        cols.sort_unstable();
        cols.dedup();
        part.inputs = cols;
        part.offsets.push(0);
        for &r in &part.rows {
            let r = r as usize;
            for &c in &targets[offsets[r]..offsets[r + 1]] {
                // ascending input list ⇒ monotone remap: local order
                // per row equals global storage order.
                let li = part
                    .inputs
                    .binary_search(&c)
                    .expect("column present in its own gather list");
                part.targets.push(li as u32);
            }
            part.offsets.push(part.targets.len());
        }
    }
    let mut edge_cut = 0usize;
    for (v, &lv) in labels.iter().enumerate() {
        for &u in &targets[offsets[v]..offsets[v + 1]] {
            if (u as usize) > v && labels[u as usize] != lv {
                edge_cut += 1;
            }
        }
    }
    let mut h = Fnv::new();
    h.write_u64(g.num_nodes() as u64);
    h.write_u64(targets.len() as u64);
    h.write_u64(shards as u64);
    h.write(frame::usizes_as_bytes(offsets));
    h.write(frame::u32s_as_bytes(targets));
    h.write(frame::u32s_as_bytes(labels));
    ShardPlan {
        shards,
        fingerprint: h.finish(),
        parts,
        edge_cut,
    }
}

/// FNV-1a, the workspace's standard content fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Which final multiply the operator applies when scattering row sums
/// back into the global output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Finisher {
    /// `P = D⁻¹A` (row-vector convention): `y[j] = Σ z[i]`, no
    /// finisher — the scaling already happened on the input side.
    Walk,
    /// `S = D^{-1/2}AD^{-1/2}`: `y[i] = (Σ z[j]) · inv[i]`.
    Symmetric,
}

/// Reusable per-operator buffers for the gather/exchange/scatter
/// round. One lock per apply; rounds are serialized by the group's
/// socket mutex anyway.
#[derive(Default)]
struct DistScratch {
    z: Vec<f64>,
    ins: Vec<Vec<f64>>,
    outs: Vec<Vec<f64>>,
}

/// A walk operator applied across worker processes.
///
/// Trait-interchangeable with [`crate::WalkOp`] /
/// [`crate::SymmetricWalkOp`]: same [`LinearOp`] / [`MultiLinearOp`]
/// surface, bitwise-identical results. Construction ships the CSR
/// blocks to the worker group (cached by fingerprint, so rebuilding an
/// operator over the same graph re-sends nothing).
pub struct DistributedOp<'g> {
    graph: &'g Graph,
    plan: ShardPlan,
    group: Arc<ShardGroup>,
    /// `1/deg` (walk) or `1/√deg` (symmetric); 0 for isolated nodes.
    inv_scale: Vec<f64>,
    finisher: Finisher,
    scratch: Mutex<DistScratch>,
}

impl<'g> DistributedOp<'g> {
    /// Sharded `P = D⁻¹A` over the edge-cut `labels` (one label per
    /// node, each `< shards`).
    pub fn walk(graph: &'g Graph, labels: &[u32], shards: usize) -> Result<Self, ShardError> {
        Self::with_finisher(graph, labels, shards, Finisher::Walk)
    }

    /// Sharded `S = D^{-1/2}AD^{-1/2}` over the edge-cut `labels`.
    pub fn symmetric(graph: &'g Graph, labels: &[u32], shards: usize) -> Result<Self, ShardError> {
        Self::with_finisher(graph, labels, shards, Finisher::Symmetric)
    }

    fn with_finisher(
        graph: &'g Graph,
        labels: &[u32],
        shards: usize,
        finisher: Finisher,
    ) -> Result<Self, ShardError> {
        let group = ShardGroup::obtain(shards)?;
        let plan = plan_shards(graph, labels, shards);
        let specs: Vec<ShardSpec<'_>> = plan
            .parts
            .iter()
            .map(|p| ShardSpec {
                fingerprint: plan.fingerprint,
                rows: p.rows.len(),
                inputs: p.inputs.len(),
                offsets: &p.offsets,
                targets: &p.targets,
            })
            .collect();
        group.load(&specs)?;
        Ok(DistributedOp {
            graph,
            plan,
            group,
            inv_scale: inv_scale(graph, finisher == Finisher::Symmetric),
            finisher,
            scratch: Mutex::new(DistScratch::default()),
        })
    }

    /// The partition plan in force (edge cut, per-shard blocks).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The worker group this operator exchanges rounds with.
    pub fn group(&self) -> &Arc<ShardGroup> {
        &self.group
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Fallible apply: `y = Op · x` through the worker processes,
    /// surfacing shard failures as typed errors instead of falling
    /// back. The infallible [`LinearOp::apply`] wraps this with a
    /// local-kernel fallback.
    pub fn try_apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), ShardError> {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        let mut s = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let DistScratch { z, ins, outs } = &mut *s;
        // z[i] = x[i]·inv[i]: the exact multiply (and rounding) of the
        // local exact kernel.
        z.clear();
        z.extend(x.iter().zip(&self.inv_scale).map(|(xi, inv)| xi * inv));
        ins.resize(self.plan.shards, Vec::new());
        outs.resize(self.plan.shards, Vec::new());
        for (buf, part) in ins.iter_mut().zip(&self.plan.parts) {
            buf.clear();
            buf.extend(part.inputs.iter().map(|&gid| z[gid as usize]));
        }
        self.group.apply(self.plan.fingerprint, ins, outs)?;
        self.scatter(outs, y, 1, 1)?;
        DIST_MATVECS.incr();
        Ok(())
    }

    /// Fallible batched apply over row-major blocks (`stride` doubles
    /// per row, first `width` columns active).
    pub fn try_apply_multi(
        &self,
        xs: &[f64],
        ys: &mut [f64],
        stride: usize,
        width: usize,
    ) -> Result<(), ShardError> {
        let n = self.dim();
        assert!(xs.len() >= n * stride && ys.len() >= n * stride);
        assert!(width <= stride);
        if width == 0 {
            return Ok(());
        }
        let mut s = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let DistScratch { ins, outs, .. } = &mut *s;
        ins.resize(self.plan.shards, Vec::new());
        outs.resize(self.plan.shards, Vec::new());
        // Width-packed gather with the scaling folded in: workers sum
        // already-scaled rows, which is the exact two-op sequence
        // (multiply-round, add-round) of the local batched kernel's
        // `y[c] += x[c]·d`.
        for (buf, part) in ins.iter_mut().zip(&self.plan.parts) {
            buf.clear();
            buf.reserve(part.inputs.len() * width);
            for &gid in &part.inputs {
                let gid = gid as usize;
                let inv = self.inv_scale[gid];
                let xr = &xs[gid * stride..gid * stride + width];
                buf.extend(xr.iter().map(|&v| v * inv));
            }
        }
        self.group
            .apply_multi(self.plan.fingerprint, width, ins, outs)?;
        self.scatter(outs, ys, stride, width)?;
        DIST_MULTI.incr();
        Ok(())
    }

    /// Scatters per-shard row sums back into the global output,
    /// applying the finisher multiply.
    fn scatter(
        &self,
        outs: &[Vec<f64>],
        ys: &mut [f64],
        stride: usize,
        width: usize,
    ) -> Result<(), ShardError> {
        for (shard, (out, part)) in outs.iter().zip(&self.plan.parts).enumerate() {
            if out.len() != part.rows.len() * width {
                return Err(ShardError::Protocol {
                    shard,
                    message: format!(
                        "expected {} result doubles, got {}",
                        part.rows.len() * width,
                        out.len()
                    ),
                });
            }
            for (li, &gid) in part.rows.iter().enumerate() {
                let gid = gid as usize;
                let fin = match self.finisher {
                    Finisher::Walk => 1.0,
                    Finisher::Symmetric => self.inv_scale[gid],
                };
                let src = &out[li * width..(li + 1) * width];
                let dst = &mut ys[gid * stride..gid * stride + width];
                match self.finisher {
                    Finisher::Walk => dst.copy_from_slice(src),
                    Finisher::Symmetric => {
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d = v * fin;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The shared-memory fallback: the exact single-column kernel run
    /// serially, bitwise identical to what the shard round would have
    /// produced.
    fn apply_local(&self, x: &[f64], y: &mut [f64]) {
        local_apply(self.graph, &self.inv_scale, self.finisher, x, y);
    }

    /// Batched shared-memory fallback (the exact multi-column kernel,
    /// run serially).
    fn apply_local_multi(&self, xs: &[f64], ys: &mut [f64], stride: usize, width: usize) {
        local_apply_multi(
            self.graph,
            &self.inv_scale,
            self.finisher,
            xs,
            ys,
            stride,
            width,
        );
    }
}

/// The fallback's single-column body, free-standing so the
/// bitwise-equality tests can exercise it without a live worker group.
fn local_apply(graph: &Graph, inv_scale: &[f64], finisher: Finisher, x: &[f64], y: &mut [f64]) {
    let n = graph.num_nodes();
    with_scratch(n, |z| {
        for ((zi, xi), inv) in z.iter_mut().zip(x).zip(inv_scale) {
            *zi = xi * inv;
        }
        f64::gather_rows(graph, z, 0..n, y, |j, a| match finisher {
            Finisher::Walk => a,
            Finisher::Symmetric => a * inv_scale[j],
        });
    });
}

/// The fallback's batched body (see [`local_apply`]).
fn local_apply_multi(
    graph: &Graph,
    inv_scale: &[f64],
    finisher: Finisher,
    xs: &[f64],
    ys: &mut [f64],
    stride: usize,
    width: usize,
) {
    let n = graph.num_nodes();
    let ys = &mut ys[..n * stride];
    kernel::gather_rows_multi_f64(graph, inv_scale, xs, stride, width, 0..n, ys);
    if finisher == Finisher::Symmetric {
        for (yr, &fin) in ys.chunks_mut(stride).zip(inv_scale) {
            for yc in &mut yr[..width] {
                *yc *= fin;
            }
        }
    }
}

impl LinearOp for DistributedOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        match self.try_apply(x, y) {
            Ok(()) => {}
            Err(e) => {
                socmix_obs::warn_once!(
                    "shard",
                    "sharded matvec failed ({e}); falling back to the shared-memory kernel"
                );
                self.apply_local(x, y);
            }
        }
    }
}

impl MultiLinearOp for DistributedOp<'_> {
    fn apply_multi_raw(&self, xs: &[f64], ys: &mut [f64], stride: usize, width: usize) {
        match self.try_apply_multi(xs, ys, stride, width) {
            Ok(()) => {}
            Err(e) => {
                socmix_obs::warn_once!(
                    "shard",
                    "sharded batched matvec failed ({e}); falling back to the \
                     shared-memory kernel"
                );
                self.apply_local_multi(xs, ys, stride, width);
            }
        }
    }
}

/// The auto-route hook used by `WalkOp`/`SymmetricWalkOp`
/// construction: when `SOCMIX_SHARDS > 1`, build a distributed twin
/// over the contiguous edge-cut; on any backend failure warn once and
/// return `None` (the operator keeps its local kernels).
pub(crate) fn auto_route(graph: &Graph, symmetric: bool) -> Option<Box<DistributedOp<'_>>> {
    let shards = socmix_par::shard::configured_shards();
    if shards <= 1 || graph.num_nodes() == 0 {
        return None;
    }
    let labels = contiguous_labels(graph.num_nodes(), shards);
    let built = if symmetric {
        DistributedOp::symmetric(graph, &labels, shards)
    } else {
        DistributedOp::walk(graph, &labels, shards)
    };
    match built {
        Ok(op) => Some(Box::new(op)),
        Err(e) => {
            socmix_obs::warn_once!(
                "shard",
                "SOCMIX_SHARDS={shards} requested but the shard backend is unavailable \
                 ({e}); using shared-memory kernels"
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socmix_graph::GraphBuilder;

    fn web() -> Graph {
        GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (1, 4)]).build()
    }

    #[test]
    fn contiguous_labels_cover_and_bound() {
        let l = contiguous_labels(10, 3);
        assert_eq!(l.len(), 10);
        assert!(l.iter().all(|&x| x < 3));
        for w in l.windows(2) {
            assert!(w[0] <= w[1], "labels must be monotone");
        }
        // more shards than nodes: labels stay in range, parts go empty
        let l = contiguous_labels(2, 5);
        assert!(l.iter().all(|&x| x < 5));
        assert!(contiguous_labels(0, 4).is_empty());
    }

    #[test]
    fn plan_partitions_rows_exactly_once() {
        let g = web();
        for shards in [1, 2, 3] {
            let labels = contiguous_labels(g.num_nodes(), shards);
            let plan = plan_shards(&g, &labels, shards);
            assert_eq!(plan.shards, shards);
            let mut all_rows: Vec<u32> = plan.parts.iter().flat_map(|p| p.rows.clone()).collect();
            all_rows.sort_unstable();
            assert_eq!(all_rows, (0..g.num_nodes() as u32).collect::<Vec<_>>());
            let nnz: usize = plan.parts.iter().map(|p| p.targets.len()).sum();
            assert_eq!(nnz, g.raw_targets().len());
        }
    }

    #[test]
    fn plan_local_blocks_replay_the_global_gather() {
        // Applying each local block to its gathered slice must equal
        // the global gather row-for-row (structure check, no workers).
        let g = web();
        let n = g.num_nodes();
        let z: Vec<f64> = (0..n).map(|i| ((i as f64) + 0.25).sin()).collect();
        let offsets = g.offsets();
        let targets = g.raw_targets();
        let labels = contiguous_labels(n, 2);
        let plan = plan_shards(&g, &labels, 2);
        for part in &plan.parts {
            let gathered: Vec<f64> = part.inputs.iter().map(|&gid| z[gid as usize]).collect();
            for (li, &r) in part.rows.iter().enumerate() {
                let r = r as usize;
                let mut want = 0.0;
                for &c in &targets[offsets[r]..offsets[r + 1]] {
                    want += z[c as usize];
                }
                let mut got = 0.0;
                for &lc in &part.targets[part.offsets[li]..part.offsets[li + 1]] {
                    got += gathered[lc as usize];
                }
                assert_eq!(want.to_bits(), got.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn plan_edge_cut_matches_label_boundary() {
        let g = web();
        let labels = vec![0, 0, 0, 1, 1];
        let plan = plan_shards(&g, &labels, 2);
        // cut edges: (2,3), (4,0), (1,4)
        assert_eq!(plan.edge_cut, 3);
        let one = plan_shards(&g, &contiguous_labels(g.num_nodes(), 1), 1);
        assert_eq!(one.edge_cut, 0);
    }

    #[test]
    fn fingerprint_tracks_structure_and_partition() {
        let g = web();
        let n = g.num_nodes();
        let a = plan_shards(&g, &contiguous_labels(n, 2), 2);
        let b = plan_shards(&g, &contiguous_labels(n, 2), 2);
        assert_eq!(a.fingerprint, b.fingerprint, "same inputs, same fp");
        let c = plan_shards(&g, &contiguous_labels(n, 3), 3);
        assert_ne!(a.fingerprint, c.fingerprint, "shard count must change fp");
        let g2 = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).build();
        let d = plan_shards(&g2, &contiguous_labels(g2.num_nodes(), 2), 2);
        assert_ne!(a.fingerprint, d.fingerprint, "structure must change fp");
    }

    #[test]
    fn local_fallbacks_match_naive_oracle() {
        // The fallback kernels must be bitwise equal to the naive loop
        // (and so to WalkOp / SymmetricWalkOp) so a mid-run shard
        // failure cannot change results. Exercised directly (no
        // worker group needed).
        use crate::oracle;
        let g = web();
        let n = g.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) as f64) / 7.0).collect();
        for symmetric in [false, true] {
            let inv_scale = oracle::inv_scale(&g, symmetric);
            let finisher = if symmetric {
                Finisher::Symmetric
            } else {
                Finisher::Walk
            };
            let mut y = vec![0.0; n];
            local_apply(&g, &inv_scale, finisher, &x, &mut y);
            let want = if symmetric {
                oracle::symmetric(&g, &x)
            } else {
                oracle::walk(&g, &x)
            };
            for (a, b) in y.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "symmetric={symmetric}");
            }
            let width = 3;
            let xs: Vec<f64> = (0..n * width).map(|i| ((i % 11) as f64) / 11.0).collect();
            let mut ys = vec![0.0; n * width];
            local_apply_multi(&g, &inv_scale, finisher, &xs, &mut ys, width, width);
            let want = oracle::block(&g, symmetric, &xs, width, width);
            for (i, (a, b)) in ys.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "entry {i} symmetric={symmetric}");
            }
        }
    }
}
