#ifndef JXP_CORE_EXTENDED_GRAPH_H_
#define JXP_CORE_EXTENDED_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/world_node.h"
#include "graph/subgraph.h"
#include "markov/sparse_matrix.h"

namespace jxp {
namespace core {

/// How the world node's outgoing links are weighted (ablation A2 in
/// DESIGN.md; the paper always uses score-proportional weights).
enum class WorldLinkWeighting {
  /// Paper Eq. 8: weight (1/out(r)) * alpha(r)/alpha_w per link.
  kScoreProportional,
  /// Strawman: ignore the learned scores; every known external in-linking
  /// page is assumed to carry an equal share of the world mass.
  kUniform,
};

/// The transition system of a peer's extended local graph G' = G + W
/// (paper Section 5, Eqs. 5-10): n local states plus the world node as
/// state n.
struct ExtendedGraphSystem {
  /// (n+1) x (n+1) link matrix. Local rows follow Eq. 6/7; the world row
  /// follows Eq. 8/9. Dangling local pages have empty rows (their mass is
  /// redistributed along `dangling`).
  markov::SparseMatrix matrix;
  /// Random-jump distribution (Eq. 10): 1/N per local page, (N-n)/N to the
  /// world node.
  std::vector<double> teleport;
  /// Dangling-mass distribution: identical to teleport (a dangling page in
  /// the global chain jumps uniformly over all N pages, of which n are
  /// local).
  std::vector<double> dangling;
  /// True iff the world row's outgoing mass had to be clamped because the
  /// stored external scores momentarily exceeded the world score (a
  /// transient of the take-max combination; see JxpPeer).
  bool world_row_clamped = false;
};

/// The world node's input to the world row (Eqs. 8-9). `in[t]` is the sum of
/// (1/out(r)) * alpha(r) over the world entries r linking to local state t,
/// added in ascending page order of r (alpha(r) is the uniform share under
/// kUniform); `linked[t]` marks the states with at least one such entry; and
/// `dangling` is the known external dangling pages' score mass, summed in
/// page order. The page order fixes every sum, so the input is a function of
/// the world node's content alone.
struct WorldInMass {
  std::vector<double> in;
  std::vector<uint8_t> linked;
  double dangling = 0;

  /// Zeroes the input of `num_local` states.
  void Reset(size_t num_local) {
    in.assign(num_local, 0.0);
    linked.assign(num_local, 0);
    dangling = 0;
  }

  /// One entry's term for one of its local targets.
  void Add(uint32_t t, double term) {
    in[t] += term;
    linked[t] = 1;
  }
};

/// Incremental builder of ExtendedGraphSystem, exploiting that only the
/// world row depends on the denominator alpha_w and on the (per-meeting)
/// world-node scores, while the local rows depend on the fragment alone:
///
/// - local rows are built once per fragment and reused across meetings;
///   they are dropped only by InvalidateFragment() (called on
///   ReplaceFragment, the sole structural fragment change);
/// - Prepare() makes one pass over the world node in page order, summing
///   each entry's (1/out(r)) * alpha(r) into a dense per-target in-mass,
///   then regenerates the world row for the given denominator in one scan
///   in column order: no sort of entries, terms or row entries;
/// - Rescale() regenerates the world row for a new denominator from the
///   per-target in-mass — the O(n) step JxpPeer's self-consistent
///   denominator guard loop runs instead of a full BuildExtendedSystem.
///
/// The world node is sorted by page, so the summation order is a function
/// of its content alone: the row is bit-identical for equal world nodes
/// however they were built, and the cached and the freshly built systems
/// agree bit for bit.
class ExtendedSystemCache {
 public:
  ExtendedSystemCache() = default;

  /// Returns the extended system of `fragment` + `world` at denominator
  /// `world_score` (see BuildExtendedSystem for the semantics). The
  /// returned reference stays valid — and is updated in place — across
  /// subsequent Prepare/Rescale calls. The fragment must be unchanged since
  /// the previous Prepare unless InvalidateFragment() was called in
  /// between; the world node may change freely between calls.
  const ExtendedGraphSystem& Prepare(const graph::Subgraph& fragment,
                                     const WorldNode& world, double world_score,
                                     size_t global_size, WorldLinkWeighting weighting);

  /// The full merge's system (Algorithm 2) over G_M = V_a ∪ V_b, without
  /// building G_M: the local rows come straight from the two fragments'
  /// successor lists (a shared page keeps `a`'s, as in Subgraph::Merge), and
  /// the world row from `world_in`, which the caller accumulated over
  /// merged.NumPages() states in W_M's page order. The system is
  /// bit-identical to Prepare(Subgraph::Merge(a, b), W_M, ...); its local
  /// rows describe no fragment, so a later Prepare rebuilds them.
  const ExtendedGraphSystem& PrepareMerged(const graph::SubgraphUnion& merged,
                                           WorldInMass world_in, double world_score,
                                           size_t global_size, WorldLinkWeighting weighting);

  /// Regenerates the world row for a new denominator, keeping the local
  /// rows, the per-target in-mass, and the teleport/dangling vectors of the
  /// last Prepare or PrepareMerged. Only valid after one of them.
  const ExtendedGraphSystem& Rescale(double world_score);

  /// Drops the cached local rows; the next Prepare rebuilds them. Must be
  /// called whenever the fragment changes structurally (ReplaceFragment).
  void InvalidateFragment() { local_rows_valid_ = false; }

  /// True when the cached system's local rows are valid and describe a
  /// fragment of `num_local` pages — i.e. the next Prepare will only rewrite
  /// the world row in place. The incremental PageRank path uses this to
  /// decide whether a world-row delta against the cached matrix is sound.
  bool CachedLocalRowsMatch(size_t num_local) const {
    return prepared_ && local_rows_valid_ && num_local_ == num_local;
  }

  /// The cached system of the last Prepare/Rescale. Only valid after a
  /// Prepare; updated in place by subsequent calls (see Prepare).
  const ExtendedGraphSystem& system() const {
    JXP_CHECK(prepared_);
    return system_;
  }

  /// Moves the built system out (used by the one-shot BuildExtendedSystem).
  ExtendedGraphSystem TakeSystem() && { return std::move(system_); }

 private:
  void RebuildLocalRows(const graph::Subgraph& fragment);
  void RebuildMergedLocalRows(const graph::SubgraphUnion& merged);
  /// The tail both Prepares share: teleport / dangling vectors and the
  /// world row for `num_local_` states from `world_in_`.
  void FinishPrepare(double world_score, size_t global_size, WorldLinkWeighting weighting);
  void RebuildWorldRow(double denominator);

  bool local_rows_valid_ = false;
  bool prepared_ = false;
  size_t num_local_ = 0;
  size_t global_size_ = 0;
  WorldLinkWeighting weighting_ = WorldLinkWeighting::kScoreProportional;
  /// The world row's input; `linked` and the dangling mass fix its columns.
  WorldInMass world_in_;
  std::vector<markov::MatrixEntry> world_row_;  // Scratch, reused per rebuild.
  ExtendedGraphSystem system_;
};

/// Builds the extended transition system of `fragment` + `world`:
///
/// - local page i with global out-degree d: weight 1/d per local successor;
///   the external successors contribute weight (#external successors)/d to
///   the world column (Eq. 7);
/// - world row: for each known external in-linking page r with targets T and
///   score alpha(r), weight (1/out(r)) * alpha(r)/world_score per target
///   (Eq. 8); the self-loop absorbs the rest (Eq. 9);
/// - teleport/dangling per Eq. 10 with `global_size` = N.
///
/// `world_score` is the peer's current world-node score (alpha_w at meeting
/// t-1), which weights the world row. One-shot convenience over
/// ExtendedSystemCache; repeated builds over the same fragment should use
/// the cache directly.
ExtendedGraphSystem BuildExtendedSystem(
    const graph::Subgraph& fragment, const WorldNode& world, double world_score,
    size_t global_size,
    WorldLinkWeighting weighting = WorldLinkWeighting::kScoreProportional);

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_EXTENDED_GRAPH_H_
