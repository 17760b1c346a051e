#include "core/jxp_peer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "common/timer.h"
#include "core/extended_graph.h"
#include "core/meeting_wire.h"
#include "markov/power_iteration.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jxp {
namespace core {

namespace {

/// Meeting-path observables (DESIGN.md §6d). Counters and the non-"_ms"
/// histograms are pure functions of the simulated meetings and therefore
/// bit-identical across runs and thread counts; the "_ms" histograms carry
/// wall-clock-dependent timings.
struct MeetingMetrics {
  obs::Counter meetings = obs::MetricsRegistry::Global().GetCounter("jxp.meetings");
  obs::Counter merges = obs::MetricsRegistry::Global().GetCounter("jxp.merges");
  obs::Counter merges_rejected =
      obs::MetricsRegistry::Global().GetCounter("jxp.merges_rejected");
  obs::Histogram wire_bytes = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.meeting.wire_bytes", p2p::WireByteBuckets());
  obs::Histogram merge_cpu_ms = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.merge.cpu_ms", {0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000});
  obs::Histogram pr_iterations = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.merge.pr_iterations", {1, 2, 5, 10, 20, 50, 100, 200, 500});
  obs::Histogram world_update_ms = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.merge.world_update_ms", {0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100});
  obs::Histogram solve_ms = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.merge.solve_ms", {0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100});
  /// Measured-wire-mode observables: per-message encoded size, analytic /
  /// measured compression ratio (both deterministic), and codec CPU.
  obs::Histogram wire_message_bytes = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.wire.message_bytes", p2p::WireByteBuckets());
  obs::Histogram wire_compression_ratio = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.wire.compression_ratio", {0.5, 1, 1.5, 2, 2.5, 3, 4, 6, 8, 12});
  obs::Histogram wire_encode_ms = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.wire.encode_ms", {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10});
  obs::Histogram wire_decode_ms = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.wire.decode_ms", {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10});
};

MeetingMetrics& GetMeetingMetrics() {
  static MeetingMetrics metrics;
  return metrics;
}

/// Observables of the incremental local PageRank path (DESIGN.md §6j).
/// Counters and histograms are pure functions of the simulated meetings:
/// push order is deterministic, so they are bit-identical across runs and
/// thread counts.
struct IncrementalPrMetrics {
  obs::Counter solves =
      obs::MetricsRegistry::Global().GetCounter("jxp.pr.incremental.solves");
  obs::Counter pushes =
      obs::MetricsRegistry::Global().GetCounter("jxp.pr.incremental.pushes");
  obs::Counter fallbacks =
      obs::MetricsRegistry::Global().GetCounter("jxp.pr.incremental.fallbacks");
  obs::Counter reseeds =
      obs::MetricsRegistry::Global().GetCounter("jxp.pr.incremental.reseeds");
  obs::Histogram pushes_per_solve = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.pr.incremental.pushes_per_solve",
      {1, 3, 10, 30, 100, 300, 1000, 3000, 10000});
  obs::Histogram touched_rows = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.pr.incremental.touched_rows", {1, 2, 5, 10, 20, 50, 100, 200, 500});
  obs::Histogram dirty_rows = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.pr.incremental.dirty_rows", {1, 2, 5, 10, 20, 50, 100, 200, 500});
};

IncrementalPrMetrics& GetIncrementalPrMetrics() {
  static IncrementalPrMetrics metrics;
  return metrics;
}

/// Numerical floor for the world score; Theorem 5.3 keeps the true value
/// well above this, so the floor only guards against pathological inputs.
constexpr double kWorldScoreFloor = 1e-12;

/// Network-wide constants of the distributed page-count sketch; all peers
/// must share them for sketch unions to be meaningful.
constexpr size_t kPageSketchBuckets = 256;
constexpr uint64_t kPageSketchSeed = 0x9a6e5c0117ULL;

double CombineScores(CombineMode mode, double a, double b) {
  return mode == CombineMode::kTakeMax ? std::max(a, b) : 0.5 * (a + b);
}

/// Appends to `out` the entries of `targets` (sorted) that are pages of
/// `fragment`.
void ProjectTargets(const graph::Subgraph& fragment,
                    std::span<const graph::PageId> targets,
                    std::vector<graph::PageId>& out) {
  out.clear();
  for (graph::PageId t : targets) {
    if (fragment.Contains(t)) out.push_back(t);
  }
}

/// What a sender's local pages tell a receiver holding `fragment`: each page
/// outside it becomes a world entry (its score from `score_of`, its targets
/// projected onto `fragment`, kept when any remain) or a dangling record.
/// Pages come out ascending because local-index order is page order.
template <typename ScoreOf>
WorldNode PagesAsWorld(const graph::Subgraph& sender, const graph::Subgraph& fragment,
                       ScoreOf score_of) {
  WorldNode world;
  std::vector<graph::PageId> targets;
  for (graph::Subgraph::LocalIndex k = 0; k < sender.NumLocalPages(); ++k) {
    const graph::PageId page = sender.GlobalId(k);
    if (fragment.Contains(page)) continue;
    if (sender.GlobalOutDegree(k) == 0) {
      world.AppendDangling(page, score_of(k));
      continue;
    }
    ProjectTargets(fragment, sender.Successors(k), targets);
    if (!targets.empty()) {
      world.AppendEntry(page, static_cast<uint32_t>(sender.GlobalOutDegree(k)),
                        score_of(k), targets);
    }
  }
  return world;
}

/// Index of a page a list lacks, in ForEachPageInOrder.
constexpr size_t kAbsent = static_cast<size_t>(-1);

/// Visits every page of three ascending page lists once, in page order, as
/// visit(page, i, j, k) with the page's index in `a`, `b` and `c`, or
/// kAbsent where a list lacks it.
template <typename Visit>
void ForEachPageInOrder(std::span<const graph::PageId> a, std::span<const graph::PageId> b,
                        std::span<const graph::PageId> c, Visit visit) {
  constexpr uint64_t kEnd = uint64_t{1} << 32;  // Past every page id.
  size_t i = 0;
  size_t j = 0;
  size_t k = 0;
  while (i < a.size() || j < b.size() || k < c.size()) {
    const uint64_t pa = i < a.size() ? a[i] : kEnd;
    const uint64_t pb = j < b.size() ? b[j] : kEnd;
    const uint64_t pc = k < c.size() ? c[k] : kEnd;
    const uint64_t page = std::min({pa, pb, pc});
    visit(static_cast<graph::PageId>(page), pa == page ? i++ : kAbsent,
          pb == page ? j++ : kAbsent, pc == page ? k++ : kAbsent);
  }
}

/// Calls visit(t) for each page of the union of two ascending lists, once
/// and in ascending order.
template <typename Visit>
void ForEachInUnion(std::span<const graph::PageId> a, std::span<const graph::PageId> b,
                    Visit visit) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      visit(a[i++]);
    } else if (i == a.size() || b[j] < a[i]) {
      visit(b[j++]);
    } else {
      visit(a[i++]);
      ++j;
    }
  }
}

/// A world node under construction, as the arrays WorldNode::FromArrays
/// adopts; its scores stay writable until Build.
struct WorldArrays {
  std::vector<graph::PageId> pages;
  std::vector<uint32_t> out_degrees;
  std::vector<double> scores;
  std::vector<uint32_t> target_offsets = {0};
  std::vector<graph::PageId> targets;
  std::vector<graph::PageId> dangling_pages;
  std::vector<double> dangling_scores;

  void Reserve(size_t entries, size_t links, size_t dangling) {
    pages.reserve(entries);
    out_degrees.reserve(entries);
    scores.reserve(entries);
    target_offsets.reserve(entries + 1);
    targets.reserve(links);
    dangling_pages.reserve(dangling);
    dangling_scores.reserve(dangling);
  }

  /// Closes an entry for `page` over the targets appended since the last.
  void EndEntry(graph::PageId page, uint32_t out_degree, double score) {
    pages.push_back(page);
    out_degrees.push_back(out_degree);
    scores.push_back(score);
    target_offsets.push_back(static_cast<uint32_t>(targets.size()));
  }

  WorldNode Build() && {
    return WorldNode::FromArrays(std::move(pages), std::move(out_degrees), std::move(scores),
                                 std::move(target_offsets), std::move(targets),
                                 std::move(dangling_pages), std::move(dangling_scores));
  }
};

const WorldNode& EmptyWorld() {
  static const WorldNode empty;
  return empty;
}

}  // namespace

JxpPeer::JxpPeer(p2p::PeerId id, graph::Subgraph fragment, size_t global_size,
                 const JxpOptions& options)
    : id_(id),
      fragment_(std::move(fragment)),
      global_size_(global_size),
      options_(options),
      page_sketch_(kPageSketchBuckets, kPageSketchSeed) {
  JXP_CHECK_GT(fragment_.NumLocalPages(), 0u) << "peer with empty fragment";
  JXP_CHECK_GE(global_size_, fragment_.NumLocalPages());
  SeedPageSketch();
  RefreshGlobalSizeEstimate();
  // Algorithm 1: uniform initial scores, then one local PR run.
  scores_.assign(fragment_.NumLocalPages(), 1.0 / static_cast<double>(global_size_));
  RunLocalPageRank();
}

JxpPeer::JxpPeer(p2p::PeerId id, graph::Subgraph fragment, size_t global_size,
                 const JxpOptions& options, std::vector<double> scores, WorldNode world,
                 double world_score)
    : id_(id),
      fragment_(std::move(fragment)),
      global_size_(global_size),
      options_(options),
      scores_(std::move(scores)),
      world_score_(world_score),
      world_(std::move(world)),
      page_sketch_(kPageSketchBuckets, kPageSketchSeed) {
  JXP_CHECK_GT(fragment_.NumLocalPages(), 0u);
  JXP_CHECK_EQ(scores_.size(), fragment_.NumLocalPages());
  JXP_CHECK_GE(global_size_, fragment_.NumLocalPages());
  JXP_CHECK_GT(world_score_, 0.0);
  JXP_CHECK_LT(world_score_, 1.0);
  SeedPageSketch();
}

void JxpPeer::SeedPageSketch() {
  // A crawler knows its own pages plus every link target it saw; both count
  // as distinct pages of the global graph.
  for (graph::Subgraph::LocalIndex i = 0; i < fragment_.NumLocalPages(); ++i) {
    page_sketch_.Add(fragment_.GlobalId(i));
    for (graph::PageId successor : fragment_.Successors(i)) {
      page_sketch_.Add(successor);
    }
  }
}

void JxpPeer::RefreshGlobalSizeEstimate() {
  if (!options_.estimate_global_size) return;
  const double estimate = page_sketch_.EstimateCardinality();
  global_size_ = std::max<size_t>(fragment_.NumLocalPages() + 1,
                                  static_cast<size_t>(estimate + 0.5));
}

double JxpPeer::ScoreOfGlobal(graph::PageId page) const {
  const graph::Subgraph::LocalIndex i = fragment_.LocalIndexOf(page);
  return i == graph::Subgraph::kNotLocal ? 0.0 : scores_[i];
}

std::vector<uint8_t> JxpPeer::EncodeMeetingBytes() const {
  const PeerView view = MakeView(/*snapshot=*/false);
  return EncodeMeetingMessage(*view.fragment, view.scores, *view.world,
                              options_.estimate_global_size ? view.page_sketch
                                                            : nullptr);
}

RemoteMeetingApply JxpPeer::ApplyMeetingBytes(std::span<const uint8_t> bytes) {
  RemoteMeetingApply result;
  DecodedMeetingMessage decoded = DecodeMeetingMessage(bytes);
  result.bytes_consumed = decoded.bytes_consumed;
  result.salvaged = !decoded.error.ok();
  if (decoded.fragment == nullptr) return result;  // Degenerates to a drop.
  PeerView view;
  AdoptDecoded(std::move(decoded), view);
  result.cpu_millis = ProcessMeeting(view);
  result.pr_iterations = last_pr_iterations_;
  result.applied = true;
  return result;
}

MeetingOutcome JxpPeer::Meet(JxpPeer& initiator, JxpPeer& partner) {
  return Meet(initiator, partner, p2p::MeetingFaultDecision());
}

MeetingOutcome JxpPeer::Meet(JxpPeer& initiator, JxpPeer& partner,
                             const p2p::MeetingFaultDecision& faults) {
  JXP_CHECK_NE(initiator.id_, partner.id_) << "peer meeting itself";
  JXP_CHECK(!faults.abandoned) << "abandoned meeting must not run";
  JXP_CHECK(initiator.options_.merge_mode == partner.options_.merge_mode &&
            initiator.options_.combine_mode == partner.options_.combine_mode &&
            initiator.options_.wire_mode == partner.options_.wire_mode)
      << "meeting peers must share JXP options";
  if (initiator.options_.wire_mode == MeetingWireMode::kMeasured) {
    return MeetMeasured(initiator, partner, faults);
  }
  obs::TraceSpan span("jxp.meeting");
  span.AddAttr("initiator", initiator.id_);
  span.AddAttr("partner", partner.id_);

  // Snapshot both messages first: the exchange is simultaneous, so each side
  // must see the other's pre-meeting state.
  PeerView initiator_view = initiator.MakeView(/*snapshot=*/true);
  PeerView partner_view = partner.MakeView(/*snapshot=*/true);

  MeetingOutcome outcome;
  outcome.bytes_sent_initiator = initiator_view.wire_bytes;
  outcome.bytes_sent_partner = partner_view.wire_bytes;
  outcome.wire_bytes = initiator_view.wire_bytes + partner_view.wire_bytes;
  outcome.estimated_bytes_initiator = outcome.bytes_sent_initiator;
  outcome.estimated_bytes_partner = outcome.bytes_sent_partner;
  outcome.estimated_wire_bytes = outcome.wire_bytes;

  // Resolve the transport faults of each direction: what (if anything) of
  // the sender's message reaches the receiver. A truncation so severe that
  // not even one page arrives degenerates to a drop.
  PeerView truncated_to_initiator;
  PeerView truncated_to_partner;
  const PeerView* message_to_initiator = &partner_view;
  const PeerView* message_to_partner = &initiator_view;
  double delivered_to_initiator = faults.drop_to_initiator ? 0.0 : 1.0;
  double delivered_to_partner = faults.drop_to_partner ? 0.0 : 1.0;
  if (delivered_to_initiator > 0 && faults.keep_to_initiator < 1.0) {
    if (TruncateView(partner_view, faults.keep_to_initiator, truncated_to_initiator)) {
      message_to_initiator = &truncated_to_initiator;
      delivered_to_initiator = faults.keep_to_initiator;
    } else {
      delivered_to_initiator = 0.0;
    }
  }
  if (delivered_to_partner > 0 && faults.keep_to_partner < 1.0) {
    if (TruncateView(initiator_view, faults.keep_to_partner, truncated_to_partner)) {
      message_to_partner = &truncated_to_partner;
      delivered_to_partner = faults.keep_to_partner;
    } else {
      delivered_to_partner = 0.0;
    }
  }

  // A side applies its incoming message only when something was delivered
  // and the side did not crash mid-meeting; a suppressed side's state does
  // not advance at all (no meeting count, no history entry).
  outcome.applied_initiator = delivered_to_initiator > 0 && !faults.crash_initiator;
  outcome.applied_partner = delivered_to_partner > 0 && !faults.crash_partner;
  if (outcome.applied_initiator) {
    outcome.cpu_millis_initiator = initiator.ProcessMeeting(*message_to_initiator);
    outcome.pr_iterations_initiator = initiator.last_pr_iterations_;
  }
  if (outcome.applied_partner) {
    outcome.cpu_millis_partner = partner.ProcessMeeting(*message_to_partner);
    outcome.pr_iterations_partner = partner.last_pr_iterations_;
  }

  // Wasted-byte accounting, attributed to the sender: everything the sender
  // shipped beyond what the receiver actually applied.
  outcome.wasted_bytes_initiator =
      outcome.bytes_sent_initiator *
      (1.0 - (outcome.applied_partner ? delivered_to_partner : 0.0));
  outcome.wasted_bytes_partner =
      outcome.bytes_sent_partner *
      (1.0 - (outcome.applied_initiator ? delivered_to_initiator : 0.0));
  outcome.wasted_bytes = outcome.wasted_bytes_initiator + outcome.wasted_bytes_partner;

  if (obs::Enabled()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.meetings.Increment();
    metrics.wire_bytes.Observe(outcome.wire_bytes);
  }
  if (span.active()) {
    if (!faults.Clean()) {
      span.AddAttr("applied_initiator", outcome.applied_initiator);
      span.AddAttr("applied_partner", outcome.applied_partner);
      span.AddAttr("wasted_bytes", outcome.wasted_bytes);
    }
    span.AddAttr("wire_bytes", outcome.wire_bytes);
    span.AddAttr("cpu_ms_initiator", outcome.cpu_millis_initiator);
    span.AddAttr("cpu_ms_partner", outcome.cpu_millis_partner);
    span.AddAttr("pr_iterations",
                 outcome.pr_iterations_initiator + outcome.pr_iterations_partner);
  }
  return outcome;
}

MeetingOutcome JxpPeer::MeetMeasured(JxpPeer& initiator, JxpPeer& partner,
                                     const p2p::MeetingFaultDecision& faults) {
  obs::TraceSpan span("jxp.meeting");
  span.AddAttr("initiator", initiator.id_);
  span.AddAttr("partner", partner.id_);
  span.AddAttr("wire_mode", "measured");

  // The views are encoded right away, before either side changes, so they
  // can point at the senders' own state.
  const PeerView initiator_view = initiator.MakeView(/*snapshot=*/false);
  const PeerView partner_view = partner.MakeView(/*snapshot=*/false);

  // Serialize both messages through the wire codec; from here on the bytes
  // *are* the message, and faults act on them.
  std::optional<ThreadCpuTimer> encode_timer;
  if (obs::Enabled()) encode_timer.emplace();
  const std::vector<uint8_t> initiator_bytes = EncodeMeetingMessage(
      *initiator_view.fragment, initiator_view.scores, *initiator_view.world,
      initiator.options_.estimate_global_size ? initiator_view.page_sketch : nullptr);
  const std::vector<uint8_t> partner_bytes = EncodeMeetingMessage(
      *partner_view.fragment, partner_view.scores, *partner_view.world,
      partner.options_.estimate_global_size ? partner_view.page_sketch : nullptr);
  if (encode_timer.has_value()) {
    GetMeetingMetrics().wire_encode_ms.Observe(encode_timer->ElapsedMillis());
  }

  MeetingOutcome outcome;
  outcome.bytes_sent_initiator = static_cast<double>(initiator_bytes.size());
  outcome.bytes_sent_partner = static_cast<double>(partner_bytes.size());
  outcome.wire_bytes = outcome.bytes_sent_initiator + outcome.bytes_sent_partner;
  outcome.estimated_bytes_initiator = initiator_view.wire_bytes;
  outcome.estimated_bytes_partner = partner_view.wire_bytes;
  outcome.estimated_wire_bytes = initiator_view.wire_bytes + partner_view.wire_bytes;

  // Resolves one direction's transport: truncation keeps a byte prefix,
  // corruption flips one bit of what arrives, and the receiver's decoder
  // salvages the intact frame prefix. Returns false when nothing usable
  // arrived (drop, or damage so early that no page decoded); the delivered
  // fraction is measured in decoded bytes over sent bytes. Only corruption
  // copies the bytes; a clean or truncated delivery decodes the sent bytes
  // in place.
  const auto resolve = [](std::span<const uint8_t> sent, bool drop, double keep,
                          bool corrupt, double corrupt_offset, int corrupt_bit,
                          PeerView& received, double& fraction) -> bool {
    fraction = 0;
    if (drop || sent.empty()) return false;
    std::span<const uint8_t> delivered = sent;
    if (keep < 1.0) {
      delivered = sent.first(static_cast<size_t>(keep * static_cast<double>(sent.size())));
      if (delivered.empty()) return false;
    }
    std::vector<uint8_t> damaged;
    if (corrupt) {
      damaged.assign(delivered.begin(), delivered.end());
      const size_t at = std::min(
          damaged.size() - 1,
          static_cast<size_t>(corrupt_offset * static_cast<double>(damaged.size())));
      damaged[at] ^= static_cast<uint8_t>(1u << (corrupt_bit & 7));
      delivered = damaged;
    }
    DecodedMeetingMessage decoded = DecodeMeetingMessage(delivered);
    if (decoded.fragment == nullptr) return false;
    fraction = static_cast<double>(decoded.bytes_consumed) /
               static_cast<double>(sent.size());
    AdoptDecoded(std::move(decoded), received);
    return true;
  };

  std::optional<ThreadCpuTimer> decode_timer;
  if (obs::Enabled()) decode_timer.emplace();
  PeerView to_initiator;
  PeerView to_partner;
  double delivered_to_initiator = 0;
  double delivered_to_partner = 0;
  const bool initiator_got_message = resolve(
      partner_bytes, faults.drop_to_initiator, faults.keep_to_initiator,
      faults.corrupt_to_initiator, faults.corrupt_offset_to_initiator,
      faults.corrupt_bit_to_initiator, to_initiator, delivered_to_initiator);
  const bool partner_got_message = resolve(
      initiator_bytes, faults.drop_to_partner, faults.keep_to_partner,
      faults.corrupt_to_partner, faults.corrupt_offset_to_partner,
      faults.corrupt_bit_to_partner, to_partner, delivered_to_partner);
  if (decode_timer.has_value()) {
    GetMeetingMetrics().wire_decode_ms.Observe(decode_timer->ElapsedMillis());
  }

  outcome.applied_initiator = initiator_got_message && !faults.crash_initiator;
  outcome.applied_partner = partner_got_message && !faults.crash_partner;
  if (outcome.applied_initiator) {
    outcome.cpu_millis_initiator = initiator.ProcessMeeting(to_initiator);
    outcome.pr_iterations_initiator = initiator.last_pr_iterations_;
  }
  if (outcome.applied_partner) {
    outcome.cpu_millis_partner = partner.ProcessMeeting(to_partner);
    outcome.pr_iterations_partner = partner.last_pr_iterations_;
  }

  // Same wasted-byte convention as the estimated path, but against measured
  // sizes: what a sender shipped minus what its receiver decoded and used.
  outcome.wasted_bytes_initiator =
      outcome.bytes_sent_initiator *
      (1.0 - (outcome.applied_partner ? delivered_to_partner : 0.0));
  outcome.wasted_bytes_partner =
      outcome.bytes_sent_partner *
      (1.0 - (outcome.applied_initiator ? delivered_to_initiator : 0.0));
  outcome.wasted_bytes = outcome.wasted_bytes_initiator + outcome.wasted_bytes_partner;

  if (obs::Enabled()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.meetings.Increment();
    metrics.wire_bytes.Observe(outcome.wire_bytes);
    metrics.wire_message_bytes.Observe(outcome.bytes_sent_initiator);
    metrics.wire_message_bytes.Observe(outcome.bytes_sent_partner);
    if (outcome.bytes_sent_initiator > 0) {
      metrics.wire_compression_ratio.Observe(outcome.estimated_bytes_initiator /
                                             outcome.bytes_sent_initiator);
    }
    if (outcome.bytes_sent_partner > 0) {
      metrics.wire_compression_ratio.Observe(outcome.estimated_bytes_partner /
                                             outcome.bytes_sent_partner);
    }
  }
  if (span.active()) {
    if (!faults.Clean()) {
      span.AddAttr("applied_initiator", outcome.applied_initiator);
      span.AddAttr("applied_partner", outcome.applied_partner);
      span.AddAttr("wasted_bytes", outcome.wasted_bytes);
    }
    span.AddAttr("wire_bytes", outcome.wire_bytes);
    span.AddAttr("estimated_wire_bytes", outcome.estimated_wire_bytes);
    span.AddAttr("cpu_ms_initiator", outcome.cpu_millis_initiator);
    span.AddAttr("cpu_ms_partner", outcome.cpu_millis_partner);
    span.AddAttr("pr_iterations",
                 outcome.pr_iterations_initiator + outcome.pr_iterations_partner);
  }
  return outcome;
}

bool JxpPeer::TruncateView(const PeerView& full, double keep_fraction, PeerView& out) {
  const graph::Subgraph& frag = *full.fragment;
  const size_t n = frag.NumLocalPages();
  const size_t k =
      static_cast<size_t>(keep_fraction * static_cast<double>(n));
  if (k == 0) return false;
  if (k >= n) {
    // Nothing was actually cut; the "truncated" message is the full one.
    out = full;
    return true;
  }
  // The page table is serialized in local-index order, so the first k
  // records arrive complete (each with its full successor list), already in
  // the fragment's sorted layout.
  const auto pages = frag.Pages().first(k);
  std::vector<uint64_t> offsets = {0};
  std::vector<graph::PageId> successors;
  offsets.reserve(k + 1);
  for (graph::Subgraph::LocalIndex i = 0; i < k; ++i) {
    const auto succ = frag.Successors(i);
    successors.insert(successors.end(), succ.begin(), succ.end());
    offsets.push_back(successors.size());
  }
  auto owned = std::make_shared<graph::Subgraph>(graph::Subgraph::FromSortedCsr(
      {pages.begin(), pages.end()}, std::move(offsets), std::move(successors)));
  out.scores.assign(full.scores.begin(), full.scores.begin() + static_cast<ptrdiff_t>(k));
  out.fragment = owned.get();
  out.owned_fragment = std::move(owned);
  // The world node and page sketch ride at the tail of the message: lost.
  out.world = &EmptyWorld();
  out.owned_world.reset();
  out.page_sketch = nullptr;
  out.wire_bytes = full.wire_bytes * keep_fraction;
  return true;
}

void JxpPeer::AdoptDecoded(DecodedMeetingMessage&& decoded, PeerView& view) {
  JXP_CHECK(decoded.fragment != nullptr);
  view.owned_fragment = std::move(decoded.fragment);
  view.fragment = view.owned_fragment.get();
  view.scores = std::move(decoded.scores);
  view.owned_world = std::make_shared<const WorldNode>(std::move(decoded.world));
  view.world = view.owned_world.get();
  view.owned_sketch = std::move(decoded.sketch);
  view.page_sketch = view.owned_sketch.get();
  view.wire_bytes = static_cast<double>(decoded.bytes_consumed);
}

JxpPeer::PeerView JxpPeer::MakeView(bool snapshot) const {
  PeerView view;
  view.fragment = &fragment_;
  view.scores = scores_;
  view.world = &world_;
  if (snapshot) {
    view.owned_world = std::make_shared<const WorldNode>(world_);
    view.world = view.owned_world.get();
  }
  view.page_sketch = &page_sketch_;
  view.wire_bytes = MessageWireBytes();
  if (options_.estimate_global_size) {
    view.wire_bytes += static_cast<double>(page_sketch_.SizeBytes());
  }
  // A cheating peer corrupts its outgoing message (Section 7's open
  // problem; see AttackOptions).
  switch (options_.attack.type) {
    case AttackOptions::Type::kNone:
      break;
    case AttackOptions::Type::kScoreInflation: {
      const double factor = options_.attack.inflation_factor;
      for (double& s : view.scores) s *= factor;
      auto scaled = std::make_shared<WorldNode>(world_);
      scaled->ScaleScores(factor);
      view.world = scaled.get();
      view.owned_world = std::move(scaled);
      break;
    }
    case AttackOptions::Type::kRandomScores: {
      Random noise(options_.attack.seed ^ (num_meetings_ * 0x9e3779b9ULL));
      for (double& s : view.scores) s = noise.NextDouble();
      break;
    }
  }
  return view;
}

bool JxpPeer::ShouldRejectMessage(const PeerView& partner) const {
  if (!options_.defense.enabled) return false;
  // Mass test: an honest score list is part of a distribution.
  double mass = 0;
  for (double s : partner.scores) mass += s;
  if (mass > options_.defense.max_reported_mass) return true;
  // Overlap-divergence test: two honest peers' scores for a shared page are
  // underestimates of the same PageRank and typically close, so the median
  // |log(reported/own)| over the overlap is small; broad inflation and
  // random noise both push it up. (Two-sided so that undervaluing garbage
  // is caught as well.)
  std::vector<double> divergences;
  const graph::Subgraph& other = *partner.fragment;
  for (graph::Subgraph::LocalIndex k = 0; k < other.NumLocalPages(); ++k) {
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(other.GlobalId(k));
    if (mine == graph::Subgraph::kNotLocal) continue;
    if (scores_[mine] <= 0 || partner.scores[k] <= 0) {
      divergences.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    divergences.push_back(std::abs(std::log(partner.scores[k] / scores_[mine])));
  }
  if (divergences.size() < options_.defense.min_overlap_to_judge) return false;
  std::nth_element(divergences.begin(), divergences.begin() + divergences.size() / 2,
                   divergences.end());
  const double median = divergences[divergences.size() / 2];
  return median > std::log(options_.defense.max_overlap_divergence);
}

double JxpPeer::ProcessMeeting(const PeerView& partner) {
  obs::TraceSpan span("jxp.process_meeting");
  span.AddAttr("peer", id_);
  span.AddAttr("merge_mode",
               options_.merge_mode == MergeMode::kLightWeight ? "light_weight"
                                                              : "full_merge");
  // Per-thread CPU: meetings on other threads must not be charged here.
  ThreadCpuTimer timer;
  if (ShouldRejectMessage(partner)) {
    ++num_meetings_;
    ++rejected_meetings_;
    meeting_cpu_millis_.push_back(timer.ElapsedMillis());
    world_score_history_.push_back(world_score_);
    if (obs::Enabled()) GetMeetingMetrics().merges_rejected.Increment();
    span.AddAttr("rejected", true);
    return meeting_cpu_millis_.back();
  }
  if (options_.estimate_global_size && partner.page_sketch != nullptr) {
    page_sketch_.UnionWith(*partner.page_sketch);
    RefreshGlobalSizeEstimate();
  }
  solve_millis_ = 0;
  if (options_.merge_mode == MergeMode::kLightWeight) {
    ProcessLightWeight(partner);
  } else {
    ProcessFullMerge(partner);
  }
  const double millis = timer.ElapsedMillis();
  ++num_meetings_;
  meeting_cpu_millis_.push_back(millis);
  world_score_history_.push_back(world_score_);
  if (obs::Enabled()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.merges.Increment();
    metrics.merge_cpu_ms.Observe(millis);
    metrics.solve_ms.Observe(solve_millis_);
    metrics.pr_iterations.Observe(last_pr_iterations_);
  }
  if (span.active()) {
    span.AddAttr("rejected", false);
    span.AddAttr("pr_iterations", last_pr_iterations_);
    span.AddAttr("cpu_ms", millis);
  }
  return millis;
}

bool JxpPeer::HasLocallyConverged(size_t window, double tolerance) const {
  JXP_CHECK_GT(window, 0u);
  JXP_CHECK_GE(tolerance, 0.0);
  if (world_score_history_.size() < window) return false;
  const double oldest = world_score_history_[world_score_history_.size() - window];
  return std::abs(oldest - world_score_) <= tolerance;
}

void JxpPeer::CombineLocalScore(graph::Subgraph::LocalIndex i, double reported) {
  scores_[i] = CombineScores(options_.combine_mode, scores_[i], reported);
}

void JxpPeer::ProcessLightWeight(const PeerView& partner) {
  std::optional<ThreadCpuTimer> world_timer;
  if (obs::Enabled()) world_timer.emplace();
  const graph::Subgraph& other = *partner.fragment;
  // Fold the partner's local pages into our view: overlapping pages combine
  // score lists; external pages that link into our fragment enter the world
  // node with their out-degree, score, and the in-links they contribute.
  // External dangling pages' mass reaches us via the uniform
  // redistribution, which the world row models in aggregate.
  for (graph::Subgraph::LocalIndex k = 0; k < other.NumLocalPages(); ++k) {
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(other.GlobalId(k));
    if (mine != graph::Subgraph::kNotLocal) CombineLocalScore(mine, partner.scores[k]);
  }
  const auto reported = [&partner](graph::Subgraph::LocalIndex k) {
    return partner.scores[k];
  };
  world_.Merge(PagesAsWorld(other, fragment_, reported), options_.combine_mode,
               options_.authoritative_refresh);
  // Fold the partner's world node: entries about our own pages refresh our
  // score list; entries about external pages that link into our fragment
  // extend our world node (the "union of the links represented in them").
  const WorldNode& theirs = *partner.world;
  WorldNode learned;
  std::vector<graph::PageId> targets;
  for (size_t e = 0; e < theirs.NumEntries(); ++e) {
    const graph::PageId page = theirs.pages()[e];
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(page);
    if (mine != graph::Subgraph::kNotLocal) {
      CombineLocalScore(mine, theirs.scores()[e]);
      continue;
    }
    ProjectTargets(fragment_, theirs.targets(e), targets);
    if (!targets.empty()) {
      learned.AppendEntry(page, theirs.out_degrees()[e], theirs.scores()[e], targets);
    }
  }
  for (size_t d = 0; d < theirs.dangling_pages().size(); ++d) {
    const graph::PageId page = theirs.dangling_pages()[d];
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(page);
    if (mine != graph::Subgraph::kNotLocal) {
      CombineLocalScore(mine, theirs.dangling_scores()[d]);
    } else {
      learned.AppendDangling(page, theirs.dangling_scores()[d]);
    }
  }
  world_.Merge(learned, options_.combine_mode);
  if (world_timer.has_value()) {
    GetMeetingMetrics().world_update_ms.Observe(world_timer->ElapsedMillis());
  }
  RunLocalPageRank();
}

void JxpPeer::ProcessFullMerge(const PeerView& partner) {
  const graph::Subgraph& other = *partner.fragment;
  const WorldNode& theirs = *partner.world;
  // Merged graph G_M = union of the two fragments with full out-link
  // knowledge, addressed by merged index without being built; merged score
  // list L_M combines overlapping pages.
  const graph::SubgraphUnion merged(fragment_, other);
  const auto mine_in_merged = merged.a_index();
  const auto theirs_in_merged = merged.b_index();
  const size_t m = merged.NumPages();
  std::vector<double> merged_scores(m, 0.0);
  for (graph::Subgraph::LocalIndex i = 0; i < fragment_.NumLocalPages(); ++i) {
    merged_scores[mine_in_merged[i]] = scores_[i];
  }
  for (graph::Subgraph::LocalIndex k = 0; k < other.NumLocalPages(); ++k) {
    const graph::Subgraph::LocalIndex mi = theirs_in_merged[k];
    merged_scores[mi] =
        merged.InA(mi) ? CombineScores(options_.combine_mode, merged_scores[mi], partner.scores[k])
                       : partner.scores[k];
  }

  // Merged world node W_M: the union of both world nodes minus the pages of
  // G_M (paper: T_M = (T_A ∪ T_B) − E_M; entries whose source page is in V_M
  // are dropped because those links are now edges). It is never built: one
  // page-order pass over W_A, W_B and the partner's pages feeds each W_M
  // entry to the merged system's world input and, projected onto V_A, to
  // the new world node, beside the partner's pages outside V_A (E_B links
  // into V_A) whose merged PR scores the solve fills in. Page order is the
  // order Prepare sums W_M in, so every float sum is unchanged.
  std::optional<ThreadCpuTimer> world_timer;
  if (obs::Enabled()) world_timer.emplace();
  const WorldLinkWeighting weighting = options_.uniform_world_links
                                           ? WorldLinkWeighting::kUniform
                                           : WorldLinkWeighting::kScoreProportional;
  // Under kUniform every W_M entry carries 1/|W_M|, so count W_M first.
  size_t num_merged_entries = 0;
  if (weighting == WorldLinkWeighting::kUniform) {
    ForEachPageInOrder(world_.pages(), theirs.pages(), {},
                       [&](graph::PageId page, size_t, size_t, size_t) {
                         if (merged.IndexOf(page) == graph::Subgraph::kNotLocal) {
                           ++num_merged_entries;
                         }
                       });
  }
  const double uniform_share =
      num_merged_entries > 0 ? 1.0 / static_cast<double>(num_merged_entries) : 0.0;
  WorldInMass world_in;
  world_in.Reset(m);
  WorldArrays next;
  next.Reserve(world_.NumEntries() + other.NumLocalPages(),
               world_.NumLinks() + other.NumLocalEdges(),
               world_.dangling_pages().size() + other.NumLocalPages());
  // (position in `next`, partner local index) of the partner's pages.
  std::vector<std::pair<size_t, graph::Subgraph::LocalIndex>> partner_entries;
  std::vector<std::pair<size_t, graph::Subgraph::LocalIndex>> partner_dangling;
  ForEachPageInOrder(
      world_.pages(), theirs.pages(), other.Pages(),
      [&](graph::PageId page, size_t i, size_t j, size_t k) {
        if (k != kAbsent) {
          // A page of G_M: a world entry on it became explicit edges.
          if (merged.InA(theirs_in_merged[k]) || other.GlobalOutDegree(k) == 0) return;
          const size_t first = next.targets.size();
          for (graph::PageId t : other.Successors(k)) {
            const graph::Subgraph::LocalIndex mi = merged.IndexOf(t);
            if (mi != graph::Subgraph::kNotLocal && merged.InA(mi)) next.targets.push_back(t);
          }
          if (next.targets.size() == first) return;
          partner_entries.emplace_back(next.pages.size(), k);
          next.EndEntry(page, static_cast<uint32_t>(other.GlobalOutDegree(k)), 0.0);
          return;
        }
        if (merged.IndexOf(page) != graph::Subgraph::kNotLocal) return;  // In V_A.
        const bool both = i != kAbsent && j != kAbsent;
        if (both) {
          JXP_CHECK_EQ(world_.out_degrees()[i], theirs.out_degrees()[j])
              << "conflicting out-degree reports for page " << page;
        }
        const uint32_t out_degree =
            i != kAbsent ? world_.out_degrees()[i] : theirs.out_degrees()[j];
        const double score =
            both ? CombineScores(options_.combine_mode, world_.scores()[i], theirs.scores()[j])
                 : (i != kAbsent ? world_.scores()[i] : theirs.scores()[j]);
        const double alpha =
            weighting == WorldLinkWeighting::kUniform ? uniform_share : score;
        const double term = (1.0 / static_cast<double>(out_degree)) * alpha;
        const size_t first = next.targets.size();
        const auto link = [&](graph::PageId t) {
          const graph::Subgraph::LocalIndex mi = merged.IndexOf(t);
          if (mi == graph::Subgraph::kNotLocal) return;
          world_in.Add(mi, term);
          if (merged.InA(mi)) next.targets.push_back(t);
        };
        ForEachInUnion(i != kAbsent ? world_.targets(i) : std::span<const graph::PageId>(),
                       j != kAbsent ? theirs.targets(j) : std::span<const graph::PageId>(),
                       link);
        if (next.targets.size() > first) next.EndEntry(page, out_degree, score);
      });
  ForEachPageInOrder(
      world_.dangling_pages(), theirs.dangling_pages(), other.Pages(),
      [&](graph::PageId page, size_t i, size_t j, size_t k) {
        if (k != kAbsent) {
          if (merged.InA(theirs_in_merged[k]) || other.GlobalOutDegree(k) != 0) return;
          partner_dangling.emplace_back(next.dangling_pages.size(), k);
          next.dangling_pages.push_back(page);
          next.dangling_scores.push_back(0.0);
          return;
        }
        if (merged.IndexOf(page) != graph::Subgraph::kNotLocal) return;
        const double score =
            i != kAbsent && j != kAbsent
                ? CombineScores(options_.combine_mode, world_.dangling_scores()[i],
                                theirs.dangling_scores()[j])
                : (i != kAbsent ? world_.dangling_scores()[i] : theirs.dangling_scores()[j]);
        world_in.dangling += score;
        next.dangling_pages.push_back(page);
        next.dangling_scores.push_back(score);
      });
  double world_millis = world_timer.has_value() ? world_timer->ElapsedMillis() : 0.0;

  // World-node score per Eq. 1, then PageRank on G_M + W_M, with the same
  // self-consistent-denominator guard as RunLocalPageRank.
  double local_mass = 0;
  for (double s : merged_scores) local_mass += s;
  double denominator = std::max(1.0 - local_mass, kWorldScoreFloor);
  std::vector<double> init = merged_scores;
  init.push_back(denominator);
  markov::PowerIterationOptions pi_options;
  pi_options.damping = options_.damping;
  pi_options.tolerance = options_.pr_tolerance;
  pi_options.max_iterations = options_.pr_max_iterations;
  markov::PowerIterationResult result;
  int total_iterations = 0;
  // The merged system lives only for this meeting; the guard loop below
  // regenerates only its world row per denominator.
  ExtendedSystemCache merged_cache;
  const ExtendedGraphSystem* system =
      &merged_cache.PrepareMerged(merged, std::move(world_in), denominator, global_size_,
                                   weighting);
  std::optional<ThreadCpuTimer> solve_timer;
  if (obs::Enabled()) solve_timer.emplace();
  for (int guard = 0; guard < 64; ++guard) {
    ever_clamped_world_row_ |= system->world_row_clamped;
    result = StationaryDistribution(system->matrix, system->teleport, system->dangling,
                                    init, pi_options);
    total_iterations += result.iterations;
    if (result.distribution[m] <= denominator + 1e-13) break;
    denominator = result.distribution[m];
    init = result.distribution;
    system = &merged_cache.Rescale(denominator);
  }
  if (solve_timer.has_value()) solve_millis_ += solve_timer->ElapsedMillis();
  last_pr_iterations_ = total_iterations;
  const double pr_world = result.distribution[m];

  // Project back onto our fragment (the disconnect step of Figure 1):
  // local scores from the merged result ...
  for (graph::Subgraph::LocalIndex i = 0; i < fragment_.NumLocalPages(); ++i) {
    scores_[i] = result.distribution[mine_in_merged[i]];
  }
  // ... and the new world node's scores. Eq. 2 re-weights W_M's external
  // scores in the baseline mode (Eq. 3 leaves them unchanged in take-max
  // mode); the partner's pages take their merged PR scores.
  if (world_timer.has_value()) world_timer->Reset();
  if (options_.combine_mode == CombineMode::kAverage) {
    const double factor = pr_world / denominator;
    for (double& score : next.scores) score *= factor;
    for (double& score : next.dangling_scores) score *= factor;
  }
  for (const auto& [e, k] : partner_entries) {
    next.scores[e] = result.distribution[theirs_in_merged[k]];
  }
  for (const auto& [d, k] : partner_dangling) {
    next.dangling_scores[d] = result.distribution[theirs_in_merged[k]];
  }
  world_ = std::move(next).Build();
  if (world_timer.has_value()) {
    world_millis += world_timer->ElapsedMillis();
    GetMeetingMetrics().world_update_ms.Observe(world_millis);
  }
  // The world node again represents *everything* outside V_A (including the
  // partner's pages), so its score is the complement of the local mass.
  double my_mass = 0;
  for (double s : scores_) my_mass += s;
  world_score_ = std::max(1.0 - my_mass, kWorldScoreFloor);
}

void JxpPeer::RunLocalPageRank() {
  if (options_.incremental.enabled) {
    RunLocalPageRankIncremental();
  } else {
    RunLocalPageRankFull();
  }
}

void JxpPeer::RunLocalPageRankFull() {
  const size_t n = fragment_.NumLocalPages();
  // The world row's weights are alpha(r)/alpha_w^{t-1} (Eq. 8). Using the
  // *previous run's* world score as the denominator — not the post-combine
  // complement 1 - sum(scores), which the take-max combination can push
  // below it — keeps the row's flow per entry at most alpha(r)/out(r).
  //
  // One subtlety the paper's proof glosses over: safety (Theorem 5.3) needs
  // the run's *resulting* world score to stay <= the denominator, otherwise
  // the realized flow alpha_w^t * p_wi exceeds alpha(r)/out(r) and scores
  // can transiently overestimate the true PageRank. We therefore iterate to
  // a self-consistent denominator: if the result exceeds it, re-run with
  // the larger value (the map D -> alpha_w(D) is increasing and bounded by
  // 1, so this converges; in the normal monotone regime the first run
  // already satisfies the condition and the loop body executes once).
  double denominator = std::max(world_score_, kWorldScoreFloor);
  double local_mass = 0;
  for (double s : scores_) local_mass += s;
  std::vector<double> init = scores_;
  init.push_back(std::max(1.0 - local_mass, kWorldScoreFloor));

  markov::PowerIterationOptions pi_options;
  pi_options.damping = options_.damping;
  pi_options.tolerance = options_.pr_tolerance;
  pi_options.max_iterations = options_.pr_max_iterations;

  markov::PowerIterationResult result;
  int total_iterations = 0;
  // The cache keeps the local rows across meetings (the world row is
  // regenerated per pass, its scores change at every meeting) and the guard
  // loop below only rescales the world row per denominator.
  const ExtendedGraphSystem* system =
      &extended_cache_.Prepare(fragment_, world_, denominator, global_size_,
                               options_.uniform_world_links
                                   ? WorldLinkWeighting::kUniform
                                   : WorldLinkWeighting::kScoreProportional);
  std::optional<ThreadCpuTimer> solve_timer;
  if (obs::Enabled()) solve_timer.emplace();
  for (int guard = 0; guard < 64; ++guard) {
    ever_clamped_world_row_ |= system->world_row_clamped;
    result = StationaryDistribution(system->matrix, system->teleport, system->dangling,
                                    init, pi_options);
    total_iterations += result.iterations;
    incremental_stats_.full_work_entries +=
        static_cast<size_t>(result.iterations) * system->matrix.NumEntries();
    const double pr_world = result.distribution[n];
    if (pr_world <= denominator + 1e-13) break;
    denominator = pr_world;
    init = result.distribution;  // Warm start for the re-run.
    system = &extended_cache_.Rescale(denominator);
  }
  if (solve_timer.has_value()) solve_millis_ += solve_timer->ElapsedMillis();
  last_pr_iterations_ = total_iterations;
  ++incremental_stats_.full_solves;
  incremental_stats_.full_iterations += static_cast<size_t>(total_iterations);

  const double pr_world = result.distribution[n];
  if (options_.combine_mode == CombineMode::kAverage) {
    // Eq. 2: external scores are re-weighted by PR(W)/L(W).
    world_.ScaleScores(pr_world / denominator);
  }
  scores_.assign(result.distribution.begin(), result.distribution.begin() + n);
  world_score_ = pr_world;
}

void JxpPeer::RunLocalPageRankIncremental() {
  const size_t n = fragment_.NumLocalPages();
  const uint32_t world_state = static_cast<uint32_t>(n);
  double denominator = std::max(world_score_, kWorldScoreFloor);

  // The cheap delta path is sound only when the cached system survives this
  // Prepare with nothing but its world row rewritten: same fragment (same
  // state indexing, untouched local rows) and a solver state of matching
  // dimension. Snapshot the world row before Prepare overwrites it in place.
  std::vector<markov::MatrixEntry> old_row;
  double old_row_sum = 0;
  bool delta_path = incremental_.valid() && incremental_.num_states() == n + 1 &&
                    extended_cache_.CachedLocalRowsMatch(n);
  if (delta_path) {
    const auto row = extended_cache_.system().matrix.Row(world_state);
    old_row.assign(row.begin(), row.end());
    old_row_sum = extended_cache_.system().matrix.RowSum(world_state);
  }
  const ExtendedGraphSystem* system =
      &extended_cache_.Prepare(fragment_, world_, denominator, global_size_,
                               options_.uniform_world_links
                                   ? WorldLinkWeighting::kUniform
                                   : WorldLinkWeighting::kScoreProportional);
  ever_clamped_world_row_ |= system->world_row_clamped;
  // A moved global-size estimate changes teleport/dangling densely; the
  // sparse delta cannot express that.
  if (delta_path && !incremental_.TeleportMatches(system->teleport, system->dangling)) {
    delta_path = false;
  }

  pagerank::GaussSouthwellOptions gs;
  gs.damping = options_.damping;
  gs.tolerance = options_.incremental.tolerance > 0 ? options_.incremental.tolerance
                                                    : options_.pr_tolerance;
  gs.max_pushes = options_.incremental.max_push_factor * (n + 1);

  // dirty_fallback_fraction <= 0 forces the fallback without touching the
  // solver at all (the fallback-equivalence escape hatch).
  bool attempt = options_.incremental.dirty_fallback_fraction > 0;
  if (attempt) {
    if (delta_path) {
      // Fold the meeting's changes into the residual: every local score the
      // combine step moved, then the rewritten world row. Only the world
      // row changed, so UpdateSolutionEntry reads consistent local rows;
      // UpdateRow uses x[world], which no combine touches.
      const std::span<const double> x = incremental_.solution();
      for (uint32_t i = 0; i < static_cast<uint32_t>(n); ++i) {
        if (scores_[i] != x[i]) {
          incremental_.UpdateSolutionEntry(system->matrix, i, scores_[i]);
        }
      }
      incremental_.UpdateRow(system->matrix, world_state, old_row, old_row_sum);
    } else {
      double local_mass = 0;
      for (double s : scores_) local_mass += s;
      std::vector<double> x0 = scores_;
      x0.push_back(std::max(1.0 - local_mass, kWorldScoreFloor));
      incremental_.Reseed(system->matrix, system->teleport, system->dangling, gs,
                          std::move(x0));
      ++incremental_stats_.reseeds;
      incremental_stats_.push_work_entries += system->matrix.NumEntries() + n + 1;
      if (obs::Enabled()) GetIncrementalPrMetrics().reseeds.Increment();
    }
    const size_t dirty = incremental_.CountDirty();
    const size_t dirty_limit = static_cast<size_t>(
        options_.incremental.dirty_fallback_fraction * static_cast<double>(n + 1));
    if (obs::Enabled()) {
      GetIncrementalPrMetrics().dirty_rows.Observe(static_cast<double>(dirty));
    }
    attempt = dirty <= dirty_limit;
  }

  if (attempt) {
    size_t total_pushes = 0;
    size_t total_touched = 0;
    bool converged = true;
    std::optional<ThreadCpuTimer> solve_timer;
    if (obs::Enabled()) solve_timer.emplace();
    // Same self-consistent-denominator guard as the full path: when the
    // solved world score exceeds the denominator the world row was weighted
    // with, re-weight the row at the larger value and repair by pushes.
    for (int guard = 0; guard < 64; ++guard) {
      const pagerank::GaussSouthwellResult res = incremental_.Solve(system->matrix);
      total_pushes += res.pushes;
      total_touched += res.touched_rows;
      incremental_stats_.push_work_entries += res.work_entries;
      if (!res.converged) {
        converged = false;  // Push budget exhausted; fall back.
        break;
      }
      const double pr_world = incremental_.solution()[world_state];
      if (pr_world <= denominator + 1e-13) break;
      denominator = pr_world;
      const auto row = system->matrix.Row(world_state);
      old_row.assign(row.begin(), row.end());
      old_row_sum = system->matrix.RowSum(world_state);
      system = &extended_cache_.Rescale(denominator);
      ever_clamped_world_row_ |= system->world_row_clamped;
      incremental_.UpdateRow(system->matrix, world_state, old_row, old_row_sum);
    }
    if (solve_timer.has_value()) solve_millis_ += solve_timer->ElapsedMillis();
    if (converged) {
      const std::span<const double> x = incremental_.solution();
      const double pr_world = x[world_state];
      if (options_.combine_mode == CombineMode::kAverage) {
        world_.ScaleScores(pr_world / denominator);
      }
      scores_.assign(x.begin(), x.begin() + static_cast<ptrdiff_t>(n));
      // The floor only matters for pathological inputs (the solver's fixed
      // point has a strictly positive world score); it keeps the next run's
      // denominator usable without perturbing the solver state.
      world_score_ = std::max(pr_world, kWorldScoreFloor);
      last_pr_iterations_ = 0;  // No power iterations ran.
      ++incremental_stats_.incremental_solves;
      incremental_stats_.pushes += total_pushes;
      if (obs::Enabled()) {
        IncrementalPrMetrics& metrics = GetIncrementalPrMetrics();
        metrics.solves.Increment();
        metrics.pushes.Increment(total_pushes);
        metrics.pushes_per_solve.Observe(static_cast<double>(total_pushes));
        metrics.touched_rows.Observe(static_cast<double>(total_touched));
      }
      return;
    }
  }

  // Fallback: exact solve, then reseed the push state from its result so
  // the next meeting can delta from a converged solution.
  ++incremental_stats_.fallbacks;
  if (obs::Enabled()) GetIncrementalPrMetrics().fallbacks.Increment();
  RunLocalPageRankFull();
  const ExtendedGraphSystem& solved = extended_cache_.system();
  std::vector<double> x = scores_;
  x.push_back(world_score_);
  incremental_.Reseed(solved.matrix, solved.teleport, solved.dangling, gs, std::move(x));
  ++incremental_stats_.reseeds;
  incremental_stats_.push_work_entries += solved.matrix.NumEntries() + n + 1;
  if (obs::Enabled()) GetIncrementalPrMetrics().reseeds.Increment();
}

double JxpPeer::MessageWireBytes() const {
  // Page table: id (8) + out-degree (4) + score (8) per local page;
  // successor lists: 8 per link; world node entries as WorldNode::WireBytes.
  const double page_bytes = static_cast<double>(fragment_.NumLocalPages()) * (8 + 4 + 8);
  const double link_bytes = static_cast<double>(fragment_.NumLocalEdges() +
                                                fragment_.NumExternalOutEdges()) * 8;
  return page_bytes + link_bytes + world_.WireBytes();
}

void JxpPeer::ReplaceFragment(graph::Subgraph fragment) {
  JXP_CHECK_GT(fragment.NumLocalPages(), 0u);
  std::vector<double> new_scores(fragment.NumLocalPages(), 0.0);
  for (graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
    const graph::PageId page = fragment.GlobalId(i);
    const graph::Subgraph::LocalIndex old = fragment_.LocalIndexOf(page);
    if (old != graph::Subgraph::kNotLocal) {
      new_scores[i] = scores_[old];
    } else if (const auto info = world_.Find(page)) {
      // The page was known through the world node: keep that estimate.
      new_scores[i] = std::max(info->score, 1.0 / static_cast<double>(global_size_));
    } else if (const auto dangling = world_.FindDangling(page)) {
      new_scores[i] = std::max(*dangling, 1.0 / static_cast<double>(global_size_));
    } else {
      new_scores[i] = 1.0 / static_cast<double>(global_size_);
    }
  }
  const graph::Subgraph old_fragment = std::move(fragment_);
  const std::vector<double> old_scores = std::move(scores_);
  fragment_ = std::move(fragment);
  scores_ = std::move(new_scores);
  // The cached extended-system local rows describe the old fragment, and the
  // push solver's state is indexed by the old fragment's local indices: both
  // must be rebuilt. The next incremental run reseeds densely from the
  // carried-over scores and repairs by pushes — churn's fast path.
  extended_cache_.InvalidateFragment();
  incremental_.Invalidate();
  // Drop world knowledge about pages that became local, and in-links aimed
  // at pages we no longer hold.
  world_.Retain([this](graph::PageId page) { return !fragment_.Contains(page); },
                [this](graph::PageId t) { return fragment_.Contains(t); });
  // Retain what the peer learned from crawling the dropped pages: a dropped
  // page that links into the retained set becomes a world-node entry with
  // its last known score.
  const auto last_known = [&old_scores](graph::Subgraph::LocalIndex i) {
    return old_scores[i];
  };
  world_.Merge(PagesAsWorld(old_fragment, fragment_, last_known), options_.combine_mode,
               options_.authoritative_refresh);
  // The re-crawl may have discovered new pages; the sketch only ever grows
  // (departed pages still exist in the global graph).
  SeedPageSketch();
  RefreshGlobalSizeEstimate();
  RunLocalPageRank();
}

}  // namespace core
}  // namespace jxp
