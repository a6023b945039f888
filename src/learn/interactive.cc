#include "learn/interactive.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "twig/twig_containment.h"

namespace qlearn {
namespace learn {

using common::Result;
using common::Status;
using session::CandidateState;
using twig::TwigQuery;
using xml::NodeId;

namespace {

/// "QLTE" little-endian: the twig-engine snapshot blob tag. Version 2
/// carries no candidate-store segment (rows and witness planes rebuild
/// lazily); version 1 images, which end in one, are rejected.
constexpr uint32_t kTwigEngineMagic = 0x45544C51u;
constexpr uint32_t kTwigEngineVersion = 2;

/// FNV-1a over a query's nodes (parent, axis, label in id order) and its
/// selection: the first test of exact query equality.
uint64_t QueryHash(const TwigQuery& q) {
  uint64_t h = 14695981039346656037ULL;
  auto fold = [&h](uint64_t value) {
    h ^= value;
    h *= 1099511628211ULL;
  };
  for (twig::QNodeId n = 1; n < q.NumNodes(); ++n) {
    fold(q.parent(n));
    fold((static_cast<uint64_t>(q.label(n)) << 1) |
         static_cast<uint64_t>(q.axis(n)));
  }
  fold(q.selection());
  return h;
}

}  // namespace

TwigEngine::TwigEngine(const xml::XmlTree* doc, NodeId seed,
                       const InteractiveTwigOptions& options)
    : doc_(doc),
      options_(options),
      hypothesis_(ExampleToQuery(TreeExample{doc, seed})),
      generalizer_(*doc, options.learner) {
  frontier_.Reserve(doc->NumNodes());
  // One plane and one row column per doc node: rows are the candidates'
  // selected-sets, planes their transpose (the witness index). Row, slot
  // and candidate ids are all the NodeId.
  store_.Reset(doc->NumNodes(), doc->NumNodes());
  store_.ConfigureRows(doc->NumNodes());
  neg_words_.assign(store_.row_words(), 0);
  for (NodeId v = 0; v < doc->NumNodes(); ++v) {
    frontier_.Add(v);
  }
  // The seed is a pre-labeled positive: closed, but never "asked".
  frontier_.MarkLabeled(seed, /*positive=*/true);
}

std::optional<TwigQuery> TwigEngine::Extended(NodeId v) {
  if (!generalizer_.has_memo()) generalizer_.Reset(hypothesis_);
  auto g = generalizer_.Generalize(v);
  if (!g.ok()) return std::nullopt;
  return std::move(g).value();
}

bool TwigEngine::EnsureRow(NodeId v) {
  if (!store_.RowFresh(v)) {
    auto h2 = Extended(v);
    if (!h2.has_value()) {
      store_.MarkRowAbsent(v);
      return false;
    }
    // Equal queries select equal sets: copy the row of the first candidate
    // that generalized to this query (rows stay fresh all epoch).
    const uint64_t hash = QueryHash(*h2);
    uint64_t* row = store_.BeginRow(v);
    for (const EvaluatedQuery& seen : evaluated_) {
      if (seen.hash == hash && seen.query == *h2) {
        assert(store_.RowPresent(seen.row));
        std::copy_n(store_.RowWords(seen.row), store_.row_words(), row);
        return true;
      }
    }
    const twig::TwigEvaluator eval2(*h2, *doc_);
    const std::span<const uint64_t> selected = eval2.SelectedBits();
    std::copy(selected.begin(), selected.end(), row);
    evaluated_.push_back(EvaluatedQuery{hash, std::move(*h2), v});
  }
  return store_.RowPresent(v);
}

std::optional<NodeId> TwigEngine::SelectQuestion(common::Rng* rng) {
  std::optional<size_t> pick;
  if (options_.strategy == TwigStrategy::kRandom) {
    pick = frontier_.Select(session::UniformRandomStrategy{}, rng);
  } else {
    // Greedy impact: the candidate whose positive answer would settle the
    // most currently-open nodes. The selected-set rows are materialized
    // once per hypothesis; the intersection with the open set is one
    // word-wise popcount against the frontier's open words.
    pick = frontier_.Select(
        session::Greedy<long>(
            0,
            [this](size_t v) -> std::optional<long> {
              if (!EnsureRow(static_cast<NodeId>(v))) return std::nullopt;
              return static_cast<long>(
                  store_.PopcountRowAnd(v, frontier_.open_words().data()));
            }),
        rng);
  }
  generalizer_.Release();
  if (!pick.has_value()) return std::nullopt;
  return static_cast<NodeId>(*pick);
}

void TwigEngine::MarkAsked(const NodeId& item) {
  frontier_.MarkAsked(item);
}

void TwigEngine::Observe(const NodeId& item, bool positive,
                         session::SessionStats* stats) {
  frontier_.MarkLabeled(item, positive);
  hypothesis_advanced_ = false;
  if (positive) {
    auto h2 = Extended(item);
    // The memo is bound to the hypothesis about to change.
    generalizer_.Release();
    if (!h2.has_value()) {
      ++stats->conflicts;  // target outside the anchored class
    } else {
      hypothesis_ = std::move(*h2);
      // Every selected-set row was computed against the old hypothesis.
      frontier_.InvalidateAll();
      store_.InvalidateRows();
      evaluated_.clear();
      hypothesis_advanced_ = true;
    }
  } else {
    negatives_.push_back(item);
    neg_words_[item / 64] |= 1ULL << (item % 64);
    // Negative answers leave the hypothesis — and thus every memoized
    // selected-set row — untouched: nothing to invalidate.
  }
}

void TwigEngine::OnPositive(const NodeId& /*item*/) {
  // A conflicting positive leaves the hypothesis untouched; only a real
  // generalization changes the propagation predicates.
  if (hypothesis_advanced_) prop_.RecordHypothesisChange();
}

void TwigEngine::OnNegative(const NodeId& item) { prop_.RecordNegative(item); }

void TwigEngine::Propagate(session::SessionStats* stats) {
  if (reference_propagation_) {
    ReferencePropagate(stats);
    prop_.MarkFullPassDone();
    witness_planes_valid_ = false;
  } else if (prop_.NeedsFullPass()) {
    FullPropagate(stats);
    prop_.MarkFullPassDone();
    // The witness planes were transposed from the old hypothesis' rows;
    // the next negative delta rebuilds them from the fresh rows.
    witness_planes_valid_ = false;
  } else {
    ApplyNegativeDeltas(stats);
  }
#ifndef NDEBUG
  AssertPropagationFixpoint();
#endif
  generalizer_.Release();
}

void TwigEngine::ReferencePropagate(session::SessionStats* stats) {
  twig::TwigEvaluator eval(hypothesis_, *doc_);
  for (NodeId v = 0; v < doc_->NumNodes(); ++v) {
    // Unlabeled nodes (including discarded in-flight questions) and earlier
    // forced negatives are eligible: a grown hypothesis can reach nodes a
    // smaller one had ruled out.
    const CandidateState state = frontier_.state(v);
    if (state != CandidateState::kUnknown &&
        state != CandidateState::kAsked &&
        state != CandidateState::kForcedNegative) {
      continue;
    }
    if (eval.Selects(v)) {
      // Every consistent generalization of the hypothesis selects v.
      frontier_.MarkForced(v, /*positive=*/true);
      ++stats->forced_positive;
    }
  }
  // Forced negatives: joining v would force selecting a known negative.
  for (NodeId v = 0; v < doc_->NumNodes(); ++v) {
    const CandidateState state = frontier_.state(v);
    if (state != CandidateState::kUnknown &&
        state != CandidateState::kAsked) {
      continue;
    }
    if (!EnsureRow(v) || store_.RowIntersects(v, neg_words_.data())) {
      frontier_.MarkForced(v, /*positive=*/false);
      ++stats->forced_negative;
    }
  }
}

void TwigEngine::FullPropagate(session::SessionStats* stats) {
  // Forced positives: one evaluator sweep under the (possibly just-grown)
  // hypothesis — same eligibility as the historical pass, including the
  // forced-negative → forced-positive upgrade.
  twig::TwigEvaluator eval(hypothesis_, *doc_);
  for (NodeId v = 0; v < doc_->NumNodes(); ++v) {
    const CandidateState state = frontier_.state(v);
    if (state != CandidateState::kUnknown &&
        state != CandidateState::kAsked &&
        state != CandidateState::kForcedNegative) {
      continue;
    }
    if (eval.Selects(v)) {
      frontier_.MarkForced(v, /*positive=*/true);
      ++stats->forced_positive;
    }
  }
  if (negatives_.empty()) {
    // With no negative yet, the only convictable candidates are the
    // out-of-class ones (no anchored generalization exists). That is
    // decidable from the generalization alone. Greedy scoring reads every
    // open candidate's row next, so under it the pass materializes the row
    // now; random strategies never read rows, so they skip the evaluation.
    const bool greedy = options_.strategy == TwigStrategy::kGreedyImpact;
    for (NodeId v = 0; v < doc_->NumNodes(); ++v) {
      const CandidateState state = frontier_.state(v);
      if (state != CandidateState::kUnknown &&
          state != CandidateState::kAsked) {
        continue;
      }
      if (!(greedy ? EnsureRow(v) : Extended(v).has_value())) {
        frontier_.MarkForced(v, /*positive=*/false);
        ++stats->forced_negative;
      }
    }
    return;
  }
  // Forced negatives against the accumulated negative set: the hypothesis
  // changed, so every selected-set row is rematerialized (and reused by
  // scoring); the per-candidate test is one word-wise intersection with
  // the negative bitset.
  for (NodeId v = 0; v < doc_->NumNodes(); ++v) {
    const CandidateState state = frontier_.state(v);
    if (state != CandidateState::kUnknown &&
        state != CandidateState::kAsked) {
      continue;
    }
    if (!EnsureRow(v) || store_.RowIntersects(v, neg_words_.data())) {
      frontier_.MarkForced(v, /*positive=*/false);
      ++stats->forced_negative;
    }
  }
}

void TwigEngine::ApplyNegativeDeltas(session::SessionStats* stats) {
  const std::vector<NodeId>& deltas = prop_.DrainDeltas();
  if (deltas.empty()) return;
  // The hypothesis is unchanged, so no new forced positives exist and the
  // selected-set rows are still valid: each new negative settles exactly
  // the active candidates whose row holds it — active ∧ plane(neg), one
  // word-parallel sweep over the transposed witness planes.
  if (!witness_planes_valid_) RebuildWitnessPlanes();
  for (NodeId neg : deltas) {
    scratch_ = frontier_.active_words();
    store_.AndPlanes(neg, 1, scratch_.data());
    session::ForEachSetBit(scratch_.data(), scratch_.size(), [&](size_t v) {
      frontier_.MarkForced(v, /*positive=*/false);
      ++stats->forced_negative;
    });
  }
}

void TwigEngine::RebuildWitnessPlanes() {
  const std::vector<uint64_t>& active = frontier_.active_words();
  session::ForEachSetBit(active.data(), active.size(), [&](size_t v) {
    // The preceding full pass settled every out-of-class candidate; a live
    // one always generalizes.
    const bool present = EnsureRow(static_cast<NodeId>(v));
    assert(present && "live candidate without an anchored generalization");
    (void)present;
  });
  store_.TransposeActiveRowsToPlanes(active.data());
  witness_planes_valid_ = true;  // planes now match the current hypothesis
}

size_t TwigEngine::WitnessBucketsForTest() const {
  // The plane-sweep analogue of the historical bucket count: document
  // nodes witnessed by at least one live candidate. O(n²) probe, test-only.
  const std::vector<uint64_t>& active = frontier_.active_words();
  size_t live_nodes = 0;
  for (NodeId u = 0; u < doc_->NumNodes(); ++u) {
    bool any = false;
    for (NodeId v = 0; v < doc_->NumNodes() && !any; ++v) {
      any = ((active[v / 64] >> (v % 64)) & 1) != 0 &&
            store_.PlaneBitForTest(u, v);
    }
    if (any) ++live_nodes;
  }
  return live_nodes;
}

#ifndef NDEBUG
void TwigEngine::AssertPropagationFixpoint() {
  // The historical full-rescan predicates must find nothing left to force:
  // the flush reached the same fixpoint (hence identical forced sets and
  // stats totals) as the full pass it replaced.
  twig::TwigEvaluator eval(hypothesis_, *doc_);
  for (NodeId v = 0; v < doc_->NumNodes(); ++v) {
    const CandidateState state = frontier_.state(v);
    if (state == CandidateState::kUnknown || state == CandidateState::kAsked ||
        state == CandidateState::kForcedNegative) {
      assert(!eval.Selects(v) && "delta flush missed a forced positive");
    }
    if (state != CandidateState::kUnknown &&
        state != CandidateState::kAsked) {
      continue;
    }
    const bool present = EnsureRow(v);
    assert(present && "delta flush missed an out-of-class forced negative");
    if (!present) continue;
    assert(!store_.RowIntersects(v, neg_words_.data()) &&
           "delta flush missed a forced negative");
  }
}
#endif

void TwigEngine::SerializeSnapshot(session::SnapshotWriter* writer) const {
  writer->WriteU32(kTwigEngineMagic);
  writer->WriteU32(kTwigEngineVersion);
  writer->WriteU8(static_cast<uint8_t>(options_.strategy));
  // Hypothesis tree, structurally: nodes are written in id order (a parent
  // always precedes its children by construction), so restore is one
  // AddNode loop.
  writer->WriteU32(static_cast<uint32_t>(hypothesis_.NumNodes()));
  for (twig::QNodeId q = 1; q < hypothesis_.NumNodes(); ++q) {
    writer->WriteU32(hypothesis_.parent(q));
    writer->WriteU8(static_cast<uint8_t>(hypothesis_.axis(q)));
    writer->WriteU32(hypothesis_.label(q));
  }
  writer->WriteU32(hypothesis_.selection());
  writer->WriteU32(static_cast<uint32_t>(hypothesis_.marked().size()));
  for (twig::QNodeId q : hypothesis_.marked()) writer->WriteU32(q);
  // Accumulated negatives (neg_words_ is their bitset mirror, rebuilt on
  // restore rather than serialized twice).
  writer->WriteU64(negatives_.size());
  for (NodeId v : negatives_) writer->WriteU32(v);
  frontier_.SerializeState(writer);
}

common::Status TwigEngine::RestoreSnapshot(session::SnapshotReader* reader) {
  uint32_t magic = 0, version = 0;
  uint8_t strategy = 0;
  Status s = reader->ReadU32(&magic);
  if (s.ok()) s = reader->ReadU32(&version);
  if (s.ok()) s = reader->ReadU8(&strategy);
  if (!s.ok()) return s;
  if (magic != kTwigEngineMagic) {
    return Status::InvalidArgument("not a twig-engine snapshot");
  }
  if (version != kTwigEngineVersion) {
    return Status::InvalidArgument("unsupported twig-engine snapshot version " +
                                   std::to_string(version));
  }
  if (strategy != static_cast<uint8_t>(options_.strategy)) {
    return Status::InvalidArgument(
        "twig-engine snapshot was taken under a different strategy");
  }
  uint32_t num_nodes = 0;
  s = reader->ReadU32(&num_nodes);
  if (!s.ok()) return s;
  if (num_nodes == 0) {
    return Status::InvalidArgument(
        "twig-engine snapshot hypothesis lacks the virtual root");
  }
  TwigQuery hypothesis;
  for (twig::QNodeId q = 1; q < num_nodes; ++q) {
    uint32_t parent = 0, label = 0;
    uint8_t axis = 0;
    s = reader->ReadU32(&parent);
    if (s.ok()) s = reader->ReadU8(&axis);
    if (s.ok()) s = reader->ReadU32(&label);
    if (!s.ok()) return s;
    if (parent >= q) {
      return Status::InvalidArgument(
          "twig-engine snapshot node " + std::to_string(q) +
          " has forward parent " + std::to_string(parent));
    }
    if (axis > static_cast<uint8_t>(twig::Axis::kDescendant)) {
      return Status::InvalidArgument(
          "twig-engine snapshot has invalid axis " + std::to_string(axis));
    }
    hypothesis.AddNode(parent, static_cast<twig::Axis>(axis), label);
  }
  uint32_t selection = 0, num_marked = 0;
  s = reader->ReadU32(&selection);
  if (s.ok()) s = reader->ReadU32(&num_marked);
  if (!s.ok()) return s;
  // A live engine's hypothesis always selects a document node: a boolean
  // query or a selection at the virtual root has no selection path to
  // generalize.
  if (selection == 0 || selection == twig::kInvalidQNode) {
    return Status::InvalidArgument(
        "twig-engine snapshot hypothesis selects no document node");
  }
  if (selection >= num_nodes) {
    return Status::InvalidArgument(
        "twig-engine snapshot selection node out of range");
  }
  hypothesis.set_selection(selection);
  for (uint32_t i = 0; i < num_marked; ++i) {
    uint32_t q = 0;
    s = reader->ReadU32(&q);
    if (!s.ok()) return s;
    if (q >= num_nodes) {
      return Status::InvalidArgument(
          "twig-engine snapshot marked node out of range");
    }
    hypothesis.AddMarked(q);
  }
  uint64_t num_negatives = 0;
  s = reader->ReadU64(&num_negatives);
  if (!s.ok()) return s;
  std::vector<NodeId> negatives;
  negatives.reserve(static_cast<size_t>(
      std::min<uint64_t>(num_negatives, doc_->NumNodes())));
  for (uint64_t i = 0; i < num_negatives; ++i) {
    uint32_t v = 0;
    s = reader->ReadU32(&v);
    if (!s.ok()) return s;
    if (v >= doc_->NumNodes()) {
      return Status::InvalidArgument(
          "twig-engine snapshot negative node " + std::to_string(v) +
          " outside the document");
    }
    negatives.push_back(v);
  }
  s = frontier_.RestoreState(reader);
  if (!s.ok()) return s;

  hypothesis_ = std::move(hypothesis);
  negatives_ = std::move(negatives);
  neg_words_.assign(store_.row_words(), 0);
  for (NodeId v : negatives_) neg_words_[v / 64] |= 1ULL << (v % 64);
  hypothesis_advanced_ = false;
  evaluated_.clear();
  // Snapshots are taken between answered turns: every queued delta was
  // flushed, so the restored engine starts in steady state. The witness
  // planes and selected-set rows were computed against whatever hypothesis
  // was live before the restore — both rebuild lazily from the restored
  // one.
  store_.InvalidateRows();
  prop_.MarkFullPassDone();
  witness_planes_valid_ = false;
  return Status::OK();
}

TwigQuery TwigEngine::Finish(session::SessionStats* stats) {
  // Audit forced positives against the oracle-visible truth: conflicts mean
  // the target was outside the hypothesis class.
  twig::TwigEvaluator eval(hypothesis_, *doc_);
  for (NodeId neg : negatives_) {
    if (eval.Selects(neg)) ++stats->conflicts;
  }
  return twig::Minimize(hypothesis_);
}

Result<InteractiveTwigResult> RunInteractiveTwigSession(
    const xml::XmlTree& doc, NodeId seed, TwigOracle* oracle,
    const InteractiveTwigOptions& options) {
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle must not be null");
  }
  if (!oracle->IsPositive(doc, seed)) {
    return Status::InvalidArgument("seed node must be a positive example");
  }
  session::SessionOptions session_options;
  session_options.seed = options.seed;
  session_options.max_questions = options.max_questions;
  session::LearningSession<TwigEngine> session(TwigEngine(&doc, seed, options),
                                               session_options);

  InteractiveTwigResult result;
  result.query = session.Run(
      [&](NodeId node) { return oracle->IsPositive(doc, node); });
  const session::SessionStats& stats = session.stats();
  result.questions = stats.questions;
  result.forced_positive = stats.forced_positive;
  result.forced_negative = stats.forced_negative;
  result.conflicts = stats.conflicts;
  return result;
}

}  // namespace learn
}  // namespace qlearn
