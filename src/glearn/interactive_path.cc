#include "glearn/interactive_path.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>
#include <vector>

#include "automata/nfa.h"

namespace qlearn {
namespace glearn {

using common::Result;
using common::Status;
using common::SymbolId;
using graph::Path;

namespace {

/// Historical sentinel of the cost-minimizing scans (best_cost = 1 << 30
/// with strict <): negated, any real generalization cost beats it.
constexpr long kCostSentinel = -(1L << 30);

/// "QLPE" little-endian: the path-engine snapshot blob tag.
constexpr uint32_t kPathEngineMagic = 0x45504C51u;
constexpr uint32_t kPathEngineVersion = 1;

/// PathUnit flag byte: bit 0 = optional, bit 1 = repeat.
constexpr uint8_t kUnitOptionalBit = 1;
constexpr uint8_t kUnitRepeatBit = 2;

void WritePattern(const ConcatPattern& pattern,
                  session::SnapshotWriter* writer) {
  writer->WriteU64(pattern.units().size());
  for (const PathUnit& unit : pattern.units()) {
    writer->WriteU32(unit.symbol);
    uint8_t flags = 0;
    if (unit.optional) flags |= kUnitOptionalBit;
    if (unit.repeat) flags |= kUnitRepeatBit;
    writer->WriteU8(flags);
  }
}

common::Status ReadPattern(session::SnapshotReader* reader,
                           ConcatPattern* pattern) {
  uint64_t count = 0;
  common::Status s = reader->ReadU64(&count);
  if (!s.ok()) return s;
  std::vector<PathUnit> units;
  units.reserve(static_cast<size_t>(std::min<uint64_t>(count, 1024)));
  for (uint64_t i = 0; i < count; ++i) {
    PathUnit unit;
    uint8_t flags = 0;
    s = reader->ReadU32(&unit.symbol);
    if (s.ok()) s = reader->ReadU8(&flags);
    if (!s.ok()) return s;
    if (flags > (kUnitOptionalBit | kUnitRepeatBit)) {
      return common::Status::InvalidArgument(
          "path-engine snapshot has invalid unit flags " +
          std::to_string(flags));
    }
    unit.optional = (flags & kUnitOptionalBit) != 0;
    unit.repeat = (flags & kUnitRepeatBit) != 0;
    units.push_back(unit);
  }
  *pattern = ConcatPattern(std::move(units));
  return common::Status::OK();
}

}  // namespace

PathEngine::PathEngine(const graph::Graph* g, const Path& seed,
                       const InteractivePathOptions& options)
    : g_(g),
      strategy_(options.strategy),
      hypothesis_(ConcatPattern::FromWord(graph::PathWord(*g, seed))),
      max_positive_weight_(graph::PathWeight(*g, seed)) {
  auto pool = std::make_shared<Pool>();
  std::vector<Candidate>& candidates = pool->candidates;
  std::vector<WordClass>& word_classes = pool->word_classes;
  // Label words are keyed on a trie walked alongside the enumeration: a
  // path's word is its parent path's word plus its last edge's label, so
  // its class is one child step from the class the DFS visited just
  // before descending. Trie node 0 is the empty word and node c + 1 is
  // class c; a node is created on its word's first appearance, so class
  // ids follow first appearance.
  constexpr uint32_t kNoNode = ~uint32_t{0};
  std::vector<uint32_t> first_child{kNoNode};
  std::vector<uint32_t> next_sibling{kNoNode};
  std::vector<uint32_t> node_at{0};  // [d]: node of the path's first d edges
  graph::ForEachPath(
      *g, options.max_path_edges, options.max_candidates,
      [&](const Path& path) {
        const size_t depth = path.edges.size();
        const uint32_t parent = node_at[depth - 1];
        const SymbolId label = g->edge(path.edges.back()).label;
        uint32_t node = first_child[parent];
        while (node != kNoNode && word_classes[node - 1].word.back() != label) {
          node = next_sibling[node];
        }
        if (node == kNoNode) {
          node = static_cast<uint32_t>(first_child.size());
          std::vector<SymbolId> word;
          word.reserve(depth);
          if (parent != 0) {
            const std::vector<SymbolId>& prefix = word_classes[parent - 1].word;
            word.assign(prefix.begin(), prefix.end());
          }
          word.push_back(label);
          word_classes.push_back(WordClass{std::move(word)});
          first_child.push_back(kNoNode);
          next_sibling.push_back(first_child[parent]);
          first_child[parent] = node;
        }
        if (node_at.size() <= depth) node_at.resize(depth + 1);
        node_at[depth] = node;
        candidates.push_back(Candidate{path, node - 1});
      });

  // Pre-mark workload matches.
  if (!options.workload.empty()) {
    std::vector<automata::Nfa> nfas;
    nfas.reserve(options.workload.size());
    for (const auto& regex : options.workload) {
      nfas.push_back(automata::Nfa::FromRegex(*regex));
    }
    for (WordClass& word_class : word_classes) {
      for (const automata::Nfa& nfa : nfas) {
        if (nfa.Accepts(word_class.word)) {
          word_class.workload_hit = true;
          break;
        }
      }
    }
  }

  // Questions point into the pool, which no copy or move of the engine
  // relocates.
  std::vector<Question> questions;
  std::vector<uint32_t> class_of;
  questions.reserve(candidates.size());
  class_of.reserve(candidates.size());
  for (size_t k = 0; k < candidates.size(); ++k) {
    const uint32_t c = candidates[k].word_class;
    questions.push_back(
        Question{k, &candidates[k].path, &word_classes[c].word});
    class_of.push_back(c);
  }
  frontier_.AddClassed(std::move(questions), std::move(class_of),
                       word_classes.size());
  pool_ = std::move(pool);
}

std::optional<PathEngine::Question> PathEngine::SelectQuestion(
    common::Rng* rng) {
  std::optional<size_t> pick;
  switch (strategy_) {
    case PathStrategy::kRandom:
      pick = frontier_.Select(session::UniformRandomStrategy{}, rng);
      break;
    case PathStrategy::kFrontier:
      // Smallest generalization cost first; costs depend only on the
      // hypothesis, so they stay memoized across negative answers.
      pick = frontier_.Select(
          session::Greedy<PathScore>(
              PathScore{0, kCostSentinel},
              [this](size_t c) -> std::optional<PathScore> {
                return PathScore{0, -CostOf(c)};
              }),
          rng);
      break;
    case PathStrategy::kWorkload:
      // Workload matches dominate; cost breaks ties.
      pick = frontier_.Select(
          session::Greedy<PathScore>(
              PathScore{0, kCostSentinel},
              [this](size_t c) -> std::optional<PathScore> {
                return PathScore{pool_->word_classes[c].workload_hit ? 1 : 0,
                                 -CostOf(c)};
              }),
          rng);
      break;
  }
  if (!pick.has_value()) return std::nullopt;
  return frontier_.item(*pick);
}

const std::optional<PathEngine::GenMemo>& PathEngine::GenMemoOf(size_t c) {
  return frontier_.MemoOf(c, [this](size_t j) -> GenMemo {
    GenMemo memo;
    memo.extended =
        hypothesis_.Generalize(pool_->word_classes[j].word, &memo.cost);
    return memo;
  });
}

long PathEngine::CostOf(size_t c) {
  return static_cast<long>(GenMemoOf(c)->cost);
}

void PathEngine::MarkAsked(const Question& item) {
  frontier_.MarkAsked(item.index);
}

void PathEngine::Observe(const Question& item, bool positive,
                         session::SessionStats* stats) {
  const std::vector<SymbolId>& word = WordOf(item.index);
  frontier_.MarkLabeled(item.index, positive);
  hypothesis_advanced_ = false;
  if (positive) {
    ConcatPattern grown = hypothesis_.Generalize(word);
    hypothesis_advanced_ = !(grown == hypothesis_);
    hypothesis_ = std::move(grown);
    max_positive_weight_ = std::max(
        max_positive_weight_,
        graph::PathWeight(*g_, pool_->candidates[item.index].path));
    // Every memoized generalization was computed against the old
    // hypothesis — but an identity generalization (mid-batch word already
    // covered) leaves the memos exact, so only a real change invalidates.
    // Negatives never touch the hypothesis: nothing to invalidate.
    if (hypothesis_advanced_) frontier_.InvalidateAll();
    // Conflict detection: only a hypothesis change can newly swallow an
    // accumulated negative, and then every negative must be re-checked.
    if (hypothesis_advanced_) {
      for (const auto& neg : negative_words_) {
        if (hypothesis_.Accepts(neg)) {
          ++stats->conflicts;
          aborted_ = true;
          break;
        }
      }
    }
  } else {
    negative_words_.push_back(word);
    // The hypothesis is untouched, so earlier negatives are still
    // rejected; only the new word needs testing. (It can be accepted
    // mid-batch, when an earlier positive in the same batch grew the
    // hypothesis over this still-pending word.)
    if (hypothesis_.Accepts(word)) {
      ++stats->conflicts;
      aborted_ = true;
    }
  }
}

void PathEngine::OnPositive(const Question& /*item*/) {
  // An identity generalization (word already covered, possible mid-batch)
  // leaves every classification unchanged.
  if (hypothesis_advanced_) prop_.RecordHypothesisChange();
}

void PathEngine::OnNegative(const Question& item) {
  prop_.RecordNegative(pool_->candidates[item.index].word_class);
}

void PathEngine::Propagate(session::SessionStats* stats) {
  if (reference_propagation_) {
    ReferencePropagate(stats);
    prop_.MarkFullPassDone();
  } else if (prop_.NeedsFullPass()) {
    FullPropagate(stats);
    prop_.MarkFullPassDone();
  } else {
    ApplyNegativeDeltas(stats);
  }
#ifndef NDEBUG
  AssertPropagationFixpoint();
#endif
}

void PathEngine::ReferencePropagate(session::SessionStats* stats) {
  for (size_t k = 0; k < frontier_.size(); ++k) {
    if (!frontier_.IsOpen(k)) continue;
    const std::vector<SymbolId>& word = WordOf(k);
    if (hypothesis_.Accepts(word)) {
      // Every consistent generalization still accepts it.
      frontier_.MarkForced(k, /*positive=*/true);
      ++stats->forced_positive;
      continue;
    }
    // Forced negative: absorbing this word would swallow a known negative.
    const ConcatPattern extended = hypothesis_.Generalize(word);
    for (const auto& neg : negative_words_) {
      if (extended.Accepts(neg)) {
        frontier_.MarkForced(k, /*positive=*/false);
        ++stats->forced_negative;
        break;
      }
    }
  }
}

void PathEngine::FullPropagate(session::SessionStats* stats) {
  // Hypothesis-change pass: forced labels never revert, so only the open
  // classes are re-tested, each once for all its members, and the
  // generalized pattern of each survivor is memoized — the same slot
  // scoring reads — so negative-answer deltas and greedy selection never
  // re-run Generalize until the next change.
  const std::vector<WordClass>& word_classes = pool_->word_classes;
  for (size_t c = 0; c < word_classes.size(); ++c) {
    if (frontier_.ClassOpenCount(c) == 0) continue;
    if (hypothesis_.Accepts(word_classes[c].word)) {
      stats->forced_positive += frontier_.MarkForcedClass(c, true);
      continue;
    }
    const std::optional<GenMemo>& memo = GenMemoOf(c);
    for (const auto& neg : negative_words_) {
      if (memo->extended.Accepts(neg)) {
        stats->forced_negative += frontier_.MarkForcedClass(c, false);
        break;  // memo slot was just released by MarkForcedClass
      }
    }
  }
}

void PathEngine::ApplyNegativeDeltas(session::SessionStats* stats) {
  const std::vector<size_t>& deltas = prop_.DrainDeltas();
  if (deltas.empty()) return;
  // The hypothesis is unchanged: no new forced positives, and each open
  // class's memoized generalization is still valid — only the new
  // negative words need accept tests against it.
  const std::vector<WordClass>& word_classes = pool_->word_classes;
  for (size_t c = 0; c < word_classes.size(); ++c) {
    if (frontier_.ClassOpenCount(c) == 0) continue;
    const std::optional<GenMemo>& memo = GenMemoOf(c);
    for (size_t neg : deltas) {
      if (memo->extended.Accepts(word_classes[neg].word)) {
        stats->forced_negative += frontier_.MarkForcedClass(c, false);
        break;  // memo slot was just released by MarkForcedClass
      }
    }
  }
}

#ifndef NDEBUG
void PathEngine::AssertPropagationFixpoint() {
  // The historical full-rescan predicates must find nothing left to force.
  for (size_t k = 0; k < frontier_.size(); ++k) {
    if (!frontier_.IsOpen(k)) continue;
    const std::vector<SymbolId>& word = WordOf(k);
    assert(!hypothesis_.Accepts(word) &&
           "delta flush missed a forced positive");
    const ConcatPattern extended = hypothesis_.Generalize(word);
    for (const auto& neg : negative_words_) {
      assert(!extended.Accepts(neg) && "delta flush missed a forced negative");
    }
  }
}
#endif

void PathEngine::SerializeSnapshot(session::SnapshotWriter* writer) const {
  writer->WriteU32(kPathEngineMagic);
  writer->WriteU32(kPathEngineVersion);
  writer->WriteU8(static_cast<uint8_t>(strategy_));
  writer->WriteU8(aborted_ ? 1 : 0);
  WritePattern(hypothesis_, writer);
  writer->WriteU64(std::bit_cast<uint64_t>(max_positive_weight_));
  writer->WriteU64(negative_words_.size());
  for (const std::vector<common::SymbolId>& word : negative_words_) {
    writer->WriteU64(word.size());
    for (common::SymbolId symbol : word) writer->WriteU32(symbol);
  }
  frontier_.SerializeState(writer);
}

common::Status PathEngine::RestoreSnapshot(session::SnapshotReader* reader) {
  uint32_t magic = 0, version = 0;
  uint8_t strategy = 0, aborted = 0;
  Status s = reader->ReadU32(&magic);
  if (s.ok()) s = reader->ReadU32(&version);
  if (s.ok()) s = reader->ReadU8(&strategy);
  if (s.ok()) s = reader->ReadU8(&aborted);
  if (!s.ok()) return s;
  if (magic != kPathEngineMagic) {
    return Status::InvalidArgument("not a path-engine snapshot");
  }
  if (version != kPathEngineVersion) {
    return Status::InvalidArgument("unsupported path-engine snapshot version " +
                                   std::to_string(version));
  }
  if (strategy != static_cast<uint8_t>(strategy_)) {
    return Status::InvalidArgument(
        "path-engine snapshot was taken under a different strategy");
  }
  ConcatPattern hypothesis;
  s = ReadPattern(reader, &hypothesis);
  if (!s.ok()) return s;
  uint64_t weight_bits = 0, num_negatives = 0;
  s = reader->ReadU64(&weight_bits);
  if (s.ok()) s = reader->ReadU64(&num_negatives);
  if (!s.ok()) return s;
  std::vector<std::vector<common::SymbolId>> negatives;
  negatives.reserve(static_cast<size_t>(
      std::min<uint64_t>(num_negatives, pool_->candidates.size())));
  for (uint64_t i = 0; i < num_negatives; ++i) {
    uint64_t length = 0;
    s = reader->ReadU64(&length);
    if (!s.ok()) return s;
    std::vector<common::SymbolId> word;
    word.reserve(static_cast<size_t>(std::min<uint64_t>(length, 1024)));
    for (uint64_t j = 0; j < length; ++j) {
      common::SymbolId symbol = 0;
      s = reader->ReadU32(&symbol);
      if (!s.ok()) return s;
      word.push_back(symbol);
    }
    negatives.push_back(std::move(word));
  }
  s = frontier_.RestoreState(reader);
  if (!s.ok()) return s;

  hypothesis_ = std::move(hypothesis);
  max_positive_weight_ = std::bit_cast<double>(weight_bits);
  negative_words_ = std::move(negatives);
  aborted_ = aborted != 0;
  hypothesis_advanced_ = false;
  // Snapshots are taken between answered turns: every queued delta was
  // flushed, so the restored engine starts in steady state. The frontier
  // restore already invalidated the GenMemos (they were computed against
  // whatever hypothesis was live before the restore).
  prop_.MarkFullPassDone();
  return Status::OK();
}

Result<InteractivePathResult> RunInteractivePathSession(
    const graph::Graph& g, const Path& seed, PathOracle* oracle,
    const InteractivePathOptions& options) {
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle must not be null");
  }
  if (!oracle->IsPositive(seed)) {
    return Status::InvalidArgument("seed path must be a positive example");
  }
  session::SessionOptions session_options;
  session_options.seed = options.seed;
  session_options.max_questions = options.max_questions;
  session::LearningSession<PathEngine> session(PathEngine(&g, seed, options),
                                               session_options);

  InteractivePathResult result;
  result.hypothesis = session.Run([&](const PathEngine::Question& question) {
    return oracle->IsPositive(*question.path);
  });
  result.max_positive_weight = session.engine().max_positive_weight();
  result.candidate_paths = session.engine().candidate_paths();
  const session::SessionStats& stats = session.stats();
  result.questions = stats.questions;
  result.forced_positive = stats.forced_positive;
  result.forced_negative = stats.forced_negative;
  result.conflicts = stats.conflicts;
  return result;
}

}  // namespace glearn
}  // namespace qlearn
