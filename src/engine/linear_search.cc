#include "engine/linear_search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/hash.h"
#include "engine/resolution.h"
#include "engine/search_cache.h"
#include "engine/state.h"
#include "engine/subsumption.h"
#include "obs/metrics.h"
#include "server/worker_pool.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

struct EncodingHash {
  size_t operator()(const std::vector<uint64_t>& encoding) const {
    return HashRange(encoding.begin(), encoding.end());
  }
};

/// Provenance edge for proof reconstruction: how a canonical state was
/// first reached.
struct ParentEdge {
  std::vector<uint64_t> parent;  // parent canonical encoding
  ProofStep step;                // op that produced the child
};

/// A successor that survived the worker-side filters (simplify, width,
/// dead-state, visited snapshot, exact cache) and awaits the merge phase.
struct Candidate {
  CanonicalState state;
  ProofStep step;  // provenance; only populated with explanations on
  const CanonicalState* visited = nullptr;  // node in the visited table
  bool fresh = false;  // true iff this candidate inserted that node
};

/// Everything one frontier expansion produces. Workers fill these
/// independently (one slot per frontier index), so the merge can process
/// them in deterministic frontier order regardless of scheduling.
struct ExpandOutput {
  std::vector<Candidate> candidates;
  bool accepted = false;
  ProofStep accept_step;
  uint64_t drop_edges = 0;
  uint64_t resolution_edges = 0;
  uint64_t cache_hits = 0;
  size_t peak_state_bytes = 0;
};

constexpr size_t kVisitedShards = 64;  // power of two

// Upper bound on worker threads regardless of what the caller asks for:
// oversubscription beyond this buys nothing, and an absurd request must
// degrade instead of making the fallback pool's thread spawns throw.
constexpr uint32_t kMaxSearchThreads = 64;

/// One queued frontier state plus its subsumption-index registration id
/// (the deterministic tie-break for same-size subsumption).
struct LevelEntry {
  const CanonicalState* state;
  int64_t ordinal;
};

/// The level-synchronous BFS driver. One code path serves the
/// single-threaded and the parallel search: each level is (1) expanded —
/// by a worker pool when wide enough — against a read-only snapshot of
/// the sharded visited table, (2) deduplicated into the shards (workers
/// own disjoint shards, processing candidates in frontier order), and
/// (3) merged sequentially in frontier order (acceptance, subsumption
/// discard and retirement, provenance, next frontier). Only phase 3
/// touches the subsumption indexes, so they stay single-threaded by
/// construction, and the decision — and on completed refutations every
/// counter — is independent of the thread count.
class LinearSearcher {
 public:
  LinearSearcher(const Program& program, const Instance& database,
                 const ProgramIndex& index, const ProofSearchOptions& options,
                 size_t width, size_t max_chunk, WorkerPool* pool,
                 ProofSearchResult* result, ProofExplanation* explanation)
      : program_(program),
        database_(database),
        index_(index),
        cache_(options.cache),
        shared_refuted_(options.shared_refuted),
        subsumption_(options.subsumption),
        width_(width),
        max_chunk_(max_chunk),
        max_states_(options.max_states),
        timed_(options.max_millis != 0),
        num_threads_(std::min(kMaxSearchThreads,
                              std::max<uint32_t>(1, options.num_threads))),
        pool_(pool),
        result_(result),
        explanation_(explanation),
        shards_(kVisitedShards) {
    if (timed_) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options.max_millis);
    }
  }

  void Run(std::vector<Atom> frozen) {
    std::vector<LevelEntry> level;
    {
      // The initial state goes through the same pipeline with a synthetic
      // kStart edge and an all-dirty certificate.
      ExpandOutput seed;
      std::vector<char> dirty(frozen.size(), 1);
      ProofStep start;
      start.kind = ProofStep::Kind::kStart;
      MakeCandidate(std::move(frozen), &dirty, std::move(start), &seed);
      std::vector<const CanonicalState*> no_parent = {nullptr};
      std::vector<ExpandOutput*> seed_outputs = {&seed};
      MergeOutputs(no_parent, seed_outputs, &level);
      AccumulateCounters(seed);
      if (result_->accepted) return Finish();
    }

    while (!level.empty() && !result_->accepted &&
           !result_->budget_exhausted) {
      // Subsumption pruning happens here, per level, just before the
      // workers launch: one sequential pass while the index is quiescent,
      // against everything registered so far — including this level's own
      // siblings (discard + retirement unified). States a budget cut
      // strands unexpanded never pay for a query.
      if (subsumption_) FilterLevel(&level);
      if (level.empty()) break;

      size_t allowed = level.size();
      if (max_states_ != 0) {
        uint64_t remaining = max_states_ > result_->states_expanded
                                 ? max_states_ - result_->states_expanded
                                 : 0;
        if (remaining < allowed) {
          allowed = static_cast<size_t>(remaining);
          result_->budget_exhausted = true;  // part of the level is cut
        }
      }

      std::vector<ExpandOutput> outputs(allowed);
      result_->states_expanded += ExpandLevel(level, allowed, &outputs);
      for (const ExpandOutput& out : outputs) AccumulateCounters(out);

      std::vector<const CanonicalState*> parent_states(allowed);
      std::vector<ExpandOutput*> output_ptrs(allowed);
      for (size_t i = 0; i < allowed; ++i) {
        parent_states[i] = level[i].state;
        output_ptrs[i] = &outputs[i];
      }
      std::vector<LevelEntry> next;
      MergeOutputs(parent_states, output_ptrs, &next);
      level = std::move(next);
    }
    Finish();
  }

 private:
  std::unordered_set<CanonicalState, CanonicalStateHash>& ShardFor(
      size_t hash) {
    return shards_[hash & (kVisitedShards - 1)];
  }

  /// The unified subsumption pass: drops every queued state some other
  /// registered state maps into — visited states of earlier levels
  /// (classic discard), same-level siblings registered earlier or
  /// strictly smaller (retirement), and the shared cache's refuted
  /// states. Dropped states stay visited and stay registered: their
  /// claims remain valid, and the (size, registration-id) measure keeps
  /// the pruning chains well-founded.
  void FilterLevel(std::vector<LevelEntry>* level) {
    int64_t level_base = level->front().ordinal;
    size_t kept = 0;
    for (LevelEntry& entry : *level) {
      int64_t subsumer = visited_subsumers_.FindSubsumer(
          *entry.state, width_, max_chunk_, entry.ordinal);
      if (subsumer >= 0) {
        if (subsumer >= level_base) {
          ++result_->states_retired;  // a same-level, newer-general sibling
        } else {
          ++result_->subsumed_discarded;
        }
        visited_subsumers_.Suppress(entry.ordinal);
        continue;
      }
      // The sweep-shared bank first: in a warm session it is the small,
      // hot index (this sweep's refutations) in front of the session
      // cache's larger, older one.
      if (shared_refuted_ != nullptr &&
          shared_refuted_->FindSubsumer(*entry.state, width_, max_chunk_) >=
              0) {
        ++result_->sweep_refuted_hits;
        ++result_->subsumed_discarded;
        visited_subsumers_.Suppress(entry.ordinal);
        continue;
      }
      if (cache_ != nullptr &&
          cache_->LinearRefutedBySubsumption(*entry.state, width_,
                                             max_chunk_)) {
        ++result_->cache_hits;
        ++result_->subsumed_discarded;
        visited_subsumers_.Suppress(entry.ordinal);
        continue;
      }
      (*level)[kept++] = entry;
    }
    level->resize(kept);
  }

  /// Expands `level[0..allowed)` into `outputs`, in parallel when the
  /// level is wide enough. Returns the number of completed expansions
  /// (less than `allowed` only on early accept / deadline stop).
  size_t ExpandLevel(const std::vector<LevelEntry>& level, size_t allowed,
                     std::vector<ExpandOutput>* outputs) {
    std::atomic<size_t> next{0};
    std::atomic<bool> stop{false};
    std::atomic<size_t> expanded{0};
    std::atomic<uint64_t> clock_ticks{0};
    std::atomic<bool> deadline_hit{false};
    // Early accept-abort trades which proof is found for wall-clock; with
    // explanations requested every claimed state is finished so the merge
    // deterministically picks the first accepting edge in frontier order.
    const bool abort_on_accept = explanation_ == nullptr;

    auto worker = [&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= allowed) break;
        if (timed_ &&
            (clock_ticks.fetch_add(1, std::memory_order_relaxed) & 63) ==
                0 &&
            std::chrono::steady_clock::now() >= deadline_) {
          deadline_hit.store(true, std::memory_order_relaxed);
          stop.store(true, std::memory_order_relaxed);
          break;
        }
        ExpandState(*level[i].state, &(*outputs)[i]);
        expanded.fetch_add(1, std::memory_order_relaxed);
        if ((*outputs)[i].accepted && abort_on_accept) {
          stop.store(true, std::memory_order_relaxed);
        }
      }
    };

    size_t threads = std::min<size_t>(num_threads_, allowed);
    if (threads <= 1 || allowed < 2 * static_cast<size_t>(num_threads_) ||
        pool_ == nullptr) {
      worker();
    } else {
      // Fork onto the persistent pool; the calling thread takes a
      // worker's share instead of idling, and helpers the pool never got
      // to are revoked (the atomic `next` counter makes any participant
      // count complete the level).
      pool_->ParallelInvoke(threads - 1, worker);
    }
    if (deadline_hit.load(std::memory_order_relaxed)) {
      result_->budget_exhausted = true;
    }
    return expanded.load(std::memory_order_relaxed);
  }

  /// Expands one canonical state: match-and-drop plus anchored chunk
  /// resolutions through the selected atom. Reads shared state only
  /// through thread-safe paths (visited snapshot, exact cache lookups).
  void ExpandState(const CanonicalState& state, ExpandOutput* out) {
    size_t selected = SelectAtom(state.atoms, database_);
    const Atom& pivot = state.atoms[selected];
    // Per-thread buffer: ExpandState runs on the pool's workers, and the
    // successors' own ComponentIds (inside the simplifier) use a separate
    // scratch, so this one stays valid across the whole expansion.
    static thread_local std::vector<int> components;
    ComponentIds(state.atoms, &components);
    int pivot_component = components[selected];

    // Match-and-drop: each homomorphism of the selected atom into the
    // database is one specialization guess; the atom becomes a leaf. Only
    // the pivot's component loses an atom, so only its remnants need
    // re-simplification (the bindings touch no other component).
    std::vector<Atom> rest;
    std::vector<char> rest_dirty;
    rest.reserve(state.atoms.size() - 1);
    rest_dirty.reserve(state.atoms.size() - 1);
    for (size_t i = 0; i < state.atoms.size(); ++i) {
      if (i == selected) continue;
      rest.push_back(state.atoms[i]);
      rest_dirty.push_back(components[i] == pivot_component ? 1 : 0);
    }
    std::vector<char> dirty;
    ForEachHomomorphism(pivot, database_, [&](const Substitution& h) {
      ++out->drop_edges;
      ProofStep step;
      step.kind = ProofStep::Kind::kMatchDrop;
      if (explanation_ != nullptr) {
        step.matched_fact = ApplySubstitution(h, pivot);
      }
      dirty = rest_dirty;
      return !MakeCandidate(ApplySubstitution(h, rest), &dirty,
                            std::move(step), out);
    });
    if (out->accepted) return;

    // Resolution: every chunk unifier whose chunk contains the selected
    // atom (Definition 4.3), over the per-predicate relevance bucket.
    uint64_t fresh_base = 0;
    for (const Atom& a : state.atoms) {
      for (Term t : a.args) {
        if (t.is_variable()) fresh_base = std::max(fresh_base, t.index() + 1);
      }
    }
    for (size_t tgd_index : index_.TgdsWithHead(pivot.predicate)) {
      std::vector<Resolvent> resolvents =
          ResolveWithTgd(state.atoms, index_.Template(tgd_index), tgd_index,
                         fresh_base, max_chunk_, /*anchor=*/selected);
      for (Resolvent& r : resolvents) {
        ++out->resolution_edges;
        ProofStep step;
        step.kind = ProofStep::Kind::kResolution;
        step.tgd_index = tgd_index;
        ResolventDirtyFlags(components, r.chunk, r.atoms.size(), &dirty);
        if (MakeCandidate(std::move(r.atoms), &dirty, std::move(step),
                          out)) {
          return;
        }
      }
    }
  }

  /// Simplifies, filters and canonicalizes one successor. Returns true on
  /// acceptance (empty state), which stops the surrounding expansion.
  bool MakeCandidate(std::vector<Atom> atoms, std::vector<char>* dirty,
                     ProofStep step, ExpandOutput* out) {
    EagerSimplifyIncremental(&atoms, database_, dirty);
    if (atoms.size() > width_) return false;  // pruned by Theorem 4.8
    if (index_.StateIsDead(atoms, database_)) return false;
    CanonicalState canonical = Canonicalize(std::move(atoms));
    if (canonical.atoms.empty()) {
      out->accepted = true;
      if (explanation_ != nullptr) {
        step.state = canonical.atoms;
        out->accept_step = std::move(step);
      }
      return true;
    }
    out->peak_state_bytes =
        std::max(out->peak_state_bytes, canonical.ApproximateBytes());
    // Snapshot dedupe: reads the shards as of the level start (the merge
    // re-checks authoritatively, so intra-level duplicates are fine).
    if (ShardFor(canonical.hash).count(canonical) > 0) return false;
    if (cache_ != nullptr &&
        cache_->LinearKnownRefuted(canonical, width_, max_chunk_)) {
      ++out->cache_hits;  // a previous search refuted this whole subtree
      return false;
    }
    if (explanation_ != nullptr) step.state = canonical.atoms;
    Candidate candidate;
    candidate.state = std::move(canonical);
    candidate.step = std::move(step);
    out->candidates.push_back(std::move(candidate));
    return false;
  }

  /// Phase 2: sharded dedupe into the visited table. Worker w owns shards
  /// s with s % W == w and processes all candidates in frontier order, so
  /// each candidate has exactly one writer and per-shard insertion order
  /// is deterministic.
  void DedupeCandidates(const std::vector<ExpandOutput*>& outputs) {
    auto dedupe = [this, &outputs](size_t worker, size_t workers) {
      for (ExpandOutput* out : outputs) {
        for (Candidate& candidate : out->candidates) {
          size_t shard = candidate.state.hash & (kVisitedShards - 1);
          if (shard % workers != worker) continue;
          // The candidate state is dead after this (visited/fresh carry
          // everything the merge needs), so move it into the table.
          auto [it, inserted] =
              shards_[shard].insert(std::move(candidate.state));
          candidate.visited = &*it;
          candidate.fresh = inserted;
        }
      }
    };
    size_t total = 0;
    for (const ExpandOutput* out : outputs) total += out->candidates.size();
    size_t workers = std::min<size_t>(num_threads_, kVisitedShards);
    // Hash inserts are ~100 ns and every worker scans all candidates for
    // shard ownership, so parallel dedupe only pays for itself on levels
    // with thousands of candidates.
    if (workers <= 1 || total < 4096 || pool_ == nullptr) {
      dedupe(0, 1);
      return;
    }
    // Shard classes are claimed dynamically: ParallelInvoke may deliver
    // fewer participants than requested (revoked helpers), and every
    // class must be processed exactly once. Which thread handles a class
    // does not matter — per-shard insertion order is frontier order
    // either way.
    std::atomic<size_t> next_class{0};
    pool_->ParallelInvoke(workers - 1, [&] {
      size_t w;
      while ((w = next_class.fetch_add(1, std::memory_order_relaxed)) <
             workers) {
        dedupe(w, workers);
      }
    });
  }

  /// Phase 3: sequential merge in frontier order — acceptance, provenance,
  /// subsumption registration, and the next frontier. The subsumption
  /// *queries* happen later, in FilterLevel, so unexpanded states never
  /// pay for them. `parents[i]` may be null (the synthetic root).
  void MergeOutputs(const std::vector<const CanonicalState*>& parents,
                    const std::vector<ExpandOutput*>& outputs,
                    std::vector<LevelEntry>* next_level) {
    DedupeCandidates(outputs);

    static const std::vector<uint64_t> kRootEncoding;
    for (size_t i = 0; i < outputs.size(); ++i) {
      const ExpandOutput& out = *outputs[i];
      const std::vector<uint64_t>& parent_encoding =
          parents[i] == nullptr ? kRootEncoding : parents[i]->encoding;
      if (out.accepted) {
        result_->accepted = true;
        if (explanation_ != nullptr) {
          parents_.try_emplace(std::vector<uint64_t>{},
                               ParentEdge{parent_encoding, out.accept_step});
        }
        return;  // deterministic: first accepting edge in frontier order
      }
      for (const Candidate& candidate : out.candidates) {
        if (explanation_ != nullptr) {
          parents_.try_emplace(candidate.visited->encoding,
                               ParentEdge{parent_encoding, candidate.step});
        }
        if (!candidate.fresh) continue;  // duplicate of an earlier state
        const CanonicalState* state = candidate.visited;
        result_->visited_bytes += state->ApproximateBytes();
        int64_t ordinal =
            subsumption_
                ? visited_subsumers_.Add(*state, width_, max_chunk_)
                : 0;
        next_level->push_back(LevelEntry{state, ordinal});
      }
    }
  }

  void AccumulateCounters(const ExpandOutput& out) {
    result_->drop_edges += out.drop_edges;
    result_->resolution_edges += out.resolution_edges;
    result_->cache_hits += out.cache_hits;
    result_->peak_state_bytes =
        std::max(result_->peak_state_bytes, out.peak_state_bytes);
  }

  void Finish() {
    size_t visited = 0;
    for (const auto& shard : shards_) visited += shard.size();
    result_->states_visited = visited;
    result_->subsumption_checks = visited_subsumers_.stats().hom_checks;
    if (!result_->accepted && !result_->budget_exhausted) {
      // A completed BFS is a refutation certificate for every state it
      // visited: everything reachable from a visited state was explored,
      // already known refuted, or subsumed by another visited state. A
      // budget-exhausted (or accepted) run records nothing — an aborted
      // refutation is not a refutation certificate. Certificates go to
      // the session cache (exact, interned, long-lived) and to the
      // sweep-shared subsumption bank (full states, sweep-lived).
      for (const auto& shard : shards_) {
        for (const CanonicalState& state : shard) {
          if (cache_ != nullptr) {
            cache_->LinearRecordRefuted(state, width_, max_chunk_);
          }
          if (shared_refuted_ != nullptr) {
            shared_refuted_->Add(state, width_, max_chunk_);
          }
        }
      }
    }
    if (result_->accepted && explanation_ != nullptr) {
      // Fold the parent chain back into the linear proof.
      explanation_->steps.clear();
      std::vector<uint64_t> cursor;  // empty = accepting state
      while (true) {
        auto it = parents_.find(cursor);
        if (it == parents_.end()) break;
        explanation_->steps.push_back(it->second.step);
        cursor = it->second.parent;
        if (it->second.step.kind == ProofStep::Kind::kStart) break;
      }
      std::reverse(explanation_->steps.begin(), explanation_->steps.end());
    }
  }

  const Program& program_;
  const Instance& database_;
  const ProgramIndex& index_;
  ProofSearchCache* cache_;
  SubsumptionIndex* shared_refuted_;
  const bool subsumption_;
  const size_t width_;
  const size_t max_chunk_;
  const uint64_t max_states_;
  const bool timed_;
  const uint32_t num_threads_;
  WorkerPool* pool_;
  std::chrono::steady_clock::time_point deadline_{};
  ProofSearchResult* result_;
  ProofExplanation* explanation_;

  std::vector<std::unordered_set<CanonicalState, CanonicalStateHash>> shards_;
  SubsumptionIndex visited_subsumers_;
  std::unordered_map<std::vector<uint64_t>, ParentEdge, EncodingHash>
      parents_;
};

}  // namespace

std::optional<std::vector<Atom>> FreezeQuery(const ConjunctiveQuery& query,
                                             const std::vector<Term>& answer) {
  if (answer.size() != query.output.size()) return std::nullopt;
  Substitution freeze;
  for (size_t i = 0; i < answer.size(); ++i) {
    if (!answer[i].is_constant()) return std::nullopt;
    Term out = query.output[i];
    if (out.is_constant()) {
      if (out != answer[i]) return std::nullopt;
      continue;
    }
    auto [it, inserted] = freeze.try_emplace(out, answer[i]);
    if (!inserted && it->second != answer[i]) return std::nullopt;
  }
  return ApplySubstitution(freeze, query.atoms);
}

ProofSearchResult LinearProofSearch(const Program& program,
                                    const Instance& database,
                                    const ConjunctiveQuery& query,
                                    const std::vector<Term>& answer,
                                    const ProofSearchOptions& options,
                                    ProofExplanation* explanation) {
  ProofSearchResult result;

  // The relevance index comes from the shared cache when one is supplied
  // (it must have been built for this same program + database); otherwise
  // a local one is built for this call. It also carries the pg(Σ) factors
  // of the node-width bound, so a warm search never rebuilds the graph.
  std::optional<ProgramIndex> local_index;
  if (options.cache == nullptr) local_index.emplace(program, database);
  const ProgramIndex& index =
      options.cache != nullptr ? options.cache->index() : *local_index;

  size_t width = options.node_width != 0
                     ? options.node_width
                     : index.NodeWidthBoundPwl(query.atoms.size());
  result.node_width_used = width;
  size_t max_chunk =
      options.max_chunk == 0 ? width : std::min(options.max_chunk, width);

  std::optional<std::vector<Atom>> frozen = FreezeQuery(query, answer);
  if (!frozen.has_value()) return result;  // inconsistent candidate

  // A parallel search without a caller-supplied pool gets a private one
  // for its own lifetime: one spawn per search, not one per level.
  uint32_t threads = std::min(kMaxSearchThreads,
                              std::max<uint32_t>(1, options.num_threads));
  std::optional<WorkerPool> own_pool;
  WorkerPool* pool = options.pool;
  if (pool == nullptr && threads > 1) {
    own_pool.emplace(threads - 1);
    pool = &*own_pool;
  }

  LinearSearcher searcher(program, database, index, options, width,
                          max_chunk, pool, &result, explanation);
  searcher.Run(std::move(*frozen));
  if (options.metrics != nullptr) {
    options.metrics->RecordSearch(result.states_expanded, result.cache_hits,
                                  result.subsumed_discarded,
                                  result.sweep_refuted_hits,
                                  result.budget_exhausted);
  }
  return result;
}

}  // namespace vadalog
