#include "engine/alternating_search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/fragments.h"
#include "engine/resolution.h"
#include "engine/search_cache.h"
#include "engine/state.h"
#include "engine/subsumption.h"
#include "obs/metrics.h"
#include "server/worker_pool.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

constexpr size_t kNoTouch = std::numeric_limits<size_t>::max();

// Upper bound on worker threads regardless of what the caller asks for,
// mirroring the linear BFS: oversubscription beyond this buys nothing,
// and an absurd request must degrade instead of making the fallback
// pool's thread spawns throw.
constexpr uint32_t kMaxSearchThreads = 64;

/// Read-only per-search context shared by every branch task.
struct SearchContext {
  const Program& program;
  const Instance& database;
  const ProgramIndex& index;
  ProofSearchCache* cache;
  SubsumptionIndex* shared_refuted;
  bool subsumption;
  size_t width;
  size_t max_chunk;
  bool timed;
  std::chrono::steady_clock::time_point deadline;
  WorkerPool* pool;
  uint32_t num_threads;
};

struct Outcome {
  bool proven;
  size_t min_touch;  // shallowest on-path ancestor hit by cycle pruning
};

/// A successor state that has not been gated yet (raw atoms plus the
/// incremental-simplification dirty flags).
struct ChildState {
  std::vector<Atom> atoms;
  std::vector<char> dirty;
};

/// One memo batch: the proven/refuted canonical states one Searcher
/// established, plus a log of them in finalize order. The sets double as
/// the searcher's memo tables while it runs; the log drives the
/// deterministic end-of-search flush into the shared cache and the
/// sweep-shared refutation bank (both of which must stay read-only while
/// branch tasks may still be probing them concurrently). Log entries
/// point into the node-based sets, so moving a batch keeps them valid.
struct RecordBatch {
  std::unordered_set<CanonicalState, CanonicalStateHash> proven;
  std::unordered_set<CanonicalState, CanonicalStateHash> refuted;
  struct Entry {
    const CanonicalState* state;
    bool proven;
  };
  std::vector<Entry> log;
};

using PathMap =
    std::unordered_map<CanonicalState, size_t, CanonicalStateHash>;

/// The iterative AND/OR tree machine. One instance decides one (sub)goal
/// with its own memo tables, counters and budget; proof depth lives in
/// heap-allocated frames, so it is bounded only by the caller's budgets —
/// never by the OS stack (the former kMaxProveDepth recursion guard,
/// which silently turned deep-but-provable goals into false
/// budget_exhausted verdicts, is gone).
///
/// The top `fork_levels` tree levels run their children as isolated
/// branch tasks: each child goal becomes a fresh Searcher seeded with the
/// on-path ancestor table (for cycle pruning) but otherwise private —
/// private memo, private counters, private probe stats, records deferred.
/// Tasks are speculatively executed in parallel on the worker pool and
/// folded strictly in child order with exact serial budgets, so verdicts
/// and (untimed) counters are bit-identical for any thread count: a
/// speculative result is only accepted when it provably equals the run
/// the sequential fold would have made (same assigned budget, or finished
/// strictly inside the serial budget without exhausting); anything else —
/// including tasks past the deciding child — is re-run exactly or
/// discarded wholesale.
class Searcher {
 public:
  Searcher(const SearchContext& ctx, const PathMap& ancestors,
           size_t base_depth, uint32_t fork_levels, uint64_t max_states,
           AlternatingSearchResult* result)
      : ctx_(ctx),
        on_path_(ancestors),
        base_depth_(base_depth),
        fork_levels_(fork_levels),
        max_states_(max_states),
        result_(result),
        records_(std::make_unique<RecordBatch>()) {}

  Outcome Prove(std::vector<Atom> atoms, std::vector<char> dirty) {
    Outcome out;
    if (Gate(std::move(atoms), std::move(dirty), &out)) return out;
    return fork_levels_ == 0 ? RunMachine() : RunFork();
  }

  /// The memo batches established by this searcher and (in fold order)
  /// every branch task folded into it. Valid after Prove.
  std::vector<std::unique_ptr<RecordBatch>> TakeRecords() {
    std::vector<std::unique_ptr<RecordBatch>> all = std::move(collected_);
    all.push_back(std::move(records_));
    return all;
  }

  /// Probe-stat deltas accumulated against the sweep-shared refutation
  /// bank and the cache's refuted-state index (folded-in tasks included).
  const SubsumptionIndex::Stats& shared_probe_stats() const {
    return shared_probe_stats_;
  }
  const SubsumptionIndex::Stats& cache_probe_stats() const {
    return cache_probe_stats_;
  }

 private:
  /// One AND/OR tree node. The frame index in `stack_` (plus the
  /// searcher's base depth) IS the node's proof-tree depth: the on-path
  /// cycle table and min_touch path-independence tracking key off this
  /// explicit structure, exactly as the recursive engine keyed off call
  /// depth.
  struct Frame {
    CanonicalState state;
    size_t min_touch = kNoTouch;
    bool is_and = false;
    // AND node: variable-disjoint components, proved in order.
    std::vector<std::vector<Atom>> components;
    // OR node: match-and-drop children (one per homomorphism of the
    // selected atom), then chunk resolvents per relevance-bucket TGD,
    // generated lazily one TGD at a time like the recursive engine.
    std::vector<Substitution> homs;
    std::vector<Atom> rest;
    std::vector<char> rest_dirty;
    std::vector<int> component_ids;
    std::vector<Resolvent> resolvents;
    const std::vector<size_t>* tgds = nullptr;
    uint64_t fresh_base = 0;
    uint32_t selected = 0;
    uint32_t next_child = 0;  // component / homomorphism cursor
    uint32_t next_tgd = 0;
    uint32_t next_resolvent = 0;
  };

  /// The result of one branch task: its private counters, outcome, memo
  /// batches, probe-stat deltas, and the budget it ran under (the fold's
  /// validity check compares it against the exact serial budget).
  struct BranchSlot {
    AlternatingSearchResult res;
    Outcome out{false, kNoTouch};
    std::vector<std::unique_ptr<RecordBatch>> records;
    SubsumptionIndex::Stats shared_stats;
    SubsumptionIndex::Stats cache_stats;
    uint64_t assigned_budget = 0;
    bool done = false;
  };

  /// Simplifies, canonicalizes and memo-checks one child goal. Returns
  /// true when the goal is decided on the spot (`*out` set); otherwise
  /// pushes the expansion frame and returns false.
  bool Gate(std::vector<Atom> atoms, std::vector<char> dirty, Outcome* out) {
    EagerSimplifyIncremental(&atoms, ctx_.database, &dirty);
    if (atoms.empty()) {
      *out = {true, kNoTouch};
      return true;
    }
    if (atoms.size() > ctx_.width) {  // Theorem 4.9
      *out = {false, kNoTouch};
      return true;
    }
    if (ctx_.index.StateIsDead(atoms, ctx_.database)) {
      *out = {false, kNoTouch};
      return true;
    }

    CanonicalState state = Canonicalize(std::move(atoms));
    result_->peak_state_bytes =
        std::max(result_->peak_state_bytes, state.ApproximateBytes());

    if (records_->proven.count(state) > 0) {
      *out = {true, kNoTouch};
      return true;
    }
    if (records_->refuted.count(state) > 0) {
      *out = {false, kNoTouch};
      return true;
    }
    if (ctx_.cache != nullptr) {
      if (ctx_.cache->AltKnownProven(state, ctx_.width, ctx_.max_chunk)) {
        ++result_->cache_hits;
        *out = {true, kNoTouch};
        return true;
      }
      if (ctx_.cache->AltKnownRefuted(state, ctx_.width, ctx_.max_chunk)) {
        ++result_->cache_hits;
        *out = {false, kNoTouch};
        return true;
      }
    }
    if (ctx_.subsumption) {
      // A path-independently refuted state that maps into this one
      // refutes it outright (every proof of this state restricts to one
      // of the subsumer), so the failure is itself path-independent.
      // Three banks, hottest first: this searcher's own refutations,
      // the sweep-shared bank, the session cache's refuted-state index.
      // The shared banks are probed with searcher-private stat blocks:
      // pure reads, so concurrent sibling tasks stay race-free and each
      // task's adaptive-gate decisions depend only on its own
      // (schedule-independent) query sequence.
      if (refuted_subsumers_.FindSubsumer(state, ctx_.width,
                                          ctx_.max_chunk) >= 0) {
        ++result_->subsumed_discarded;
        *out = {false, kNoTouch};
        return true;
      }
      if (ctx_.shared_refuted != nullptr &&
          ctx_.shared_refuted->FindSubsumer(state, ctx_.width,
                                            ctx_.max_chunk, INT64_MAX,
                                            &shared_probe_stats_) >= 0) {
        ++result_->sweep_refuted_hits;
        ++result_->subsumed_discarded;
        *out = {false, kNoTouch};
        return true;
      }
      if (ctx_.cache != nullptr &&
          ctx_.cache->AltRefutedBySubsumption(state, ctx_.width,
                                              ctx_.max_chunk,
                                              &cache_probe_stats_)) {
        ++result_->cache_hits;
        ++result_->subsumed_discarded;
        *out = {false, kNoTouch};
        return true;
      }
    }
    auto path_it = on_path_.find(state);
    if (path_it != on_path_.end()) {
      // Cycle: a minimal proof never repeats a state along a branch.
      *out = {false, path_it->second};
      return true;
    }
    if (result_->budget_exhausted) {  // hard stop
      *out = {false, 0};
      return true;
    }
    if (max_states_ != 0 && result_->states_expanded >= max_states_) {
      result_->budget_exhausted = true;
      *out = {false, 0};  // uncacheable: the branch was not explored
      return true;
    }
    if (ctx_.timed && (result_->states_expanded & 63) == 0 &&
        std::chrono::steady_clock::now() >= ctx_.deadline) {
      result_->budget_exhausted = true;
      *out = {false, 0};  // uncacheable
      return true;
    }
    ++result_->states_expanded;
    size_t depth = base_depth_ + stack_.size();
    PushFrame(std::move(state));
    on_path_.emplace(stack_.back().state, depth);
    return false;
  }

  void PushFrame(CanonicalState state) {
    Frame f;
    // AND node: decomposition into variable-disjoint components
    // (Definition 4.4; frozen outputs never connect). Each component is
    // a whole component of an already-simplified state: clean.
    std::vector<std::vector<Atom>> components = SplitComponents(state.atoms);
    if (components.size() > 1) {
      f.is_and = true;
      f.components = std::move(components);
    } else {
      // OR node: operations through the selected atom.
      f.selected = static_cast<uint32_t>(
          SelectAtom(state.atoms, ctx_.database));
      const Atom& pivot = state.atoms[f.selected];
      f.component_ids = ComponentIds(state.atoms);
      int pivot_component = f.component_ids[f.selected];
      f.rest.reserve(state.atoms.size() - 1);
      f.rest_dirty.reserve(state.atoms.size() - 1);
      for (size_t i = 0; i < state.atoms.size(); ++i) {
        if (i == f.selected) continue;
        f.rest.push_back(state.atoms[i]);
        f.rest_dirty.push_back(
            f.component_ids[i] == pivot_component ? 1 : 0);
      }
      ForEachHomomorphism(pivot, ctx_.database,
                          [&f](const Substitution& h) {
                            f.homs.push_back(h);
                            return true;
                          });
      uint64_t fresh_base = 0;
      for (const Atom& a : state.atoms) {
        for (Term t : a.args) {
          if (t.is_variable()) {
            fresh_base = std::max(fresh_base, t.index() + 1);
          }
        }
      }
      f.fresh_base = fresh_base;
      // Chunks through the pivot exist only for TGDs whose head
      // predicate matches it: resolve against the relevance bucket.
      f.tgds = &ctx_.index.TgdsWithHead(pivot.predicate);
    }
    f.state = std::move(state);
    stack_.push_back(std::move(f));
  }

  /// Produces the next not-yet-gated child of the top frame, in the same
  /// order the recursive engine descended: components (AND), else
  /// match-and-drop homomorphisms, then anchored resolvents TGD by TGD.
  bool NextChild(Frame* f, ChildState* child) {
    if (f->is_and) {
      if (f->next_child >= f->components.size()) return false;
      child->atoms = std::move(f->components[f->next_child++]);
      child->dirty.assign(child->atoms.size(), 0);
      return true;
    }
    // Match-and-drop children. The homomorphisms were materialized whole
    // at expansion (ForEachHomomorphism is callback-driven, so a lazy
    // cursor would mean re-implementing its matching semantics): on a
    // child that proves early this pays a full row scan the recursive
    // engine skipped, but refutations — the expensive case — enumerate
    // everything either way. The list is freed as soon as it is drained
    // so deep proofs don't pin one hom list per live frame.
    if (f->next_child < f->homs.size()) {
      const Substitution& h = f->homs[f->next_child++];
      child->atoms = ApplySubstitution(h, f->rest);
      child->dirty = f->rest_dirty;
      if (f->next_child >= f->homs.size()) {
        std::vector<Substitution>().swap(f->homs);
        f->next_child = 0;  // homs drained; cursor no longer consulted
      }
      return true;
    }
    while (true) {
      if (f->next_resolvent < f->resolvents.size()) {
        Resolvent& r = f->resolvents[f->next_resolvent++];
        ResolventDirtyFlags(f->component_ids, r.chunk, r.atoms.size(),
                            &child->dirty);
        child->atoms = std::move(r.atoms);
        return true;
      }
      if (f->tgds == nullptr || f->next_tgd >= f->tgds->size()) {
        return false;
      }
      size_t tgd_index = (*f->tgds)[f->next_tgd++];
      f->resolvents =
          ResolveWithTgd(f->state.atoms, ctx_.index.Template(tgd_index),
                         tgd_index, f->fresh_base, ctx_.max_chunk,
                         f->selected);
      f->next_resolvent = 0;
    }
  }

  /// Pops the top frame with its verdict: memo insertion (refuted only
  /// when independent of every proper ancestor and no budget cut hit),
  /// record log, min_touch propagation.
  Outcome Finalize(bool proven) {
    Frame f = std::move(stack_.back());
    stack_.pop_back();
    size_t depth = base_depth_ + stack_.size();
    on_path_.erase(f.state);
    if (proven) {
      auto [it, inserted] = records_->proven.insert(std::move(f.state));
      if (inserted) records_->log.push_back({&*it, true});
      ++result_->proven_cached;
    } else if (f.min_touch >= depth && !result_->budget_exhausted) {
      // Refutation independent of any proper ancestor: cacheable.
      auto [it, inserted] = records_->refuted.insert(std::move(f.state));
      if (inserted) {
        records_->log.push_back({&*it, false});
        if (ctx_.subsumption) {
          refuted_subsumers_.Add(*it, ctx_.width, ctx_.max_chunk);
        }
      }
      ++result_->refuted_cached;
    }
    // Pruning against this very node is resolved here; only shallower
    // touches remain relevant to the caller.
    size_t propagated = f.min_touch >= depth ? kNoTouch : f.min_touch;
    return {proven, propagated};
  }

  /// The sequential explicit-stack loop: depth-first over heap frames,
  /// delivering child outcomes upward with AND/OR short-circuiting.
  Outcome RunMachine() {
    Outcome out{false, kNoTouch};
    bool have_outcome = false;
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (have_outcome) {
        have_outcome = false;
        f.min_touch = std::min(f.min_touch, out.min_touch);
        bool decided = f.is_and ? !out.proven : out.proven;
        if (decided) {
          out = Finalize(out.proven);
          have_outcome = true;
          continue;
        }
      }
      ChildState child;
      if (NextChild(&f, &child)) {
        // Gate may push a frame (invalidating `f`; not touched after) or
        // decide the child outright.
        have_outcome =
            Gate(std::move(child.atoms), std::move(child.dirty), &out);
      } else {
        // Children exhausted: every component proven (AND), or every
        // alternative failed (OR).
        out = Finalize(f.is_and);
        have_outcome = true;
      }
    }
    return out;
  }

  /// Runs one branch task: a fresh sub-searcher over `child`, seeded with
  /// this searcher's on-path table, one fork level fewer, and `budget`
  /// visited states.
  void RunBranch(const ChildState& child, uint64_t budget,
                 BranchSlot* slot) const {
    slot->assigned_budget = budget;
    Searcher sub(ctx_, on_path_, base_depth_ + stack_.size(), fork_levels_ - 1,
                 budget, &slot->res);
    std::vector<Atom> atoms = child.atoms;
    std::vector<char> dirty = child.dirty;
    slot->out = sub.Prove(std::move(atoms), std::move(dirty));
    slot->records = sub.TakeRecords();
    slot->shared_stats = sub.shared_probe_stats();
    slot->cache_stats = sub.cache_probe_stats();
    slot->done = true;
  }

  /// Fork-join over the single pushed frame's children. Speculative
  /// parallel phase (optional), then the authoritative sequential fold.
  Outcome RunFork() {
    Frame& f = stack_.back();
    std::vector<ChildState> children;
    {
      ChildState child;
      while (NextChild(&f, &child)) {
        children.push_back(std::move(child));
        child = ChildState{};
      }
    }
    const bool is_and = f.is_and;
    const size_t n = children.size();
    std::vector<BranchSlot> slots(n);

    // Speculative phase: run branch tasks concurrently, each with the
    // budget remaining as of the fork. Tasks ordered after an
    // already-decided child skip themselves — the fold would discard
    // them anyway.
    bool parallel = ctx_.pool != nullptr && ctx_.num_threads > 1 && n > 1 &&
                    !(max_states_ != 0 &&
                      result_->states_expanded >= max_states_);
    if (parallel) {
      uint64_t spec_budget =
          max_states_ == 0 ? 0 : max_states_ - result_->states_expanded;
      std::atomic<size_t> next{0};
      std::atomic<size_t> first_decided{n};
      auto worker = [&] {
        while (true) {
          size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) break;
          if (i > first_decided.load(std::memory_order_relaxed)) continue;
          RunBranch(children[i], spec_budget, &slots[i]);
          bool decides = is_and ? !slots[i].out.proven : slots[i].out.proven;
          if (decides) {
            size_t cur = first_decided.load(std::memory_order_relaxed);
            while (i < cur && !first_decided.compare_exchange_weak(
                                  cur, i, std::memory_order_relaxed)) {
            }
          }
        }
      };
      size_t workers = std::min<size_t>(ctx_.num_threads, n);
      ctx_.pool->ParallelInvoke(workers - 1, worker);
    }

    // Authoritative fold, strictly in child order with exact serial
    // budgets. A speculative result counts only when it provably equals
    // the exact run: same assigned budget, or finished strictly inside
    // the serial budget without exhausting it (a budgeted search that
    // never reaches its budget is identical under any larger one).
    bool decided = false;
    size_t processed = 0;
    for (size_t i = 0; i < n; ++i) {
      if (max_states_ != 0 && result_->states_expanded >= max_states_) {
        result_->budget_exhausted = true;
        break;
      }
      uint64_t serial_budget =
          max_states_ == 0 ? 0 : max_states_ - result_->states_expanded;
      BranchSlot& slot = slots[i];
      bool valid =
          slot.done &&
          (slot.assigned_budget == serial_budget ||
           (!slot.res.budget_exhausted &&
            (max_states_ == 0 ||
             slot.res.states_expanded < serial_budget)));
      if (!valid) {
        slot = BranchSlot{};
        RunBranch(children[i], serial_budget, &slot);
      }
      ++processed;
      result_->states_expanded += slot.res.states_expanded;
      result_->proven_cached += slot.res.proven_cached;
      result_->refuted_cached += slot.res.refuted_cached;
      result_->cache_hits += slot.res.cache_hits;
      result_->subsumed_discarded += slot.res.subsumed_discarded;
      result_->sweep_refuted_hits += slot.res.sweep_refuted_hits;
      result_->peak_state_bytes =
          std::max(result_->peak_state_bytes, slot.res.peak_state_bytes);
      shared_probe_stats_.MergeFrom(slot.shared_stats);
      cache_probe_stats_.MergeFrom(slot.cache_stats);
      f.min_touch = std::min(f.min_touch, slot.out.min_touch);
      for (std::unique_ptr<RecordBatch>& batch : slot.records) {
        collected_.push_back(std::move(batch));
      }
      if (slot.res.budget_exhausted) result_->budget_exhausted = true;
      // A decision from this child stands even when the budget flag is
      // set (a found proof is a proof; an AND already failed): the
      // exhausted stop only cuts the children that would come after.
      if (is_and ? !slot.out.proven : slot.out.proven) {
        decided = true;
        break;
      }
      if (result_->budget_exhausted) break;
    }
    bool proven = is_and ? (!decided && processed == n) : decided;
    return Finalize(proven);
  }

  const SearchContext& ctx_;
  PathMap on_path_;
  const size_t base_depth_;
  const uint32_t fork_levels_;
  const uint64_t max_states_;  // this searcher's visited-state budget
  AlternatingSearchResult* result_;

  std::vector<Frame> stack_;
  std::unique_ptr<RecordBatch> records_;
  std::vector<std::unique_ptr<RecordBatch>> collected_;
  SubsumptionIndex refuted_subsumers_;  // private: own refutations only
  SubsumptionIndex::Stats shared_probe_stats_;
  SubsumptionIndex::Stats cache_probe_stats_;
};

}  // namespace

AlternatingSearchResult AlternatingProofSearch(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, const std::vector<Term>& answer,
    const ProofSearchOptions& options) {
  AlternatingSearchResult result;
  size_t width = options.node_width != 0
                     ? options.node_width
                     : NodeWidthBoundWarded(query.atoms.size(), program);
  result.node_width_used = width;
  size_t max_chunk =
      options.max_chunk == 0 ? width : std::min(options.max_chunk, width);

  std::optional<std::vector<Atom>> frozen = FreezeQuery(query, answer);
  if (!frozen.has_value()) return result;

  ProofSearchCache* cache = options.cache;
  std::optional<ProgramIndex> local_index;
  if (cache == nullptr) local_index.emplace(program, database);
  const ProgramIndex& index =
      cache != nullptr ? cache->index() : *local_index;

  // A parallel search without a caller-supplied pool gets a private one
  // for its own lifetime, mirroring the linear BFS. With fork_depth == 0
  // there are no branch tasks to run, so no threads are spawned either.
  uint32_t threads = std::min(kMaxSearchThreads,
                              std::max<uint32_t>(1, options.num_threads));
  std::optional<WorkerPool> own_pool;
  WorkerPool* pool = options.pool;
  if (pool == nullptr && threads > 1 && options.fork_depth > 0) {
    own_pool.emplace(threads - 1);
    pool = &*own_pool;
  }

  SearchContext ctx{program,
                    database,
                    index,
                    cache,
                    options.subsumption ? options.shared_refuted : nullptr,
                    options.subsumption,
                    width,
                    max_chunk,
                    options.max_millis != 0,
                    {},
                    pool,
                    threads};
  if (ctx.timed) {
    // The deadline (and the clock read behind it) exists only for timed
    // searches; untimed ones never touch the clock.
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options.max_millis);
  }

  Searcher searcher(ctx, PathMap{}, /*base_depth=*/0, options.fork_depth,
                    options.max_states, &result);
  std::vector<char> dirty(frozen->size(), 1);
  result.accepted =
      searcher.Prove(std::move(*frozen), std::move(dirty)).proven;

  // Deferred flush, in deterministic (fold, then finalize) order: while
  // branch tasks run, the session cache and the sweep-shared bank are
  // read-only; every proven / path-independently refuted state they
  // established lands here, after the last probe. Budget-cut branches
  // recorded nothing (Finalize's guard), so exhausted searches still
  // deposit no refutation certificate for anything they gave up on.
  std::vector<std::unique_ptr<RecordBatch>> batches = searcher.TakeRecords();
  if (cache != nullptr || (options.shared_refuted != nullptr &&
                           options.subsumption)) {
    // Sibling branch tasks share no memo tables, so two batches can log
    // the same canonical state; the cache's Record() dedupes internally,
    // but SubsumptionIndex::Add appends unconditionally — dedupe across
    // batches here so the bank gets at most one entry per state per
    // search (duplicates would crowd the capped probe prefix).
    struct DerefHash {
      size_t operator()(const CanonicalState* s) const { return s->Hash(); }
    };
    struct DerefEq {
      bool operator()(const CanonicalState* a,
                      const CanonicalState* b) const {
        return *a == *b;
      }
    };
    std::unordered_set<const CanonicalState*, DerefHash, DerefEq> banked;
    for (const std::unique_ptr<RecordBatch>& batch : batches) {
      for (const RecordBatch::Entry& entry : batch->log) {
        if (entry.proven) {
          if (cache != nullptr) {
            cache->AltRecordProven(*entry.state, width, max_chunk);
          }
        } else {
          if (cache != nullptr) {
            cache->AltRecordRefuted(*entry.state, width, max_chunk);
          }
          if (options.shared_refuted != nullptr && options.subsumption &&
              banked.insert(entry.state).second) {
            options.shared_refuted->Add(*entry.state, width, max_chunk);
          }
        }
      }
    }
  }
  if (options.shared_refuted != nullptr) {
    options.shared_refuted->MergeStats(searcher.shared_probe_stats());
  }
  if (cache != nullptr) {
    cache->MergeAltProbeStats(searcher.cache_probe_stats());
  }
  if (options.metrics != nullptr) {
    options.metrics->RecordSearch(result.states_expanded, result.cache_hits,
                                  result.subsumed_discarded,
                                  result.sweep_refuted_hits,
                                  result.budget_exhausted);
  }
  return result;
}

}  // namespace vadalog
