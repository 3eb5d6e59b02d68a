// Relevance pruning and cross-candidate memoization for the bounded proof
// searches (Section 4.3).
//
// Both deterministic realizations (the linear BFS and the alternating
// AND-OR search) repeat two kinds of work across states and across
// candidate tuples:
//
//   * every state loops over all TGDs at every resolution step, although a
//     chunk unifier through the selected atom can only exist for TGDs
//     whose head predicate equals the selected atom's predicate — the
//     ProgramIndex precomputes that per-predicate bucket from pg(Σ), plus
//     a "supported" predicate fixpoint that prunes states containing atoms
//     no derivation can ever discharge;
//
//   * the candidate-tuple enumeration of CertainAnswersViaSearch (and
//     repeated decisions against one database, e.g. the OWL 2 QL example)
//     re-explores largely identical canonical states: the frozen output
//     constants differ but the derived sub-states recur. The
//     ProofSearchCache memoizes, across searches over the same
//     (program, database) pair, canonical states proven non-accepting by a
//     completed linear BFS, and both proven and refuted states of the
//     alternating search (refuted only when path-independent, per the
//     tabling taint rule).
//
// Cache entries are tagged with the (node_width, max_chunk) exploration
// bound they were established under: a refutation only transfers to a
// search exploring *no more* than the recording search did, a proof to one
// exploring *no less*. States are stored with their atoms interned (one
// uint32 id per canonical atom encoding), so the per-state footprint across
// thousands of overlapping states stays small.
//
// A cache is only meaningful for the (program, database) pair it was
// constructed with. The one sanctioned migration is InvalidateForDelta:
// when facts are *inserted* (never removed) the cache carries over to the
// grown database after dropping exactly the refutation-flavored entries
// whose predicates fall in the delta's affected cone — proven entries are
// monotone (a proof over D is a proof over any D ⊇ D) and survive as-is.
// Any other reuse across different inputs remains unsound.

#ifndef VADALOG_ENGINE_SEARCH_CACHE_H_
#define VADALOG_ENGINE_SEARCH_CACHE_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/program.h"
#include "base/hash.h"
#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "engine/resolution.h"
#include "engine/state.h"
#include "engine/subsumption.h"
#include "storage/instance.h"

namespace vadalog {

/// Static relevance facts about one (program, database) pair, derived from
/// the predicate graph pg(Σ). Cheap to build (schema-sized); the searches
/// build a local one per call when no shared cache is supplied.
class ProgramIndex {
 public:
  ProgramIndex() = default;
  ProgramIndex(const Program& program, const Instance& database);

  /// Indices of the TGDs whose (single, post-normalization) head atom has
  /// predicate `p` — the only TGDs whose head can piece-unify with an atom
  /// of predicate `p` (Definition 4.3 chunks are predicate-homogeneous).
  const std::vector<size_t>& TgdsWithHead(PredicateId p) const;

  /// The resolution template of TGD `tgd_index` (existential variables
  /// precomputed), so the searches never re-derive them per step.
  const TgdTemplate& Template(size_t tgd_index) const {
    return templates_[tgd_index];
  }

  /// f_WARD∩PWL(q, Σ) for a query of `query_atoms` atoms (see
  /// NodeWidthBoundPwl), from the pg(Σ) levels computed once at
  /// construction instead of per search.
  size_t NodeWidthBoundPwl(size_t query_atoms) const;

  /// True iff some TGD derives `p`.
  bool RuleDerivable(PredicateId p) const {
    return !TgdsWithHead(p).empty();
  }

  /// True iff an atom with predicate `p` can possibly be discharged: `p`
  /// has database facts, or some TGD with head `p` has an all-supported
  /// body (least fixpoint over pg(Σ), SCCs processed in topological
  /// order). A state containing an unsupported predicate can never reach
  /// the empty (accepting) state.
  bool Supported(PredicateId p) const {
    return p < supported_.size() && supported_[p] != 0;
  }

  /// True iff some atom of the state can provably never be discharged:
  /// its predicate is unsupported, or it is not rule-derivable and its
  /// rigid bindings match no database row (further bindings only shrink
  /// the match set). Such states are dead and are pruned.
  bool StateIsDead(const std::vector<Atom>& atoms,
                   const Instance& database) const;

  /// Reverse-dependency query over pg(Σ) for delta maintenance: the set
  /// of predicates whose resolution cone can reach a predicate of
  /// `delta` — the least set containing `delta` and closed under "head
  /// of a TGD whose body intersects the set" (forward reachability in
  /// pg(Σ), the dual of the supported fixpoint above). A proof of a
  /// state none of whose predicates is affected can never discharge an
  /// atom against a new fact of a delta predicate, so refutations of
  /// such states survive the insertion untouched. Returned as flat
  /// per-predicate flags sized like `Supported`'s table; delta
  /// predicates beyond the known range are ignored (nothing recorded
  /// can mention them).
  std::vector<char> AffectedByDelta(
      const std::vector<PredicateId>& delta) const;

 private:
  // Flat per-predicate arrays: PredicateIds are small dense interned ints,
  // and these are probed for every atom of every explored state.
  std::vector<std::vector<size_t>> tgds_by_head_;
  std::vector<char> supported_;
  // Forward edges of pg(Σ): heads_by_body_[p] lists the head predicates
  // of TGDs with p in the body (deduplicated), for AffectedByDelta.
  std::vector<std::vector<PredicateId>> heads_by_body_;
  std::vector<size_t> no_tgds_;
  std::vector<TgdTemplate> templates_;
  uint32_t max_level_ = 0;  // max_P ℓΣ(P) over pg(Σ)
  size_t max_body_ = 0;     // max_σ |body(σ)|
};

/// Shared memoization across proof searches over one (program, database)
/// pair. Share within one reasoning session.
///
/// Thread safety: internally synchronized by one reader-writer lock, so
/// whole *searches* can share the cache concurrently — several queries
/// of one session probing and (at their ends) recording at once. The
/// exact-match lookups, the stats-free subsumption probe (probe_stats
/// supplied), and the size getters take the lock shared; every Record,
/// the stats-mutating subsumption probe, MergeAltProbeStats, and
/// InvalidateForDelta take it exclusive. Within one search the old
/// fine-grained contract still matters for determinism (the parallel
/// searches defer their records past the concurrent probing phase), but
/// safety no longer depends on it. The one exception is `index()`: the
/// returned reference is invalidated by InvalidateForDelta, so callers
/// must externally exclude delta maintenance for as long as they hold
/// it — the session layer does (queries hold the session data lock
/// shared, ADD_FACTS holds it exclusive).
class ProofSearchCache {
 public:
  ProofSearchCache(const Program& program, const Instance& database);

  const ProgramIndex& index() const { return index_; }

  /// Linear BFS: was `state` proven unable to reach the empty state by a
  /// completed search whose exploration bound covers (width, max_chunk)?
  bool LinearKnownRefuted(const CanonicalState& state, size_t width,
                          size_t max_chunk);
  void LinearRecordRefuted(const CanonicalState& state, size_t width,
                           size_t max_chunk);

  /// Alternating search: globally valid proven / path-independent refuted
  /// sub-states.
  bool AltKnownProven(const CanonicalState& state, size_t width,
                      size_t max_chunk);
  bool AltKnownRefuted(const CanonicalState& state, size_t width,
                       size_t max_chunk);
  void AltRecordProven(const CanonicalState& state, size_t width,
                       size_t max_chunk);
  void AltRecordRefuted(const CanonicalState& state, size_t width,
                        size_t max_chunk);

  /// Subsumption transfer over the recorded refutations: true iff some
  /// recorded refuted state with a covering bound maps homomorphically
  /// into `state` (and has no more atoms). Without `probe_stats` the
  /// probe updates the bank's own counters and takes the cache lock
  /// exclusive; with a task-private `probe_stats` it is a pure read
  /// under the shared lock — what the alternating search's concurrent
  /// branch tasks use, merging the deltas back via MergeAltProbeStats
  /// in a fixed order for determinism.
  bool LinearRefutedBySubsumption(const CanonicalState& state, size_t width,
                                  size_t max_chunk) const {
    // Exclusive despite being a probe: without a task-private stats
    // block, FindSubsumer mutates the bank's own counters.
    base::WriterLock lock(&mutex_);
    return linear_refuted_states_.FindSubsumer(state, width, max_chunk) >= 0;
  }
  bool AltRefutedBySubsumption(
      const CanonicalState& state, size_t width, size_t max_chunk,
      SubsumptionIndex::Stats* probe_stats = nullptr) const {
    if (probe_stats != nullptr) {
      base::ReaderLock lock(&mutex_);
      return alt_refuted_states_.FindSubsumer(state, width, max_chunk,
                                              INT64_MAX, probe_stats) >= 0;
    }
    base::WriterLock lock(&mutex_);
    return alt_refuted_states_.FindSubsumer(state, width, max_chunk,
                                            INT64_MAX, nullptr) >= 0;
  }
  void MergeAltProbeStats(const SubsumptionIndex::Stats& delta) {
    base::WriterLock lock(&mutex_);
    alt_refuted_states_.MergeStats(delta);
  }

  /// What one InvalidateForDelta pass dropped (observability + tests).
  struct DeltaInvalidation {
    size_t affected_predicates = 0;  // size of the affected cone
    size_t exact_dropped = 0;        // linear/alt refuted exact entries
    size_t proven_kept = 0;          // alt proven entries (all survive)
    size_t subsumers_dropped = 0;    // bank entries tombstoned
  };

  /// Delta maintenance on fact insertion: migrates this cache to the
  /// grown `database` (which must be a superset of the one the cache was
  /// built against, same `program`) by rebuilding the schema-sized
  /// ProgramIndex and invalidating only the refuted entries — exact
  /// tables and subsumption banks — that mention a predicate in
  /// AffectedByDelta(delta_predicates). Everything else keeps its
  /// soundness: proofs are monotone under fact insertion, and a
  /// refutation whose cone misses the delta can never have used (or
  /// missed) a new fact. Single-threaded, like the Record paths.
  DeltaInvalidation InvalidateForDelta(
      const Program& program, const Instance& database,
      const std::vector<PredicateId>& delta_predicates);

  /// Counters are atomic so concurrent exact-match lookups stay race-free.
  struct Stats {
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> insertions{0};
  };
  const Stats& stats() const { return stats_; }

  size_t linear_refuted_size() const {
    base::ReaderLock lock(&mutex_);
    return linear_refuted_.size();
  }
  size_t alt_proven_size() const {
    base::ReaderLock lock(&mutex_);
    return alt_proven_.size();
  }
  size_t alt_refuted_size() const {
    base::ReaderLock lock(&mutex_);
    return alt_refuted_.size();
  }
  size_t interned_atoms() const {
    base::ReaderLock lock(&mutex_);
    return atom_ids_.size();
  }
  size_t ApproximateBytes() const;

 private:
  /// The exploration bound a memo entry was established under.
  struct Bound {
    uint32_t width;
    uint32_t chunk;
  };

  // A state key: one interned id per canonical atom, in canonical order.
  using Key = std::vector<uint32_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return HashRange(k.begin(), k.end());
    }
  };
  struct ChunkHash {
    size_t operator()(const std::vector<uint64_t>& c) const {
      return HashRange(c.begin(), c.end());
    }
  };
  using Table = std::unordered_map<Key, Bound, KeyHash>;

  Key InternKey(const CanonicalState& state) REQUIRES(mutex_);
  /// Builds the interned key without interning: returns false (a sure
  /// cache miss) when any atom of the state has never been recorded.
  /// Shared suffices: reads the intern map only, scratch is thread-local.
  bool BuildKey(const CanonicalState& state, Key* out) const
      REQUIRES_SHARED(mutex_);
  bool Lookup(const Table& table, const CanonicalState& state, size_t width,
              size_t max_chunk, bool entry_must_cover)
      REQUIRES_SHARED(mutex_);
  /// Returns true when the entry was freshly inserted (not an update).
  bool Record(Table* table, const CanonicalState& state, size_t width,
              size_t max_chunk, bool keep_larger) REQUIRES(mutex_);

  /// The cache-wide reader-writer lock (see class comment).
  mutable base::SharedMutex mutex_;
  /// Deliberately NOT GUARDED_BY(mutex_): index() hands out an unlocked
  /// reference under the documented external contract (the session data
  /// lock excludes InvalidateForDelta, the only writer, for as long as a
  /// search holds the reference — see the class comment).
  ProgramIndex index_;
  std::unordered_map<std::vector<uint64_t>, uint32_t, ChunkHash> atom_ids_
      GUARDED_BY(mutex_);
  // Predicate of each interned atom id (parallel to atom_ids_ values):
  // lets InvalidateForDelta test a stored key against the affected cone
  // without decoding the atom encoding.
  std::vector<PredicateId> atom_predicates_ GUARDED_BY(mutex_);
  size_t interned_words_ GUARDED_BY(mutex_) = 0;
  size_t key_words_ GUARDED_BY(mutex_) = 0;
  Table linear_refuted_ GUARDED_BY(mutex_);
  Table alt_proven_ GUARDED_BY(mutex_);
  Table alt_refuted_ GUARDED_BY(mutex_);
  // Full-state copies of the refuted entries for subsumption transfer,
  // bound-tagged like the exact tables. Externally synchronized
  // containers (engine/subsumption.h); this capability is what
  // synchronizes them.
  SubsumptionIndex linear_refuted_states_ GUARDED_BY(mutex_);
  SubsumptionIndex alt_refuted_states_ GUARDED_BY(mutex_);
  Stats stats_;
};

}  // namespace vadalog

#endif  // VADALOG_ENGINE_SEARCH_CACHE_H_
