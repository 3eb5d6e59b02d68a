// Chunk-based resolution (Definition 4.3).
//
// Given a CQ state q (whose output variables are already frozen to
// constants, per the Section 4.3 algorithm box) and a single-head TGD σ
// with variables disjoint from q, a chunk unifier is a triple (S1, S2, γ)
// with S1 ⊆ atoms(q), S2 = head(σ), and γ a unifier such that every
// existential variable x of σ occurring in S2 satisfies:
//   (1) γ(x) is not a constant (nor a null), and
//   (2) γ(x) = γ(y) implies y occurs in S1 and is not shared, where a
//       variable of S1 is shared iff it also occurs in atoms(q) \ S1.
// (Output variables are constants here, so the "output variables are
// shared" clause of the paper is subsumed by (1).)
//
// The σ-resolvent is γ((atoms(q) \ S1) ∪ body(σ)).

#ifndef VADALOG_ENGINE_RESOLUTION_H_
#define VADALOG_ENGINE_RESOLUTION_H_

#include <cstddef>
#include <vector>

#include "ast/program.h"
#include "ast/rule.h"

namespace vadalog {

struct Resolvent {
  std::vector<Atom> atoms;   // the resolved CQ state
  size_t tgd_index;          // which σ was applied
  std::vector<size_t> chunk; // indices of the resolved S1 atoms in the state
};

/// Sentinel for `anchor`: enumerate chunks without an anchoring atom.
inline constexpr size_t kNoAnchor = static_cast<size_t>(-1);

/// What every resolution step with one TGD reads, derived once per program
/// instead of once per step: the TGD's atoms and the existential variables
/// of its head (sorted), in the TGD's own variable numbering. The step
/// renames by the fresh base on the fly rather than copying the TGD.
struct TgdTemplate {
  TgdTemplate() = default;
  explicit TgdTemplate(const Tgd& tgd);

  std::vector<Atom> head;
  std::vector<Atom> body;
  std::vector<Term> existentials;
};

/// The templates of every TGD of `program`, indexed like program.tgds().
std::vector<TgdTemplate> MakeTgdTemplates(const Program& program);

/// Enumerates all σ-resolvents of `state` with the single-head TGD `tgd`
/// (reported as `tgd_index`). `max_chunk` bounds |S1| (chunks larger than
/// the node width can never be needed). Fresh body variables are renamed
/// starting at `fresh_variable_base` to stay disjoint from state variables.
/// When `anchor` names a state atom, only chunks containing that atom are
/// enumerated (the SLD selection restriction of the searches), skipping
/// the non-anchored chunks instead of generating and discarding them.
std::vector<Resolvent> ResolveWithTgd(const std::vector<Atom>& state,
                                      const TgdTemplate& tgd,
                                      size_t tgd_index,
                                      uint64_t fresh_variable_base,
                                      size_t max_chunk = 4,
                                      size_t anchor = kNoAnchor);

/// One-off form: resolves with the TGD at `tgd_index` of `program`,
/// building its template for this call only.
std::vector<Resolvent> ResolveWithTgd(const std::vector<Atom>& state,
                                      const Program& program,
                                      size_t tgd_index,
                                      uint64_t fresh_variable_base,
                                      size_t max_chunk = 4,
                                      size_t anchor = kNoAnchor);

/// Enumerates resolvents over every TGD of the program.
std::vector<Resolvent> ResolveAll(const std::vector<Atom>& state,
                                  const Program& program,
                                  uint64_t fresh_variable_base,
                                  size_t max_chunk = 4);

}  // namespace vadalog

#endif  // VADALOG_ENGINE_RESOLUTION_H_
