#ifndef SKYEX_SKYLINE_PREFERENCE_H_
#define SKYEX_SKYLINE_PREFERENCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace skyex::skyline {

/// Preferred direction of a feature (Definition 4.3 of the paper):
/// high() prefers large values, low() prefers small ones.
enum class Direction : uint8_t { kHigh, kLow };

/// Result of comparing two feature vectors under a preference.
enum class Comparison : uint8_t { kBetter, kWorse, kEqual, kIncomparable };

/// A preference function over feature vectors, built from preferred
/// feature directions combined with the Pareto operator Δ (Definition
/// 4.4) and the priority operator ▷ (Definition 4.6). Rows are plain
/// `const double*` feature arrays.
class Preference {
 public:
  virtual ~Preference() = default;

  /// Compares row `a` against row `b`: kBetter means a is preferred.
  virtual Comparison Compare(const double* a, const double* b) const = 0;

  /// Human-readable form, e.g. "(high(X1) Δ low(X3)) ▷ high(X2)" —
  /// the explainability the paper emphasizes. `names` maps feature
  /// indices to display names; pass an empty vector for "X<i>".
  virtual std::string ToString(
      const std::vector<std::string>& names) const = 0;

  /// Appends the feature indices this preference reads.
  virtual void CollectFeatures(std::vector<size_t>* out) const = 0;

  virtual std::unique_ptr<Preference> Clone() const = 0;

  /// A copy that reads feature position[i] wherever this one reads
  /// feature i: the same preference over a matrix that holds only some
  /// columns. Every index this preference reads must be below
  /// position.size() (core::ProjectModel checks it).
  virtual std::unique_ptr<Preference> RemapFeatures(
      const std::vector<size_t>& position) const = 0;
};

/// Leaf: a single preferred feature direction.
std::unique_ptr<Preference> High(size_t feature_index);
std::unique_ptr<Preference> Low(size_t feature_index);
std::unique_ptr<Preference> FeatureDirection(size_t feature_index,
                                             Direction direction);

/// Pareto combination Δ of sub-preferences: better iff better in at
/// least one child and worse in none.
std::unique_ptr<Preference> ParetoOf(
    std::vector<std::unique_ptr<Preference>> children);

/// Prioritized combination ▷: the first child decides unless it deems
/// the rows equal, in which case the next child is consulted.
std::unique_ptr<Preference> PriorityOf(
    std::vector<std::unique_ptr<Preference>> children);

/// A preference "compiled" to the canonical SkyEx form — a priority
/// chain of Pareto groups of feature directions. Dominance checks on the
/// compiled form avoid virtual dispatch, and its group structure yields
/// a dominance-compatible sort key, so the layer algorithms prefer it.
struct CompiledPreference {
  /// `sign` is +1 for high(), -1 for low().
  struct Term {
    uint32_t feature = 0;
    int8_t sign = 1;
  };
  /// Priority-ordered groups; Pareto semantics within each group.
  std::vector<std::vector<Term>> groups;

  Comparison Compare(const double* a, const double* b) const;

  /// Lexicographic key of the group sums (a NaN sum maps to -inf). If a
  /// is better than b then Key(a) is lexicographically greater than *or
  /// equal to* Key(b): rounded sums are monotone, but a dominator's
  /// larger term can vanish in rounding (1.0 against 1 - 2^-52 beside
  /// terms that add to 4.0: both sums round to 5.0), so presorting by
  /// the key alone can put a dominated row first. PresortCompare breaks
  /// those ties.
  void Key(const double* row, double* out) const;
  size_t KeySize() const { return groups.size(); }

  /// The presort order of the skyline peel, given both rows and their
  /// keys: group 1's key entry, then group 1's signed terms in order
  /// (NaN as -inf, as in Compare), then group 2's key entry, and so on.
  /// kBetter means `a` sorts first, kWorse `b`; kEqual means the rows
  /// tie on every entry. If a is better than b under Compare, this
  /// returns kBetter: the groups before the deciding one are equal term
  /// for term, so their sums are equal; at the deciding group a's sum is
  /// no smaller, and on a tie its first differing term is the larger.
  Comparison PresortCompare(const double* a, const double* key_a,
                            const double* b, const double* key_b) const;
};

/// Compiles a preference tree into the canonical form; nullopt when the
/// tree does not have the priority-of-Pareto-groups shape.
std::optional<CompiledPreference> Compile(const Preference& preference);

}  // namespace skyex::skyline

#endif  // SKYEX_SKYLINE_PREFERENCE_H_
