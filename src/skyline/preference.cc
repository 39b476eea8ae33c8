#include "skyline/preference.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace skyex::skyline {

namespace {

std::string FeatureName(size_t index, const std::vector<std::string>& names) {
  if (index < names.size()) return names[index];
  return "X" + std::to_string(index);
}

/// Compares two directed values with NaN acting as -inf in the
/// preference's direction: it ties with -inf and with other NaNs, and
/// loses to everything else. Compare calls it only when one side is NaN;
/// PresortCompare uses it for every term. This keeps dominance a
/// deterministic partial order on poisoned rows and agrees with
/// CompiledPreference::Key, which maps NaN group sums to -inf.
Comparison CompareWithNan(double va, double vb) {
  const double ninf = -std::numeric_limits<double>::infinity();
  const double ea = std::isnan(va) ? ninf : va;
  const double eb = std::isnan(vb) ? ninf : vb;
  if (ea > eb) return Comparison::kBetter;
  if (ea < eb) return Comparison::kWorse;
  return Comparison::kEqual;
}

class FeatureDirectionNode final : public Preference {
 public:
  FeatureDirectionNode(size_t index, Direction direction)
      : index_(index), direction_(direction) {}

  Comparison Compare(const double* a, const double* b) const override {
    const double sign = direction_ == Direction::kHigh ? 1.0 : -1.0;
    const double va = sign * a[index_];
    const double vb = sign * b[index_];
    if (va > vb) return Comparison::kBetter;
    if (va < vb) return Comparison::kWorse;
    if (va == vb) return Comparison::kEqual;
    // NaN on at least one side (all three comparisons false). A NaN
    // behaves as -inf — a poisoned feature deterministically loses —
    // matching CompiledPreference::Key's NaN → -inf mapping. Finite
    // data never reaches this branch.
    return CompareWithNan(va, vb);
  }

  std::string ToString(const std::vector<std::string>& names) const override {
    const char* dir = direction_ == Direction::kHigh ? "high" : "low";
    return std::string(dir) + "(" + FeatureName(index_, names) + ")";
  }

  void CollectFeatures(std::vector<size_t>* out) const override {
    out->push_back(index_);
  }

  std::unique_ptr<Preference> Clone() const override {
    return std::make_unique<FeatureDirectionNode>(index_, direction_);
  }

  std::unique_ptr<Preference> RemapFeatures(
      const std::vector<size_t>& position) const override {
    return std::make_unique<FeatureDirectionNode>(position[index_],
                                                  direction_);
  }

  size_t index() const { return index_; }
  Direction direction() const { return direction_; }

 private:
  size_t index_;
  Direction direction_;
};

class ParetoNode final : public Preference {
 public:
  explicit ParetoNode(std::vector<std::unique_ptr<Preference>> children)
      : children_(std::move(children)) {}

  Comparison Compare(const double* a, const double* b) const override {
    bool has_better = false;
    bool has_worse = false;
    for (const auto& child : children_) {
      switch (child->Compare(a, b)) {
        case Comparison::kBetter:
          has_better = true;
          break;
        case Comparison::kWorse:
          has_worse = true;
          break;
        case Comparison::kIncomparable:
          has_better = true;
          has_worse = true;
          break;
        case Comparison::kEqual:
          break;
      }
      if (has_better && has_worse) return Comparison::kIncomparable;
    }
    if (has_better) return Comparison::kBetter;
    if (has_worse) return Comparison::kWorse;
    return Comparison::kEqual;
  }

  std::string ToString(const std::vector<std::string>& names) const override {
    std::string out = "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += " Δ ";  // Δ
      out += children_[i]->ToString(names);
    }
    out += ")";
    return out;
  }

  void CollectFeatures(std::vector<size_t>* out) const override {
    for (const auto& child : children_) child->CollectFeatures(out);
  }

  std::unique_ptr<Preference> Clone() const override {
    std::vector<std::unique_ptr<Preference>> copies;
    copies.reserve(children_.size());
    for (const auto& child : children_) copies.push_back(child->Clone());
    return std::make_unique<ParetoNode>(std::move(copies));
  }

  std::unique_ptr<Preference> RemapFeatures(
      const std::vector<size_t>& position) const override {
    std::vector<std::unique_ptr<Preference>> copies;
    copies.reserve(children_.size());
    for (const auto& child : children_) {
      copies.push_back(child->RemapFeatures(position));
    }
    return std::make_unique<ParetoNode>(std::move(copies));
  }

  const std::vector<std::unique_ptr<Preference>>& children() const {
    return children_;
  }

 private:
  std::vector<std::unique_ptr<Preference>> children_;
};

class PriorityNode final : public Preference {
 public:
  explicit PriorityNode(std::vector<std::unique_ptr<Preference>> children)
      : children_(std::move(children)) {}

  Comparison Compare(const double* a, const double* b) const override {
    for (const auto& child : children_) {
      const Comparison c = child->Compare(a, b);
      if (c != Comparison::kEqual) return c;
    }
    return Comparison::kEqual;
  }

  std::string ToString(const std::vector<std::string>& names) const override {
    std::string out;
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += " ▷ ";  // ▷
      out += children_[i]->ToString(names);
    }
    return out;
  }

  void CollectFeatures(std::vector<size_t>* out) const override {
    for (const auto& child : children_) child->CollectFeatures(out);
  }

  std::unique_ptr<Preference> Clone() const override {
    std::vector<std::unique_ptr<Preference>> copies;
    copies.reserve(children_.size());
    for (const auto& child : children_) copies.push_back(child->Clone());
    return std::make_unique<PriorityNode>(std::move(copies));
  }

  std::unique_ptr<Preference> RemapFeatures(
      const std::vector<size_t>& position) const override {
    std::vector<std::unique_ptr<Preference>> copies;
    copies.reserve(children_.size());
    for (const auto& child : children_) {
      copies.push_back(child->RemapFeatures(position));
    }
    return std::make_unique<PriorityNode>(std::move(copies));
  }

  const std::vector<std::unique_ptr<Preference>>& children() const {
    return children_;
  }

 private:
  std::vector<std::unique_ptr<Preference>> children_;
};

// Extracts a Pareto group of plain feature directions from `node`.
// Accepts a single leaf (a group of one) or a Pareto of leaves.
bool ExtractGroup(const Preference& node,
                  std::vector<CompiledPreference::Term>* group) {
  if (const auto* leaf = dynamic_cast<const FeatureDirectionNode*>(&node)) {
    group->push_back(CompiledPreference::Term{
        static_cast<uint32_t>(leaf->index()),
        static_cast<int8_t>(leaf->direction() == Direction::kHigh ? 1 : -1)});
    return true;
  }
  if (const auto* pareto = dynamic_cast<const ParetoNode*>(&node)) {
    for (const auto& child : pareto->children()) {
      const auto* leaf = dynamic_cast<const FeatureDirectionNode*>(child.get());
      if (leaf == nullptr) return false;
      group->push_back(CompiledPreference::Term{
          static_cast<uint32_t>(leaf->index()),
          static_cast<int8_t>(leaf->direction() == Direction::kHigh ? 1
                                                                    : -1)});
    }
    return true;
  }
  return false;
}

}  // namespace

std::unique_ptr<Preference> High(size_t feature_index) {
  return std::make_unique<FeatureDirectionNode>(feature_index,
                                                Direction::kHigh);
}

std::unique_ptr<Preference> Low(size_t feature_index) {
  return std::make_unique<FeatureDirectionNode>(feature_index,
                                                Direction::kLow);
}

std::unique_ptr<Preference> FeatureDirection(size_t feature_index,
                                             Direction direction) {
  return std::make_unique<FeatureDirectionNode>(feature_index, direction);
}

std::unique_ptr<Preference> ParetoOf(
    std::vector<std::unique_ptr<Preference>> children) {
  if (children.size() == 1) return std::move(children.front());
  return std::make_unique<ParetoNode>(std::move(children));
}

std::unique_ptr<Preference> PriorityOf(
    std::vector<std::unique_ptr<Preference>> children) {
  if (children.size() == 1) return std::move(children.front());
  return std::make_unique<PriorityNode>(std::move(children));
}

Comparison CompiledPreference::Compare(const double* a,
                                       const double* b) const {
  for (const std::vector<Term>& group : groups) {
    bool has_better = false;
    bool has_worse = false;
    for (const Term& t : group) {
      const double va = t.sign * a[t.feature];
      const double vb = t.sign * b[t.feature];
      if (va > vb) {
        has_better = true;
        if (has_worse) return Comparison::kIncomparable;
      } else if (va < vb) {
        has_worse = true;
        if (has_better) return Comparison::kIncomparable;
      } else if (!(va == vb)) {
        // NaN on at least one side; resolve with NaN-as--inf semantics
        // (see CompareWithNan). Finite data never takes this branch.
        switch (CompareWithNan(va, vb)) {
          case Comparison::kBetter:
            has_better = true;
            if (has_worse) return Comparison::kIncomparable;
            break;
          case Comparison::kWorse:
            has_worse = true;
            if (has_better) return Comparison::kIncomparable;
            break;
          default:
            break;
        }
      }
    }
    if (has_better) return Comparison::kBetter;
    if (has_worse) return Comparison::kWorse;
    // Equal in this group → consult the next one.
  }
  return Comparison::kEqual;
}

void CompiledPreference::Key(const double* row, double* out) const {
  for (size_t g = 0; g < groups.size(); ++g) {
    double sum = 0.0;
    for (const Term& t : groups[g]) sum += t.sign * row[t.feature];
    // A NaN key breaks the strict weak ordering lexicographic key sorts
    // rely on (every comparison false ⇒ std::sort UB). Map it to -inf:
    // a row with an unusable feature deterministically sorts worst,
    // matching Compare's treatment of NaN as never-better.
    out[g] = std::isnan(sum)
                 ? -std::numeric_limits<double>::infinity()
                 : sum;
  }
}

Comparison CompiledPreference::PresortCompare(const double* a,
                                              const double* key_a,
                                              const double* b,
                                              const double* key_b) const {
  for (size_t g = 0; g < groups.size(); ++g) {
    if (key_a[g] != key_b[g]) {
      return key_a[g] > key_b[g] ? Comparison::kBetter : Comparison::kWorse;
    }
    for (const Term& t : groups[g]) {
      const Comparison c =
          CompareWithNan(t.sign * a[t.feature], t.sign * b[t.feature]);
      if (c != Comparison::kEqual) return c;
    }
  }
  return Comparison::kEqual;
}

std::optional<CompiledPreference> Compile(const Preference& preference) {
  CompiledPreference compiled;
  if (const auto* priority = dynamic_cast<const PriorityNode*>(&preference)) {
    for (const auto& child : priority->children()) {
      std::vector<CompiledPreference::Term> group;
      if (!ExtractGroup(*child, &group)) return std::nullopt;
      compiled.groups.push_back(std::move(group));
    }
    return compiled;
  }
  std::vector<CompiledPreference::Term> group;
  if (!ExtractGroup(preference, &group)) return std::nullopt;
  compiled.groups.push_back(std::move(group));
  return compiled;
}

}  // namespace skyex::skyline
