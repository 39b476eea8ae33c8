#ifndef SKYEX_LGM_FREQUENT_TERMS_H_
#define SKYEX_LGM_FREQUENT_TERMS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace skyex::lgm {

/// A dictionary of corpus-frequent terms ("cafe", "restaurant", "park",
/// ...). LGM-Sim moves such terms into separate lists so that they
/// contribute little to the final similarity decision. The dictionary is
/// gathered automatically from the training corpus, as in the paper.
struct FrequentTermOptions {
  /// A term is frequent when it appears in at least this many corpus
  /// strings...
  size_t min_count = 5;
  /// ...and is among the `max_terms` most frequent ones.
  size_t max_terms = 200;
  /// Terms shorter than this are never considered (initials etc.).
  size_t min_term_length = 3;
};

class FrequentTermDictionary {
 public:
  using Options = FrequentTermOptions;

  FrequentTermDictionary() = default;

  /// Builds the dictionary from a corpus of (already normalized) strings.
  static FrequentTermDictionary Build(const std::vector<std::string>& corpus,
                                      const Options& options = {});

  /// Builds a dictionary from an explicit term list (e.g., a hand-curated
  /// stop list).
  static FrequentTermDictionary FromTerms(std::vector<std::string> terms);

  /// Looks `term` up without copying it (heterogeneous lookup).
  bool Contains(std::string_view term) const;
  size_t size() const { return terms_.size(); }

 private:
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };
  std::unordered_set<std::string, TermHash, std::equal_to<>> terms_;
};

}  // namespace skyex::lgm

#endif  // SKYEX_LGM_FREQUENT_TERMS_H_
