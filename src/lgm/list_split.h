#ifndef SKYEX_LGM_LIST_SPLIT_H_
#define SKYEX_LGM_LIST_SPLIT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lgm/frequent_terms.h"
#include "text/similarity_registry.h"

namespace skyex::lgm {

/// The three pairs of term lists LGM-Sim splits two strings into:
/// base lists hold terms that (loosely) match across the strings,
/// mismatch lists hold the remaining significant terms, and frequent
/// lists hold corpus-frequent, low-significance terms.
struct TermLists {
  std::vector<std::string> base_a;
  std::vector<std::string> base_b;
  std::vector<std::string> mismatch_a;
  std::vector<std::string> mismatch_b;
  std::vector<std::string> frequent_a;
  std::vector<std::string> frequent_b;
};

/// LGM-Sim's term split of one string pair, done once and shared by every
/// baseline measure scored on the pair. This is the library's only
/// implementation of the split; SplitTermLists and LgmSim wrap it.
///
/// Assign() does the measure-independent half: it tokenizes both
/// normalized strings and their token-sorted forms into views and
/// classifies each token against the frequent-term dictionary. Match()
/// does the measure-dependent half: greedy best-first matching of the
/// significant tokens under one similarity, and the joining of the six
/// lists. An instance is a reusable workspace (callers keep one per
/// thread): its buffers grow to the thread's high-water mark and stay
/// there, and similarity kernels never touch them, so Match() may hold
/// views into them while the kernels run on their own scratch arena.
class PairSplit {
 public:
  /// The six term lists, each joined with single spaces. The views point
  /// into this split's buffers and stay valid until the next Assign() or
  /// Match().
  struct Joined {
    std::string_view base_a;
    std::string_view base_b;
    std::string_view mismatch_a;
    std::string_view mismatch_b;
    std::string_view frequent_a;
    std::string_view frequent_b;
  };

  /// Splits a pair of normalized strings and their token-sorted forms
  /// (text::SortTokens of `a` and `b`, which only Match(sorted = true)
  /// reads). Significant terms are kept as views, so the four strings
  /// must outlive every Match() of this assignment.
  void Assign(std::string_view a, std::string_view a_sorted,
              std::string_view b, std::string_view b_sorted,
              const FrequentTermDictionary& dict);

  /// Matches the significant terms of the sorted forms when `sorted`, of
  /// the plain forms otherwise. Candidate pairs scoring at least
  /// `match_threshold` under `token_sim` are accepted best-first (ties by
  /// sim descending, then a-position, then b-position); accepted pairs
  /// form the base lists in acceptance order, the rest the mismatch lists
  /// in token order. Frequent lists keep token order.
  Joined Match(bool sorted, text::SimilarityFn token_sim,
               double match_threshold);

 private:
  // One string's terms in one token order.
  struct Terms {
    std::vector<std::string_view> significant;
    std::string frequent;  // frequent terms, joined
  };
  struct Candidate {
    double sim;
    uint32_t i;
    uint32_t j;
  };

  void Classify(std::string_view s, const FrequentTermDictionary& dict,
                Terms* out);

  Terms terms_[2][2];  // [sorted][0 = a, 1 = b]
  std::vector<std::string_view> tokens_;
  std::vector<Candidate> candidates_;
  std::vector<uint8_t> used_a_;
  std::vector<uint8_t> used_b_;
  std::string base_a_;
  std::string base_b_;
  std::string mismatch_a_;
  std::string mismatch_b_;
};

/// Splits the token lists of two normalized strings (no custom sorting).
///
/// Frequent terms (per `dict`) go to the frequent lists first. Among the
/// rest, tokens are greedily matched best-similarity-first using
/// `token_sim`; pairs at or above `match_threshold` populate the base
/// lists, unmatched tokens the mismatch lists.
TermLists SplitTermLists(const std::string& a, const std::string& b,
                         const FrequentTermDictionary& dict,
                         text::SimilarityFn token_sim,
                         double match_threshold);

}  // namespace skyex::lgm

#endif  // SKYEX_LGM_LIST_SPLIT_H_
