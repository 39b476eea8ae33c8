#include "text/similarity_registry.h"

#include <atomic>

#include "text/edit_distance.h"
#include "text/jaro.h"
#include "text/reference.h"
#include "text/token_similarity.h"

namespace skyex::text {

namespace {

double PermutedJaroWinklerDefault(std::string_view a, std::string_view b) {
  return PermutedJaroWinklerSimilarity(a, b);
}

double SoftJaccardDefault(std::string_view a, std::string_view b) {
  return SoftJaccardSimilarity(a, b);
}

double RefJaroWinklerDefault(std::string_view a, std::string_view b) {
  return reference::JaroWinklerSimilarity(a, b);
}

double RefPermutedJaroWinklerDefault(std::string_view a, std::string_view b) {
  return reference::PermutedJaroWinklerSimilarity(a, b);
}

double RefCosineBigrams(std::string_view a, std::string_view b) {
  return reference::CosineNgramSimilarity(a, b, 2);
}

double RefJaccardBigrams(std::string_view a, std::string_view b) {
  return reference::JaccardNgramSimilarity(a, b, 2);
}

double RefSoftJaccardDefault(std::string_view a, std::string_view b) {
  return reference::SoftJaccardSimilarity(a, b);
}

std::atomic<KernelImpl> g_kernel_impl{KernelImpl::kOptimized};

std::vector<NamedSimilarity> FilterSortable(
    const std::vector<NamedSimilarity>& basic) {
  std::vector<NamedSimilarity> out;
  for (const NamedSimilarity& m : basic) {
    if (m.name != "jaro_winkler_sorted") out.push_back(m);
  }
  return out;
}

const std::vector<NamedSimilarity>& BasicTable(KernelImpl impl) {
  // Both tables carry the same names in the same order — the LGM-X feature
  // schema depends only on names/positions, never on which impl is active.
  static const auto& kOptimized = *new std::vector<NamedSimilarity>{
      {"levenshtein", LevenshteinSimilarity},
      {"damerau_levenshtein", DamerauLevenshteinSimilarity},
      {"jaro", JaroSimilarity},
      {"jaro_winkler", JaroWinklerSimilarity},
      {"jaro_winkler_reversed", ReversedJaroWinklerSimilarity},
      {"jaro_winkler_sorted", SortedJaroWinklerSimilarity},
      {"jaro_winkler_permuted", PermutedJaroWinklerDefault},
      {"cosine_bigrams", CosineNgramSimilarity},
      {"jaccard_bigrams", JaccardNgramSimilarity},
      {"dice_bigrams", DiceBigramSimilarity},
      {"skipgram", SkipgramSimilarity},
      {"monge_elkan", MongeElkanSimilarity},
      {"soft_jaccard", SoftJaccardDefault},
      {"davies", DaviesDeSallesSimilarity},
  };
  static const auto& kReference = *new std::vector<NamedSimilarity>{
      {"levenshtein", reference::LevenshteinSimilarity},
      {"damerau_levenshtein", reference::DamerauLevenshteinSimilarity},
      {"jaro", reference::JaroSimilarity},
      {"jaro_winkler", RefJaroWinklerDefault},
      {"jaro_winkler_reversed", reference::ReversedJaroWinklerSimilarity},
      {"jaro_winkler_sorted", reference::SortedJaroWinklerSimilarity},
      {"jaro_winkler_permuted", RefPermutedJaroWinklerDefault},
      {"cosine_bigrams", RefCosineBigrams},
      {"jaccard_bigrams", RefJaccardBigrams},
      {"dice_bigrams", reference::DiceBigramSimilarity},
      {"skipgram", reference::SkipgramSimilarity},
      {"monge_elkan", reference::MongeElkanSimilarity},
      {"soft_jaccard", RefSoftJaccardDefault},
      {"davies", reference::DaviesDeSallesSimilarity},
  };
  return impl == KernelImpl::kReference ? kReference : kOptimized;
}

}  // namespace

void SetKernelImpl(KernelImpl impl) {
  g_kernel_impl.store(impl, std::memory_order_relaxed);
}

KernelImpl ActiveKernelImpl() {
  return g_kernel_impl.load(std::memory_order_relaxed);
}

const std::vector<NamedSimilarity>& BasicSimilarities() {
  return BasicTable(ActiveKernelImpl());
}

const std::vector<NamedSimilarity>& SortableSimilarities() {
  static const auto& kOptimized = *new std::vector<NamedSimilarity>(
      FilterSortable(BasicTable(KernelImpl::kOptimized)));
  static const auto& kReference = *new std::vector<NamedSimilarity>(
      FilterSortable(BasicTable(KernelImpl::kReference)));
  return ActiveKernelImpl() == KernelImpl::kReference ? kReference
                                                      : kOptimized;
}

SimilarityFn FindSimilarity(std::string_view name) {
  for (const NamedSimilarity& m : BasicSimilarities()) {
    if (m.name == name) return m.fn;
  }
  return nullptr;
}

}  // namespace skyex::text
