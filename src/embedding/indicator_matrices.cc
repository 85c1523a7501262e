#include "embedding/indicator_matrices.h"

#include <map>

#include "util/logging.h"

namespace slampred {

CsrMatrix BuildAlignedIndicator(
    const InstanceSample& sample,
    const std::vector<const AnchorLinks*>& anchors) {
  const std::size_t total = sample.total();
  std::vector<Triplet> trips;

  // Index target instances by their user pair for O(log) lookup.
  std::map<UserPair, std::size_t> target_index;
  for (std::size_t i = sample.network_offsets[0];
       i < sample.network_offsets[1]; ++i) {
    const LinkInstance& inst = sample.instances[i];
    target_index[{inst.u, inst.v}] = i;
  }

  // For each source instance, map its endpoints back through the anchor
  // set; a hit on a sampled target pair is an aligned social link.
  for (std::size_t k = 0; k < anchors.size(); ++k) {
    const AnchorLinks& a = *anchors[k];
    const std::size_t begin = sample.network_offsets[k + 1];
    const std::size_t end = sample.network_offsets[k + 2];
    for (std::size_t j = begin; j < end; ++j) {
      const LinkInstance& inst = sample.instances[j];
      const auto tu = a.LeftOf(inst.u);
      const auto tv = a.LeftOf(inst.v);
      if (!tu.has_value() || !tv.has_value()) continue;
      const auto it = target_index.find(MakeUserPair(*tu, *tv));
      if (it == target_index.end()) continue;
      trips.push_back({it->second, j, 1.0});
      trips.push_back({j, it->second, 1.0});
    }
  }
  return CsrMatrix::FromTriplets(total, total, std::move(trips));
}

}  // namespace slampred
