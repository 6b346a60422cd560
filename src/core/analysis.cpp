#include "core/analysis.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/fzf.h"
#include "core/witness.h"

namespace kav {

std::string StalenessSpectrum::to_string() const {
  std::ostringstream out;
  out << "reads: " << reads << ", fresh: " << fresh_fraction * 100.0
      << "%, mean separation: " << mean_separation
      << ", max separation: " << max_separation << "\n";
  for (std::size_t s = 0; s < histogram.size(); ++s) {
    if (histogram[s] == 0) continue;
    out << "  separation " << s << ": " << histogram[s] << " read(s)\n";
  }
  return out.str();
}

StalenessSpectrum staleness_spectrum(const History& history,
                                     std::span<const OpId> order) {
  // Witness validity is a precondition; re-check with a generous k (the
  // separation bound is what we are measuring, so only permutation and
  // precedence matter -- use k = #writes + 1 which no read can exceed).
  const int permissive_k = static_cast<int>(history.write_count()) + 1;
  const WitnessCheck check = validate_witness(history, order, permissive_k);
  if (!check.ok()) {
    throw std::invalid_argument("staleness_spectrum: invalid witness: " +
                                check.detail);
  }

  StalenessSpectrum spectrum;
  std::vector<std::int64_t> writes_before(history.size(), -1);
  std::int64_t writes_seen = 0;
  double total = 0;
  for (OpId id : order) {
    if (history.is_write(id)) {
      writes_before[id] = writes_seen++;
      continue;
    }
    const OpId w = history.dictating_write(id);
    const std::int64_t separation = writes_seen - writes_before[w] - 1;
    const auto s = static_cast<std::size_t>(separation);
    if (spectrum.histogram.size() <= s) spectrum.histogram.resize(s + 1, 0);
    ++spectrum.histogram[s];
    ++spectrum.reads;
    total += static_cast<double>(separation);
    spectrum.max_separation =
        std::max(spectrum.max_separation, static_cast<int>(separation));
  }
  if (spectrum.reads > 0) {
    spectrum.mean_separation = total / static_cast<double>(spectrum.reads);
    spectrum.fresh_fraction =
        static_cast<double>(spectrum.histogram.empty() ? 0
                                                       : spectrum.histogram[0]) /
        static_cast<double>(spectrum.reads);
  }
  return spectrum;
}

std::string ZoneProfile::to_string() const {
  std::ostringstream out;
  out << clusters << " clusters (" << forward_zones << " forward, "
      << backward_zones << " backward), " << chunks << " chunks, "
      << dangling << " dangling; largest chunk: " << largest_chunk_clusters
      << " clusters, max backward/chunk: " << max_backward_per_chunk
      << "; c = " << max_concurrent_writes
      << ", reads/write = " << mean_reads_per_write;
  return out.str();
}

ZoneProfile zone_profile(const History& history) {
  ChunkPartition partition;
  partition_chunks(compute_zones(history), partition);
  return zone_profile(history, partition);
}

ZoneProfile zone_profile(const History& history,
                         const ChunkPartition& partition) {
  ZoneProfile profile;
  profile.clusters = history.write_count();
  profile.max_concurrent_writes = history.max_concurrent_writes();
  if (history.write_count() > 0) {
    profile.mean_reads_per_write =
        static_cast<double>(history.read_count()) /
        static_cast<double>(history.write_count());
  }
  profile.forward_zones = partition.forward_writes.size();
  profile.backward_zones =
      partition.backward_writes.size() + partition.dangling_writes.size();
  profile.chunks = partition.chunk_count();
  profile.dangling = partition.dangling_writes.size();
  for (std::size_t c = 0; c < partition.chunk_count(); ++c) {
    const std::size_t backward = partition.backward(c).size();
    profile.largest_chunk_clusters = std::max(
        profile.largest_chunk_clusters, partition.forward(c).size() + backward);
    profile.max_backward_per_chunk =
        std::max(profile.max_backward_per_chunk, backward);
  }
  return profile;
}

}  // namespace kav
