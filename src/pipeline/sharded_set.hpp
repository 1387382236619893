#pragma once

/// \file sharded_set.hpp
/// Sharded concurrent canonical-pattern dedup set (DESIGN.md §12). The
/// in-memory core::PatternLibrary keys one std::map with every pattern
/// — exact and ordered, but a single structure that serializes all
/// inserts and stores a byte per cell. At the 1M-pattern scale of the
/// massive pipeline the set shards by canonical-hash prefix (top bits
/// pick the shard, so ascending-shard enumeration IS ascending-hash
/// enumeration), guards each shard with its own dp::Mutex, and stores
/// patterns bit-packed (pipeline::PackedPattern, 64 cells per word).
///
/// Determinism: the set's *contents* are insert-order independent (a
/// pattern is present or not), and enumeration order is ascending
/// canonical hash with ties in insertion order — identical to
/// PatternLibrary's contract. The massive pipeline additionally folds
/// inserts in ascending sample order, so even collision-bucket order
/// is thread-count invariant.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "pipeline/packed.hpp"
#include "squish/topology.hpp"

namespace dp::pipeline {

class ShardedPatternSet {
 public:
  /// Shard count. 64 keeps per-shard maps small at 1M patterns while
  /// the top-6-bit prefix split stays uniform for any decent hash.
  static constexpr int kShards = 64;

  /// Canonicalizes `t`, hashes it and inserts the packed form. Returns
  /// true when the pattern was not present. Thread-safe.
  bool insert(const squish::Topology& t);

  /// Inserts an already canonical+packed pattern under its canonical
  /// hash. Returns true when new. Thread-safe.
  bool insertPacked(std::uint64_t hash, const PackedPattern& packed);

  /// True when (hash, packed) is present. Thread-safe.
  [[nodiscard]] bool containsPacked(std::uint64_t hash,
                                    const PackedPattern& packed) const;

  /// Unique pattern count across all shards.
  [[nodiscard]] std::uint64_t size() const;

  /// Per-shard unique counts in ascending shard order (checkpoint
  /// records persist these so a resume can cross-check its rebuild).
  [[nodiscard]] std::vector<std::uint64_t> shardSizes() const;

  /// Deterministic merged enumeration: ascending canonical hash across
  /// shards (the hash prefix IS the shard index), collision buckets in
  /// insertion order. Not safe concurrently with inserts.
  void forEach(const std::function<void(std::uint64_t hash,
                                        const PackedPattern& packed)>& fn)
      const;

  /// Joint (cx, cy) complexity histogram over unique patterns, merged
  /// in ascending shard then ascending (cx, cy) order.
  [[nodiscard]] std::map<std::pair<int, int>, std::uint64_t>
  complexityHistogram() const;

  /// Pattern diversity H (paper Definition 2) over unique patterns —
  /// bit-identical to core::PatternLibrary::diversity() on the same
  /// pattern set (same ascending-(cx, cy) accumulation order).
  [[nodiscard]] double diversity() const;

 private:
  /// One stored pattern: its canonical hash and where its words sit in
  /// the shard's word pool.
  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t offset = 0;  ///< first word in Shard::words
    std::uint16_t nWords = 0;  ///< at most 1017: rows, cols <= 255
    std::uint8_t rows = 0;
    std::uint8_t cols = 0;
  };

  /// Flat storage: entries in insertion order, their words in one
  /// pool, and an open-addressing index (entry + 1, 0 = free slot) on
  /// the hash. A shard owns a handful of vectors however many patterns
  /// it holds: per-pattern heap chunks, hundreds of thousands per run,
  /// would leave tens of ms of deferred allocator consolidation to
  /// whatever code allocates after the set is freed.
  struct Shard {
    mutable Mutex mutex;
    std::vector<Entry> entries DP_GUARDED_BY(mutex);
    std::vector<std::uint64_t> words DP_GUARDED_BY(mutex);
    std::vector<std::uint32_t> index DP_GUARDED_BY(mutex);
    std::map<std::pair<int, int>, std::uint64_t> histogram
        DP_GUARDED_BY(mutex);

    /// Index slot holding (hash, packed), or the free slot where the
    /// probe for it ended.
    [[nodiscard]] std::size_t probe(std::uint64_t hash,
                                    const PackedPattern& packed) const
        DP_REQUIRES(mutex);
    /// Doubles the index and re-slots every entry.
    void grow() DP_REQUIRES(mutex);
  };

  static int shardOf(std::uint64_t hash) {
    return static_cast<int>(hash >> 58);  // top 6 bits, kShards = 64
  }

  std::array<Shard, kShards> shards_;
};

/// Shannon entropy (bits) of a count histogram — the Definition 2
/// diversity computed without materializing one entry per pattern.
/// Iterates `counts` in its (ordered) iteration order, matching
/// core::shannonDiversity's accumulation order on the same data.
[[nodiscard]] double shannonFromCounts(
    const std::map<std::pair<int, int>, std::uint64_t>& counts);

}  // namespace dp::pipeline
