#pragma once

/// \file fused_generate.hpp
/// Fused decode route (DESIGN.md §14): prepacks a Tcae generation
/// unit's weights into a nn::fused::DecodePlan once and decodes latent
/// batches straight to binarized row-mask topologies, skipping the
/// float tensor round-trip between decode and assessment. It is the one
/// route from TCAE latents to accounting: the paper flows
/// (core::decodeLatentsAndAccount, G-TCAE), the 1M pipeline
/// (pipeline/massive.cpp) and the serve batcher all decode through it.
/// The unfused float path (Tcae::decode + accountActivationBatch) stays
/// only as the bit-exactness reference for tests and benches.

#include <cstdint>
#include <vector>

#include "models/tcae.hpp"
#include "tensor/decode_fused.hpp"

namespace dp::core {

/// Immutable, thread-safe wrapper around a prepacked decode plan.
/// Construction walks the Tcae's decoder stack, validates it is the
/// fused shape (dense, ReLU, dense, ReLU, reshape, deconv 4/2/1, ReLU,
/// deconv 4/2/1 into one channel, sigmoid) and repacks the weights.
/// Every models::Tcae builds that stack (its constructor caps
/// inputSize at 32), so construction succeeds for any Tcae; it throws
/// std::invalid_argument only for a hand-edited stack.
class FusedDecodeRoute {
 public:
  explicit FusedDecodeRoute(const models::Tcae& tcae);

  /// Final topology edge length (rows == cols == s).
  [[nodiscard]] int topologySize() const { return plan_.s; }
  [[nodiscard]] int latentDim() const { return plan_.latentDim; }
  [[nodiscard]] const nn::fused::DecodePlan& plan() const { return plan_; }

  /// Decodes latents (N, latentDim) into binarized topologies:
  /// masks[n*topologySize() + r] bit c = cell (r, c) of sample n, row 0
  /// = bottom. `masks` is resized to N * topologySize(). Sample-
  /// parallel; results independent of DP_THREADS and identical to the
  /// float path's binarized output on every kernel target.
  void decodeMasks(const nn::Tensor& latents,
                   std::vector<std::uint32_t>& masks) const;

 private:
  nn::fused::DecodePlan plan_;
};

}  // namespace dp::core
