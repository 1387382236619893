#pragma once

/// \file decode_fused.hpp
/// Fused TCAE generation-unit inference: latent -> binarized row-mask
/// topology in one pass (DESIGN.md §14). The stack it fuses is fixed —
/// linear, ReLU, linear, ReLU, reshape, deconv(k4,s2,p1), ReLU,
/// deconv(k4,s2,p1), sigmoid, 0.5-binarize — which is exactly the
/// paper's generation unit as built by models::Tcae. Fusing buys:
///
///  - no batch tensors: per-sample scratch stays L1/L2 resident,
///  - deconvs as per-input-cell scatters of prepacked channels-last
///    weight patches (skipping post-ReLU zeros) instead of
///    GEMM + col2im round-trips,
///  - no transcendental: sigmoid(z) >= 0.5 iff z >= zHalf, a threshold
///    found once per plan, so binarization is one compare on the
///    pre-activation and the output is emitted directly as 32-bit row
///    masks (bit c of masks[r] = cell (r, c), row 0 = bottom — the
///    squish/packed_topo.hpp convention).
///
/// Dispatch follows gemmKernelTarget(): the scalar, AVX2 and AVX-512
/// sample kernels live in decode_fused.cpp / decode_fused_avx2.cpp /
/// decode_fused_avx512.cpp with ISA flags confined per TU, mirroring
/// the GEMM micro-kernels. Each target is individually deterministic
/// (fixed accumulation order, sample-parallel only); across targets,
/// and against the unfused float reference, equality holds on the
/// binarized output (pinned by tests/decode_fused_test.cpp), not on
/// float intermediates — the same doctrine the unfused kernels follow.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dp::nn::fused {

/// Cache-line (64-byte) aligned storage for DecodePlan and
/// detail::DecodeScratch. The kernels stream their rows with 32/64-byte
/// loads; from 16-byte aligned heap storage the share of loads that
/// split a cache line, and so decode time, followed heap layout from one
/// plan or process to the next.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, kAlign);
  }
  bool operator==(const CacheAlignedAllocator&) const = default;
};
template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

/// Geometry + prepacked weights of one decoder stack. Built once per
/// model (weights are repacked for scatter access), then shared
/// read-only by any number of decoding threads.
struct DecodePlan {
  int latentDim = 0;
  int hidden = 0;  ///< first dense width
  int flat = 0;    ///< second dense width = c2 * s4 * s4
  int c2 = 0;      ///< deconv1 input channels
  int s4 = 0;      ///< deconv1 input spatial edge
  int c1 = 0;      ///< deconv1 output channels
  int s2 = 0;      ///< deconv1 output spatial edge = 2 * s4
  int s = 0;       ///< topology edge = 2 * s2, at most 32

  AlignedVector<float> w1t;  ///< latentDim x hidden, transposed dense 1
  AlignedVector<float> b1;   ///< hidden
  AlignedVector<float> w2t;  ///< hidden x flat, transposed dense 2
  AlignedVector<float> b2;   ///< flat
  /// Deconv1 patches, channels-last: p1[in*16*c1 + (kh*4+kw)*c1 + oc].
  AlignedVector<float> p1;
  AlignedVector<float> bd1;  ///< c1
  /// Deconv2 patches: p2[in*16 + kh*4 + kw] (single output channel).
  AlignedVector<float> p2;
  float bd2 = 0.0f;  ///< deconv2 bias, folded into the threshold test
  /// Smallest float z whose float sigmoid (nn::sigmoid, the Sigmoid
  /// layer's expression) is >= 0.5f: a cell is set iff z >= zHalf. It
  /// is slightly below 0 (about -1.8e-7), because 1 / (1 + exp(-z))
  /// still rounds to 0.5f for tiny negative z.
  float zHalf = 0.0f;
};

/// Builds a plan from raw row-major layer weights:
///   w1 (hidden, latentDim), b1 (hidden)        — first dense
///   w2 (flat, hidden), b2 (flat)               — second dense
///   wd1 (c2, c1*16), bd1 (c1)                  — deconv1, adjoint layout
///   wd2 (c1, 16), bd2                          — deconv2, adjoint layout
/// Both deconvs must be kernel 4 / stride 2 / pad 1 and the final edge
/// 4*s4 must fit a 32-bit row mask; throws std::invalid_argument
/// otherwise (models::Tcae never builds such a stack).
[[nodiscard]] DecodePlan buildDecodePlan(
    int latentDim, int hidden, int c2, int s4, int c1, int kernel,
    int stride, int pad, const float* w1, const float* b1, const float* w2,
    const float* b2, const float* wd1, const float* bd1, const float* wd2,
    float bd2);

/// Decodes `batch` latent rows (latents: batch x plan.latentDim,
/// row-major) into binarized topologies: masks[n*plan.s + r] is row r
/// of sample n. Sample-parallel via dp::parallelFor; results are
/// independent of DP_THREADS.
void decodeBatch(const DecodePlan& plan, const float* latents, int batch,
                 std::uint32_t* masks);

namespace detail {

/// Per-thread scratch reused across samples (sized lazily per plan).
struct DecodeScratch {
  AlignedVector<float> h1;      ///< hidden
  AlignedVector<float> h2;      ///< flat, as (c2, s4, s4)
  AlignedVector<float> mid;     ///< (s2+2) x (s2+2) x c1, channels-last
  AlignedVector<float> out;     ///< (s+2) x (s+2)
  AlignedVector<int> nzIdx;     ///< nonzero-activation row indices
  AlignedVector<float> nzVal;   ///< matching activation values
  AlignedVector<int> cellCnt;   ///< per deconv1 input cell: nonzero count
  AlignedVector<int> cellIn;    ///< (cell, slot) -> input channel
  AlignedVector<float> cellX;   ///< (cell, slot) -> activation value
};

void decodeSampleScalar(const DecodePlan& plan, const float* latent,
                        std::uint32_t* masks, DecodeScratch& scratch);
void decodeSampleAvx2(const DecodePlan& plan, const float* latent,
                      std::uint32_t* masks, DecodeScratch& scratch);
void decodeSampleAvx512(const DecodePlan& plan, const float* latent,
                        std::uint32_t* masks, DecodeScratch& scratch);

}  // namespace detail

}  // namespace dp::nn::fused
