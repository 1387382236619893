// AVX-512F/BW fused-decode sample kernel: 16-wide counterpart of
// decode_fused_avx2.cpp with the binarizing epilogue done directly in
// compare-mask registers. ISA flags are confined to this TU and the
// dispatcher only selects it when the AVX-512 target is active.

#include "tensor/decode_fused.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

namespace dp::nn::fused::detail {

namespace {

/// Per-input-cell deconv1 scatter region held in registers: all four
/// rows of the cell's 4 x span output patch accumulate every nonzero
/// channel's contribution in zmm registers before a single
/// read-modify-write per row segment (span must be a multiple of 16;
/// the dispatcher falls back to the scalar kernel otherwise). Per
/// output element the accumulation order stays ascending over the
/// channel list, matching the scalar reference.
inline void scatterCell(int span, int n, const int* ci, const float* cv,
                        const float* p1, long wstride, float* r0, float* r1,
                        float* r2, float* r3) {
  for (int j = 0; j < span; j += 16) {
    __m512 a0 = _mm512_loadu_ps(r0 + j);
    __m512 a1 = _mm512_loadu_ps(r1 + j);
    __m512 a2 = _mm512_loadu_ps(r2 + j);
    __m512 a3 = _mm512_loadu_ps(r3 + j);
    for (int t = 0; t < n; ++t) {
      const __m512 vx = _mm512_set1_ps(cv[t]);
      const float* w = p1 + static_cast<long>(ci[t]) * wstride + j;
      a0 = _mm512_fmadd_ps(vx, _mm512_loadu_ps(w), a0);
      a1 = _mm512_fmadd_ps(vx, _mm512_loadu_ps(w + span), a1);
      a2 = _mm512_fmadd_ps(vx, _mm512_loadu_ps(w + 2 * span), a2);
      a3 = _mm512_fmadd_ps(vx, _mm512_loadu_ps(w + 3 * span), a3);
    }
    _mm512_storeu_ps(r0 + j, a0);
    _mm512_storeu_ps(r1 + j, a1);
    _mm512_storeu_ps(r2 + j, a2);
    _mm512_storeu_ps(r3 + j, a3);
  }
}

/// Chunked GEMV accumulation: y[j] += sum_t vals[t] * w[idx[t]*n + j],
/// with 128-float column chunks held in 8 zmm accumulators across the
/// whole t sweep (see the AVX2 TU's rationale). Accumulation order
/// over t is ascending per element.
inline void gemvChunks(int n, const float* w, const int* idx,
                       const float* vals, int nnz, float* y) {
  int j = 0;
  for (; j + 128 <= n; j += 128) {
    __m512 acc[8];
    for (int u = 0; u < 8; ++u) acc[u] = _mm512_loadu_ps(y + j + 16 * u);
    for (int t = 0; t < nnz; ++t) {
      const __m512 va = _mm512_set1_ps(vals[t]);
      const float* wr = w + static_cast<long>(idx[t]) * n + j;
      for (int u = 0; u < 8; ++u)
        acc[u] = _mm512_fmadd_ps(va, _mm512_loadu_ps(wr + 16 * u), acc[u]);
    }
    for (int u = 0; u < 8; ++u) _mm512_storeu_ps(y + j + 16 * u, acc[u]);
  }
  for (; j + 16 <= n; j += 16) {
    __m512 acc = _mm512_loadu_ps(y + j);
    for (int t = 0; t < nnz; ++t)
      acc = _mm512_fmadd_ps(
          _mm512_set1_ps(vals[t]),
          _mm512_loadu_ps(w + static_cast<long>(idx[t]) * n + j), acc);
    _mm512_storeu_ps(y + j, acc);
  }
  if (j < n) {
    const __mmask16 k =
        static_cast<__mmask16>((1U << static_cast<unsigned>(n - j)) - 1U);
    __m512 acc = _mm512_maskz_loadu_ps(k, y + j);
    for (int t = 0; t < nnz; ++t)
      acc = _mm512_fmadd_ps(
          _mm512_set1_ps(vals[t]),
          _mm512_maskz_loadu_ps(k, w + static_cast<long>(idx[t]) * n + j),
          acc);
    _mm512_mask_storeu_ps(y + j, k, acc);
  }
}

}  // namespace

// dp-analyze: hot scratch=scr
void decodeSampleAvx512(const DecodePlan& plan, const float* latent,
                        std::uint32_t* masks, DecodeScratch& scr) {
  const int H = plan.hidden;
  const int F = plan.flat;
  const int c1 = plan.c1;
  const int s2 = plan.s2;
  const int s = plan.s;

  std::size_t need = static_cast<std::size_t>(plan.latentDim > H ? plan.latentDim : H);
  const std::size_t xaNeed = static_cast<std::size_t>((c1 + 15) & ~15);
  if (xaNeed > need) need = xaNeed;  // nzVal doubles as deconv2's xa
  scr.nzIdx.resize(need);
  scr.nzVal.resize(need);
  int* idx = scr.nzIdx.data();
  float* vals = scr.nzVal.data();

  scr.h1.assign(plan.b1.begin(), plan.b1.end());
  float* h1 = scr.h1.data();
  for (int i = 0; i < plan.latentDim; ++i) {
    idx[i] = i;
    vals[i] = latent[i];
  }
  gemvChunks(H, plan.w1t.data(), idx, vals, plan.latentDim, h1);

  scr.h2.assign(plan.b2.begin(), plan.b2.end());
  float* h2 = scr.h2.data();
  int nnz = 0;
  for (int k = 0; k < H; ++k) {  // branchless folded-ReLU compaction
    const float a = h1[k];
    idx[nnz] = k;
    vals[nnz] = a;
    nnz += a > 0.0f ? 1 : 0;
  }
  gemvChunks(F, plan.w2t.data(), idx, vals, nnz, h2);

  // Per-cell nonzero channel lists (folded ReLU of h2), sequential
  // sweep with branchless appends — see the AVX2 TU's rationale.
  const int s4 = plan.s4;
  const int c2 = plan.c2;
  const int cells = s4 * s4;
  scr.cellCnt.assign(static_cast<std::size_t>(cells), 0);
  scr.cellIn.resize(static_cast<std::size_t>(cells) * c2);
  scr.cellX.resize(static_cast<std::size_t>(cells) * c2);
  int* cnt = scr.cellCnt.data();
  int* cin = scr.cellIn.data();
  float* cx = scr.cellX.data();
  for (int in = 0; in < c2; ++in) {
    const float* xplane = h2 + static_cast<std::size_t>(in) * cells;
    for (int cell = 0; cell < cells; ++cell) {
      const float x = xplane[cell];
      const int n = cnt[cell];
      cin[cell * c2 + n] = in;
      cx[cell * c2 + n] = x;
      cnt[cell] = n + (x > 0.0f ? 1 : 0);
    }
  }

  const int mw = s2 + 2;
  const int mrow = mw * c1;
  const int span = 4 * c1;
  scr.mid.assign(static_cast<std::size_t>(mrow) * mw, 0.0f);
  float* mid = scr.mid.data();
  for (int ir = 0; ir < s4; ++ir) {
    for (int ic = 0; ic < s4; ++ic) {
      const int cell = ir * s4 + ic;
      const int n = cnt[cell];
      if (n == 0) continue;
      const int* ci = cin + static_cast<std::size_t>(cell) * c2;
      const float* cv = cx + static_cast<std::size_t>(cell) * c2;
      float* base = mid + (2 * ir) * mrow + (2 * ic) * c1;
      scatterCell(span, n, ci, cv, plan.p1.data(), 16L * c1, base,
                  base + mrow, base + 2 * mrow, base + 3 * mrow);
    }
  }

  const int ow = s + 2;
  scr.out.assign(static_cast<std::size_t>(ow) * ow, 0.0f);
  float* out = scr.out.data();
  const float* bd1 = plan.bd1.data();
  const __m512 vzero16 = _mm512_setzero_ps();
  for (int ir = 0; ir < s2; ++ir) {
    for (int ic = 0; ic < s2; ++ic) {
      const float* cell = mid + ((ir + 1) * mw + (ic + 1)) * c1;
      // Branchless deconv1 bias fold + ReLU — zeroed lanes only ever
      // add +/-0 products, a no-op on the binarized output (see the
      // AVX2 TU). nzIdx/nzVal are free again here.
      float* xa = vals;
      int live = 0;
      for (int in = 0; in < c1; in += 16) {
        const int lanes = c1 - in < 16 ? c1 - in : 16;
        const __mmask16 k = static_cast<__mmask16>(
            (lanes == 16 ? 0xFFFFU : (1U << static_cast<unsigned>(lanes)) - 1U));
        // Masked max: lanes past c1 are zero either way, and GCC 12's
        // unmasked _mm512_max_ps trips -Wmaybe-uninitialized here.
        const __m512 xv = _mm512_maskz_max_ps(
            k,
            _mm512_add_ps(_mm512_maskz_loadu_ps(k, cell + in),
                          _mm512_maskz_loadu_ps(k, bd1 + in)),
            vzero16);
        live |= static_cast<int>(
            _mm512_mask_cmp_ps_mask(k, xv, vzero16, _CMP_GT_OQ));
        _mm512_storeu_ps(xa + in, xv);
      }
      if (live == 0) continue;
      __m512 acc = _mm512_setzero_ps();
      for (int in = 0; in < c1; ++in) {
        const float* w = plan.p2.data() + static_cast<std::size_t>(in) * 16;
        acc = _mm512_fmadd_ps(_mm512_set1_ps(xa[in]), _mm512_loadu_ps(w), acc);
      }
      float patch[16];
      _mm512_storeu_ps(patch, acc);
      float* base = out + (2 * ir) * ow + 2 * ic;
      for (int kh = 0; kh < 4; ++kh) {
        float* dst = base + kh * ow;
        _mm_storeu_ps(dst, _mm_add_ps(_mm_loadu_ps(dst),
                                      _mm_loadu_ps(patch + kh * 4)));
      }
    }
  }

  const __m512 vbias = _mm512_set1_ps(plan.bd2);
  const __m512 vhalf = _mm512_set1_ps(plan.zHalf);
  for (int r = 0; r < s; ++r) {
    const float* row = out + (r + 1) * ow + 1;
    std::uint32_t m = 0;
    for (int c = 0; c < s; c += 16) {
      const int lanes = s - c < 16 ? s - c : 16;
      const __mmask16 k =
          static_cast<__mmask16>((1U << static_cast<unsigned>(lanes)) - 1U);
      const __m512 z =
          _mm512_add_ps(_mm512_maskz_loadu_ps(k, row + c), vbias);
      const __mmask16 ge = _mm512_mask_cmp_ps_mask(k, z, vhalf, _CMP_GE_OQ);
      m |= static_cast<std::uint32_t>(ge) << c;
    }
    masks[r] = m;
  }
}

}  // namespace dp::nn::fused::detail

#else  // !(__AVX512F__ && __AVX512BW__)

namespace dp::nn::fused::detail {

// dp-analyze: hot
void decodeSampleAvx512(const DecodePlan& plan, const float* latent,
                        std::uint32_t* masks, DecodeScratch& scratch) {
  // Unreachable by construction: the dispatcher never selects AVX-512
  // unless the AVX-512 TUs were compiled with real code generation.
  decodeSampleScalar(plan, latent, masks, scratch);
}

}  // namespace dp::nn::fused::detail

#endif
