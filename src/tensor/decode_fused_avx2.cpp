// AVX2+FMA fused-decode sample kernel. Same structure as the scalar
// reference in decode_fused.cpp; ISA flags are confined to this TU
// (see src/tensor/CMakeLists.txt) and the dispatcher only selects it
// when the AVX2 target is active. ReLU is folded into the skip tests
// (a skipped cell contributes only +/-0 products, which cannot change
// any downstream accumulator — see the scalar kernel's comments), so
// no activation pass is materialized.

#include "tensor/decode_fused.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace dp::nn::fused::detail {

namespace {

/// Per-input-cell deconv1 scatter region held in registers: rows
/// r0/r1 of the cell's 4 x span output patch (span floats each, span a
/// multiple of 8) accumulate every nonzero channel's contribution in 8
/// ymm before a single read-modify-write, instead of one RMW per
/// (channel, cell) pair. Caller invokes it for kh halves {0,1} and
/// {2,3}; per output element the accumulation order stays ascending
/// over the channel list.
inline void scatterRows(int span, int n, const int* ci, const float* cv,
                        const float* p1, long wstride, long woff, float* r0,
                        float* r1) {
  for (int j = 0; j < span; j += 8) {
    __m256 a0 = _mm256_loadu_ps(r0 + j);
    __m256 a1 = _mm256_loadu_ps(r1 + j);
    for (int t = 0; t < n; ++t) {
      const __m256 vx = _mm256_set1_ps(cv[t]);
      const float* w = p1 + static_cast<long>(ci[t]) * wstride + woff + j;
      a0 = _mm256_fmadd_ps(vx, _mm256_loadu_ps(w), a0);
      a1 = _mm256_fmadd_ps(vx, _mm256_loadu_ps(w + span), a1);
    }
    _mm256_storeu_ps(r0 + j, a0);
    _mm256_storeu_ps(r1 + j, a1);
  }
}

/// Chunked GEMV accumulation: y[j] += sum_t vals[t] * w[idx[t]*n + j].
/// Column chunks of 64 floats stay in 8 accumulator registers across
/// the whole t sweep, so the weight row is the only load per FMA —
/// the repeated-axpy form would reload and re-store y every step and
/// run store-bound. Per element the accumulation order over t is
/// ascending, matching the axpy form exactly.
inline void gemvChunks(int n, const float* w, const int* idx,
                       const float* vals, int nnz, float* y) {
  int j = 0;
  for (; j + 64 <= n; j += 64) {
    __m256 acc[8];
    for (int u = 0; u < 8; ++u) acc[u] = _mm256_loadu_ps(y + j + 8 * u);
    for (int t = 0; t < nnz; ++t) {
      const __m256 va = _mm256_set1_ps(vals[t]);
      const float* wr = w + static_cast<long>(idx[t]) * n + j;
      for (int u = 0; u < 8; ++u)
        acc[u] = _mm256_fmadd_ps(va, _mm256_loadu_ps(wr + 8 * u), acc[u]);
    }
    for (int u = 0; u < 8; ++u) _mm256_storeu_ps(y + j + 8 * u, acc[u]);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_loadu_ps(y + j);
    for (int t = 0; t < nnz; ++t)
      acc = _mm256_fmadd_ps(
          _mm256_set1_ps(vals[t]),
          _mm256_loadu_ps(w + static_cast<long>(idx[t]) * n + j), acc);
    _mm256_storeu_ps(y + j, acc);
  }
  for (; j < n; ++j) {
    float acc = y[j];
    for (int t = 0; t < nnz; ++t)
      acc = __builtin_fmaf(vals[t], w[static_cast<long>(idx[t]) * n + j],
                           acc);
    y[j] = acc;
  }
}

}  // namespace

// dp-analyze: hot scratch=scr
void decodeSampleAvx2(const DecodePlan& plan, const float* latent,
                      std::uint32_t* masks, DecodeScratch& scr) {
  const int H = plan.hidden;
  const int F = plan.flat;
  const int c1 = plan.c1;
  const int s2 = plan.s2;
  const int s = plan.s;

  std::size_t need = static_cast<std::size_t>(plan.latentDim > H ? plan.latentDim : H);
  const std::size_t xaNeed = static_cast<std::size_t>((c1 + 7) & ~7);
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

  // Per-cell nonzero channel lists (folded ReLU of h2), built in one
  // sequential sweep with branchless appends: half the channels are
  // dead post-ReLU and a data-dependent branch here mispredicts ~50%.
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
      scatterRows(span, n, ci, cv, plan.p1.data(), 16L * c1, 0, base,
                  base + mrow);
      scatterRows(span, n, ci, cv, plan.p1.data(), 16L * c1, 2L * span,
                  base + 2 * mrow, base + 3 * mrow);
    }
  }

  const int ow = s + 2;
  scr.out.assign(static_cast<std::size_t>(ow) * ow, 0.0f);
  float* out = scr.out.data();
  const float* bd1 = plan.bd1.data();
  const __m256 vzero8 = _mm256_setzero_ps();
  for (int ir = 0; ir < s2; ++ir) {
    for (int ic = 0; ic < s2; ++ic) {
      const float* cell = mid + ((ir + 1) * mw + (ic + 1)) * c1;
      // Branchless deconv1 bias fold + ReLU: zeroed lanes contribute
      // only +/-0 products, which never move any downstream compare,
      // so including them matches the scalar kernel's skip exactly on
      // the binarized output. (nzIdx/nzVal are free again here.)
      float* xa = vals;
      int live = 0;
      for (int in = 0; in < c1; in += 8) {
        const int lanes = c1 - in < 8 ? c1 - in : 8;
        __m256 xv;
        if (lanes == 8) {
          xv = _mm256_max_ps(_mm256_add_ps(_mm256_loadu_ps(cell + in),
                                           _mm256_loadu_ps(bd1 + in)),
                             vzero8);
        } else {
          alignas(32) float tmp[8] = {};
          for (int j = 0; j < lanes; ++j)
            tmp[j] = cell[in + j] + bd1[in + j];
          xv = _mm256_max_ps(_mm256_load_ps(tmp), vzero8);
        }
        live |= _mm256_movemask_ps(_mm256_cmp_ps(xv, vzero8, _CMP_GT_OQ));
        _mm256_storeu_ps(xa + in, xv);
      }
      if (live == 0) continue;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (int in = 0; in < c1; ++in) {
        const float* w = plan.p2.data() + static_cast<std::size_t>(in) * 16;
        const __m256 vx = _mm256_set1_ps(xa[in]);
        acc0 = _mm256_fmadd_ps(vx, _mm256_loadu_ps(w), acc0);
        acc1 = _mm256_fmadd_ps(vx, _mm256_loadu_ps(w + 8), acc1);
      }
      float patch[16];
      _mm256_storeu_ps(patch, acc0);
      _mm256_storeu_ps(patch + 8, acc1);
      float* base = out + (2 * ir) * ow + 2 * ic;
      for (int kh = 0; kh < 4; ++kh) {
        float* dst = base + kh * ow;
        _mm_storeu_ps(dst, _mm_add_ps(_mm_loadu_ps(dst),
                                      _mm_loadu_ps(patch + kh * 4)));
      }
    }
  }

  const __m256 vbias = _mm256_set1_ps(plan.bd2);
  const __m256 vhalf = _mm256_set1_ps(plan.zHalf);
  const int vs = s & ~7;
  for (int r = 0; r < s; ++r) {
    const float* row = out + (r + 1) * ow + 1;
    std::uint32_t m = 0;
    for (int c = 0; c < vs; c += 8) {
      const __m256 z = _mm256_add_ps(_mm256_loadu_ps(row + c), vbias);
      const __m256 ge = _mm256_cmp_ps(z, vhalf, _CMP_GE_OQ);
      m |= static_cast<std::uint32_t>(_mm256_movemask_ps(ge)) << c;
    }
    for (int c = vs; c < s; ++c)
      if (row[c] + plan.bd2 >= plan.zHalf) m |= 1U << c;
    masks[r] = m;
  }
}

}  // namespace dp::nn::fused::detail

#else  // !(__AVX2__ && __FMA__)

namespace dp::nn::fused::detail {

// dp-analyze: hot
void decodeSampleAvx2(const DecodePlan& plan, const float* latent,
                      std::uint32_t* masks, DecodeScratch& scratch) {
  // Unreachable by construction: the dispatcher follows
  // gemmKernelTarget(), which never selects AVX2 unless the AVX2 TUs
  // were compiled with real code generation (same CMake gate as this
  // file's flags).
  decodeSampleScalar(plan, latent, masks, scratch);
}

}  // namespace dp::nn::fused::detail

#endif
