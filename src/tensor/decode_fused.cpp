#include "tensor/decode_fused.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "common/cpu.hpp"
#include "common/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace dp::nn::fused {

namespace {

/// DecodePlan::zHalf: bisection over the bit patterns of the floats in
/// [-1, -0], relying only on the float sigmoid being monotone. With -f(u)
/// the float of magnitude bit pattern u, sigmoid(-0) is exactly 0.5 and
/// sigmoid(-1) is 0.27; invariant: sigmoid(-f(lo)) >= 0.5f, and
/// sigmoid(-f(hi)) is not.
float sigmoidHalfThreshold() {
  const auto negFloat = [](std::uint32_t u) {
    float f = 0.0f;
    std::memcpy(&f, &u, sizeof(f));
    return -f;
  };
  const float one = 1.0f;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::memcpy(&hi, &one, sizeof(hi));
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (sigmoid(negFloat(mid)) >= 0.5f)
      lo = mid;
    else
      hi = mid;
  }
  return negFloat(lo);
}

}  // namespace

DecodePlan buildDecodePlan(int latentDim, int hidden, int c2, int s4, int c1,
                           int kernel, int stride, int pad, const float* w1,
                           const float* b1, const float* w2, const float* b2,
                           const float* wd1, const float* bd1,
                           const float* wd2, float bd2) {
  if (kernel != 4 || stride != 2 || pad != 1)
    throw std::invalid_argument(
        "buildDecodePlan: fused path requires kernel 4 / stride 2 / pad 1");
  if (latentDim <= 0 || hidden <= 0 || c2 <= 0 || s4 <= 0 || c1 <= 0)
    throw std::invalid_argument("buildDecodePlan: non-positive dimension");
  if (4 * s4 > 32)
    throw std::invalid_argument(
        "buildDecodePlan: topology edge exceeds a 32-bit row mask");

  DecodePlan plan;
  plan.latentDim = latentDim;
  plan.hidden = hidden;
  plan.flat = c2 * s4 * s4;
  plan.c2 = c2;
  plan.s4 = s4;
  plan.c1 = c1;
  plan.s2 = 2 * s4;
  plan.s = 4 * s4;

  plan.w1t.resize(static_cast<std::size_t>(latentDim) * hidden);
  for (int o = 0; o < hidden; ++o)
    for (int i = 0; i < latentDim; ++i)
      plan.w1t[static_cast<std::size_t>(i) * hidden + o] =
          w1[static_cast<std::size_t>(o) * latentDim + i];
  plan.b1.assign(b1, b1 + hidden);

  plan.w2t.resize(static_cast<std::size_t>(hidden) * plan.flat);
  for (int j = 0; j < plan.flat; ++j)
    for (int k = 0; k < hidden; ++k)
      plan.w2t[static_cast<std::size_t>(k) * plan.flat + j] =
          w2[static_cast<std::size_t>(j) * hidden + k];
  plan.b2.assign(b2, b2 + plan.flat);

  // Deconv weights arrive in the adjoint-conv layout (inC, outC*K*K);
  // repack deconv1 channels-last per tap so one input cell's scatter
  // touches 4 runs of 4*c1 contiguous floats.
  plan.p1.resize(static_cast<std::size_t>(c2) * 16 * c1);
  for (int in = 0; in < c2; ++in)
    for (int oc = 0; oc < c1; ++oc)
      for (int t = 0; t < 16; ++t)
        plan.p1[(static_cast<std::size_t>(in) * 16 + t) * c1 + oc] =
            wd1[static_cast<std::size_t>(in) * c1 * 16 + oc * 16 + t];
  plan.bd1.assign(bd1, bd1 + c1);
  plan.p2.assign(wd2, wd2 + static_cast<std::size_t>(c1) * 16);
  plan.bd2 = bd2;
  plan.zHalf = sigmoidHalfThreshold();
  return plan;
}

// dp-analyze: hot
void decodeBatch(const DecodePlan& plan, const float* latents, int batch,
                 std::uint32_t* masks) {
  using SampleFn = void (*)(const DecodePlan&, const float*, std::uint32_t*,
                            detail::DecodeScratch&);
  const KernelTarget target = gemmKernelTarget();
  // The vector kernels keep a whole deconv1 scatter region (4 rows of
  // 4*c1 floats) in registers, which requires the row span to divide
  // evenly into their lanes; odd-ball channel counts take the scalar
  // reference, which is bit-identical on the binarized output anyway.
  SampleFn fn = detail::decodeSampleScalar;
  if (target == KernelTarget::kAvx512 && plan.c1 % 4 == 0)
    fn = detail::decodeSampleAvx512;
  else if (target == KernelTarget::kAvx2 && plan.c1 % 2 == 0)
    fn = detail::decodeSampleAvx2;
  dp::parallelFor(batch, 8, [&](long n0, long n1) {
    thread_local detail::DecodeScratch scratch;
    for (long n = n0; n < n1; ++n)
      fn(plan, latents + n * plan.latentDim, masks + n * plan.s, scratch);
  });
}

namespace detail {

// The scalar kernel is the reference the vector kernels are measured
// against, so it replicates their structure bit-for-bit: the same
// per-element accumulation order (ascending contribution index at every
// accumulator) and __builtin_fmaf wherever they use an FMA. ReLU is
// folded into the nonzero-compaction steps — a skipped x <= 0 term is
// exactly what ReLU would have zeroed, and a zero term only ever adds
// +/-0 products, which cannot move any downstream compare.
// dp-analyze: hot scratch=scr
void decodeSampleScalar(const DecodePlan& plan, const float* latent,
                        std::uint32_t* masks, DecodeScratch& scr) {
  const int H = plan.hidden;
  const int F = plan.flat;
  const int c1 = plan.c1;
  const int s2 = plan.s2;
  const int s = plan.s;
  const int s4 = plan.s4;
  const int c2 = plan.c2;
  const int cells = s4 * s4;

  // Dense 1: h1 = W1 l + b1, per element ascending latent index.
  scr.h1.assign(plan.b1.begin(), plan.b1.end());
  float* h1 = scr.h1.data();
  for (int i = 0; i < plan.latentDim; ++i) {
    const float a = latent[i];
    const float* w = plan.w1t.data() + static_cast<std::size_t>(i) * H;
    for (int o = 0; o < H; ++o) h1[o] = __builtin_fmaf(a, w[o], h1[o]);
  }

  // Dense 2 over the post-ReLU nonzeros of h1 (folded ReLU + skip).
  scr.h2.assign(plan.b2.begin(), plan.b2.end());
  float* h2 = scr.h2.data();
  for (int k = 0; k < H; ++k) {
    const float a = h1[k];
    if (!(a > 0.0f)) continue;
    const float* w = plan.w2t.data() + static_cast<std::size_t>(k) * F;
    for (int j = 0; j < F; ++j) h2[j] = __builtin_fmaf(a, w[j], h2[j]);
  }

  // Per-cell nonzero channel lists for deconv1 (folded ReLU of h2):
  // cell order is row-major, channels appended ascending, which fixes
  // the accumulation order every kernel shares.
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

  // Deconv1 as per-input-cell scatter: output row of tap (kh, kw) is
  // 2*ir - 1 + kh, shifted +1 into the padded buffer, so rows land at
  // 2*ir + kh and the pad margin absorbs the stride-2 halo. One cell's
  // 4 x (4*c1) region is finished before moving to the next cell.
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
      for (int t = 0; t < n; ++t) {
        const float x = cv[t];
        const float* patches =
            plan.p1.data() + static_cast<std::size_t>(ci[t]) * 16 * c1;
        for (int kh = 0; kh < 4; ++kh) {
          float* dst = base + kh * mrow;
          const float* src = patches + kh * span;
          for (int j = 0; j < span; ++j)
            dst[j] = __builtin_fmaf(x, src[j], dst[j]);
        }
      }
    }
  }

  // Deconv1 bias + ReLU fold on read, deconv2 as patch scatter. Cells
  // whose activation is <= 0 contribute what ReLU already zeroed (or a
  // +/-0 no-op product), so they are skipped outright.
  const int ow = s + 2;
  scr.out.assign(static_cast<std::size_t>(ow) * ow, 0.0f);
  float* out = scr.out.data();
  const float* bd1 = plan.bd1.data();
  for (int ir = 0; ir < s2; ++ir) {
    for (int ic = 0; ic < s2; ++ic) {
      const float* cell = mid + ((ir + 1) * mw + (ic + 1)) * c1;
      float patch[16] = {};
      bool any = false;
      for (int in = 0; in < c1; ++in) {
        const float x = cell[in] + bd1[in];
        if (!(x > 0.0f)) continue;
        any = true;
        const float* w = plan.p2.data() + static_cast<std::size_t>(in) * 16;
        for (int t = 0; t < 16; ++t)
          patch[t] = __builtin_fmaf(x, w[t], patch[t]);
      }
      if (!any) continue;
      float* base = out + (2 * ir) * ow + 2 * ic;
      for (int kh = 0; kh < 4; ++kh) {
        float* dst = base + kh * ow;
        const float* src = patch + kh * 4;
        for (int kw = 0; kw < 4; ++kw) dst[kw] += src[kw];
      }
    }
  }

  // Binarize: sigmoid(z) >= 0.5 iff z = acc + bias >= zHalf (the
  // compare handles -0 and NaN exactly like `sigmoid >= 0.5f` does).
  const float bias = plan.bd2;
  const float zHalf = plan.zHalf;
  for (int r = 0; r < s; ++r) {
    const float* row = out + (r + 1) * ow + 1;
    std::uint32_t m = 0;
    for (int c = 0; c < s; ++c)
      if (row[c] + bias >= zHalf) m |= 1U << c;
    masks[r] = m;
  }
}

}  // namespace detail

}  // namespace dp::nn::fused
