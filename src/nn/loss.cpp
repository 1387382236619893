#include "nn/loss.hpp"

#include <cmath>

namespace dp::nn {

double mseLoss(const Tensor& pred, const Tensor& target, Tensor& gradOut) {
  requireSameShape(pred, target, "mseLoss");
  gradOut = Tensor(pred.shape());
  const double n = static_cast<double>(pred.numel());
  const float* p = pred.data();
  const float* t = target.data();
  float* g = gradOut.data();
  elementwise(pred.numel(), [=](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      g[i] = static_cast<float>(2.0 * double{p[i] - t[i]} / n);
  });
  // The loss stays one serial ascending sum.
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const double d = p[i] - t[i];
    loss += d * d;
  }
  return loss / n;
}

double bceWithLogitsLoss(const Tensor& logits, const Tensor& targets,
                         Tensor& gradOut) {
  requireSameShape(logits, targets, "bceWithLogitsLoss");
  gradOut = Tensor(logits.shape());
  const double n = static_cast<double>(logits.numel());
  double loss = 0.0;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    const double z = logits[i];
    const double y = targets[i];
    loss += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::abs(z)));
    const double sig = 1.0 / (1.0 + std::exp(-z));
    gradOut[i] = static_cast<float>((sig - y) / n);
  }
  return loss / n;
}

double gaussianKlLoss(const Tensor& mu, const Tensor& logVar,
                      Tensor& gradMu, Tensor& gradLogVar) {
  requireSameShape(mu, logVar, "gaussianKlLoss");
  gradMu = Tensor(mu.shape());
  gradLogVar = Tensor(mu.shape());
  const double batch = static_cast<double>(mu.size(0));
  double loss = 0.0;
  for (std::size_t i = 0; i < mu.numel(); ++i) {
    const double m = mu[i];
    const double lv = logVar[i];
    const double ev = std::exp(lv);
    loss += -0.5 * (1.0 + lv - m * m - ev);
    gradMu[i] = static_cast<float>(m / batch);
    gradLogVar[i] = static_cast<float>(-0.5 * (1.0 - ev) / batch);
  }
  return loss / batch;
}

}  // namespace dp::nn
