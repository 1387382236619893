#include "nn/activations.hpp"

#include <cmath>

namespace dp::nn {

namespace {

Tensor relu(const Tensor& x) {
  Tensor y = x;
  float* py = y.data();
  elementwise(y.numel(), [py](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      if (py[i] < 0.0f) py[i] = 0.0f;
  });
  return y;
}

Tensor sigmoidOf(const Tensor& x) {
  Tensor y = x;
  float* py = y.data();
  elementwise(y.numel(), [py](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) py[i] = sigmoid(py[i]);
  });
  return y;
}

}  // namespace

Tensor ReLU::forward(const Tensor& x, bool /*training*/) {
  input_ = x;
  return relu(x);
}

Tensor ReLU::infer(const Tensor& x) const { return relu(x); }

Tensor ReLU::backward(const Tensor& gradOut) {
  requireSameShape(gradOut, input_, "ReLU::backward");
  Tensor dx = gradOut;
  float* pdx = dx.data();
  const float* in = input_.data();
  elementwise(dx.numel(), [pdx, in](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      if (in[i] <= 0.0f) pdx[i] = 0.0f;
  });
  return dx;
}

Tensor LeakyReLU::forward(const Tensor& x, bool /*training*/) {
  input_ = x;
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i)
    if (y[i] < 0.0f) y[i] *= slope_;
  return y;
}

Tensor LeakyReLU::infer(const Tensor& x) const {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i)
    if (y[i] < 0.0f) y[i] *= slope_;
  return y;
}

Tensor LeakyReLU::backward(const Tensor& gradOut) {
  requireSameShape(gradOut, input_, "LeakyReLU::backward");
  Tensor dx = gradOut;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (input_[i] <= 0.0f) dx[i] *= slope_;
  return dx;
}

Tensor Sigmoid::forward(const Tensor& x, bool /*training*/) {
  output_ = sigmoidOf(x);
  return output_;
}

Tensor Sigmoid::infer(const Tensor& x) const { return sigmoidOf(x); }

Tensor Sigmoid::backward(const Tensor& gradOut) {
  requireSameShape(gradOut, output_, "Sigmoid::backward");
  Tensor dx = gradOut;
  float* pdx = dx.data();
  const float* out = output_.data();
  elementwise(dx.numel(), [pdx, out](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      pdx[i] *= out[i] * (1.0f - out[i]);
  });
  return dx;
}

Tensor Tanh::forward(const Tensor& x, bool /*training*/) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(y[i]);
  output_ = y;
  return y;
}

Tensor Tanh::infer(const Tensor& x) const {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(y[i]);
  return y;
}

Tensor Tanh::backward(const Tensor& gradOut) {
  requireSameShape(gradOut, output_, "Tanh::backward");
  Tensor dx = gradOut;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    dx[i] *= 1.0f - output_[i] * output_[i];
  return dx;
}

}  // namespace dp::nn
