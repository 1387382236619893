#include "tensor/tensor.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace dp::nn {

namespace {

std::size_t shapeNumel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d < 0) throw std::invalid_argument("Tensor: negative dimension");
    n *= static_cast<std::size_t>(d);
  }
  return shape.empty() ? 0 : n;
}

}  // namespace

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  data_.assign(shapeNumel(shape_), 0.0f);
}

Tensor Tensor::zeros(std::vector<int> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<int> shape, float v) {
  Tensor t(std::move(shape));
  t.fill(v);
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, Rng& rng, double stddev) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.gaussian(0.0, stddev));
  return t;
}

Tensor Tensor::uniform(std::vector<int> shape, Rng& rng, double lo,
                       double hi) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

int Tensor::size(int d) const {
  if (d < 0 || d >= dim()) throw std::out_of_range("Tensor::size");
  return shape_[static_cast<std::size_t>(d)];
}

float& Tensor::at(int i, int j) {
  if (dim() != 2) throw std::logic_error("Tensor::at(i,j) needs 2-D");
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float Tensor::at(int i, int j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(int n, int c, int h, int w) {
  if (dim() != 4) throw std::logic_error("Tensor::at(n,c,h,w) needs 4-D");
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
          shape_[3] +
      w;
  return data_[idx];
}

float Tensor::at(int n, int c, int h, int w) const {
  return const_cast<Tensor*>(this)->at(n, c, h, w);
}

Tensor Tensor::reshaped(std::vector<int> shape) const {
  if (shapeNumel(shape) != numel())
    throw std::invalid_argument("Tensor::reshaped: numel mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  return t;
}

void Tensor::fill(float v) {
  for (float& x : data_) x = v;
}

Tensor& Tensor::operator+=(const Tensor& o) {
  requireSameShape(*this, o, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  requireSameShape(*this, o, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (float& x : data_) x *= s;
  return *this;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return s;
}

double Tensor::mean() const { return data_.empty() ? 0.0 : sum() / data_.size(); }

double Tensor::absMax() const {
  double m = 0.0;
  for (float x : data_) m = std::max(m, static_cast<double>(std::abs(x)));
  return m;
}

std::string Tensor::shapeString() const {
  std::ostringstream os;
  os << "(";
  for (int i = 0; i < dim(); ++i) {
    if (i) os << ",";
    os << shape_[static_cast<std::size_t>(i)];
  }
  os << ")";
  return os.str();
}

void requireSameShape(const Tensor& a, const Tensor& b,
                      const char* context) {
  if (a.shape() != b.shape())
    throw std::invalid_argument(std::string(context) + ": shape mismatch " +
                                a.shapeString() + " vs " + b.shapeString());
}

void elementwise(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  dp::parallelFor(static_cast<long>(n), static_cast<long>(kElementwiseGrain),
                  [&](long begin, long end) {
                    body(static_cast<std::size_t>(begin),
                         static_cast<std::size_t>(end));
                  });
}

}  // namespace dp::nn
