#pragma once

/// \file tensor.hpp
/// Minimal dense float tensor used by the neural-network substrate.
/// Row-major, contiguous, up to 4 dimensions (the networks in this
/// project use (N,C,H,W) activations and (N,D) feature matrices).
/// This is deliberately a plain value type: copy copies, no views, no
/// hidden sharing — which keeps layer implementations easy to audit.

#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dp::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape);

  [[nodiscard]] static Tensor zeros(std::vector<int> shape);
  [[nodiscard]] static Tensor full(std::vector<int> shape, float v);
  /// I.i.d. N(0, stddev^2) entries.
  [[nodiscard]] static Tensor randn(std::vector<int> shape, Rng& rng,
                                    double stddev = 1.0);
  /// I.i.d. uniform entries in [lo, hi).
  [[nodiscard]] static Tensor uniform(std::vector<int> shape, Rng& rng,
                                      double lo, double hi);

  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }
  [[nodiscard]] int dim() const { return static_cast<int>(shape_.size()); }
  [[nodiscard]] int size(int d) const;
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D indexed access (for (N,D) tensors).
  [[nodiscard]] float& at(int i, int j);
  [[nodiscard]] float at(int i, int j) const;
  /// 4-D indexed access (for (N,C,H,W) tensors).
  [[nodiscard]] float& at(int n, int c, int h, int w);
  [[nodiscard]] float at(int n, int c, int h, int w) const;

  /// Same data, new shape; numel must match. Returns a copy.
  [[nodiscard]] Tensor reshaped(std::vector<int> shape) const;

  void fill(float v);
  void zero() { fill(0.0f); }

  /// In-place elementwise operations (shapes must match exactly).
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(float s);

  [[nodiscard]] friend Tensor operator+(Tensor a, const Tensor& b) {
    a += b;
    return a;
  }
  [[nodiscard]] friend Tensor operator-(Tensor a, const Tensor& b) {
    a -= b;
    return a;
  }
  [[nodiscard]] friend Tensor operator*(Tensor a, float s) {
    a *= s;
    return a;
  }

  /// Sum of all entries.
  [[nodiscard]] double sum() const;
  /// Mean of all entries (0 for empty tensors).
  [[nodiscard]] double mean() const;
  /// Largest absolute entry.
  [[nodiscard]] double absMax() const;

  [[nodiscard]] std::string shapeString() const;

  friend bool operator==(const Tensor&, const Tensor&) = default;

 private:
  [[nodiscard]] std::size_t checkedNumel(const std::vector<int>& s) const;

  std::vector<int> shape_;
  std::vector<float> data_;
};

/// Throws std::invalid_argument unless the two shapes are identical.
void requireSameShape(const Tensor& a, const Tensor& b,
                      const char* context);

/// Elements per chunk of elementwise(): a fixed count, so the chunking
/// depends on the tensor size only.
inline constexpr std::size_t kElementwiseGrain = std::size_t{1} << 14;

/// Runs body(begin, end) over [0, n) in dp::parallelFor chunks of
/// kElementwiseGrain elements, for loops whose elements are independent
/// (activations, optimizer updates, loss gradients). Results are
/// bit-identical at any DP_THREADS and, like every parallelFor chunk,
/// computed with denormals flushed; a tensor of at most one grain (every
/// tensor of the guide MLP) runs as one inline chunk.
void elementwise(std::size_t n,
                 const std::function<void(std::size_t begin,
                                          std::size_t end)>& body);

/// The logistic function exactly as the Sigmoid layer computes it; the
/// fused decode route derives its binarization threshold from this
/// expression (tensor/decode_fused.hpp).
[[nodiscard]] inline float sigmoid(float z) {
  return 1.0f / (1.0f + std::exp(-z));
}

}  // namespace dp::nn
