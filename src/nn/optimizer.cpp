#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace dp::nn {

Optimizer::Optimizer(std::vector<Param*> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  for (Param* p : params_)
    if (!p) throw std::invalid_argument("Optimizer: null parameter");
}

void Optimizer::zeroGrad() {
  for (Param* p : params_) p->grad.zero();
}

Sgd::Sgd(std::vector<Param*> params, double lr, double momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Param* p : params_) velocity_.push_back(Tensor::zeros(p->value.shape()));
}

std::vector<Tensor*> Sgd::state() {
  std::vector<Tensor*> out;
  out.reserve(velocity_.size());
  for (Tensor& v : velocity_) out.push_back(&v);
  return out;
}

void Sgd::step() {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    Tensor& vel = velocity_[k];
    elementwise(p.value.numel(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const double g = effectiveGrad(p, i);
        const double v = momentum_ * vel[i] - lr_ * g;
        vel[i] = static_cast<float>(v);
        p.value[i] += static_cast<float>(v);
      }
    });
  }
}

Adam::Adam(std::vector<Param*> params, double lr, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params), lr), beta1_(beta1), beta2_(beta2),
      eps_(eps), stepState_(Tensor::zeros({1})) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.push_back(Tensor::zeros(p->value.shape()));
    v_.push_back(Tensor::zeros(p->value.shape()));
  }
}

std::vector<Tensor*> Adam::state() {
  std::vector<Tensor*> out;
  out.reserve(1 + m_.size() + v_.size());
  out.push_back(&stepState_);
  for (Tensor& m : m_) out.push_back(&m);
  for (Tensor& v : v_) out.push_back(&v);
  return out;
}

void Adam::loadState() {
  t_ = std::lround(static_cast<double>(stepState_[0]));
  if (t_ < 0)
    throw std::runtime_error("Adam::loadState: negative step count");
}

void Adam::step() {
  ++t_;
  stepState_[0] = static_cast<float>(t_);
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    Tensor& m = m_[k];
    Tensor& v = v_[k];
    elementwise(p.value.numel(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const double g = effectiveGrad(p, i);
        const double mi = beta1_ * m[i] + (1.0 - beta1_) * g;
        const double vi = beta2_ * v[i] + (1.0 - beta2_) * g * g;
        m[i] = static_cast<float>(mi);
        v[i] = static_cast<float>(vi);
        const double mhat = mi / bc1;
        const double vhat = vi / bc2;
        p.value[i] -= static_cast<float>(lr_ * mhat /
                                         (std::sqrt(vhat) + eps_));
      }
    });
  }
}

}  // namespace dp::nn
