#include "nn/activations.h"

#include <cmath>

#include "util/contracts.h"

namespace cpsguard::nn {

float sigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

float dsigmoid_from_y(float y) { return y * (1.0f - y); }

float dtanh_from_y(float y) { return 1.0f - y * y; }

Matrix Relu::infer(const Matrix& x) const {
  expects(x.cols() == size_, "ReLU: width mismatch");
  Matrix y = x;
  for (float& v : y.data()) v = v > 0.0f ? v : 0.0f;
  return y;
}

Matrix Relu::forward(const Matrix& x, bool /*training*/) {
  Matrix y = infer(x);
  cached_output_ = y;
  return y;
}

Matrix Relu::backward(const Matrix& dy) {
  expects(dy.rows() == cached_output_.rows() && dy.cols() == cached_output_.cols(),
          "ReLU: backward shape mismatch");
  Matrix dx = dy;
  const auto y = cached_output_.data();
  auto g = dx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (y[i] <= 0.0f) g[i] = 0.0f;
  }
  return dx;
}

Matrix Tanh::infer(const Matrix& x) const {
  expects(x.cols() == size_, "Tanh: width mismatch");
  Matrix y = x;
  for (float& v : y.data()) v = std::tanh(v);
  return y;
}

Matrix Tanh::forward(const Matrix& x, bool /*training*/) {
  Matrix y = infer(x);
  cached_output_ = y;
  return y;
}

Matrix Tanh::backward(const Matrix& dy) {
  expects(dy.rows() == cached_output_.rows() && dy.cols() == cached_output_.cols(),
          "Tanh: backward shape mismatch");
  Matrix dx = dy;
  const auto y = cached_output_.data();
  auto g = dx.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= dtanh_from_y(y[i]);
  return dx;
}

Matrix Sigmoid::infer(const Matrix& x) const {
  expects(x.cols() == size_, "Sigmoid: width mismatch");
  Matrix y = x;
  for (float& v : y.data()) v = sigmoid(v);
  return y;
}

Matrix Sigmoid::forward(const Matrix& x, bool /*training*/) {
  Matrix y = infer(x);
  cached_output_ = y;
  return y;
}

Matrix Sigmoid::backward(const Matrix& dy) {
  expects(dy.rows() == cached_output_.rows() && dy.cols() == cached_output_.cols(),
          "Sigmoid: backward shape mismatch");
  Matrix dx = dy;
  const auto y = cached_output_.data();
  auto g = dx.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= dsigmoid_from_y(y[i]);
  return dx;
}

}  // namespace cpsguard::nn
