// Element-wise activation layers and the scalar functions they share with the
// LSTM cell.
#pragma once

#include "nn/layer.h"

namespace cpsguard::nn {

float sigmoid(float x);
float dsigmoid_from_y(float y);   // derivative given sigmoid output
float dtanh_from_y(float y);      // derivative given tanh output

class Relu : public Layer {
 public:
  explicit Relu(int size) : size_(size) {}

  [[nodiscard]] Matrix infer(const Matrix& x) const override;
  Matrix forward(const Matrix& x, bool training) override;
  Matrix backward(const Matrix& dy) override;

  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] int input_size() const override { return size_; }
  [[nodiscard]] int output_size() const override { return size_; }

 private:
  int size_;
  Matrix cached_output_;
};

class Tanh : public Layer {
 public:
  explicit Tanh(int size) : size_(size) {}

  [[nodiscard]] Matrix infer(const Matrix& x) const override;
  Matrix forward(const Matrix& x, bool training) override;
  Matrix backward(const Matrix& dy) override;

  [[nodiscard]] std::string name() const override { return "Tanh"; }
  [[nodiscard]] int input_size() const override { return size_; }
  [[nodiscard]] int output_size() const override { return size_; }

 private:
  int size_;
  Matrix cached_output_;
};

class Sigmoid : public Layer {
 public:
  explicit Sigmoid(int size) : size_(size) {}

  [[nodiscard]] Matrix infer(const Matrix& x) const override;
  Matrix forward(const Matrix& x, bool training) override;
  Matrix backward(const Matrix& dy) override;

  [[nodiscard]] std::string name() const override { return "Sigmoid"; }
  [[nodiscard]] int input_size() const override { return size_; }
  [[nodiscard]] int output_size() const override { return size_; }

 private:
  int size_;
  Matrix cached_output_;
};

}  // namespace cpsguard::nn
