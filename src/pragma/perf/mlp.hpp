// Small multilayer perceptron, trained from scratch with SGD.
//
// The paper obtains component PFs by feeding task-processing-time
// measurements "to a neural network".  This is that network: a fully
// connected tanh MLP regressor with input/output standardization, suitable
// for the one-dimensional data-size -> delay curves of Table 1 (but written
// generically for n-dimensional inputs).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "pragma/perf/pf.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::perf {

struct MlpConfig {
  std::vector<std::size_t> hidden = {8, 8};
  double learning_rate = 0.02;
  double momentum = 0.9;
  std::size_t epochs = 3000;
  std::uint64_t seed = 42;
  /// L2 weight decay.
  double weight_decay = 1e-5;
};

/// Fully connected tanh regressor with a linear output unit.
class Mlp {
 public:
  Mlp(std::size_t inputs, const MlpConfig& config);

  /// Train on rows of `x` (size n×inputs, flattened row-major) against
  /// targets `y` (size n).  Standardizes inputs/targets internally.
  /// Returns the final training RMSE (in original target units).
  double train(const std::vector<std::vector<double>>& x,
               const std::vector<double>& y);

  /// Predict a single sample.
  [[nodiscard]] double predict(const std::vector<double>& x) const;

  /// Convenience for 1-D curves.
  [[nodiscard]] double predict1(double x) const { return predict({x}); }

  /// Wrap a trained 1-D network as a PerfFunction.
  [[nodiscard]] std::unique_ptr<PerfFunction> as_pf(
      const std::string& name) const;

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<double> weights;   // out × in
    std::vector<double> biases;    // out
    std::vector<double> w_vel;     // momentum buffers
    std::vector<double> b_vel;
  };

  [[nodiscard]] std::vector<double> forward(
      std::vector<std::vector<double>>& activations,
      const std::vector<double>& input) const;
  void backward(std::vector<std::vector<double>>& activations,
                double output_error);

  std::size_t inputs_;
  MlpConfig config_;
  std::vector<Layer> layers_;
  // Standardization parameters learned in train().
  std::vector<double> x_mean_;
  std::vector<double> x_std_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
};

/// One-call helper: train an MLP on a 1-D curve and return it as a PF.
[[nodiscard]] std::unique_ptr<PerfFunction> fit_mlp_pf(
    const std::vector<double>& x, const std::vector<double>& y,
    const MlpConfig& config = {}, const std::string& name = "mlp_pf");

}  // namespace pragma::perf
