// FrcnnLite: two-stage detector (Faster-RCNN-family analogue).
//
// Stage 1 (RPN): backbone features -> per-cell objectness + box.
// Stage 2: the feature vector of each proposal cell is classified by a
// small fully-connected head (K foreground classes + background) and its
// box re-regressed.  Both stages are children of one Module tree so the
// fault injector can target backbone, RPN and head layers alike.
#pragma once

#include <optional>

#include "models/detection.h"
#include "nn/workspace.h"

namespace alfi::models {

class FrcnnModule final : public nn::Module {
 public:
  FrcnnModule(std::size_t in_channels, std::size_t num_classes);

  std::string type() const override { return "FrcnnModule"; }

  /// Also exercises the second-stage head (with one pooled zero vector)
  /// so model profiling discovers the head layers' geometry.
  void probe_forward(const Tensor& input) override;

  /// RPN-only backward (grad of the [N,5,S,S] proposal map).
  Tensor backward(const Tensor& grad_output) override;

  /// Features produced by the most recent forward() ([N,64,S,S]).
  const Tensor& last_features() const;

  /// Runs the second-stage head on pooled proposal features [P, 64];
  /// returns [P, (K+1) + 4] (class logits incl. background, then box).
  Tensor head_forward(const Tensor& proposal_features);
  Tensor head_backward(const Tensor& grad_output);

  nn::Module& backbone() { return *backbone_; }
  nn::Module& rpn() { return *rpn_; }
  nn::Module& head() { return *head_; }

  std::size_t num_classes() const { return num_classes_; }

 protected:
  /// Returns the RPN map [N, 5, S, S]; features are cached for stage 2.
  Tensor compute(const Tensor& input) override;
  /// Workspace twin: backbone/RPN run through arena slots; the feature
  /// cache stays an owning copy whose vector capacity is reused, so the
  /// steady state remains allocation-free.
  Tensor& compute_ws(const Tensor& input, nn::InferenceWorkspace& ws) override;

 private:
  std::size_t num_classes_;
  Module* backbone_;
  Module* rpn_;
  Module* head_;
  std::optional<Tensor> last_features_;
};

class FrcnnLite final : public Detector {
 public:
  FrcnnLite(const GridSpec& grid, std::size_t num_classes, std::size_t in_channels);

  nn::Module& network() override { return *net_; }
  std::string name() const override { return "frcnn-lite"; }
  const GridSpec& grid() const override { return grid_; }
  std::size_t num_classes() const override { return num_classes_; }

  std::vector<std::vector<Detection>> detect(const Tensor& images,
                                             float conf_threshold) override;
  void set_workspace(nn::InferenceWorkspace* ws) override;
  float train_step(const data::DetectionBatch& batch) override;
  std::unique_ptr<Detector> clone() override;
  /// False: the second-stage head runs once per image on a
  /// [proposals, 64] tensor, so its dim 0 indexes proposals, not images.
  bool packable() const override { return false; }

  /// Number of proposals forwarded to stage 2 per image.
  static constexpr std::size_t kProposalsPerImage = 6;

 private:
  GridSpec grid_;
  std::size_t num_classes_;
  std::size_t in_channels_;
  std::shared_ptr<FrcnnModule> net_;
  nn::InferenceWorkspace* ws_ = nullptr;
  /// Second-stage workspace: the head is its own root, so it cannot
  /// share ws_ (a workspace serves one root at a time).  Owned here
  /// because the head's proposal batch is detector-driven.
  std::unique_ptr<nn::InferenceWorkspace> head_ws_;
};

}  // namespace alfi::models
