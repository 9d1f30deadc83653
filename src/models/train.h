// Training loops for the in-repo evaluation models.
//
// The paper uses pretrained weights; we train the miniaturized models on
// the synthetic datasets until they are accurate enough that SDE (a
// fault-induced *change* of the output) is well defined.  Trained
// weights can be cached on disk (nn/serialize.h) so benchmark binaries
// do not retrain on every run.
#pragma once

#include <string>

#include "data/dataloader.h"
#include "models/detection.h"
#include "nn/layers.h"
#include "nn/optim.h"

namespace alfi::models {

struct TrainConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 32;
  float learning_rate = 0.01f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  /// Elementwise gradient clip (0 = off); detector training enables it.
  float grad_clip = 1.0f;
  /// Multiplicative per-epoch learning-rate decay (1 = constant).  The
  /// miniaturized nets without normalization need an annealed rate to
  /// stay converged once they reach low loss.
  float lr_decay = 0.93f;
  std::uint64_t seed = 1234;
  bool verbose = false;
};

/// Trains `model` with SGD + cross-entropy; returns final train accuracy.
float train_classifier(nn::Module& model, const data::ClassificationDataset& dataset,
                       const TrainConfig& config);

/// Top-1 accuracy of `model` over the whole dataset (eval mode).
float evaluate_classifier(nn::Module& model, const data::ClassificationDataset& dataset,
                          std::size_t batch_size = 32);

/// Trains a detector with SGD; returns the final epoch's mean loss.
float train_detector(Detector& detector, const data::DetectionDataset& dataset,
                     const TrainConfig& config);

/// Fraction of ground-truth objects recovered at IoU >= 0.5 with the
/// correct class (quick training sanity metric; the full COCO AP lives
/// in core/kpi).
float evaluate_detector_recall(Detector& detector, const data::DetectionDataset& dataset,
                               float conf_threshold, std::size_t batch_size = 16);

/// Loads cached parameters if `cache_path` holds this model's
/// parameters, otherwise trains and saves.  A cache that does not load —
/// written for another definition of the architecture — is a miss: a
/// warning names the file and the reason, and the retrain rewrites it.
/// Returns the achieved accuracy metric (negative if loaded from cache
/// without re-evaluation).
float train_classifier_cached(nn::Module& model,
                              const data::ClassificationDataset& dataset,
                              const TrainConfig& config, const std::string& cache_path);

float train_detector_cached(Detector& detector, const data::DetectionDataset& dataset,
                            const TrainConfig& config, const std::string& cache_path);

}  // namespace alfi::models
