#include "models/train.h"

#include <cmath>
#include <filesystem>

#include "nn/serialize.h"
#include "util/error.h"
#include "util/logging.h"

namespace alfi::models {

float train_classifier(nn::Module& model, const data::ClassificationDataset& dataset,
                       const TrainConfig& config) {
  Rng rng(config.seed);
  nn::kaiming_init(model, rng);
  nn::Sgd optimizer(model.parameters(),
                    {config.learning_rate, config.momentum, config.weight_decay,
                     config.grad_clip});
  data::ClassificationLoader loader(dataset, config.batch_size, /*shuffle=*/true,
                                    config.seed);

  float accuracy = 0.0f;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.set_learning_rate(
        config.learning_rate *
        std::pow(config.lr_decay, static_cast<float>(epoch)));
    model.set_training(true);
    double epoch_loss = 0.0;
    std::size_t correct = 0, total = 0;
    for (std::size_t b = 0; b < loader.num_batches(); ++b) {
      const data::ClassificationBatch batch = loader.batch(b);
      const Tensor logits = model.forward(batch.images);
      epoch_loss += ops::cross_entropy_loss(logits, batch.labels);
      const Tensor grad = ops::cross_entropy_grad(logits, batch.labels);
      model.backward(grad);
      optimizer.step();

      const std::size_t k = logits.dim(1);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < k; ++c) {
          if (logits.raw()[i * k + c] > logits.raw()[i * k + best]) best = c;
        }
        correct += (best == batch.labels[i]) ? 1 : 0;
        ++total;
      }
    }
    accuracy = static_cast<float>(correct) / static_cast<float>(total);
    if (config.verbose) {
      ALFI_LOG(kInfo) << "epoch " << epoch + 1 << "/" << config.epochs << " loss="
                      << epoch_loss / static_cast<double>(loader.num_batches())
                      << " acc=" << accuracy;
    }
    loader.next_epoch();
  }
  model.set_training(false);
  return accuracy;
}

float evaluate_classifier(nn::Module& model, const data::ClassificationDataset& dataset,
                          std::size_t batch_size) {
  model.set_training(false);
  data::ClassificationLoader loader(dataset, batch_size);
  std::size_t correct = 0, total = 0;
  for (std::size_t b = 0; b < loader.num_batches(); ++b) {
    const data::ClassificationBatch batch = loader.batch(b);
    const Tensor logits = model.forward(batch.images);
    const std::size_t k = logits.dim(1);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < k; ++c) {
        if (logits.raw()[i * k + c] > logits.raw()[i * k + best]) best = c;
      }
      correct += (best == batch.labels[i]) ? 1 : 0;
      ++total;
    }
  }
  return static_cast<float>(correct) / static_cast<float>(total);
}

float train_detector(Detector& detector, const data::DetectionDataset& dataset,
                     const TrainConfig& config) {
  Rng rng(config.seed);
  nn::kaiming_init(detector.network(), rng);
  nn::Sgd optimizer(detector.network().parameters(),
                    {config.learning_rate, config.momentum, config.weight_decay,
                     config.grad_clip});
  data::DetectionLoader loader(dataset, config.batch_size, /*shuffle=*/true,
                               config.seed);

  float last_epoch_loss = 0.0f;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.set_learning_rate(
        config.learning_rate *
        std::pow(config.lr_decay, static_cast<float>(epoch)));
    double epoch_loss = 0.0;
    for (std::size_t b = 0; b < loader.num_batches(); ++b) {
      epoch_loss += detector.train_step(loader.batch(b));
      optimizer.step();
    }
    last_epoch_loss =
        static_cast<float>(epoch_loss / static_cast<double>(loader.num_batches()));
    if (config.verbose) {
      ALFI_LOG(kInfo) << detector.name() << " epoch " << epoch + 1 << "/"
                      << config.epochs << " loss=" << last_epoch_loss;
    }
    loader.next_epoch();
  }
  detector.network().set_training(false);
  return last_epoch_loss;
}

float evaluate_detector_recall(Detector& detector, const data::DetectionDataset& dataset,
                               float conf_threshold, std::size_t batch_size) {
  detector.network().set_training(false);
  data::DetectionLoader loader(dataset, batch_size);
  std::size_t recovered = 0, total = 0;
  for (std::size_t b = 0; b < loader.num_batches(); ++b) {
    const data::DetectionBatch batch = loader.batch(b);
    const auto detections = detector.detect(batch.images, conf_threshold);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (const data::Annotation& gt : batch.annotations[i]) {
        ++total;
        for (const Detection& det : detections[i]) {
          if (det.category == gt.category_id && data::iou(det.box, gt.bbox) >= 0.5f) {
            ++recovered;
            break;
          }
        }
      }
    }
  }
  return total == 0 ? 0.0f : static_cast<float>(recovered) / static_cast<float>(total);
}

namespace {

/// Loads `cache_path` into `model`.  A missing file is a miss; so is a
/// file that does not load as this model's parameters — a cache written
/// for another definition of the architecture — which is named in a
/// warning and left to be rewritten by the retrain.
bool load_cache(nn::Module& model, const std::string& cache_path) {
  if (!std::filesystem::exists(cache_path)) return false;
  try {
    nn::load_parameters(model, cache_path);
  } catch (const Error& e) {
    ALFI_LOG(kWarn) << "model cache " << cache_path << " does not fit this model ("
                    << e.what() << "); retraining and rewriting it";
    return false;
  }
  model.set_training(false);
  return true;
}

}  // namespace

float train_classifier_cached(nn::Module& model,
                              const data::ClassificationDataset& dataset,
                              const TrainConfig& config, const std::string& cache_path) {
  if (load_cache(model, cache_path)) return -1.0f;
  const float accuracy = train_classifier(model, dataset, config);
  nn::save_parameters(model, cache_path);
  return accuracy;
}

float train_detector_cached(Detector& detector, const data::DetectionDataset& dataset,
                            const TrainConfig& config, const std::string& cache_path) {
  if (load_cache(detector.network(), cache_path)) return -1.0f;
  const float loss = train_detector(detector, dataset, config);
  nn::save_parameters(detector.network(), cache_path);
  return loss;
}

}  // namespace alfi::models
