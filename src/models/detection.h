// Object detection: shared types, grid geometry, NMS, detector interface.
//
// The three detector families stand in for the paper's YoloV3 /
// RetinaNet / Faster-RCNN (Fig. 2b):
//   * YoloLite  — single-stage dense grid with objectness (YOLO-style).
//   * RetinaLite — single-stage with separate class/box heads and
//     focal-style loss (RetinaNet-style).
//   * FrcnnLite — two-stage: proposal grid + per-proposal head
//     (Faster-RCNN-style).
// All share a SxS output grid over the input image; every decode path
// goes through the underlying nn::Module's forward(), so neuron fault
// hooks apply to detection exactly as to classification.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/dataloader.h"
#include "data/dataset.h"
#include "nn/layers.h"

namespace alfi::nn {
class InferenceWorkspace;
}

namespace alfi::models {

/// One predicted object.
struct Detection {
  data::BoundingBox box;
  std::size_t category = 0;
  float score = 0.0f;
};

/// Greedy non-maximum suppression (per category), highest score first.
std::vector<Detection> nms(std::vector<Detection> detections, float iou_threshold);

/// Geometry of the SxS prediction grid over an HxW image.
struct GridSpec {
  std::size_t grid = 6;
  std::size_t image_h = 48;
  std::size_t image_w = 48;

  float cell_h() const { return static_cast<float>(image_h) / grid; }
  float cell_w() const { return static_cast<float>(image_w) / grid; }

  /// Grid cell containing the center of `box` (row, col).
  std::pair<std::size_t, std::size_t> cell_of(const data::BoundingBox& box) const;
};

/// Box encoding shared by all three detectors: per cell
/// (tx, ty) -> sigmoid = center offset within cell, (tw, th) -> sigmoid =
/// box size as a fraction of the image.
data::BoundingBox decode_box(const GridSpec& grid, std::size_t row, std::size_t col,
                             float tx, float ty, float tw, float th);

/// Inverse of decode_box for target construction: returns the raw target
/// values (pre-sigmoid offsets are returned *post*-sigmoid, i.e. the
/// desired sigmoid outputs in (0,1)).
struct BoxTarget {
  float sx, sy;  // desired sigmoid(tx), sigmoid(ty)
  float sw, sh;  // desired sigmoid(tw), sigmoid(th)
};
BoxTarget encode_box(const GridSpec& grid, std::size_t row, std::size_t col,
                     const data::BoundingBox& box);

/// Abstract detector: a trainable network plus decode logic.
class Detector {
 public:
  virtual ~Detector() = default;

  /// The underlying module tree, the object the FI wrapper instruments.
  virtual nn::Module& network() = 0;

  virtual std::string name() const = 0;
  virtual const GridSpec& grid() const = 0;
  virtual std::size_t num_classes() const = 0;

  /// Full inference: network forward (hooks run) + decode + NMS.
  virtual std::vector<std::vector<Detection>> detect(const Tensor& images,
                                                     float conf_threshold) = 0;

  /// Routes detect()'s network inference through `ws` — arena-backed
  /// buffers planned once, zero steady-state allocations (DESIGN.md
  /// §10); nullptr restores the allocating forward() path.  The
  /// workspace must outlive its use; clones start without one.  The
  /// default ignores the workspace, so custom detectors keep working
  /// (they just stay on the allocating path).
  virtual void set_workspace(nn::InferenceWorkspace* ws) { (void)ws; }

  /// Whether one detect() over a batch keeps its images apart end to
  /// end, so a campaign may pack several units into one pass, each
  /// unit's faults armed on its own batch slot (DESIGN.md §12).  A
  /// detector with a stage that runs per image on a tensor whose dim 0
  /// is not the batch answers false: a fault armed on slot i would hit
  /// row i of that stage for every image of the pack.
  virtual bool packable() const { return true; }

  /// Deep copy: a fresh detector of the same family and geometry whose
  /// network holds copies of this detector's parameters.  The clone
  /// shares no mutable state with the original, so it can run on
  /// another thread (the basis of parallel object-detection campaigns).
  virtual std::unique_ptr<Detector> clone() = 0;

  /// One optimizer-free training step: forward, loss, backward; the
  /// caller owns the optimizer.  Returns the batch loss.
  virtual float train_step(const data::DetectionBatch& batch) = 0;
};

/// Factory by family name: "yolo", "retina", "frcnn".
std::unique_ptr<Detector> make_detector(const std::string& family, const GridSpec& grid,
                                        std::size_t num_classes, std::size_t in_channels);

}  // namespace alfi::models
