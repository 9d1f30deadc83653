// Runtime monitors (paper §IV.B: "monitoring capabilities (enabling the
// detection of NaN or Inf values and facilitating the integration of
// custom monitoring)").
//
// A ModelMonitor attaches observation hooks to every leaf layer of a
// model.  NaN / Inf detection feeds the DUE (Detected and Uncorrectable
// Error) KPI; custom monitors receive every layer output and can record
// arbitrary signals.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/workspace.h"
#include "util/metrics.h"

namespace alfi::core {

/// ModelMonitor doubles as a PrefixObserver: it tells the fault-free
/// cache which leaves a root-child start may drop without losing a
/// NaN/Inf detection (DESIGN.md §11.1).
class ModelMonitor : public nn::PrefixObserver {
 public:
  /// Observes a layer output: (module path, output tensor).
  using CustomMonitor = std::function<void(const std::string& path, const Tensor& output)>;

  explicit ModelMonitor(nn::Module& model);
  ~ModelMonitor();
  ModelMonitor(const ModelMonitor&) = delete;
  ModelMonitor& operator=(const ModelMonitor&) = delete;

  /// Clears detection state between inferences.
  void reset();

  bool nan_detected() const { return !nan_layers_.empty(); }
  bool inf_detected() const { return !inf_layers_.empty(); }
  /// DUE in the paper's sense: the corruption announced itself via
  /// NaN/Inf instead of silently altering the output.
  bool due_detected() const { return nan_detected() || inf_detected(); }

  /// Paths of layers whose output contained NaN (first offender first).
  const std::vector<std::string>& nan_layers() const { return nan_layers_; }
  const std::vector<std::string>& inf_layers() const { return inf_layers_; }

  /// Registers an additional custom monitor (runs on every leaf layer
  /// output after the NaN/Inf scan).
  void add_custom(CustomMonitor monitor);

  // ---- per-slot mode (packed campaign batches, DESIGN.md §12) --------------
  /// Scans each of the `slots` leading dim-0 rows of every observed
  /// output independently, so per-slot detection flags and `monitor.*`
  /// counter increments equal those of `slots` separate single-sample
  /// inferences.  Every observed output must then have dim(0) == slots.
  /// 0 (the default) restores whole-tensor scanning.  reset() clears
  /// the flags but keeps the mode; custom monitors still receive the
  /// whole packed tensor once per layer.
  void set_slot_count(std::size_t slots);

  /// Slot-resolved due_detected(); only meaningful in per-slot mode.
  bool slot_due(std::size_t slot) const;

  /// Mirrors detections into `registry`: totals under
  /// `monitor.nan_total` / `monitor.inf_total` plus per-layer counters
  /// `monitor.nan.<path>` / `monitor.inf.<path>`.  The totals are
  /// pre-registered here so the counter set is stable even when a run
  /// detects nothing.  Pass nullptr to detach.
  void set_metrics(util::MetricsRegistry* registry);

  /// PrefixObserver: true when observing `fault_free_output` would record
  /// nothing — no custom monitor is registered and every value is
  /// finite.
  bool skippable(const nn::Module& module, const Tensor& fault_free_output) override;

 private:
  void observe(const std::string& path, const Tensor& output);

  struct Attachment {
    nn::Module* module;
    nn::HookHandle handle;
  };
  std::vector<Attachment> attachments_;
  std::vector<std::string> nan_layers_;
  std::vector<std::string> inf_layers_;
  std::size_t slot_count_ = 0;         // 0 = whole-tensor scanning
  std::vector<std::uint8_t> slot_nan_;
  std::vector<std::uint8_t> slot_inf_;
  std::vector<CustomMonitor> custom_;
  util::MetricsRegistry* metrics_ = nullptr;
  util::Counter* nan_total_ = nullptr;
  util::Counter* inf_total_ = nullptr;
};

}  // namespace alfi::core
