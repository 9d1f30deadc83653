// PtfiWrap — the top-level integration point (paper Listing 1):
//
//   wrapper = ptfiwrap(model=net)
//   fault_iter = wrapper.get_fimodel_iter()
//   for ...: CORRUPTED_MODEL = next(fault_iter)
//
// The wrapper profiles the model, pre-generates the fault matrix from
// the scenario, and hands out an iterator that arms the next fault group
// on each step and returns the (same, instrumented) model.  Scenario
// mutation at run time (get_scenario / set_scenario, §V.D) regenerates
// the fault matrix without rebuilding the wrapper — the mechanism behind
// layer sweeps, fault-count sweeps and bit-position sweeps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/fault_generator.h"
#include "core/injector.h"

namespace alfi::core {

class PtfiWrap;

/// Steps through the pre-generated fault matrix, arming one group per
/// call.  Group size is scenario.max_faults_per_image for next() and
/// batch_size * max_faults_per_image for next_for_batch().
class FaultModelIterator {
 public:
  /// Disarms previous faults, arms the next max_faults_per_image
  /// columns, returns the instrumented model.  Use for per_batch /
  /// per_epoch policies and for single-image processing.
  nn::Module& next();

  /// Arms batch_size * max_faults_per_image columns, assigning each
  /// consecutive group of max_faults_per_image faults to one sample slot
  /// (neuron faults only; weight faults ignore slots).  Use for
  /// per_image policy with batched inference.
  nn::Module& next_for_batch(std::size_t batch_size);

  /// Columns consumed so far.
  std::size_t position() const { return position_; }

  /// Remaining columns in the fault matrix: 0 when the iterator is
  /// stale (the wrapper regenerated/replaced its matrix since this
  /// iterator was obtained) or when the position is at/past the end —
  /// never underflows.
  std::size_t remaining() const;

  bool exhausted() const { return remaining() == 0; }

  /// True once the wrapper's fault matrix was regenerated or replaced
  /// (set_scenario / load_fault_matrix / set_fault_matrix) after this
  /// iterator was obtained.  A stale iterator reports remaining() == 0
  /// and next() throws; reset() re-binds it to the current matrix.
  bool stale() const;

  /// Rewinds to the first column of the wrapper's *current* fault
  /// matrix (faults are reused, not regenerated) and clears staleness.
  void reset();

 private:
  friend class PtfiWrap;
  explicit FaultModelIterator(PtfiWrap& wrapper);

  PtfiWrap* wrapper_;
  std::size_t position_ = 0;
  std::size_t step_ = 0;
  std::uint64_t generation_ = 0;
};

class PtfiWrap {
 public:
  /// Profiles `model` with `sample_input` and pre-generates the fault
  /// matrix from `scenario`.
  PtfiWrap(nn::Module& model, Scenario scenario, const Tensor& sample_input);

  /// Convenience: reads the scenario from a YAML file (the paper's
  /// `scenarios/default.yml`).
  PtfiWrap(nn::Module& model, const std::string& scenario_path,
           const Tensor& sample_input);

  // ---- scenario (runtime-mutable, §V.D) ----------------------------------
  const Scenario& get_scenario() const { return scenario_; }

  /// Replaces the scenario, revalidates, regenerates the fault matrix
  /// with a fresh child RNG stream, and resets iteration state.
  void set_scenario(Scenario scenario);

  // ---- fault matrix ---------------------------------------------------------
  const FaultMatrix& fault_matrix() const { return faults_; }

  /// Reuses a persisted fault set instead of the generated one (paper:
  /// "the identical set of faults can be utilized across various
  /// experiments").
  void load_fault_matrix(const std::string& path);
  void save_fault_matrix(const std::string& path) const;

  /// Replaces the fault matrix directly (e.g. to replay a subset).
  void set_fault_matrix(FaultMatrix faults);

  // ---- iteration -------------------------------------------------------------
  FaultModelIterator get_fimodel_iter() { return FaultModelIterator(*this); }

  // ---- internals exposed for the test harnesses -----------------------------
  nn::Module& model() { return model_; }
  const ModelProfile& profile() const { return *profile_; }
  Injector& injector() { return *injector_; }
  const std::vector<InjectionRecord>& records() const { return injector_->records(); }

 private:
  friend class FaultModelIterator;

  nn::Module& model_;
  Scenario scenario_;
  Rng rng_;
  std::unique_ptr<ModelProfile> profile_;
  std::unique_ptr<Injector> injector_;
  FaultMatrix faults_;
  /// Bumped whenever faults_ is regenerated or replaced; outstanding
  /// iterators compare against it to detect staleness.
  std::uint64_t matrix_generation_ = 0;
};

}  // namespace alfi::core
