#include "core/wrapper.h"

namespace alfi::core {

PtfiWrap::PtfiWrap(nn::Module& model, Scenario scenario, const Tensor& sample_input)
    : model_(model), scenario_(std::move(scenario)), rng_(scenario_.rnd_seed) {
  scenario_.validate();
  profile_ = std::make_unique<ModelProfile>(model_, sample_input);
  injector_ = std::make_unique<Injector>(model_, *profile_, scenario_.duration);
  Rng generation_stream = rng_.fork();
  faults_ = generate_fault_matrix(scenario_, *profile_, generation_stream);
}

PtfiWrap::PtfiWrap(nn::Module& model, const std::string& scenario_path,
                   const Tensor& sample_input)
    : PtfiWrap(model, Scenario::from_yaml_file(scenario_path), sample_input) {}

void PtfiWrap::set_scenario(Scenario scenario) {
  scenario.validate();
  injector_->disarm();
  injector_->restore_all_weights();
  scenario_ = std::move(scenario);
  injector_->set_duration(scenario_.duration);
  // A fresh fork per set_scenario keeps fault sets of successive sweep
  // steps independent while the whole sweep stays reproducible from the
  // original seed.
  Rng generation_stream = rng_.fork();
  faults_ = generate_fault_matrix(scenario_, *profile_, generation_stream);
  ++matrix_generation_;
}

void PtfiWrap::load_fault_matrix(const std::string& path) {
  injector_->disarm();
  faults_ = FaultMatrix::load(path);
  ++matrix_generation_;
}

void PtfiWrap::save_fault_matrix(const std::string& path) const {
  faults_.save(path);
}

void PtfiWrap::set_fault_matrix(FaultMatrix faults) {
  injector_->disarm();
  faults_ = std::move(faults);
  ++matrix_generation_;
}

FaultModelIterator::FaultModelIterator(PtfiWrap& wrapper)
    : wrapper_(&wrapper), generation_(wrapper.matrix_generation_) {}

bool FaultModelIterator::stale() const {
  return generation_ != wrapper_->matrix_generation_;
}

std::size_t FaultModelIterator::remaining() const {
  // A stale iterator's position is meaningless against the new matrix;
  // report exhaustion instead of slicing out of range.  The same clamp
  // protects a position past the end from size_t underflow.
  if (stale()) return 0;
  const std::size_t size = wrapper_->faults_.size();
  return position_ >= size ? 0 : size - position_;
}

void FaultModelIterator::reset() {
  wrapper_->injector_->disarm();
  position_ = 0;
  step_ = 0;
  generation_ = wrapper_->matrix_generation_;
}

nn::Module& FaultModelIterator::next() {
  ALFI_CHECK(!stale(),
             "fault iterator invalidated: the wrapper's fault matrix was "
             "regenerated (set_scenario/load_fault_matrix); call reset()");
  const std::size_t group = wrapper_->scenario_.max_faults_per_image;
  ALFI_CHECK(remaining() >= group,
             "fault matrix exhausted: increase dataset_size/num_runs or reset()");
  wrapper_->injector_->disarm();
  wrapper_->injector_->set_inference_index(step_++);
  wrapper_->injector_->arm(wrapper_->faults_.slice(position_, group));
  position_ += group;
  return wrapper_->model_;
}

nn::Module& FaultModelIterator::next_for_batch(std::size_t batch_size) {
  ALFI_CHECK(!stale(),
             "fault iterator invalidated: the wrapper's fault matrix was "
             "regenerated (set_scenario/load_fault_matrix); call reset()");
  ALFI_CHECK(batch_size > 0, "batch size must be positive");
  const std::size_t per_image = wrapper_->scenario_.max_faults_per_image;
  const std::size_t group = batch_size * per_image;
  ALFI_CHECK(remaining() >= group,
             "fault matrix exhausted: increase dataset_size/num_runs or reset()");
  wrapper_->injector_->disarm();
  wrapper_->injector_->set_inference_index(step_++);

  std::vector<Fault> faults = wrapper_->faults_.slice(position_, group);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].target == FaultTarget::kNeurons) {
      faults[i].batch = static_cast<std::int64_t>(i / per_image);
    }
  }
  wrapper_->injector_->arm(std::move(faults));
  position_ += group;
  return wrapper_->model_;
}

}  // namespace alfi::core
