#include "nn/serialize.h"

#include "io/binary.h"

namespace alfi::nn {

namespace {
constexpr char kMagic[4] = {'A', 'L', 'F', 'P'};
// v2 appends the buffer section (e.g. BatchNorm running statistics);
// v1 files without it are rejected — a model restored without its
// buffers silently mispredicts, which is worse than retraining.
constexpr std::uint32_t kVersion = 2;

struct NamedTensor {
  std::string name;
  Tensor* tensor;
};

/// Every persistent tensor of the tree: parameters then buffers, both
/// in deterministic pre-order with dot-joined paths.
void collect(Module& root, std::vector<NamedTensor>& params,
             std::vector<NamedTensor>& buffers) {
  root.for_each_module([&](const std::string& module_path, Module& m) {
    for (Parameter* p : m.local_parameters()) {
      const std::string full =
          module_path.empty() ? p->name : module_path + "." + p->name;
      params.push_back({full, &p->value});
    }
    for (const auto& [name, tensor] : m.local_buffers()) {
      const std::string full =
          module_path.empty() ? name : module_path + "." + name;
      buffers.push_back({full, tensor});
    }
  });
}

void write_section(io::BinaryWriter& writer, const std::vector<NamedTensor>& entries) {
  writer.write_u64(entries.size());
  for (const NamedTensor& entry : entries) {
    writer.write_string(entry.name);
    writer.write_u64(entry.tensor->rank());
    for (std::size_t axis = 0; axis < entry.tensor->rank(); ++axis) {
      writer.write_u64(entry.tensor->dim(axis));
    }
    std::vector<float> data(entry.tensor->data().begin(), entry.tensor->data().end());
    writer.write_f32_array(data);
  }
}

/// Parses one section into `staged` (one tensor per entry, in entry
/// order) without touching the model.
void read_section(io::BinaryReader& reader, const std::vector<NamedTensor>& entries,
                  const std::string& path, const char* what,
                  std::vector<Tensor>& staged) {
  const std::uint64_t count = reader.read_u64();
  if (count != entries.size()) {
    throw ParseError(std::string(what) + " count mismatch in " + path +
                     ": file has " + std::to_string(count) + ", model has " +
                     std::to_string(entries.size()));
  }
  for (const NamedTensor& entry : entries) {
    const std::string file_name = reader.read_string();
    if (file_name != entry.name) {
      throw ParseError(std::string(what) + " order mismatch in " + path +
                       ": expected " + entry.name + ", file has " + file_name);
    }
    const std::uint64_t rank = reader.read_u64();
    std::vector<std::size_t> dims(rank);
    for (auto& d : dims) d = reader.read_u64();
    const Shape shape{dims};
    if (shape != entry.tensor->shape()) {
      throw ParseError(std::string(what) + " shape mismatch for " + entry.name);
    }
    staged.emplace_back(shape, reader.read_f32_array());
  }
}

}  // namespace

void save_parameters(Module& root, const std::string& path) {
  io::BinaryWriter writer(path);
  writer.write_header(kMagic, kVersion);

  std::vector<NamedTensor> params, buffers;
  collect(root, params, buffers);
  write_section(writer, params);
  write_section(writer, buffers);
}

void load_parameters(Module& root, const std::string& path) {
  io::BinaryReader reader(path);
  const std::uint32_t version = reader.read_header(kMagic);
  if (version != kVersion) {
    throw ParseError("unsupported parameter file version in " + path +
                     " (delete stale caches and retrain)");
  }

  // All or nothing: both sections parse into staged tensors first, so a
  // file that fails part-way (say, a stale cache whose head differs)
  // leaves the model as it was.  Then each staged tensor moves in.
  std::vector<NamedTensor> params, buffers;
  collect(root, params, buffers);
  std::vector<Tensor> staged;
  staged.reserve(params.size() + buffers.size());
  read_section(reader, params, path, "parameter", staged);
  read_section(reader, buffers, path, "buffer", staged);

  params.insert(params.end(), buffers.begin(), buffers.end());
  for (std::size_t i = 0; i < params.size(); ++i) {
    *params[i].tensor = std::move(staged[i]);
  }
  for (Parameter* p : root.parameters()) p->zero_grad();
}

}  // namespace alfi::nn
