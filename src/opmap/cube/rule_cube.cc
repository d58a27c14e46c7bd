#include "opmap/cube/rule_cube.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace opmap {

Result<int64_t> RuleCube::InitShape(std::shared_ptr<const Schema> schema,
                                    const std::vector<int>& dims) {
  if (schema == nullptr) {
    return Status::InvalidArgument("a rule cube needs a schema");
  }
  if (dims.empty()) {
    return Status::InvalidArgument("a rule cube needs at least one dimension");
  }
  shape_.resize(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    const int a = dims[d];
    if (a < 0 || a >= schema->num_attributes()) {
      return Status::OutOfRange("cube dimension attribute out of range");
    }
    const Attribute& attr = schema->attribute(a);
    if (!attr.is_categorical()) {
      return Status::InvalidArgument("cube dimension '" + attr.name() +
                                     "' is not categorical");
    }
    const auto prior = dims.begin() + static_cast<std::ptrdiff_t>(d);
    if (std::find(dims.begin(), prior, a) != prior) {
      return Status::InvalidArgument("duplicate cube dimension");
    }
    shape_[d].attr = a;
    shape_[d].size = attr.domain();
  }
  schema_ = std::move(schema);
  return SetStrides();
}

Result<RuleCube> RuleCube::Make(std::shared_ptr<const Schema> schema,
                                const std::vector<int>& dims) {
  RuleCube cube;
  OPMAP_ASSIGN_OR_RETURN(int64_t cells,
                         cube.InitShape(std::move(schema), dims));
  cube.counts_.assign(static_cast<size_t>(cells), 0);
  return cube;
}

Result<RuleCube> RuleCube::MakeView(std::shared_ptr<const Schema> schema,
                                    const std::vector<int>& dims,
                                    const int64_t* counts,
                                    int64_t num_cells) {
  RuleCube cube;
  OPMAP_ASSIGN_OR_RETURN(int64_t cells,
                         cube.InitShape(std::move(schema), dims));
  if (cells != num_cells) {
    return Status::InvalidArgument(
        "cube view holds " + std::to_string(num_cells) +
        " cells, shape implies " + std::to_string(cells));
  }
  if (counts == nullptr && cells > 0) {
    return Status::InvalidArgument("cube view needs a count array");
  }
  cube.extern_counts_ = counts;
  cube.extern_cells_ = num_cells;
  return cube;
}

int64_t RuleCube::SetStrides() {
  int64_t cells = 1;
  for (size_t d = shape_.size(); d-- > 0;) {
    shape_[d].stride = cells;
    cells *= shape_[d].size;
  }
  return cells;
}

RuleCube RuleCube::Zeroed(std::vector<Dim> shape) const {
  RuleCube out;
  out.schema_ = schema_;
  out.shape_ = std::move(shape);
  out.counts_.assign(static_cast<size_t>(out.SetStrides()), 0);
  return out;
}

int RuleCube::FindDim(int attr) const {
  for (int d = 0; d < num_dims(); ++d) {
    if (DimAt(d).attr == attr) return d;
  }
  return -1;
}

size_t RuleCube::LinearIndex(const std::vector<ValueCode>& cell) const {
  assert(cell.size() == shape_.size());
  int64_t idx = 0;
  for (size_t d = 0; d < cell.size(); ++d) {
    assert(cell[d] >= 0 && cell[d] < shape_[d].size);
    idx += shape_[d].stride * cell[d];
  }
  return static_cast<size_t>(idx);
}

int64_t RuleCube::Total() const {
  const int64_t* p = raw_counts();
  return std::accumulate(p, p + num_cells(), int64_t{0});
}

double RuleCube::Support(const std::vector<ValueCode>& cell) const {
  const int64_t total = Total();
  if (total == 0) return 0.0;
  return static_cast<double>(count(cell)) / static_cast<double>(total);
}

int64_t RuleCube::MarginCount(const std::vector<ValueCode>& cell,
                              int dim) const {
  assert(dim >= 0 && dim < num_dims());
  std::vector<ValueCode> probe = cell;
  int64_t sum = 0;
  for (ValueCode v = 0; v < dim_size(dim); ++v) {
    probe[static_cast<size_t>(dim)] = v;
    sum += count(probe);
  }
  return sum;
}

double RuleCube::Confidence(const std::vector<ValueCode>& cell,
                            int class_dim) const {
  const int64_t body = MarginCount(cell, class_dim);
  if (body == 0) return 0.0;
  return static_cast<double>(count(cell)) / static_cast<double>(body);
}

namespace {

// Iterates all cells of a cube shape, invoking fn(cell).
template <typename Shape, typename Fn>
void ForEachCell(const Shape& shape, Fn&& fn) {
  std::vector<ValueCode> cell(shape.size(), 0);
  if (shape.empty()) return;
  for (;;) {
    fn(cell);
    int d = static_cast<int>(shape.size()) - 1;
    while (d >= 0 && cell[static_cast<size_t>(d)] ==
                         shape[static_cast<size_t>(d)].size - 1) {
      cell[static_cast<size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
    ++cell[static_cast<size_t>(d)];
  }
}

}  // namespace

Result<RuleCube> RuleCube::Slice(int dim, ValueCode value) const {
  if (dim < 0 || dim >= num_dims()) {
    return Status::OutOfRange("slice dimension out of range");
  }
  if (value < 0 || value >= dim_size(dim)) {
    return Status::OutOfRange("slice value out of domain");
  }
  if (num_dims() == 1) {
    return Status::InvalidArgument("cannot slice a 1-D cube away");
  }
  std::vector<Dim> shape = shape_;
  shape.erase(shape.begin() + dim);
  RuleCube out = Zeroed(std::move(shape));
  ForEachCell(out.shape_, [&](const std::vector<ValueCode>& cell) {
    std::vector<ValueCode> src = cell;
    src.insert(src.begin() + dim, value);
    out.counts_[out.LinearIndex(cell)] = count(src);
  });
  return out;
}

Result<RuleCube> RuleCube::Dice(int dim,
                                const std::vector<ValueCode>& values) const {
  if (dim < 0 || dim >= num_dims()) {
    return Status::OutOfRange("dice dimension out of range");
  }
  if (values.empty()) {
    return Status::InvalidArgument("dice needs at least one value");
  }
  for (ValueCode v : values) {
    if (v < 0 || v >= dim_size(dim)) {
      return Status::OutOfRange("dice value out of domain");
    }
  }
  std::vector<Dim> shape = shape_;
  Dim& diced = shape[static_cast<size_t>(dim)];
  std::vector<ValueCode> codes;
  codes.reserve(values.size());
  for (ValueCode v : values) {
    codes.push_back(diced.codes.empty()
                        ? v
                        : diced.codes[static_cast<size_t>(v)]);
  }
  diced.size = static_cast<int>(values.size());
  diced.codes = std::move(codes);
  RuleCube out = Zeroed(std::move(shape));
  ForEachCell(out.shape_, [&](const std::vector<ValueCode>& cell) {
    std::vector<ValueCode> src = cell;
    src[static_cast<size_t>(dim)] =
        values[static_cast<size_t>(cell[static_cast<size_t>(dim)])];
    out.counts_[out.LinearIndex(cell)] = count(src);
  });
  return out;
}

Result<RuleCube> RuleCube::Marginalize(int dim) const {
  if (dim < 0 || dim >= num_dims()) {
    return Status::OutOfRange("roll-up dimension out of range");
  }
  if (num_dims() == 1) {
    return Status::InvalidArgument("cannot roll up a 1-D cube away");
  }
  std::vector<Dim> shape = shape_;
  shape.erase(shape.begin() + dim);
  RuleCube out = Zeroed(std::move(shape));
  ForEachCell(shape_, [&](const std::vector<ValueCode>& cell) {
    std::vector<ValueCode> dst = cell;
    dst.erase(dst.begin() + dim);
    out.counts_[out.LinearIndex(dst)] += count(cell);
  });
  return out;
}

}  // namespace opmap
