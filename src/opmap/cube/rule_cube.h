#ifndef OPMAP_CUBE_RULE_CUBE_H_
#define OPMAP_CUBE_RULE_CUBE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "opmap/common/status.h"
#include "opmap/data/schema.h"

namespace opmap {

/// A rule cube (paper Section III.B): a dense count tensor over a subset of
/// attributes. Each cell holds the support count of one rule body+class
/// combination; supports and confidences of all rules over the cube's
/// attributes are derived from cell counts.
///
/// A cube is a shape plus counts. The shape holds, per dimension, the
/// schema attribute, its domain size, its row-major stride and, for a
/// diced dimension only, a map from each kept code back to the attribute's
/// domain. Names and labels are never copied: every cube shares one
/// immutable Schema with its store and `dim_name`/`label` read through it,
/// so a cube still answers them after its store is gone. Counts are owned
/// (Make and the OLAP operations) or viewed (MakeView: a store's count
/// block or a mapped file).
///
/// Unlike OLAP data cubes there are no attribute hierarchies: every
/// dimension is a flat attribute domain. By convention the class attribute,
/// when present, is the last dimension (the store always builds cubes this
/// way), but the type supports any dimension list so that OLAP operations
/// stay closed.
class RuleCube {
 public:
  /// Creates a zeroed cube over the given schema attribute indices.
  /// `dims` must be non-empty, distinct, and categorical. The cube shares
  /// `schema`, which must be non-null.
  static Result<RuleCube> Make(std::shared_ptr<const Schema> schema,
                               const std::vector<int>& dims);

  /// Creates a view over an external count array: a store's count block
  /// or a mapped cube-store file. No counts are copied or allocated.
  /// `counts` must hold exactly the cube's cell count in row-major order
  /// (it may be null only when that is 0) and must outlive the view and
  /// every copy of it. Views answer every query identically to an owning
  /// cube. Add and the mutable raw_counts write through to the array,
  /// which must then be writable: never mutate a view of a mapped file.
  static Result<RuleCube> MakeView(std::shared_ptr<const Schema> schema,
                                   const std::vector<int>& dims,
                                   const int64_t* counts, int64_t num_cells);

  /// True when the counts live in external storage (MakeView).
  bool is_view() const { return extern_counts_ != nullptr; }

  /// Number of dimensions.
  int num_dims() const { return static_cast<int>(shape_.size()); }

  /// Schema attribute index of dimension `d`.
  int dim_attribute(int d) const { return DimAt(d).attr; }

  /// Domain size of dimension `d` (after any dice).
  int dim_size(int d) const { return DimAt(d).size; }

  /// Position of schema attribute `attr` among the dims, or -1.
  int FindDim(int attr) const;

  /// Total number of cells.
  int64_t num_cells() const {
    return is_view() ? extern_cells_ : static_cast<int64_t>(counts_.size());
  }

  /// Sum of all cell counts (number of records represented).
  int64_t Total() const;

  /// Count at a cell; `cell` has one code per dimension, each in range.
  int64_t count(const std::vector<ValueCode>& cell) const {
    return raw_counts()[LinearIndex(cell)];
  }

  /// Adds `delta` to a cell (through a view, to its external array).
  void Add(const std::vector<ValueCode>& cell, int64_t delta = 1) {
    raw_counts()[LinearIndex(cell)] += delta;
  }

  /// Rule support of a cell: count / total records in the cube.
  double Support(const std::vector<ValueCode>& cell) const;

  /// Rule confidence of a cell (paper formula (1)): the cell count divided
  /// by the sum over all values of dimension `class_dim` with the other
  /// coordinates fixed. `class_dim` is usually the class dimension.
  double Confidence(const std::vector<ValueCode>& cell, int class_dim) const;

  /// Sum over all values of dimension `dim` with other coordinates fixed
  /// (the rule-body count when `dim` is the class dimension).
  int64_t MarginCount(const std::vector<ValueCode>& cell, int dim) const;

  /// OLAP slice: fixes dimension `dim` to `value` and removes it. The
  /// result has num_dims()-1 dimensions. Slicing the last dimension of a
  /// 1-D cube is invalid.
  Result<RuleCube> Slice(int dim, ValueCode value) const;

  /// OLAP dice: restricts dimension `dim` to `values` (codes into the
  /// dimension's current domain). The dimension keeps its position; its
  /// domain is re-coded to 0..values.size()-1 in the given order, and
  /// `label` maps each new code back to its original value, so a dice of
  /// a diced dimension composes.
  Result<RuleCube> Dice(int dim, const std::vector<ValueCode>& values) const;

  /// OLAP roll-up: removes dimension `dim` by summing it out.
  Result<RuleCube> Marginalize(int dim) const;

  /// Value label of `code` in dimension `d`, read from the shared schema
  /// (through the dice map when the dimension was diced).
  const std::string& label(int d, ValueCode code) const {
    const Dim& x = DimAt(d);
    return schema_->attribute(x.attr).label(
        x.codes.empty() ? code : x.codes[static_cast<size_t>(code)]);
  }

  /// Attribute name of dimension `d`, read from the shared schema.
  const std::string& dim_name(int d) const {
    return schema_->attribute(DimAt(d).attr).name();
  }

  /// Row-major stride of dimension `d` in cells (the last dimension has
  /// stride 1): cell codes dot strides = linear index. Exposed for the
  /// comparator's allocation-free fill loops, which walk pair-cube counts
  /// directly instead of materializing slices.
  int64_t dim_stride(int d) const { return DimAt(d).stride; }

  /// Raw mutable count storage, row-major with the last dimension fastest.
  /// Exposed for the bulk builder's hot loop; cell (i, j, k) of a 3-D cube
  /// lives at (i * dim_size(1) + j) * dim_size(2) + k. A view's mutable
  /// counts are its external array (see MakeView).
  int64_t* raw_counts() {
    return is_view() ? const_cast<int64_t*>(extern_counts_) : counts_.data();
  }
  const int64_t* raw_counts() const {
    return is_view() ? extern_counts_ : counts_.data();
  }

 private:
  struct Dim {
    int attr = 0;        // schema attribute index
    int size = 0;        // domain size
    int64_t stride = 0;  // row-major stride in cells
    // Diced dimensions only: code -> code in the attribute's domain.
    // Empty when the dimension spans the whole domain.
    std::vector<ValueCode> codes;
  };

  RuleCube() = default;

  const Dim& DimAt(int d) const { return shape_[static_cast<size_t>(d)]; }

  // Validates `dims` against `schema` and installs the schema and their
  // whole-domain shape, strides included (Make/MakeView). Returns the cell
  // count.
  Result<int64_t> InitShape(std::shared_ptr<const Schema> schema,
                            const std::vector<int>& dims);

  // The one shape routine: sets every stride row-major (last dimension
  // fastest) from the sizes in shape_ and returns the cell count.
  int64_t SetStrides();

  // A zeroed owning cube over this cube's schema with the given shape
  // (Slice/Dice/Marginalize).
  RuleCube Zeroed(std::vector<Dim> shape) const;

  size_t LinearIndex(const std::vector<ValueCode>& cell) const;

  std::shared_ptr<const Schema> schema_;    // names and labels
  std::vector<Dim> shape_;
  std::vector<int64_t> counts_;             // empty in view mode
  const int64_t* extern_counts_ = nullptr;  // view mode storage
  int64_t extern_cells_ = 0;
};

}  // namespace opmap

#endif  // OPMAP_CUBE_RULE_CUBE_H_
