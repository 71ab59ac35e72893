#pragma once
// grb::Vector — a GraphBLAS vector with the multi-representation design
// GraphBLAST/SuiteSparse use. "The GraphBLAS API hides the distinction
// between sparse vs. dense vectors ... but allows the implementation to
// internally call different subroutines based on input sparsity" (paper
// §III-A3).
//
// Representations:
//   - Sparse: strictly-ascending indices_ + parallel values_; positions not
//     listed hold no entry. Produced by set_element/build.
//   - Dense: every position holds an entry; values_ has size() elements.
//   - Bitmap: values_ has size() elements, present_ marks which positions
//     hold entries, nvals_ counts them. Produced by masked operations so the
//     merge step never pays an O(nvals) compaction.
// Conversions never change semantics (which positions hold entries and
// their values), except densify()'s documented fill.
//
// Buffers keep their capacity across representation changes and are grown
// without initialization: ops.hpp writes every result position into the
// vector's own buffers, so a vector reused round after round neither
// reallocates nor pays a host-side O(n) fill.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graphblas/types.hpp"

namespace gcol::grb {

enum class Storage { kSparse, kDense, kBitmap };

namespace detail {

/// std::allocator whose value-less construct() default-initializes, so
/// resize() over trivial elements leaves them uninitialized instead of
/// zero-filling on the host.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

template <typename T>
using Buffer = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace detail

template <typename T>
class Vector {
 public:
  Vector() = default;

  /// A vector of dimension `size` with no stored entries.
  explicit Vector(Index size) : size_(size < 0 ? 0 : size) {}

  [[nodiscard]] Index size() const noexcept { return size_; }

  [[nodiscard]] Storage storage() const noexcept { return storage_; }

  [[nodiscard]] bool is_dense() const noexcept {
    return storage_ == Storage::kDense;
  }
  [[nodiscard]] bool is_bitmap() const noexcept {
    return storage_ == Storage::kBitmap;
  }
  [[nodiscard]] bool is_sparse() const noexcept {
    return storage_ == Storage::kSparse;
  }

  /// Number of stored entries.
  [[nodiscard]] Index nvals() const noexcept {
    switch (storage_) {
      case Storage::kDense: return size_;
      case Storage::kBitmap: return nvals_;
      case Storage::kSparse: return static_cast<Index>(indices_.size());
    }
    return 0;
  }

  /// Removes all entries (result is an empty sparse vector).
  void clear() noexcept {
    storage_ = Storage::kSparse;
    values_.clear();
    indices_.clear();
    present_.clear();
    nvals_ = 0;
  }

  /// Makes every position hold `value` (dense).
  void fill(T value) {
    storage_ = Storage::kDense;
    indices_.clear();
    present_.clear();
    values_.assign(static_cast<std::size_t>(size_), value);
    nvals_ = size_;
  }

  /// Whether position `i` holds an entry. O(1) dense/bitmap, O(log) sparse.
  [[nodiscard]] bool has(Index i) const noexcept {
    switch (storage_) {
      case Storage::kDense: return true;
      case Storage::kBitmap:
        return present_[static_cast<std::size_t>(i)] != 0;
      case Storage::kSparse:
        return std::binary_search(indices_.begin(), indices_.end(), i);
    }
    return false;
  }

  /// Inserts or overwrites the entry at `i`.
  Info set_element(Index i, T value) {
    if (i < 0 || i >= size_) return Info::kIndexOutOfBounds;
    switch (storage_) {
      case Storage::kDense:
        values_[static_cast<std::size_t>(i)] = value;
        return Info::kSuccess;
      case Storage::kBitmap:
        if (present_[static_cast<std::size_t>(i)] == 0) {
          present_[static_cast<std::size_t>(i)] = 1;
          ++nvals_;
        }
        values_[static_cast<std::size_t>(i)] = value;
        return Info::kSuccess;
      case Storage::kSparse: break;
    }
    if (indices_.empty() || indices_.back() < i) {
      indices_.push_back(i);
      values_.push_back(value);
      return Info::kSuccess;
    }
    const auto pos = std::lower_bound(indices_.begin(), indices_.end(), i);
    const auto offset = pos - indices_.begin();
    if (pos != indices_.end() && *pos == i) {
      values_[static_cast<std::size_t>(offset)] = value;
    } else {
      indices_.insert(pos, i);
      values_.insert(values_.begin() + offset, value);
    }
    return Info::kSuccess;
  }

  /// Reads the entry at `i` into `*out`; kNoValue when no entry is stored.
  Info extract_element(T* out, Index i) const {
    if (i < 0 || i >= size_) return Info::kIndexOutOfBounds;
    switch (storage_) {
      case Storage::kDense:
        *out = values_[static_cast<std::size_t>(i)];
        return Info::kSuccess;
      case Storage::kBitmap:
        if (present_[static_cast<std::size_t>(i)] == 0) return Info::kNoValue;
        *out = values_[static_cast<std::size_t>(i)];
        return Info::kSuccess;
      case Storage::kSparse: break;
    }
    const auto pos = std::lower_bound(indices_.begin(), indices_.end(), i);
    if (pos == indices_.end() || *pos != i) return Info::kNoValue;
    *out = values_[static_cast<std::size_t>(pos - indices_.begin())];
    return Info::kSuccess;
  }

  /// Replaces contents with the given sparse entries (GrB_Vector_build).
  /// Indices need not be sorted; duplicates are an error.
  Info build(std::span<const Index> indices, std::span<const T> values) {
    if (indices.size() != values.size()) return Info::kDimensionMismatch;
    std::vector<std::size_t> order(indices.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return indices[a] < indices[b];
    });
    storage_ = Storage::kSparse;
    present_.clear();
    nvals_ = 0;
    indices_.resize(indices.size());
    values_.resize(values.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Index i = indices[order[k]];
      if (i < 0 || i >= size_) return Info::kIndexOutOfBounds;
      if (k > 0 && indices_[k - 1] == i) return Info::kInvalidValue;
      indices_[k] = i;
      values_[k] = values[order[k]];
    }
    return Info::kSuccess;
  }

  /// Converts to dense, giving previously-missing positions `missing_value`.
  void densify(T missing_value) {
    switch (storage_) {
      case Storage::kDense: return;
      case Storage::kBitmap: {
        for (std::size_t i = 0; i < present_.size(); ++i) {
          if (present_[i] == 0) values_[i] = missing_value;
        }
        present_.clear();
        storage_ = Storage::kDense;
        nvals_ = size_;
        return;
      }
      case Storage::kSparse: break;
    }
    detail::Buffer<T> dense_values(static_cast<std::size_t>(size_),
                                   missing_value);
    for (std::size_t k = 0; k < indices_.size(); ++k) {
      dense_values[static_cast<std::size_t>(indices_[k])] = values_[k];
    }
    values_ = std::move(dense_values);
    indices_.clear();
    storage_ = Storage::kDense;
    nvals_ = size_;
  }

  // -- raw representation access (for ops.hpp and tests) --------------------

  /// Dense values; valid for dense AND bitmap storage (bitmap values at
  /// non-present positions are unspecified).
  [[nodiscard]] std::span<T> dense_values() noexcept {
    assert(storage_ != Storage::kSparse);
    return values_;
  }
  [[nodiscard]] std::span<const T> dense_values() const noexcept {
    assert(storage_ != Storage::kSparse);
    return values_;
  }

  /// Bitmap presence flags; valid only for bitmap storage.
  [[nodiscard]] std::span<const std::uint8_t> bitmap_present() const noexcept {
    assert(storage_ == Storage::kBitmap);
    return present_;
  }

  /// Sparse indices/values; valid only for sparse storage.
  [[nodiscard]] std::span<const Index> sparse_indices() const noexcept {
    assert(storage_ == Storage::kSparse);
    return indices_;
  }
  [[nodiscard]] std::span<const T> sparse_values() const noexcept {
    assert(storage_ == Storage::kSparse);
    return values_;
  }

  /// Install representations wholesale (test and set-up helper; the
  /// contents are copied into the vector's own buffers). `indices` must be
  /// strictly ascending.
  void adopt_sparse(std::vector<Index>&& indices, std::vector<T>&& values) {
    assert(indices.size() == values.size());
    storage_ = Storage::kSparse;
    indices_ = std::move(indices);
    values_.assign(values.begin(), values.end());
    present_.clear();
    nvals_ = 0;
  }

  void adopt_dense(std::vector<T>&& values) {
    assert(static_cast<Index>(values.size()) == size_);
    storage_ = Storage::kDense;
    indices_.clear();
    present_.clear();
    values_.assign(values.begin(), values.end());
    nvals_ = size_;
  }

  void adopt_bitmap(std::vector<T>&& values,
                    std::vector<std::uint8_t>&& present, Index nvals) {
    assert(static_cast<Index>(values.size()) == size_);
    assert(static_cast<Index>(present.size()) == size_);
    storage_ = Storage::kBitmap;
    indices_.clear();
    values_.assign(values.begin(), values.end());
    present_.assign(present.begin(), present.end());
    nvals_ = nvals;
  }

  // -- in-place results (ops.hpp) -------------------------------------------

  /// The vector's own values (and, with `with_present`, presence) buffers
  /// sized to size() for an operation to write its result into. Growth is
  /// uninitialized and capacity is never released, so repeated operations
  /// on the same vector reuse one allocation. Dense and bitmap contents
  /// survive (an operation may read its old entries in place); a sparse
  /// vector's entries do not — snapshot them first. The vector is
  /// unusable until commit_output().
  struct OutputBuffers {
    std::span<T> values;
    std::span<std::uint8_t> present;
  };
  [[nodiscard]] OutputBuffers begin_output(bool with_present) {
    const auto n = static_cast<std::size_t>(size_);
    indices_.clear();
    values_.resize(n);
    if (!with_present) return {values_, {}};
    present_.resize(n);
    return {values_, present_};
  }

  /// Installs the result begin_output()'s buffers now hold, `nvals` entries
  /// in all: dense when every position holds one (presence bytes are then
  /// ignored), bitmap otherwise.
  void commit_output(Index nvals) noexcept {
    storage_ = nvals == size_ ? Storage::kDense : Storage::kBitmap;
    nvals_ = nvals;
  }

 private:
  Index size_ = 0;
  Storage storage_ = Storage::kSparse;
  detail::Buffer<T> values_;
  std::vector<Index> indices_;            // sparse only
  detail::Buffer<std::uint8_t> present_;  // bitmap only
  Index nvals_ = 0;                    // bitmap only
};

}  // namespace gcol::grb
