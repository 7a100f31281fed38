#ifndef RDFA_SPARQL_BINDING_TABLE_H_
#define RDFA_SPARQL_BINDING_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "rdf/term_table.h"

namespace rdfa::sparql {

/// A read-only view of one solution row: slot -> TermId, kNoTermId unbound.
using RowView = std::span<const rdf::TermId>;

/// The solution rows of one query evaluation, stored as one contiguous
/// array: row r is the `width()` TermIds starting at r * width(). The width
/// is the query's slot count, fixed up front (see PatternWidth), so every
/// row of a query has room for every variable and no row is ever widened.
///
/// Rows are only appended (as a copy of a parent row, then written to its
/// unbound slots) or removed by Retain, which compacts in place and keeps
/// the survivors' relative order. Neither operation reorders rows, so
/// anything that depends on row order — a merge join's sorted input, a hash
/// probe's input order, the first row of a group — survives both.
class BindingTable {
 public:
  explicit BindingTable(size_t width = 0) : width_(width) {}

  /// A one-row table holding a copy of `row`.
  static BindingTable Of(RowView row) {
    BindingTable t(row.size());
    t.Append(row);
    return t;
  }

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  RowView operator[](size_t r) const {
    return {data_.data() + r * width_, width_};
  }
  std::span<rdf::TermId> operator[](size_t r) {
    return {data_.data() + r * width_, width_};
  }

  void reserve(size_t rows) { data_.reserve(rows * width_); }
  void Clear() {
    data_.clear();
    rows_ = 0;
  }

  /// Appends a copy of `row`, which must not point into this table (an
  /// append may reallocate), and returns the new row for writing.
  std::span<rdf::TermId> Append(RowView row) {
    assert(row.size() == width_);
    data_.insert(data_.end(), row.begin(), row.end());
    return (*this)[rows_++];
  }
  /// Appends an all-unbound row.
  void AppendUnbound() {
    data_.resize(data_.size() + width_, rdf::kNoTermId);
    ++rows_;
  }
  /// Drops the last row (an extension that turned out to conflict).
  void PopBack() {
    data_.resize(data_.size() - width_);
    --rows_;
  }
  /// Appends every row of `other` (same width), in order.
  void Append(const BindingTable& other) {
    assert(other.width_ == width_);
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    rows_ += other.rows_;
  }

  /// Keeps the rows for which `keep(RowView)` is true, in their original
  /// order (a stable in-place compaction).
  template <typename Keep>
  void Retain(Keep&& keep) {
    size_t kept = 0;
    for (size_t r = 0; r < rows_; ++r) {
      if (!keep((*this)[r])) continue;
      if (kept != r) {
        std::copy_n(data_.data() + r * width_, width_,
                    data_.data() + kept * width_);
      }
      ++kept;
    }
    rows_ = kept;
    data_.resize(kept * width_);
  }

 private:
  size_t width_;
  size_t rows_ = 0;
  std::vector<rdf::TermId> data_;
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_BINDING_TABLE_H_
