// Per-rank distributed context: grid coordinates, layout math, and the
// row/column sub-communicators that Algorithm 1 broadcasts over.
#pragma once

#include "core/config.h"
#include "grid/block_cyclic.h"
#include "grid/process_grid.h"
#include "simmpi/comm.h"

namespace hplmxp {

/// Everything a rank needs to know about "where it is" in the run.
class DistContext {
 public:
  DistContext(simmpi::Comm world, const HplaiConfig& config)
      : world_(world),
        grid_(config.gridOrder == GridOrder::kNodeLocal
                  ? ProcessGrid::nodeLocal(config.pr, config.pc, config.qr,
                                           config.qc)
                  : ProcessGrid::columnMajor(config.pr, config.pc,
                                             config.gcdsPerNode)),
        layout_(config.n, config.b, config.pr, config.pc),
        coord_(grid_.coordOf(world.rank())) {
    HPLMXP_REQUIRE(world.size() == config.worldSize(),
                   "world size must equal Pr*Pc");
    // Row communicator: all ranks in my grid row, ordered by column; rank
    // index within it equals my grid column (and vice versa for columns).
    rowComm_ = world_.split(coord_.row, coord_.col);
    colComm_ = world_.split(grid_.rows() + coord_.col, coord_.row);
    HPLMXP_CHECK(rowComm_.size() == grid_.cols());
    HPLMXP_CHECK(colComm_.size() == grid_.rows());
    HPLMXP_CHECK(rowComm_.rank() == coord_.col);
    HPLMXP_CHECK(colComm_.rank() == coord_.row);
  }

  [[nodiscard]] simmpi::Comm& world() { return world_; }
  [[nodiscard]] simmpi::Comm& rowComm() { return rowComm_; }
  [[nodiscard]] simmpi::Comm& colComm() { return colComm_; }

  [[nodiscard]] const ProcessGrid& grid() const { return grid_; }
  [[nodiscard]] const BlockCyclic& layout() const { return layout_; }

  [[nodiscard]] index_t myRow() const { return coord_.row; }
  [[nodiscard]] index_t myCol() const { return coord_.col; }
  [[nodiscard]] index_t rank() const { return world_.rank(); }

  /// World rank of grid coordinate (r, c).
  [[nodiscard]] index_t rankAt(index_t r, index_t c) const {
    return grid_.rankOf(r, c);
  }

  /// Local matrix extents for this rank.
  [[nodiscard]] index_t localRows() const {
    return layout_.localRows(coord_.row);
  }
  [[nodiscard]] index_t localCols() const {
    return layout_.localCols(coord_.col);
  }

  /// Calls fn(gi, gj, li, lj) for every block this rank owns — global
  /// block (gi, gj), local block (li, lj) — block columns outer, rows
  /// inner.
  template <typename Fn>
  void forEachOwnedBlock(Fn&& fn) const {
    const index_t lbr = layout_.localBlockRows(coord_.row);
    const index_t lbc = layout_.localBlockCols(coord_.col);
    for (index_t lj = 0; lj < lbc; ++lj) {
      const index_t gj = layout_.globalBlockCol(coord_.col, lj);
      for (index_t li = 0; li < lbr; ++li) {
        fn(layout_.globalBlockRow(coord_.row, li), gj, li, lj);
      }
    }
  }

 private:
  simmpi::Comm world_;
  ProcessGrid grid_;
  BlockCyclic layout_;
  GridCoord coord_;
  simmpi::Comm rowComm_;
  simmpi::Comm colComm_;
};

}  // namespace hplmxp
