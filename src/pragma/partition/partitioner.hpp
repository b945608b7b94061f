// The SAMR partitioner suite (Section 4.4).
//
// "Available partitioners include Space-Filling Curve based Partitioner
//  (SFC), Variable Grain Geometric Multilevel Inverse Space-Filling Curve
//  Partitioner (G-MISP), [G-MISP] with Sequence Partitioning (G-MISP+SP),
//  p-Way Binary Dissection Inverse Space-Filling Curve Partitioner
//  (pBD-ISP), and Pure Sequence Partitioner with Inverse Space-Filling
//  Curve (SP-ISP)."  Table 2 additionally lists plain ISP.
//
// All are domain-based: they divide the level-0 footprint (as a WorkGrid of
// grain cells) among processors; refined levels follow their footprint.
// Every partitioner accepts per-processor target fractions, which is how
// the system-sensitive (capacity-weighted) mode of Fig. 4 is realized.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pragma/partition/splitters.hpp"
#include "pragma/partition/workgrid.hpp"

namespace pragma::partition {

/// owner[c] = processor assigned to grain cell c (linear index).
struct OwnerMap {
  std::vector<int> owner;
  int nprocs = 0;
  [[nodiscard]] std::size_t size() const { return owner.size(); }
};

struct PartitionResult {
  OwnerMap owners;
  std::string partitioner;
  /// Wall-clock seconds spent inside the partitioning algorithm.
  double partition_seconds = 0.0;
  /// Number of contiguous SFC chunks produced (fragmentation proxy).
  std::size_t chunk_count = 0;
  /// Number of variable-grain blocks considered (G-MISP family), or grain
  /// cells for flat partitioners.
  std::size_t unit_count = 0;
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  /// Partition `grid` so processor i receives ~targets[i] of the work.
  [[nodiscard]] virtual PartitionResult partition(
      const WorkGrid& grid, std::span<const double> targets) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// The curve this partitioner orders the domain with.
  [[nodiscard]] virtual CurveKind curve() const { return CurveKind::kHilbert; }
  /// The grain (level-0 cells per grain-cell edge) this partitioner is
  /// designed for: the plain SFC partitioner works at patch-like coarse
  /// granularity, the ISP family at fine granularity.  Callers should build
  /// the WorkGrid with this grain.
  [[nodiscard]] virtual int preferred_grain() const { return 2; }
};

/// Plain SFC partitioner: Morton order, greedy chunking (Table 4 "SFC").
class SfcPartitioner final : public Partitioner {
 public:
  [[nodiscard]] PartitionResult partition(
      const WorkGrid& grid, std::span<const double> targets) const override;
  [[nodiscard]] std::string name() const override { return "SFC"; }
  [[nodiscard]] CurveKind curve() const override { return CurveKind::kMorton; }
  [[nodiscard]] int preferred_grain() const override { return 4; }
};

/// ISP: Hilbert order at fixed fine grain, greedy chunking.
class IspPartitioner final : public Partitioner {
 public:
  [[nodiscard]] PartitionResult partition(
      const WorkGrid& grid, std::span<const double> targets) const override;
  [[nodiscard]] std::string name() const override { return "ISP"; }
};

/// G-MISP: variable-grain multilevel blocks over the Hilbert order, greedy
/// chunking of the block sequence.
class GMispPartitioner : public Partitioner {
 public:
  [[nodiscard]] PartitionResult partition(
      const WorkGrid& grid, std::span<const double> targets) const override;
  [[nodiscard]] std::string name() const override { return "G-MISP"; }

 protected:
  /// Build the variable-grain block sequence: SFC-aligned runs of grain
  /// cells; heavy runs recursively split 8-way.  Returns run lengths.
  [[nodiscard]] std::vector<std::size_t> build_blocks(
      const WorkGrid& grid, std::span<const double> targets) const;
  [[nodiscard]] virtual Breaks split_blocks(
      std::span<const double> block_weights,
      std::span<const double> targets) const;
};

/// G-MISP+SP: G-MISP blocks, optimal sequence partitioning of the block
/// sequence.
class GMispSpPartitioner final : public GMispPartitioner {
 public:
  [[nodiscard]] std::string name() const override { return "G-MISP+SP"; }

 protected:
  [[nodiscard]] Breaks split_blocks(
      std::span<const double> block_weights,
      std::span<const double> targets) const override;
};

/// pBD-ISP: p-way recursive binary dissection of the Hilbert sequence.
class PBdIspPartitioner final : public Partitioner {
 public:
  [[nodiscard]] PartitionResult partition(
      const WorkGrid& grid, std::span<const double> targets) const override;
  [[nodiscard]] std::string name() const override { return "pBD-ISP"; }
  /// pBD-ISP dissects coarse contiguous runs — its strength is speed and
  /// low communication/migration, not fine balance.
  [[nodiscard]] int preferred_grain() const override { return 4; }
};

/// SP-ISP: optimal sequence partitioning at the finest grain.
class SpIspPartitioner final : public Partitioner {
 public:
  [[nodiscard]] PartitionResult partition(
      const WorkGrid& grid, std::span<const double> targets) const override;
  [[nodiscard]] std::string name() const override { return "SP-ISP"; }
};

/// All partitioners of the suite, keyed by name.
[[nodiscard]] std::vector<std::unique_ptr<Partitioner>> standard_suite();

/// Look up a partitioner by name in a freshly built suite ("SFC", "ISP",
/// "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP"); throws on unknown names.
[[nodiscard]] std::unique_ptr<Partitioner> make_partitioner(
    const std::string& name);

}  // namespace pragma::partition
