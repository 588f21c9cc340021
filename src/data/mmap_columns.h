#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/workload.h"

namespace humo::data {

/// Binary columnar workload file — the out-of-core storage of the
/// 10M-100M-pair regime. Layout (little-endian, offsets in bytes):
///
///   [0, 8)    magic "HUMOCOL1"
///   [8, 16)   uint64 num_pairs (n)
///   64        double  similarities[n]   (ascending; PairLess order)
///   align 64  uint32  left_ids[n]
///   align 64  uint32  right_ids[n]
///   align 64  uint8   labels[n]
///
/// Every column starts on a 64-byte boundary so mapped pointers are
/// cache-line (and SIMD) aligned. Pairs must be in PairLess order — the
/// file IS a sorted workload, and Workload::FromMmap serves reads straight
/// from the mapping without copying or re-sorting.
inline constexpr char kColumnsMagic[8] = {'H', 'U', 'M', 'O',
                                          'C', 'O', 'L', '1'};

/// Read-only memory-mapped view of a columnar workload file. Owns the file
/// descriptor and mapping (RAII); shared by every Workload created from it
/// through shared_ptr, so views never dangle. Resident memory is whatever
/// the kernel chooses to cache — the point of the out-of-core path is that
/// a 10M-pair workload (~170 MB of columns) can be resolved under a RAM
/// budget far below its file size.
class MmapColumns {
 public:
  /// Maps `path`. With `verify_sorted`, additionally scans the similarity
  /// and id columns and fails on any PairLess inversion (one sequential
  /// pass — pages the whole file in; meant for tests and debugging).
  /// The file is checked here only: it must not be truncated or rewritten
  /// in place while mapped, or a later column read that touches a page
  /// past the new end dies with SIGBUS instead of returning an error.
  /// Replace a columns file by writing a new one and renaming it over the
  /// old path; an existing mapping keeps the old inode.
  static Result<std::shared_ptr<MmapColumns>> Open(const std::string& path,
                                                   bool verify_sorted = false);

  ~MmapColumns();
  MmapColumns(const MmapColumns&) = delete;
  MmapColumns& operator=(const MmapColumns&) = delete;

  size_t num_pairs() const { return num_pairs_; }
  const double* similarities() const { return sims_; }
  const uint32_t* left_ids() const { return lefts_; }
  const uint32_t* right_ids() const { return rights_; }
  const uint8_t* labels() const { return labels_; }

  /// Total bytes mapped (the file size).
  size_t MappedBytes() const { return map_size_; }

  /// madvise hints for the whole mapping: streaming scans want aggressive
  /// readahead, partition/oracle access wants none.
  void AdviseSequential() const;
  void AdviseRandom() const;

 private:
  MmapColumns() = default;

  void* map_ = nullptr;
  size_t map_size_ = 0;
  size_t num_pairs_ = 0;
  const double* sims_ = nullptr;
  const uint32_t* lefts_ = nullptr;
  const uint32_t* rights_ = nullptr;
  const uint8_t* labels_ = nullptr;
};

/// Writes an already-sorted in-RAM workload as a columnar file. The small
/// end of the persistence path (and the golden reference the external
/// writer is tested against); use ExternalColumnsWriter when the workload
/// does not fit in RAM.
Status WriteColumnsFile(const Workload& workload, const std::string& path);

/// Out-of-core builder of a sorted columnar file from UNSORTED column
/// chunks — a textbook external merge sort with the library's own radix
/// sort as the run formatter:
///
///   Append(...)   buffers pairs; every `run_pairs` pairs the buffer is
///                 radix-sorted (Workload::FromColumns) and spilled as a
///                 sorted row-major run file.
///   Finish()      k-way heap-merges the runs under PairLess, streaming
///                 the final columnar file through fixed-size per-column
///                 buffers, then deletes the runs.
///
/// Peak RAM is run_pairs * 17 bytes of buffered columns (plus the sort's
/// transient permutation) regardless of total size — the knob that lets a
/// 10M-pair workload be built under a fixed budget. Because PairLess is a
/// total order on distinct pairs, the merged file is bit-identical to
/// WriteColumnsFile of the fully-in-RAM sort of the same pairs.
class ExternalColumnsWriter {
 public:
  /// `path` is the final file; run files are `path.runN` (same directory,
  /// removed by Finish).
  ExternalColumnsWriter(std::string path, size_t run_pairs);
  ~ExternalColumnsWriter();
  ExternalColumnsWriter(const ExternalColumnsWriter&) = delete;
  ExternalColumnsWriter& operator=(const ExternalColumnsWriter&) = delete;

  /// Buffers `n` pairs given as parallel columns (any order).
  Status Append(const double* sims, const uint32_t* lefts,
                const uint32_t* rights, const uint8_t* labels, size_t n);

  /// Sorts/merges everything appended into the final file and returns the
  /// total pair count. The writer is unusable afterwards.
  Result<size_t> Finish();

 private:
  Status SpillRun();

  std::string path_;
  size_t run_pairs_;
  size_t total_pairs_ = 0;
  bool finished_ = false;
  std::vector<double> sims_;
  std::vector<uint32_t> lefts_, rights_;
  std::vector<uint8_t> labels_;
  std::vector<std::string> run_files_;
};

}  // namespace humo::data
