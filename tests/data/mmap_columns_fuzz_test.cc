#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "data/mmap_columns.h"
#include "data/scale_generator.h"
#include "data/workload.h"

namespace humo::data {
namespace {

/// Deterministic mutation fuzzing of MmapColumns::Open: a small valid
/// columns file is truncated at every offset, has every header byte
/// flipped, has its pair count replaced by lying values (including counts
/// whose column offsets wrap modulo 2^64 onto the real file size), and is
/// padded with trailing bytes. Every mutant must either be rejected or map
/// to columns that lie inside the file, in order, and survive a full
/// Workload::FromMmap scan (run under ASan/UBSan in CI).

constexpr size_t kHeaderBytes = 64;
constexpr size_t kCountOffset = 8;

uint64_t Align64(uint64_t x) { return (x + 63) & ~uint64_t{63}; }

/// The file size LayoutFor gives an n-pair file, in wrapping 64-bit
/// arithmetic (the on-disk layout of mmap_columns.h).
uint64_t WrappedFileSize(uint64_t n) {
  const uint64_t lefts = Align64(kHeaderBytes + n * sizeof(double));
  const uint64_t rights = Align64(lefts + n * sizeof(uint32_t));
  const uint64_t labels = Align64(rights + n * sizeof(uint32_t));
  return labels + n * sizeof(uint8_t);
}

/// Multiplicative inverse of an odd number modulo 2^64 (Newton iteration;
/// each step doubles the number of correct low bits).
uint64_t InverseMod2To64(uint64_t odd) {
  uint64_t x = odd;
  for (int i = 0; i < 6; ++i) x *= 2 - odd * x;
  return x;
}

/// Every count other than the honest one whose wrapped layout lands on
/// exactly `file_size`. The layout is 17 n + 64 + padding with padding in
/// [0, 3 * 63], so each candidate padding yields one candidate count.
std::vector<uint64_t> WrappingCounts(uint64_t file_size) {
  const uint64_t inv17 = InverseMod2To64(17);
  std::vector<uint64_t> counts;
  for (uint64_t pad = 0; pad <= 3 * 63; ++pad) {
    const uint64_t n = inv17 * (file_size - kHeaderBytes - pad);
    if (WrappedFileSize(n) != file_size) continue;
    if (n <= (file_size - kHeaderBytes) / 17) continue;  // fits honestly
    if (std::find(counts.begin(), counts.end(), n) == counts.end())
      counts.push_back(n);
  }
  return counts;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const char* data, size_t size) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(data, static_cast<std::streamsize>(size));
}

void SetCount(std::vector<char>* bytes, uint64_t n) {
  std::memcpy(bytes->data() + kCountOffset, &n, sizeof(n));
}

/// An accepted mapping must place every column inside the mapped bytes, in
/// file order, and read back end to end through Workload::FromMmap.
void ExpectInBounds(const std::shared_ptr<MmapColumns>& cols) {
  const size_t n = cols->num_pairs();
  // Offsets from the start of the mapping, which the header precedes.
  const auto* base =
      reinterpret_cast<const unsigned char*>(cols->similarities()) -
      kHeaderBytes;
  const auto offset = [base](const void* p) {
    return static_cast<size_t>(static_cast<const unsigned char*>(p) - base);
  };
  EXPECT_LE(offset(cols->similarities()) + n * sizeof(double),
            offset(cols->left_ids()));
  EXPECT_LE(offset(cols->left_ids()) + n * sizeof(uint32_t),
            offset(cols->right_ids()));
  EXPECT_LE(offset(cols->right_ids()) + n * sizeof(uint32_t),
            offset(cols->labels()));
  const size_t labels_end = offset(cols->labels()) + n * sizeof(uint8_t);
  ASSERT_LE(labels_end, cols->MappedBytes());  // never read past the file

  const Workload w = Workload::FromMmap(cols);
  ASSERT_EQ(w.size(), n);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(w.Similarity(i), cols->similarities()[i]);
    EXPECT_EQ(w[i].left_id, cols->left_ids()[i]);
    EXPECT_EQ(w[i].right_id, cols->right_ids()[i]);
    matches += w.IsMatch(i) ? 1 : 0;
  }
  EXPECT_EQ(w.CountMatches(), matches);
}

/// Opens `path` plainly and with verify_sorted. A rejection is fine; every
/// accepted mapping must pass ExpectInBounds. Returns whether the plain
/// Open accepted the file.
bool OpenRejectedOrInBounds(const std::string& path, const std::string& what) {
  SCOPED_TRACE(what);
  auto verified = MmapColumns::Open(path, /*verify_sorted=*/true);
  if (verified.ok()) ExpectInBounds(*verified);
  auto plain = MmapColumns::Open(path);
  if (!plain.ok()) return false;
  ExpectInBounds(*plain);
  return true;
}

class MmapColumnsFuzzTest : public testing::Test {
 protected:
  void SetUp() override {
    ScaleWorkloadConfig config;
    config.num_pairs = kPairs;
    config.seed = 5;
    const Workload w = GenerateScaleWorkload(config);
    // Per-test names: ctest runs each test in its own process, and
    // rewriting a file another process has mapped would fault that reader.
    const std::string test =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    valid_path_ = TempPath("fuzz_valid_" + test + ".humocol");
    mutant_path_ = TempPath("fuzz_mutant_" + test + ".humocol");
    ASSERT_TRUE(WriteColumnsFile(w, valid_path_).ok());
    valid_ = ReadBytes(valid_path_);
    ASSERT_EQ(valid_.size(), WrappedFileSize(kPairs));
    ASSERT_TRUE(MmapColumns::Open(valid_path_, /*verify_sorted=*/true).ok());
  }

  void TearDown() override {
    std::remove(valid_path_.c_str());
    std::remove(mutant_path_.c_str());
  }

  /// Writes `bytes` as the mutant file and checks it.
  bool Check(const std::vector<char>& bytes, const std::string& what) {
    WriteBytes(mutant_path_, bytes.data(), bytes.size());
    return OpenRejectedOrInBounds(mutant_path_, what);
  }

  static constexpr size_t kPairs = 100;
  std::string valid_path_, mutant_path_;
  std::vector<char> valid_;
};

TEST_F(MmapColumnsFuzzTest, TruncationAtEveryOffsetIsRejected) {
  for (size_t size = 0; size < valid_.size(); ++size) {
    WriteBytes(mutant_path_, valid_.data(), size);
    EXPECT_FALSE(OpenRejectedOrInBounds(
        mutant_path_, "truncated to " + std::to_string(size)));
  }
}

TEST_F(MmapColumnsFuzzTest, TrailingBytesAreRejected) {
  for (size_t extra = 1; extra <= 128; ++extra) {
    std::vector<char> bytes = valid_;
    bytes.resize(valid_.size() + extra, '\x5a');
    EXPECT_FALSE(Check(bytes, "padded by " + std::to_string(extra)));
  }
}

TEST_F(MmapColumnsFuzzTest, HeaderByteFlipsRejectedOrInBounds) {
  for (size_t byte = 0; byte < kHeaderBytes; ++byte) {
    for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
      std::vector<char> bytes = valid_;
      bytes[byte] = static_cast<char>(bytes[byte] ^ mask);
      const bool accepted =
          Check(bytes, "byte " + std::to_string(byte) + " ^ " +
                           std::to_string(mask));
      // Magic and count are checked; only the reserved tail of the header
      // is free.
      EXPECT_EQ(accepted, byte >= kCountOffset + sizeof(uint64_t))
          << "byte " << byte << " mask " << mask;
    }
  }
}

TEST_F(MmapColumnsFuzzTest, LyingCountsRejected) {
  const std::vector<uint64_t> counts = {kPairs - 1,
                                        kPairs + 1,
                                        0,
                                        UINT64_MAX,
                                        UINT64_MAX / 17,
                                        uint64_t{1} << 61,
                                        uint64_t{1} << 63,
                                        (uint64_t{1} << 60) + kPairs};
  for (const uint64_t n : counts) {
    std::vector<char> bytes = valid_;
    SetCount(&bytes, n);
    EXPECT_FALSE(Check(bytes, "count " + std::to_string(n)));
  }
}

TEST_F(MmapColumnsFuzzTest, CountsThatWrapTheLayoutAreRejected) {
  // The valid file grown by 0..255 trailing bytes: most of those sizes are
  // the wrapped layout of some huge count.
  size_t wrapping_cases = 0;
  for (size_t extra = 0; extra < 256; ++extra) {
    std::vector<char> bytes = valid_;
    bytes.resize(valid_.size() + extra, '\0');
    for (const uint64_t n : WrappingCounts(bytes.size())) {
      ASSERT_EQ(WrappedFileSize(n), bytes.size());
      SetCount(&bytes, n);
      EXPECT_FALSE(Check(bytes, "size " + std::to_string(bytes.size()) +
                                    " count " + std::to_string(n)));
      ++wrapping_cases;
    }
  }
  EXPECT_GT(wrapping_cases, 100u);
}

}  // namespace
}  // namespace humo::data
