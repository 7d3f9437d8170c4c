#include "coding/rref.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "galois/gf256.h"
#include "galois/matrix.h"

namespace omnc::coding {
namespace {

std::vector<std::uint8_t> row_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> row;
  for (int v : values) row.push_back(static_cast<std::uint8_t>(v));
  return row;
}

/// Inserts a packed [coefficients | payload] row of row_bytes() bytes.
bool insert_row(RrefAccumulator& acc, const std::vector<std::uint8_t>& row) {
  EXPECT_EQ(row.size(), acc.row_bytes());
  return acc.insert(row.data(), acc.payload_bytes() > 0
                                    ? row.data() + acc.pivot_cols()
                                    : nullptr);
}

TEST(Rref, AcceptsIndependentRejectsDependent) {
  RrefAccumulator acc(3, 3);
  EXPECT_TRUE(insert_row(acc, row_of({1, 0, 0})));
  EXPECT_TRUE(insert_row(acc, row_of({0, 1, 0})));
  EXPECT_FALSE(insert_row(acc, row_of({1, 1, 0})));  // in the span
  EXPECT_EQ(acc.rank(), 2u);
  EXPECT_TRUE(insert_row(acc, row_of({5, 7, 9})));
  EXPECT_TRUE(acc.complete());
}

TEST(Rref, DuplicateRowRejected) {
  RrefAccumulator acc(4, 4);
  EXPECT_TRUE(insert_row(acc, row_of({2, 3, 4, 5})));
  EXPECT_FALSE(insert_row(acc, row_of({2, 3, 4, 5})));
  // A scalar multiple is also dependent.
  std::vector<std::uint8_t> scaled(4);
  const auto base = row_of({2, 3, 4, 5});
  for (int i = 0; i < 4; ++i) scaled[i] = gf::mul(base[i], 0x3D);
  EXPECT_FALSE(insert_row(acc, scaled));
}

TEST(Rref, ZeroRowRejected) {
  RrefAccumulator acc(3, 3);
  EXPECT_FALSE(insert_row(acc, row_of({0, 0, 0})));
  EXPECT_EQ(acc.rank(), 0u);
}

TEST(Rref, MaintainsReducedForm) {
  // After inserting enough rows, every basis row must have a unit pivot and
  // zeros in every other pivot column.
  Rng rng(3);
  RrefAccumulator acc(8, 8);
  while (!acc.complete()) {
    std::vector<std::uint8_t> row(8);
    for (auto& b : row) b = rng.next_byte();
    insert_row(acc, row);
  }
  for (std::size_t pivot = 0; pivot < 8; ++pivot) {
    const std::uint8_t* row = acc.coefficients_for_pivot(pivot);
    ASSERT_NE(row, nullptr);
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(row[c], c == pivot ? 1 : 0);
    }
  }
}

TEST(Rref, PayloadFollowsRowOperations) {
  // Rows carry [coefficients | payload]; when complete, materialize_into
  // must write the i-th original block at pivot i.  The output buffer's
  // prior contents must not leak into the result, and reading does not
  // disturb the basis: two reads into a garbage-filled buffer agree.
  Rng rng(4);
  const gf::Matrix blocks = gf::Matrix::random(5, 13, rng);
  RrefAccumulator acc(5, 5 + 13);
  EXPECT_EQ(acc.payload_bytes(), 13u);
  while (!acc.complete()) {
    // Build a random combination with its payload.
    std::vector<std::uint8_t> row(18, 0);
    for (std::size_t b = 0; b < 5; ++b) {
      const std::uint8_t c = rng.next_byte();
      row[b] = c;
      for (std::size_t k = 0; k < 13; ++k) {
        row[5 + k] = gf::add(row[5 + k], gf::mul(c, blocks.at(b, k)));
      }
    }
    insert_row(acc, row);
  }
  for (int read = 0; read < 2; ++read) {
    std::vector<std::uint8_t> out(5 * 13, 0xA5);
    acc.materialize_into(out.data());
    for (std::size_t b = 0; b < 5; ++b) {
      for (std::size_t k = 0; k < 13; ++k) {
        EXPECT_EQ(out[b * 13 + k], blocks.at(b, k)) << "read " << read;
      }
    }
  }
}

TEST(Rref, CoefficientOnlyAccumulatorHasNoPayload) {
  RrefAccumulator acc(3, 3);  // the relay innovation-filter shape
  EXPECT_EQ(acc.payload_bytes(), 0u);
  ASSERT_TRUE(acc.insert(row_of({1, 2, 3}).data(), nullptr));
  EXPECT_EQ(acc.rank(), 1u);
  EXPECT_NE(acc.coefficients_for_pivot(0), nullptr);
}

TEST(Rref, InsertAfterCompleteIsRejected) {
  Rng rng(31);
  RrefAccumulator acc(4, 4);
  while (!acc.complete()) {
    std::vector<std::uint8_t> row(4);
    for (auto& b : row) b = rng.next_byte();
    insert_row(acc, row);
  }
  std::vector<std::uint8_t> extra(4);
  for (auto& b : extra) b = rng.next_byte();
  EXPECT_FALSE(insert_row(acc, extra));
  EXPECT_EQ(acc.rank(), 4u);
}

TEST(Rref, ClearResetsState) {
  RrefAccumulator acc(2, 2);
  ASSERT_TRUE(insert_row(acc, row_of({1, 1})));
  acc.clear();
  EXPECT_EQ(acc.rank(), 0u);
  EXPECT_EQ(acc.coefficients_for_pivot(0), nullptr);
  EXPECT_TRUE(insert_row(acc, row_of({1, 1})));  // accepted again after clear
}

TEST(Rref, ClearResetsPayloadArenas) {
  // A payload inserted before clear() must not surface in the next
  // generation's decode.
  RrefAccumulator acc(3, 3 + 5);
  ASSERT_TRUE(insert_row(acc, {1, 0, 0, 9, 8, 7, 6, 5}));
  acc.clear();
  EXPECT_EQ(acc.rank(), 0u);
  ASSERT_TRUE(insert_row(acc, {1, 0, 0, 1, 2, 3, 4, 5}));
  ASSERT_TRUE(insert_row(acc, {0, 1, 0, 6, 7, 8, 9, 10}));
  ASSERT_TRUE(insert_row(acc, {0, 0, 1, 11, 12, 13, 14, 15}));
  std::vector<std::uint8_t> out(3 * 5);
  acc.materialize_into(out.data());
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                            11, 12, 13, 14, 15}));
}

TEST(Rref, RankNeverExceedsPivotColumns) {
  Rng rng(9);
  RrefAccumulator acc(4, 4);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> row(4);
    for (auto& b : row) b = rng.next_byte();
    insert_row(acc, row);
    EXPECT_LE(acc.rank(), 4u);
  }
  EXPECT_TRUE(acc.complete());
}

}  // namespace
}  // namespace omnc::coding
