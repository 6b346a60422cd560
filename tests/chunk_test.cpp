// Stage 1 of FZF: chunk-set computation. The centrepiece is an exact
// reproduction of the paper's Figure 3: eight forward zones and seven
// backward zones arranged so that Stage 1 finds precisely the three
// maximal chunks {FZ1, BZ1}, {FZ2, FZ3, FZ4, BZ3, BZ4},
// {FZ5, FZ6, FZ7, FZ8, BZ6}, with BZ2, BZ5 and BZ7 dangling.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "core/fzf.h"
#include "history/anomaly.h"
#include "history/cluster.h"
#include "history/history.h"

namespace kav {
namespace {

// Emits a two-operation cluster whose zone is the forward interval
// [10*l, 10*h]: the write finishes at 10*l, the read starts at 10*h.
OpId emit_forward(HistoryBuilder& b, TimePoint l, TimePoint h, Value v) {
  const OpId w = b.write(10 * l - 40, 10 * l, v);
  b.read(10 * h, 10 * h + 40, v);
  return w;
}

// Emits a cluster whose zone is the backward interval
// [10*a + 1, 10*b + 1] (odd stamps, so they never collide with the
// forward clusters' multiples of ten): every operation of the cluster
// contains that interval.
OpId emit_backward(HistoryBuilder& b, TimePoint a, TimePoint bb, Value v) {
  const OpId w = b.write(10 * a - 19, 10 * bb + 11, v);
  b.read(10 * a + 1, 10 * bb + 1, v);
  return w;
}

struct Figure3 {
  History history;
  OpId fz[9];  // 1-based: fz[1] = FZ1's write...
  OpId bz[8];
};

Figure3 build_figure3() {
  Figure3 fig;
  HistoryBuilder b;
  Value v = 1;
  fig.fz[1] = emit_forward(b, 0, 10, v++);
  fig.bz[1] = emit_backward(b, 2, 5, v++);
  fig.bz[2] = emit_backward(b, 12, 16, v++);
  fig.fz[2] = emit_forward(b, 20, 30, v++);
  fig.fz[3] = emit_forward(b, 27, 40, v++);
  fig.fz[4] = emit_forward(b, 37, 50, v++);
  fig.bz[3] = emit_backward(b, 22, 26, v++);
  fig.bz[4] = emit_backward(b, 42, 47, v++);
  fig.bz[5] = emit_backward(b, 52, 56, v++);
  fig.fz[5] = emit_forward(b, 60, 85, v++);
  fig.fz[6] = emit_forward(b, 62, 70, v++);
  fig.fz[7] = emit_forward(b, 82, 90, v++);
  fig.fz[8] = emit_forward(b, 88, 100, v++);
  fig.bz[6] = emit_backward(b, 75, 78, v++);
  fig.bz[7] = emit_backward(b, 103, 107, v++);
  fig.history = b.build();
  return fig;
}

std::set<OpId> to_set(std::span<const OpId> v) {
  return {v.begin(), v.end()};
}

std::vector<OpId> to_vector(std::span<const OpId> v) {
  return {v.begin(), v.end()};
}

ChunkPartition chunks_of(const History& history) {
  ChunkPartition partition;
  partition_chunks(compute_zones(history), partition);
  return partition;
}

// Every field, so a refill that leaves a stale offset or entry shows.
void expect_same_partition(const ChunkPartition& got,
                           const ChunkPartition& want) {
  EXPECT_EQ(got.extents, want.extents);
  EXPECT_EQ(got.forward_begin, want.forward_begin);
  EXPECT_EQ(got.forward_writes, want.forward_writes);
  EXPECT_EQ(got.backward_begin, want.backward_begin);
  EXPECT_EQ(got.backward_writes, want.backward_writes);
  EXPECT_EQ(got.dangling_writes, want.dangling_writes);
  EXPECT_EQ(got.dangling_lows, want.dangling_lows);
}

Zone forward_zone(OpId tag, TimePoint low, TimePoint high) {
  return Zone{tag, low, high, true};  // Z.f = low < Z.s_bar = high
}

Zone backward_zone(OpId tag, TimePoint low, TimePoint high) {
  return Zone{tag, high, low, false};  // Z.s_bar = low <= Z.f = high
}

TEST(ChunkSet, Figure3Reproduction) {
  const Figure3 fig = build_figure3();
  const ChunkPartition cs = chunks_of(fig.history);

  ASSERT_EQ(cs.chunk_count(), 3u);

  EXPECT_EQ(to_set(cs.forward(0)),
            (std::set<OpId>{fig.fz[1]}));
  EXPECT_EQ(to_set(cs.backward(0)),
            (std::set<OpId>{fig.bz[1]}));

  EXPECT_EQ(to_set(cs.forward(1)),
            (std::set<OpId>{fig.fz[2], fig.fz[3], fig.fz[4]}));
  EXPECT_EQ(to_set(cs.backward(1)),
            (std::set<OpId>{fig.bz[3], fig.bz[4]}));

  EXPECT_EQ(to_set(cs.forward(2)),
            (std::set<OpId>{fig.fz[5], fig.fz[6], fig.fz[7], fig.fz[8]}));
  EXPECT_EQ(to_set(cs.backward(2)),
            (std::set<OpId>{fig.bz[6]}));

  EXPECT_EQ(to_set(cs.dangling_writes),
            (std::set<OpId>{fig.bz[2], fig.bz[5], fig.bz[7]}));
}

TEST(ChunkSet, Figure3ForwardWritesOrderedByZoneLow) {
  const Figure3 fig = build_figure3();
  const ChunkPartition cs = chunks_of(fig.history);
  ASSERT_EQ(cs.chunk_count(), 3u);
  // T_F for the middle chunk must be FZ2, FZ3, FZ4 in that order.
  EXPECT_EQ(to_vector(cs.forward(1)),
            (std::vector<OpId>{fig.fz[2], fig.fz[3], fig.fz[4]}));
  EXPECT_EQ(to_vector(cs.forward(2)),
            (std::vector<OpId>{fig.fz[5], fig.fz[6], fig.fz[7], fig.fz[8]}));
}

TEST(ChunkSet, Figure3ExtentsAreTheForwardUnions) {
  const Figure3 fig = build_figure3();
  const ChunkPartition cs = chunks_of(fig.history);
  ASSERT_EQ(cs.chunk_count(), 3u);
  EXPECT_EQ(cs.extents[0], (Interval{0, 100}));
  EXPECT_EQ(cs.extents[1], (Interval{200, 500}));
  EXPECT_EQ(cs.extents[2], (Interval{600, 1000}));
}

TEST(ChunkSet, StableUnderNormalization) {
  const Figure3 fig = build_figure3();
  const ChunkPartition raw = chunks_of(fig.history);
  const ChunkPartition norm = chunks_of(normalize(fig.history));
  ASSERT_EQ(raw.chunk_count(), norm.chunk_count());
  for (std::size_t i = 0; i < raw.chunk_count(); ++i) {
    EXPECT_EQ(to_set(raw.forward(i)), to_set(norm.forward(i)));
    EXPECT_EQ(to_set(raw.backward(i)), to_set(norm.backward(i)));
  }
  EXPECT_EQ(to_set(raw.dangling_writes), to_set(norm.dangling_writes));
}

TEST(ChunkSet, EmptyHistory) {
  const ChunkPartition cs = chunks_of(History{});
  EXPECT_TRUE(cs.chunk_count() == 0);
  EXPECT_TRUE(cs.dangling_writes.empty());
}

TEST(ChunkSet, AllBackwardMeansAllDangling) {
  HistoryBuilder b;
  for (int i = 0; i < 4; ++i) {
    b.write(i * 100, i * 100 + 50, i + 1);  // no reads: backward zones
  }
  const ChunkPartition cs = chunks_of(b.build());
  EXPECT_TRUE(cs.chunk_count() == 0);
  EXPECT_EQ(cs.dangling_writes.size(), 4u);
}

TEST(ChunkSet, SingleForwardClusterIsItsOwnChunk) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 1);
  const ChunkPartition cs = chunks_of(b.build());
  ASSERT_EQ(cs.chunk_count(), 1u);
  EXPECT_EQ(cs.forward(0).size(), 1u);
  EXPECT_EQ(cs.extents[0], (Interval{10, 20}));
}

TEST(ChunkSet, BackwardZoneTouchingExtentBoundaryIsDangling) {
  // Backward zone overlapping (not contained in) the forward union.
  HistoryBuilder b;
  b.write(0, 20, 1);
  b.read(40, 60, 1);   // forward zone [20, 40]
  b.write(25, 55, 2);  // cluster zone [30, 50]... compute:
  b.read(30, 50, 2);   // min finish 50, max start 30: backward [30, 50]
  const ChunkPartition cs = chunks_of(b.build());
  ASSERT_EQ(cs.chunk_count(), 1u);
  // [30, 50] is NOT strictly inside [20, 40] (50 > 40): dangling.
  EXPECT_TRUE(cs.backward(0).empty());
  EXPECT_EQ(cs.dangling_writes.size(), 1u);
}

TEST(ChunkSet, ChunksOrderedAlongTimeline) {
  HistoryBuilder b;
  Value v = 1;
  for (int i = 0; i < 5; ++i) {
    const TimePoint base = i * 1000;
    b.write(base, base + 10, v);
    b.read(base + 20, base + 30, v);
    ++v;
  }
  const ChunkPartition cs = chunks_of(b.build());
  ASSERT_EQ(cs.chunk_count(), 5u);
  for (std::size_t i = 1; i < cs.chunk_count(); ++i) {
    EXPECT_LT(cs.extents[i - 1].hi, cs.extents[i].lo);
  }
}

TEST(ChunkSet, RefillMatchesAFreshPartition) {
  const Figure3 fig = build_figure3();
  const std::vector<Zone> large = compute_zones(fig.history);
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(20, 30, 1);
  b.write(40, 50, 2);  // no reads: a dangling backward zone
  const std::vector<Zone> small = compute_zones(b.build());

  ChunkPartition reused;
  partition_chunks(large, reused);
  ASSERT_EQ(reused.chunk_count(), 3u);
  ChunkPartition fresh;
  partition_chunks(small, fresh);
  partition_chunks(small, reused);
  expect_same_partition(reused, fresh);

  // Refilled from nothing, it is the default partition.
  partition_chunks(large, reused);
  partition_chunks({}, reused);
  expect_same_partition(reused, ChunkPartition{});
}

TEST(ChunkSet, RawZonesWithSharedEndpointsCompareStrictly) {
  // Raw zones, as the streaming checker hands them over: endpoints are
  // shared, and the tags are slots in no particular order.
  const Zone f7 = forward_zone(7, 10, 50);
  const Zone b3 = backward_zone(3, 10, 20);  // low == chunk 0's lo
  const Zone b5 = backward_zone(5, 15, 40);  // strictly inside chunk 0
  const Zone f1 = forward_zone(1, 50, 70);   // low == chunk 0's hi
  const Zone b2 = backward_zone(2, 55, 70);  // high == chunk 1's hi
  const Zone b9 = backward_zone(9, 60, 65);  // strictly inside chunk 1

  ChunkPartition want;
  want.extents = {Interval{10, 50}, Interval{50, 70}};
  want.forward_begin = {0, 1, 2};
  want.forward_writes = {7, 1};
  want.backward_begin = {0, 1, 2};
  want.backward_writes = {5, 9};
  want.dangling_writes = {3, 2};
  want.dangling_lows = {10, 55};
  // The tie on low 10 may come in either order: b3 dangles both ways.
  for (const std::vector<Zone>& zones :
       {std::vector<Zone>{f7, b3, b5, f1, b2, b9},
        std::vector<Zone>{b3, f7, b5, f1, b2, b9}}) {
    ChunkPartition got;
    partition_chunks(zones, got);
    expect_same_partition(got, want);
  }
}

}  // namespace
}  // namespace kav
