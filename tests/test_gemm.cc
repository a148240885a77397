/** @file Unit + property tests for the GEMM kernel. */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/cpu_features.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_tile.h"
#include "src/tensor/rng.h"

namespace shredder {
namespace {

/** Slow reference GEMM for validation. */
void
reference_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const std::vector<float>& a,
               const std::vector<float>& b, float beta,
               std::vector<float>& c)
{
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t t = 0; t < k; ++t) {
                const float av = ta ? a[static_cast<std::size_t>(t * m + i)]
                                    : a[static_cast<std::size_t>(i * k + t)];
                const float bv = tb ? b[static_cast<std::size_t>(j * k + t)]
                                    : b[static_cast<std::size_t>(t * n + j)];
                acc += static_cast<double>(av) * bv;
            }
            auto& cv = c[static_cast<std::size_t>(i * n + j)];
            cv = alpha * static_cast<float>(acc) + beta * cv;
        }
    }
}

TEST(Gemm, Identity)
{
    // I * B = B
    const std::int64_t n = 4;
    std::vector<float> eye(n * n, 0.0f);
    for (std::int64_t i = 0; i < n; ++i) {
        eye[static_cast<std::size_t>(i * n + i)] = 1.0f;
    }
    Rng rng(1);
    std::vector<float> b(n * n);
    for (auto& v : b) {
        v = rng.normal();
    }
    std::vector<float> c(n * n, -1.0f);
    gemm(false, false, n, n, n, 1.0f, eye.data(), b.data(), 0.0f, c.data());
    for (std::size_t i = 0; i < b.size(); ++i) {
        EXPECT_FLOAT_EQ(c[i], b[i]);
    }
}

TEST(Gemm, BetaAccumulates)
{
    std::vector<float> a{1.0f};
    std::vector<float> b{2.0f};
    std::vector<float> c{10.0f};
    gemm(false, false, 1, 1, 1, 1.0f, a.data(), b.data(), 1.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 12.0f);
    gemm(false, false, 1, 1, 1, 1.0f, a.data(), b.data(), 0.5f, c.data());
    EXPECT_FLOAT_EQ(c[0], 8.0f);
}

TEST(Gemm, AlphaZeroLeavesBetaTimesC)
{
    std::vector<float> a{3.0f}, b{4.0f}, c{5.0f};
    gemm(false, false, 1, 1, 1, 0.0f, a.data(), b.data(), 2.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 10.0f);
}

using GemmParam = std::tuple<bool, bool, int, int, int>;

class GemmMatchesReference
    : public ::testing::TestWithParam<GemmParam>
{};

TEST_P(GemmMatchesReference, RandomMatrices)
{
    const auto [ta, tb, m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + k) +
            (ta ? 1000 : 0) + (tb ? 2000 : 0));
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) {
        v = rng.normal();
    }
    for (auto& v : b) {
        v = rng.normal();
    }
    std::vector<float> c(static_cast<std::size_t>(m * n));
    std::vector<float> c_ref = c;
    for (std::size_t i = 0; i < c.size(); ++i) {
        c[i] = c_ref[i] = rng.normal();
    }

    gemm(ta, tb, m, n, k, 0.7f, a.data(), b.data(), 0.3f, c.data());
    reference_gemm(ta, tb, m, n, k, 0.7f, a, b, 0.3f, c_ref);

    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c[i], c_ref[i], 1e-3f) << "at " << i;
    }
}

// Sizes chosen to straddle the packed kernel's tile boundaries: the
// MR=6 row tile (5..7), the NR=8/16 column tiles (15..17), the small-
// problem fallback threshold, and odd primes that never divide evenly.
// The FMA contract test below walks the same grids.
const int kAllM[] = {1, 3, 17, 64};
const int kAllN[] = {1, 5, 33};
const int kAllK[] = {1, 8, 129};
const int kTileM[] = {5, 6, 7, 97};
const int kTileN[] = {15, 16, 17, 61};
const int kTileK[] = {31, 43};

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GemmMatchesReference,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::ValuesIn(kAllM),
                       ::testing::ValuesIn(kAllN),
                       ::testing::ValuesIn(kAllK)));

INSTANTIATE_TEST_SUITE_P(
    TileBoundaries, GemmMatchesReference,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::ValuesIn(kTileM),
                       ::testing::ValuesIn(kTileN),
                       ::testing::ValuesIn(kTileK)));

/**
 * Property check across alpha/beta edge cases (0, 1, negative,
 * fractional) for all transpose combos at a size that takes the
 * packed path.
 */
class GemmAlphaBeta
    : public ::testing::TestWithParam<std::tuple<bool, bool, float, float>>
{};

TEST_P(GemmAlphaBeta, MatchesReference)
{
    const auto [ta, tb, alpha, beta] = GetParam();
    const std::int64_t m = 23, n = 19, k = 37;
    Rng rng(77);
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) {
        v = rng.normal();
    }
    for (auto& v : b) {
        v = rng.normal();
    }
    std::vector<float> c(static_cast<std::size_t>(m * n));
    for (auto& v : c) {
        v = rng.normal();
    }
    std::vector<float> c_ref = c;

    gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c.data());
    reference_gemm(ta, tb, m, n, k, alpha, a, b, beta, c_ref);

    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c[i], c_ref[i], 1e-3f) << "at " << i;
    }
}

const float kEdgeAlphas[] = {0.0f, 1.0f, -1.0f, 0.7f};
const float kEdgeBetas[] = {0.0f, 1.0f, -2.0f, 0.3f};

INSTANTIATE_TEST_SUITE_P(
    EdgeScales, GemmAlphaBeta,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::ValuesIn(kEdgeAlphas),
                       ::testing::ValuesIn(kEdgeBetas)));

TEST(Gemm, ZeroDimensionsAreNoOps)
{
    // m, n or k of zero must not touch memory it doesn't own; k == 0
    // (and alpha == 0) must still apply beta to C.
    std::vector<float> a(8, 1.0f), b(8, 1.0f);
    std::vector<float> c{1.0f, 2.0f, 3.0f, 4.0f};
    gemm(false, false, 0, 0, 0, 1.0f, a.data(), b.data(), 0.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 1.0f);  // m=n=0: C untouched

    gemm(false, false, 2, 2, 0, 1.0f, a.data(), b.data(), 0.5f, c.data());
    EXPECT_FLOAT_EQ(c[0], 0.5f);
    EXPECT_FLOAT_EQ(c[3], 2.0f);

    for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
            std::vector<float> c2{7.0f};
            gemm(ta, tb, 1, 1, 0, 2.0f, a.data(), b.data(), 0.0f,
                 c2.data());
            EXPECT_FLOAT_EQ(c2[0], 0.0f) << "ta=" << ta << " tb=" << tb;
        }
    }
}

TEST(Gemm, KcBlockBoundary)
{
    // k crossing the KC=256 k-block: accumulation across packed
    // k-blocks must agree with a single-pass reference.
    for (const std::int64_t k : {255, 256, 257, 300}) {
        const std::int64_t m = 13, n = 21;
        Rng rng(static_cast<std::uint64_t>(k));
        std::vector<float> a(static_cast<std::size_t>(m * k));
        std::vector<float> b(static_cast<std::size_t>(k * n));
        for (auto& v : a) {
            v = rng.uniform(-1.0f, 1.0f);
        }
        for (auto& v : b) {
            v = rng.uniform(-1.0f, 1.0f);
        }
        std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> c_ref = c;
        gemm(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
             c.data());
        reference_gemm(false, true, m, n, k, 1.0f, a, b, 0.0f, c_ref);
        for (std::size_t i = 0; i < c.size(); ++i) {
            ASSERT_NEAR(c[i], c_ref[i], 1e-3f) << "k=" << k << " at " << i;
        }
    }
}

TEST(Gemm, LargeRowCountTakesRowPanelPath)
{
    // m > MC=96 with m·n·k above the kParallelMinWork=2^20 threshold:
    // exercises the row-panel split, threaded wherever the global pool
    // has more than one worker.
    const std::int64_t m = 201, n = 128, k = 128;
    Rng rng(5);
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) {
        v = rng.normal();
    }
    for (auto& v : b) {
        v = rng.normal();
    }
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> c_ref = c;
    gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    reference_gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c_ref);
    for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_NEAR(c[i], c_ref[i], 1e-3f) << "at " << i;
    }
}

TEST(Gemm, LargeBlockedKPath)
{
    // Exercise the K-blocking boundary (block = 256).
    const std::int64_t m = 3, n = 4, k = 600;
    Rng rng(9);
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    for (auto& v : b) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> c_ref = c;
    gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    reference_gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c_ref);
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c[i], c_ref[i], 1e-3f);
    }
}

// -- The blocked path's arithmetic, bit for bit ------------------------

/** True when gemm packs this shape (src/tensor/gemm.cc's dispatch). */
bool
takes_blocked_path(std::int64_t m, std::int64_t n, std::int64_t k)
{
    return m >= 6 && n >= 8 && m * n * k > 16 * 1024;
}

/**
 * The blocked path's per-element arithmetic on the AVX2 and AVX-512
 * tiles: C is scaled by beta first; then each 256-deep k block forms
 * acc = fmaf(a, b, acc) from zero in k order and writes
 * c = fmaf(alpha, acc, c).
 */
void
fma_contract_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const std::vector<float>& a,
                  const std::vector<float>& b, float beta,
                  std::vector<float>& c)
{
    for (float& v : c) {
        v = beta == 0.0f ? 0.0f : (beta == 1.0f ? v : v * beta);
    }
    if (alpha == 0.0f) {
        return;
    }
    for (std::int64_t k0 = 0; k0 < k; k0 += 256) {
        const std::int64_t k1 = std::min(k, k0 + 256);
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (std::int64_t t = k0; t < k1; ++t) {
                    const float av =
                        ta ? a[static_cast<std::size_t>(t * m + i)]
                           : a[static_cast<std::size_t>(i * k + t)];
                    const float bv =
                        tb ? b[static_cast<std::size_t>(j * k + t)]
                           : b[static_cast<std::size_t>(t * n + j)];
                    acc = std::fmaf(av, bv, acc);
                }
                float& cv = c[static_cast<std::size_t>(i * n + j)];
                cv = std::fmaf(alpha, acc, cv);
            }
        }
    }
}

/** Run one case on `tile` and through the contract; compare every bit. */
void
expect_fma_contract(gemm_detail::Tile tile, bool ta, bool tb, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha, float beta)
{
    Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    std::vector<float> c(static_cast<std::size_t>(m * n));
    for (auto* v : {&a, &b, &c}) {
        for (float& x : *v) {
            x = rng.normal();
        }
    }
    std::vector<float> expect = c;
    gemm_detail::gemm_on_tile(tile, ta, tb, m, n, k, alpha, a.data(),
                              b.data(), beta, c.data());
    fma_contract_gemm(ta, tb, m, n, k, alpha, a, b, beta, expect);
    for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(std::memcmp(&c[i], &expect[i], sizeof(float)), 0)
            << "tile=" << static_cast<int>(tile) << " ta=" << ta
            << " tb=" << tb << " m=" << m << " n=" << n
            << " k=" << k << " alpha=" << alpha << " beta=" << beta
            << " at " << i << ": " << c[i] << " vs " << expect[i];
    }
}

/** Append the shapes of an m×n×k grid that take the blocked path. */
template <std::size_t M, std::size_t N, std::size_t K>
void
add_blocked_shapes(const int (&ms)[M], const int (&ns)[N], const int (&ks)[K],
                   std::vector<std::tuple<int, int, int>>& shapes)
{
    for (const int m : ms) {
        for (const int n : ns) {
            for (const int k : ks) {
                if (takes_blocked_path(m, n, k)) {
                    shapes.emplace_back(m, n, k);
                }
            }
        }
    }
}

TEST(Gemm, BlockedPathFollowsTheFmaContract)
{
    // gemm runs one tile per n on a given host, so each tile the host
    // supports is run by name: the 6×16 AVX2 tile, and the 6×32 AVX-512
    // tile (which hands n ≤ 16 to the 6×16 one).
    if (!cpu_features().avx2_fma) {
        GTEST_SKIP() << "the contract pins the wide tiles: needs avx2 and "
                        "fma";
    }
    std::vector<gemm_detail::Tile> tiles = {gemm_detail::Tile::kAvx2};
    if (cpu_features().avx512f) {
        tiles.push_back(gemm_detail::Tile::kAvx512);
    }
    // Every blocked shape of the grids above, under every transpose
    // and every edge alpha/beta; widths about the 32-column panel; then
    // the k-block and row-panel shapes.
    std::vector<std::tuple<int, int, int>> shapes;
    add_blocked_shapes(kAllM, kAllN, kAllK, shapes);
    add_blocked_shapes(kTileM, kTileN, kTileK, shapes);
    const int wide_n[] = {32, 64, 65, 97};
    add_blocked_shapes(kTileM, wide_n, kTileK, shapes);
    for (const int k : {255, 256, 257, 300}) {  // KcBlockBoundary
        shapes.emplace_back(13, 21, k);
    }
    ASSERT_GT(shapes.size(), 10u);
    for (const gemm_detail::Tile tile : tiles) {
        for (const auto& [m, n, k] : shapes) {
            for (const bool ta : {false, true}) {
                for (const bool tb : {false, true}) {
                    for (const float alpha : kEdgeAlphas) {
                        for (const float beta : kEdgeBetas) {
                            expect_fma_contract(tile, ta, tb, m, n, k, alpha,
                                                beta);
                        }
                    }
                }
            }
        }
        // LargeRowCountTakesRowPanelPath: row panels split across threads.
        expect_fma_contract(tile, false, false, 201, 128, 128, 1.0f, 0.0f);
        expect_fma_contract(tile, true, true, 201, 128, 128, 0.7f, 0.3f);
    }
    if (!cpu_features().avx512f) {
        GTEST_SKIP() << "the 6x16 tile is pinned; the 6x32 tile needs "
                        "avx512f";
    }
}

// -- The strided fallback's arithmetic, bit for bit ---------------------

/**
 * The strided fallback's per-element arithmetic (every m < 6 shape
 * takes it): C is scaled by beta first. Where op(B)'s rows are strided
 * (trans_b with k > 1), each element is one chain of double adds in k
 * order, rounded once, then c += alpha·dot; otherwise each k step adds
 * (alpha·a)·b into c in float.
 */
void
small_path_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const std::vector<float>& a,
                const std::vector<float>& b, float beta,
                std::vector<float>& c)
{
    for (float& v : c) {
        v = beta == 0.0f ? 0.0f : (beta == 1.0f ? v : v * beta);
    }
    auto at = [&](std::int64_t i, std::int64_t t) {
        return ta ? a[static_cast<std::size_t>(t * m + i)]
                  : a[static_cast<std::size_t>(i * k + t)];
    };
    auto bt = [&](std::int64_t t, std::int64_t j) {
        return tb ? b[static_cast<std::size_t>(j * k + t)]
                  : b[static_cast<std::size_t>(t * n + j)];
    };
    const bool dot_order = tb && k > 1;
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float& cv = c[static_cast<std::size_t>(i * n + j)];
            if (dot_order) {
                double dot = 0.0;
                for (std::int64_t t = 0; t < k; ++t) {
                    dot += static_cast<double>(at(i, t)) * bt(t, j);
                }
                cv += alpha * static_cast<float>(dot);
            } else {
                for (std::int64_t t = 0; t < k; ++t) {
                    cv += (alpha * at(i, t)) * bt(t, j);
                }
            }
        }
    }
}

TEST(Gemm, SmallPathKeepsOneDoubleChainPerElement)
{
    // n = 9, 15, 16, 17 and 128 reach the eight-column AVX2 dot and its
    // four-chain and one-chain remainders.
    // The float saxpy order is pinned only where no FMA can contract it;
    // the double dot order is exact either way (a float product is).
#if defined(__FMA__)
    const bool pin_saxpy = false;
#else
    const bool pin_saxpy = true;
#endif
    int pinned = 0;
    for (const std::int64_t m : {1, 2, 3, 4, 5}) {
        for (const std::int64_t n :
             {1, 3, 4, 5, 7, 8, 9, 10, 15, 16, 17, 84, 128}) {
            for (const std::int64_t k : {1, 84, 120, 256}) {
                for (const bool ta : {false, true}) {
                    for (const bool tb : {false, true}) {
                        if (!(tb && k > 1) && !pin_saxpy) {
                            continue;
                        }
                        Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 131 +
                                                           k) +
                                (ta ? 1 : 0) + (tb ? 2 : 0));
                        std::vector<float> a(static_cast<std::size_t>(m * k));
                        std::vector<float> b(static_cast<std::size_t>(k * n));
                        std::vector<float> c(static_cast<std::size_t>(m * n));
                        for (auto* v : {&a, &b, &c}) {
                            for (float& x : *v) {
                                x = rng.normal();
                            }
                        }
                        std::vector<float> expect = c;
                        gemm(ta, tb, m, n, k, 0.75f, a.data(), b.data(),
                             0.5f, c.data());
                        small_path_gemm(ta, tb, m, n, k, 0.75f, a, b, 0.5f,
                                        expect);
                        ASSERT_EQ(std::memcmp(c.data(), expect.data(),
                                              c.size() * sizeof(float)),
                                  0)
                            << "ta=" << ta << " tb=" << tb << " m=" << m
                            << " n=" << n << " k=" << k;
                        ++pinned;
                    }
                }
            }
        }
    }
    EXPECT_GE(pinned, 240);  // the dot-order shapes alone
}

// -- The portable tile's arithmetic, bit for bit -------------------------

/**
 * The blocked path's per-element arithmetic on the portable tile, built
 * for the x86-64 baseline (no FMA to contract into): C is scaled by
 * beta first; then each 256-deep k block forms acc = acc + a·b from
 * zero in k order, unfused, and writes c = c + alpha·acc.
 */
void
unfused_contract_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                      std::int64_t k, float alpha,
                      const std::vector<float>& a,
                      const std::vector<float>& b, float beta,
                      std::vector<float>& c)
{
    for (float& v : c) {
        v = beta == 0.0f ? 0.0f : (beta == 1.0f ? v : v * beta);
    }
    if (alpha == 0.0f) {
        return;
    }
    for (std::int64_t k0 = 0; k0 < k; k0 += 256) {
        const std::int64_t k1 = std::min(k, k0 + 256);
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (std::int64_t t = k0; t < k1; ++t) {
                    const float av =
                        ta ? a[static_cast<std::size_t>(t * m + i)]
                           : a[static_cast<std::size_t>(i * k + t)];
                    const float bv =
                        tb ? b[static_cast<std::size_t>(j * k + t)]
                           : b[static_cast<std::size_t>(t * n + j)];
                    acc = acc + av * bv;
                }
                float& cv = c[static_cast<std::size_t>(i * n + j)];
                cv = cv + alpha * acc;
            }
        }
    }
}

TEST(Gemm, PortableTileFollowsTheUnfusedContract)
{
#if !defined(__x86_64__) || defined(__FMA__)
    GTEST_SKIP() << "the contract pins the x86-64 baseline build";
#else
    // gemm picks the AVX2 tile on an AVX2 host, so run the portable one
    // by name over every blocked shape of the grids above.
    std::vector<std::tuple<int, int, int>> shapes;
    add_blocked_shapes(kAllM, kAllN, kAllK, shapes);
    add_blocked_shapes(kTileM, kTileN, kTileK, shapes);
    shapes.emplace_back(13, 21, 300);  // two k blocks
    ASSERT_GT(shapes.size(), 10u);
    for (const auto& [m, n, k] : shapes) {
        for (const bool ta : {false, true}) {
            for (const bool tb : {false, true}) {
                for (const float alpha : kEdgeAlphas) {
                    for (const float beta : kEdgeBetas) {
                        Rng rng(static_cast<std::uint64_t>(m * 10007 +
                                                           n * 101 + k));
                        std::vector<float> a(static_cast<std::size_t>(m * k));
                        std::vector<float> b(static_cast<std::size_t>(k * n));
                        std::vector<float> c(static_cast<std::size_t>(m * n));
                        for (auto* v : {&a, &b, &c}) {
                            for (float& x : *v) {
                                x = rng.normal();
                            }
                        }
                        std::vector<float> expect = c;
                        gemm_detail::gemm_on_tile(
                            gemm_detail::Tile::kPortable, ta, tb, m, n, k,
                            alpha, a.data(), b.data(), beta, c.data());
                        unfused_contract_gemm(ta, tb, m, n, k, alpha, a, b,
                                              beta, expect);
                        ASSERT_EQ(std::memcmp(c.data(), expect.data(),
                                              c.size() * sizeof(float)),
                                  0)
                            << "ta=" << ta << " tb=" << tb << " m=" << m
                            << " n=" << n << " k=" << k
                            << " alpha=" << alpha << " beta=" << beta;
                    }
                }
            }
        }
    }
#endif
}

}  // namespace
}  // namespace shredder
