#include "numerics/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "numerics/statistics.h"

namespace cellsync {
namespace {

TEST(Rng, SameSeedSameStream) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        if (a.uniform() == b.uniform()) ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRangeRespected) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 3.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, UniformDegenerateAndInvalid) {
    Rng rng(7);
    EXPECT_DOUBLE_EQ(rng.uniform(1.5, 1.5), 1.5);
    EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
    Rng rng(11);
    Vector draws(20000);
    for (double& d : draws) d = rng.normal(5.0, 2.0);
    EXPECT_NEAR(mean(draws), 5.0, 0.05);
    EXPECT_NEAR(stddev(draws), 2.0, 0.05);
}

TEST(Rng, NormalZeroSigmaIsDeterministic) {
    Rng rng(3);
    EXPECT_DOUBLE_EQ(rng.normal(4.0, 0.0), 4.0);
}

TEST(Rng, NormalRejectsNegativeSigma) {
    Rng rng(3);
    EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, TruncatedNormalStaysInWindow) {
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.truncated_normal(0.15, 0.02, 0.1, 0.2);
        EXPECT_GE(x, 0.1);
        EXPECT_LE(x, 0.2);
    }
}

TEST(Rng, TruncatedNormalPathologicalWindowClamps) {
    Rng rng(13);
    // Window 50 sigma away: rejection fails, clamp to nearest edge.
    const double x = rng.truncated_normal(0.0, 0.01, 5.0, 6.0);
    EXPECT_DOUBLE_EQ(x, 5.0);
}

TEST(Rng, TruncatedNormalRejectsEmptyWindow) {
    Rng rng(13);
    EXPECT_THROW(rng.truncated_normal(0.0, 1.0, 2.0, 1.0), std::invalid_argument);
}

TEST(Rng, LognormalIsPositive) {
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, IndexWithinBounds) {
    Rng rng(19);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
    EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, NormalVectorHasRequestedLength) {
    Rng rng(23);
    EXPECT_EQ(rng.normal_vector(5).size(), 5u);
    EXPECT_TRUE(rng.normal_vector(0).empty());
}

TEST(CounterStream, WordKOfKeyIsMixSeed) {
    Counter_stream stream(0x1234abcdULL);
    for (std::uint64_t k = 0; k < 100; ++k) EXPECT_EQ(stream.next_word(), mix_seed(0x1234abcdULL, k));
}

TEST(CounterStream, ChildKeysAreNeverParentWords) {
    for (std::uint64_t key : {0ULL, 1ULL, 20110605ULL, 0xffffffffffffffffULL}) {
        // The naive derivation collides with the parent's second word.
        Counter_stream parent(key);
        parent.next_word();
        EXPECT_EQ(parent.next_word(), mix_seed(key, 1));
        Counter_stream words(key);
        std::vector<std::uint64_t> drawn(10000);
        for (std::uint64_t& w : drawn) w = words.next_word();
        const std::uint64_t sw = Counter_stream::child_key(key, 0);
        const std::uint64_t st = Counter_stream::child_key(key, 1);
        EXPECT_NE(sw, st);
        EXPECT_NE(sw, key);
        for (std::uint64_t w : drawn) {
            EXPECT_NE(w, sw);
            EXPECT_NE(w, st);
        }
    }
}

TEST(CounterStream, UniformAndNormalPairMoments) {
    Counter_stream stream(77);
    Vector u(20000), a(20000), b(20000);
    for (double& x : u) {
        x = stream.uniform();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
    for (std::size_t i = 0; i < a.size(); ++i) stream.normal_pair(a[i], b[i]);
    EXPECT_NEAR(mean(u), 0.5, 0.01);
    EXPECT_NEAR(mean(a), 0.0, 0.03);
    EXPECT_NEAR(mean(b), 0.0, 0.03);
    EXPECT_NEAR(stddev(a), 1.0, 0.03);
    EXPECT_NEAR(stddev(b), 1.0, 0.03);
    EXPECT_LT(std::abs(pearson_correlation(a, b)), 0.03);  // the pair is independent
}

TEST(CounterStream, SameKeySameDraws) {
    Counter_stream a(9), b(9);
    for (int i = 0; i < 50; ++i) {
        double a1 = 0.0, a2 = 0.0, b1 = 0.0, b2 = 0.0;
        a.normal_pair(a1, a2);
        b.normal_pair(b1, b2);
        EXPECT_EQ(a1, b1);
        EXPECT_EQ(a2, b2);
    }
}

}  // namespace
}  // namespace cellsync
