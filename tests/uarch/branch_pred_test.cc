/**
 * @file
 * Unit tests for the direction predictors (bimodal, gshare, Table-1
 * hybrid): learning behavior on canonical branch patterns.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "uarch/branch_pred.hh"

using namespace tpcp;
using namespace tpcp::uarch;

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor p(1024);
    Addr pc = 0x4000;
    for (int i = 0; i < 8; ++i)
        predictAndTrain(p, pc, true);
    EXPECT_TRUE(p.predict(pc));
    for (int i = 0; i < 8; ++i)
        predictAndTrain(p, pc, false);
    EXPECT_FALSE(p.predict(pc));
}

TEST(Bimodal, HysteresisSurvivesOneFlip)
{
    BimodalPredictor p(1024);
    Addr pc = 0x4000;
    for (int i = 0; i < 8; ++i)
        predictAndTrain(p, pc, true);
    predictAndTrain(p, pc, false); // one not-taken
    EXPECT_TRUE(p.predict(pc)) << "2-bit counter keeps predicting taken";
}

TEST(Bimodal, MostlyTakenAccuracy)
{
    BimodalPredictor p(8192);
    Rng rng(std::uint64_t{3});
    Addr pc = 0x4000;
    int wrong = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        wrong += predictAndTrain(p, pc, rng.nextBool(0.9)) ? 1 : 0;
    // Always-predict-taken on a 90% taken branch: ~10% wrong.
    EXPECT_LT(static_cast<double>(wrong) / n, 0.15);
}

TEST(Gshare, LearnsAlternatingPattern)
{
    // Bimodal cannot learn T,N,T,N...; gshare can via history.
    GsharePredictor g(2048, 8);
    BimodalPredictor b(2048);
    Addr pc = 0x4000;
    int g_wrong = 0, b_wrong = 0;
    for (int i = 0; i < 2000; ++i) {
        bool taken = (i % 2) == 0;
        g_wrong += predictAndTrain(g, pc, taken) ? 1 : 0;
        b_wrong += predictAndTrain(b, pc, taken) ? 1 : 0;
    }
    EXPECT_LT(g_wrong, 100) << "gshare locks onto the pattern";
    EXPECT_GT(b_wrong, 500) << "bimodal cannot";
}

TEST(Gshare, LearnsShortLoopPattern)
{
    GsharePredictor g(2048, 8);
    Addr pc = 0x4000;
    int wrong = 0;
    const int iters = 3000;
    for (int i = 0; i < iters; ++i) {
        bool taken = (i % 5) != 4; // 5-iteration loop branch
        wrong += predictAndTrain(g, pc, taken) ? 1 : 0;
    }
    EXPECT_LT(static_cast<double>(wrong) / iters, 0.05);
}

TEST(Hybrid, BeatsOrMatchesComponentsOnMixedWorkload)
{
    BranchPredConfig cfg;
    HybridPredictor h(cfg);
    GsharePredictor g(cfg.gshareEntries, cfg.gshareHistoryBits);
    BimodalPredictor b(cfg.bimodalEntries);

    Rng rng(std::uint64_t{17});
    int h_wrong = 0, g_wrong = 0, b_wrong = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        // Two branch populations: a patterned branch and a biased
        // branch, interleaved.
        Addr pc = (i % 2) ? 0x1000 : 0x2000;
        bool taken = (i % 2) ? ((i / 2) % 3 != 2)
                             : rng.nextBool(0.85);
        h_wrong += predictAndTrain(h, pc, taken) ? 1 : 0;
        g_wrong += predictAndTrain(g, pc, taken) ? 1 : 0;
        b_wrong += predictAndTrain(b, pc, taken) ? 1 : 0;
    }
    EXPECT_LE(h_wrong, g_wrong + n / 50);
    EXPECT_LE(h_wrong, b_wrong + n / 50);
}

TEST(Hybrid, RandomBranchNearFiftyPercent)
{
    HybridPredictor h(BranchPredConfig{});
    Rng rng(std::uint64_t{23});
    int wrong = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        wrong += predictAndTrain(h, 0x4000, rng.nextBool(0.5)) ? 1 : 0;
    double rate = static_cast<double>(wrong) / n;
    EXPECT_GT(rate, 0.4);
    EXPECT_LT(rate, 0.6);
}

TEST(Hybrid, ResetClearsState)
{
    HybridPredictor h(BranchPredConfig{});
    for (int i = 0; i < 100; ++i)
        predictAndTrain(h, 0x4000, false);
    h.reset();
    // After reset, weakly-taken initialization predicts taken.
    EXPECT_TRUE(h.predict(0x4000));
}
