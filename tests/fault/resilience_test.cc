/**
 * @file
 * End-to-end tests of the resilience harness on a synthetic two-phase
 * profile: zero-rate runs agree perfectly, reports are deterministic,
 * the parity+scrub mitigation holds phase-ID agreement under
 * signature faults, and a checkpointed + resumed campaign produces a
 * report byte-identical to an uninterrupted one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"
#include "fault/resilience.hh"
#include "trace/interval_profile.hh"

using namespace tpcp;
using namespace tpcp::fault;

namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** A 200-interval profile alternating between two clearly separated
 * phases in blocks of 10 intervals. */
trace::IntervalProfile
syntheticProfile(std::size_t n = 200)
{
    trace::IntervalProfile p("test/synth", "ooo", 1000, {16});
    for (std::size_t i = 0; i < n; ++i) {
        int phase = static_cast<int>((i / 10) % 2);
        trace::IntervalRecord rec;
        rec.cpi = 1.0 + phase;
        rec.insts = 1000;
        rec.accumTotal = 10000;
        std::vector<std::uint32_t> counters(16, 0);
        for (int j = 0; j < 4; ++j)
            counters[phase * 8 + j] = 2500;
        p.push(rec, counters);
    }
    return p;
}

ResilienceOptions
baseOptions()
{
    ResilienceOptions opts;
    opts.dims = 16;
    opts.injector.seed = 42;
    return opts;
}

} // namespace

TEST(Resilience, ZeroRateRunAgreesPerfectly)
{
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    ResilienceReport r = runResilience(p, opts);
    EXPECT_EQ(r.intervals, 200u);
    EXPECT_EQ(r.faults.total(), 0u);
    EXPECT_DOUBLE_EQ(r.agreement(), 1.0);
    EXPECT_DOUBLE_EQ(r.nextPhaseDelta(), 0.0);
    EXPECT_EQ(r.repairs, 0u);
    EXPECT_EQ(r.quarantines, 0u);
    EXPECT_EQ(r.eccCorrections, 0u);
}

TEST(Resilience, ReportIsDeterministic)
{
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.injector.target = Target::All;
    opts.injector.ratePerInterval = 0.2;
    ResilienceReport a = runResilience(p, opts);
    ResilienceReport b = runResilience(p, opts);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_GT(a.faults.total(), 0u);
}

TEST(Resilience, MitigationHoldsAgreementUnderSignatureFaults)
{
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.injector.target = Target::SignatureRows;
    opts.injector.ratePerInterval = 0.2;

    ResilienceReport unmit = runResilience(p, opts);
    opts.injector.mitigated = true;
    opts.scrubEvery = 1;
    ResilienceReport mit = runResilience(p, opts);

    ASSERT_GT(mit.faults.signatureFlips, 0u);
    EXPECT_GE(mit.agreement(), 0.99)
        << "parity+scrub failed to hold the phase-ID stream";
    EXPECT_GE(mit.agreement(), unmit.agreement());
    // With per-interval scrubbing every single-event flip is caught
    // and corrected in place before the next match.
    EXPECT_GT(mit.eccCorrections, 0u);
}

TEST(Resilience, CheckpointResumeReportIsByteIdentical)
{
    const std::string ckpt = tmpPath("resilience.ckpt");
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.injector.target = Target::All;
    opts.injector.ratePerInterval = 0.3;
    opts.injector.mitigated = true;

    ResilienceReport full = runResilience(p, opts);

    ResilienceOptions stop = opts;
    stop.checkpointPath = ckpt;
    stop.checkpointAt = 97;
    ResilienceReport partial = runResilience(p, stop);
    EXPECT_TRUE(partial.checkpointed);
    EXPECT_EQ(partial.intervals, 97u);

    ResilienceOptions resume = opts;
    resume.checkpointPath = ckpt;
    resume.resume = true;
    ResilienceReport resumed = runResilience(p, resume);
    EXPECT_FALSE(resumed.checkpointed);
    EXPECT_EQ(toJson(resumed), toJson(full))
        << "a resumed campaign must not drift from the uninterrupted "
           "run";
    std::remove(ckpt.c_str());
}

TEST(Resilience, ResumeUnderDifferentOptionsRaises)
{
    const std::string ckpt = tmpPath("resilience_mismatch.ckpt");
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.injector.target = Target::All;
    opts.injector.ratePerInterval = 0.3;
    opts.checkpointPath = ckpt;
    opts.checkpointAt = 50;
    ASSERT_TRUE(runResilience(p, opts).checkpointed);

    // Resuming a checkpoint taken at a different fault rate would
    // silently change the campaign; it must be refused.
    ResilienceOptions resume = baseOptions();
    resume.injector.target = Target::All;
    resume.injector.ratePerInterval = 0.25;
    resume.checkpointPath = ckpt;
    resume.resume = true;
    EXPECT_THROW(runResilience(p, resume), Error);
    std::remove(ckpt.c_str());
}

TEST(Resilience, ResumeWithoutCheckpointPathRaises)
{
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.resume = true;
    EXPECT_THROW(runResilience(p, opts), Error);
}

TEST(Resilience, MissingDimensionConfigRaises)
{
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.dims = 32; // profile was recorded at 16 counters only
    EXPECT_THROW(runResilience(p, opts), Error);
}

TEST(Resilience, CorruptCheckpointRejectedOnResume)
{
    const std::string ckpt = tmpPath("resilience_corrupt.ckpt");
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.injector.target = Target::All;
    opts.injector.ratePerInterval = 0.3;
    opts.checkpointPath = ckpt;
    opts.checkpointAt = 50;
    ASSERT_TRUE(runResilience(p, opts).checkpointed);

    // Flip one byte in the middle of the file.
    std::FILE *f = std::fopen(ckpt.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    long size = std::ftell(f);
    ASSERT_GT(size, 0);
    ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);

    ResilienceOptions resume = opts;
    resume.checkpointAt = 0;
    resume.resume = true;
    EXPECT_THROW(runResilience(p, resume), Error);
    std::remove(ckpt.c_str());
}

TEST(Resilience, ResumeRefusesACheckpointOfTheOldVersion)
{
    const std::string ckpt = tmpPath("resilience_v2.ckpt");
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.injector.target = Target::All;
    opts.injector.ratePerInterval = 0.3;
    opts.checkpointPath = ckpt;
    opts.checkpointAt = 50;
    ASSERT_TRUE(runResilience(p, opts).checkpointed);

    // Version 2 tracker images carried an accumulator block. The
    // envelope's u32 version (bytes 4..8) tells the layouts apart;
    // the payload CRC does not cover it.
    std::vector<std::uint8_t> bytes = readFile(ckpt);
    ASSERT_GT(bytes.size(), 8u);
    ASSERT_EQ(bytes[4], 3u);
    bytes[4] = 2;
    ASSERT_TRUE(writeFileAtomic(ckpt, bytes));

    ResilienceOptions resume = opts;
    resume.checkpointAt = 0;
    resume.resume = true;
    try {
        runResilience(p, resume);
        ADD_FAILURE() << "resumed a version-2 checkpoint";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "version 2 unsupported (expected 3)"),
                  std::string::npos)
            << e.what();
    }
    std::remove(ckpt.c_str());
}

TEST(Resilience, ResumeWithFlipsPendingIsByteIdentical)
{
    // With a 16-interval scrub period a checkpoint usually lands
    // while a signature flip is still unscrubbed: the restored table
    // must find and correct it exactly as the uninterrupted run does.
    const std::string ckpt = tmpPath("resilience_pending.ckpt");
    trace::IntervalProfile p = syntheticProfile();
    ResilienceOptions opts = baseOptions();
    opts.injector.target = Target::All;
    opts.injector.ratePerInterval = 0.3;
    opts.injector.mitigated = true;
    opts.scrubEvery = 16;

    const ResilienceReport full = runResilience(p, opts);
    ASSERT_GT(full.eccCorrections, 0u);
    for (std::uint64_t k : {5u, 23u, 40u, 97u, 131u, 170u, 199u}) {
        SCOPED_TRACE("checkpoint at " + std::to_string(k));
        ResilienceOptions stop = opts;
        stop.checkpointPath = ckpt;
        stop.checkpointAt = k;
        ASSERT_TRUE(runResilience(p, stop).checkpointed);

        ResilienceOptions resume = opts;
        resume.checkpointPath = ckpt;
        resume.resume = true;
        EXPECT_EQ(toJson(runResilience(p, resume)), toJson(full));
    }
    std::remove(ckpt.c_str());
}

TEST(Resilience, JsonIsPinnedByteForByte)
{
    ResilienceReport r;
    r.workload = "mcf";
    r.target = "all";
    r.rate = 0.1;
    r.mitigated = true;
    r.intervals = 3;
    r.faults.accumFlips = 1;
    r.faults.signatureFlips = 2;
    r.faults.metadataFaults = 3;
    r.faults.changeTableFaults = 4;
    r.faults.lengthTableFaults = 5;
    r.faults.inputFaults = 6;
    r.faults.serveCheckpointFaults = 7;
    r.faults.serveFrameFlips = 8;
    r.agreeingIntervals = 1;
    r.nextPhaseAccBase = 0.5;
    r.nextPhaseAccFaulty = 0.75;
    r.changeAccBase = 0.9;
    r.changeAccFaulty = 0.8;
    r.lengthAccBase = 1.0;
    r.lengthAccFaulty = 0.125;
    r.repairs = 9;
    r.quarantines = 10;
    r.eccCorrections = 11;
    r.rejectedCpiSamples = 12;
    r.adaptOracleFracBase = 0.7;
    r.adaptOracleFracFaulty = 0.65;
    r.checkpointed = true;
    const std::string one =
        "{\"workload\": \"mcf\", \"target\": \"all\", \"rate\": 0.1, "
        "\"mitigated\": true, \"intervals\": 3, \"faults_total\": 36, "
        "\"faults_accum\": 1, \"faults_signature\": 2, "
        "\"faults_metadata\": 3, \"faults_change_table\": 4, "
        "\"faults_length_table\": 5, \"faults_input\": 6, "
        "\"agreeing_intervals\": 1, \"agreement\": 0.3333333333, "
        "\"next_phase_acc_base\": 0.5, "
        "\"next_phase_acc_faulty\": 0.75, "
        "\"next_phase_delta\": -0.25, \"change_acc_base\": 0.9, "
        "\"change_acc_faulty\": 0.8, \"change_delta\": 0.1, "
        "\"length_acc_base\": 1, \"length_acc_faulty\": 0.125, "
        "\"length_delta\": 0.875, \"repairs\": 9, "
        "\"quarantines\": 10, \"ecc_corrections\": 11, "
        "\"rejected_cpi_samples\": 12, \"adapt_measured\": false, "
        "\"adapt_oracle_frac_base\": 0.7, "
        "\"adapt_oracle_frac_faulty\": 0.65, "
        "\"adapt_oracle_delta\": 0.05, \"checkpointed\": true}";
    EXPECT_EQ(toJson(r), one);
    EXPECT_EQ(toJson(std::vector<ResilienceReport>{}), "[\n]\n");
    EXPECT_EQ(toJson(std::vector<ResilienceReport>{r, r}),
              "[\n  " + one + ",\n  " + one + "\n]\n");
}
