/**
 * @file
 * Tests for the profile cache: build-and-cache semantics and cache
 * path construction. Uses a tiny interval count to stay fast.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/state_io.hh"
#include "common/status.hh"
#include "trace/profile_cache.hh"
#include "trace/trace_file.hh"
#include "uarch/machine_config.hh"

using namespace tpcp;
using namespace tpcp::trace;

namespace
{

ProfileOptions
tinyOptions(const std::string &dir)
{
    ProfileOptions opts;
    opts.intervalLen = 50'000;
    opts.dims = {16};
    opts.coreName = "simple"; // fast core for tests
    opts.cacheDir = dir;
    return opts;
}

/** The message of the tpcp::Error @p fn raises ("" if none). */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const Error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(ProfileCache, PathEncodesOptions)
{
    ProfileOptions opts;
    opts.intervalLen = 12345;
    opts.dims = {8, 16};
    opts.coreName = "ooo";
    opts.cacheDir = "/tmp/cachex";
    std::string path = profileCachePath("gcc/1", opts);
    EXPECT_NE(path.find("gcc_1"), std::string::npos);
    EXPECT_NE(path.find("ooo"), std::string::npos);
    EXPECT_NE(path.find("i12345"), std::string::npos);
    EXPECT_NE(path.find("d8-16"), std::string::npos);
    EXPECT_NE(path.find("/tmp/cachex"), std::string::npos);
}

TEST(ProfileCache, BuildThenLoadIdentical)
{
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_test";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);

    workload::Workload w = workload::makeWorkload("perl/d");
    IntervalProfile first = getProfile(w, opts);
    ASSERT_GT(first.numIntervals(), 0u);
    EXPECT_TRUE(std::filesystem::exists(
        profileCachePath(w.name, opts)));

    // The cache file is the profile's trace with an empty source
    // note.
    EXPECT_EQ(readFile(profileCachePath(w.name, opts)),
              encodeTrace(first, ""));

    // Second call loads from disk; contents must be identical.
    IntervalProfile second = getProfile(w, opts);
    EXPECT_EQ(encodeTrace(second, ""), encodeTrace(first, ""));
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, UseCacheFalseSkipsDisk)
{
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_test2";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);
    opts.useCache = false;
    workload::Workload w = workload::makeWorkload("perl/d");
    IntervalProfile p = buildProfile(w, opts);
    EXPECT_GT(p.numIntervals(), 0u);
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(ProfileCache, DeterministicRebuild)
{
    ProfileOptions opts = tinyOptions("");
    opts.useCache = false;
    workload::Workload w = workload::makeWorkload("perl/d");
    IntervalProfile a = buildProfile(w, opts);
    IntervalProfile b = buildProfile(w, opts);
    ASSERT_GT(a.numIntervals(), 0u);
    EXPECT_EQ(encodeTrace(a, ""), encodeTrace(b, ""));
}

TEST(ProfileCache, MachineHashTagsNonDefaultConfigs)
{
    ProfileOptions table1;
    ProfileOptions custom;
    custom.machine.dcache.sizeBytes = 8 * 1024;
    std::string p1 = profileCachePath("mcf", table1);
    std::string p2 = profileCachePath("mcf", custom);
    EXPECT_NE(p1, p2) << "different machines must not share caches";
    EXPECT_EQ(p1.find("_m"), std::string::npos)
        << "Table-1 profiles keep the short name";
    EXPECT_NE(p2.find("_m"), std::string::npos);
}

TEST(ProfileCache, EnvironmentVariableOverridesDirectory)
{
    ProfileOptions opts; // no explicit cacheDir
    setenv("TPCP_PROFILE_DIR", "/tmp/tpcp_env_dir", 1);
    std::string path = profileCachePath("mcf", opts);
    unsetenv("TPCP_PROFILE_DIR");
    EXPECT_EQ(path.find("/tmp/tpcp_env_dir"), 0u);
}

TEST(ProfileCache, EmptyEnvironmentVariableMeansUnset)
{
    // An exported but empty TPCP_PROFILE_DIR must not put the cache
    // in the working directory.
    const char *old = std::getenv("TPCP_PROFILE_DIR");
    const std::string saved = old ? old : "";
    ProfileOptions opts; // no explicit cacheDir
    unsetenv("TPCP_PROFILE_DIR");
    const std::string unset = profileCachePath("mcf", opts);
    setenv("TPCP_PROFILE_DIR", "", 1);
    const std::string empty = profileCachePath("mcf", opts);
    if (old)
        setenv("TPCP_PROFILE_DIR", saved.c_str(), 1);
    else
        unsetenv("TPCP_PROFILE_DIR");
    EXPECT_EQ(unset.rfind("tpcp_profiles/", 0), 0u) << unset;
    EXPECT_EQ(empty, unset);
}

TEST(ProfileCache, CustomMachineChangesTiming)
{
    // A machine with a much slower memory must yield higher CPI on a
    // memory-bound workload.
    ProfileOptions fast = {};
    fast.intervalLen = 50'000;
    fast.dims = {16};
    fast.coreName = "simple";
    fast.useCache = false;
    ProfileOptions slow = fast;
    slow.machine.memoryLatency = 480;

    workload::Workload w = workload::makeWorkload("perl/d");
    IntervalProfile pf = buildProfile(w, fast);
    IntervalProfile ps = buildProfile(w, slow);
    double cf = 0, cs = 0;
    for (std::size_t i = 0; i < pf.numIntervals(); ++i) {
        cf += pf.interval(i).cpi;
        cs += ps.interval(i).cpi;
    }
    EXPECT_GT(cs, cf * 1.5);
}

TEST(ProfileCache, TimingParamsChangeCachePath)
{
    // Machines differing only in a timing parameter the old name
    // hash omitted must not share a cache file.
    ProfileOptions base;
    std::string base_path = profileCachePath("mcf", base);

    ProfileOptions dlat = base;
    dlat.machine.dcache.hitLatency += 2;
    EXPECT_NE(profileCachePath("mcf", dlat), base_path);

    ProfileOptions l2lat = base;
    l2lat.machine.l2.hitLatency += 4;
    EXPECT_NE(profileCachePath("mcf", l2lat), base_path);

    ProfileOptions bpred = base;
    bpred.machine.branchPred.mispredictPenalty += 1;
    EXPECT_NE(profileCachePath("mcf", bpred), base_path);

    ProfileOptions tlb = base;
    tlb.machine.dtlb.missLatency += 10;
    EXPECT_NE(profileCachePath("mcf", tlb), base_path);
}

TEST(ProfileCache, MismatchedMachineHashRejectedOnLoad)
{
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_mismatch";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);
    workload::Workload w = workload::makeWorkload("perl/d");

    IntervalProfile first = getProfile(w, opts);
    std::string path = profileCachePath(w.name, opts);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Tamper with the stored machine hash, as if the file had been
    // produced by a build whose timing parameters silently differed.
    IntervalProfile tampered = readTrace(path).profile;
    tampered.setMachineHash(tampered.machineHash() ^ 1);
    ASSERT_TRUE(tampered.save(path));

    resetProfileCacheStats();
    IntervalProfile second = getProfile(w, opts);
    ProfileCacheStats stats = profileCacheStats();
    EXPECT_EQ(stats.rejects, 1u);
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.hits, 0u);
    ASSERT_EQ(second.numIntervals(), first.numIntervals());
    for (std::size_t i = 0; i < first.numIntervals(); ++i)
        EXPECT_DOUBLE_EQ(second.interval(i).cpi,
                         first.interval(i).cpi);
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, CorruptCacheFileRebuilt)
{
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_corrupt";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);
    workload::Workload w = workload::makeWorkload("perl/d");

    IntervalProfile first = getProfile(w, opts);
    std::string path = profileCachePath(w.name, opts);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("corrupt", f);
    std::fclose(f);

    resetProfileCacheStats();
    IntervalProfile second = getProfile(w, opts);
    EXPECT_EQ(profileCacheStats().rejects, 1u);
    EXPECT_EQ(profileCacheStats().builds, 1u);
    ASSERT_EQ(second.numIntervals(), first.numIntervals());

    // The rebuild must have repaired the cache file.
    resetProfileCacheStats();
    IntervalProfile third = getProfile(w, opts);
    EXPECT_EQ(profileCacheStats().hits, 1u);
    EXPECT_EQ(profileCacheStats().builds, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, RequireCacheRaisesOnColdOrCorruptCache)
{
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_require";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);
    opts.requireCache = true;
    workload::Workload w = workload::makeWorkload("perl/d");

    // Cold cache: strict mode surfaces the miss instead of silently
    // spending simulation time.
    EXPECT_THROW(getProfile(w, opts), Error);

    // Warm the cache, then strict mode serves the file normally.
    ProfileOptions build = tinyOptions(dir);
    getProfile(w, build);
    resetProfileCacheStats();
    IntervalProfile p = getProfile(w, opts);
    EXPECT_GT(p.numIntervals(), 0u);
    EXPECT_EQ(profileCacheStats().hits, 1u);
    EXPECT_EQ(profileCacheStats().builds, 0u);

    // A corrupt cache file is an error in strict mode, not a rebuild.
    std::string path = profileCachePath(w.name, opts);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("corrupt", f);
    std::fclose(f);
    EXPECT_THROW(getProfile(w, opts), Error);
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, ConcurrentGetProfileBuildsOnce)
{
    // A stampede of getProfile() calls for the same cold profile
    // must run the simulation exactly once; everyone else waits and
    // loads the cached file.
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_stampede";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);
    workload::Workload w = workload::makeWorkload("perl/d");

    resetProfileCacheStats();
    constexpr unsigned num_threads = 8;
    std::vector<IntervalProfile> results(num_threads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < num_threads; ++t)
        threads.emplace_back([&, t] {
            results[t] = getProfile(w, opts);
        });
    for (std::thread &t : threads)
        t.join();

    ProfileCacheStats stats = profileCacheStats();
    EXPECT_EQ(stats.builds, 1u)
        << "the simulation ran more than once";
    EXPECT_EQ(stats.hits, num_threads - 1);
    EXPECT_EQ(stats.rejects, 0u);
    for (unsigned t = 1; t < num_threads; ++t)
        EXPECT_EQ(encodeTrace(results[t], ""),
                  encodeTrace(results[0], ""));
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, NoTempFilesLeftBehind)
{
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_tmpfiles";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);
    workload::Workload w = workload::makeWorkload("perl/d");
    getProfile(w, opts);
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(e.path().extension(), ".tpcptrace")
            << "leftover temp file: " << e.path();
    }
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, ByNameHitMatchesGetProfileBytes)
{
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_byname";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);
    getProfileByName("perl/d", opts); // cold: builds and caches

    resetProfileCacheStats();
    const IntervalProfile byName = getProfileByName("perl/d", opts);
    const IntervalProfile byModel =
        getProfile(workload::makeWorkload("perl/d"), opts);
    EXPECT_EQ(profileCacheStats().hits, 2u);
    EXPECT_EQ(profileCacheStats().builds, 0u);
    EXPECT_EQ(encodeTrace(byName, "test"), encodeTrace(byModel, "test"));
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, UnknownNameRaisesBeforeTheCache)
{
    EXPECT_NE(errorOf([] { getProfileByName("nosuch"); })
                  .find("unknown workload 'nosuch'"),
              std::string::npos);

    // A stray file under the unknown name's cache path, valid in
    // every field getProfile checks, must not turn into a hit.
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_unknown";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ProfileOptions opts = tinyOptions(dir);
    opts.requireCache = true;
    IntervalProfile stray("no/such", opts.coreName, opts.intervalLen,
                          opts.dims);
    stray.setMachineHash(uarch::configHash(opts.machine));
    IntervalRecord rec;
    rec.cpi = 1.0;
    rec.insts = opts.intervalLen;
    stray.push(rec, std::vector<std::uint32_t>(16, 1));
    const std::string path = profileCachePath("no/such", opts);
    ASSERT_NE(path.find("no_such"), std::string::npos);
    ASSERT_TRUE(stray.save(path));
    ASSERT_NO_THROW(readTrace(path));

    resetProfileCacheStats();
    EXPECT_NE(errorOf([&] { getProfileByName("no/such", opts); })
                  .find("unknown workload 'no/such'"),
              std::string::npos);
    EXPECT_EQ(profileCacheStats().hits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, RequireCacheMissOfKnownNameRaises)
{
    std::string dir =
        std::string(::testing::TempDir()) + "tpcp_cache_byname_miss";
    std::filesystem::remove_all(dir);
    ProfileOptions opts = tinyOptions(dir);
    opts.requireCache = true;
    resetProfileCacheStats();
    EXPECT_NE(errorOf([&] { getProfileByName("perl/d", opts); })
                  .find("no cached profile"),
              std::string::npos);
    EXPECT_EQ(profileCacheStats().builds, 0u);
    std::filesystem::remove_all(dir);
}
