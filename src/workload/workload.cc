#include "workload/workload.hh"

#include <functional>
#include <map>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "common/rng.hh"
#include "workload/program_builder.hh"

namespace tpcp::workload
{

namespace
{

/** Instructions per nominal profiling interval; scripts are sized in
 * these units so dwell times read as "intervals" (paper scale: 10M;
 * repository scale: 100K - see DESIGN.md). */
constexpr InstCount kInterval = 100'000;

InstCount
I(double intervals)
{
    return static_cast<InstCount>(intervals *
                                  static_cast<double>(kInterval));
}

/** n x n row-stochastic matrix: selfProb on the diagonal, the rest
 * uniform off-diagonal. */
std::vector<std::vector<double>>
uniformMarkov(std::size_t n, double self_prob)
{
    std::vector<std::vector<double>> m(n, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            m[i][j] = (i == j)
                          ? self_prob
                          : (1.0 - self_prob) /
                                static_cast<double>(n - 1);
        }
    }
    return m;
}

// ---------------------------------------------------------------------
// ammp: FP molecular dynamics. A few large, very stable phases
// alternating in a fixed outer loop; low branch-misprediction noise.
// ---------------------------------------------------------------------
Workload
makeAmmp()
{
    Workload w;
    w.name = "ammp";
    w.description = "FP molecular dynamics: few long stable phases";
    w.seed = fnv1a64(w.name);
    ProgramBuilder pb(w.seed);

    RegionParams setup;
    setup.name = "setup";
    setup.numBlocks = 24;
    setup.avgBlockInsts = 10;
    setup.loadFrac = 0.3;
    setup.storeFrac = 0.15;
    setup.workingSetBytes = 48 * 1024;
    setup.numStreams = 4;
    setup.bernoulliFrac = 0.25;
    setup.ilp = 4;
    auto r_setup = pb.addRegion(setup);

    RegionParams force;
    force.name = "fp_force";
    force.numBlocks = 16;
    force.avgBlockInsts = 16;
    force.loadFrac = 0.25;
    force.storeFrac = 0.08;
    force.fpFrac = 0.4;
    force.workingSetBytes = 96 * 1024;
    force.numStreams = 6;
    force.strideBytes = 16;
    force.bernoulliFrac = 0.1;
    force.loopTrip = 64;
    force.innerLoopFrac = 0.3;
    force.innerLoopTrip = 16;
    force.ilp = 3;
    auto r_force = pb.addRegion(force);

    RegionParams neighbor;
    neighbor.name = "fp_neighbor";
    neighbor.numBlocks = 12;
    neighbor.avgBlockInsts = 12;
    neighbor.loadFrac = 0.32;
    neighbor.storeFrac = 0.06;
    neighbor.fpFrac = 0.2;
    neighbor.workingSetBytes = 1536 * 1024;
    neighbor.randomAccessFrac = 0.4;
    neighbor.numStreams = 6;
    neighbor.bernoulliFrac = 0.3;
    neighbor.takenProb = 0.4;
    neighbor.ilp = 5;
    auto r_neighbor = pb.addRegion(neighbor);

    RegionParams update;
    update.name = "fp_update";
    update.numBlocks = 8;
    update.avgBlockInsts = 14;
    update.loadFrac = 0.22;
    update.storeFrac = 0.18;
    update.fpFrac = 0.45;
    update.workingSetBytes = 12 * 1024;
    update.numStreams = 4;
    update.bernoulliFrac = 0.05;
    update.innerLoopFrac = 0.35;
    update.innerLoopTrip = 20;
    update.ilp = 6;
    auto r_update = pb.addRegion(update);

    w.program = pb.build(w.name);
    w.script = scriptSeq({
        scriptRun(r_setup, I(20), 0.1),
        scriptLoop(scriptSeq({
                       scriptRun(r_force, I(60), 0.12),
                       scriptRun(r_neighbor, I(30), 0.15),
                       scriptRun(r_update, I(10), 0.15),
                   }),
                   12),
    });
    return w;
}

// ---------------------------------------------------------------------
// bzip2: block-sorting compressor. Hierarchical phase pattern: an
// outer loop over file blocks, each block passing through read /
// sort / huffman / output stages. The two inputs differ in stage
// dwell ratios and working sets.
// ---------------------------------------------------------------------
Workload
makeBzip2(bool graphic)
{
    Workload w;
    w.name = graphic ? "bzip2/g" : "bzip2/p";
    w.description = "block compressor: hierarchical phase pattern";
    w.seed = fnv1a64(w.name);
    ProgramBuilder pb(w.seed);

    RegionParams read;
    read.name = "read";
    read.numBlocks = 10;
    read.avgBlockInsts = 9;
    read.loadFrac = 0.35;
    read.storeFrac = 0.2;
    read.workingSetBytes = 96 * 1024;
    read.strideBytes = 8;
    read.numStreams = 3;
    read.bernoulliFrac = 0.15;
    auto r_read = pb.addRegion(read);

    RegionParams sort_a;
    sort_a.name = "sort_main";
    sort_a.numBlocks = 20;
    sort_a.avgBlockInsts = 8;
    sort_a.loadFrac = 0.3;
    sort_a.storeFrac = 0.1;
    sort_a.workingSetBytes = graphic ? 1024 * 1024 : 512 * 1024;
    sort_a.randomAccessFrac = 0.5;
    sort_a.numStreams = 5;
    sort_a.bernoulliFrac = 0.55;
    sort_a.takenProb = 0.5;
    sort_a.innerLoopFrac = 0.25;
    sort_a.innerLoopTrip = 6;
    sort_a.ilp = 3;
    auto r_sort_a = pb.addRegion(sort_a);

    RegionParams sort_b;
    sort_b.name = "sort_fallback";
    sort_b.numBlocks = 14;
    sort_b.avgBlockInsts = 10;
    sort_b.loadFrac = 0.28;
    sort_b.storeFrac = 0.12;
    sort_b.workingSetBytes = 256 * 1024;
    sort_b.randomAccessFrac = 0.3;
    sort_b.numStreams = 4;
    sort_b.bernoulliFrac = 0.45;
    sort_b.innerLoopFrac = 0.2;
    sort_b.innerLoopTrip = 10;
    sort_b.ilp = 3;
    auto r_sort_b = pb.addRegion(sort_b);

    RegionParams huffman;
    huffman.name = "huffman";
    huffman.numBlocks = 12;
    huffman.avgBlockInsts = 11;
    huffman.loadFrac = 0.22;
    huffman.storeFrac = 0.08;
    huffman.workingSetBytes = 12 * 1024;
    huffman.numStreams = 3;
    huffman.bernoulliFrac = 0.2;
    huffman.loopTrip = 48;
    huffman.innerLoopFrac = 0.3;
    huffman.innerLoopTrip = 12;
    huffman.ilp = 5;
    auto r_huffman = pb.addRegion(huffman);

    RegionParams output;
    output.name = "output";
    output.numBlocks = 8;
    output.avgBlockInsts = 10;
    output.loadFrac = 0.25;
    output.storeFrac = 0.25;
    output.workingSetBytes = 64 * 1024;
    output.numStreams = 3;
    output.bernoulliFrac = 0.1;
    auto r_output = pb.addRegion(output);

    w.program = pb.build(w.name);

    double sort_scale = graphic ? 1.0 : 0.6;
    double huff_scale = graphic ? 1.0 : 1.6;
    ScriptPtr file_block = scriptSeq({
        scriptRun(r_read, I(3), 0.25),
        scriptLoop(scriptSeq({
                       scriptRun(r_sort_a, I(8 * sort_scale), 0.3),
                       scriptRun(r_sort_b, I(4 * sort_scale), 0.3),
                   }),
                   3),
        scriptRun(r_huffman, I(6 * huff_scale), 0.25),
        scriptRun(r_output, I(2), 0.3),
    });
    w.script = scriptLoop(file_block, graphic ? 34 : 36);
    return w;
}

// ---------------------------------------------------------------------
// galgel: FP fluid dynamics; the hardest FP code for code-based
// classification. Several *similar* kernels plus blended and drifting
// mixtures keep signatures near the similarity-threshold boundary.
// ---------------------------------------------------------------------
Workload
makeGalgel()
{
    Workload w;
    w.name = "galgel";
    w.description = "FP fluid dynamics: overlapping kernel signatures";
    w.seed = fnv1a64(w.name);
    ProgramBuilder pb(w.seed);

    std::vector<std::uint32_t> kernels;
    for (int k = 0; k < 5; ++k) {
        RegionParams kp;
        kp.name = "kernel" + std::to_string(k);
        kp.numBlocks = 14 + 2 * k;
        kp.avgBlockInsts = 13;
        kp.loadFrac = 0.26;
        kp.storeFrac = 0.1;
        kp.fpFrac = 0.35 + 0.03 * k;
        kp.workingSetBytes = (64u + 48u * k) * 1024;
        kp.randomAccessFrac = 0.10 + 0.04 * k;
        kp.numStreams = 5;
        kp.strideBytes = 8 + 8 * k;
        kp.bernoulliFrac = 0.25;
        kp.takenProb = 0.45 + 0.02 * k;
        kp.innerLoopFrac = 0.2 + 0.05 * k;
        kp.innerLoopTrip = 6 + 4 * static_cast<unsigned>(k);
        kp.ilp = 3 + k % 3;
        kernels.push_back(pb.addRegion(kp));
    }

    w.program = pb.build(w.name);

    std::vector<ScriptPtr> states = {
        scriptRun(kernels[0], I(12), 0.25),
        scriptRun(kernels[1], I(9), 0.25),
        scriptMix({{kernels[0], 0.5}, {kernels[2], 0.5}}, I(15),
                  20'000),
        scriptRun(kernels[3], I(10), 0.25),
        scriptDrift(kernels[1], kernels[4], I(30), 25'000, 0.2, 0.8),
        scriptMix({{kernels[2], 0.4}, {kernels[3], 0.6}}, I(12),
                  25'000),
    };
    w.script = scriptMarkov(states, uniformMarkov(states.size(), 0.3),
                            90);
    return w;
}

// ---------------------------------------------------------------------
// gcc: the hardest integer code. Many distinct compiler passes with
// large instruction footprints, short dwell times and frequent
// irregular transitions. The scilab input has even shorter stable
// runs (the paper reports ~30% transition time at min-count 8).
// ---------------------------------------------------------------------
Workload
makeGcc(bool input166)
{
    Workload w;
    w.name = input166 ? "gcc/1" : "gcc/s";
    w.description = "compiler: many short irregular phases, big code";
    w.seed = fnv1a64(w.name);
    ProgramBuilder pb(w.seed);

    static const char *pass_names[] = {
        "lex",   "parse", "tree",  "expand", "cse",  "loop",
        "flow",  "combine", "sched", "regalloc", "reload",
        "peephole", "dwarf", "emit",
    };
    constexpr unsigned n_passes = 14;

    std::vector<std::uint32_t> passes;
    Rng tune(w.seed ^ 0x9e3779b97f4a7c15ULL);
    for (unsigned p = 0; p < n_passes; ++p) {
        RegionParams rp;
        rp.name = pass_names[p];
        rp.numBlocks = 90 + static_cast<unsigned>(tune.nextRange(0, 140));
        rp.avgBlockInsts = 8 + static_cast<unsigned>(tune.nextRange(0, 6));
        rp.loadFrac = 0.24 + 0.06 * tune.nextDouble();
        rp.storeFrac = 0.08 + 0.08 * tune.nextDouble();
        rp.intMulFrac = 0.01;
        rp.workingSetBytes =
            (32u + static_cast<unsigned>(tune.nextRange(0, 256))) *
            1024;
        rp.randomAccessFrac = 0.15 + 0.25 * tune.nextDouble();
        rp.numStreams = 5;
        rp.branchDensity = 0.85;
        rp.bernoulliFrac = 0.35;
        rp.takenProb = 0.35 + 0.3 * tune.nextDouble();
        rp.loopTrip = 8 + static_cast<unsigned>(tune.nextRange(0, 24));
        rp.innerLoopFrac =
            0.12 + 0.12 * tune.nextDouble();
        rp.innerLoopTrip =
            4 + static_cast<unsigned>(tune.nextRange(0, 8));
        rp.ilp = 3;
        passes.push_back(pb.addRegion(rp));
    }

    w.program = pb.build(w.name);

    double dwell = input166 ? 3.0 : 1.8;
    double self = input166 ? 0.25 : 0.15;
    unsigned steps = input166 ? 300 : 420;
    std::vector<ScriptPtr> states;
    for (unsigned p = 0; p < n_passes; ++p) {
        double d = dwell * (0.6 + 0.08 * (p % 6));
        states.push_back(scriptRun(passes[p], I(d), 0.35));
    }
    // A couple of blended states model pass pipelines that interleave.
    states.push_back(scriptMix(
        {{passes[2], 0.5}, {passes[3], 0.5}}, I(dwell * 1.5), 15'000));
    states.push_back(scriptMix(
        {{passes[8], 0.4}, {passes[9], 0.6}}, I(dwell * 1.5), 15'000));

    w.script = scriptMarkov(states,
                            uniformMarkov(states.size(), self), steps);
    return w;
}

// ---------------------------------------------------------------------
// gzip: LZ77 compressor with long, very stable deflate phases broken
// by short Huffman/window bursts. The graphic input spends most of
// its time in a handful of very long runs (the paper reports
// exceptionally high average phase lengths and 40% of transitions
// into long phases).
// ---------------------------------------------------------------------
Workload
makeGzip(bool graphic)
{
    Workload w;
    w.name = graphic ? "gzip/g" : "gzip/p";
    w.description = "LZ compressor: long stable deflate phases";
    w.seed = fnv1a64(w.name);
    ProgramBuilder pb(w.seed);

    RegionParams deflate_a;
    deflate_a.name = "deflate_a";
    deflate_a.numBlocks = 18;
    deflate_a.avgBlockInsts = 10;
    deflate_a.loadFrac = 0.3;
    deflate_a.storeFrac = 0.1;
    deflate_a.workingSetBytes = 128 * 1024;
    deflate_a.randomAccessFrac = 0.25;
    deflate_a.numStreams = 5;
    deflate_a.bernoulliFrac = 0.35;
    deflate_a.takenProb = 0.6;
    deflate_a.innerLoopFrac = 0.25;
    deflate_a.innerLoopTrip = 8;
    deflate_a.ilp = 4;
    auto r_deflate_a = pb.addRegion(deflate_a);

    RegionParams deflate_b = deflate_a;
    deflate_b.name = "deflate_b";
    deflate_b.workingSetBytes = 256 * 1024;
    deflate_b.randomAccessFrac = 0.35;
    deflate_b.takenProb = 0.5;
    auto r_deflate_b = pb.addRegion(deflate_b);

    RegionParams huff;
    huff.name = "huffman";
    huff.numBlocks = 10;
    huff.avgBlockInsts = 12;
    huff.loadFrac = 0.2;
    huff.storeFrac = 0.08;
    huff.workingSetBytes = 10 * 1024;
    huff.numStreams = 3;
    huff.bernoulliFrac = 0.15;
    huff.loopTrip = 40;
    huff.ilp = 5;
    auto r_huff = pb.addRegion(huff);

    RegionParams window;
    window.name = "fill_window";
    window.numBlocks = 8;
    window.avgBlockInsts = 9;
    window.loadFrac = 0.35;
    window.storeFrac = 0.3;
    window.workingSetBytes = 96 * 1024;
    window.strideBytes = 8;
    window.numStreams = 3;
    window.bernoulliFrac = 0.1;
    auto r_window = pb.addRegion(window);

    w.program = pb.build(w.name);

    if (graphic) {
        w.script = scriptSeq({
            scriptRun(r_deflate_a, I(1060), 0.03),
            scriptRun(r_huff, I(25), 0.2),
            scriptRun(r_deflate_b, I(420), 0.05),
            scriptRun(r_huff, I(15), 0.2),
            scriptLoop(scriptSeq({
                           scriptRun(r_window, I(7), 0.25),
                           scriptRun(r_huff, I(5), 0.25),
                       }),
                       12),
            scriptRun(r_deflate_a, I(300), 0.05),
        });
    } else {
        w.script = scriptLoop(scriptSeq({
                                  scriptRun(r_deflate_a, I(22), 0.2),
                                  scriptRun(r_huff, I(9), 0.25),
                                  scriptRun(r_deflate_b, I(14), 0.2),
                                  scriptRun(r_window, I(4), 0.3),
                              }),
                              30);
    }
    return w;
}

// ---------------------------------------------------------------------
// mcf: network-simplex solver; pointer-based with a large number of
// cache misses. Its dominant phase *drifts* (the working set grows as
// the network is refined), which is why the paper finds a single
// static similarity threshold fits it poorly (section 4.6).
// ---------------------------------------------------------------------
Workload
makeMcf()
{
    Workload w;
    w.name = "mcf";
    w.description = "pointer chasing, miss-dominated, drifting phase";
    w.seed = fnv1a64(w.name);
    ProgramBuilder pb(w.seed);

    RegionParams simplex_a;
    simplex_a.name = "simplex_early";
    simplex_a.numBlocks = 16;
    simplex_a.avgBlockInsts = 9;
    simplex_a.loadFrac = 0.3;
    simplex_a.storeFrac = 0.08;
    simplex_a.workingSetBytes = 768 * 1024;
    simplex_a.pointerChaseFrac = 0.3;
    simplex_a.randomAccessFrac = 0.3;
    simplex_a.numStreams = 6;
    simplex_a.bernoulliFrac = 0.5;
    simplex_a.takenProb = 0.45;
    simplex_a.ilp = 3;
    auto r_simplex_a = pb.addRegion(simplex_a);

    RegionParams simplex_b = simplex_a;
    simplex_b.name = "simplex_late";
    simplex_b.workingSetBytes = 8 * 1024 * 1024;
    simplex_b.pointerChaseFrac = 0.5;
    simplex_b.randomAccessFrac = 0.35;
    auto r_simplex_b = pb.addRegion(simplex_b);

    RegionParams price;
    price.name = "price_update";
    price.numBlocks = 10;
    price.avgBlockInsts = 11;
    price.loadFrac = 0.28;
    price.storeFrac = 0.15;
    price.workingSetBytes = 48 * 1024;
    price.strideBytes = 16;
    price.numStreams = 4;
    price.bernoulliFrac = 0.2;
    price.ilp = 5;
    auto r_price = pb.addRegion(price);

    w.program = pb.build(w.name);
    w.script = scriptLoop(
        scriptSeq({
            scriptDrift(r_simplex_a, r_simplex_b, I(64), 10'000, 0.05,
                        0.95),
            scriptRun(r_price, I(14), 0.25),
            scriptRun(r_simplex_b, I(26), 0.3),
        }),
        10);
    return w;
}

// ---------------------------------------------------------------------
// perl: interpreter. diffmail is a comparatively short run with a few
// long stable phases; splitmail wanders between more states and
// includes drift (benefits from adaptive thresholds).
// ---------------------------------------------------------------------
Workload
makePerl(bool diffmail)
{
    Workload w;
    w.name = diffmail ? "perl/d" : "perl/s";
    w.description = "interpreter: dispatch-dominated phases";
    w.seed = fnv1a64(w.name);
    ProgramBuilder pb(w.seed);

    RegionParams interp;
    interp.name = "interp";
    interp.numBlocks = 60;
    interp.avgBlockInsts = 8;
    interp.loadFrac = 0.3;
    interp.storeFrac = 0.12;
    interp.workingSetBytes = 256 * 1024;
    interp.randomAccessFrac = 0.3;
    interp.numStreams = 5;
    interp.branchDensity = 0.85;
    interp.bernoulliFrac = 0.5;
    interp.takenProb = 0.4;
    interp.innerLoopFrac = 0.2;
    interp.innerLoopTrip = 6;
    interp.ilp = 3;
    auto r_interp = pb.addRegion(interp);

    RegionParams regex;
    regex.name = "regex";
    regex.numBlocks = 24;
    regex.avgBlockInsts = 7;
    regex.loadFrac = 0.28;
    regex.storeFrac = 0.06;
    regex.workingSetBytes = 32 * 1024;
    regex.randomAccessFrac = 0.15;
    regex.numStreams = 4;
    regex.branchDensity = 0.9;
    regex.bernoulliFrac = 0.35;
    regex.takenProb = 0.55;
    regex.innerLoopFrac = 0.3;
    regex.innerLoopTrip = 12;
    regex.ilp = 2;
    auto r_regex = pb.addRegion(regex);

    RegionParams hash;
    hash.name = "hash";
    hash.numBlocks = 14;
    hash.avgBlockInsts = 10;
    hash.loadFrac = 0.32;
    hash.storeFrac = 0.14;
    hash.workingSetBytes = 1024 * 1024;
    hash.randomAccessFrac = 0.5;
    hash.numStreams = 5;
    hash.bernoulliFrac = 0.3;
    hash.ilp = 4;
    auto r_hash = pb.addRegion(hash);

    RegionParams gc;
    gc.name = "gc";
    gc.numBlocks = 12;
    gc.avgBlockInsts = 9;
    gc.loadFrac = 0.35;
    gc.storeFrac = 0.2;
    gc.workingSetBytes = 1536 * 1024;
    gc.pointerChaseFrac = 0.25;
    gc.randomAccessFrac = 0.3;
    gc.numStreams = 5;
    gc.bernoulliFrac = 0.4;
    gc.ilp = 3;
    auto r_gc = pb.addRegion(gc);

    RegionParams io;
    io.name = "io";
    io.numBlocks = 10;
    io.avgBlockInsts = 10;
    io.loadFrac = 0.3;
    io.storeFrac = 0.25;
    io.workingSetBytes = 96 * 1024;
    io.strideBytes = 8;
    io.numStreams = 3;
    io.bernoulliFrac = 0.1;
    auto r_io = pb.addRegion(io);

    w.program = pb.build(w.name);

    if (diffmail) {
        w.script = scriptSeq({
            scriptRun(r_interp, I(180), 0.05),
            scriptRun(r_regex, I(120), 0.05),
            scriptLoop(scriptSeq({
                           scriptRun(r_gc, I(25), 0.1),
                           scriptRun(r_interp, I(150), 0.05),
                           scriptRun(r_io, I(40), 0.1),
                           scriptRun(r_regex, I(80), 0.08),
                       }),
                       2),
        });
    } else {
        std::vector<ScriptPtr> states = {
            scriptRun(r_interp, I(16), 0.3),
            scriptRun(r_regex, I(8), 0.3),
            scriptRun(r_hash, I(10), 0.3),
            scriptRun(r_gc, I(5), 0.3),
            scriptRun(r_io, I(4), 0.3),
            scriptDrift(r_interp, r_hash, I(24), 30'000, 0.15, 0.85),
        };
        auto m = uniformMarkov(states.size(), 0.35);
        w.script = scriptMarkov(states, m, 110);
    }
    return w;
}

using Factory = std::function<Workload()>;

const std::map<std::string, Factory> &
factories()
{
    static const std::map<std::string, Factory> table = {
        {"ammp", [] { return makeAmmp(); }},
        {"bzip2/g", [] { return makeBzip2(true); }},
        {"bzip2/p", [] { return makeBzip2(false); }},
        {"galgel", [] { return makeGalgel(); }},
        {"gcc/1", [] { return makeGcc(true); }},
        {"gcc/s", [] { return makeGcc(false); }},
        {"gzip/g", [] { return makeGzip(true); }},
        {"gzip/p", [] { return makeGzip(false); }},
        {"mcf", [] { return makeMcf(); }},
        {"perl/d", [] { return makePerl(true); }},
        {"perl/s", [] { return makePerl(false); }},
    };
    return table;
}

} // namespace

std::unique_ptr<ExpandedSchedule>
Workload::makeSchedule() const
{
    Rng rng(seed ^ 0x5851f42d4c957f2dULL);
    return std::make_unique<ExpandedSchedule>(expandScript(script,
                                                           rng));
}

InstCount
Workload::totalInsts() const
{
    return makeSchedule()->totalInsts();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "ammp",   "bzip2/g", "bzip2/p", "galgel", "gcc/1", "gcc/s",
        "gzip/g", "gzip/p",  "mcf",     "perl/d", "perl/s",
    };
    return names;
}

bool
isWorkloadName(std::string_view name)
{
    return factories().count(std::string(name)) != 0;
}

Workload
makeWorkload(std::string_view name)
{
    auto it = factories().find(std::string(name));
    if (it == factories().end())
        tpcp_raise("unknown workload '", name,
                   "'; see workloadNames()");
    return it->second();
}

} // namespace tpcp::workload
