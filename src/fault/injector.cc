#include "fault/injector.hh"

#include <cmath>
#include <iterator>
#include <limits>

#include "common/state_io.hh"
#include "common/status.hh"
#include "phase/accumulator_table.hh"
#include "phase/classifier.hh"
#include "phase/signature_table.hh"
#include "pred/phase_tracker.hh"

namespace tpcp::fault
{

namespace
{

constexpr const char *kTargetNames[] = {
    "accum", "signature", "metadata", "change-table",
    "length-table", "input", "serve-checkpoint", "serve-frame",
    "all",
};

/** Plausibility bound of the mitigated CPI gate: no modelled machine
 * sustains more than this many cycles per instruction. */
constexpr double kCpiPlausibleMax = 100.0;

} // namespace

const char *
targetName(Target t)
{
    return kTargetNames[static_cast<unsigned>(t)];
}

Target
targetByName(const std::string &name)
{
    for (unsigned i = 0; i < std::size(kTargetNames); ++i)
        if (name == kTargetNames[i])
            return static_cast<Target>(i);
    tpcp_raise("unknown fault target '", name,
               "' (run with --target help for the list)");
}

const std::vector<std::string> &
targetNames()
{
    static const std::vector<std::string> names(
        std::begin(kTargetNames), std::end(kTargetNames));
    return names;
}

Injector::Injector(const InjectorConfig &config,
                   std::string_view stream)
    : cfg(config), rng(Rng(stream).fork(config.seed))
{
}

bool
Injector::targets(Target t) const
{
    return cfg.target == Target::All || cfg.target == t;
}

void
Injector::beforeInterval(pred::PhaseTracker &tracker,
                         std::vector<std::uint32_t> &raw, double &cpi)
{
    if (cfg.ratePerInterval <= 0.0)
        return;
    const double p = cfg.ratePerInterval;

    // Fixed draw order per interval keeps the stream deterministic;
    // each structure sees an independent Bernoulli trial.
    if (targets(Target::AccumCounters) && rng.nextBool(p) &&
        !raw.empty()) {
        std::size_t idx = rng.nextBounded(
            static_cast<std::uint32_t>(raw.size()));
        // The flip lands inside the physical counter.
        unsigned bit = rng.nextBounded(phase::kAccumBits);
        if (!cfg.mitigated) {
            std::uint32_t v = raw[idx] ^ (std::uint32_t(1) << bit);
            raw[idx] = v > phase::kAccumMax ? phase::kAccumMax : v;
        }
        // Mitigated: the 16x24-bit accumulator file is narrow enough
        // for per-counter SEC-DED, so a single flip is corrected in
        // place (the draw still happened — the fault occurred, the
        // hardware absorbed it).
        ++counts_.accumFlips;
    }

    phase::SignatureTable &table =
        tracker.mutableClassifier().mutableTable();
    if (targets(Target::SignatureRows) && rng.nextBool(p) &&
        table.size() != 0 && table.rowSize() != 0) {
        std::uint32_t idx = rng.nextBounded(
            static_cast<std::uint32_t>(table.size()));
        unsigned bit = rng.nextBounded(
            static_cast<std::uint32_t>(table.rowSize() * 8));
        // Raw flip either way: detection is the classifier's job
        // (parityProtect quarantines and repairs the row; without it
        // the corrupt signature is silently matched against).
        table.flipSignatureBit(idx, bit);
        ++counts_.signatureFlips;
    }

    if (targets(Target::Metadata) && rng.nextBool(p) &&
        table.size() != 0) {
        std::uint32_t idx = rng.nextBounded(
            static_cast<std::uint32_t>(table.size()));
        bool hit_counter = rng.nextBool();
        unsigned bit = rng.nextBounded(6);
        if (!cfg.mitigated) {
            // Narrow fields: an unprotected flip lands directly.
            if (hit_counter) {
                SatCounter &c = table.meta(idx).minCounter;
                c.set(c.value() ^ (std::uint64_t(1) << bit));
            } else {
                // A flip in the stored fixed-point threshold; drawn
                // as fresh garbage in [0,1).
                table.setThreshold(idx, rng.nextDouble());
            }
        }
        // Mitigated: the narrow metadata is fully ECC-protected, so
        // the error is corrected in place (the draw still happened —
        // the fault occurred, the hardware absorbed it).
        ++counts_.metadataFaults;
    }

    if (targets(Target::ChangeTable) && rng.nextBool(p)) {
        pred::PhaseChangePredictor *change =
            tracker.mutablePredictor().mutableChangePredictor();
        if (change && change->injectFault(rng, cfg.mitigated))
            ++counts_.changeTableFaults;
    }

    if (targets(Target::LengthTable) && rng.nextBool(p)) {
        if (tracker.mutableLengthPredictor().injectFault(
                rng, cfg.mitigated))
            ++counts_.lengthTableFaults;
    }

    if (targets(Target::InputStats) && rng.nextBool(p)) {
        switch (rng.nextBounded(3)) {
          case 0:
            cpi = std::numeric_limits<double>::quiet_NaN();
            break;
          case 1:
            cpi = -cpi;
            break;
          default:
            // Finite garbage: plausible-looking but wildly wrong.
            cpi = cpi * 1024.0 + 1.0;
            break;
        }
        // The classifier structurally rejects non-finite/negative
        // samples; the mitigated plausibility gate also catches the
        // finite-garbage mode and drops the sample cleanly.
        if (cfg.mitigated &&
            !(std::isfinite(cpi) && cpi >= 0.0 &&
              cpi <= kCpiPlausibleMax))
            cpi = std::numeric_limits<double>::quiet_NaN();
        ++counts_.inputFaults;
    }
}

bool
Injector::corruptCheckpoint(std::vector<std::uint8_t> &image)
{
    if (!targets(Target::ServeCheckpoint) ||
        cfg.ratePerInterval <= 0.0 ||
        !rng.nextBool(cfg.ratePerInterval))
        return false;

    const unsigned mode = rng.nextBounded(4);
    if (mode == 0 && !image.empty()) {
        // Torn write: the tail is gone.
        image.resize(rng.nextBounded(
            static_cast<std::uint32_t>(image.size())));
    } else if (mode == 1 && !image.empty()) {
        // Media corruption: one flipped bit anywhere.
        const std::uint32_t bit = rng.nextBounded(
            static_cast<std::uint32_t>(image.size() * 8));
        image[bit / 8] ^= std::uint8_t(1) << (bit % 8);
    } else {
        // Crash right at creation (empty) or before the image was
        // kept at all (mode 3, gone): either way no byte survives.
        image.clear();
    }
    ++counts_.serveCheckpointFaults;
    return true;
}

bool
Injector::maybeCorruptFrame(std::uint8_t *frame, std::size_t size)
{
    if (!targets(Target::ServeFrame) || size == 0 ||
        cfg.ratePerInterval <= 0.0 ||
        !rng.nextBool(cfg.ratePerInterval))
        return false;
    const std::uint32_t bit =
        rng.nextBounded(static_cast<std::uint32_t>(size * 8));
    frame[bit / 8] ^= std::uint8_t(1) << (bit % 8);
    ++counts_.serveFrameFlips;
    return true;
}

void
Injector::saveState(StateWriter &w) const
{
    rng.saveState(w);
    w.u64(counts_.accumFlips);
    w.u64(counts_.signatureFlips);
    w.u64(counts_.metadataFaults);
    w.u64(counts_.changeTableFaults);
    w.u64(counts_.lengthTableFaults);
    w.u64(counts_.inputFaults);
    w.u64(counts_.serveCheckpointFaults);
    w.u64(counts_.serveFrameFlips);
}

void
Injector::loadState(StateReader &r)
{
    rng.loadState(r);
    counts_.accumFlips = r.u64();
    counts_.signatureFlips = r.u64();
    counts_.metadataFaults = r.u64();
    counts_.changeTableFaults = r.u64();
    counts_.lengthTableFaults = r.u64();
    counts_.inputFaults = r.u64();
    counts_.serveCheckpointFaults = r.u64();
    counts_.serveFrameFlips = r.u64();
}

} // namespace tpcp::fault
