/**
 * @file
 * The stimulus builder: how a traffic pattern becomes requestors on a
 * system.
 *
 * Every driver of a synthetic or trace-driven run (dramctrl_cli, the
 * sweep library, the sharded-vs-sequential differ, the scaling
 * benches) describes its traffic as one Stimulus and hands it to
 * attachStimulus(). The rules live here and nowhere else:
 *
 *  - the address window is capped (64 MiB by default) and clamped to
 *    the memory behind the system;
 *  - a multi-channel system gets one generator per channel, the
 *    request budget split evenly, generator i playing in slice i of
 *    the memory (sliceGenWindow) with seed deriveSeed(seed, i);
 *  - a trace fans out as one player per recorded source id, sharded
 *    like the generators that recorded it;
 *  - the dram pattern is bank-aware and therefore single-channel, and
 *    the trace pattern needs a file.
 */

#ifndef DRAMCTRL_HARNESS_STIMULUS_H
#define DRAMCTRL_HARNESS_STIMULUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "trafficgen/base_gen.hh"
#include "trafficgen/trace.hh"

namespace dramctrl {
namespace harness {

class MultiChannelSystem;
class SingleChannelSystem;

/** The traffic shapes a run can be driven by. */
enum class Pattern {
    Linear, ///< sequential sweep of the window (LinearGen)
    Random, ///< uniform addresses in the window (RandomGen)
    Dram,   ///< bank-aware strides (DramGen); single-channel only
    Trace,  ///< replay of a text or .dtrc trace (TracePlayer)
};

const char *toString(Pattern p);

/** Inverse of toString(Pattern), for CLIs. */
bool fromString(const std::string &name, Pattern &out);

/** One run's traffic: a pattern and its knobs. */
struct Stimulus
{
    Pattern pattern = Pattern::Random;
    unsigned readPct = 100;
    double ittNs = 6.0;
    /**
     * Requests in total. A multi-channel system splits them evenly
     * over its generators, at least one each.
     */
    std::uint64_t requests = 20000;
    /**
     * Generator seed; generator i of a multi-channel system draws
     * from deriveSeed(seed, i).
     */
    std::uint64_t seed = 1;
    /** Cap on the address window (clamped to the memory). */
    std::uint64_t windowBytes = 1ULL << 26;
    /** dram pattern: sequential bytes per bank visit, banks cycled. */
    std::uint64_t strideBytes = 256;
    unsigned banks = 4;
    /** trace pattern: the file (text or .dtrc) and its time scale. */
    std::string tracePath;
    double traceScale = 1.0;
};

/**
 * Check @p s for a system of @p channels channels.
 * @return an empty string when valid, else the reason.
 */
std::string checkStimulus(const Stimulus &s, unsigned channels);

/** The requestors a stimulus attached: generators or trace players. */
struct Requestors
{
    std::vector<BaseGen *> gens;
    std::vector<TracePlayer *> players;

    /** Every requestor injected its budget and got its responses. */
    bool done() const;

    /** Responses received, summed over the requestors. */
    std::uint64_t responses() const;

    /**
     * Mean end-to-end read latency, ns. One requestor reports its own
     * mean; several pool their samples, each weighted by its read
     * count.
     */
    double avgReadLatencyNs() const;
};

/**
 * Attach @p s to @p tb: one generator, or one player for a trace.
 * fatal()s when checkStimulus() rejects @p s.
 */
Requestors attachStimulus(SingleChannelSystem &tb, const Stimulus &s);

/**
 * Attach @p s to @p mc: one generator per channel, or one player per
 * source id recorded in the trace. fatal()s when checkStimulus()
 * rejects @p s.
 */
Requestors attachStimulus(MultiChannelSystem &mc, const Stimulus &s);

} // namespace harness
} // namespace dramctrl

#endif // DRAMCTRL_HARNESS_STIMULUS_H
