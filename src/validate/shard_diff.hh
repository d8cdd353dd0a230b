/**
 * @file
 * Sharded-vs-sequential differential check.
 *
 * The sharded engine promises byte-identical results at every
 * --sim-threads value (see sim/shard.hh). This module turns that
 * promise into a fuzzable oracle: build one multi-channel system from
 * a sampled controller configuration, run it once sequentially
 * (simThreads = 1) and once on a worker team, and compare the full
 * stats JSON, the merged per-channel command logs and the final tick
 * byte for byte. Any divergence — a race, a non-deterministic merge, a
 * lookahead violation — fails the case.
 *
 * fuzz_cli draws one ShardCase per fuzz run (channels, thread count,
 * pattern, stimulus), so every fuzzing campaign continuously
 * cross-checks the parallel engine against the sequential reference
 * over the same randomised configuration space as the event-vs-cycle
 * diff.
 */

#ifndef DRAMCTRL_VALIDATE_SHARD_DIFF_H
#define DRAMCTRL_VALIDATE_SHARD_DIFF_H

#include <cstdint>
#include <string>
#include <vector>

#include "dram/dram_config.hh"
#include "harness/stimulus.hh"
#include "sim/random.hh"

namespace dramctrl {
namespace validate {

/** One sampled sharded-determinism scenario. */
struct ShardCase
{
    /** Channels (= shards) in the system. */
    unsigned channels = 2;
    /** Worker threads of the parallel run (the reference uses 1). */
    unsigned simThreads = 2;
    /** Traffic shape: linear or random. */
    harness::Pattern pattern = harness::Pattern::Random;
    unsigned readPct = 100;
    double ittNs = 4.0;
    /** Requests injected by each per-channel generator. */
    std::uint64_t requestsPerGen = 60;
    /** Generator seed base (generator i derives from (seed, i)). */
    std::uint64_t seed = 1;
};

/** Draw one scenario from @p rng. */
ShardCase sampleShardCase(Random &rng);

/** One-line summary of a sampled scenario, for logs. */
std::string summarize(const ShardCase &sc);

/** Verdict of one sharded-vs-sequential run. */
struct ShardDiffResult
{
    bool pass = true;
    /** Human-readable reasons, empty on pass. */
    std::vector<std::string> failures;

    std::string describe() const;
};

/**
 * Run @p sc twice over @p cfg — sequentially and with sc.simThreads
 * workers — and compare stats, command logs and final ticks exactly.
 * Deterministic for fixed inputs (a failure reproduces from the same
 * case). The controller's write drain threshold is forced to zero so
 * every run terminates.
 */
ShardDiffResult runShardDiff(const DRAMCtrlConfig &cfg,
                             const ShardCase &sc);

} // namespace validate
} // namespace dramctrl

#endif // DRAMCTRL_VALIDATE_SHARD_DIFF_H
