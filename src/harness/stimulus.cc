#include "harness/stimulus.hh"

#include <algorithm>
#include <iterator>

#include "exec/batch_runner.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "trafficgen/dram_gen.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "trafficgen/trace_file.hh"

namespace dramctrl {
namespace harness {

namespace {

const char *const kPatternNames[] = {"linear", "random", "dram",
                                     "trace"};

/** The knobs every generator of @p s shares, over a @p memory window. */
GenConfig
genConfigOf(const Stimulus &s, std::uint64_t memory)
{
    GenConfig gc;
    gc.windowSize = std::min(memory, s.windowBytes);
    gc.readPct = s.readPct;
    gc.minITT = gc.maxITT = fromNs(s.ittNs);
    gc.numRequests = s.requests;
    gc.seed = s.seed;
    return gc;
}

void
checkOrDie(const Stimulus &s, unsigned channels)
{
    std::string why = checkStimulus(s, channels);
    if (!why.empty())
        fatal("%s", why.c_str());
}

} // namespace

const char *
toString(Pattern p)
{
    return kPatternNames[static_cast<unsigned>(p)];
}

bool
fromString(const std::string &name, Pattern &out)
{
    for (unsigned i = 0; i < std::size(kPatternNames); ++i) {
        if (name == kPatternNames[i]) {
            out = static_cast<Pattern>(i);
            return true;
        }
    }
    return false;
}

std::string
checkStimulus(const Stimulus &s, unsigned channels)
{
    if (s.pattern == Pattern::Dram && channels > 1)
        return "the dram pattern is bank-aware and single-channel; use "
               "linear, random or trace with more than one channel";
    if (s.pattern == Pattern::Trace && s.tracePath.empty())
        return "the trace pattern needs a trace file";
    return "";
}

bool
Requestors::done() const
{
    return std::all_of(gens.begin(), gens.end(),
                       [](const BaseGen *g) { return g->done(); }) &&
           std::all_of(players.begin(), players.end(),
                       [](const TracePlayer *p) { return p->done(); });
}

std::uint64_t
Requestors::responses() const
{
    std::uint64_t n = 0;
    for (const BaseGen *g : gens)
        n += static_cast<std::uint64_t>(
            g->genStats().recvResponses.value());
    for (const TracePlayer *p : players)
        n += p->responses();
    return n;
}

double
Requestors::avgReadLatencyNs() const
{
    if (gens.size() + players.size() == 1)
        return gens.empty() ? players[0]->avgReadLatencyNs()
                            : gens[0]->avgReadLatencyNs();
    double weighted = 0, reads = 0;
    for (const BaseGen *g : gens) {
        double n = g->genStats().readLatencyHist.count();
        weighted += g->avgReadLatencyNs() * n;
        reads += n;
    }
    for (const TracePlayer *p : players) {
        double n = static_cast<double>(p->readResponses());
        weighted += p->avgReadLatencyNs() * n;
        reads += n;
    }
    return reads > 0 ? weighted / reads : 0;
}

Requestors
attachStimulus(SingleChannelSystem &tb, const Stimulus &s)
{
    checkOrDie(s, 1);
    Requestors r;
    const DRAMCtrlConfig &cfg = tb.ctrl().config();
    GenConfig gc = genConfigOf(s, cfg.org.channelCapacity);
    switch (s.pattern) {
      case Pattern::Linear:
        r.gens.push_back(&tb.addGen<LinearGen>(gc));
        break;
      case Pattern::Random:
        r.gens.push_back(&tb.addGen<RandomGen>(gc));
        break;
      case Pattern::Dram: {
        DramGenConfig dgc;
        static_cast<GenConfig &>(dgc) = gc;
        dgc.org = cfg.org;
        dgc.mapping = cfg.addrMapping;
        dgc.strideBytes = s.strideBytes;
        dgc.numBanksTarget = s.banks;
        r.gens.push_back(&tb.addGen<DramGen>(dgc));
        break;
      }
      case Pattern::Trace: {
        TracePlayerConfig pc =
            makeTracePlayerConfig(s.tracePath, s.traceScale);
        pc.span = tb.range();
        r.players.push_back(&tb.addGen<TracePlayer>(pc));
        break;
      }
    }
    return r;
}

Requestors
attachStimulus(MultiChannelSystem &mc, const Stimulus &s)
{
    const unsigned channels = mc.numChannels();
    checkOrDie(s, channels);
    Requestors r;
    if (s.pattern == Pattern::Trace) {
        // One player per recorded source id, each streaming the same
        // file filtered to its own records, so the original
        // per-requestor streams reappear whatever the thread count.
        unsigned sources = 1;
        if (traceFormatOf(s.tracePath) == TraceFormat::Dtrc) {
            TraceReader probe(s.tracePath, /*verify_crc=*/false);
            sources = probe.info().numSources;
        }
        for (unsigned src = 0; src < sources; ++src) {
            TracePlayerConfig pc = makeTracePlayerConfig(
                s.tracePath, s.traceScale,
                sources > 1 ? static_cast<int>(src) : -1);
            pc.span = AddrRange(0, mc.totalCapacity());
            r.players.push_back(&mc.addPlayer(pc));
        }
        return r;
    }

    const std::uint64_t memory = mc.totalCapacity();
    GenConfig gc = genConfigOf(s, memory);
    gc.numRequests = std::max<std::uint64_t>(1, s.requests / channels);
    for (unsigned i = 0; i < channels; ++i) {
        GenConfig g = sliceGenWindow(gc, i, channels, memory);
        g.seed = exec::deriveSeed(s.seed, i);
        if (s.pattern == Pattern::Linear)
            r.gens.push_back(&mc.addGen<LinearGen>(g));
        else
            r.gens.push_back(&mc.addGen<RandomGen>(g));
    }
    return r;
}

} // namespace harness
} // namespace dramctrl
