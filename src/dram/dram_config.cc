#include "dram/dram_config.hh"

#include <algorithm>
#include <cstring>

#include "ckpt/ckpt.hh"
#include "sim/logging.hh"

namespace dramctrl {

const char *
toString(AddrMapping m)
{
    switch (m) {
      case AddrMapping::RoRaBaCoCh: return "RoRaBaCoCh";
      case AddrMapping::RoRaBaChCo: return "RoRaBaChCo";
      case AddrMapping::RoCoRaBaCh: return "RoCoRaBaCh";
    }
    return "InvalidMapping";
}

const char *
toString(PagePolicy p)
{
    switch (p) {
      case PagePolicy::Open: return "open";
      case PagePolicy::OpenAdaptive: return "open_adaptive";
      case PagePolicy::Closed: return "closed";
      case PagePolicy::ClosedAdaptive: return "closed_adaptive";
    }
    return "InvalidPolicy";
}

const char *
toString(SchedPolicy s)
{
    switch (s) {
      case SchedPolicy::Fcfs: return "fcfs";
      case SchedPolicy::FrFcfs: return "frfcfs";
      case SchedPolicy::FrFcfsPrio: return "frfcfs_prio";
    }
    return "InvalidPolicy";
}

bool
fromString(const std::string &name, AddrMapping &out)
{
    for (AddrMapping m : {AddrMapping::RoRaBaCoCh,
                          AddrMapping::RoRaBaChCo,
                          AddrMapping::RoCoRaBaCh}) {
        if (name == toString(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

bool
fromString(const std::string &name, PagePolicy &out)
{
    for (PagePolicy p : {PagePolicy::Open, PagePolicy::OpenAdaptive,
                         PagePolicy::Closed,
                         PagePolicy::ClosedAdaptive}) {
        if (name == toString(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

bool
fromString(const std::string &name, SchedPolicy &out)
{
    for (SchedPolicy s : {SchedPolicy::Fcfs, SchedPolicy::FrFcfs,
                          SchedPolicy::FrFcfsPrio}) {
        if (name == toString(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

const char *
toString(ConfigSection s)
{
    switch (s) {
      case ConfigSection::Organisation: return "organisation";
      case ConfigSection::Timing: return "timing";
      case ConfigSection::Controller: return "controller";
      case ConfigSection::Plugin: return "plugins";
    }
    return "InvalidSection";
}

std::uint64_t
configFingerprint(const DRAMCtrlConfig &cfg)
{
    // Canonical bytes: every value as a little-endian u64; strings and
    // lists carry their length first, so no two configs share bytes.
    std::string bytes;
    auto put = [&bytes](std::uint64_t v) {
        for (int i = 0; i < 8; ++i, v >>= 8)
            bytes += static_cast<char>(v & 0xff);
    };
    auto fold = [&](const ConfigField &, const auto &v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits;
            std::memcpy(&bits, &v, sizeof(bits));
            put(bits);
        } else if constexpr (std::is_same_v<T, std::string>) {
            put(v.size());
            bytes += v;
        } else if constexpr (std::is_same_v<T, std::vector<unsigned>>) {
            put(v.size());
            for (unsigned p : v)
                put(p);
        } else {
            put(static_cast<std::uint64_t>(v));
        }
    };
    forEachField(cfg, fold);
    put(cfg.plugins.size());
    for (const PluginSpec &ps : cfg.plugins)
        forEachPluginField(ps, fold);
    return ckpt::fnv1a(bytes);
}

void
DRAMOrg::check() const
{
    if (burstLength == 0 || deviceBusWidth == 0 || devicesPerRank == 0)
        fatal("DRAM organisation has a zero burst/width/devices field");
    if (!isPowerOf2(ranksPerChannel) || !isPowerOf2(banksPerRank))
        fatal("rank (%u) and bank (%u) counts must be powers of two",
              ranksPerChannel, banksPerRank);
    if (!isPowerOf2(burstSize()))
        fatal("burst size %llu is not a power of two",
              static_cast<unsigned long long>(burstSize()));
    if (!isPowerOf2(rowBufferSize) || rowBufferSize < burstSize())
        fatal("row buffer size %llu must be a power of two >= burst "
              "size %llu",
              static_cast<unsigned long long>(rowBufferSize),
              static_cast<unsigned long long>(burstSize()));
    if (channelCapacity %
            (rowBufferSize * banksPerRank * ranksPerChannel) != 0 ||
        !isPowerOf2(rowsPerBank())) {
        fatal("channel capacity %llu does not give a power-of-two row "
              "count",
              static_cast<unsigned long long>(channelCapacity));
    }
    if (bankGroupsPerRank == 0 || !isPowerOf2(bankGroupsPerRank))
        fatal("bank groups per rank (%u) must be a power of two",
              bankGroupsPerRank);
    if (bankGroupsPerRank > banksPerRank ||
        banksPerRank % bankGroupsPerRank != 0)
        fatal("bank groups (%u) must evenly divide the banks per rank "
              "(%u)",
              bankGroupsPerRank, banksPerRank);
    if (pseudoChannels == 0 || !isPowerOf2(pseudoChannels))
        fatal("pseudochannels per channel (%u) must be a power of two",
              pseudoChannels);
}

void
DRAMTiming::check() const
{
    if (tCK == 0 || tBURST == 0)
        fatal("tCK and tBURST must be non-zero");
    if (tRAS < tRCD)
        fatal("tRAS (%llu) must cover at least tRCD (%llu)",
              static_cast<unsigned long long>(tRAS),
              static_cast<unsigned long long>(tRCD));
    if (tREFI != 0 && tRFC >= tREFI)
        fatal("tRFC (%llu) must be far smaller than tREFI (%llu)",
              static_cast<unsigned long long>(tRFC),
              static_cast<unsigned long long>(tREFI));
    if (activationLimit == 1)
        fatal("an activation limit of 1 serialises all activates; use 0 "
              "to disable the tXAW constraint instead");
    if (tCCD_L != 0 && tCCD_S != 0 && tCCD_L < tCCD_S)
        fatal("tCCD_L (%llu) must be at least tCCD_S (%llu)",
              static_cast<unsigned long long>(tCCD_L),
              static_cast<unsigned long long>(tCCD_S));
    if (tCCD_S != 0 && tCCD_S > tBURST)
        fatal("tCCD_S (%llu) above tBURST (%llu) would starve the data "
              "bus; fold the gap into tBURST instead",
              static_cast<unsigned long long>(tCCD_S),
              static_cast<unsigned long long>(tBURST));
    if (tRRD_L != 0 && tRRD_L < tRRD)
        fatal("tRRD_L (%llu) must be at least tRRD (%llu)",
              static_cast<unsigned long long>(tRRD_L),
              static_cast<unsigned long long>(tRRD));
    if (tRFCsb != 0 && tRFC != 0 && tRFCsb > tRFC)
        fatal("tRFCsb (%llu) must not exceed the all-bank tRFC (%llu)",
              static_cast<unsigned long long>(tRFCsb),
              static_cast<unsigned long long>(tRFC));
}

std::string
DRAMCtrlConfig::describe() const
{
    std::string s;
    s += "[organisation]\n";
    s += formatString("  burst length        %u\n", org.burstLength);
    s += formatString("  device bus width    %u bits\n",
                      org.deviceBusWidth);
    s += formatString("  devices per rank    %u\n",
                      org.devicesPerRank);
    s += formatString("  ranks per channel   %u\n",
                      org.ranksPerChannel);
    s += formatString("  banks per rank      %u\n", org.banksPerRank);
    s += formatString("  row buffer size     %llu B\n",
                      static_cast<unsigned long long>(
                          org.rowBufferSize));
    s += formatString("  channel capacity    %llu MiB\n",
                      static_cast<unsigned long long>(
                          org.channelCapacity >> 20));
    s += formatString("  burst size          %llu B\n",
                      static_cast<unsigned long long>(
                          org.burstSize()));
    // Bank-group / pseudochannel organisation only appears when it
    // departs from the ungrouped DDR3-era default, which keeps the
    // summary of a DDR3-era config short.
    if (org.bankGroupsPerRank != 1)
        s += formatString("  bank groups         %u\n",
                          org.bankGroupsPerRank);
    if (org.pseudoChannels != 1)
        s += formatString("  pseudochannels      %u\n",
                          org.pseudoChannels);
    s += "[timing]\n";
    auto ns = [](Tick t) { return toNs(t); };
    s += formatString("  tCK %.2f  tBURST %.2f  tRCD %.2f  tCL %.2f  "
                      "tRP %.2f  tRAS %.2f ns\n",
                      ns(timing.tCK), ns(timing.tBURST),
                      ns(timing.tRCD), ns(timing.tCL), ns(timing.tRP),
                      ns(timing.tRAS));
    s += formatString("  tWR %.2f  tWTR %.2f  tRTW %.2f  tRRD %.2f  "
                      "tXAW %.2f ns (limit %u)\n",
                      ns(timing.tWR), ns(timing.tWTR), ns(timing.tRTW),
                      ns(timing.tRRD), ns(timing.tXAW),
                      timing.activationLimit);
    s += formatString("  tREFI %.2f us (effective %.2f us at %.0f C)  "
                      "tRFC %.2f ns\n",
                      ns(timing.tREFI) / 1e3,
                      ns(effectiveREFI()) / 1e3, temperatureC,
                      ns(timing.tRFC));
    if (timing.tCCD_L != 0 || timing.tCCD_S != 0 ||
        timing.tRRD_L != 0) {
        s += formatString("  tCCD_L %.2f  tCCD_S %.2f  tRRD_L %.2f ns\n",
                          ns(timing.tCCDLong()),
                          ns(timing.tCCDShort()),
                          ns(timing.tRRDLong()));
    }
    if (timing.tRFCsb != 0)
        s += formatString("  tRFCsb %.2f ns\n", ns(timing.tRFCsb));
    s += "[controller]\n";
    s += formatString("  read buffer %u  write buffer %u  watermarks "
                      "%.2f/%.2f  min writes %u\n",
                      readBufferSize, writeBufferSize,
                      writeHighThreshold, writeLowThreshold,
                      minWritesPerSwitch);
    s += formatString("  scheduler %s  mapping %s  page policy %s\n",
                      toString(schedPolicy), toString(addrMapping),
                      toString(pagePolicy));
    s += formatString("  frontend %.2f ns  backend %.2f ns  max row "
                      "accesses %u\n",
                      ns(frontendLatency), ns(backendLatency),
                      maxAccessesPerRow);
    s += formatString("  power-down %s (delay %.0f ns, tXP %.0f ns)  "
                      "self-refresh %s (delay %.1f us, tXS %.0f ns)\n",
                      enablePowerDown ? "on" : "off",
                      ns(powerDownDelay), ns(tXP),
                      enableSelfRefresh ? "on" : "off",
                      ns(selfRefreshDelay) / 1e3, ns(tXS));
    s += formatString("  per-rank refresh %s\n",
                      perRankRefresh ? "on" : "off");
    if (!requestorPriorities.empty()) {
        s += "  qos priorities     ";
        for (unsigned p : requestorPriorities)
            s += formatString("%u ", p);
        s += "\n";
    }
    if (!plugins.empty()) {
        s += "[plugins]\n";
        for (const PluginSpec &p : plugins) {
            if (p.kind == "ecc") {
                s += formatString("  ecc (%u+%u) correct %u detect %u "
                                  "ber %g seed %llu\n",
                                  p.eccDataBits, p.eccCheckBits,
                                  p.eccCorrectBits, p.eccDetectBits,
                                  p.eccBer,
                                  static_cast<unsigned long long>(
                                      p.eccSeed));
            } else if (p.kind == "prac") {
                s += formatString("  prac threshold %u tRFM %.2f ns\n",
                                  p.pracThreshold, ns(p.tRFM));
            } else if (p.kind == "refmgr-pb") {
                s += formatString("  refmgr-pb tRFCpb %.2f ns\n",
                                  ns(p.tRFCpb));
            } else {
                s += formatString("  %s\n", p.kind.c_str());
            }
        }
    }
    return s;
}

const PluginSpec *
DRAMCtrlConfig::findPlugin(const std::string &kind) const
{
    for (const PluginSpec &p : plugins) {
        if (p.kind == kind)
            return &p;
    }
    return nullptr;
}

Tick
DRAMCtrlConfig::effectiveREFI() const
{
    if (timing.tREFI == 0 || temperatureC <= 85.0)
        return timing.tREFI;
    auto steps = static_cast<unsigned>(
        (temperatureC - 85.0 + 9.999) / 10.0);
    Tick refi = timing.tREFI >> std::min(steps, 6u);
    // Never let derating push tREFI below the refresh itself.
    return std::max(refi, timing.tRFC * 2);
}

void
DRAMCtrlConfig::check() const
{
    org.check();
    timing.check();
    if (readBufferSize == 0 || writeBufferSize == 0)
        fatal("queue sizes must be non-zero");
    if (writeLowThreshold >= writeHighThreshold)
        fatal("write low threshold (%.2f) must be below the high "
              "threshold (%.2f)",
              writeLowThreshold, writeHighThreshold);
    if (writeHighThreshold > 1.0 || writeLowThreshold < 0.0)
        fatal("write thresholds must lie in [0, 1]");
    if (minWritesPerSwitch == 0)
        fatal("minWritesPerSwitch must be at least 1");
    if (minWritesPerSwitch > writeBufferSize)
        fatal("minWritesPerSwitch (%u) exceeds the write buffer (%u)",
              minWritesPerSwitch, writeBufferSize);
    if (enableSelfRefresh && !enablePowerDown)
        fatal("self-refresh requires enablePowerDown");
    if (enableSelfRefresh && selfRefreshDelay == 0)
        fatal("selfRefreshDelay must be non-zero");

    unsigned refresh_managers = 0;
    for (std::size_t i = 0; i < plugins.size(); ++i) {
        const PluginSpec &p = plugins[i];
        if (p.kind != "ecc" && p.kind != "prac" && p.kind != "refmgr" &&
            p.kind != "refmgr-pb")
            fatal("unknown plugin kind '%s'", p.kind.c_str());
        for (std::size_t j = 0; j < i; ++j) {
            if (plugins[j].kind == p.kind)
                fatal("plugin '%s' registered twice", p.kind.c_str());
        }
        if (p.kind == "refmgr" || p.kind == "refmgr-pb")
            ++refresh_managers;
        if (p.kind == "ecc") {
            if (p.eccDataBits == 0)
                fatal("ecc plugin needs non-zero data bits");
            if (p.eccCorrectBits > p.eccDetectBits)
                fatal("ecc correct capability (%u) cannot exceed "
                      "detect capability (%u)",
                      p.eccCorrectBits, p.eccDetectBits);
            if (p.eccBer < 0.0 || p.eccBer >= 1.0)
                fatal("ecc bit error rate %g outside [0, 1)", p.eccBer);
        }
        if (p.kind == "prac") {
            if (p.pracThreshold == 0)
                fatal("prac threshold must be at least 1");
            if (p.tRFM == 0)
                fatal("prac tRFM must be non-zero");
        }
        if (p.kind == "refmgr-pb") {
            if (p.tRFCpb == 0)
                fatal("refmgr-pb tRFCpb must be non-zero");
            if (timing.tREFI == 0)
                fatal("refmgr-pb requires a non-zero tREFI");
            if (perRankRefresh)
                fatal("refmgr-pb replaces the refresh schedule and "
                      "cannot combine with perRankRefresh");
            if (enablePowerDown || enableSelfRefresh)
                fatal("refmgr-pb does not model power-down or "
                      "self-refresh interactions");
        }
    }
    if (refresh_managers > 1)
        fatal("at most one refresh manager plugin may be registered");
}

} // namespace dramctrl
