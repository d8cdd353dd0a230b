#include "trafficgen/trace_file.hh"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ckpt/ckpt.hh"
#include "sim/logging.hh"

namespace dramctrl {

namespace {

// Buffered appends amortise the stdio call; 64 KiB keeps the working
// set inside L2 while still batching 4096 records per flush.
constexpr std::size_t kWriterBufferBytes = 64 * 1024;

// The reader releases consumed pages in 8 MiB windows: large enough
// that madvise cost is noise, small enough that resident memory stays
// flat while streaming multi-gigabyte traces.
constexpr std::size_t kReleaseWindowBytes = 8 * 1024 * 1024;

void
putU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = (v >> (8 * i)) & 0xff;
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = (v >> (8 * i)) & 0xff;
}

std::uint32_t
getU32(const unsigned char *p)
{
#if defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // The file is little-endian, so on matching hosts a plain load
    // is the decode; this keeps the per-record cost at two loads.
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
#else
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
#endif
}

std::uint64_t
getU64(const unsigned char *p)
{
#if defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
#else
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
#endif
}

/** Decode one 16-byte record at @p p onto a running absolute tick. */
inline void
decodeRecord(const unsigned char *p, Tick &tick, TraceEntry &e,
             unsigned *src)
{
    std::uint64_t w0 = getU64(p);
    std::uint64_t w1 = getU64(p + 8);
    tick += w0 & kMaxTraceTickDelta;
    e.tick = tick;
    e.addr = w1 & kMaxTraceAddr;
    e.size = static_cast<unsigned>((w1 >> 48) & kMaxTraceReqSize);
    e.isRead = (w1 >> 63) != 0;
    if (src != nullptr)
        *src = static_cast<unsigned>(w0 >> 56);
}

} // namespace

//
// TraceWriter
//

TraceWriter::TraceWriter(const std::string &path,
                         std::uint64_t ticks_per_second,
                         std::uint32_t flags)
    : path_(path), ticksPerSecond_(ticks_per_second)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        fatal("cannot write trace file '%s'", path.c_str());
    buffer_.reserve(kWriterBufferBytes + kTraceRecordSize);

    unsigned char header[kTraceHeaderSize] = {};
    putU32(header, kTraceMagic);
    putU32(header + 4, kTraceVersion);
    putU64(header + 8, ticksPerSecond_);
    putU64(header + 16, ~std::uint64_t(0)); // count unknown until finish
    putU32(header + 24, 1);                 // numSources, patched later
    putU32(header + 28, flags);
    putU64(header + 32, 0);                 // reserved
    if (std::fwrite(header, 1, kTraceHeaderSize, file_) !=
        kTraceHeaderSize)
        fatal("cannot write trace header to '%s'", path.c_str());
}

TraceWriter::~TraceWriter()
{
    // A fatal() mid-write can leave the stream unsealed; finishing in
    // the destructor keeps every normally-destroyed writer valid.
    if (!finished_ && file_ != nullptr)
        finish();
}

void
TraceWriter::append(const TraceEntry &e, unsigned src)
{
    DC_ASSERT(!finished_, "append to a finished trace writer");
    if (e.tick < lastTick_)
        fatal("trace '%s': record %llu goes back in time (tick %llu "
              "after %llu); traces must be tick-ordered",
              path_.c_str(), static_cast<unsigned long long>(count_),
              static_cast<unsigned long long>(e.tick),
              static_cast<unsigned long long>(lastTick_));
    std::uint64_t delta = e.tick - lastTick_;
    if (delta > kMaxTraceTickDelta)
        fatal("trace '%s': tick gap %llu exceeds the format's 2^56 "
              "limit", path_.c_str(),
              static_cast<unsigned long long>(delta));
    if (e.addr > kMaxTraceAddr)
        fatal("trace '%s': address 0x%llx exceeds the format's 48-bit "
              "limit", path_.c_str(),
              static_cast<unsigned long long>(e.addr));
    if (e.size > kMaxTraceReqSize)
        fatal("trace '%s': request size %u exceeds the format's "
              "limit %u", path_.c_str(), e.size, kMaxTraceReqSize);
    if (src >= kMaxTraceSources)
        fatal("trace '%s': source id %u exceeds the format's limit %u",
              path_.c_str(), src, kMaxTraceSources - 1);

    unsigned char rec[kTraceRecordSize];
    putU64(rec, delta | (static_cast<std::uint64_t>(src) << 56));
    putU64(rec + 8,
           (e.addr & kMaxTraceAddr) |
               (static_cast<std::uint64_t>(e.size) << 48) |
               (static_cast<std::uint64_t>(e.isRead ? 1 : 0) << 63));
    buffer_.append(reinterpret_cast<const char *>(rec),
                   kTraceRecordSize);
    if (buffer_.size() >= kWriterBufferBytes)
        flushBuffer();

    lastTick_ = e.tick;
    maxSrc_ = std::max(maxSrc_, src);
    ++count_;
}

void
TraceWriter::flushBuffer()
{
    if (buffer_.empty())
        return;
    crc_ = ckpt::crc32Update(crc_, buffer_.data(), buffer_.size());
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size())
        fatal("cannot write trace records to '%s'", path_.c_str());
    buffer_.clear();
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    flushBuffer();

    unsigned char footer[kTraceFooterSize];
    putU32(footer, kTraceEndMagic);
    putU32(footer + 4, crc_ ^ 0xFFFFFFFFu);
    putU64(footer + 8, count_);
    putU64(footer + 16, lastTick_);
    if (std::fwrite(footer, 1, kTraceFooterSize, file_) !=
        kTraceFooterSize)
        fatal("cannot write trace footer to '%s'", path_.c_str());

    // Patch the header's record count and source count now that both
    // are known; the footer copy is what detects truncation.
    unsigned char patch[8];
    putU64(patch, count_);
    if (std::fseek(file_, 16, SEEK_SET) != 0 ||
        std::fwrite(patch, 1, 8, file_) != 8)
        fatal("cannot patch trace header of '%s'", path_.c_str());
    putU32(patch, count_ > 0 ? maxSrc_ + 1 : 1);
    if (std::fwrite(patch, 1, 4, file_) != 4)
        fatal("cannot patch trace header of '%s'", path_.c_str());

    if (std::fclose(file_) != 0)
        fatal("cannot close trace file '%s'", path_.c_str());
    file_ = nullptr;
    finished_ = true;
}

//
// TraceReader
//

TraceReader::TraceReader(const std::string &path, bool verify_crc)
    : path_(path)
{
    // Size first: an empty or short file is a truncated trace, not a
    // mapping failure (and mmap() refuses a zero length anyway). The
    // descriptor is closed before any fatal(); the mapping keeps the
    // file open on its own.
    constexpr std::uint64_t min_size =
        kTraceHeaderSize + kTraceFooterSize;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fatal("cannot open trace file '%s'", path.c_str());
    struct ::stat st{};
    bool stat_ok = ::fstat(fd, &st) == 0;
    std::size_t size = stat_ok ? static_cast<std::size_t>(st.st_size) : 0;
    void *m = stat_ok && size >= min_size
                  ? ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0)
                  : MAP_FAILED;
    ::close(fd);
    if (!stat_ok)
        fatal("cannot stat trace file '%s'", path.c_str());
    if (size < min_size)
        fatal("trace '%s' is truncated: %llu bytes, need at least "
              "%llu for header and footer",
              path.c_str(), static_cast<unsigned long long>(size),
              static_cast<unsigned long long>(min_size));
    if (m == MAP_FAILED)
        fatal("cannot mmap trace file '%s' (%llu bytes)", path.c_str(),
              static_cast<unsigned long long>(size));
    map_.data = static_cast<const unsigned char *>(m);
    map_.size = size;
    ::madvise(m, size, MADV_SEQUENTIAL);

    verifyStructure();
    if (verify_crc) {
        std::uint32_t computed =
            ckpt::crc32Update(0xFFFFFFFFu, map_.data + kTraceHeaderSize,
                              size - kTraceHeaderSize -
                                  kTraceFooterSize) ^
            0xFFFFFFFFu;
        if (computed != info_.crc)
            fatal("trace '%s' is corrupted: record CRC mismatch "
                  "(stored %08x, computed %08x)",
                  path.c_str(), info_.crc, computed);
    }
}

TraceReader::Mapping::~Mapping()
{
    if (data != nullptr)
        ::munmap(const_cast<unsigned char *>(data), size);
}

void
TraceReader::verifyStructure()
{
    const unsigned char *header = map_.data;
    const unsigned char *footer = map_.data + map_.size - kTraceFooterSize;

    if (getU32(header) != kTraceMagic)
        fatal("'%s' is not a .dtrc trace (bad magic %08x)",
              path_.c_str(), getU32(header));
    info_.version = getU32(header + 4);
    if (info_.version != kTraceVersion)
        fatal("trace '%s' has format version %u; this build reads "
              "version %u",
              path_.c_str(), info_.version, kTraceVersion);
    info_.ticksPerSecond = getU64(header + 8);
    if (info_.ticksPerSecond == 0)
        fatal("trace '%s' declares a zero clock rate", path_.c_str());
    std::uint64_t header_count = getU64(header + 16);
    info_.numSources = getU32(header + 24);
    info_.flags = getU32(header + 28);

    if (getU32(footer) != kTraceEndMagic)
        fatal("trace '%s' is truncated or corrupted: footer magic "
              "missing (found %08x)",
              path_.c_str(), getU32(footer));
    info_.crc = getU32(footer + 4);
    info_.recordCount = getU64(footer + 8);
    info_.lastTick = getU64(footer + 16);

    if (header_count == ~std::uint64_t(0))
        fatal("trace '%s' was never finished (header count unset); "
              "the writer died mid-stream",
              path_.c_str());
    if (header_count != info_.recordCount)
        fatal("trace '%s' is corrupted: header says %llu records, "
              "footer says %llu",
              path_.c_str(),
              static_cast<unsigned long long>(header_count),
              static_cast<unsigned long long>(info_.recordCount));
    std::uint64_t expect = kTraceHeaderSize +
                           info_.recordCount * kTraceRecordSize +
                           kTraceFooterSize;
    if (map_.size != expect)
        fatal("trace '%s' is truncated: %llu bytes on disk, %llu "
              "expected for %llu records",
              path_.c_str(), static_cast<unsigned long long>(map_.size),
              static_cast<unsigned long long>(expect),
              static_cast<unsigned long long>(info_.recordCount));
    if (info_.numSources == 0 || info_.numSources > kMaxTraceSources)
        fatal("trace '%s' declares %u sources (limit %u)",
              path_.c_str(), info_.numSources, kMaxTraceSources);
}

void
TraceReader::reset()
{
    pos_ = 0;
    tick_ = 0;
    if (released_ > 0) {
        // Rewinding revisits released pages; undo the DONTNEED hint.
        ::madvise(const_cast<unsigned char *>(map_.data), map_.size,
                  MADV_SEQUENTIAL);
        released_ = 0;
    }
}

bool
TraceReader::next(TraceEntry &e, unsigned *src)
{
    if (pos_ >= info_.recordCount)
        return false;

    std::size_t off = kTraceHeaderSize +
                      static_cast<std::size_t>(pos_) * kTraceRecordSize;
    decodeRecord(map_.data + off, tick_, e, src);
    ++pos_;
    // Release fully-consumed windows so resident memory stays O(1):
    // pages behind the cursor are never touched again.
    if (off - released_ >= 2 * kReleaseWindowBytes) {
        std::size_t upto =
            (off - kReleaseWindowBytes) & ~(kReleaseWindowBytes - 1);
        if (upto > released_) {
            ::madvise(const_cast<unsigned char *>(map_.data) + released_,
                      upto - released_, MADV_DONTNEED);
            released_ = upto;
        }
    }
    return true;
}

//
// Format helpers
//

TraceFormat
traceFormatOf(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        fatal("cannot open trace file '%s'", path.c_str());
    unsigned char magic[4] = {};
    std::size_t n = std::fread(magic, 1, 4, f);
    std::fclose(f);
    return (n == 4 && getU32(magic) == kTraceMagic) ? TraceFormat::Dtrc
                                                    : TraceFormat::Text;
}

TraceFormat
traceFormatForOutput(const std::string &path)
{
    return path.size() >= 4 &&
                   path.compare(path.size() - 4, 4, ".txt") == 0
               ? TraceFormat::Text
               : TraceFormat::Dtrc;
}

std::unique_ptr<TraceWriter>
openCaptureWriter(const std::string &path)
{
    if (traceFormatForOutput(path) == TraceFormat::Text)
        fatal("trace capture '%s': a capture is written as .dtrc only "
              "(text carries neither the live-capture flag nor source "
              "ids); capture to a .dtrc path and run 'trace_cli "
              "convert' for text",
              path.c_str());
    return std::make_unique<TraceWriter>(path, kTicksPerSecond,
                                         kTraceFlagLiveCapture);
}

std::vector<TraceEntry>
loadTraceDtrc(const std::string &path)
{
    TraceReader reader(path);
    std::vector<TraceEntry> entries;
    entries.reserve(
        static_cast<std::size_t>(reader.info().recordCount));
    TraceEntry e;
    while (reader.next(e))
        entries.push_back(e);
    return entries;
}

std::vector<TraceEntry>
loadTraceAuto(const std::string &path)
{
    return traceFormatOf(path) == TraceFormat::Dtrc
               ? loadTraceDtrc(path)
               : loadTrace(path);
}

void
saveTraceDtrc(const std::string &path,
              const std::vector<TraceEntry> &entries)
{
    TraceWriter writer(path);
    for (const TraceEntry &e : entries)
        writer.append(e);
    writer.finish();
}

TracePlayerConfig
makeTracePlayerConfig(const std::string &path, double time_scale,
                      int src_filter)
{
    TracePlayerConfig pc;
    pc.timeScale = time_scale;
    pc.name = "'" + path + "'";
    if (src_filter >= 0)
        pc.name += " source " + std::to_string(src_filter);
    if (traceFormatOf(path) == TraceFormat::Dtrc) {
        auto src = std::make_shared<DtrcTraceSource>(path, src_filter);
        pc.slipOnStall = (src->reader().info().flags &
                          kTraceFlagLiveCapture) == 0;
        pc.source = std::move(src);
    } else {
        pc.source =
            std::make_shared<VectorTraceSource>(loadTrace(path));
    }
    return pc;
}

//
// DtrcTraceSource
//

DtrcTraceSource::DtrcTraceSource(const std::string &path,
                                 int src_filter, bool verify_crc)
    : reader_(path, verify_crc), srcFilter_(src_filter)
{
}

void
DtrcTraceSource::fill()
{
    TraceEntry e;
    unsigned src = 0;
    while (reader_.next(e, &src)) {
        if (srcFilter_ < 0 ||
            src == static_cast<unsigned>(srcFilter_)) {
            cached_ = e;
            cachedValid_ = true;
            return;
        }
    }
    exhausted_ = true;
}

bool
DtrcTraceSource::peek(TraceEntry &e)
{
    if (!cachedValid_ && !exhausted_)
        fill();
    if (!cachedValid_)
        return false;
    e = cached_;
    return true;
}

void
DtrcTraceSource::advance()
{
    DC_ASSERT(cachedValid_, "advance past the end of a trace source");
    cachedValid_ = false;
    ++pos_;
}

void
DtrcTraceSource::seek(std::uint64_t n)
{
    reader_.reset();
    cachedValid_ = false;
    exhausted_ = false;
    pos_ = 0;
    TraceEntry e;
    while (pos_ < n) {
        if (!peek(e))
            fatal("trace '%s': cannot seek to entry %llu (stream has "
                  "only %llu matching records)",
                  reader_.path().c_str(),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(pos_));
        advance();
    }
}

std::uint64_t
DtrcTraceSource::fingerprint() const
{
    // Total record count tagged with the filter, so a restore into a
    // differently-filtered (or different) file trips the check.
    return reader_.info().recordCount * 257 +
           static_cast<std::uint64_t>(srcFilter_ + 1);
}

} // namespace dramctrl
