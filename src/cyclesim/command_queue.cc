#include "cyclesim/command_queue.hh"

#include "sim/logging.hh"

namespace dramctrl {
namespace cyclesim {

CommandQueue::CommandQueue(unsigned ranks, unsigned banks,
                           unsigned depth)
    : ranks_(ranks), banks_(banks), depth_(depth),
      queues_(static_cast<std::size_t>(ranks) * banks)
{
    if (depth_ == 0)
        fatal("command queue depth must be non-zero");
    // One spare slot for the head-repair push_front (see class docs).
    for (auto &q : queues_)
        q.init(depth_ + 1);
}

void
CommandQueue::push(const Command &cmd)
{
    auto &q = at(cmd.rank, cmd.bank);
    DC_ASSERT(q.size() < depth_, "command queue overflow");
    q.push_back(cmd);
}

bool
CommandQueue::empty() const
{
    for (const auto &q : queues_) {
        if (!q.empty())
            return false;
    }
    return true;
}

std::size_t
CommandQueue::totalSize() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

} // namespace cyclesim
} // namespace dramctrl
