#include "repl/kind.hh"

#include "common/logging.hh"

namespace kagura
{
namespace repl
{

const char *
replacementPolicyName(ReplKind kind)
{
    switch (kind) {
      case ReplKind::Lru:
        return "LRU";
      case ReplKind::Fifo:
        return "FIFO";
      case ReplKind::Random:
        return "random";
      case ReplKind::Camp:
        return "CAMP";
      case ReplKind::Crrip:
        return "CRRIP";
      case ReplKind::SizeOptgen:
        return "size-optgen";
      case ReplKind::Dish:
        return "dish";
    }
    panic("unknown ReplKind %d", static_cast<int>(kind));
}

std::span<const ReplKind>
onlineReplKinds()
{
    static constexpr ReplKind online[] = {
        ReplKind::Lru,  ReplKind::Fifo,  ReplKind::Random,
        ReplKind::Camp, ReplKind::Crrip, ReplKind::Dish,
    };
    return online;
}

} // namespace repl
} // namespace kagura
