#include "tags/kind.hh"

#include "common/logging.hh"

namespace kagura
{
namespace tags
{

const char *
tagLayoutName(TagLayoutKind kind)
{
    switch (kind) {
      case TagLayoutKind::Baseline:
        return "baseline";
      case TagLayoutKind::Superblock:
        return "superblock";
      case TagLayoutKind::Signature:
        return "signature";
    }
    panic("unknown TagLayoutKind %d", static_cast<int>(kind));
}

} // namespace tags
} // namespace kagura
