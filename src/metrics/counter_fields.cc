#include "metrics/counter_fields.hh"

#include <string>

#include "metrics/registry.hh"

namespace kagura
{
namespace metrics
{

void
recordCounter(MetricSet &set, std::string_view prefix,
              std::string_view name, std::span<const std::uint64_t> words,
              bool histogram)
{
    const std::string full = std::string(prefix) + '/' + std::string(name);
    if (!histogram) {
        set.counter(full).add(words.front());
        return;
    }
    for (std::size_t k = 0; k < words.size(); ++k) {
        if (words[k])
            set.counter(full + '/' + std::to_string(k + 1)).add(words[k]);
    }
}

} // namespace metrics
} // namespace kagura
