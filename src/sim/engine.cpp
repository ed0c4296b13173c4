#include "sim/engine.hpp"

namespace flip {

std::optional<EngineMode> parse_engine_mode(std::string_view name) noexcept {
  if (name == "batch") return EngineMode::kBatch;
  if (name == "classic") return EngineMode::kClassic;
  if (name == "surrogate") return EngineMode::kSurrogate;
  return std::nullopt;
}

Engine::Engine(std::size_t n, NoiseChannel& channel, const StreamKey& key,
               EngineOptions options)
    : scratch_{Mailbox(n), {}, {}},
      channel_(channel),
      key_(key),
      options_(options) {}

Engine::Engine(std::size_t n, NoiseChannel& channel, Xoshiro256& rng,
               EngineOptions options)
    : Engine(n, channel, StreamKey{rng(), rng()}, options) {}

Metrics Engine::run(Protocol& protocol, Round max_rounds) {
  return run_rounds(scratch_, protocol, channel_, key_, options_, max_rounds);
}

}  // namespace flip
